"""The fork pipe's message form.

:mod:`repro.transport.codec` pickles each worker command as
``(cmd, payload)`` and each reply as ``(cmd, result)`` (an error reply
as ``(None, error)``).  A forked worker and its master exchange these
as whole ``multiprocessing`` pipe messages (see
:mod:`repro.env.worker`); the serve daemon's stream framing lives in
:mod:`repro.serve.protocol`.
"""

from repro.transport.codec import decode_reply, encode_reply

__all__ = ["decode_reply", "encode_reply"]
