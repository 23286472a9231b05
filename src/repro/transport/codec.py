"""The message form of the fork pipe.

A forked collection worker and its master exchange whole
``multiprocessing`` pipe messages (see :mod:`repro.env.worker`), each
one pickled pair: the master sends ``(cmd, payload)``, the worker
answers ``(cmd, result)``.  Both ends call the two functions here, so
this module is the one place that form is defined.

An error reply is ``(None, error)``: the exception itself when it
survives a pickle round trip, otherwise its text (type, message and
worker traceback).  Pickle is for trusted peers only, which the
topology guarantees: every worker is forked by its master.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any, Optional, Tuple

__all__ = ["decode_reply", "encode_reply"]


def encode_reply(cmd: Optional[str], result: Any) -> bytes:
    """One pipe message: the pickled ``(cmd, result)``.

    ``cmd=None`` marks an error reply whose ``result`` is the exception.
    It crosses whole only if it also loads back: one that pickles but
    raises on load (a lying pickler) travels as text, like one that
    does not pickle at all.
    """
    if cmd is None:
        try:
            pickle.loads(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        except Exception:
            lines = traceback.format_exception(
                type(result), result, result.__traceback__
            )
            result = (
                f"{type(result).__name__}: {result}\n"
                f"[worker traceback]\n{''.join(lines)}"
            )
    return pickle.dumps((cmd, result), pickle.HIGHEST_PROTOCOL)


def decode_reply(payload: bytes) -> Tuple[Optional[str], Any]:
    """``(cmd, result)`` from one pipe message.

    The inverse of :func:`encode_reply`; bytes that are not a pickled
    pair raise.
    """
    cmd, result = pickle.loads(payload)
    return cmd, result
