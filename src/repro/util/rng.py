"""Random-number discipline.

Every stochastic component in the reproduction accepts either a seed or a
``numpy.random.Generator``.  Components that own sub-components derive
independent child generators with :func:`derive_rng` so that two runs with
the same top-level seed are bit-identical regardless of the order in which
sub-components draw numbers.  This mirrors the determinism requirements of
the paper's Pilot-style statistics: confidence intervals are only
comparable across runs when the runs themselves are reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a ``numpy.random.Generator``.

    ``None`` yields a nondeterministic generator; an ``int`` or
    ``SeedSequence`` yields a deterministic one; an existing generator is
    returned unchanged (not copied — callers share state intentionally).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_rng(parent: np.random.Generator, *key: object) -> np.random.Generator:
    """Derive an independent child generator from ``parent``.

    ``key`` items (typically strings/ints naming the child component) are
    hashed into the spawn so that children are stable under re-ordering of
    sibling construction.  Uses the generator's bit stream once, which is
    acceptable: the parent is only used for spawning at setup time.
    """
    # Fold the key into 4 deterministic 64-bit words, then mix with fresh
    # entropy drawn from the parent so distinct parents produce distinct
    # children even for equal keys.  The per-item hash must be stable
    # across interpreter invocations — Python's built-in str hash is
    # salted per process, which would make every "seeded" run
    # irreproducible from the command line — so use blake2b instead.
    words = np.zeros(4, dtype=np.uint64)
    for i, item in enumerate(key):
        digest = hashlib.blake2b(str(item).encode(), digest_size=8).digest()
        words[i % 4] ^= np.uint64(int.from_bytes(digest, "little"))
    salt = parent.integers(0, 2**63 - 1, size=2, dtype=np.int64)
    seq = np.random.SeedSequence(
        entropy=[int(w) for w in words] + [int(s) for s in salt]
    )
    return np.random.default_rng(seq)


class RngMixin:
    """Mixin that standardizes RNG ownership for stochastic components."""

    @property
    def rng(self) -> np.random.Generator:
        rng: Optional[np.random.Generator] = getattr(self, "_rng", None)
        if rng is None:
            # Lazy default keeps simple components usable without setup.
            self._rng = np.random.default_rng()
            rng = self._rng
        return rng
