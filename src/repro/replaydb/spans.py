"""Block-strided tick spaces and the sampler that understands them.

A shared fan-in replay store assigns each experience source a *block*
of the tick space: source ``i`` writes its local tick ``t`` at global
tick ``i * stride + t`` (see :class:`~repro.env.vector.VectorEnv`).
Two consumers need to reason about that layout without holding the
fleet itself:

- :class:`TickSpans` tracks the per-block sampling frontier (the
  highest tick ingested per block) and turns it into candidate spans —
  the fan-in bookkeeping of the fleet and of the serve daemon;
- :class:`StridedMinibatchSampler` runs Algorithm 1 over such a space:
  uniform over all stored transitions, never starved by the empty gulf
  between blocks.

``stride=None`` degrades to a single unstrided block, so one code path
serves both the vectorized fleet and a single environment's feed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.replaydb.sampler import MinibatchSampler, SamplerStarvedError
from repro.util.validation import check_positive


class TickSpans:
    """Per-block sampling frontier over a (possibly strided) tick space.

    Tracks, for each block, the highest local tick ingested so far
    (``-1`` = empty).  Writers call :meth:`observe_top` with each
    block's newest tick; samplers ask :meth:`candidate_spans` which global
    ticks are eligible transition timestamps.  ``stride=None`` means a
    single unbounded block (plain, unstrided tick space).
    """

    def __init__(self, n_blocks: int = 1, stride: Optional[int] = None):
        check_positive("n_blocks", n_blocks)
        if stride is not None:
            check_positive("stride", stride)
        self.n_blocks = int(n_blocks)
        self.stride = None if stride is None else int(stride)
        self._tops = [-1] * self.n_blocks

    @property
    def tick_stride(self) -> Optional[int]:
        """Alias for :attr:`stride` (the VectorEnv attribute name)."""
        return self.stride

    @classmethod
    def from_tops(
        cls, stride: Optional[int], tops: Sequence[int]
    ) -> "TickSpans":
        """A frontier with explicit per-block tops (mostly for tests)."""
        spans = cls(n_blocks=max(1, len(tops)), stride=stride)
        for i, top in enumerate(tops):
            spans._tops[i] = int(top)
        return spans

    def reset(self) -> None:
        """Forget every block's progress (fan-in store was cleared)."""
        self._tops = [-1] * self.n_blocks

    def top(self, block: int) -> int:
        """Highest local tick ingested for ``block`` (-1 = none)."""
        return self._tops[block]

    def tops(self) -> List[int]:
        """Per-block frontier as a list copy."""
        return list(self._tops)

    def observe_top(self, block: int, local_top: int) -> None:
        """Raise ``block``'s frontier to ``local_top`` if it is higher."""
        if local_top > self._tops[block]:
            self._tops[block] = int(local_top)

    def candidate_spans(self, obs_ticks: int) -> List[tuple]:
        """Inclusive global-tick spans of eligible transition timestamps.

        A timestamp ``t`` is eligible when a full ``obs_ticks``
        observation window can end at ``t`` and ``t + 1`` exists within
        the same block (the Algorithm 1 sampler never stacks frames
        across blocks).  One ``(first, last)`` pair per non-empty block.
        """
        spans = []
        stride = self.stride or 0
        for i, top in enumerate(self._tops):
            first = obs_ticks - 1
            last = top - 1  # t+1 must exist
            if last >= first:
                spans.append((i * stride + first, i * stride + last))
        return spans


class StridedMinibatchSampler(MinibatchSampler):
    """Algorithm 1 over a block-strided shared replay DB.

    The base sampler draws candidate timestamps uniformly from
    ``[min_tick, max_tick]`` — over a blocked tick space that range is
    almost entirely empty, so rejection sampling would starve.  This
    subclass draws a uniform index over the concatenated candidate
    spans of every non-empty block instead, which stays uniform over
    all stored transitions even when one block has run ahead (e.g.
    after a checkpoint measurement on the reference cluster).  Only the
    draw differs: :meth:`sample_minibatch` and :meth:`minibatches` are
    the base class's.

    ``spans`` is the :class:`TickSpans` frontier the store's writer
    maintains — the sampler re-reads it on every draw, so records that
    land between draws (chunked fan-in, a feeding trainer) become
    eligible immediately.
    """

    def __init__(
        self,
        cache,
        spans: TickSpans,
        obs_ticks: int = 10,
        missing_tolerance: float = 0.20,
        seed=None,
    ):
        super().__init__(
            cache,
            obs_ticks=obs_ticks,
            missing_tolerance=missing_tolerance,
            seed=seed,
        )
        self.spans = spans

    def _drawer(self):
        """Uniform over the concatenation of every block's candidate span."""
        spans = self.spans.candidate_spans(self.obs_ticks)
        if not spans:
            raise SamplerStarvedError(
                "shared replay DB does not yet span one full observation "
                "window in any environment"
            )
        firsts, lasts = np.array(spans).T
        lengths = lasts - firsts + 1
        cum = np.cumsum(lengths)
        # Flat index -> global tick: add the block's first candidate
        # tick, subtract the flat index its span starts at.
        shift = firsts - (cum - lengths)

        def draw(needed: int) -> np.ndarray:
            flat = self.rng.integers(0, int(cum[-1]), size=needed)
            return flat + shift[np.searchsorted(cum, flat, side="right")]

        return draw
