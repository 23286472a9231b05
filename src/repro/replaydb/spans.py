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

from repro.replaydb.records import Minibatch
from repro.replaydb.sampler import MinibatchSampler, SamplerStarvedError
from repro.util.validation import check_positive


class TickSpans:
    """Per-block sampling frontier over a (possibly strided) tick space.

    Tracks, for each block, the highest local tick ingested so far
    (``-1`` = empty).  Writers call :meth:`observe_top` with each
    block's newest tick; samplers ask :meth:`candidate_spans` which global
    ticks are eligible transition timestamps.  ``stride=None`` means a
    single unbounded block (plain, unstrided tick space).

    Sharded fleets add one more dimension: blocks are partitioned into
    contiguous runs, one per shard host, described by ``shard_sizes``
    (``[K_0, K_1, ...]``, summing to ``n_blocks``).  Shard ``s``'s
    local slot ``i`` is global block ``shard_offset(s) + i`` — the
    stride layout itself never changes, so samplers are oblivious to
    sharding; the topology only feeds per-shard bookkeeping
    (:meth:`shard_tops`) and session snapshots.
    """

    def __init__(
        self,
        n_blocks: int = 1,
        stride: Optional[int] = None,
        shard_sizes: Optional[Sequence[int]] = None,
    ):
        check_positive("n_blocks", n_blocks)
        if stride is not None:
            check_positive("stride", stride)
        self.n_blocks = int(n_blocks)
        self.stride = None if stride is None else int(stride)
        self._tops = [-1] * self.n_blocks
        self.shard_sizes: Optional[List[int]] = None
        if shard_sizes is not None:
            sizes = [int(k) for k in shard_sizes]
            for k in sizes:
                check_positive("shard size", k)
            if sum(sizes) != self.n_blocks:
                raise ValueError(
                    f"shard_sizes {sizes} sum to {sum(sizes)}, but the "
                    f"frontier tracks {self.n_blocks} block(s)"
                )
            self.shard_sizes = sizes

    @property
    def tick_stride(self) -> Optional[int]:
        """Alias for :attr:`stride` (the VectorEnv attribute name)."""
        return self.stride

    @property
    def n_shards(self) -> int:
        """How many shards partition the blocks (1 when unsharded)."""
        return 1 if self.shard_sizes is None else len(self.shard_sizes)

    def shard_offset(self, shard: int) -> int:
        """The first global block shard ``shard`` owns."""
        if self.shard_sizes is None:
            if shard != 0:
                raise IndexError(
                    f"unsharded frontier has only shard 0, got {shard}"
                )
            return 0
        if not 0 <= shard < len(self.shard_sizes):
            raise IndexError(
                f"shard {shard} out of range 0..{len(self.shard_sizes) - 1}"
            )
        return sum(self.shard_sizes[:shard])

    def shard_of(self, block: int) -> int:
        """Which shard hosts global block ``block``."""
        if not 0 <= block < self.n_blocks:
            raise IndexError(
                f"block {block} out of range 0..{self.n_blocks - 1}"
            )
        if self.shard_sizes is None:
            return 0
        edge = 0
        for s, k in enumerate(self.shard_sizes):
            edge += k
            if block < edge:
                return s
        raise AssertionError("unreachable")  # pragma: no cover

    def global_slot(self, shard: int, local: int) -> int:
        """Global block index of shard ``shard``'s local slot ``local``."""
        offset = self.shard_offset(shard)
        size = (
            self.n_blocks
            if self.shard_sizes is None
            else self.shard_sizes[shard]
        )
        if not 0 <= local < size:
            raise IndexError(
                f"slot {local} out of range 0..{size - 1} on shard {shard}"
            )
        return offset + local

    def shard_tops(self, shard: int) -> List[int]:
        """Frontier of the blocks shard ``shard`` owns (a list copy)."""
        offset = self.shard_offset(shard)
        size = (
            self.n_blocks
            if self.shard_sizes is None
            else self.shard_sizes[shard]
        )
        return list(self._tops[offset : offset + size])

    @classmethod
    def from_tops(
        cls,
        stride: Optional[int],
        tops: Sequence[int],
        shard_sizes: Optional[Sequence[int]] = None,
    ) -> "TickSpans":
        """A frontier with explicit per-block tops (mostly for tests)."""
        spans = cls(
            n_blocks=max(1, len(tops)),
            stride=stride,
            shard_sizes=shard_sizes,
        )
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
    after a checkpoint measurement on the reference cluster).

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

    def sample_minibatch(self, n: int, max_attempts: int = 200):
        """ConstructMinibatch(n), uniform over all blocks' transitions."""
        check_positive("n", n)
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
            # Uniform over the concatenation of all candidate spans.
            flat = self.rng.integers(0, int(cum[-1]), size=needed)
            return flat + shift[np.searchsorted(cum, flat, side="right")]

        _, *columns = self._fill(n, max_attempts, draw)
        return Minibatch(*columns)
