"""Property-based invariants for the replay layer (hypothesis).

The scenario subsystem leans on the replay path being trustworthy
under *arbitrary* interleavings — dropped ticks, ring wrap-around,
block-strided fan-in — not just the happy paths the
example-based tests walk.  These properties are model-based: a plain
dict model shadows every operation and the cache/sampler must agree
with it exactly.

The hypothesis runs are derandomized so the tier-1 suite stays
deterministic; bump ``max_examples`` locally when hunting.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.env.registry import _default_workload
from repro.env.tuning_env import EnvConfig
from repro.replaydb.cache import ReplayCache
from repro.replaydb.db import ReplayDB
from repro.replaydb import sampler as sampler_module
from repro.replaydb.records import Minibatch, TickRecord
from repro.replaydb.sampler import MinibatchSampler, SamplerStarvedError
from repro.replaydb.spans import StridedMinibatchSampler, TickSpans
from repro.sim.vec.config import FleetConfig
from repro.sim.vec.state import FleetState, RecordView

SETTINGS = dict(max_examples=40, deadline=None, derandomize=True)

CAPACITY = 8


def _record(tick: int, value: float = None, action: int = -1) -> TickRecord:
    value = float(tick) if value is None else value
    return TickRecord(
        tick=tick,
        frame=np.array([value, -value]),
        action=action,
        reward=value / 10.0,
    )


class TestReplayCacheProperties:
    """Capacity/eviction invariants under arbitrary put sequences."""

    @given(ticks=st.lists(st.integers(0, 4 * CAPACITY), max_size=40))
    @settings(**SETTINGS)
    def test_cache_matches_dict_model(self, ticks):
        cache = ReplayCache(2, capacity=CAPACITY)
        model = {}  # tick -> value of the *last* accepted put
        max_tick = None
        for tick in ticks:
            value = float(tick) + 0.5  # distinguish rewrites from zeros
            too_old = max_tick is not None and tick <= max_tick - CAPACITY
            if too_old:
                with pytest.raises(ValueError):
                    cache.put(_record(tick, value))
                continue
            cache.put(_record(tick, value))
            model[tick] = value
            max_tick = tick if max_tick is None else max(max_tick, tick)
            # Window invariants hold after every single operation.
            assert cache.max_tick == max_tick
            horizon = max_tick - CAPACITY
            live = {t for t in model if t > horizon}
            # min_tick is a lower bound on live ticks: the min ever
            # stored, clamped to the ring horizon as it advances.
            assert horizon < cache.min_tick <= min(live)
            for t in range(max(0, max_tick - 2 * CAPACITY), max_tick + 2):
                assert cache.has(t) == (t in live), f"tick {t}"
            for t in live:
                rec = cache.get(t)
                assert rec.frame[0] == model[t]
                assert rec.tick == t

    @given(
        ticks=st.lists(
            st.integers(0, 3 * CAPACITY), min_size=1, max_size=30, unique=True
        )
    )
    @settings(**SETTINGS)
    def test_len_never_exceeds_capacity(self, ticks):
        cache = ReplayCache(2, capacity=CAPACITY)
        accepted = 0
        for tick in sorted(ticks):
            cache.put(_record(tick))
            accepted += 1
            assert len(cache) <= CAPACITY
            assert len(cache) <= accepted

    def test_wrapped_ring_never_serves_stale_slots(self):
        """Regression: a dropped tick whose slot still holds the record
        from one capacity earlier must read as missing, not stale."""
        cache = ReplayCache(2, capacity=4)
        cache.put(_record(0, 99.0, action=1))
        cache.put(_record(7))
        assert not cache.has(4)  # never stored; slot 0 holds tick 0
        with pytest.raises(KeyError):
            cache.get(4)
        with pytest.raises(KeyError):
            cache.set_action(4, 2)
        assert cache.has(7) and cache.get(7).frame[0] == 7.0


class TestReplayDBProperties:
    """The SQLite façade and its cache stay consistent."""

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 2 * CAPACITY),  # tick
                st.sampled_from(["obs", "action", "reward"]),
            ),
            max_size=30,
        )
    )
    @settings(**SETTINGS)
    def test_db_and_cache_agree(self, ops):
        db = ReplayDB(2, cache_capacity=CAPACITY)
        try:
            stored = {}  # tick -> (value, action, reward)
            max_tick = None
            for tick, kind in ops:
                if kind == "obs":
                    if max_tick is not None and tick <= max_tick - CAPACITY:
                        continue  # cache would reject; skip
                    value = float(tick) + 0.25
                    db.put_observation(
                        tick, np.array([value, 0.0]), reward=value
                    )
                    stored[tick] = [value, -1, value]
                    max_tick = (
                        tick if max_tick is None else max(max_tick, tick)
                    )
                elif kind == "action":
                    db.put_action(tick, 3)
                    if tick in stored and db.cache.has(tick):
                        stored[tick][1] = 3
                elif kind == "reward":
                    if tick in stored:
                        db.set_reward(tick, -1.5)
                        if db.cache.has(tick):
                            stored[tick][2] = -1.5
            assert db.record_count() == len(stored)
            for tick, (value, action, reward) in stored.items():
                if db.cache.has(tick):
                    rec = db.cache.get(tick)
                    assert rec.frame[0] == value
                    assert rec.action == action
                    assert rec.reward == reward
        finally:
            db.close()


class TestStridedSamplerProperties:
    """Block-aware sampling over arbitrary per-env progress states."""

    OBS_TICKS = 2

    def _sampler(self, stride, synced):
        cache = ReplayCache(2, capacity=stride * len(synced))
        for i, top in enumerate(synced):
            for t in range(max(0, top) + 1):
                cache.put(
                    TickRecord(
                        tick=i * stride + t,
                        frame=np.array([float(i), float(t)]),
                        action=t % 3,
                        reward=1.0,
                    )
                )
        return StridedMinibatchSampler(
            cache,
            TickSpans.from_tops(stride, synced),
            obs_ticks=self.OBS_TICKS,
            seed=0,
        )

    @given(
        stride=st.integers(8, 32),
        synced=st.lists(st.integers(-1, 7), min_size=1, max_size=5),
    )
    @settings(**SETTINGS)
    def test_spans_stay_inside_their_blocks(self, stride, synced):
        sampler = self._sampler(stride, synced)
        spans = sampler.spans.candidate_spans(sampler.obs_ticks)
        for first, last in spans:
            block = first // stride
            assert first <= last
            assert block == last // stride  # never crosses a boundary
            assert first % stride >= self.OBS_TICKS - 1
            assert last % stride <= synced[block] - 1
        # Exactly the environments with a full window contribute a span.
        expected = [
            i
            for i, top in enumerate(synced)
            if top - 1 >= self.OBS_TICKS - 1
        ]
        assert [f // stride for f, _ in spans] == expected

    @given(
        stride=st.integers(8, 16),
        synced=st.lists(st.integers(3, 7), min_size=1, max_size=4),
    )
    @settings(**SETTINGS)
    def test_sampled_transitions_come_from_valid_spans(self, stride, synced):
        sampler = self._sampler(stride, synced)
        batch = sampler.sample_minibatch(8)
        assert batch.s_t.shape == (8, self.OBS_TICKS * 2)
        # Block identity rides in the frame's first column: every
        # stacked frame in every observation belongs to one env.
        blocks = batch.s_t[:, 0::2]
        assert (blocks == blocks[:, :1]).all()

    def test_starved_when_no_block_has_a_window(self):
        sampler = self._sampler(8, [0, 1])
        with pytest.raises(SamplerStarvedError):
            sampler.sample_minibatch(2)


# -- batched Algorithm 1 vs the scalar reference -------------------------------
#
# ``gather`` / ``transitions_at`` / the shared top-up loop replaced a
# per-transition Python loop without changing a single accepted sample
# or RNG draw.  The scalar ``has`` / ``get`` / ``transition_at`` stay in
# the tree as the reference; the loop that used to call them lives on
# here, and every batched result must equal it exactly.

WIDTH = 3


@st.composite
def tick_rows(draw):
    """A monitoring stream with gaps: ascending ``(tick, action)``.

    Roughly a quarter of the ticks are dropped and a quarter of the
    stored ones carry no action; frames and rewards are functions of
    the tick, so a stale or shifted row can never compare equal.
    """
    n_ticks = draw(st.integers(4, 36))
    fate = draw(
        st.lists(st.integers(0, 7), min_size=n_ticks, max_size=n_ticks)
    )
    return [
        (tick, -1 if f in (2, 3) else f % 3)
        for tick, f in enumerate(fate)
        if f not in (0, 1)
    ]


def _frame(tick: int) -> np.ndarray:
    return np.array([tick + 0.5, -float(tick), 0.25 * tick])


def _ring(rows, capacity: int) -> ReplayCache:
    """Rows written one by one into a ring that may be shorter than the
    stream, so dropped ticks leave stale records one capacity back."""
    cache = ReplayCache(WIDTH, capacity=capacity)
    for tick, action in rows:
        cache.put(
            TickRecord(
                tick=tick, frame=_frame(tick), action=action, reward=tick / 8.0
            )
        )
    return cache


_FLEET_CONFIG = FleetConfig.from_env_config(
    EnvConfig(
        cluster=ClusterConfig(n_servers=1, n_clients=1),
        workload_factory=_default_workload,
    )
)


class _Fleet:
    """The record columns' owner, as :class:`RecordView` reads it."""

    def __init__(self, state: FleetState):
        self.state = state
        self.n_envs = state.n_envs
        self.frame_dim = state.frame_dim


def _view(rows) -> RecordView:
    """The same rows through the fleet engine's record columns."""
    state = FleetState(_FLEET_CONFIG, seeds=[0, 1], frame_dim=WIDTH)
    e = np.array([1])
    for tick, action in rows:
        state.tick[e] = tick
        state.append_records(e, _frame(tick)[None, :], np.array([tick / 8.0]))
        if action >= 0:
            assert state.set_action(1, tick, action)
    return RecordView(_Fleet(state), env=1)


def _store(duck: str, rows, capacity: int):
    """``(cache duck, its backing frame storage)``."""
    if duck == "ring":
        cache = _ring(rows, capacity)
        return cache, cache._frames
    view = _view(rows)
    return view, view._fleet.state.rec_frames


def _reference_minibatch(sampler, n, draw, max_attempts=200):
    """The per-transition top-up loop the batched path replaced."""
    collected = []
    needed = n
    attempts = 0
    while needed > 0:
        attempts += 1
        if attempts > max_attempts:
            raise SamplerStarvedError("reference loop starved")
        for t in draw(needed):
            tr = sampler.transition_at(int(t))
            if tr is not None:
                collected.append(tr)
        needed = n - len(collected)
    return collected[:n]


def _assert_batch_equals(batch, reference):
    np.testing.assert_array_equal(
        batch.s_t, np.stack([tr.s_t for tr in reference])
    )
    np.testing.assert_array_equal(
        batch.s_next, np.stack([tr.s_next for tr in reference])
    )
    assert batch.actions.tolist() == [tr.action for tr in reference]
    assert batch.rewards.tolist() == [tr.reward for tr in reference]
    assert batch.actions.dtype == np.int64
    assert batch.rewards.dtype == np.float64


def _sample_both(sampler, twin, n, draw, max_attempts):
    """Run the batched sampler and the reference loop on its twin; both
    fill (returning ``(batch, reference)``) or both starve (None) — and
    either way they leave their generators in the same state."""
    try:
        reference = _reference_minibatch(twin, n, draw, max_attempts)
    except SamplerStarvedError:
        reference = None
    try:
        batch = sampler.sample_minibatch(n, max_attempts=max_attempts)
    except SamplerStarvedError:
        batch = None
    assert sampler.rng.bit_generator.state == twin.rng.bit_generator.state
    assert (batch is None) == (reference is None)
    if batch is None:
        return None
    _assert_batch_equals(batch, reference)
    return batch, reference


def _assert_minibatches_are_calls(make, k, n, max_attempts, group):
    """``list(minibatches(k, n))`` on one fresh sampler equals ``k``
    ``sample_minibatch(n)`` calls on another, array for array to the
    byte, with None where a call starves; both generators end equal.

    The gather budget is cut to ``group`` minibatches, so ``k`` spans
    several groups and need not be a multiple of one.
    """
    grouped, calls = make(), make()
    S, W = grouped.obs_ticks, grouped.cache.frame_width
    budget = group * n * (S + 1) * W * 8
    with mock.patch.object(sampler_module, "GROUP_BYTES", budget):
        got = list(grouped.minibatches(k, n, max_attempts))
    assert len(got) == k
    for batch in got:
        try:
            want = calls.sample_minibatch(n, max_attempts=max_attempts)
        except SamplerStarvedError:
            want = None
        assert (batch is None) == (want is None)
        if want is None:
            continue
        for mine, theirs in zip(
            (batch.s_t, batch.s_next, batch.actions, batch.rewards),
            (want.s_t, want.s_next, want.actions, want.rewards),
        ):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()
    assert grouped.rng.bit_generator.state == calls.rng.bit_generator.state


DUCKS = pytest.mark.parametrize("duck", ["ring", "view"])
WINDOWS = dict(
    obs_ticks=st.sampled_from([1, 3, 5, 10]),
    tolerance=st.sampled_from([0.0, 0.2, 1.0]),
)
#: A burst through :meth:`MinibatchSampler.minibatches`: ``k`` minibatches
#: of ``n`` in groups of ``group``, starving after ``max_attempts`` rounds.
BURSTS = dict(
    k=st.integers(1, 11),
    n=st.integers(1, 6),
    group=st.integers(1, 4),
    max_attempts=st.sampled_from([1, 3, 200]),
)


class TestBatchedGatherMatchesScalar:
    @DUCKS
    @given(rows=tick_rows(), capacity=st.integers(5, 40))
    @settings(**SETTINGS)
    def test_gather_is_has_and_get(self, duck, rows, capacity):
        cache, storage = _store(duck, rows, capacity)
        # Negative ticks, the evicted region, stale slots, gaps, and
        # ticks past the newest record all lie inside this range.
        ticks = np.arange(-capacity - 2, 36 + capacity + 2)
        present, frames, actions, rewards = cache.gather(ticks)
        assert present.dtype == bool
        assert present.tolist() == [cache.has(int(t)) for t in ticks]
        for i in np.flatnonzero(present):
            rec = cache.get(int(ticks[i]))
            np.testing.assert_array_equal(frames[i], rec.frame)
            assert actions[i] == rec.action
            assert rewards[i] == rec.reward
        assert not np.shares_memory(frames, storage)
        # Any index shape goes through, frames gaining a trailing axis.
        grid = ticks[: 2 * (len(ticks) // 2)].reshape(2, -1)
        present2, frames2, actions2, rewards2 = cache.gather(grid)
        assert frames2.shape == grid.shape + (WIDTH,)
        assert present2.shape == actions2.shape == rewards2.shape == grid.shape
        np.testing.assert_array_equal(present2.ravel(), present[: grid.size])

    @DUCKS
    def test_gather_on_an_empty_store_finds_nothing(self, duck):
        cache, _ = _store(duck, [], 8)
        ticks = np.array([[-1, 0], [7, 8]])
        present, frames, actions, rewards = cache.gather(ticks)
        assert not present.any()
        assert frames.shape == (2, 2, WIDTH)
        assert actions.shape == rewards.shape == (2, 2)

    def test_gather_after_clear_finds_nothing(self):
        cache = _ring([(t, 1) for t in range(6)], 8)
        cache.clear()
        assert not cache.gather(np.arange(-2, 10))[0].any()

    @DUCKS
    @given(rows=tick_rows(), capacity=st.integers(5, 40), **WINDOWS)
    @settings(**SETTINGS)
    def test_transitions_at_is_filtered_transition_at(
        self, duck, rows, capacity, obs_ticks, tolerance
    ):
        cache, _ = _store(duck, rows, capacity)
        sampler = MinibatchSampler(
            cache, obs_ticks=obs_ticks, missing_tolerance=tolerance, seed=0
        )
        # Every candidate twice, out of order: windows that start below
        # tick 0, -1-action rows, gaps on either side of the tolerance.
        span = np.arange(-3, 40)
        candidates = np.concatenate([span, span[::-1]])
        reference = [
            tr
            for t in candidates
            if (tr := sampler.transition_at(int(t))) is not None
        ]
        kept, s_t, s_next, actions, rewards = sampler.transitions_at(candidates)
        assert kept.tolist() == [tr.tick for tr in reference]
        assert s_t.shape == s_next.shape == (len(reference), sampler.obs_dim)
        if reference:
            _assert_batch_equals(
                Minibatch(s_t, s_next, actions, rewards), reference
            )

    @DUCKS
    def test_no_accepted_candidate_keeps_the_observation_width(self, duck):
        cache, _ = _store(duck, [(t, -1) for t in range(12)], 16)
        sampler = MinibatchSampler(cache, obs_ticks=3, seed=0)
        for candidates in (np.arange(12), np.array([-4, 10**6]), np.array([])):
            kept, s_t, s_next, actions, rewards = sampler.transitions_at(
                candidates.astype(np.int64)
            )
            assert s_t.shape == s_next.shape == (0, sampler.obs_dim)
            assert kept.shape == actions.shape == rewards.shape == (0,)


class TestBatchedSamplersMatchReferenceLoop:
    """Equal seeds, one sampler batched and one driven by the scalar
    loop: equal batches *and* equal generator state afterwards — the
    property every RolloutDigest in the tree rests on."""

    @DUCKS
    @given(rows=tick_rows(), capacity=st.integers(5, 40), **WINDOWS, **BURSTS)
    @settings(**SETTINGS)
    def test_uniform_sampler(
        self, duck, rows, capacity, obs_ticks, tolerance, k, n, group, max_attempts
    ):
        cache, storage = _store(duck, rows, capacity)
        kw = dict(obs_ticks=obs_ticks, missing_tolerance=tolerance, seed=9)
        _assert_minibatches_are_calls(
            lambda: MinibatchSampler(cache, **kw), k, n, max_attempts, group
        )
        sampler = MinibatchSampler(cache, **kw)
        twin = MinibatchSampler(cache, **kw)
        if sampler.eligible_range() is None:
            with pytest.raises(SamplerStarvedError, match="does not yet span"):
                sampler.sample_minibatch(4)
            return
        first, last = sampler.eligible_range()

        def draw(needed):
            return twin.rng.integers(first, last + 1, size=needed)

        for n in (1, 6):
            both = _sample_both(sampler, twin, n, draw, max_attempts=6)
            if both is not None:
                batch, _ = both
                assert not np.shares_memory(batch.s_t, storage)
                assert not np.shares_memory(batch.s_next, storage)
                assert not np.shares_memory(batch.s_t, batch.s_next)

    @given(
        tops=st.lists(st.integers(-1, 9), min_size=1, max_size=4),
        ahead=st.integers(12, 30),
        dropped=st.sets(st.integers(0, 30), max_size=8),
        **WINDOWS,
        **BURSTS,
    )
    @settings(**SETTINGS)
    def test_strided_sampler_with_one_block_run_ahead(
        self, tops, ahead, dropped, obs_ticks, tolerance, k, n, group, max_attempts
    ):
        stride = 32
        tops = tops + [ahead]  # e.g. the reference cluster after a checkpoint
        cache = ReplayCache(WIDTH, capacity=stride * len(tops))
        for block, top in enumerate(tops):
            for t in range(top + 1):
                if t in dropped and t != top:
                    continue
                cache.put(
                    TickRecord(
                        tick=block * stride + t,
                        frame=_frame(block * stride + t),
                        action=-1 if t % 5 == 4 else t % 3,
                        reward=float(block),
                    )
                )
        kw = dict(obs_ticks=obs_ticks, missing_tolerance=tolerance, seed=4)
        spans = TickSpans.from_tops(stride, tops)
        _assert_minibatches_are_calls(
            lambda: StridedMinibatchSampler(cache, spans, **kw),
            k, n, max_attempts, group,
        )
        sampler = StridedMinibatchSampler(cache, spans, **kw)
        twin = StridedMinibatchSampler(cache, spans, **kw)
        candidate_spans = spans.candidate_spans(obs_ticks)
        cum = np.cumsum([last - first + 1 for first, last in candidate_spans])

        def draw(needed):
            ticks = []
            for idx in twin.rng.integers(0, int(cum[-1]), size=needed):
                b = int(np.searchsorted(cum, idx, side="right"))
                ticks.append(
                    candidate_spans[b][0] + int(idx) - (int(cum[b - 1]) if b else 0)
                )
            return ticks

        _sample_both(sampler, twin, 8, draw, max_attempts=6)

    def test_starvation_raises_after_max_attempts_rounds(self):
        """No row carries an action: every round rejects everything, and
        exactly ``max_attempts`` draws of ``n`` are consumed."""
        cache = _ring([(t, -1) for t in range(20)], 32)
        sampler = MinibatchSampler(cache, obs_ticks=3, seed=5)
        first, last = sampler.eligible_range()
        with pytest.raises(
            SamplerStarvedError,
            match="could not fill a minibatch of 4 after 7 rounds",
        ):
            sampler.sample_minibatch(4, max_attempts=7)
        rng = np.random.default_rng(5)
        for _ in range(7):
            rng.integers(first, last + 1, size=4)
        assert sampler.rng.bit_generator.state == rng.bit_generator.state

    def test_batch_survives_overwriting_the_slots_it_came_from(self):
        capacity = 16
        cache = _ring([(t, t % 3) for t in range(capacity)], capacity)
        batch = MinibatchSampler(cache, obs_ticks=3, seed=1).sample_minibatch(8)
        before = [
            a.copy()
            for a in (batch.s_t, batch.s_next, batch.actions, batch.rewards)
        ]
        # One capacity later: every slot the batch was read from is
        # rewritten in one bulk assignment.
        ticks = np.arange(capacity, 2 * capacity)
        cache.put_many(
            ticks,
            np.full((capacity, WIDTH), -99.0),
            np.full(capacity, -99.0),
            np.full(capacity, 2),
        )
        assert not cache.has(capacity - 1)
        after = (batch.s_t, batch.s_next, batch.actions, batch.rewards)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)


# -- the fleet-wide view against the ring it replaced ---------------------------
#
# On the vec backend the shared fan-in store is a :class:`RecordView` of
# the fleet's record columns in global-tick space.  It replaced a
# ``ReplayCache`` ring that the fan-in filled by copying
# (``packed_since_all`` + ``put_many``, re-landing each env's newest row
# so a late action reaches it).  At every landing point the two must
# answer every read alike.

STRIDE = 64


@st.composite
def fleet_rounds(draw):
    """Per round, per env: ``None`` (the env sits the round out, so envs
    drift out of lockstep) or ``(ticks, dropped, action)`` — the env
    advances ``ticks`` ticks, losing those in ``dropped`` on the
    monitoring network, after setting ``action`` (``-1`` = none) on its
    newest row, which has already landed."""
    n_envs = draw(st.integers(1, 4))
    n_rounds = draw(st.integers(1, 6))
    env_round = st.one_of(
        st.none(),
        st.tuples(
            st.integers(1, 8),
            st.sets(st.integers(0, 7), max_size=3),
            st.integers(-1, 2),
        ),
    )
    return n_envs, draw(
        st.lists(
            st.lists(env_round, min_size=n_envs, max_size=n_envs),
            min_size=n_rounds,
            max_size=n_rounds,
        )
    )


def _land_the_old_way(state, ring, spans):
    """The ring fan-in: every env's rows after its synced top minus one,
    as one env-major ``put_many`` at global ticks."""
    envs, packed = state.packed_since_all([top - 1 for top in spans.tops()])
    ring.put_many(
        packed.ticks + envs * STRIDE, packed.frames, packed.rewards,
        packed.actions,
    )
    for e in np.unique(envs):
        spans.observe_top(int(e), int(packed.ticks[envs == e].max()))


def _assert_view_reads_like_ring(view, ring, n_envs):
    assert len(view) == len(ring)
    assert (view.min_tick, view.max_tick) == (ring.min_tick, ring.max_tick)
    ticks = np.arange(-3, n_envs * STRIDE + 3)
    mine, theirs = view.gather(ticks), ring.gather(ticks)
    present = theirs[0]
    np.testing.assert_array_equal(mine[0], present)
    for a, b in zip(mine[1:], theirs[1:]):
        np.testing.assert_array_equal(a[present], b[present])
    screened = view.screen(ticks)
    np.testing.assert_array_equal(screened[0], present)
    np.testing.assert_array_equal(screened[1][present], theirs[2][present])
    for t in ticks[:: 7]:
        assert view.has(int(t)) == ring.has(int(t))
    for t in ticks[present]:
        a, b = view.get(int(t)), ring.get(int(t))
        assert (a.tick, a.action, a.reward) == (b.tick, b.action, b.reward)
        assert a.frame.tobytes() == b.frame.tobytes()
    for first in range(-2, n_envs * STRIDE, 13):
        for a, b in zip(view.window(first, 5), ring.window(first, 5)):
            assert a.tobytes() == b.tobytes()
    for lo, hi in [(0, n_envs * STRIDE - 1), (-5, 3 * STRIDE // 2), (70, 69)]:
        a, b = view.records_between(lo, hi), ring.records_between(lo, hi)
        for column in ("ticks", "frames", "actions", "rewards"):
            x, y = getattr(a, column), getattr(b, column)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestFleetViewMatchesRing:
    @given(
        rounds=fleet_rounds(),
        obs_ticks=st.sampled_from([1, 3, 5]),
        tolerance=st.sampled_from([0.0, 0.2, 1.0]),
        k=st.integers(1, 9),
        n=st.integers(1, 6),
    )
    @settings(**SETTINGS)
    def test_view_reads_and_samples_like_the_ring(
        self, rounds, obs_ticks, tolerance, k, n
    ):
        n_envs, plan = rounds
        state = FleetState(_FLEET_CONFIG, seeds=list(range(n_envs)),
                           frame_dim=WIDTH)
        view = RecordView(_Fleet(state), stride=STRIDE)
        ring = ReplayCache(WIDTH, capacity=n_envs * STRIDE)
        spans = TickSpans(n_envs, STRIDE)
        for moves in plan:
            for e, move in enumerate(moves):
                if move is None:
                    continue
                ticks, dropped, action = move
                if action >= 0:
                    state.set_actions(np.array([e]), np.array([action]))
                idx = np.array([e])
                state.reserve_records(ticks)
                for j in range(ticks):
                    state.tick[idx] += 1
                    t = int(state.tick[e])
                    if j not in dropped and t < STRIDE:
                        state.append_records(
                            idx, _frame(e * STRIDE + t)[None, :],
                            np.array([t / 8.0]),
                        )
            _land_the_old_way(state, ring, spans)
            _assert_view_reads_like_ring(view, ring, n_envs)
        kw = dict(obs_ticks=obs_ticks, missing_tolerance=tolerance, seed=3)
        mine = StridedMinibatchSampler(view, spans, **kw)
        theirs = StridedMinibatchSampler(ring, spans, **kw)
        for a, b in zip(mine.minibatches(k, n), theirs.minibatches(k, n)):
            assert (a is None) == (b is None)
            if a is not None:
                for x, y in zip(
                    (a.s_t, a.s_next, a.actions, a.rewards),
                    (b.s_t, b.s_next, b.actions, b.rewards),
                ):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert mine.rng.bit_generator.state == theirs.rng.bit_generator.state
