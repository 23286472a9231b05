"""The adversarial search driver (ScenarioFuzzer) and its CLI.

Mutation operators must preserve event invariants (frozen dataclass
validation re-runs on every mutant), the search must be deterministic
— ``jobs=1`` vs ``jobs=2`` yield identical frontiers, the same
contract test_exp_runner.py pins for plain sweeps — and a tiny budget
must land the seeded known-flat ``bursty`` region on the frontier.
Searches here run under a shrunken :class:`FuzzScoreConfig`; the CLI
default (BENCH-compatible) config is exercised by the slow-marked
end-to-end test and the ``scenario-fuzz`` CI job.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios import ScenarioEvent, mutate_timeline
from repro.scenarios import strategies as fuzz_st
from repro.scenarios.fuzz import (
    DEFAULT_HORIZON,
    SEEDED_BURSTY_NAME,
    FuzzScoreConfig,
    ScenarioFuzzer,
    merge_frontier,
    repair_timeline,
)
from repro.util.rng import derive_rng, ensure_rng

#: Compressed scoring recipe: a capes+static pair in well under a
#: second, so searches stay inside the fast-lane budget.
TINY_SCORE = FuzzScoreConfig(
    n_clients=2,
    instances_per_client=2,
    hidden_layer_size=8,
    exploration_ticks=10,
    train_ticks=12,
    eval_ticks=6,
    epoch_ticks=6,
)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    events=fuzz_st.timelines(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    moves=st.integers(min_value=1, max_value=8),
)
def test_mutations_preserve_event_invariants(events, seed, moves):
    rng = derive_rng(ensure_rng(seed), "mutate")
    for _ in range(moves):
        events = mutate_timeline(events, rng)
        # Construction re-runs __post_init__ validation, so reaching
        # here means every mutant validated; check the structural
        # contract on top.
        assert 1 <= len(events) <= 10
        for ev in events:
            assert isinstance(ev, ScenarioEvent)
            assert 1 <= ev.at_tick <= DEFAULT_HORIZON
            assert ev.duration_ticks is None or ev.duration_ticks >= 0
        assert repair_timeline(events) == events


def test_mutation_stream_is_deterministic():
    from repro.scenarios import sample_scenario

    events = sample_scenario(11, 0).events
    a = mutate_timeline(events, derive_rng(ensure_rng(3), "m"))
    b = mutate_timeline(events, derive_rng(ensure_rng(3), "m"))
    assert a == b


class TestSearchDeterminism:
    def test_jobs_1_vs_jobs_2_identical_frontiers(self):
        r1 = ScenarioFuzzer(9, score_config=TINY_SCORE, jobs=1).search(
            "evolution", budget=5
        )
        r2 = ScenarioFuzzer(9, score_config=TINY_SCORE, jobs=2).search(
            "evolution", budget=5
        )
        s1, s2 = r1.frontier_section(5), r2.frontier_section(5)
        assert json.dumps(s1, sort_keys=True) == json.dumps(
            s2, sort_keys=True
        ), "serial vs parallel scoring changed the frontier"

    def test_two_searches_agree_across_instances(self):
        # A fresh fuzzer replays the identical search: scores are a
        # pure function of the spec and decisions a pure function of
        # scores, so nothing depends on instance or process history.
        kw = dict(score_config=TINY_SCORE)
        s1 = ScenarioFuzzer(21, **kw).search("hill_climb", budget=4)
        s2 = ScenarioFuzzer(21, **kw).search("hill_climb", budget=4)
        assert json.dumps(
            s1.frontier_section(4), sort_keys=True
        ) == json.dumps(s2.frontier_section(4), sort_keys=True)


class TestSearchBehavior:
    def test_tiny_budget_lands_the_seeded_bursty_region(self):
        result = ScenarioFuzzer(3, score_config=TINY_SCORE).search(
            "random", budget=2
        )
        frontier = result.frontier(top_k=8)
        names = [c.name for c in frontier]
        assert SEEDED_BURSTY_NAME in names, (
            "the seeded known-flat bursty timeline must be evaluated "
            "and reportable even at tiny budgets"
        )
        # Frontier is ranked most-flat/losing-for-capes first, with
        # finite scores throughout.
        pcts = [c.score.tuner_vs_static_pct for c in frontier]
        assert all(np.isfinite(p) for p in pcts)
        assert pcts == sorted(pcts, reverse=True)
        for cand in frontier:
            assert cand.score.capes_tuned > 0
            assert cand.score.static_tuned > 0

    def test_budget_counts_candidates(self):
        result = ScenarioFuzzer(5, score_config=TINY_SCORE).search(
            "evolution", budget=4
        )
        assert len(result.candidates) == 4

    def test_search_validates_inputs(self):
        fuzzer = ScenarioFuzzer(1, score_config=TINY_SCORE)
        with pytest.raises(ValueError, match="budget"):
            fuzzer.search("random", budget=0)
        with pytest.raises(ValueError, match="strategy"):
            fuzzer.search("annealing", budget=1)

    def test_frontier_entries_rerun_to_their_reported_score(self):
        # The acceptance contract: a frontier entry's repro command
        # re-scores to exactly the reported number.  Exercised through
        # the same API the CLI --score/--score-events paths call.
        result = ScenarioFuzzer(13, score_config=TINY_SCORE).search(
            "hill_climb", budget=3
        )
        top = result.frontier(top_k=1)[0]
        rerun = ScenarioFuzzer(13, score_config=TINY_SCORE).score_one(
            type(top)(
                name=top.name,
                events=top.events,
                origin="score",
                derivable=top.derivable,
            )
        )
        assert rerun.score == top.score


def test_merge_frontier_read_update_write(tmp_path):
    out = tmp_path / "BENCH_scenarios.json"
    out.write_text(
        json.dumps({"scenarios": {"sim-lustre-bursty": {"x": 1}}})
    )
    section = {"root_seed": 1, "top": []}
    merged = merge_frontier(out, section)
    assert merged["scenarios"] == {"sim-lustre-bursty": {"x": 1}}
    data = json.loads(out.read_text())
    assert data["fuzzed_frontier"] == section
    # Idempotent update: a second merge replaces, never duplicates.
    merge_frontier(out, {"root_seed": 2, "top": []})
    assert json.loads(out.read_text())["fuzzed_frontier"]["root_seed"] == 2


class TestCliValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz-scenarios", "--budget", "0"],
            ["fuzz-scenarios", "--top", "0"],
            ["fuzz-scenarios", "--jobs", "0"],
            ["fuzz-scenarios", "--score", "not-a-fuzz-name"],
            ["fuzz-scenarios", "--score-events", "not json"],
            ["fuzz-scenarios", "--score-events", '{"no_events": 1}'],
            [
                "fuzz-scenarios",
                "--score",
                "fuzz-1-1",
                "--score-events",
                "[]",
            ],
        ],
    )
    def test_bad_flags_exit_2(self, argv, capsys):
        from repro.cli import main

        assert main(argv) == 2
        assert capsys.readouterr().err.strip()


def test_cli_fuzz_scenarios_end_to_end(tmp_path, capsys):
    """Default-config CLI search: frontier printed, merged into the
    JSON artifact, and the top entry's repro command re-runs to its
    reported score in the same interpreter-independent way."""
    from repro.cli import main

    out = tmp_path / "BENCH_scenarios.json"
    out.write_text(json.dumps({"scenarios": {"keep": True}}))
    assert (
        main(
            [
                "fuzz-scenarios",
                "--budget",
                "2",
                "--seed",
                "7",
                "--strategy",
                "random",
                "--jobs",
                "2",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["scenarios"] == {"keep": True}
    section = data["fuzzed_frontier"]
    assert section["root_seed"] == 7
    assert len(section["top"]) == 2
    top = section["top"][0]
    # Re-run the printed repro command (argv form) and compare scores.
    import shlex

    rerun_argv = shlex.split(top["repro"])
    assert rerun_argv[0] == "repro"
    assert main(rerun_argv[1:]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["tuner_vs_static_pct"] == top["tuner_vs_static_pct"]
    assert row["capes_tuned"] == top["capes_tuned"]
    assert row["events"] == top["events"]
