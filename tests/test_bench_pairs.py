"""The verdict arithmetic of tools/bench_pairs.py, on fixed numbers; no
benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("base, head, better, verdict, wins", [
    # Base median 1.0, quartiles 1.0 and 1.05: a spread of 5%.
    ([1.0, 1.1, 0.9, 1.0, 1.05], [0.5, 0.6, 0.4, 0.5, 0.55], "lower", "better", 5),
    ([1.0, 1.1, 0.9, 1.0, 1.05], [1.3, 1.4, 1.2, 1.3, 1.35], "lower", "worse", 0),
    ([1.0, 1.1, 0.9, 1.0, 1.05], [1.2, 1.3, 1.1, 1.2, 1.25], "lower", "flat", 0),
    ([1.0, 1.1, 0.9, 1.0, 1.05], [1.0, 1.1, 0.9, 1.0, 1.05], "lower", "flat", 0),
    # Higher is better: 100 → 110 with a base spread of 2.
    ([100, 102, 98, 101, 99], [110, 111, 109, 112, 108], "higher", "better", 5),
    ([100, 102, 98, 101, 99], [70, 72, 74, 69, 73], "higher", "worse", 0),
    # 25% lower is at the bound, not past it.
    ([100, 102, 98, 101, 99], [74, 75, 76, 70, 80], "higher", "flat", 0),
    # A base spread of 0.2 on a median of 0.3 is wider than the bound.
    ([0.1, 0.2, 0.3, 0.4, 0.5], [0.5, 0.1, 0.35, 0.2, 0.4], "lower", "unresolved", 3),
    # A large gain won in 8 of 10 pairs is less than nine tenths: no gain.
    ([1.0] * 10, [0.5] * 8 + [1.0, 1.1], "lower", "flat", 8),
    ([1.0] * 10, [0.5] * 9 + [1.1], "lower", "better", 9),
], ids=["lower-better", "lower-worse", "lower-within-bound", "lower-equal",
        "higher-better", "higher-worse", "higher-at-the-bound", "unresolved", "8-of-10-wins",
        "9-of-10-wins"])
def test_verdicts(base, head, better, verdict, wins):
    result = bench_pairs.compare(base, head, better, 0.25)
    assert (result["verdict"], result["head_wins"], result["pairs"]) == (verdict, wins, len(base))


def test_summary_figures():
    result = bench_pairs.compare([1.0, 1.1, 0.9, 1.0, 1.05], [0.5, 0.6, 0.4, 0.5, 0.55],
                                 "lower", 0.25)
    assert result["base_median"] == 1.0 and result["head_median"] == 0.5
    assert (result["base_q1"], result["base_q3"]) == (1.0, 1.05)
    assert result["change"] == -0.5
    assert result["bound"] == 0.25 and result["better"] == "lower"


def test_summarise_reads_each_metric_and_sha256_agreement():
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}

    def run(ops, digest):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"ops_per_s": ops}, "sha256": {"run.jsonl": digest}}

    pairs = [{"first": "base", "base": run(100, "a"), "head": run(101, "a")},
             {"first": "head", "base": run(102, "a"), "head": run(99, "b")}]
    summary = bench_pairs.summarise(pairs, spec)
    assert summary["sha256_agree"] == {"within_base": True, "within_head": False,
                                       "across": True}
    assert summary["metrics"]["ops_per_s"]["head_wins"] == 1
    assert summary["pairs"] == pairs


@pytest.mark.parametrize("verdicts, overall", [
    (["better", "better"], "better"),
    (["better", "flat"], "flat"),
    (["better", "unresolved"], "unresolved"),
    (["better", "worse"], "worse"),
    (["flat", "worse", "better"], "worse"),
    (["flat", "flat"], "flat"),
    (["better"], "better"),
])
def test_a_verdict_over_seeds_is_better_only_when_every_seed_is(verdicts, overall):
    assert bench_pairs.combine(verdicts) == overall


def test_overall_verdicts_combine_each_metric_over_its_seeds():
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                           {"name": "setup_s", "better": "lower", "bound": 0.25}]}

    def run(ops, setup):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"ops_per_s": ops, "setup_s": setup}, "sha256": {"run.jsonl": "a"}}

    def pairs(ops, setup):
        return [{"first": "base", "base": run(100 + i, 1.0), "head": run(ops + i, setup)}
                for i in range(5)]

    # Seed 1: ops 100 → 110 better, set-up flat. Seed 2: ops flat, set-up
    # 1.0 → 1.5 worse.
    by_seed = {"1": {"w": bench_pairs.summarise(pairs(110, 1.0), spec)},
               "2": {"w": bench_pairs.summarise(pairs(100, 1.5), spec)}}
    assert [by_seed[s]["w"]["metrics"][m]["verdict"] for s in ("1", "2")
            for m in ("ops_per_s", "setup_s")] == ["better", "flat", "flat", "worse"]
    assert bench_pairs.overall_verdicts(by_seed) == {"w": {"ops_per_s": "flat",
                                                           "setup_s": "worse"}}
    by_seed["2"] = {"w": bench_pairs.summarise(pairs(111, 1.0), spec)}
    assert bench_pairs.overall_verdicts(by_seed) == {"w": {"ops_per_s": "better",
                                                           "setup_s": "flat"}}
