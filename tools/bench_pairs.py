"""Paired benchmark: the end-to-end metrics of a base revision and of this
checkout, run alternately, and a verdict per metric and workload.

    python3 tools/bench_pairs.py --base main --label my-change --seed 59 --seed 61 --pairs 5

The base revision is checked out with `git worktree add` into a temporary
directory, removed at the end; `--base-tree DIR` names an existing checkout
(a `git clone`, say) to use instead. The head side is the checkout this
script lives in. Each pair runs the unchanged `bench/run.py --trace 0`, for
BENCHMARK.json's `run_seconds`, once on each side for every workload, the
side that runs first alternating from pair to pair; each tree's
`bench/.work` is deleted before every run, so each run generates its inputs
from the seed. `--seed` may be given more than once: the pairs are run for
each seed in turn. The result is written to `BENCH_<label>.json` at the
root of this checkout.

A metric's verdict, from its paired runs and the bound in BENCHMARK.json
(a fraction of the base median):
- worse: the head median is worse than the base median by more than the
  bound;
- better: head read better in at least nine tenths of the pairs, and the
  medians differ by more than the base's quartile spread, in head's favour;
- unresolved: neither, and the base quartiles span more than the bound, so
  the runs cannot tell a change within the bound from noise;
- flat: otherwise.

A verdict holds only for the seed its runs used: the seed fixes the inputs,
and a change of a few percent on one input set need not repeat on another.
On one change, `ablate-grid` `ops_per_s` read better, +3.8% in 10 of 10
pairs, at seed 83, and +0.3% in 3 of 6 pairs at seed 97. So a claimed gain
needs a second seed whose verdict agrees, and each metric's overall
verdict combines those of its seeds (`combine`): worse when any seed reads
worse, better only when every seed reads better, else unresolved when any
seed does, else flat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, by the inclusive method."""
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """The summary and verdict of one metric over paired runs: `base[i]`
    and `head[i]` are pair i's values, `better` is "lower" or "higher",
    and `bound` the worsening, as a fraction of the base median, that
    counts as a regression."""
    sign = 1.0 if better == "higher" else -1.0
    base_median, head_median = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    gain = sign * (head_median - base_median)  # > 0 when head is better
    if -gain > bound * abs(base_median):
        verdict = "worse"
    elif wins >= 0.9 * len(base) and gain > q3 - q1:
        verdict = "better"
    elif q3 - q1 > bound * abs(base_median):
        verdict = "unresolved"
    else:
        verdict = "flat"
    return {"better": better, "bound": bound, "base_median": base_median,
            "head_median": head_median, "change": head_median / base_median - 1.0
            if base_median else None, "base_q1": q1, "base_q3": q3,
            "head_wins": wins, "pairs": len(base), "verdict": verdict}


def combine(verdicts: list[str]) -> str:
    """One metric's overall verdict from its verdict at each seed."""
    if "worse" in verdicts:
        return "worse"
    if all(v == "better" for v in verdicts):
        return "better"
    return "unresolved" if "unresolved" in verdicts else "flat"


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py --trace 0` run in `tree`, from fresh inputs: its
    result line, with the `sha256` lines it printed."""
    shutil.rmtree(tree / "bench" / ".work", ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "sha256": dict(line.split()[1:3] for line in lines if line.startswith("sha256 "))}


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True,
                          check=True).stdout.strip()


@contextmanager
def base_checkout(rev: str | None, tree: str | None):
    """The base tree: `tree` as given, or `rev` checked out by `git worktree
    add` into a temporary directory that is removed afterwards."""
    if tree is not None:
        yield Path(tree).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        path = Path(tmp) / "base"
        git(ROOT, "worktree", "add", "--detach", str(path), rev)
        try:
            yield path
        finally:
            git(ROOT, "worktree", "remove", "--force", str(path))


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def summarise(pairs: list[dict], spec: dict) -> dict:
    """Per-metric comparisons and sha256 agreement of one workload's pairs."""
    sides = {side: [p[side] for p in pairs] for side in ("base", "head")}
    digests = {side: [r["sha256"] for r in runs] for side, runs in sides.items()}
    return {
        "sha256_agree": {
            "within_base": all(d == digests["base"][0] for d in digests["base"]),
            "within_head": all(d == digests["head"][0] for d in digests["head"]),
            "across": digests["base"][0] == digests["head"][0]},
        "metrics": {m["name"]: compare([r["metrics"][m["name"]] for r in sides["base"]],
                                       [r["metrics"][m["name"]] for r in sides["head"]],
                                       m["better"], m["bound"])
                    for m in spec["end_to_end"]},
        "pairs": pairs,
    }


def overall_verdicts(by_seed: dict[str, dict[str, dict]]) -> dict[str, dict[str, str]]:
    """Per workload and metric, `combine` of its verdict at each seed;
    `by_seed` maps each seed to its workloads' `summarise` results."""
    summaries = list(by_seed.values())
    return {workload: {name: combine([s[workload]["metrics"][name]["verdict"]
                                      for s in summaries])
                       for name in metrics["metrics"]}
            for workload, metrics in summaries[0].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--base", help="base revision, checked out with git worktree add")
    where.add_argument("--base-tree", help="an existing checkout of the base revision")
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="the inputs' seed; give it again for each further seed")
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    if len(set(args.seed)) < len(args.seed):
        parser.error("each --seed must differ from the others")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    with base_checkout(args.base, args.base_tree) as base:
        trees = {"base": base, "head": ROOT}
        pairs = {seed: {w: [] for w in workloads} for seed in args.seed}
        for seed in args.seed:
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for workload in workloads:
                    pair = {"first": order[0]}
                    for side in order:
                        print(f"seed {seed} pair {i + 1}/{args.pairs} {workload} {side}",
                              file=sys.stderr, flush=True)
                        pair[side] = run_bench(trees[side], workload, seed, seconds)
                    pairs[seed][workload].append(pair)
        revisions = {side: git(tree, "rev-parse", "HEAD") for side, tree in trees.items()}
        dirty = {side: bool(git(tree, "status", "--porcelain", "--untracked-files=no"))
                 for side, tree in trees.items()}

    by_seed = {str(seed): {w: summarise(pairs[seed][w], spec) for w in workloads}
               for seed in args.seed}
    report = {
        "label": args.label,
        "revisions": revisions,
        "uncommitted_changes": dirty,
        "seeds": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy")},
        "verdicts": overall_verdicts(by_seed),
        "by_seed": by_seed,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for seed, workloads_of_seed in by_seed.items():
        for workload, summary in workloads_of_seed.items():
            for name, m in summary["metrics"].items():
                print(f"seed {seed:6} {workload:20} {name:12} base {m['base_median']:.6g} "
                      f"head {m['head_median']:.6g} wins {m['head_wins']}/{m['pairs']} "
                      f"{m['verdict']}")
            print(f"seed {seed:6} {workload:20} sha256 agree {summary['sha256_agree']}")
    for workload, verdicts in report["verdicts"].items():
        for name, verdict in verdicts.items():
            print(f"overall     {workload:20} {name:12} {verdict}")
    print(f"wrote {out}")
    if len(args.seed) == 1:
        print(f"these verdicts hold for seed {args.seed[0]} only: "
              "a claimed gain needs a second seed that agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
