"""entityqa benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload run-gazetteer --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The inputs are generated from the seed
in a child process (so that the peak memory reported is the workload's
alone) under bench/.work/, then the workload is set up several times
(median set-up time reported), given one warm-up round, and measured in
whole rounds for `--seconds`. Every output is checked, and the last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json; with `--trace 1` they are its per-layer metrics, taken
from one traced set-up and traced rounds that alternate with untraced
ones, whose difference gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
WORKLOADS = ("run-gazetteer", "run-annotated-cache", "ablate-grid", "evaluate-tied")
# Set-ups per run: at least MIN_SETUPS, more while they take less than
# SETUP_SECONDS in all, so that a set-up of milliseconds still gives a
# steady median.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 200, 1.0
# Set-ups are calibrated in batches of about this many seconds.
SETUP_BATCH_S = 0.25
# Nominal time of `probe_seconds()`: calibrated times are expressed at the
# machine speed at which the probe takes this long.
PROBE_NOMINAL_S = 0.07
# The figure each workload's ops_per_s stands for, as the CLI user knows it.
HEADLINE = {"run-gazetteer": "answer_qps", "run-annotated-cache": "answer_qps",
            "ablate-grid": "ablate_s", "evaluate-tied": "evaluate_qps"}


def generate(workload: str, seed: int) -> Path:
    """Inputs for this workload and seed, made once per checkout by a
    child process; the inputs of other seeds are removed."""
    data = WORK / workload / f"seed-{seed}"
    if not (data / "done").is_file():
        if data.parent.is_dir():
            shutil.rmtree(data.parent)
        subprocess.run([sys.executable, str(BENCH / "generate.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--out", str(data.relative_to(ROOT)),
                        "--common", str((WORK / "common").relative_to(ROOT))],
                       check=True, cwd=ROOT)
        (data / "done").write_text("ok\n", encoding="utf-8")
    return data


_PROBE_WORD = re.compile(r"\w+")
_PROBE_TEXT = " ".join(f"Word{i % 97} the name{i % 13} of place{i % 7}."
                       for i in range(1500))


def probe_seconds() -> float:
    """Time of a fixed piece of interpreter work that the program never
    runs (regex, dicts, JSON, sorting, hashing), taken with the garbage
    collector off so that the program's heap does not weigh on it.

    The shared machine this benchmark was tuned on changes speed by up to
    2x over tens of seconds; timing this probe beside every measured
    interval lets each interval be scaled to one reference speed."""
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(10):
            tokens = [m.group(0).lower() for m in _PROBE_WORD.finditer(_PROBE_TEXT)]
            counts: dict[str, int] = {}
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
            json.loads(json.dumps(counts))
            sorted(tokens)
            [hashlib.sha256(t.encode()).hexdigest() for t in tokens[:500]]
        return perf_counter() - start
    finally:
        gc.enable()


def calibrated(seconds: float, probe_before: float, probe_after: float) -> float:
    """`seconds` as it would read at the speed where the probe takes
    PROBE_NOMINAL_S."""
    return seconds * PROBE_NOMINAL_S / ((probe_before + probe_after) / 2)


class Runner:
    """Set-up, warm-up and timed rounds of one workload, with failure
    accounting and a check that every round wrote the same bytes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] | None = None
        self.problems: list[str] = []

    def setup(self) -> float:
        gc.collect()
        start = perf_counter()
        self.workload.setup()
        return perf_counter() - start

    def round(self) -> float | None:
        """One round; its duration, or None when it raised. Each round
        starts from a collected heap, so that garbage left by earlier
        rounds does not land in its time."""
        gc.collect()
        start = perf_counter()
        try:
            self.workload.round()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += self.workload.ops_per_round()
            self.failed += self.workload.ops_per_round()
            return None
        duration = perf_counter() - start
        attempted, failed = self.workload.account()
        self.attempted += attempted
        self.failed += failed
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in self.workload.outputs()}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problems.append("a round wrote different bytes than the first")
        return duration


def measure(runner: Runner, seconds: float) -> tuple[list, list, list]:
    """Calibrated set-up times, and raw and calibrated round times. Each
    round, and each batch of set-ups, is calibrated by the probes on
    either side of it."""
    raw_setups: list[float] = []
    setup_times: list[float] = []
    probe_seconds()  # the first call pays for cold caches
    before = probe_seconds()
    while len(raw_setups) < MIN_SETUPS or (
            sum(raw_setups) < SETUP_SECONDS and len(raw_setups) < MAX_SETUPS):
        batch = [runner.setup()]
        while sum(batch) < SETUP_BATCH_S and len(raw_setups) + len(batch) < MAX_SETUPS:
            batch.append(runner.setup())
        after = probe_seconds()
        raw_setups += batch
        setup_times += [calibrated(t, before, after) for t in batch]
        before = after
    runner.round()  # warm-up: lazy loads and first-touch costs
    raw, rounds = [], []
    start = perf_counter()
    before = probe_seconds()
    attempts = 0
    while attempts == 0 or perf_counter() - start < seconds:
        attempts += 1
        duration = runner.round()
        after = probe_seconds()
        if duration is not None:
            raw.append(duration)
            rounds.append(calibrated(duration, before, after))
        before = after
    return setup_times, raw, rounds


def measure_traced(runner: Runner, seconds: float, spans_path: Path):
    """One traced set-up, a warm-up round, then untraced and traced rounds
    in turn for `seconds`. The overhead compares their calibrated times."""
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed("setup"):
        runner.setup()
    runner.round()
    plain, traced = [], []
    start = perf_counter()
    attempts = 0
    before = probe_seconds()
    while attempts == 0 or perf_counter() - start < seconds:
        attempts += 1
        for times, phase in ((plain, None), (traced, "round")):
            if phase is None:
                duration = runner.round()
            else:
                with tracer.installed(phase):
                    duration = runner.round()
            after = probe_seconds()
            if duration is not None:
                times.append(calibrated(duration, before, after))
            before = after
        tracer.keep_spans = False
    tracer.write_spans(spans_path)
    metrics = tracer.metrics(len(traced))
    if plain and traced:
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(plain) - 1.0)
    return metrics, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entityqa" / "__init__.py").is_file():
        print(f"error: no entityqa sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.chdir(ROOT)
    data = generate(args.workload, args.seed)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from workloads import WORKLOADS as CLASSES

    workload = CLASSES[args.workload](args.workload, data.relative_to(ROOT))
    runner = Runner(workload)
    if args.trace:
        values, plain, traced = measure_traced(
            runner, args.seconds, WORK / f"spans-{args.workload}.jsonl")
        listed = spec["per_layer"]
        print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced and "
              f"{len(traced)} traced rounds")
    else:
        setup_times, raw, rounds = measure(runner, args.seconds)
        ops = workload.ops_per_round()
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": statistics.median(ops / t for t in rounds) if rounds else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        listed = spec["end_to_end"]
        print(f"# {args.workload} seed {args.seed}: {len(setup_times)} set-ups, "
              f"{len(rounds)} timed rounds of {ops} operations")
        name = HEADLINE[args.workload]
        unit = "s" if name == "ablate_s" else workload.unit
        for label, times in (("calibrated", rounds), ("raw", raw)):
            if times:
                figure = statistics.median(times if name == "ablate_s"
                                           else [ops / t for t in times])
                print(f"{name} {figure:.6g} {unit} ({label})")

    problems = runner.problems
    problems += workload.check() if runner.digests else ["no round completed"]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, digest in sorted((runner.digests or {}).items()):
        print(f"sha256 {name} {digest}")
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
