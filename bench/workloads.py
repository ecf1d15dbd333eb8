"""The benchmark's four workloads.

Each workload drives the public API of `entityqa` the way one CLI command
does. `setup` reads config, inputs and qrels and loads the stages;
`round` does one whole round of the workload's operations and writes its
outputs; `account` counts the round's attempted and failed operations
from the generator's input ids; `check` compares the outputs with the
planted truth and with computations made apart from the program.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from pathlib import Path

from entityqa import corpus, evaluation, experiments, pipeline, ranking
from entityqa.corpus import DocumentSet

TIE_METRICS = (("tMRR", "MRR"), ("tP@1", "P@1"), ("tHit@5", "Hit@5"))
ABLATION_CELLS = 24
FLOAT_TOLERANCE = 1e-12


def _load_inputs(data: Path):
    """Config, questions and document sets, read as `entityqa run` does."""
    config = pipeline.load_config(data / "config.json")
    questions = corpus.load_questions(config.questions_path, config.source_set)
    docsets = {qid: DocumentSet(question_id=qid, documents=tuple(docs))
               for qid, docs in corpus.load_documents(config.documents_path).items()}
    return config, questions, docsets


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Oracle: tie-aware and classical metrics by enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _first_slot_counts(n: int, r: int) -> tuple[int, ...]:
    """How many of the C(n, r) placements of r relevant items among n
    shuffled slots put the first relevant one in slot j (0-based)."""
    counts = [0] * n
    for placement in itertools.combinations(range(n), r):
        counts[placement[0]] += 1
    return tuple(counts)


def oracle_metrics(layout: list[tuple[int, int]], cutoff: int = 5) -> dict[str, float]:
    """Classical and tie-aware metrics of one ranked list of tie groups,
    given as (group size, relevant members) pairs in rank order."""
    values = dict.fromkeys(("MRR", "P@1", "Hit@5", "tMRR", "tP@1", "tHit@5"), 0.0)
    offset = 0
    for index, (n, r) in enumerate(layout, start=1):
        if r:
            if index <= cutoff:
                values.update({"MRR": 1.0 / index, "P@1": float(index == 1),
                               "Hit@5": 1.0})
            counts = _first_slot_counts(n, r)
            total = math.comb(n, r)
            values["tMRR"] = sum(c / total / (offset + j + 1)
                                 for j, c in enumerate(counts) if c)
            values["tP@1"] = counts[0] / total if offset == 0 else 0.0
            values["tHit@5"] = sum(c for j, c in enumerate(counts)
                                   if offset + j + 1 <= cutoff) / total
            break
        offset += n
    return values


def _layout(groups: list[list[str]], gold: set[str]) -> list[tuple[int, int]]:
    return [(len(g), sum(1 for m in g if m in gold)) for g in groups]


def _compare_metrics(label: str, got: dict[str, float],
                     want: dict[str, float]) -> list[str]:
    return [f"{label}: {m} = {got[m]!r}, oracle {want[m]!r}"
            for m in want if abs(got[m] - want[m]) > FLOAT_TOLERANCE]


# ---------------------------------------------------------------------------
# run-gazetteer and run-annotated-cache
# ---------------------------------------------------------------------------

class RunWorkload:
    """`entityqa run`: answer every question, write the run file."""

    unit = "questions/s"

    def __init__(self, name: str, data: Path):
        self.name = name
        self.data = data
        self.truth = {t["question_id"]: t for t in
                      json.loads((data / "truth.json").read_text(encoding="utf-8"))}
        self.run_path = data / "run.jsonl"

    def setup(self) -> None:
        self.config, self.questions, self.docsets = _load_inputs(self.data)
        self.stages, _ = pipeline.load_stages(self.config)

    def round(self) -> None:
        result = pipeline.run_pipeline(self.config, self.questions, self.docsets,
                                       stages=self.stages)
        pipeline.write_run_file(self.run_path, result, self.config)

    def ops_per_round(self) -> int:
        return len(self.truth)

    def outputs(self) -> list[Path]:
        return [self.run_path]

    def account(self) -> tuple[int, int]:
        answered = {r["question_id"] for r in _read_jsonl(self.run_path)}
        return len(self.truth), sum(1 for qid in self.truth if qid not in answered)

    def check(self) -> list[str]:
        problems = []
        runs = {r["question_id"]: r for r in _read_jsonl(self.run_path)}
        for question in self.questions:
            truth = self.truth[question.id]
            prepared = self.stages.prepare(question, self.docsets[question.id])
            if prepared is not None:
                for cand in prepared[0].candidates:
                    planted = truth["df"].get(cand.canonical_surface)
                    if cand.df != planted:
                        problems.append(f"{question.id}: df of {cand.canonical_surface!r}"
                                        f" is {cand.df}, planted in {planted} docs")
            if self.name == "run-gazetteer":
                problems += self._check_planted_answer(truth, runs.get(question.id))
        if self.name == "run-annotated-cache":
            problems += self._check_tie_metrics(runs)
        return problems

    @staticmethod
    def _check_planted_answer(truth: dict, run: dict | None) -> list[str]:
        qid = truth["question_id"]
        if run is None:
            return [f"{qid}: missing from the run file"]
        if not truth["answerable"]:
            return [] if not run["groups"] else [f"{qid}: non-entity question answered"]
        if not run["groups"] or run["groups"][0] != [truth["gold"]]:
            top = run["groups"][0] if run["groups"] else None
            return [f"{qid}: top group {top}, planted gold {truth['gold']!r}"]
        return []

    def _check_tie_metrics(self, runs: dict[str, dict]) -> list[str]:
        """Program's per-question metrics equal the oracle's, and every
        tie-aware metric is at most its classical counterpart."""
        judgments = evaluation.load_qrels(self.data / "qrels.jsonl")
        report = evaluation.evaluate_run(ranking.load_runs(self.run_path),
                                         judgments)
        problems = []
        for k, qid in enumerate(report.question_ids):
            got = {m: report.series(m)[k] for m in evaluation.METRICS}
            want = oracle_metrics(_layout(runs[qid]["groups"],
                                          {self.truth[qid]["gold"]}))
            problems += _compare_metrics(qid, got, want)
            problems += [f"{qid}: {t} {got[t]} > {c} {got[c]}"
                         for t, c in TIE_METRICS if got[t] > got[c]]
        return problems


# ---------------------------------------------------------------------------
# ablate-grid
# ---------------------------------------------------------------------------

class AblateWorkload:
    """`entityqa ablate`: the 24-cell grid and its CSV/JSON writers."""

    unit = "cells/s"

    def __init__(self, name: str, data: Path):
        self.name = name
        self.data = data
        self.prefix = data / "ablation"

    def setup(self) -> None:
        self.config, self.questions, self.docsets = _load_inputs(self.data)
        self.judgments = evaluation.load_qrels(self.data / "qrels.jsonl")

    def round(self) -> None:
        rows = experiments.run_ablation(self.config, self.questions,
                                        self.docsets, self.judgments)
        experiments.write_ablation_csv(f"{self.prefix}.csv", rows)
        experiments.write_ablation_json(f"{self.prefix}.json", rows)

    def ops_per_round(self) -> int:
        return ABLATION_CELLS

    def outputs(self) -> list[Path]:
        return [Path(f"{self.prefix}.csv"), Path(f"{self.prefix}.json")]

    def _cells(self) -> dict[tuple, dict]:
        rows = json.loads(Path(f"{self.prefix}.json").read_text(encoding="utf-8"))
        return {(r["classifier"], r["embedding_provider"], r["aggregation"],
                 r["combine"]): r for r in rows}

    def account(self) -> tuple[int, int]:
        return ABLATION_CELLS, ABLATION_CELLS - len(self._cells())

    def check(self) -> list[str]:
        cells = self._cells()
        problems = []
        if len(cells) != ABLATION_CELLS:
            problems.append(f"{len(cells)} distinct cells, expected {ABLATION_CELLS}")
        default = cells.get(("svm", "word-avg", "max", "multiplicative"))
        if default is None or default["means"]["P@1"] != 1.0 \
                or default["means"]["tP@1"] != 1.0:
            problems.append(f"default cell is not P@1 = tP@1 = 1: {default}")
        for key, row in cells.items():
            means = row["means"]
            problems += [f"{key}: {t} {means[t]} > {c} {means[c]}"
                         for t, c in TIE_METRICS if means[t] > means[c]]
        return problems


# ---------------------------------------------------------------------------
# evaluate-tied
# ---------------------------------------------------------------------------

class EvaluateWorkload:
    """`entityqa evaluate`: score run files, pairwise t-tests, writers."""

    unit = "question-runs/s"

    def __init__(self, name: str, data: Path):
        self.name = name
        self.data = data
        self.truth = json.loads((data / "truth.json").read_text(encoding="utf-8"))
        self.run_paths = [data / f"{run_id}.jsonl" for run_id in self.truth]
        self.prefix = data / "report"

    def setup(self) -> None:
        self.judgments = evaluation.load_qrels(self.data / "qrels.jsonl")

    def round(self) -> None:
        reports, significance = experiments.evaluate_run_files(self.run_paths,
                                                               self.judgments)
        evaluation.write_report_csv(f"{self.prefix}.csv", reports)
        evaluation.write_report_json(f"{self.prefix}.json", reports)
        experiments.write_significance_json(f"{self.prefix}.significance.json",
                                            significance)

    def ops_per_round(self) -> int:
        return sum(len(layout) for layout in self.truth.values())

    def outputs(self) -> list[Path]:
        return [Path(f"{self.prefix}{suffix}")
                for suffix in (".csv", ".json", ".significance.json")]

    def _report(self) -> dict[str, dict]:
        payload = json.loads(Path(f"{self.prefix}.json").read_text(encoding="utf-8"))
        return {r["run_id"]: r["per_question"] for r in payload}

    def account(self) -> tuple[int, int]:
        report = self._report()
        failed = sum(1 for run_id, layout in self.truth.items() for qid in layout
                     if qid not in report.get(run_id, {}).get("tMRR", {}))
        return self.ops_per_round(), failed

    def check(self) -> list[str]:
        from scipy.stats import ttest_rel

        report = self._report()
        problems = []
        oracle = {}
        for run_id, layout in self.truth.items():
            per_question = report.get(run_id, {})
            oracle[run_id] = {qid: oracle_metrics(list(zip(*sizes_relevant)))
                              for qid, sizes_relevant in layout.items()}
            for qid, want in oracle[run_id].items():
                got = {m: per_question[m][qid] for m in want}
                problems += _compare_metrics(f"{run_id}/{qid}", got, want)
        for qid, got in _transpose(report.get("singleton", {})).items():
            problems += [f"singleton/{qid}: {t} {got[t]!r} != {c} {got[c]!r}"
                         for t, c in TIE_METRICS if got[t] != got[c]]
        tests = json.loads(Path(f"{self.prefix}.significance.json")
                           .read_text(encoding="utf-8"))
        pairs = {(p["run_a"], p["run_b"]) for p in tests}
        expected = set(itertools.combinations(self.truth, 2))
        if pairs != expected:
            problems.append(f"t-tests cover {sorted(pairs)}, expected {sorted(expected)}")
        for pair in tests:
            qids = list(self.truth[pair["run_a"]])
            for test in pair["tests"]:
                a = [oracle[pair["run_a"]][q][test["metric"]] for q in qids]
                b = [oracle[pair["run_b"]][q][test["metric"]] for q in qids]
                want = _reference_p_value(a, b, ttest_rel)
                if not math.isclose(test["p_value"], want, rel_tol=1e-6, abs_tol=1e-12):
                    problems.append(f"{pair['run_a']} vs {pair['run_b']} "
                                    f"{test['metric']}: p = {test['p_value']!r}, "
                                    f"scipy {want!r}")
        return problems


def _transpose(per_question: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for metric, values in per_question.items():
        for qid, value in values.items():
            out.setdefault(qid, {})[metric] = value
    return out


def _reference_p_value(a: list[float], b: list[float], ttest_rel) -> float:
    """scipy's paired t-test; it has no p-value when every difference is
    the same, where the program's documented convention is p = 1 for
    identical series and p = 0 otherwise."""
    diffs = {x - y for x, y in zip(a, b)}
    if len(diffs) == 1:
        return 1.0 if diffs == {0.0} else 0.0
    return float(ttest_rel(a, b).pvalue)


WORKLOADS = {
    "run-gazetteer": RunWorkload,
    "run-annotated-cache": RunWorkload,
    "ablate-grid": AblateWorkload,
    "evaluate-tied": EvaluateWorkload,
}
