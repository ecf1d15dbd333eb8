"""Scoring of tie-grouped answer runs against gold answers.

Classical MRR / P@1 / Hit@5 treat each tie group as one rank, which
rewards systems for flooding a rank with candidates. The tie-aware
variants score the expectation of each metric when every tie group is
shuffled into a uniformly random linear order, computed here in closed
form from hypergeometric position distributions. All six metrics come
from the first tie group that holds a relevant candidate, found in one
scan: the classical ones see only the first five groups, while tMRR
counts that group at any rank.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import atomic_write_text, canonicalize, read_field, read_jsonl, write_json
from .errors import DataError, ParseError
from .ranking import TiedRun

MATCH_POLICIES = ("exact", "containment")
METRICS = ("MRR", "P@1", "Hit@5", "tMRR", "tP@1", "tHit@5")
TMRR_MODES = ("expected_reciprocal", "reciprocal_expected")

SIGNIFICANCE_LEVEL = 0.05
# The 5 of Hit@5 and tHit@5: a run is scored as a top-5 list.
CLASSICAL_RANK_CUTOFF = 5


@dataclass(frozen=True)
class Judgment:
    question_id: str
    gold_answers: frozenset[str]
    match_policy: str = "containment"

    def __post_init__(self):
        if not self.gold_answers:
            raise ValueError(f"empty gold set for {self.question_id!r}")
        if self.match_policy not in MATCH_POLICIES:
            raise ValueError(f"unknown match policy {self.match_policy!r}")
        normalized = frozenset(canonicalize(g) for g in self.gold_answers)
        if any(not g for g in normalized):
            raise ValueError(f"gold answer empty after normalization "
                             f"for {self.question_id!r}")
        object.__setattr__(self, "gold_answers", normalized)
        # Derived, not a field: the space-padded forms of the containment test.
        object.__setattr__(self, "padded_golds",
                           tuple(f" {g} " for g in normalized))


def load_qrels(path: str | Path,
               match_policy: str = "containment") -> dict[str, Judgment]:
    """Read {"question_id", "gold_answers"} JSONL into Judgment objects."""
    out: dict[str, Judgment] = {}
    seen: dict[str, int] = {}
    for line_no, raw in read_jsonl(path):
        qid = read_field(raw, "question_id", "id", path, line_no, name="question id")
        golds = read_field(raw, "gold_answers", ["string"], path, line_no)
        if qid in seen:
            raise ParseError(str(path), line_no,
                             f"duplicate question id {qid!r} (first seen on line {seen[qid]})")
        seen[qid] = line_no
        try:
            out[qid] = Judgment(question_id=qid,
                                gold_answers=frozenset(golds),
                                match_policy=match_policy)
        except ValueError as exc:
            raise ParseError(str(path), line_no, str(exc)) from exc
    if not out:
        raise ParseError(str(path), 0, "no judgments")
    return out


def match_answer(candidate: str, judgment: Judgment) -> bool:
    """Does a candidate surface match any gold answer under the policy?

    exact: canonical equality. containment: equality, or either side's
    token sequence occurring contiguously inside the other's. Canonical
    forms are tokens joined by single spaces, so the tokens of one occur
    contiguously in the other's exactly when the one, padded with a
    space at each end, is a substring of the other, padded alike.
    """
    cand = canonicalize(candidate)
    if not cand:
        return False
    if cand in judgment.gold_answers:
        return True
    if judgment.match_policy != "containment":
        return False
    padded = f" {cand} "
    for gold in judgment.padded_golds:
        if gold in padded or padded in gold:
            return True
    return False


def matching_surfaces(surfaces: Iterable[str],
                      judgment: Judgment) -> frozenset[str]:
    """The surfaces that match a gold answer, one match_answer call each."""
    return frozenset(s for s in surfaces if match_answer(s, judgment))


def run_metrics(groups: Sequence[frozenset[str]], relevant: frozenset[str],
                tmrr_mode: str) -> tuple[float, ...]:
    """All METRICS of one ranked list of tie groups, in METRICS order.

    `relevant` holds the surfaces that match the question's gold answers
    (see matching_surfaces); it may include surfaces outside the groups.
    Every metric depends only on the first group with a relevant member:
    its rank g, the positions `before` it, its size n and its relevant
    count r (McSherry & Najork, ECIR 2008).

    Classical: one rank per group, over the first five groups. Tie-aware:
    the group's members are shuffled uniformly, so its first relevant one
    sits at internal position j with probability C(n-j, r-1) / C(n, r).
    tP@1 is r/n for the first group. tHit@5 misses only when all
    s = min(max(5 - before, 0), n) positions the group has inside the
    cutoff draw irrelevant members: 1 - C(n-r, s) / C(n, s). tMRR is
    E[1 / position], or 1 / E[position] in the reciprocal_expected mode.
    """
    if tmrr_mode not in TMRR_MODES:
        raise ValueError(f"unknown tMRR mode {tmrr_mode!r}")
    before = 0
    for g, group in enumerate(groups, start=1):
        n = len(group)
        r = len(group & relevant)
        if r:
            break
        before += n
    else:
        return (0.0,) * len(METRICS)

    if g <= CLASSICAL_RANK_CUTOFF:
        mrr, p1, hit = 1.0 / g, 1.0 if g == 1 else 0.0, 1.0
    else:
        mrr = p1 = hit = 0.0
    if tmrr_mode == "expected_reciprocal":
        placements = math.comb(n, r)
        tmrr = sum(math.comb(n - j, r - 1) / placements / (before + j)
                   for j in range(1, n - r + 2))
    else:
        tmrr = 1.0 / (before + (n + 1) / (r + 1))
    tp1 = r / n if g == 1 else 0.0
    slots = min(max(CLASSICAL_RANK_CUTOFF - before, 0), n)
    thit = 1.0 - math.comb(n - r, slots) / math.comb(n, slots)
    return mrr, p1, hit, tmrr, tp1, thit


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricReport:
    run_id: str
    question_ids: tuple[str, ...]
    values: dict[str, tuple[float, ...]]  # metric name -> per-question values

    def __post_init__(self):
        for metric in METRICS:
            if metric not in self.values:
                raise ValueError(f"missing metric {metric!r}")
            if len(self.values[metric]) != len(self.question_ids):
                raise ValueError(f"{metric}: one value per question required")

    @classmethod
    def from_rows(cls, run_id: str, question_ids: Sequence[str],
                  rows: Sequence[tuple[float, ...]]) -> "MetricReport":
        """Report from one run_metrics row per question."""
        return cls(run_id=run_id, question_ids=tuple(question_ids),
                   values=dict(zip(METRICS, zip(*rows))))

    def mean(self, metric: str) -> float:
        series = self.values[metric]
        return sum(series) / len(series) if series else 0.0

    def means(self) -> dict[str, float]:
        return {metric: self.mean(metric) for metric in METRICS}

    def series(self, metric: str) -> tuple[float, ...]:
        return self.values[metric]


def evaluate_run(runs: Sequence[TiedRun], judgments: Mapping[str, Judgment],
                 run_id: str = "",
                 tmrr_mode: str = "expected_reciprocal") -> MetricReport:
    """Score every run in order; every question must carry a judgment.

    Members are matched group by group, up to the first group that holds
    a match: run_metrics reads nothing past that group.
    """
    ids: list[str] = []
    rows: list[tuple[float, ...]] = []
    seen: set[str] = set()
    for run in runs:
        if run.question_id in seen:
            raise DataError(f"duplicate run for question {run.question_id!r}")
        seen.add(run.question_id)
        judgment = judgments.get(run.question_id)
        if judgment is None:
            raise DataError(f"no judgment for question {run.question_id!r}")
        relevant = frozenset()
        for group in run.groups:
            relevant = matching_surfaces(group, judgment)
            if relevant:
                break
        rows.append(run_metrics(run.groups, relevant, tmrr_mode))
        ids.append(run.question_id)
    if not ids:
        raise DataError("no runs to evaluate")
    return MetricReport.from_rows(run_id, ids, rows)


# ---------------------------------------------------------------------------
# Significance and per-query diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignificanceResult:
    metric: str
    mean_difference: float
    t_statistic: float
    p_value: float
    significant: bool


def paired_t_test(a: Sequence[float], b: Sequence[float],
                  metric: str = "") -> SignificanceResult:
    """Two-sided paired Student t-test at the 0.05 level.

    Degenerate variance is handled explicitly: identical series give
    p = 1; a constant nonzero difference gives p = 0 (infinite t) and is
    flagged significant.
    """
    if len(a) != len(b):
        raise ValueError("paired series must have equal length")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two paired observations")
    diffs = [x - y for x, y in zip(a, b)]
    mean_d = sum(diffs) / n
    var = sum((d - mean_d) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        if mean_d == 0.0:
            return SignificanceResult(metric, 0.0, 0.0, 1.0, False)
        t_stat = math.inf if mean_d > 0 else -math.inf
        return SignificanceResult(metric, mean_d, t_stat, 0.0, True)
    t_stat = mean_d / math.sqrt(var / n)
    # Imported here so that only a t-test loads scipy: run and ablate never do.
    from scipy.special import stdtr
    p_value = 2.0 * float(stdtr(n - 1, -abs(t_stat)))
    return SignificanceResult(
        metric=metric,
        mean_difference=mean_d,
        t_statistic=t_stat,
        p_value=p_value,
        significant=p_value < SIGNIFICANCE_LEVEL,
    )


def _aligned(report_a: MetricReport, report_b: MetricReport) -> MetricReport:
    """report_b with its questions in report_a's order; the two reports
    must cover the same questions."""
    if report_a.question_ids == report_b.question_ids:
        return report_b
    if sorted(report_a.question_ids) != sorted(report_b.question_ids):
        raise DataError(f"runs {report_a.run_id!r} and {report_b.run_id!r} "
                        f"cover different questions")
    order = {qid: k for k, qid in enumerate(report_b.question_ids)}
    return MetricReport(
        run_id=report_b.run_id, question_ids=report_a.question_ids,
        values={metric: tuple(series[order[qid]] for qid in report_a.question_ids)
                for metric, series in report_b.values.items()})


def compare_reports(report_a: MetricReport,
                    report_b: MetricReport) -> list[SignificanceResult]:
    """Paired t-tests of a against b on every metric, question by question."""
    report_b = _aligned(report_a, report_b)
    return [
        paired_t_test(report_a.series(m), report_b.series(m), metric=m)
        for m in METRICS
    ]


@dataclass(frozen=True)
class DiffTable:
    metric: str
    entries: tuple[tuple[str, float], ...]  # (question_id, a - b), diff descending
    positives: int
    negatives: int
    zeros: int


def per_query_diff(report_a: MetricReport, report_b: MetricReport,
                   metric: str) -> DiffTable:
    """Signed per-question differences a - b, sorted for bar plots."""
    report_b = _aligned(report_a, report_b)
    diffs = [
        (qid, va - vb)
        for qid, va, vb in zip(report_a.question_ids,
                               report_a.series(metric), report_b.series(metric))
    ]
    diffs.sort(key=lambda kv: (-kv[1], kv[0]))
    return DiffTable(
        metric=metric,
        entries=tuple(diffs),
        positives=sum(1 for _q, d in diffs if d > 0),
        negatives=sum(1 for _q, d in diffs if d < 0),
        zeros=sum(1 for _q, d in diffs if d == 0),
    )


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[str]]) -> None:
    """Build the whole CSV in memory, then write it atomically."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buffer.getvalue())


def write_diff_csv(path: str | Path, table: DiffTable) -> None:
    write_csv(path, ["question_id", f"diff_{table.metric}"],
              ([qid, f"{diff:.6f}"] for qid, diff in table.entries))


def write_report_csv(path: str | Path, reports: Sequence[MetricReport]) -> None:
    """One row per run/config, one column per metric mean."""
    write_csv(path, ["run_id", *METRICS],
              ([report.run_id] + [f"{report.mean(m):.4f}" for m in METRICS]
               for report in reports))


def write_report_json(path: str | Path, reports: Sequence[MetricReport]) -> None:
    write_json(path, [
        {
            "run_id": report.run_id,
            "means": report.means(),
            "per_question": {
                metric: dict(zip(report.question_ids, report.series(metric)))
                for metric in METRICS
            },
        }
        for report in reports
    ])
