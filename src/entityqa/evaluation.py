"""Scoring of tie-grouped answer runs against gold answers.

Classical MRR / P@1 / Hit@5 treat each tie group as one rank, which
rewards systems for flooding a rank with candidates. The tie-aware
variants score the expectation of each metric when every tie group is
shuffled into a uniformly random linear order, computed here in closed
form from hypergeometric position distributions.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from scipy.special import stdtr

from .corpus import atomic_write_text, canonicalize, read_jsonl, write_json
from .errors import DataError, ParseError
from .ranking import TiedRun

MATCH_POLICIES = ("exact", "containment")
METRICS = ("MRR", "P@1", "Hit@5", "tMRR", "tP@1", "tHit@5")
TMRR_MODES = ("expected_reciprocal", "reciprocal_expected")

SIGNIFICANCE_LEVEL = 0.05
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
    for line_no, raw in read_jsonl(path):
        try:
            qid = str(raw["question_id"])
            golds = [str(g) for g in raw["gold_answers"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(str(path), line_no, f"invalid qrels record: {exc}") from exc
        if qid in out:
            raise ParseError(str(path), line_no, f"duplicate question id {qid!r}")
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


def _relevance_counts(groups: Sequence[frozenset[str]],
                     relevant: frozenset[str]) -> list[tuple[int, int]]:
    """(group size, number of relevant members) per group, in run order."""
    return [(len(group), len(group & relevant)) for group in groups]


def _run_counts(run: TiedRun, judgment: Judgment) -> list[tuple[int, int]]:
    relevant = matching_surfaces(chain.from_iterable(run.groups), judgment)
    return _relevance_counts(run.groups, relevant)


# ---------------------------------------------------------------------------
# Classical metrics (one rank per tie group)
# ---------------------------------------------------------------------------

def classical_metrics(run: TiedRun, judgment: Judgment) -> tuple[float, float, float]:
    """(MRR, P@1, Hit@5) with each group counted as a single rank."""
    return classical_from_counts(_run_counts(run, judgment))


def classical_from_counts(counts: Sequence[tuple[int, int]]
                          ) -> tuple[float, float, float]:
    """(MRR, P@1, Hit@5) from per-group (size, relevant) counts.

    Only the first five groups are scanned — the rank list is a top-5 list
    by construction, and external runs with more groups are treated as if
    truncated.
    """
    counts = counts[:CLASSICAL_RANK_CUTOFF]
    mrr = 0.0
    hit = 0.0
    for index, (_n, r) in enumerate(counts, start=1):
        if r > 0:
            mrr = 1.0 / index
            hit = 1.0
            break
    p1 = 1.0 if counts and counts[0][1] > 0 else 0.0
    return mrr, p1, hit


# ---------------------------------------------------------------------------
# Tie-aware metrics (expectations under random tie-breaking)
# ---------------------------------------------------------------------------

def _first_relevant_position_dist(n: int, r: int) -> list[tuple[int, float]]:
    """(position, probability) of the first relevant item inside one group.

    With r relevant among n uniformly shuffled items, the first relevant
    sits at internal position j with probability C(n-j, r-1) / C(n, r).
    """
    denom = math.comb(n, r)
    return [
        (j, math.comb(n - j, r - 1) / denom)
        for j in range(1, n - r + 2)
    ]


def tie_aware_metrics(run: TiedRun, judgment: Judgment,
                      tmrr_mode: str = "expected_reciprocal",
                      hit_cutoff: int = 5) -> tuple[float, float, float]:
    """(tMRR, tP@1, tHit@5) in closed form; see tie_aware_from_counts."""
    return tie_aware_from_counts(_run_counts(run, judgment), tmrr_mode,
                                 hit_cutoff)


def tie_aware_from_counts(counts: Sequence[tuple[int, int]],
                          tmrr_mode: str = "expected_reciprocal",
                          hit_cutoff: int = 5) -> tuple[float, float, float]:
    """(tMRR, tP@1, tHit@5) from per-group (size, relevant) counts.

    The expectations depend only on each group's size and relevant count
    (McSherry & Najork, ECIR 2008).

    Position distributions: group g occupies linear positions
    N_{g-1}+1 .. N_g, where N_g is the cumulative size. tP@1 is the
    relevant fraction of group 1. tHit@5 multiplies, per group overlapping
    the first five positions, the probability that none of its relevant
    members is drawn into those positions. tMRR sums E[1/position] of the
    first relevant item over the first group that has one; the
    reciprocal_expected mode instead returns 1 / E[position].
    """
    if tmrr_mode not in TMRR_MODES:
        raise ValueError(f"unknown tMRR mode {tmrr_mode!r}")
    if not any(r for _n, r in counts):
        return 0.0, 0.0, 0.0

    tp1 = counts[0][1] / counts[0][0] if counts else 0.0

    # tHit@5: P(some relevant item within the first `hit_cutoff` positions).
    miss_prob = 1.0
    before = 0
    for n, r in counts:
        after = before + n
        if before >= hit_cutoff:
            break
        if r > 0:
            if after <= hit_cutoff:
                miss_prob = 0.0
                break
            slots = hit_cutoff - before
            # All `slots` positions drawn from this group must come from
            # its n - r irrelevant members.
            if n - r < slots:
                miss_prob = 0.0
                break
            miss_prob *= math.comb(n - r, slots) / math.comb(n, slots)
        before = after
    thit = 1.0 - miss_prob

    # tMRR: only the first group with a relevant member matters.
    tmrr = 0.0
    before = 0
    for n, r in counts:
        if r > 0:
            if tmrr_mode == "expected_reciprocal":
                tmrr = sum(
                    p / (before + j)
                    for j, p in _first_relevant_position_dist(n, r)
                )
            else:
                expected_rank = before + (n + 1) / (r + 1)
                tmrr = 1.0 / expected_rank
            break
        before += n
    return tmrr, tp1, thit


def run_metrics(groups: Sequence[frozenset[str]], relevant: frozenset[str],
                tmrr_mode: str) -> tuple[float, ...]:
    """All METRICS of one ranked list of tie groups, in METRICS order.

    `relevant` holds the surfaces that match the question's gold answers
    (see matching_surfaces); it may include surfaces outside the groups.
    """
    counts = _relevance_counts(groups, relevant)
    return classical_from_counts(counts) + tie_aware_from_counts(counts,
                                                                 tmrr_mode)


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
    """Score every run in order; every question must carry a judgment."""
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
        relevant = matching_surfaces(chain.from_iterable(run.groups), judgment)
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


def compare_reports(report_a: MetricReport, report_b: MetricReport,
                    metrics: Sequence[str] = METRICS) -> list[SignificanceResult]:
    """Paired t-tests of a against b, question by question."""
    report_b = _aligned(report_a, report_b)
    return [
        paired_t_test(report_a.series(m), report_b.series(m), metric=m)
        for m in metrics
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
