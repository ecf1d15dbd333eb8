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
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import (atomic_write_text, canonicalize, read_field, read_question_jsonl,
                     write_json)
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
        normalized = frozenset(map(canonicalize, self.gold_answers))
        if "" in normalized:
            raise ValueError(f"gold answer empty after normalization "
                             f"for {self.question_id!r}")
        object.__setattr__(self, "gold_answers", normalized)
        # Derived, not fields: the space-padded forms of the containment
        # test, the same joined by newlines (no canonical form holds one),
        # and the length of the shortest.
        padded = tuple(f" {g} " for g in normalized)
        object.__setattr__(self, "padded_golds", padded)
        object.__setattr__(self, "joined_golds", "\n".join(padded))
        object.__setattr__(self, "shortest_gold", min(map(len, padded)))


def load_qrels(path: str | Path,
               match_policy: str = "containment") -> dict[str, Judgment]:
    """Read {"question_id", "gold_answers"} JSONL into Judgment objects."""
    out: dict[str, Judgment] = {}
    for line_no, raw, qid in read_question_jsonl(path, "question_id"):
        golds = read_field(raw, "gold_answers", ["string"], path, line_no, qid)
        try:
            out[qid] = Judgment(question_id=qid,
                                gold_answers=frozenset(golds),
                                match_policy=match_policy)
        except ValueError as exc:
            raise ParseError(str(path), line_no, str(exc)) from exc
    if not out:
        raise DataError(f"{path}: no judgments")
    return out


def match_answer(candidate: str, judgment: Judgment) -> bool:
    """Does a candidate surface match any gold answer under the policy?

    exact: canonical equality. containment: equality, or either side's
    token sequence occurring contiguously inside the other's. Canonical
    forms are tokens joined by single spaces, so the tokens of one occur
    contiguously in the other's exactly when the one, padded with a
    space at each end, is a substring of the other, padded alike.

    One search of the newline-joined padded golds finds a candidate equal
    to or inside a gold: the candidate holds no newline, so a hit lies in
    one gold. A gold inside the candidate is then searched for only when
    the candidate is longer than the shortest gold, since a gold of the
    candidate's length inside it would equal it.
    """
    cand = canonicalize(candidate)
    if not cand:
        return False
    if judgment.match_policy != "containment":
        return cand in judgment.gold_answers
    padded = f" {cand} "
    if padded in judgment.joined_golds:
        return True
    return len(padded) > judgment.shortest_gold and \
        any(gold in padded for gold in judgment.padded_golds)


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

class MetricReport(NamedTuple):
    run_id: str
    question_ids: tuple[str, ...]
    values: dict[str, tuple[float, ...]]  # metric name -> per-question values

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
    p_value = _t_two_sided_p(t_stat, n - 1)
    return SignificanceResult(
        metric=metric,
        mean_difference=mean_d,
        t_statistic=t_stat,
        p_value=p_value,
        significant=p_value < SIGNIFICANCE_LEVEL,
    )


def _t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's T with df degrees of freedom.

    That is the regularized incomplete beta function I_x(df/2, 1/2) at
    x = df / (df + t²) (Abramowitz & Stegun 26.7.1). Its continued fraction
    converges fast for x below (a + 1) / (a + b + 2); above, it is
    1 - I_y(1/2, df/2) at y = 1 - x (Numerical Recipes §6.4). y is formed as
    t² / (df + t²), which keeps its digits when t is small, and t is not
    squared once t² would overflow.
    """
    s, a = abs(t), 0.5 * df
    if s < 1e154:
        q = s * s
        if q == 0.0:
            return 1.0
        x, y = df / (df + q), q / (df + q)
        log_x, log_y = -math.log1p(q / df), math.log(y)
    else:
        x, log_x, log_y = df / s / s, math.log(df) - 2.0 * math.log(s), 0.0
    # x^a y^(1/2) / B(a, 1/2), formed in logs, with B(a, 1/2) = Γ(a) √π / Γ(a + 1/2).
    front = math.exp(_log_gamma_ratio(a) - 0.5 * math.log(math.pi)
                     + a * log_x + 0.5 * log_y)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_continued_fraction(a, 0.5, x) / a
    return 1.0 - front * _beta_continued_fraction(0.5, a, y) / 0.5


def _log_gamma_ratio(a: float) -> float:
    """log(Γ(a + 1/2) / Γ(a)). From a = 25 on it is the asymptotic series,
    whose first omitted term, about 1.7e-3 / a^9, is below 5e-16 there: the
    difference of two lgamma values, each about a log a, loses digits as a
    grows (2e-9 relative at a = 5e5)."""
    if a < 25.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) - (1 / 8 - r * (1 / 192 - r * (1 / 640 - r * 17 / 14336))) / a


_LENTZ_TINY = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz algorithm.
    On the side of x that `_t_two_sided_p` takes, it converged within 78
    rounds in a scan of df from 1 to 1e8 and |t| from 1e-8 to 1e8."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
    h = d
    for m in range(1, 301):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _LENTZ_TINY else _LENTZ_TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _LENTZ_TINY else _LENTZ_TINY
            h *= d * c
        if abs(d * c - 1.0) <= 2.0 ** -52:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge "
                          f"at a={a!r}, b={b!r}, x={x!r}")


def _aligned(report_a: MetricReport, report_b: MetricReport) -> MetricReport:
    """report_b with its questions in report_a's order; the two reports
    must cover the same questions."""
    if report_a.question_ids == report_b.question_ids:
        return report_b
    if sorted(report_a.question_ids) != sorted(report_b.question_ids):
        raise DataError(f"runs {report_a.run_id!r} and {report_b.run_id!r} "
                        f"cover different questions")
    order = {qid: k for k, qid in enumerate(report_b.question_ids)}
    return report_b._replace(
        question_ids=report_a.question_ids,
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
