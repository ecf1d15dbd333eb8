"""Experiment drivers: ablation grid, run evaluation, latency benchmark.

The ablation crosses classifier x embedding provider x aggregation x
combine mode (24 cells). Additive cells sweep the 49-point (alpha, beta)
grid and report the first grid point, alpha-major, with the best mean
tMRR, so one grid evaluates 600 variants. Each piece of work runs once at
the level it depends on:

- per grid: each data file is read once, and the classifier/provider
  pairs share what they can (one SVM, one extractor, one parse and
  preprocessing of the labeled questions, one centroid classifier per
  provider, trained on one embedding of each distinct labeled text);
- per question: the document step (segmentation and extraction of all
  mentions), once for all pairs, and only if some pair types the
  question as an entity type;
- per pair and question: `prepare` (typing, then the typed step: type
  filter, pooling, evidence scoring) and the gold match of every pool
  surface;
- per pair, question and aggregation mode: one `aggregate` per candidate;
- per variant: only `rank_answers` (combine, then rounding and tie
  grouping down to the fifth group), then `run_metrics` up to the first
  group with a relevant member;
- per emitted row: the config_id.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Mapping, NamedTuple, Sequence

from .corpus import DocumentSet, Question, read_field, read_json, write_json
from .errors import DataError
from .evaluation import (METRICS, Judgment, MetricReport, SignificanceResult,
                         compare_reports, evaluate_run, matching_surfaces,
                         run_metrics, write_csv)
from .pipeline import (CLASSIFIER_KINDS, PROVIDER_KINDS, PipelineConfig,
                       aggregate_evidence, load_shared_stages, load_stages)
from .ranking import (ALPHA_BETA_GRID, COMBINE_MODES, RankingConfig,
                      load_runs, rank_answers)
from .scoring import AGGREGATION_MODES


# ---------------------------------------------------------------------------
# Ablation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationRow:
    classifier: str
    embedding_provider: str
    aggregation: str
    combine: str
    alpha: float | None
    beta: float | None
    config_id: str
    means: dict[str, float]


def _check_coverage(questions: Sequence[Question],
                    docsets: Mapping[str, DocumentSet],
                    judgments: Mapping[str, Judgment]) -> None:
    if not questions:
        raise DataError("no questions to evaluate")
    ids = [q.id for q in questions]
    if len(set(ids)) != len(ids):
        duplicates = sorted({qid for qid in ids if ids.count(qid) > 1})
        raise DataError(f"duplicate question ids: {duplicates}")
    no_docs = sorted(q.id for q in questions if q.id not in docsets)
    if no_docs:
        raise DataError(f"questions without document sets: {no_docs}")
    unjudged = sorted(q.id for q in questions if q.id not in judgments)
    if unjudged:
        raise DataError(f"questions without judgments: {unjudged}")


class _Candidates(NamedTuple):
    """One question's pool under one classifier/provider pair, with the
    semantic scores of one aggregation mode: what every combine variant
    starts from."""
    surfaces: tuple[str, ...]
    semantic: tuple[float, ...]
    dfs: tuple[int, ...]
    n_docs: int
    relevant: frozenset[str]


def run_ablation(base_config: PipelineConfig, questions: Sequence[Question],
                 docsets: Mapping[str, DocumentSet],
                 judgments: Mapping[str, Judgment],
                 tmrr_mode: str = "expected_reciprocal") -> list[AblationRow]:
    """Evaluate all 24 stage combinations on one question set."""
    _check_coverage(questions, docsets, judgments)
    pairs = load_shared_stages([
        replace(base_config, classifier=classifier, embedding_provider=provider)
        for classifier in CLASSIFIER_KINDS for provider in PROVIDER_KINDS])
    # Per pair, the evidence and candidates of each question. Questions with
    # no candidates (unmapped type, empty pool) are left out here and get
    # the empty run in every variant. The pairs prepare each question in
    # turn, so they share its document step. Pairs share a classifier only
    # where it predicts alike for both (the SVM reads only the question),
    # so each classifier predicts each question once.
    prepared: list[dict[str, tuple[list, _Candidates]]] = [{} for _ in pairs]
    for q in questions:
        predicted: dict[int, tuple[str, str]] = {}
        for stages, pools in zip(pairs, prepared):
            classifier = id(stages.classifier)
            if classifier not in predicted:
                predicted[classifier] = stages.predict_types(q)
            result = stages.prepare(q, docsets[q.id], predicted[classifier])
            if result is None or not result[1]:
                continue
            _pool, evidence, n_docs = result
            surfaces = tuple(ev.entity.canonical_surface for ev in evidence)
            pools[q.id] = evidence, _Candidates(
                surfaces=surfaces, semantic=(),
                dfs=tuple(ev.entity.df for ev in evidence), n_docs=n_docs,
                relevant=matching_surfaces(surfaces, judgments[q.id]))
    rows: list[AblationRow] = []
    for stages, pools in zip(pairs, prepared):
        for aggregation in AGGREGATION_MODES:
            mode_config = replace(stages.config, aggregation=aggregation)
            candidates = {
                qid: pool._replace(semantic=tuple(aggregate_evidence(
                    evidence, pool.n_docs, mode_config)))
                for qid, (evidence, pool) in pools.items()
            }
            for combine_mode in COMBINE_MODES:
                rows.append(_ablation_cell(mode_config, questions, candidates,
                                           combine_mode, tmrr_mode))
    return rows


def _evaluate_variant(ranking: RankingConfig, questions: Sequence[Question],
                      candidates: Mapping[str, _Candidates],
                      tmrr_mode: str) -> MetricReport:
    """Metrics of one combine variant; a question without candidates gets
    the empty run."""
    rows = []
    for question in questions:
        cands = candidates.get(question.id)
        if cands is None:
            rows.append(run_metrics((), frozenset(), tmrr_mode))
            continue
        run = rank_answers(question.id, cands.surfaces, cands.semantic,
                           cands.dfs, cands.n_docs, ranking)
        rows.append(run_metrics(run.groups, cands.relevant, tmrr_mode))
    return MetricReport.from_rows("", [q.id for q in questions], rows)


def _ablation_cell(mode_config: PipelineConfig, questions: Sequence[Question],
                   candidates: Mapping[str, _Candidates],
                   combine_mode: str, tmrr_mode: str) -> AblationRow:
    """The cell's grid point with the best mean tMRR. A multiplicative cell
    has one point, the configured weights, which its combine ignores."""
    additive = combine_mode == "additive"
    grid = (ALPHA_BETA_GRID if additive
            else ((mode_config.alpha, mode_config.beta),))
    best: tuple[float, float, float, MetricReport] | None = None
    for grid_alpha, grid_beta in grid:
        grid_report = _evaluate_variant(
            RankingConfig(combine_mode=combine_mode, alpha=grid_alpha,
                          beta=grid_beta, score_digits=mode_config.score_digits),
            questions, candidates, tmrr_mode)
        mean_tmrr = grid_report.mean("tMRR")
        # Strictly greater: ties keep the first grid point.
        if best is None or mean_tmrr > best[0]:
            best = (mean_tmrr, grid_alpha, grid_beta, grid_report)
    _score, alpha, beta, report = best
    variant = replace(mode_config, combine=combine_mode, alpha=alpha, beta=beta)
    return AblationRow(
        classifier=variant.classifier,
        embedding_provider=variant.embedding_provider,
        aggregation=variant.aggregation, combine=combine_mode,
        alpha=alpha if additive else None, beta=beta if additive else None,
        config_id=variant.config_id, means=report.means(),
    )


def write_ablation_csv(path: str | Path, rows: Sequence[AblationRow]) -> None:
    write_csv(path, ["classifier", "embedding_provider", "aggregation",
                     "combine", "alpha", "beta", "config_id", *METRICS],
              ([row.classifier, row.embedding_provider, row.aggregation,
                row.combine,
                "" if row.alpha is None else f"{row.alpha:.1f}",
                "" if row.beta is None else f"{row.beta:.1f}",
                row.config_id,
                *[f"{row.means[m]:.4f}" for m in METRICS]]
               for row in rows))


def write_ablation_json(path: str | Path, rows: Sequence[AblationRow]) -> None:
    write_json(path, [asdict(row) for row in rows])


# ---------------------------------------------------------------------------
# Run-file evaluation
# ---------------------------------------------------------------------------

def evaluate_run_files(run_paths: Sequence[str | Path],
                       judgments: Mapping[str, Judgment],
                       tmrr_mode: str = "expected_reciprocal"
                       ) -> tuple[list[MetricReport],
                                  list[tuple[str, str, list[SignificanceResult]]]]:
    """Score each run file; pairwise t-tests when two or more are given,
    which need at least two questions in every run. A run is named after
    its file's stem, so two files with one stem are a DataError, raised
    before any file is read."""
    if not run_paths:
        raise DataError("no run files given")
    path_of: dict[str, str | Path] = {}  # stem -> the first file with it
    for path in run_paths:
        stem = Path(path).stem
        if stem in path_of:
            raise DataError(f"run files {path_of[stem]} and {path} share the stem "
                            f"{stem!r}, which names a run in the reports")
        path_of[stem] = path
    reports: list[MetricReport] = []
    for path in run_paths:
        runs = load_runs(path)
        if not runs:
            raise DataError(f"{path}: empty run file")
        unknown = sorted({r.question_id for r in runs} - set(judgments))
        if unknown:
            raise DataError(f"{path}: question ids missing from qrels: {unknown}")
        reports.append(evaluate_run(runs, judgments,
                                    run_id=Path(path).stem, tmrr_mode=tmrr_mode))
    short = [str(path) for path, report in zip(run_paths, reports)
             if len(report.question_ids) < 2]
    if len(reports) > 1 and short:
        raise DataError(f"runs {', '.join(short)} hold fewer than two questions: "
                        f"paired t-tests between runs need at least two questions")
    significance: list[tuple[str, str, list[SignificanceResult]]] = []
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            a, b = reports[i], reports[j]
            significance.append((a.run_id, b.run_id, compare_reports(a, b)))
    return reports, significance


def write_significance_json(path: str | Path,
                            results: Sequence[tuple[str, str,
                                                    list[SignificanceResult]]]) -> None:
    write_json(path, [{"run_a": a, "run_b": b, "tests": [asdict(r) for r in tests]}
                      for a, b, tests in results])


# ---------------------------------------------------------------------------
# Latency benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyReport:
    label: str
    iterations: int
    n_questions: int
    load_seconds: float
    mean_seconds: dict[str, float]  # per source set, plus "overall"
    low_confidence: bool
    speedup: dict[str, float] | None
    failed: list[dict[str, str]]  # {"question_id", "error"}, as in a run sidecar


def _comparison_means(path: str | Path) -> dict[str, float]:
    """The "mean_seconds" object of an earlier latency report; one that is
    not an object of numbers is a ParseError naming the file."""
    means = read_field(read_json(path), "mean_seconds", "object", path, 1, default={})
    return {key: read_field(means, key, "number", path, 1, name=f"mean_seconds.{key}")
            for key in means}


def run_latency_bench(config: PipelineConfig, questions: Sequence[Question],
                      docsets: Mapping[str, DocumentSet], iterations: int = 5,
                      comparison_path: str | Path | None = None,
                      label: str = "this-work") -> LatencyReport:
    """Wall-clock per-question time, averaged over warm iterations.

    Stage loading happens once and is reported separately. The comparison
    file is read and checked before any stage is loaded. A question that
    raises is recorded in `failed`, is not asked again and is left out of
    the means; when no question is answered, that is a DataError.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not questions:
        raise DataError("no questions to benchmark")
    no_docs = sorted(q.id for q in questions if q.id not in docsets)
    if no_docs:
        raise DataError(f"questions without document sets: {no_docs}")
    other_means = None if comparison_path is None else _comparison_means(comparison_path)
    stages, load_seconds = load_stages(config)
    totals = {q.id: 0.0 for q in questions}
    errors: dict[str, str] = {}
    for _ in range(iterations):
        for question in questions:
            if question.id in errors:
                continue
            started = perf_counter()
            try:
                stages.answer(question, docsets[question.id])
            except Exception as exc:  # recorded per question, as `run` does
                errors[question.id] = f"{type(exc).__name__}: {exc}"
                continue
            totals[question.id] += perf_counter() - started
    if len(errors) == len(questions):
        qid, error = next(iter(errors.items()))
        raise DataError(f"no question was answered; the first, {qid}, failed: {error}")
    per_question = {qid: total / iterations for qid, total in totals.items()
                    if qid not in errors}

    by_set: dict[str, list[float]] = {}
    for question in questions:
        if question.id in per_question:
            by_set.setdefault(question.source_set, []).append(per_question[question.id])
    mean_seconds = {
        source: sum(values) / len(values) for source, values in sorted(by_set.items())
    }
    mean_seconds["overall"] = sum(per_question.values()) / len(per_question)

    speedup = None
    if other_means is not None:
        speedup = {
            key: other_means[key] / ours
            for key, ours in mean_seconds.items()
            if key in other_means and ours > 0
        }
    return LatencyReport(
        label=label,
        iterations=iterations,
        n_questions=len(questions),
        load_seconds=load_seconds,
        mean_seconds=mean_seconds,
        low_confidence=iterations == 1,
        speedup=speedup,
        failed=[{"question_id": qid, "error": error} for qid, error in errors.items()],
    )


def write_latency_json(path: str | Path, report: LatencyReport) -> None:
    write_json(path, asdict(report))
