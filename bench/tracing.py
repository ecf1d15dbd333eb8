"""Per-module tracing from outside the program.

`Tracer.installed()` rebinds the public functions (and a few methods) that
`entityqa.pipeline`, `entityqa.experiments` and the benchmark itself look
up, so every call into a module opens a span; leaving the block restores
the originals. Spans carry a parent id and stay in memory; a span's self
time is its duration minus the durations of its child spans. Functions
called hundreds of thousands of times per round (`aggregate`,
`config_id`, `preprocess_text`) are timed and counted without keeping a
span record, and `embed` and `match_answer` are only counted.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable


def _one(_result, _args) -> int:
    return 1


def _length(result, _args) -> int:
    return len(result)


@dataclass
class Probe:
    owner: object                 # module or class whose attribute is rebound
    attr: str
    time: str | None              # metric that receives the self time
    counts: dict[str, Callable] = field(default_factory=dict)
    leaf: bool = False            # time and count, keep no span record
    inclusive: tuple[str, str | None] | None = None  # (metric, parent span)
    latency: bool = False         # record the inclusive duration of each call

    @property
    def module(self) -> str:
        return (self.time or next(iter(self.counts))).split(".")[0]

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def probes() -> list[Probe]:
    from entityqa import corpus, evaluation, experiments, pipeline, scoring

    P, E = pipeline, experiments
    return [
        Probe(corpus, "load_questions", "corpus.ingest_s"),
        Probe(corpus, "load_documents", "corpus.ingest_s"),
        Probe(P, "segment_sentences", "corpus.segment_s",
              {"corpus.sentences": lambda r, _a: len(r.sentences)}),
        Probe(P, "preprocess_text", "corpus.preprocess_s",
              {"corpus.preprocess_calls": _one}, leaf=True),

        Probe(P.LoadedStages, "predict_types", "qtype.predict_s",
              {"qtype.predictions": _one}),
        Probe(P, "load_labeled_questions", "qtype.centroid_train_s"),
        Probe(P, "train_embedding_classifier", "qtype.centroid_train_s"),
        Probe(P.QuestionClassifier, "load", "qtype.svm_load_s"),

        Probe(P.GazetteerExtractor, "extract", "entities.extract_s",
              {"entities.mentions": _length}),
        Probe(P.AnnotationFileExtractor, "extract", "entities.extract_s",
              {"entities.mentions": _length}),
        Probe(P.GazetteerExtractor, "from_file", "entities.gazetteer_load_s"),
        Probe(P.AnnotationFileExtractor, "__init__", "entities.annotations_load_s"),
        Probe(P, "filter_by_type", "entities.pool_s",
              {"entities.typed_mentions": _length}),
        Probe(P, "build_pool", "entities.pool_s",
              {"entities.candidates": lambda r, _a: len(r.candidates),
               "entities.capped_pools": lambda r, _a: int(r.capped)}),

        Probe(P, "build_evidence", "scoring.evidence_s",
              {"scoring.evidence_sentences":
               lambda r, _a: sum(len(e.scores) for e in r)}),
        Probe(scoring.WordAverageProvider, "embed", None,
              {"scoring.embed_calls": _one}, leaf=True),
        Probe(scoring.CacheProvider, "embed", None,
              {"scoring.embed_calls": _one}, leaf=True),
        Probe(P.CacheProvider, "__init__", "scoring.cache_load_s",
              {"scoring.cache_entries": lambda _r, a: len(a[0].entries)}),
        Probe(P.WordAverageProvider, "from_file", "scoring.vectors_load_s"),
        Probe(P, "aggregate", "scoring.aggregate_s",
              {"scoring.aggregate_calls": _one}, leaf=True),

        Probe(P, "score_candidates", "ranking.rank_s"),
        Probe(P, "rank_answers", "ranking.rank_s",
              {"ranking.groups": lambda r, _a: len(r.groups)}),
        Probe(E, "load_runs", "ranking.load_runs_s"),

        Probe(E, "evaluate_run", "evaluation.evaluate_run_s"),
        Probe(evaluation, "match_answer", None,
              {"evaluation.match_calls": _one}, leaf=True),
        Probe(E, "compare_reports", "evaluation.ttest_s"),
        Probe(evaluation, "write_report_csv", "evaluation.write_s"),
        Probe(evaluation, "write_report_json", "evaluation.write_s"),
        Probe(E, "write_significance_json", "evaluation.write_s"),
        Probe(evaluation, "load_qrels", "evaluation.load_qrels_s"),

        Probe(P, "load_stages", "pipeline.load_stages_s"),
        Probe(E, "load_stages", "pipeline.load_stages_s"),
        Probe(P, "run_pipeline", "pipeline.run_s"),
        Probe(P.LoadedStages, "answer", "pipeline.run_s", latency=True),
        Probe(P.LoadedStages, "prepare", "pipeline.run_s",
              inclusive=("experiments.prepare_s", "experiments.run_ablation")),
        Probe(P.PipelineConfig, "config_id", "pipeline.config_id_s",
              {"pipeline.config_id_calls": _one}, leaf=True),
        Probe(P, "write_run_file", "pipeline.write_run_s"),

        Probe(E, "run_ablation", "experiments.run_s"),
        Probe(E, "_evaluate_variant", "experiments.run_s",
              {"experiments.variants": _one},
              inclusive=("experiments.variant_eval_s", None)),
        Probe(E, "write_ablation_csv", "experiments.write_s"),
        Probe(E, "write_ablation_json", "experiments.write_s"),
    ]


class Tracer:
    """Spans and counters for the probed calls of one benchmark run.

    Totals are kept apart for the set-up phase and for the operation
    rounds, so a metric can be given as one set-up plus one mean round.
    """

    def __init__(self):
        self.probes = probes()
        self.stack: list[list] = []   # open spans: [id, name, start, child time]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, ok)
        self.keep_spans = True
        self.next_id = 0
        self.totals = {"setup": {}, "round": {}}
        self.acc = self.totals["setup"]
        self.latencies: list[float] = []

    def _add(self, metric: str, value: float) -> None:
        self.acc[metric] = self.acc.get(metric, 0.0) + value

    @contextmanager
    def installed(self, phase: str):
        self.acc = self.totals[phase]
        saved = []
        for probe in self.probes:
            # A probe whose function a later version renamed or removed
            # is skipped; its metrics then read 0.
            original = vars(probe.owner).get(probe.attr)
            if original is None:
                continue
            saved.append((probe, original))
            setattr(probe.owner, probe.attr, self._rewrap(probe, original))
        try:
            yield
        finally:
            for probe, original in reversed(saved):
                setattr(probe.owner, probe.attr, original)

    def _rewrap(self, probe: Probe, original):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(probe, original.__func__))
        if isinstance(original, property):
            return property(self._wrap(probe, original.fget))
        return self._wrap(probe, original)

    def _wrap(self, probe: Probe, fn):
        tracer = self
        failed = f"{probe.module}.failed"
        counts = tuple(probe.counts.items())

        def count(result, args):
            for metric, counter in counts:
                tracer._add(metric, counter(result, args))

        if probe.leaf and probe.time is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(result, args)
                return result
            return counted

        if probe.leaf:
            def leaf(*args, **kwargs):
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    tracer._add(failed, 1)
                    raise
                finally:
                    duration = perf_counter() - start
                    if tracer.stack:
                        tracer.stack[-1][3] += duration
                    tracer._add(probe.time, duration)
                count(result, args)
                return result
            return leaf

        def span(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [tracer.next_id, probe.name, perf_counter(), 0.0]
            tracer.next_id += 1
            tracer.stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            except Exception:
                tracer._add(failed, 1)
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                tracer._add(probe.time, duration - frame[3])
                if probe.inclusive is not None:
                    metric, under = probe.inclusive
                    if under is None or (parent is not None and parent[1] == under):
                        tracer._add(metric, duration)
                if probe.latency and tracer.acc is tracer.totals["round"]:
                    tracer.latencies.append(duration)
                tracer._add("trace.spans", 1)
                if tracer.keep_spans:
                    tracer.spans.append((frame[0], parent[0] if parent else None,
                                         probe.name, frame[2], end, ok))
            count(result, args)
            return result
        return span

    def metrics(self, rounds: int) -> dict[str, float]:
        """One set-up plus the mean of the traced rounds."""
        setup, per_round = self.totals["setup"], self.totals["round"]
        out = {m: setup.get(m, 0.0) + per_round.get(m, 0.0) / max(rounds, 1)
               for m in set(setup) | set(per_round)}
        mentions = out.get("entities.mentions", 0.0)
        out["entities.type_kept_ratio"] = (
            out.get("entities.typed_mentions", 0.0) / mentions if mentions else 0.0)
        if len(self.latencies) >= 2:
            deciles = statistics.quantiles(self.latencies, n=10)
            out["pipeline.answer_p50_ms"] = statistics.median(self.latencies) * 1e3
            out["pipeline.answer_p90_ms"] = deciles[8] * 1e3
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, ok in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "ok": ok}) + "\n")
