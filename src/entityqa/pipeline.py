"""End-to-end pipeline: question type → entities → evidence → ranked run.

A PipelineConfig names every stage variant and data file; its canonical
JSON form is hashed into a config_id that is stamped on every output, so
any run file can be traced back to the exact configuration that produced
it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import reprlib
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, lru_cache, partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping, Sequence

from .corpus import (SOURCE_SETS, DocumentSet, Question, preprocess_text,
                     read_json, segment_sentences, write_json)
from .entities import (DEFAULT_CANDIDATE_CAP, AnnotationFileExtractor,
                       EntityMention, GazetteerExtractor, build_pool,
                       filter_by_type)
from .errors import ConfigError, ParseError
from .qtype import (AnswerTypeMap, EmbeddingClassifier, LabeledQuestion,
                    QuestionClassifier, default_answer_type_map,
                    load_answer_type_map, load_labeled_questions,
                    map_answer_types, train_embedding_classifier)
from .ranking import (COMBINE_MODES, SCORE_DIGITS, RankingConfig, TiedRun,
                      rank_answers, write_runs)
from .scoring import (AGGREGATION_MODES, CacheProvider, EvidenceSet, Provider,
                      WordAverageProvider, aggregate, build_evidence)

log = logging.getLogger(__name__)

# Each stage's variants, and the config field naming the data file that
# variant reads.
STAGE_FILES = {
    "classifier": {"svm": "model_path", "external-embedding": "labeled_path"},
    "ner_backend": {"annotations": "annotations_path",
                    "gazetteer": "gazetteer_path"},
    "embedding_provider": {"word-avg": "vectors_path", "cache": "cache_path"},
}
CLASSIFIER_KINDS = tuple(STAGE_FILES["classifier"])
PROVIDER_KINDS = tuple(STAGE_FILES["embedding_provider"])
AVGMAX_DENOMINATORS = ("containing_docs", "all_docs")
# Each declared type of a config field: the phrase its errors use, and the
# value types it takes. A bool is none of the others; a float field also
# takes an int, kept as given so that its config_id stays the same; every
# int field is a count of at least 1.
_FIELD_KINDS = {"str": ("a string", str), "bool": ("true or false", bool),
                "int": ("a positive integer", int), "float": ("a number", (int, float))}


@dataclass(frozen=True)
class PipelineConfig:
    # Stage variants.
    classifier: str = "svm"
    ner_backend: str = "gazetteer"
    embedding_provider: str = "word-avg"
    aggregation: str = "max"
    combine: str = "multiplicative"
    alpha: float = 0.1
    beta: float = 0.1
    candidate_cap: int = DEFAULT_CANDIDATE_CAP
    avgmax_denominator: str = "containing_docs"
    group_surface_variants: bool = True
    df_any_tag: bool = False
    score_digits: int = SCORE_DIGITS
    source_set: str = "custom"
    # Data files. Empty string means "not provided".
    questions_path: str = ""
    documents_path: str = ""
    model_path: str = ""
    labeled_path: str = ""
    vectors_path: str = ""
    cache_path: str = ""
    gazetteer_path: str = ""
    annotations_path: str = ""
    type_map_path: str = ""

    def __post_init__(self):
        for spec in fields(self):
            phrase, types = _FIELD_KINDS[spec.type]
            value = getattr(self, spec.name)
            if (not isinstance(value, types) or isinstance(value, bool) != (spec.type == "bool")
                    or spec.type == "int" and value < 1):
                raise ConfigError(f"{spec.name} must be {phrase}, not {reprlib.repr(value)}")
        checks = (
            *((stage, tuple(variants)) for stage, variants in STAGE_FILES.items()),
            ("aggregation", AGGREGATION_MODES),
            ("combine", COMBINE_MODES),
            ("avgmax_denominator", AVGMAX_DENOMINATORS),
            ("source_set", SOURCE_SETS),
        )
        for field_name, allowed in checks:
            value = getattr(self, field_name)
            if value not in allowed:
                raise ConfigError(
                    f"{field_name} must be one of {allowed}, got {value!r}"
                )
        try:
            ranking = RankingConfig(
                combine_mode=self.combine, alpha=self.alpha, beta=self.beta,
                score_digits=self.score_digits)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # Derived, not a field: it stays out of canonical_json and config_id.
        object.__setattr__(self, "ranking", ranking)

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @property
    def config_id(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:12]

    def validate_paths(self) -> None:
        required = ("questions_path", "documents_path",
                    *(variants[getattr(self, stage)]
                      for stage, variants in STAGE_FILES.items()))
        for key in required:
            value = getattr(self, key)
            if not value:
                raise ConfigError(f"{key} is required by this configuration")
            files = (QuestionClassifier.files(value) if key == "model_path"
                     else (Path(value),))
            for path in files:
                if not path.is_file():
                    raise ConfigError(f"{key}: no such file: {path}")
        if self.type_map_path and not Path(self.type_map_path).is_file():
            raise ConfigError(f"type_map_path: no such file: {self.type_map_path}")


def load_config(path: str | Path, overrides: Mapping[str, object] | None = None
                ) -> PipelineConfig:
    """Read a JSON config file, applying CLI overrides on top.

    A key or value error names the file, and says "with --set" when
    overrides were given.
    """
    try:
        raw = read_json(path)
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    raw.update(overrides or {})
    source = f"{path} with --set" if overrides else str(path)
    known = set(PipelineConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{source}: unknown config keys {sorted(unknown)}")
    try:
        return PipelineConfig(**raw)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


# ---------------------------------------------------------------------------
# Stage loading (one-time cost, kept out of per-question timing)
# ---------------------------------------------------------------------------

def document_step(docset: DocumentSet,
                  extractor: GazetteerExtractor | AnnotationFileExtractor
                  ) -> tuple[DocumentSet, list[EntityMention]]:
    """The part of `prepare` that no question or answer type changes: the
    document set split into sentences, and every mention found there."""
    segmented = replace(
        docset,
        documents=tuple(segment_sentences(d) for d in docset.documents),
    )
    return segmented, extractor.extract(segmented)


@dataclass(frozen=True)
class LoadedStages:
    """The loaded stages of one config. `read_documents` is the one
    document hook: `document_step` with the config's extractor, shared by
    the stages that `load_shared_stages` loads with that extractor."""
    config: PipelineConfig
    classifier: QuestionClassifier | EmbeddingClassifier
    provider: Provider
    type_map: AnswerTypeMap
    read_documents: Callable[[DocumentSet],
                             tuple[DocumentSet, list[EntityMention]]]

    def predict_types(self, question: Question) -> tuple[str, str]:
        if self.config.classifier == "svm":
            return self.classifier.predict(question.text)
        return self.classifier.predict_vector(
            self.provider.embed(preprocess_text(question.text)))

    def prepare(self, question: Question, docset: DocumentSet,
                types: tuple[str, str] | None = None):
        """Everything up to evidence scores (independent of agg/combine).

        The answer type is predicted first, from the question alone, so a
        question of a non-entity type returns before the document step;
        `types`, when given, is that prediction, made by the caller with
        this classifier. Then the typed step filters the mentions by type,
        pools them and scores their evidence. Returns (pool, evidence,
        number of documents), or None for a question of a non-entity type.
        """
        coarse, fine = types or self.predict_types(question)
        accepted = map_answer_types(coarse, fine, self.type_map)
        if accepted is None:
            # Non-entity question types (definition/abbreviation style)
            # cannot be answered by entity ranking: empty run.
            return None
        segmented, all_mentions = self.read_documents(docset)
        typed = filter_by_type(all_mentions, accepted)
        pool = build_pool(
            typed,
            cap=self.config.candidate_cap,
            group_surface_variants=self.config.group_surface_variants,
            df_mentions=all_mentions if self.config.df_any_tag else None,
        )
        evidence = build_evidence(pool, segmented,
                                  preprocess_text(question.text), self.provider)
        return pool, evidence, segmented.k

    def answer(self, question: Question, docset: DocumentSet) -> TiedRun:
        """The question's run. One `rank_answers` call ranks every
        question: a non-entity type ranks no candidates, an empty run."""
        _pool, evidence, n_docs = self.prepare(question, docset) or (None, [], 0)
        return rank_answers(
            question.id, [ev.entity.canonical_surface for ev in evidence],
            aggregate_evidence(evidence, n_docs, self.config),
            [ev.entity.df for ev in evidence], n_docs, self.config.ranking)


def aggregate_evidence(evidence: Sequence[EvidenceSet], n_docs: int,
                       config: PipelineConfig) -> list[float]:
    """Semantic score of each candidate under the configured aggregation."""
    return [
        aggregate(ev, config.aggregation,
                  avgmax_denominator=config.avgmax_denominator, n_docs=n_docs)
        for ev in evidence
    ]


def load_shared_stages(configs: Sequence[PipelineConfig]) -> list[LoadedStages]:
    """The loaded stages of each config, each data file read once for all.

    Every config's paths are checked before any file is read. Configs that
    name the same variant and file share what is read from it. The SVM
    reads only the question text, so every provider shares it; centroids
    are trained once per provider, in its embedding space.
    """
    for config in configs:
        config.validate_paths()

    def labeled_texts(path: str) -> tuple[list[LabeledQuestion], dict[str, str]]:
        # The part of centroid training no provider changes: the labeled
        # questions, and the preprocessed form of each distinct text.
        questions = load_labeled_questions(path)
        return questions, {text: preprocess_text(text)
                           for text in dict.fromkeys(q.text for q in questions)}

    @cache
    def read(variant: str, path: str):
        # Each reader is looked up at call time, in this module's namespace.
        return {"svm": QuestionClassifier.load, "external-embedding": labeled_texts,
                "word-avg": WordAverageProvider.from_file, "cache": CacheProvider,
                "gazetteer": GazetteerExtractor.from_file,
                "annotations": AnnotationFileExtractor}[variant](path)

    def load(config: PipelineConfig, stage: str):
        variant = getattr(config, stage)
        return read(variant, getattr(config, STAGE_FILES[stage][variant]))

    @cache
    def centroids(path: str, embedder: Provider) -> EmbeddingClassifier:
        questions, preprocessed = read("external-embedding", path)
        return train_embedding_classifier(
            questions, lambda text: embedder.embed(preprocessed[text]))

    models = []
    for config in configs:
        embedder = load(config, "embedding_provider")
        models.append((embedder, load(config, "classifier") if config.classifier == "svm"
                       else centroids(config.labeled_path, embedder)))
    # Only centroid training reads the labeled texts: they go before the
    # extractors load.
    read.cache_clear()

    @cache
    def read_documents(extractor: GazetteerExtractor | AnnotationFileExtractor):
        # Configs that prepare a question one after another share its
        # document step: a memo of the last document set runs it once.
        return lru_cache(maxsize=1)(partial(document_step, extractor=extractor))

    @cache
    def type_map(path: str) -> AnswerTypeMap:
        return load_answer_type_map(path) if path else default_answer_type_map()

    return [LoadedStages(config=config, provider=embedder, classifier=classifier,
                         read_documents=read_documents(load(config, "ner_backend")),
                         type_map=type_map(config.type_map_path))
            for config, (embedder, classifier) in zip(configs, models)]


def load_stages(config: PipelineConfig) -> tuple[LoadedStages, float]:
    """The loaded stages of one config, and the seconds they took to load."""
    started = perf_counter()
    [stages] = load_shared_stages([config])
    return stages, perf_counter() - started


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineResult:
    runs: tuple[TiedRun, ...]
    errors: tuple[tuple[str, str], ...]  # (question_id, message)
    # The seconds each run's `answer` took, in run order; not compared.
    seconds: tuple[float, ...] = field(default=(), compare=False)


def run_pipeline(config: PipelineConfig, questions: Sequence[Question],
                 docsets: Mapping[str, DocumentSet],
                 stages: LoadedStages | None = None) -> PipelineResult:
    """Answer and time every question in order; per-question failures are
    recorded, not fatal. Progress is logged at INFO, one record per question.
    Given `stages` must be those of `config`, whose id the run file carries."""
    if stages is None:
        stages, _ = load_stages(config)
    elif stages.config != config:
        raise ValueError(f"stages of config {stages.config.config_id} "
                         f"given for config {config.config_id}")
    runs: list[TiedRun] = []
    seconds: list[float] = []
    errors: list[tuple[str, str]] = []
    for n, question in enumerate(questions, start=1):
        error = None
        docset = docsets.get(question.id)
        if docset is None:
            error = "no document set"
        else:
            try:
                started = perf_counter()
                runs.append(stages.answer(question, docset))
                seconds.append(perf_counter() - started)
            except Exception as exc:  # recorded per question, surfaced in summary
                log.exception("question %s failed", question.id)
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            errors.append((question.id, error))
        log.info("question %d/%d %s: %s", n, len(questions), question.id,
                 error or "answered")
    return PipelineResult(runs=tuple(runs), errors=tuple(errors), seconds=tuple(seconds))


def write_run_file(path: str | Path, result: PipelineResult,
                   config: PipelineConfig) -> None:
    """Run JSONL plus a .config.json sidecar with the effective config."""
    config_id = config.config_id
    write_runs(path, result.runs, config_id)
    write_json(str(path) + ".config.json", {
        "config_id": config_id,
        "config": asdict(config),
        "errors": [{"question_id": qid, "error": msg}
                   for qid, msg in result.errors],
    })
