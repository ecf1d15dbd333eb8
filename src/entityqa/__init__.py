"""Entity-centric question answering over retrieved documents.

Pipeline: classify the question's expected answer type, extract typed
entities from the question's document set, score candidates by semantic
similarity between question and evidence sentences, combine with
document frequency, and emit a tie-grouped top-5 answer list. The
evaluation half scores such runs with classical and tie-aware metrics.
"""

from .corpus import (DocumentSet, Document, Question, StrataSpec,
                     canonicalize, collection_spec, load_documents,
                     load_questions, preprocess_text, sample_strata,
                     segment_sentences, split_sentences)
from .entities import (CandidateEntity, CandidatePool, EntityMention,
                       GazetteerExtractor, ONTONOTES_TAGS, build_pool,
                       filter_by_type)
from .evaluation import (Judgment, MetricReport, SignificanceResult,
                         evaluate_run, load_qrels, match_answer,
                         paired_t_test, per_query_diff)
from .pipeline import (LoadedStages, PipelineConfig, PipelineResult,
                       load_config, load_stages, run_pipeline, write_run_file)
from .qtype import QuestionClassifier, map_answer_types, train_classifier
from .ranking import (ALPHA_BETA_GRID, RankingConfig, TiedRun, combine,
                      load_runs, rank_answers, write_runs)
from .scoring import (CacheProvider, EvidenceSet, WordAverageProvider,
                      aggregate, build_evidence)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_BETA_GRID", "CacheProvider",
    "CandidateEntity", "CandidatePool", "Document", "DocumentSet",
    "EntityMention", "EvidenceSet", "GazetteerExtractor",
    "Judgment", "LoadedStages", "MetricReport", "ONTONOTES_TAGS",
    "PipelineConfig", "PipelineResult", "Question", "QuestionClassifier",
    "RankingConfig", "SignificanceResult", "StrataSpec", "TiedRun", "WordAverageProvider",
    "aggregate", "build_evidence", "build_pool", "canonicalize",
    "collection_spec", "combine",
    "evaluate_run", "filter_by_type", "load_config",
    "load_documents", "load_qrels", "load_questions", "load_runs",
    "load_stages", "map_answer_types", "match_answer", "paired_t_test",
    "per_query_diff", "preprocess_text", "rank_answers", "run_pipeline",
    "sample_strata", "segment_sentences", "split_sentences",
    "train_classifier", "write_run_file", "write_runs",
]
