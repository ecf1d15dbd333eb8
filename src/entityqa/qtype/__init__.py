"""Question answer-type classification."""

from .annotate import question_features
from .classifier import (EmbeddingClassifier, LabeledQuestion,
                         QuestionClassifier, classifier_accuracy,
                         load_labeled_questions, majority_baseline,
                         split_labeled, train_classifier,
                         train_embedding_classifier)
from .features import NAMESPACES, FeatureSpace
from .linear import LinearModel, hinge_objective, train_one_vs_rest
from .taxonomy import (AnswerTypeMap, default_answer_type_map,
                       default_taxonomy, load_answer_type_map,
                       map_answer_types)

__all__ = [
    "NAMESPACES",
    "AnswerTypeMap", "EmbeddingClassifier", "FeatureSpace",
    "LabeledQuestion", "LinearModel", "QuestionClassifier",
    "classifier_accuracy", "default_answer_type_map", "default_taxonomy",
    "hinge_objective", "load_answer_type_map", "load_labeled_questions",
    "majority_baseline", "map_answer_types", "question_features",
    "split_labeled", "train_classifier", "train_embedding_classifier",
    "train_one_vs_rest",
]
