"""Sparse binary feature extraction for question classification.

Features live in five namespaces — named entities, lemmas, lemma bigrams,
POS tags and POS bigrams — so the total dimension is the sum of the five
vocabulary sizes. The vocabulary is frozen on the training set; indices
are assigned in sorted namespace/value order so the same data always
yields the same feature space regardless of input ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .annotate import QuestionAnnotation

NAMESPACES = ("lem", "lem2", "ne", "pos", "pos2")


def feature_templates(ann: QuestionAnnotation) -> Iterator[tuple[str, str]]:
    """Yield (namespace, value) pairs for one annotated question."""
    for lem in ann.lemmas:
        yield "lem", lem.lower()
    lows = [lem.lower() for lem in ann.lemmas]
    for a, b in zip(lows, lows[1:]):
        yield "lem2", f"{a}_{b}"
    for tag in ann.pos_tags:
        yield "pos", tag
    for a, b in zip(ann.pos_tags, ann.pos_tags[1:]):
        yield "pos2", f"{a}_{b}"
    for _surface, tag in ann.named_entities:
        yield "ne", tag


@dataclass(frozen=True)
class FeatureSpace:
    vocab: dict[str, tuple[str, ...]]  # namespace -> sorted feature values
    index: dict[tuple[str, str], int]
    total_dim: int

    def __post_init__(self):
        assert self.total_dim == sum(len(v) for v in self.vocab.values())

    @classmethod
    def build(cls, annotations: Iterable[QuestionAnnotation]) -> "FeatureSpace":
        """Every feature that occurs in the annotations."""
        per_ns: dict[str, set[str]] = {ns: set() for ns in NAMESPACES}
        for ann in annotations:
            for ns, value in feature_templates(ann):
                per_ns[ns].add(value)
        return cls.from_vocab(per_ns)

    @classmethod
    def from_vocab(cls, vocab: dict[str, Iterable[str]]) -> "FeatureSpace":
        frozen = {ns: tuple(sorted(vocab.get(ns, ()))) for ns in NAMESPACES}
        index: dict[tuple[str, str], int] = {}
        i = 0
        for ns in NAMESPACES:
            for value in frozen[ns]:
                index[(ns, value)] = i
                i += 1
        return cls(vocab=frozen, index=index, total_dim=i)

    def extract(self, ann: QuestionAnnotation) -> list[int]:
        """Active feature indices, sorted and de-duplicated.

        Out-of-vocabulary items are dropped; an empty annotation activates
        nothing (the zero vector).
        """
        active = {
            self.index[pair]
            for pair in feature_templates(ann)
            if pair in self.index
        }
        return sorted(active)

    def to_dict(self) -> dict:
        return {ns: list(values) for ns, values in self.vocab.items()}
