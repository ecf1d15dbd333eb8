"""Sparse binary feature extraction for question classification.

Features live in five namespaces — named entities, lemmas, lemma bigrams,
POS tags and POS bigrams — so the total dimension is the sum of the five
vocabulary sizes. The vocabulary is frozen on the training set; indices
are assigned in sorted namespace/value order so the same data always
yields the same feature space regardless of input ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

NAMESPACES = ("lem", "lem2", "ne", "pos", "pos2")


@dataclass(frozen=True)
class FeatureSpace:
    vocab: dict[str, tuple[str, ...]]  # namespace -> sorted feature values
    index: dict[tuple[str, str], int]
    total_dim: int

    def __post_init__(self):
        assert self.total_dim == sum(len(v) for v in self.vocab.values())

    @classmethod
    def build(cls, feature_sets: Iterable[Iterable[tuple[str, str]]]) -> "FeatureSpace":
        """Every feature that occurs in the feature sets."""
        per_ns: dict[str, set[str]] = {ns: set() for ns in NAMESPACES}
        for features in feature_sets:
            for ns, value in features:
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

    def extract(self, features: Iterable[tuple[str, str]]) -> list[int]:
        """Active indices of (namespace, value) features, sorted and
        de-duplicated.

        Out-of-vocabulary features are dropped; an empty feature set
        activates nothing (the zero vector).
        """
        return sorted({self.index[pair] for pair in features if pair in self.index})

    def to_dict(self) -> dict:
        return {ns: list(values) for ns, values in self.vocab.items()}
