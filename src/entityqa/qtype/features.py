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
    index: dict[tuple[str, str], int]  # in NAMESPACES order, values sorted

    @property
    def total_dim(self) -> int:
        return len(self.index)

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
        pairs = [(ns, value) for ns in NAMESPACES
                 for value in sorted(set(vocab.get(ns, ())))]
        return cls(index={pair: i for i, pair in enumerate(pairs)})

    def extract(self, features: Iterable[tuple[str, str]]) -> list[int]:
        """Active indices of (namespace, value) features, sorted and
        de-duplicated.

        Out-of-vocabulary features are dropped; an empty feature set
        activates nothing (the zero vector).
        """
        return sorted({self.index[pair] for pair in features if pair in self.index})

    def to_dict(self) -> dict:
        vocab: dict[str, list[str]] = {ns: [] for ns in NAMESPACES}
        for ns, value in self.index:
            vocab[ns].append(value)
        return vocab
