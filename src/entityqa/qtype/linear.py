"""One-vs-rest linear SVM trained by subgradient descent.

Hand-rolled on purpose: the update rule is a few lines, the dependency
surface stays tiny, and training is bit-reproducible across platforms.
All classes are trained simultaneously — the weight matrix is C x D and
each sample touches only its active columns, with L2 decay applied lazily
through a running scale factor so a step costs O(C * nnz) instead of
O(C * D).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import TrainingError


@dataclass(frozen=True)
class LinearModel:
    classes: tuple[str, ...]
    weights: np.ndarray  # shape (C, D)
    bias: np.ndarray     # shape (C,)

    def decision_scores(self, active: Sequence[int]) -> np.ndarray:
        return self.weights[:, list(active)].sum(axis=1) + self.bias


def train_one_vs_rest(samples: Sequence[tuple[Sequence[int], int]],
                      classes: Sequence[str], dimension: int, *,
                      epochs: int = 10, learning_rate: float = 0.5,
                      l2: float = 1e-4, seed: int = 0) -> LinearModel:
    """Train C binary hinge classifiers sharing one pass over the data.

    samples: (active feature indices, class index) pairs. The per-epoch
    visiting order is a seeded shuffle, so (data, hyperparameters, seed)
    fully determine the resulting model.
    """
    if not samples:
        raise TrainingError("no training samples")
    if dimension <= 0:
        raise TrainingError("empty feature space")
    class_list = tuple(classes)
    if sorted(class_list) != list(class_list):
        raise TrainingError("classes must be pre-sorted")
    n_classes = len(class_list)
    for active, label in samples:
        if not (0 <= label < n_classes):
            raise TrainingError(f"label index {label} outside 0..{n_classes - 1}")
        for j in active:
            if not (0 <= j < dimension):
                raise TrainingError(f"feature index {j} outside 0..{dimension - 1}")

    w = np.zeros((n_classes, dimension))
    bias = np.zeros(n_classes)
    scale = 1.0
    rng = random.Random(seed)
    order = list(range(len(samples)))
    step = 0
    for _ in range(epochs):
        rng.shuffle(order)
        for i in order:
            active, label = samples[i]
            idx = list(active)
            step += 1
            eta = learning_rate / (1.0 + learning_rate * l2 * step)
            targets = np.full(n_classes, -1.0)
            targets[label] = 1.0
            margins = targets * (scale * w[:, idx].sum(axis=1) + bias)
            scale *= 1.0 - eta * l2
            if scale < 1e-9:
                w *= scale
                scale = 1.0
            violating = np.flatnonzero(margins < 1.0)
            if violating.size:
                w[np.ix_(violating, idx)] += (eta / scale) * targets[violating, None]
                bias[violating] += eta * targets[violating]
    return LinearModel(classes=class_list, weights=w * scale, bias=bias)

