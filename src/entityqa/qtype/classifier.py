"""Question classification: training, prediction and model persistence.

Two classifier families share the same downstream contract (a coarse and
a fine label per question):

* the default linear-SVM path over sparse linguistic features, trained
  here from the labeled-question file;
* a nearest-centroid alternative over precomputed dense question
  embeddings, for setups where an external sentence encoder is available.
"""

from __future__ import annotations

import io
import json
import math
import random
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..corpus import (atomic_write_bytes, atomic_write_text, read_field, read_json,
                      read_lines)
from ..errors import DataError, ParseError
from .annotate import question_features
from .features import NAMESPACES, FeatureSpace
from .linear import LinearModel, train_one_vs_rest
from .taxonomy import default_taxonomy


@dataclass(frozen=True)
class LabeledQuestion:
    coarse: str
    fine: str
    text: str

    @property
    def fine_qualified(self) -> str:
        return f"{self.coarse}:{self.fine}"


def load_labeled_questions(path: str | Path) -> list[LabeledQuestion]:
    """Parse the labeled-question file: "COARSE:fine<TAB>question text".

    Lines without a tab fall back to splitting on the first space, the
    other common distribution format of this data.
    """
    taxonomy = default_taxonomy()
    out: list[LabeledQuestion] = []
    for line_no, line in read_lines(path):
        if "\t" in line:
            label, text = line.split("\t", 1)
        elif " " in line:
            label, text = line.split(" ", 1)
        else:
            raise ParseError(str(path), line_no, "expected 'LABEL:fine<TAB>text'")
        label = label.strip()
        if ":" not in label:
            raise ParseError(str(path), line_no, f"label {label!r} lacks a fine part")
        coarse, fine = label.split(":", 1)
        if fine not in taxonomy.get(coarse, ()):
            raise ParseError(str(path), line_no, f"unknown question label {label!r}")
        if not text.strip():
            raise ParseError(str(path), line_no, "empty question text")
        out.append(LabeledQuestion(coarse=coarse, fine=fine, text=text.strip()))
    if not out:
        raise DataError(f"{path}: no labeled questions")
    return out


def split_labeled(labeled: Sequence[LabeledQuestion], train_fraction: float = 0.9,
                  seed: int = 0) -> tuple[list[LabeledQuestion], list[LabeledQuestion]]:
    """Seeded shuffle split; the held-out part is the tail."""
    if not (0.0 < train_fraction <= 1.0):
        raise ValueError("train_fraction must be in (0, 1]")
    order = list(labeled)
    random.Random(seed).shuffle(order)
    cut = int(round(train_fraction * len(order)))
    return order[:cut], order[cut:]


def _pick_types(coarse_classes: Sequence[str], coarse_scores: np.ndarray,
                fine_classes: Sequence[str], fine_scores: np.ndarray
                ) -> tuple[str, str]:
    """The best coarse class and the best fine class, picked independently;
    the fine one loses its coarse prefix. np.argmax keeps the first maximum,
    so a tie goes to the smallest class (classes are stored sorted)."""
    coarse = coarse_classes[int(np.argmax(coarse_scores))]
    qualified = fine_classes[int(np.argmax(fine_scores))]
    fine = qualified.split(":", 1)[1] if ":" in qualified else qualified
    return coarse, fine


# The arrays of a saved model's .npz file.
_ARRAY_NAMES = ("coarse_weights", "coarse_bias", "fine_weights", "fine_bias")


@dataclass(frozen=True)
class QuestionClassifier:
    space: FeatureSpace
    coarse_model: LinearModel
    fine_model: LinearModel
    hyperparams: dict

    def predict(self, text: str) -> tuple[str, str]:
        active = self.space.extract(question_features(text))
        return _pick_types(
            self.coarse_model.classes, self.coarse_model.decision_scores(active),
            self.fine_model.classes, self.fine_model.decision_scores(active))

    @staticmethod
    def files(path: str | Path) -> tuple[Path, Path]:
        """The (weights, metadata) files of the model saved as `path`:
        `path` itself when it ends in ".npz", else `path` + ".npz"; and
        that name + ".meta.json"."""
        npz_path = Path(path if str(path).endswith(".npz") else f"{path}.npz")
        return npz_path, Path(f"{npz_path}.meta.json")

    def save(self, path: str | Path) -> None:
        """Write the model to its `files(path)`; `load(path)` reads it back.

        Both are serialised before either file is written, and each file
        is replaced atomically, so a failure leaves the previous files.
        """
        arrays = io.BytesIO()
        np.savez(
            arrays,
            coarse_weights=self.coarse_model.weights,
            coarse_bias=self.coarse_model.bias,
            fine_weights=self.fine_model.weights,
            fine_bias=self.fine_model.bias,
        )
        meta = json.dumps({
            "vocab": self.space.to_dict(),
            "coarse_classes": list(self.coarse_model.classes),
            "fine_classes": list(self.fine_model.classes),
            "hyperparams": self.hyperparams,
        }, sort_keys=True)
        npz_path, meta_path = self.files(path)
        atomic_write_bytes(npz_path, arrays.getvalue())
        atomic_write_text(meta_path, meta)

    @classmethod
    def load(cls, path: str | Path) -> "QuestionClassifier":
        """Read the model saved as `path`; a file that cannot be read back
        into one is a ParseError naming it."""
        npz_path, meta_path = cls.files(path)
        try:
            with np.load(npz_path) as npz:
                arrays = {name: npz[name] for name in _ARRAY_NAMES}
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile,
                AttributeError, TypeError) as exc:  # the last two: not an .npz archive
            raise ParseError(str(npz_path), 0, f"invalid model arrays: {exc}") from exc
        meta = read_json(meta_path)
        vocab = read_field(meta, "vocab", "object", meta_path, 1)
        space = FeatureSpace.from_vocab({
            ns: read_field(vocab, ns, ["string"], meta_path, 1, name=f"vocab.{ns}", default=())
            for ns in NAMESPACES})
        models = []
        for level in ("coarse", "fine"):
            model = LinearModel(
                classes=tuple(read_field(meta, f"{level}_classes", ["string"], meta_path, 1)),
                weights=arrays[f"{level}_weights"],
                bias=arrays[f"{level}_bias"],
            )
            if (model.weights.shape != (len(model.classes), space.total_dim)
                    or model.bias.shape != (len(model.classes),)):
                raise ParseError(
                    str(meta_path), 1,
                    f"{len(model.classes)} {level}_classes over {space.total_dim} features "
                    f"do not fit {level} weights of shape {model.weights.shape} "
                    f"and bias of shape {model.bias.shape}")
            models.append(model)
        return cls(space=space, coarse_model=models[0], fine_model=models[1],
                   hyperparams=read_field(meta, "hyperparams", "object", meta_path, 1,
                                          default={}))


def train_classifier(labeled: Sequence[LabeledQuestion], *,
                     epochs: int = 10, learning_rate: float = 0.5,
                     l2: float = 1e-4, seed: int = 0) -> QuestionClassifier:
    """Train independent coarse and fine models over one feature space."""
    if not labeled:
        raise DataError("no training samples")
    feature_sets = [question_features(q.text) for q in labeled]
    space = FeatureSpace.build(feature_sets)
    actives = [space.extract(f) for f in feature_sets]

    coarse_classes = tuple(sorted({q.coarse for q in labeled}))
    fine_classes = tuple(sorted({q.fine_qualified for q in labeled}))
    coarse_idx = {c: i for i, c in enumerate(coarse_classes)}
    fine_idx = {f: i for i, f in enumerate(fine_classes)}

    coarse_samples = [(a, coarse_idx[q.coarse]) for a, q in zip(actives, labeled)]
    fine_samples = [(a, fine_idx[q.fine_qualified]) for a, q in zip(actives, labeled)]

    kwargs = dict(epochs=epochs, learning_rate=learning_rate, l2=l2, seed=seed)
    coarse_model = train_one_vs_rest(coarse_samples, coarse_classes,
                                     space.total_dim, **kwargs)
    fine_model = train_one_vs_rest(fine_samples, fine_classes,
                                   space.total_dim, **kwargs)
    return QuestionClassifier(
        space=space, coarse_model=coarse_model, fine_model=fine_model,
        hyperparams={"epochs": epochs, "learning_rate": learning_rate,
                     "l2": l2, "seed": seed},
    )


def classifier_accuracy(classifier: QuestionClassifier,
                        labeled: Sequence[LabeledQuestion]) -> tuple[float, float]:
    """(coarse, fine) accuracy of a trained model on labeled questions."""
    if not labeled:
        raise ValueError("no evaluation samples")
    coarse_hits = fine_hits = 0
    for q in labeled:
        coarse, fine = classifier.predict(q.text)
        coarse_hits += coarse == q.coarse
        fine_hits += coarse == q.coarse and fine == q.fine
    return coarse_hits / len(labeled), fine_hits / len(labeled)


def majority_baseline(labeled: Sequence[LabeledQuestion]) -> float:
    """Accuracy of always predicting the most frequent coarse class."""
    if not labeled:
        raise ValueError("no samples")
    counts: dict[str, int] = {}
    for q in labeled:
        counts[q.coarse] = counts.get(q.coarse, 0) + 1
    return max(counts.values()) / len(labeled)


# ---------------------------------------------------------------------------
# Embedding-based alternative
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingClassifier:
    """Nearest-centroid classification over dense question embeddings.

    The encoder itself is not bundled; any callable mapping text to a
    fixed-dimension vector works (including the sentence providers used
    for answer scoring).
    """

    coarse_classes: tuple[str, ...]
    fine_classes: tuple[str, ...]
    coarse_centroids: np.ndarray  # (C, d), rows L2-normalized where possible
    fine_centroids: np.ndarray

    def predict_vector(self, vector: np.ndarray) -> tuple[str, str]:
        norm = float(np.linalg.norm(vector))
        v = vector / norm if norm > 0 else vector
        return _pick_types(self.coarse_classes, self.coarse_centroids @ v,
                           self.fine_classes, self.fine_centroids @ v)


def _centroids(classes: tuple[str, ...], labels: Sequence[str],
               matrix: np.ndarray) -> np.ndarray:
    index = {c: i for i, c in enumerate(classes)}
    rows = np.fromiter((index[label] for label in labels), dtype=np.intp,
                       count=len(labels))
    out = np.zeros((len(classes), matrix.shape[1]))
    # Unbuffered: rows are added to their class in row order, as a loop would.
    np.add.at(out, rows, matrix)
    out /= np.maximum(np.bincount(rows, minlength=len(classes)), 1.0)[:, None]
    norms = np.linalg.norm(out, axis=1)
    nonzero = norms > 0
    out[nonzero] /= norms[nonzero, None]
    return out


def train_embedding_classifier(labeled: Sequence[LabeledQuestion],
                               embed: Callable[[str], np.ndarray]) -> EmbeddingClassifier:
    if not labeled:
        raise DataError("no training samples")
    # Each distinct text is embedded once; duplicates share its row.
    row_of: dict[str, int] = {}
    rows = []
    for q in labeled:
        if q.text not in row_of:
            row_of[q.text] = len(rows)
            v = np.asarray(embed(q.text), dtype=float)
            norm = math.sqrt(v.dot(v))
            rows.append(v / norm if norm > 0 else v)
    matrix = np.vstack(rows)[[row_of[q.text] for q in labeled]]
    coarse_classes = tuple(sorted({q.coarse for q in labeled}))
    fine_classes = tuple(sorted({q.fine_qualified for q in labeled}))
    return EmbeddingClassifier(
        coarse_classes=coarse_classes,
        fine_classes=fine_classes,
        coarse_centroids=_centroids(coarse_classes, [q.coarse for q in labeled], matrix),
        fine_centroids=_centroids(fine_classes, [q.fine_qualified for q in labeled], matrix),
    )
