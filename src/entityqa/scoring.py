"""Sentence embedding, question-sentence similarity and score aggregation.

Each candidate entity is backed by the set of sentences mentioning it;
the semantic score of the candidate is an aggregation (average, per-doc
max then average, or global max) of the cosine similarities between the
question embedding and those sentence embeddings.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol

import numpy as np

from .corpus import DocumentSet, parse_array, read_jsonl, write_jsonl
from .entities import CandidateEntity, CandidatePool
from .errors import CacheMissError, EmptyInputError, ParseError

AGGREGATION_MODES = ("avg", "avg_max", "max")


class Provider(Protocol):
    """Maps a text to a 1-d float vector of length `dim`; every vector of
    one provider lives in one embedding space."""

    provider_id: str
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


_TOKEN = re.compile(r"\w+(?:'\w+)?")


def _all_finite(values: list[float]) -> bool:
    """No NaN or infinity among `values`.

    A NaN cosine would pass the [-1, 1] clamp as 1.0, the best score, so
    the loaders reject such vectors. A NaN or an infinity makes the sum
    non-finite; finite components overflow the sum only past about 1e308,
    so only then are they checked one by one.
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


class WordAverageProvider:
    """Unweighted mean of in-vocabulary token vectors.

    Reads the plain-text vector format, one token per line followed by its
    space-separated components. Tokens are matched lowercase; a sentence
    with no in-vocabulary token embeds to the zero vector.
    """

    def __init__(self, vectors: dict[str, np.ndarray], provider_id: str = "word-avg"):
        if not vectors:
            raise EmptyInputError("empty word-vector table")
        self.vectors = {k.lower(): np.asarray(v, dtype=float) for k, v in vectors.items()}
        shapes = {v.shape for v in self.vectors.values()}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent vector dimensions {sorted(shapes)}")
        shape = shapes.pop()
        if len(shape) != 1 or shape[0] == 0:
            raise ValueError(f"word vectors must be non-empty and 1-d, got shape {shape}")
        self.dim = shape[0]
        self.provider_id = provider_id

    @classmethod
    def from_file(cls, path: str | Path) -> "WordAverageProvider":
        vectors: dict[str, np.ndarray] = {}
        dim: int | None = None
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split(" ")
                if len(parts) < 2:
                    if not line.strip():
                        continue
                    raise ParseError(str(path), line_no, "expected 'token v1 ... vd'")
                try:
                    values = [float(x) for x in parts[1:]]
                except ValueError as exc:
                    raise ParseError(str(path), line_no, f"bad float: {exc}") from exc
                if not _all_finite(values):
                    raise ParseError(str(path), line_no, "non-finite component")
                vec = np.array(values, dtype=float)
                if dim is None:
                    dim = vec.size
                elif vec.size != dim:
                    raise ParseError(str(path), line_no,
                                     f"expected {dim} components, got {vec.size}")
                vectors[parts[0]] = vec
        if not vectors:
            raise EmptyInputError(f"{path}: no vectors")
        return cls(vectors)

    def embed(self, text: str) -> np.ndarray:
        """Mean of the rows of the text's lower-cased `_TOKEN` tokens.

        ASCII text is lower-cased before one `findall`. This is exact: on
        ASCII, `lower()` keeps each character's offset and word class, so
        it finds the same tokens. Elsewhere it need not ("İ" lower-cases to
        two characters, the second no word character), so each token is
        lower-cased after matching.
        """
        if text.isascii():
            tokens = _TOKEN.findall(text.lower())
        else:
            tokens = [m.group(0).lower() for m in _TOKEN.finditer(text)]
        vectors = self.vectors
        rows = [vectors[tok] for tok in tokens if tok in vectors]
        if rows:
            return np.mean(rows, axis=0)
        return np.zeros(self.dim)


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CacheProvider:
    """Serve sentence embeddings precomputed by an external encoder.

    The cache is JSONL with {"sha256", "text", "vector", "provider_id"}
    records, keyed by the SHA-256 of the exact text. A missing entry is a
    hard error naming the hash — partial caches would silently mix
    embedding spaces otherwise.
    """

    def __init__(self, path: str | Path):
        self.path = str(path)
        self.entries: dict[str, np.ndarray] = {}
        provider_ids: set[str] = set()
        dims: set[int] = set()
        for line_no, raw in read_jsonl(path):
            try:
                digest = str(raw["sha256"])
                values = [float(x) for x in
                          parse_array(raw["vector"], "vector", self.path, line_no)]
                provider_ids.add(str(raw["provider_id"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(self.path, line_no, f"invalid cache record: {exc}") from exc
            if not values:
                raise ParseError(self.path, line_no, "empty vector")
            if not _all_finite(values):
                raise ParseError(self.path, line_no, "non-finite component")
            vec = np.array(values, dtype=float)
            if "text" in raw and text_sha256(str(raw["text"])) != digest:
                raise ParseError(self.path, line_no, "sha256 does not match text")
            dims.add(vec.size)
            self.entries[digest] = vec
        if not self.entries:
            raise EmptyInputError(f"{path}: empty embedding cache")
        if len(provider_ids) != 1:
            raise ParseError(self.path, 0,
                             f"mixed provider_ids {sorted(provider_ids)} in one cache")
        if len(dims) != 1:
            raise ParseError(self.path, 0, f"mixed dimensions {sorted(dims)} in one cache")
        self.provider_id = provider_ids.pop()
        self.dim = dims.pop()

    def embed(self, text: str) -> np.ndarray:
        digest = text_sha256(text)
        vec = self.entries.get(digest)
        if vec is None:
            raise CacheMissError(
                f"{self.path}: no cached embedding for sha256 {digest}"
            )
        return vec


def write_cache(path: str | Path, texts: Iterable[str], provider: Provider) -> int:
    """Embed texts with `provider` and persist them in cache format."""
    records: dict[str, dict] = {}
    for text in texts:
        digest = text_sha256(text)
        if digest not in records:
            records[digest] = {
                "sha256": digest,
                "text": text,
                "vector": [float(x) for x in provider.embed(text)],
                "provider_id": provider.provider_id,
            }
    write_jsonl(path, records.values())
    return len(records)


@dataclass(frozen=True)
class EvidenceSet:
    entity: CandidateEntity
    scores: tuple[float, ...]  # one per entity.sentence_keys entry

    def __post_init__(self):
        if len(self.entity.sentence_keys) != len(self.scores):
            raise ValueError("scores must parallel the entity's sentence_keys")


def build_evidence(pool: CandidatePool, docset: DocumentSet, question_text: str,
                   provider: Provider) -> list[EvidenceSet]:
    """Score each candidate's evidence sentences.

    Each distinct sentence is embedded and scored once, then shared across
    all candidates mentioned in it. A sentence's score is its cosine
    similarity to the question, clamped to [-1, 1], and 0 when either
    vector has zero norm.
    """
    sentences = {doc.doc_id: doc.sentences for doc in docset.documents}
    q_vec = provider.embed(question_text)
    # sqrt(v.dot(v)) is what np.linalg.norm computes for a real 1-d array.
    q_norm = math.sqrt(q_vec.dot(q_vec))
    score_memo: dict[tuple[str, int], float] = {}

    out: list[EvidenceSet] = []
    for candidate in pool.candidates:
        keys = candidate.sentence_keys
        for key in keys:
            if key not in score_memo:
                doc_id, index = key
                vec = provider.embed(sentences[doc_id][index])
                norm = math.sqrt(vec.dot(vec))
                if q_norm == 0.0 or norm == 0.0:
                    score_memo[key] = 0.0
                else:
                    value = float(np.dot(q_vec, vec) / (q_norm * norm))
                    score_memo[key] = max(-1.0, min(1.0, value))
        out.append(EvidenceSet(entity=candidate,
                               scores=tuple(score_memo[key] for key in keys)))
    return out


def aggregate(evidence: EvidenceSet, mode: str,
              avgmax_denominator: str = "containing_docs",
              n_docs: int | None = None) -> float:
    """Fold per-sentence similarities into one semantic score in [-1, 1].

    avg averages over all evidence sentences; max takes the single best;
    avg_max takes the best sentence per document, then averages — by
    default over the documents actually containing the entity, optionally
    (avgmax_denominator="all_docs") over all n_docs retrieved documents.
    """
    if not evidence.scores:
        raise ValueError(
            f"empty evidence for {evidence.entity.canonical_surface!r}"
        )
    if mode == "avg":
        value = float(np.mean(evidence.scores))
    elif mode == "max":
        value = float(np.max(evidence.scores))
    elif mode == "avg_max":
        per_doc: dict[str, float] = {}
        for (doc_id, _index), score in zip(evidence.entity.sentence_keys, evidence.scores):
            if doc_id not in per_doc or score > per_doc[doc_id]:
                per_doc[doc_id] = score
        total = float(sum(per_doc.values()))
        if avgmax_denominator == "containing_docs":
            value = total / len(per_doc)
        elif avgmax_denominator == "all_docs":
            if n_docs is None or n_docs <= 0:
                raise ValueError("all_docs denominator requires n_docs > 0")
            value = total / n_docs
        else:
            raise ValueError(f"unknown avgmax_denominator {avgmax_denominator!r}")
    else:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    # Guard against float drift at the interval ends.
    return max(-1.0, min(1.0, value))
