"""Sentence embedding, question-sentence similarity and score aggregation.

Each candidate entity is backed by the set of sentences mentioning it;
the semantic score of the candidate is an aggregation (average, per-doc
max then average, or global max) of the cosine similarities between the
question embedding and those sentence embeddings.
"""

from __future__ import annotations

import hashlib
import math
import sys
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .corpus import (_APOSTROPHES, WORD, DocumentSet, ascii_lower_words, read_field,
                     read_jsonl)
from .entities import CandidateEntity, CandidatePool
from .errors import CacheMissError, EmptyInputError, ParseError

AGGREGATION_MODES = ("avg", "avg_max", "max")


class Provider(Protocol):
    """Maps a text to a 1-d float vector of length `dim`; every vector of
    one provider lives in one embedding space."""

    provider_id: str
    dim: int

    def embed(self, text: str) -> np.ndarray: ...


_SMALLEST, _LARGEST = sys.float_info.min, sys.float_info.max


def _magnitude_fault(values: list[float]) -> str | None:
    """Why `build_evidence` could not score the vector `values`, or None.

    Its squared norm, taken as `build_evidence` takes it, must be finite,
    or the cosine is NaN and passes the [-1, 1] clamp as 1.0, the best
    score; and, for a nonzero vector, at least the smallest normal float,
    or the cosine loses its sign or its precision. Word vectors that pass
    also average without overflow. `math.hypot` gives the norm to within
    an ulp and never overflows, so a norm in [1e-153, 1e153] settles it;
    only other norms, the zero vector's aside, need the squared norm.
    """
    norm = math.hypot(*values)
    if norm == 0.0 or 1e-153 <= norm <= 1e153:
        return None
    vec = np.array(values, dtype=float)
    with np.errstate(over="ignore"):
        squared = vec.dot(vec)
    if _SMALLEST <= squared <= _LARGEST:
        return None
    if not np.isfinite(vec).all():
        return "non-finite component"
    if squared > _LARGEST:
        return "squared norm overflows"
    return "squared norm of a nonzero vector underflows"


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
                fault = _magnitude_fault(values)
                if fault:
                    raise ParseError(str(path), line_no, fault)
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
        """Mean of the rows of the text's lower-cased `WORD` tokens, found
        with curly apostrophes straightened, so "it’s" is the token "it's".

        ASCII text takes `ascii_lower_words`, which lower-cases before
        matching. This is exact: on ASCII, `lower()` keeps each character's
        offset and word class, so it finds the same tokens. Elsewhere it
        need not ("İ" lower-cases to two characters, the second no word
        character), so each token is lower-cased after matching.
        """
        if text.isascii():
            tokens = ascii_lower_words(text)
        else:
            tokens = [m.group(0).lower()
                      for m in WORD.finditer(_APOSTROPHES.sub("'", text))]
        vectors = self.vectors
        rows = [vectors[tok] for tok in tokens if tok in vectors]
        if rows:
            # What np.mean(rows, axis=0) computes, without its wrapper.
            return np.add.reduce(rows, axis=0) / len(rows)
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
        first = None  # (line, provider_id, dimension) of the first record
        for line_no, raw in read_jsonl(path):
            digest = read_field(raw, "sha256", "string", self.path, line_no)
            values = read_field(raw, "vector", ["number"], self.path, line_no)
            provider_id = read_field(raw, "provider_id", "string", self.path, line_no)
            if not values:
                raise ParseError(self.path, line_no, "empty vector")
            fault = _magnitude_fault(values)
            if fault:
                raise ParseError(self.path, line_no, fault)
            vec = np.array(values, dtype=float)
            text = read_field(raw, "text", "string", self.path, line_no, default=None)
            if text is not None and text_sha256(text) != digest:
                raise ParseError(self.path, line_no, "sha256 does not match text")
            if first is None:
                first = (line_no, provider_id, vec.size)
            elif provider_id != first[1]:
                raise ParseError(self.path, line_no, f"mixed provider_ids in one cache: "
                                 f"{provider_id!r} here but {first[1]!r} at line {first[0]}")
            elif vec.size != first[2]:
                raise ParseError(self.path, line_no, f"mixed dimensions in one cache: "
                                 f"{vec.size} here but {first[2]} at line {first[0]}")
            kept = self.entries.setdefault(digest, vec)
            if kept is not vec and kept.tobytes() != vec.tobytes():
                raise ParseError(self.path, line_no, f"sha256 {digest} has another vector"
                                 f" here than at line {self._first_line(digest)}")
        if first is None:
            raise EmptyInputError(f"{path}: empty embedding cache")
        _line, self.provider_id, self.dim = first

    def _first_line(self, digest: str) -> int:
        """The number of the first line of the cache with this digest."""
        with closing(read_jsonl(self.path)) as records:
            return next(line_no for line_no, raw in records if raw["sha256"] == digest)

    def embed(self, text: str) -> np.ndarray:
        digest = text_sha256(text)
        vec = self.entries.get(digest)
        if vec is None:
            raise CacheMissError(
                f"{self.path}: no cached embedding for sha256 {digest}"
            )
        return vec


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
    embed = provider.embed
    q_vec = embed(question_text)
    q_dot = q_vec.dot
    # sqrt(v.dot(v)) is what np.linalg.norm computes for a real 1-d array.
    q_norm = math.sqrt(q_vec.dot(q_vec))
    score_memo: dict[tuple[str, int], float] = {}

    out: list[EvidenceSet] = []
    for candidate in pool.candidates:
        keys = candidate.sentence_keys
        for key in keys:
            if key not in score_memo:
                doc_id, index = key
                vec = embed(sentences[doc_id][index])
                norm = math.sqrt(vec.dot(vec))
                if q_norm == 0.0 or norm == 0.0:
                    score_memo[key] = 0.0
                else:
                    # numpy's division: where q_norm * norm underflows to
                    # 0.0, Python's would raise ZeroDivisionError.
                    value = float(q_dot(vec) / (q_norm * norm))
                    score_memo[key] = max(-1.0, min(1.0, value))
        out.append(EvidenceSet(entity=candidate,
                               scores=tuple([score_memo[key] for key in keys])))
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
    # The reductions np.mean and np.max run, without their wrappers; the
    # builtin max is not one: it keeps -0.0 on (-0.0, 0.0), np.max gives 0.0.
    if mode == "avg":
        value = float(np.add.reduce(evidence.scores)) / len(evidence.scores)
    elif mode == "max":
        value = float(np.maximum.reduce(evidence.scores))
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
