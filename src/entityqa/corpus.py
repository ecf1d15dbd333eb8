"""Question/document data model, ingestion and text preparation.

Covers the front end of the pipeline: loading question and document files,
normalising raw text (accent folding, contraction expansion), splitting
documents into sentences, and building per-question document sets by
stratified sampling over retrieval ranks.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import tempfile
import unicodedata
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .errors import EmptyInputError, ParseError, UnderfullBandError

SOURCE_SETS = ("CQ-W", "CQ-T", "custom")

# Retrieval-rank bands used by stratified sampling: top ranks, middle, tail.
BAND_BOUNDS = ((1, 10), (11, 25), (26, 50))

# Named document collections: percentages drawn from each band.
COLLECTION_SPECS = {
    "Top10": (100, 0, 0),
    "Strata-1": (60, 30, 10),
    "Strata-2": (50, 40, 10),
    "Strata-3": (50, 30, 20),
    "Strata-4": (40, 40, 20),
    "Strata-5": (40, 30, 30),
}


@dataclass(frozen=True)
class Question:
    id: str
    text: str
    gold_answers: tuple[str, ...]
    source_set: str = "custom"

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError(f"question {self.id!r} has empty text")
        if self.source_set not in SOURCE_SETS:
            raise ValueError(f"unknown source set {self.source_set!r}")


@dataclass(frozen=True)
class Sentence:
    doc_ref: str
    index: int
    text: str


@dataclass(frozen=True)
class Document:
    question_id: str
    original_rank: int
    text: str
    sentences: tuple[Sentence, ...] = ()

    def __post_init__(self):
        if self.original_rank < 1:
            raise ValueError("original_rank must be >= 1")

    @property
    def doc_id(self) -> str:
        return f"{self.question_id}#{self.original_rank}"


@dataclass(frozen=True)
class DocumentSet:
    question_id: str
    documents: tuple[Document, ...]

    def __post_init__(self):
        ids = [d.doc_id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate documents in set for {self.question_id}")

    @property
    def k(self) -> int:
        return len(self.documents)


@dataclass(frozen=True)
class StrataSpec:
    name: str
    x1: int
    x2: int
    x3: int
    sample_size: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.x1 + self.x2 + self.x3 != 100:
            raise ValueError("band percentages must sum to 100")
        if self.sample_size < 1:
            raise ValueError("sample_size must be positive")

    def band_counts(self) -> tuple[int, int, int]:
        """Documents to draw per band: round half away from zero, then fix
        up the largest band so the counts sum to sample_size."""
        raw = [x * self.sample_size / 100.0 for x in (self.x1, self.x2, self.x3)]
        counts = [int(r) + (1 if r - int(r) >= 0.5 else 0) for r in raw]
        drift = self.sample_size - sum(counts)
        if drift:
            largest = max(range(3), key=lambda i: (raw[i], -i))
            counts[largest] += drift
        return tuple(counts)


def collection_spec(name: str, sample_size: int = 10, seed: int = 0) -> StrataSpec:
    """Build a StrataSpec for one of the named document collections."""
    if name not in COLLECTION_SPECS:
        raise KeyError(f"unknown collection {name!r}; known: {sorted(COLLECTION_SPECS)}")
    x1, x2, x3 = COLLECTION_SPECS[name]
    return StrataSpec(name=name, x1=x1, x2=x2, x3=x3, sample_size=sample_size, seed=seed)


def load_strata_spec(path: str | Path) -> StrataSpec:
    """Read a strata spec file: {"name", "x1", "x2", "x3", "size", "seed"}."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        return StrataSpec(
            name=raw["name"],
            x1=int(raw["x1"]),
            x2=int(raw["x2"]),
            x3=int(raw["x3"]),
            sample_size=int(raw.get("size", 10)),
            seed=int(raw.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(str(path), 1, f"invalid strata spec: {exc}") from exc


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def _iter_jsonl(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                yield line_no, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(path), line_no, f"invalid JSON: {exc.msg}") from exc


def load_questions(path: str | Path, source_set: str = "custom") -> list[Question]:
    """Load questions from a JSONL file, one object per line.

    Each record is {"id", "text", "gold_answers": [..], "set"}; a record's
    own "set" value overrides the source_set argument. Duplicate ids and
    records whose gold answers normalise to nothing are rejected with the
    offending line number.
    """
    questions: list[Question] = []
    seen: dict[str, int] = {}
    for line_no, raw in _iter_jsonl(path):
        if not isinstance(raw, dict) or "id" not in raw or "text" not in raw:
            raise ParseError(str(path), line_no, "record must have 'id' and 'text'")
        qid = str(raw["id"])
        if qid in seen:
            raise ParseError(str(path), line_no,
                             f"duplicate question id {qid!r} (first seen on line {seen[qid]})")
        seen[qid] = line_no
        gold = raw.get("gold_answers", [])
        if not isinstance(gold, list) or not gold:
            raise ParseError(str(path), line_no, "gold_answers must be a non-empty list")
        if any(not canonicalize(str(g)) for g in gold):
            raise ParseError(str(path), line_no, "gold answer empty after normalization")
        try:
            questions.append(Question(
                id=qid,
                text=str(raw["text"]),
                gold_answers=tuple(str(g) for g in gold),
                source_set=str(raw.get("set", source_set)),
            ))
        except ValueError as exc:
            raise ParseError(str(path), line_no, str(exc)) from exc
    if not questions:
        raise EmptyInputError(f"no questions in {path}")
    return questions


def load_documents(path: str | Path) -> dict[str, list[Document]]:
    """Load ranked documents from JSONL ({"question_id", "rank", "text"}).

    Returns per-question lists ordered by original retrieval rank.
    """
    by_question: dict[str, list[Document]] = {}
    for line_no, raw in _iter_jsonl(path):
        try:
            doc = Document(
                question_id=str(raw["question_id"]),
                original_rank=int(raw["rank"]),
                text=str(raw["text"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(str(path), line_no, f"invalid document record: {exc}") from exc
        by_question.setdefault(doc.question_id, []).append(doc)
    for docs in by_question.values():
        docs.sort(key=lambda d: d.original_rank)
    return by_question


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file + rename so readers never see partial output.

    The text is written as given, with no newline translation, so a CSV
    keeps its CRLF line terminators.
    """
    _atomic_write(path, text, "w", encoding="utf-8", newline="")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Binary counterpart of atomic_write_text."""
    _atomic_write(path, data, "wb")


def _atomic_write(path: str | Path, data: str | bytes, mode: str,
                  **open_args) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **open_args) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_documents(path: str | Path, docsets: Iterable[DocumentSet]) -> None:
    atomic_write_text(path, "".join(json.dumps({
        "question_id": doc.question_id,
        "rank": doc.original_rank,
        "text": doc.text,
    }, ensure_ascii=False) + "\n" for ds in docsets for doc in ds.documents))


# ---------------------------------------------------------------------------
# Text preprocessing
# ---------------------------------------------------------------------------

# Curly single quotes normalised to ' so contraction keys match real text.
_APOSTROPHES = re.compile("[‘’‚‛]")

_contraction_cache: dict[str, str] | None = None
# Compiled pattern and lower-cased table for the default contractions.
_default_rules: tuple[re.Pattern, dict[str, str]] | None = None


def default_contractions() -> Mapping[str, str]:
    global _contraction_cache
    if _contraction_cache is None:
        data = resources.files("entityqa.data").joinpath("contractions.json")
        _contraction_cache = json.loads(data.read_text(encoding="utf-8"))
    return _contraction_cache


def fold_accents(text: str) -> str:
    """Replace accented characters by their unaccented equivalents
    (canonical decomposition, combining marks dropped)."""
    if text.isascii():
        # NFD leaves ASCII as it is and no ASCII character is a mark.
        return text
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")


def _contraction_rules(table: Mapping[str, str]) -> tuple[re.Pattern, dict[str, str]]:
    # Longest keys first so can't've wins over can't.
    keys = sorted(table, key=len, reverse=True)
    pattern = r"\b(?:" + "|".join(re.escape(k) for k in keys) + r")\b"
    return re.compile(pattern, re.IGNORECASE), {k.lower(): v for k, v in table.items()}


def preprocess_text(raw: str, contraction_table: Mapping[str, str] | None = None) -> str:
    """Accent-fold and expand contractions; idempotent on its own output."""
    global _default_rules
    text = fold_accents(_APOSTROPHES.sub("'", raw))
    if contraction_table is None:
        if _default_rules is None:
            _default_rules = _contraction_rules(default_contractions())
        pattern, lowered = _default_rules
    else:
        pattern, lowered = _contraction_rules(contraction_table)

    def expand(match: re.Match) -> str:
        found = match.group(0)
        expansion = lowered[found.lower()]
        if found[0].isupper():
            return expansion[0].upper() + expansion[1:]
        return expansion

    return pattern.sub(expand, text)


_WS = re.compile(r"\s+")
_OUTER_PUNCT = "\"'`.,;:!?()[]{}<>-_/\\|~*&^%$#@+="


def canonicalize(surface: str) -> str:
    """Canonical form shared by entity identity and gold-answer matching:
    lowercase, accent-folded, whitespace-collapsed, outer punctuation
    stripped. Idempotent."""
    folded = fold_accents(_APOSTROPHES.sub("'", surface)).lower()
    collapsed = _WS.sub(" ", folded).strip()
    return collapsed.strip(_OUTER_PUNCT + " ")


# ---------------------------------------------------------------------------
# Sentence segmentation
# ---------------------------------------------------------------------------

_abbrev_cache: frozenset[str] | None = None


def default_abbreviations() -> frozenset[str]:
    global _abbrev_cache
    if _abbrev_cache is None:
        data = resources.files("entityqa.data").joinpath("abbreviations.txt")
        entries = set()
        for line in data.read_text(encoding="utf-8").splitlines():
            line = line.strip().lower()
            if line and not line.startswith("#"):
                entries.add(line)
        _abbrev_cache = frozenset(entries)
    return _abbrev_cache


_BOUNDARY = re.compile(r"([.!?]+)(\s+)(?=[A-Z0-9\"'(])")


def _word_before(text: str, start: int, end: int) -> str:
    r"""The run of word characters and periods that ends `text[start:end]`,
    or that ends it but for one final newline; empty if there is none.

    A character is in the run when `[\w.]` matches it: str.isalnum() is
    exactly the alphanumeric part of `\w`.
    """
    if end > start and text[end - 1] == "\n":
        end -= 1
    begin = end
    while begin > start and (text[begin - 1].isalnum() or text[begin - 1] in "._"):
        begin -= 1
    return text[begin:end]


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> list[str]:
    """Deterministic rule-based sentence splitter.

    Splits after sentence-final punctuation followed by whitespace and an
    upper-case (or digit) start, except when the final token before a period
    is a known abbreviation. Text without terminators is one sentence.
    """
    if abbreviations is None:
        abbreviations = default_abbreviations()
    if not text.strip():
        return []
    pieces: list[str] = []
    start = 0
    for match in _BOUNDARY.finditer(text):
        end = match.end(1)
        if "." in match.group(1):
            before = _word_before(text, start, match.start(1))
            if before and before.lower().rstrip(".") in abbreviations:
                continue
        pieces.append(text[start:end])
        start = match.end(2)
    pieces.append(text[start:])
    return [p.strip() for p in pieces if p.strip()]


Segmenter = Callable[[str], list[str]]


def segment_sentences(doc: Document, segmenter: Segmenter | None = None) -> Document:
    """Return a copy of the document with its sentences filled in."""
    segmenter = segmenter or split_sentences
    doc_id = doc.doc_id
    sentences = tuple(
        Sentence(doc_ref=doc_id, index=i, text=s)
        for i, s in enumerate(segmenter(doc.text))
    )
    return replace(doc, sentences=sentences)


# ---------------------------------------------------------------------------
# Stratified sampling
# ---------------------------------------------------------------------------

def derive_question_seed(global_seed: int, question_id: str) -> int:
    """Stable per-question seed derived from a global seed and the id."""
    digest = hashlib.sha256(f"{global_seed}:{question_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_strata(ranked_docs: Sequence[Document], spec: StrataSpec) -> DocumentSet:
    """Draw a document set from ranked documents by stratified sampling.

    Draws without replacement, uniformly within each rank band, seeded by
    spec.seed; the same seed always yields the same set. Selected documents
    keep their original ranks and are returned in rank order.
    """
    if not ranked_docs:
        raise ValueError("ranked_docs must be non-empty")
    question_id = ranked_docs[0].question_id
    rng = random.Random(spec.seed)
    counts = spec.band_counts()
    chosen: list[Document] = []
    for (lo, hi), count in zip(BAND_BOUNDS, counts):
        if count == 0:
            continue
        band = sorted(
            (d for d in ranked_docs if lo <= d.original_rank <= hi),
            key=lambda d: d.original_rank,
        )
        if len(band) < count:
            raise UnderfullBandError(
                f"band {lo}-{hi} for question {question_id!r} has "
                f"{len(band)} documents, need {count}"
            )
        chosen.extend(rng.sample(band, count))
    chosen.sort(key=lambda d: d.original_rank)
    return DocumentSet(question_id=question_id, documents=tuple(chosen))
