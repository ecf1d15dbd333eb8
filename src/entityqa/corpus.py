"""Question/document data model, ingestion and text preparation.

Covers the front end of the pipeline: loading question and document files,
normalising raw text (accent folding, contraction expansion), splitting
documents into sentences, and building per-question document sets by
stratified sampling over retrieval ranks. It also holds the one reader
and the one atomic writer of each file format the package uses: JSON,
JSON lines and plain text.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import tempfile
import unicodedata
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

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
    source_set: str = "custom"

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError(f"question {self.id!r} has empty text")
        if self.source_set not in SOURCE_SETS:
            raise ValueError(f"unknown source set {self.source_set!r}")


@dataclass(frozen=True)
class Document:
    question_id: str
    original_rank: int
    text: str
    sentences: tuple[str, ...] = ()  # in order: a sentence's index is its position

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
    raw = read_json(path)
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

def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a JSON-lines
    file; a line that is not a JSON object is a ParseError naming it."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(path), line_no, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(raw, dict):
                raise ParseError(str(path), line_no, "expected a JSON object")
            yield line_no, raw


def read_json(path: str | Path) -> dict:
    """Read a file holding one JSON object; a syntax error or another kind
    of value is a ParseError naming the file and line."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(str(path), 1, "expected a JSON object")
    return raw


def load_questions(path: str | Path, source_set: str = "custom") -> list[Question]:
    """Load questions from a JSONL file, one object per line.

    Each record is {"id", "text", "set"}; a record's own "set" value
    overrides the source_set argument. Other keys, such as "gold_answers",
    are ignored: gold answers come from the qrels. Duplicate ids are
    rejected with the offending line number.
    """
    questions: list[Question] = []
    seen: dict[str, int] = {}
    for line_no, raw in read_jsonl(path):
        if "id" not in raw or "text" not in raw:
            raise ParseError(str(path), line_no, "record must have 'id' and 'text'")
        qid = str(raw["id"])
        if qid in seen:
            raise ParseError(str(path), line_no,
                             f"duplicate question id {qid!r} (first seen on line {seen[qid]})")
        seen[qid] = line_no
        try:
            questions.append(Question(
                id=qid,
                text=str(raw["text"]),
                source_set=str(raw.get("set", source_set)),
            ))
        except ValueError as exc:
            raise ParseError(str(path), line_no, str(exc)) from exc
    if not questions:
        raise EmptyInputError(f"no questions in {path}")
    return questions


def load_documents(path: str | Path) -> dict[str, list[Document]]:
    """Load ranked documents from JSONL ({"question_id", "rank", "text"}).

    Returns per-question lists ordered by original retrieval rank. A
    second record of one question and rank is rejected with its line.
    """
    by_question: dict[str, list[Document]] = {}
    seen: dict[tuple[str, int], int] = {}
    for line_no, raw in read_jsonl(path):
        try:
            doc = Document(
                question_id=str(raw["question_id"]),
                original_rank=int(raw["rank"]),
                text=str(raw["text"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(str(path), line_no, f"invalid document record: {exc}") from exc
        key = (doc.question_id, doc.original_rank)
        if key in seen:
            raise ParseError(str(path), line_no,
                             f"duplicate document: question {doc.question_id!r} rank "
                             f"{doc.original_rank} (first seen on line {seen[key]})")
        seen[key] = line_no
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


def write_jsonl(path: str | Path, records: Iterable[Mapping]) -> None:
    """One JSON line per record, non-ASCII kept as is. The whole text is
    built first, so a record that fails to serialise leaves the old file."""
    atomic_write_text(path, "".join(json.dumps(record, ensure_ascii=False) + "\n"
                                    for record in records))


def write_json(path: str | Path, payload) -> None:
    """Indented JSON with sorted keys and a final newline, written atomically."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_documents(path: str | Path, docsets: Iterable[DocumentSet]) -> None:
    write_jsonl(path, ({"question_id": doc.question_id,
                        "rank": doc.original_rank,
                        "text": doc.text}
                       for ds in docsets for doc in ds.documents))


# ---------------------------------------------------------------------------
# Text preprocessing
# ---------------------------------------------------------------------------

# Curly single quotes normalised to ' so contraction keys match real text.
_APOSTROPHES = re.compile("[‘’‚‛]")

_contraction_cache: dict[str, str] | None = None
# Contraction rules for the default table, built on first use.
_default_rules: tuple[re.Pattern, dict[str, str], bool] | None = None


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


def _contraction_rules(table: Mapping[str, str]
                       ) -> tuple[re.Pattern, dict[str, str], bool]:
    """The table's pattern, its lower-cased lookup, and whether every key
    contains an apostrophe (then text without one has nothing to expand:
    no other character matches ' under re.IGNORECASE)."""
    # Longest keys first so can't've wins over can't.
    keys = sorted(table, key=len, reverse=True)
    pattern = r"\b(?:" + "|".join(re.escape(k) for k in keys) + r")\b"
    return (re.compile(pattern, re.IGNORECASE),
            {k.lower(): v for k, v in table.items()},
            all("'" in k for k in keys))


def preprocess_text(raw: str) -> str:
    """Accent-fold and expand contractions; idempotent on its own output."""
    global _default_rules
    text = fold_accents(_APOSTROPHES.sub("'", raw))
    if _default_rules is None:
        _default_rules = _contraction_rules(default_contractions())
    pattern, lowered, keys_need_apostrophe = _default_rules
    if keys_need_apostrophe and "'" not in text:
        return text

    def expand(match: re.Match) -> str:
        found = match.group(0)
        expansion = lowered[found.lower()]
        if found[0].isupper():
            return expansion[0].upper() + expansion[1:]
        return expansion

    return pattern.sub(expand, text)


_OUTER_PUNCT = "\"'`.,;:!?()[]{}<>-_/\\|~*&^%$#@+= "


def canonicalize(surface: str) -> str:
    r"""Canonical form shared by entity identity and gold-answer matching:
    lowercase, accent-folded, whitespace-collapsed, outer punctuation
    stripped. Idempotent.

    The result is its tokens joined by single spaces, with no whitespace
    at either end: str.split() splits on exactly the characters that
    `\s` matches, and the final strip set holds the space.
    """
    if surface.isascii():
        # The curly apostrophes are not ASCII, and the fold leaves ASCII as it is.
        folded = surface.lower()
    else:
        folded = fold_accents(_APOSTROPHES.sub("'", surface)).lower()
    return " ".join(folded.split()).strip(_OUTER_PUNCT)


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


# `[.!?][.!?]*` matches what `[.!?]+` does, but `re` only skips ahead to
# a pattern's first character in C when the pattern opens with a bare
# character class, not with a repeat.
_BOUNDARY = re.compile(r"([.!?][.!?]*)(\s+)(?=[A-Z0-9\"'(])")
_RUN = re.compile(r"[\w.]*")


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> list[str]:
    r"""Deterministic rule-based sentence splitter.

    Splits after sentence-final punctuation followed by whitespace and an
    upper-case, digit, quote or parenthesis start, except when the final
    token before a period is a known abbreviation. Text without terminators
    is one sentence; sentences are stripped and empty ones dropped.

    That token is the `[\w.]*` run which ends at the terminator, or one
    newline before it; it is matched forward in the reversed text.
    """
    if abbreviations is None:
        abbreviations = default_abbreviations()
    pieces: list[str] = []
    start = 0
    n, rev = len(text), ""
    for match in _BOUNDARY.finditer(text):
        if "." in match.group(1):
            stop = match.start(1)
            if stop > start and text[stop - 1] == "\n":
                stop -= 1
            rev = rev or text[::-1]
            before = text[n - _RUN.match(rev, n - stop, n - start).end():stop]
            if before and before.lower().rstrip(".") in abbreviations:
                continue
        pieces.append(text[start:match.end(1)])
        start = match.end(2)
    pieces.append(text[start:])
    return [piece for piece in map(str.strip, pieces) if piece]


def segment_sentences(doc: Document) -> Document:
    """Return a copy of the document with its sentences filled in."""
    return Document(doc.question_id, doc.original_rank, doc.text,
                    tuple(split_sentences(doc.text)))


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
