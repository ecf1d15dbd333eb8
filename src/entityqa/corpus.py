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
import reprlib
import tempfile
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import compress, count
from operator import add
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


def collection_spec(name: str, seed: int = 0) -> StrataSpec:
    """Build a StrataSpec for one of the named document collections."""
    if name not in COLLECTION_SPECS:
        raise KeyError(f"unknown collection {name!r}; known: {sorted(COLLECTION_SPECS)}")
    x1, x2, x3 = COLLECTION_SPECS[name]
    return StrataSpec(name=name, x1=x1, x2=x2, x3=x3, seed=seed)


def load_strata_spec(path: str | Path) -> StrataSpec:
    """Read a strata spec file: {"name", "x1", "x2", "x3", "size", "seed"}."""
    raw = read_json(path)
    try:
        return StrataSpec(
            read_field(raw, "name", "string", path, 1),
            *(read_field(raw, x, "integer", path, 1) for x in ("x1", "x2", "x3")),
            sample_size=read_field(raw, "size", "integer", path, 1, default=10),
            seed=read_field(raw, "seed", "integer", path, 1, default=0),
        )
    except ValueError as exc:
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
            except ValueError as exc:  # also an integer too long for int()
                raise ParseError(str(path), line_no,
                                 f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
            if not isinstance(raw, dict):
                raise ParseError(str(path), line_no, "expected a JSON object")
            yield line_no, raw


def read_json(path: str | Path) -> dict:
    """Read a file holding one JSON object; a syntax error or another kind
    of value is a ParseError naming the file and line."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # also an integer too long for int(): no line
        raise ParseError(str(path), getattr(exc, "lineno", 0),
                         f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
    if not isinstance(raw, dict):
        raise ParseError(str(path), 1, "expected a JSON object")
    return raw


# Each kind of JSON field: the phrase its errors use, and the JSON types it takes as they are.
_KINDS = {"string": ("a string", {str}), "id": ("a string or an integer", {str}),
          "integer": ("an integer", {int}), "number": ("a number", {float}),
          "object": ("a JSON object", {dict}), "array": ("a JSON array", {list})}
_MISSING = object()


def read_field(raw, key, kind: str | list, path: str | Path, line_no: int,
               question_id: str | None = None, *, name: str | None = None,
               record: str = "record", default=_MISSING):
    """Field `key` of the JSON object (or array) `raw`, read as `kind`: a key
    of `_KINDS`, or `[k]` for an array of `k`. An id reads an integer as its
    decimal string, a number an integer as a float, and an integer a whole
    float or a string that `int()` accepts; none reads a bool. A missing key
    reads as `default`, if given; it, or a value of another kind, is a
    ParseError `file:line: [question 'q': ]<name> must be <kind>, not
    <value>`, `name` being the key unless given and the value's repr
    abbreviated by `reprlib`."""
    try:
        value = raw[key]
    except KeyError:
        if default is not _MISSING:
            return default
        reason = f"{record} without key {key!r}"
    else:
        if kind.__class__ is str and value.__class__ in _KINDS[kind][1]:
            return value
        name = key if name is None else name
        if kind.__class__ is list:
            if value.__class__ is not list:
                reason = f"{name} must be a JSON array, not {reprlib.repr(value)}"
            elif _KINDS[kind[0]][1].issuperset(map(type, value)):
                return value
            else:  # a loop: a comprehension would make this function's locals cells
                read = []
                for i in range(len(value)):
                    read.append(read_field(value, i, kind[0], path, line_no, question_id,
                                           name=f"element {i} of {name}"))
                return read
        else:
            try:
                if type(value) is int and kind in ("id", "number"):
                    return str(value) if kind == "id" else float(value)
                if kind == "integer" and type(value) is not bool and not (
                        type(value) is float and not value.is_integer()):
                    return int(value)
            except (TypeError, ValueError, OverflowError):
                pass
            reason = f"{name} must be {_KINDS[kind][0]}, not {reprlib.repr(value)}"
    about = "" if question_id is None else f"question {question_id!r}: "
    raise ParseError(str(path), line_no, about + reason)


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
        qid = read_field(raw, "id", "id", path, line_no, name="question id")
        if qid in seen:
            raise ParseError(str(path), line_no,
                             f"duplicate question id {qid!r} (first seen on line {seen[qid]})")
        seen[qid] = line_no
        try:
            questions.append(Question(
                id=qid, text=read_field(raw, "text", "string", path, line_no, qid),
                source_set=read_field(raw, "set", "string", path, line_no, qid,
                                      default=source_set),
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
        qid = read_field(raw, "question_id", "id", path, line_no, name="question id")
        try:
            doc = Document(question_id=qid,
                           original_rank=read_field(raw, "rank", "integer", path, line_no, qid),
                           text=read_field(raw, "text", "string", path, line_no, qid))
        except ValueError as exc:
            raise ParseError(str(path), line_no, f"question {qid!r}: {exc}") from exc
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


@lru_cache(maxsize=1)
def default_contractions() -> Mapping[str, str]:
    data = resources.files("entityqa.data").joinpath("contractions.json")
    return json.loads(data.read_text(encoding="utf-8"))


def fold_accents(text: str) -> str:
    """Replace accented characters by their unaccented equivalents
    (canonical decomposition, combining marks dropped)."""
    if text.isascii():
        # NFD leaves ASCII as it is and no ASCII character is a mark.
        return text
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")


@lru_cache(maxsize=1)
def _contraction_rules() -> tuple[re.Pattern, dict[str, str]]:
    """The default table's pattern and its lower-cased lookup."""
    table = default_contractions()
    # Longest keys first so can't've wins over can't.
    keys = sorted(table, key=len, reverse=True)
    pattern = r"\b(?:" + "|".join(re.escape(k) for k in keys) + r")\b"
    return (re.compile(pattern, re.IGNORECASE),
            {k.lower(): v for k, v in table.items()})


def preprocess_text(raw: str) -> str:
    """Accent-fold and expand contractions; idempotent on its own output."""
    text = fold_accents(_APOSTROPHES.sub("'", raw))
    # Every default key holds an apostrophe, and no other character matches
    # ' under re.IGNORECASE: text without one has nothing to expand.
    if "'" not in text:
        return text
    pattern, lowered = _contraction_rules()

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

    Printable ASCII has no whitespace but the space, so where it holds no
    double space, split/join would drop only an outer space, which the
    strip drops too: that case skips the split.
    """
    if surface.isascii():
        # The curly apostrophes are not ASCII, and the fold leaves ASCII as it is.
        folded = surface.lower()
        if folded.isprintable() and "  " not in folded:
            return folded.strip(_OUTER_PUNCT)
    else:
        folded = fold_accents(_APOSTROPHES.sub("'", surface)).lower()
    return " ".join(folded.split()).strip(_OUTER_PUNCT)


# A gazetteer or word-vector token: word characters, at most one inner apostrophe.
WORD = re.compile(r"\w+(?:'\w+)?")

# Each byte of ASCII text: a word character lower-cased, any other a space.
_ASCII_WORD_BYTES = bytes(ord(ch.lower()) if ch.isascii() and WORD.fullmatch(ch) else 32
                          for ch in map(chr, range(256)))


def ascii_lower_words(text: str) -> list[str]:
    """`WORD.findall(text.lower())` for ASCII `text`. Without an apostrophe
    a token is a maximal run of word characters: a run that the table keeps."""
    if "'" in text:
        return WORD.findall(text.lower())
    return text.encode("ascii").translate(_ASCII_WORD_BYTES).decode("ascii").split()


# ---------------------------------------------------------------------------
# Sentence segmentation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def default_abbreviations() -> frozenset[str]:
    data = resources.files("entityqa.data").joinpath("abbreviations.txt")
    entries = set()
    for line in data.read_text(encoding="utf-8").splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            entries.add(line)
    return frozenset(entries)


# A boundary is a run of terminators, whitespace, and an upper-case,
# digit, quote or parenthesis start. The pattern opens with a bare
# character class, so `re` skips ahead to a terminator in C. Right after
# the first terminator, an optional flag group captures the whitespace
# where the abbreviation rule could hold: after a newline, or where the
# `[\w.]*` run before the terminators matches an entry under `(?i)`
# (`_splitter` says why every boundary the rule would join is flagged).
# Only flagged boundaries get the exact check; every other one splits.
_BOUNDARY = r"([.!?](?:(?:{flag})(?=[.!?]*(\s+)))?[.!?]*)\s+(?=[A-Z0-9\"'(])"
# The `[\w.]*` run that ends a piece, or ends one newline before its
# end, read forward in the reversed piece.
_RUN_BEFORE = re.compile(r"\n?([\w.]*)")


@lru_cache(maxsize=8)
def _splitter(abbreviations: frozenset[str]):
    r"""`re.split` by the boundary pattern, with the flag built for this set.

    The rule holds where the run, lower-cased and with trailing periods
    stripped, is an entry. Terminators right after a newline are always
    flagged. Elsewhere the run ends just before them, and so in a word
    character, since a boundary starts at the first of its terminators;
    a matching entry is non-empty, does not end in a period and equals
    `run.lower()`. `str.lower` maps each character to
    one, except "İ" to "i" + U+0307, and U+0307 is no word character;
    `(?i)` matches each other word character by its lower case, and "Σ"
    by "σ" and "ς" alike. So the entry, with each "i" + U+0307 written
    back as "İ", is as long as the run and matches it under `(?i)`, and
    `(?<![\w.])` pins the run's start. The flag may also fire where the
    rule does not hold, as for "DR", or "s" before "ſ"; the exact check
    settles those.
    """
    by_width: dict[int, list[str]] = {}
    for entry in abbreviations:
        if entry and not entry.endswith("."):
            word = entry.replace("i\u0307", "\u0130")
            by_width.setdefault(len(word), []).append(re.escape(word))
    flags = [rf"(?<=(?<![\w.])(?i:{'|'.join(sorted(words))})[.!?])"
             for _, words in sorted(by_width.items())]
    flags.append(r"(?<=\n.)")
    return re.compile(_BOUNDARY.format(flag="|".join(flags))).split


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> list[str]:
    r"""Deterministic rule-based sentence splitter.

    Splits after sentence-final punctuation followed by whitespace and an
    upper-case, digit, quote or parenthesis start, except when the final
    token before a period is a known abbreviation. Text without terminators
    is one sentence; sentences are stripped and empty ones dropped.

    That token is the `[\w.]*` run which ends at the terminator, or one
    newline before it. One `re.split` finds every boundary and flags those
    where the token could be an abbreviation; only at a flagged boundary
    is the token looked up, and where it is listed the pieces on either
    side are joined again with the whitespace between them.
    """
    abbreviations = (default_abbreviations() if abbreviations is None
                     else frozenset(abbreviations))
    parts = _splitter(abbreviations)(text)
    # parts: piece, terminators, flagged whitespace or None, ..., last piece
    pieces = list(map(add, parts[::3], parts[1::3]))
    pieces.append(parts[-1])
    for i in compress(count(), parts[2::3]):
        # Whitespace comes before every piece but the first, so a piece's
        # own run is the one the rule reads, whatever was joined before it.
        piece, terminators, gap = parts[3 * i:3 * i + 3]
        run = _RUN_BEFORE.match(piece[::-1])[1][::-1]
        if "." in terminators and run and run.lower().rstrip(".") in abbreviations:
            pieces[i + 1] = pieces[i] + gap + pieces[i + 1]
            pieces[i] = ""
    return list(filter(None, map(str.strip, pieces)))


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
