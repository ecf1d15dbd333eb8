"""Named-entity extraction, type filtering and candidate pooling.

Two interchangeable extraction backends are provided: ingestion of
externally produced annotation files (the production path, fed by any
tagger emitting the 18-tag inventory) and a gazetteer longest-match
extractor used as a self-contained baseline and in tests.
"""

from __future__ import annotations

import logging
from itertools import islice
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .corpus import (_APOSTROPHES, WORD, DocumentSet, ascii_lower_words, canonicalize,
                     read_field, read_jsonl)
from .errors import ParseError

ONTONOTES_TAGS = frozenset({
    "PERSON", "NORP", "FAC", "ORG", "GPE", "LOC", "PRODUCT", "EVENT",
    "WORK_OF_ART", "LAW", "LANGUAGE", "DATE", "TIME", "PERCENT", "MONEY",
    "QUANTITY", "ORDINAL", "CARDINAL",
})

DEFAULT_CANDIDATE_CAP = 100

log = logging.getLogger(__name__)


class EntityMention(NamedTuple):
    """One tagged span; its extractor has already checked tag and span."""
    surface: str
    tag: str
    doc_id: str
    sentence_index: int
    start: int
    end: int


class CandidateEntity(NamedTuple):
    canonical_surface: str
    df: int
    # The distinct (doc_id, sentence index) pairs of its mentions, sorted.
    sentence_keys: tuple[tuple[str, int], ...]


class CandidatePool(NamedTuple):
    candidates: tuple[CandidateEntity, ...]
    capped: bool


# ---------------------------------------------------------------------------
# Gazetteer backend
# ---------------------------------------------------------------------------

def _warn_of_entries_that_never_match(path: str | Path, line_of: dict[str, int]) -> None:
    """Log one WARNING with the number of the file's entries that can never
    match, and the first three as `file:line: surface`; `line_of` maps each
    surface to its first line, in file order.

    A sentence key is the canonical form of one `WORD` token, so an entry
    with a key token of another shape never matches, and nor does one whose
    canonical form is empty ("__"). Letters and digits between spaces make
    neither: only other surfaces are checked.
    """
    never = [surface for surface in line_of
             if not surface.replace(" ", "").isalnum()
             and (not (tokens := canonicalize(surface).split())
                  or any(not WORD.fullmatch(token) or canonicalize(token) != token
                         for token in tokens))]
    if never:
        log.warning("%d gazetteer entries can never match, since each has no key token, or "
                    "one that is not one word token in canonical form: %s%s", len(never),
                    "; ".join(f"{path}:{line_of[surface]}: {surface}" for surface in never[:3]),
                    "; ..." if len(never) > 3 else "")


class _KeyConflict(ValueError):
    """Two gazetteer surfaces with one canonical key and different tags."""

    def __init__(self, first: str, first_tag: str, second: str, second_tag: str):
        self.first, self.first_tag = first, first_tag
        self.second, self.second_tag = second, second_tag
        super().__init__(f"gazetteer surfaces {first!r} ({first_tag}) and {second!r}"
                         f" ({second_tag}) share a canonical key but not a tag")


class GazetteerExtractor:
    """Longest-match lexicon tagger over segmented sentences.

    The lexicon is a TSV file of "surface<TAB>tag" lines. Matching is done
    over canonicalised token sequences, left to right, always preferring the
    longest phrase starting at the current token; matches do not overlap.

    `entries` is keyed by each surface's canonical form, its tokens joined
    by one space, and a span of a sentence is looked up as its token keys
    joined by one space. A sentence key is the canonical form of one `WORD`
    token and holds no space, so the joined span equals an entry key
    exactly when their tokens are equal.
    """

    def __init__(self, lexicon: dict[str, str]):
        """Raises ValueError for a tag outside the tagset, and for two
        surfaces with one canonical key but different tags."""
        self.entries: dict[str, str] = {}
        for surface, tag in lexicon.items():
            if tag not in ONTONOTES_TAGS:
                raise ValueError(f"gazetteer tag {tag!r} not in the tagset")
            key = canonicalize(surface)
            if key and self.entries.setdefault(key, tag) != tag:
                first = next(s for s in lexicon if canonicalize(s) == key)
                raise _KeyConflict(first, self.entries[key], surface, tag)
        # Bit L is set when an entry of L tokens begins with the first
        # token: a match can only start at a token found here, and has one
        # of its lengths. One int per token keeps the index small.
        lengths_from: dict[str, int] = {}
        for key in self.entries:
            start = key.partition(" ")[0]
            lengths_from[start] = lengths_from.get(start, 0) | 1 << (key.count(" ") + 1)
        self.lengths_from = lengths_from

    @classmethod
    def from_file(cls, path: str | Path) -> "GazetteerExtractor":
        """Read a "surface<TAB>tag" file; lines that are blank or start
        with "#" are skipped.

        A sentence key is the canonical form of one `WORD` token, so an
        entry with a token of another shape ("U.S.", "AT&T", "Jean-Luc")
        can never match. Such entries load, and are reported in one
        warning.

        Two lines whose surfaces have one canonical key ("Apple" and
        "apple", or one surface twice) but different tags are a ParseError
        that names both lines; with the same tag they load as one entry.
        """
        lexicon: dict[str, str] = {}
        line_of: dict[str, int] = {}  # surface -> its first line
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ParseError(str(path), line_no, "expected 'surface<TAB>tag'")
                tag = parts[1].strip()
                if tag not in ONTONOTES_TAGS:
                    raise ParseError(str(path), line_no,
                                     f"gazetteer tag {tag!r} not in the tagset")
                surface = parts[0]
                line_of.setdefault(surface, line_no)
                if lexicon.setdefault(surface, tag) != tag:
                    raise ParseError(str(path), line_no,
                                     f"{surface!r} is tagged {tag} here but {lexicon[surface]}"
                                     f" at line {line_of[surface]}")
        _warn_of_entries_that_never_match(path, line_of)
        try:
            return cls(lexicon)
        except _KeyConflict as c:
            raise ParseError(str(path), line_of[c.second],
                             f"{c.second!r} is tagged {c.second_tag} here but {c.first!r},"
                             f" of the same canonical key, is tagged {c.first_tag}"
                             f" at line {line_of[c.first]}") from None

    def extract(self, docset: DocumentSet) -> list[EntityMention]:
        """Every gazetteer match in the document set, in document and
        sentence order.

        An ASCII sentence without "_" takes its canonical keys from
        `ascii_lower_words`. This is exact: on ASCII a token can carry only
        "_" of the outer punctuation at either end, so its canonical form is
        its lower case, and `lower()` keeps every character's offset and
        word class. Every other sentence is tokenized with its curly
        apostrophes straightened, as `canonicalize` does (one code point for
        one, so offsets hold), and canonicalises each distinct token once
        per document set.
        """
        mentions: list[EntityMention] = []
        # Canonical form per raw token, for this docset only, so memory
        # does not grow with the vocabulary of the whole corpus.
        canonical: dict[str, str] = {}
        starts = self.lengths_from.keys()
        for doc in docset.documents:
            doc_id = doc.doc_id
            for index, sentence in enumerate(doc.sentences):
                if sentence.isascii() and "_" not in sentence:
                    text = sentence
                    keys = ascii_lower_words(sentence)
                else:
                    text = _APOSTROPHES.sub("'", sentence)
                    tokens = WORD.findall(text)
                    keys = list(map(canonical.get, tokens))
                    if None in keys:  # a token not yet canonicalised here
                        for tok in tokens:
                            if tok not in canonical:
                                canonical[tok] = canonicalize(tok)
                        keys = list(map(canonical.get, tokens))
                if not starts.isdisjoint(keys):
                    mentions.extend(self._longest_matches(sentence, text, keys,
                                                          doc_id, index))
        return mentions

    def _longest_matches(self, sentence: str, text: str, keys: list[str],
                         doc_id: str, sent_idx: int) -> list[EntityMention]:
        """The left-to-right longest matches over the sentence's keys, one
        key per `WORD` token of `text`, the sentence as it was tokenized;
        each surface is sliced from `sentence` itself.

        Only tokens that begin an entry are visited, and at each only the
        entry lengths that exist and fit are tried, longest first. Token
        spans are read after a match, and only up to its last token."""
        lengths_from, entries = self.lengths_from, self.entries
        tokens = WORD.finditer(text)
        found: list[EntityMention] = []
        n = len(keys)
        free = 0  # first token after the last match; `tokens` holds none before it
        for i in [i for i, key in enumerate(keys) if key in lengths_from]:
            if i < free:
                continue
            lengths = lengths_from[keys[i]] & ((2 << (n - i)) - 1)  # those that fit
            while lengths:
                length = lengths.bit_length() - 1
                tag = entries.get(" ".join(keys[i:i + length]))
                if tag is not None:
                    first = next(islice(tokens, i - free, None))
                    last = first if length == 1 else next(islice(tokens, length - 2, None))
                    start, end = first.start(), last.end()
                    found.append(EntityMention(sentence[start:end], tag, doc_id,
                                               sent_idx, start, end))
                    free = i + length
                    break
                lengths ^= 1 << length
        return found


# ---------------------------------------------------------------------------
# Annotation-file backend
# ---------------------------------------------------------------------------

class AnnotationFileExtractor:
    """Bit-exact ingestion of externally produced entity annotations.

    File format (JSONL): {"question_id", "doc_rank",
    "entities": [{"surface", "tag", "sent_idx", "start", "end"}, ...]}.
    Every entity is checked once, at load: its keys, its tag and its span.
    Records are indexed by question id, so `extract` reads only the
    records of its own question and checks only what needs the segmented
    document.
    """

    def __init__(self, path: str | Path):
        self.path = str(path)
        # question id -> document rank -> (first line, entities), each level
        # in the order of first appearance in the file. An entity is
        # (line, surface, tag, sent_idx, start, end).
        self.records: dict[str, dict[int, tuple[int, list[tuple]]]] = {}
        for line_no, raw in read_jsonl(path):
            qid = read_field(raw, "question_id", "id", self.path, line_no, name="question id")
            rank = read_field(raw, "doc_rank", "integer", self.path, line_no, qid, name="rank")
            ents = read_field(raw, "entities", ["object"], self.path, line_no, qid)
            by_rank = self.records.setdefault(qid, {})
            if rank not in by_rank:
                by_rank[rank] = (line_no, [])
            by_rank[rank][1].extend(self._checked(ents, line_no, qid))

    def _checked(self, ents, line_no: int, qid: str) -> list[tuple]:
        def fail(reason: str) -> ParseError:
            return ParseError(self.path, line_no, f"question {qid!r}: {reason}")

        path, checked = self.path, []
        for ent in ents:
            surface = read_field(ent, "surface", "string", path, line_no, qid, record="entity")
            tag = read_field(ent, "tag", "string", path, line_no, qid, record="entity")
            sent_idx = read_field(ent, "sent_idx", "integer", path, line_no, qid, record="entity")
            start = read_field(ent, "start", "integer", path, line_no, qid, record="entity")
            end = read_field(ent, "end", "integer", path, line_no, qid, record="entity")
            if tag not in ONTONOTES_TAGS:
                raise fail(f"unknown entity tag {tag!r}")
            if sent_idx < 0:
                raise fail(f"negative sentence index {sent_idx}")
            if not 0 <= start < end:
                raise fail(f"bad span [{start}, {end})")
            checked.append((line_no, surface, tag, sent_idx, start, end))
        return checked

    def extract(self, docset: DocumentSet) -> list[EntityMention]:
        qid = docset.question_id
        by_rank = self.records.get(qid, {})
        known = {d.original_rank for d in docset.documents if d.question_id == qid}
        for rank, (line_no, _ents) in by_rank.items():
            if rank not in known:
                raise ParseError(self.path, line_no, f"question {qid!r}: annotations "
                                 f"reference unknown document {qid!r} rank {rank}")
        mentions: list[EntityMention] = []
        for doc in docset.documents:
            doc_id, sentences = doc.doc_id, doc.sentences
            _line, ents = self.records.get(doc.question_id, {}).get(
                doc.original_rank, (0, ()))
            for line_no, surface, tag, sent_idx, start, end in ents:
                if sent_idx >= len(sentences):
                    raise ParseError(self.path, line_no,
                                     f"question {doc.question_id!r}: sentence index "
                                     f"{sent_idx} out of range for document {doc_id}")
                if end > len(sentences[sent_idx]):
                    raise ParseError(self.path, line_no,
                                     f"question {doc.question_id!r}: span [{start}, {end}) "
                                     f"outside sentence {sent_idx} of {doc_id}")
                mentions.append(EntityMention(surface, tag, doc_id, sent_idx,
                                              start, end))
        return mentions


# ---------------------------------------------------------------------------
# Filtering and pooling
# ---------------------------------------------------------------------------

def filter_by_type(mentions: Iterable[EntityMention],
                   accepted_tags: frozenset[str] | set[str]) -> list[EntityMention]:
    """Keep exactly the mentions whose tag matches the expected answer type."""
    return [m for m in mentions if m.tag in accepted_tags]


def build_pool(mentions: Sequence[EntityMention],
               cap: int = DEFAULT_CANDIDATE_CAP,
               group_surface_variants: bool = True,
               df_mentions: Sequence[EntityMention] | None = None) -> CandidatePool:
    """Group type-filtered mentions into candidates with document frequency.

    df counts the distinct documents holding the entity in `mentions` or,
    when given, in `df_mentions`: pass the unfiltered mentions to count
    documents containing it under any tag. If more than `cap` candidates
    emerge they are ranked by df descending (ties by canonical surface)
    and only the top `cap` are retained.
    """
    # Each distinct surface is canonicalized once per call.
    canonical = canonicalize if group_surface_variants else str
    surfaces = {m.surface for m in mentions}
    surfaces.update(m.surface for m in df_mentions or ())
    key_of = {surface: canonical(surface) for surface in surfaces}

    sentence_keys: dict[str, set[tuple[str, int]]] = {}
    for m in mentions:
        key = key_of[m.surface]
        if key:
            sentence_keys.setdefault(key, set()).add((m.doc_id, m.sentence_index))

    docs = {key: {doc_id for doc_id, _index in keys}
            for key, keys in sentence_keys.items()}
    for m in df_mentions or ():
        key = key_of[m.surface]
        if key in docs:
            docs[key].add(m.doc_id)

    ranked = sorted(sentence_keys, key=lambda key: (-len(docs[key]), key))
    return CandidatePool(
        candidates=tuple(
            CandidateEntity(key, len(docs[key]), tuple(sorted(sentence_keys[key])))
            for key in ranked[:cap]),
        capped=len(ranked) > cap,
    )
