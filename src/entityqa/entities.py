"""Named-entity extraction, type filtering and candidate pooling.

Two interchangeable extraction backends are provided: ingestion of
externally produced annotation files (the production path, fed by any
tagger emitting the 18-tag inventory) and a gazetteer longest-match
extractor used as a self-contained baseline and in tests.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .corpus import DocumentSet, canonicalize, read_jsonl, write_jsonl
from .errors import IngestionError, ParseError

ONTONOTES_TAGS = frozenset({
    "PERSON", "NORP", "FAC", "ORG", "GPE", "LOC", "PRODUCT", "EVENT",
    "WORK_OF_ART", "LAW", "LANGUAGE", "DATE", "TIME", "PERCENT", "MONEY",
    "QUANTITY", "ORDINAL", "CARDINAL",
})

DEFAULT_CANDIDATE_CAP = 100


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

_WORD = re.compile(r"\w+(?:'\w+)?")


class GazetteerExtractor:
    """Longest-match lexicon tagger over segmented sentences.

    The lexicon is a TSV file of "surface<TAB>tag" lines. Matching is done
    over canonicalised token sequences, left to right, always preferring the
    longest phrase starting at the current token; matches do not overlap.
    """

    def __init__(self, lexicon: dict[str, str]):
        self.entries: dict[tuple[str, ...], str] = {}
        for surface, tag in lexicon.items():
            if tag not in ONTONOTES_TAGS:
                raise ValueError(f"gazetteer tag {tag!r} not in the tagset")
            key = tuple(canonicalize(surface).split())
            if key:
                self.entries[key] = tag
        # Length of the longest entry beginning with each first token: a
        # match can only start at a token found here, and is no longer.
        self.longest_from: dict[str, int] = {}
        for key in self.entries:
            if len(key) > self.longest_from.get(key[0], 0):
                self.longest_from[key[0]] = len(key)

    @classmethod
    def from_file(cls, path: str | Path) -> "GazetteerExtractor":
        lexicon: dict[str, str] = {}
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
                lexicon[parts[0]] = tag
        return cls(lexicon)

    def extract(self, docset: DocumentSet) -> list[EntityMention]:
        mentions: list[EntityMention] = []
        # Canonical form per raw token, for this docset only, so memory
        # does not grow with the vocabulary of the whole corpus.
        canonical: dict[str, str] = {}
        for doc in docset.documents:
            doc_id = doc.doc_id
            for index, sentence in enumerate(doc.sentences):
                mentions.extend(self._scan(sentence, doc_id, index, canonical))
        return mentions

    def _scan(self, text: str, doc_id: str, sent_idx: int,
              canonical: dict[str, str]) -> list[EntityMention]:
        tokens = _WORD.findall(text)
        keys = list(map(canonical.get, tokens))
        if None in keys:  # a token not yet canonicalised in this docset
            for tok in tokens:
                if tok not in canonical:
                    canonical[tok] = canonicalize(tok)
            keys = list(map(canonical.get, tokens))
        longest_from = self.longest_from
        if longest_from.keys().isdisjoint(keys):
            return []
        spans = [m.span() for m in _WORD.finditer(text)]
        found: list[EntityMention] = []
        n = len(keys)
        i = 0
        while i < n:
            for length in range(min(longest_from.get(keys[i], 0), n - i), 0, -1):
                tag = self.entries.get(tuple(keys[i:i + length]))
                if tag is not None:
                    start = spans[i][0]
                    end = spans[i + length - 1][1]
                    found.append(EntityMention(text[start:end], tag, doc_id,
                                               sent_idx, start, end))
                    i += length
                    break
            else:
                i += 1
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
            try:
                qid, rank = str(raw["question_id"]), int(raw["doc_rank"])
                ents = raw["entities"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(self.path, line_no, f"invalid annotation record: {exc}") from exc
            by_rank = self.records.setdefault(qid, {})
            if rank not in by_rank:
                by_rank[rank] = (line_no, [])
            by_rank[rank][1].extend(self._checked(ents, line_no, qid))

    def _checked(self, ents, line_no: int, qid: str) -> list[tuple]:
        def fail(reason: str) -> ParseError:
            return ParseError(self.path, line_no, f"question {qid!r}: {reason}")

        checked = []
        try:
            for ent in ents:
                surface, tag = str(ent["surface"]), str(ent["tag"])
                sent_idx, start, end = int(ent["sent_idx"]), int(ent["start"]), int(ent["end"])
                if tag not in ONTONOTES_TAGS:
                    raise fail(f"unknown entity tag {tag!r}")
                if sent_idx < 0:
                    raise fail(f"negative sentence index {sent_idx}")
                if not 0 <= start < end:
                    raise fail(f"bad span [{start}, {end})")
                checked.append((line_no, surface, tag, sent_idx, start, end))
        except KeyError as exc:
            raise fail(f"entity without key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise fail(f"invalid entity: {exc}") from exc
        return checked

    def extract(self, docset: DocumentSet) -> list[EntityMention]:
        qid = docset.question_id
        by_rank = self.records.get(qid, {})
        known = {d.original_rank for d in docset.documents if d.question_id == qid}
        for rank, (line_no, _ents) in by_rank.items():
            if rank not in known:
                raise IngestionError(
                    f"{self.path}:{line_no}: question {qid!r}: annotations "
                    f"reference unknown document {qid!r} rank {rank}"
                )
        mentions: list[EntityMention] = []
        for doc in docset.documents:
            doc_id, sentences = doc.doc_id, doc.sentences
            _line, ents = self.records.get(doc.question_id, {}).get(
                doc.original_rank, (0, ()))
            for line_no, surface, tag, sent_idx, start, end in ents:
                if sent_idx >= len(sentences):
                    raise IngestionError(
                        f"{self.path}:{line_no}: question {doc.question_id!r}: "
                        f"sentence index {sent_idx} out of range for document {doc_id}"
                    )
                if end > len(sentences[sent_idx]):
                    raise IngestionError(
                        f"{self.path}:{line_no}: question {doc.question_id!r}: "
                        f"span [{start}, {end}) outside sentence {sent_idx} of {doc_id}"
                    )
                mentions.append(EntityMention(surface, tag, doc_id, sent_idx,
                                              start, end))
        return mentions


def write_annotations(path: str | Path, docset: DocumentSet,
                      mentions: Iterable[EntityMention]) -> None:
    """Write mentions in the annotation-file format (inverse of ingestion)."""
    by_doc: dict[str, list[EntityMention]] = {}
    for m in mentions:
        by_doc.setdefault(m.doc_id, []).append(m)
    write_jsonl(path, ({
        "question_id": doc.question_id,
        "doc_rank": doc.original_rank,
        "entities": [{
            "surface": m.surface, "tag": m.tag, "sent_idx": m.sentence_index,
            "start": m.start, "end": m.end,
        } for m in by_doc.get(doc.doc_id, [])],
    } for doc in docset.documents))


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
