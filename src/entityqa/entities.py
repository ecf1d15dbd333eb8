"""Named-entity extraction, type filtering and candidate pooling.

Two interchangeable extraction backends are provided: ingestion of
externally produced annotation files (the production path, fed by any
tagger emitting the 18-tag inventory) and a gazetteer longest-match
extractor used as a self-contained baseline and in tests.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import DocumentSet, atomic_write_text, canonicalize
from .errors import IngestionError, ParseError

ONTONOTES_TAGS = frozenset({
    "PERSON", "NORP", "FAC", "ORG", "GPE", "LOC", "PRODUCT", "EVENT",
    "WORK_OF_ART", "LAW", "LANGUAGE", "DATE", "TIME", "PERCENT", "MONEY",
    "QUANTITY", "ORDINAL", "CARDINAL",
})

DEFAULT_CANDIDATE_CAP = 100


@dataclass(frozen=True)
class EntityMention:
    surface: str
    tag: str
    doc_id: str
    sentence_index: int
    start: int
    end: int

    def __post_init__(self):
        if self.tag not in ONTONOTES_TAGS:
            raise ValueError(f"unknown entity tag {self.tag!r}")
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad span [{self.start}, {self.end})")


@dataclass(frozen=True)
class CandidateEntity:
    canonical_surface: str
    mentions: tuple[EntityMention, ...]
    df: int
    tags: tuple[tuple[str, int], ...]  # (tag, count) pairs, most common first


@dataclass(frozen=True)
class CandidatePool:
    question_id: str
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
                lexicon[parts[0]] = parts[1].strip()
        return cls(lexicon)

    def extract(self, docset: DocumentSet) -> list[EntityMention]:
        mentions: list[EntityMention] = []
        # Canonical form per raw token, for this docset only, so memory
        # does not grow with the vocabulary of the whole corpus.
        canonical: dict[str, str] = {}
        for doc in docset.documents:
            doc_id = doc.doc_id
            for sentence in doc.sentences:
                mentions.extend(self._scan(sentence.text, doc_id,
                                           sentence.index, canonical))
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
                    found.append(EntityMention(
                        surface=text[start:end],
                        tag=tag,
                        doc_id=doc_id,
                        sentence_index=sent_idx,
                        start=start,
                        end=end,
                    ))
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
    Records are indexed by question id at load, so `extract` reads only
    the records of its own question.
    """

    def __init__(self, path: str | Path):
        self.path = str(path)
        # question id -> document rank -> entities, each level in the order
        # of first appearance in the file.
        self.records: dict[str, dict[int, list[dict]]] = {}
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    raw = json.loads(line)
                    qid, rank = str(raw["question_id"]), int(raw["doc_rank"])
                    ents = raw["entities"]
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise ParseError(self.path, line_no, f"invalid annotation record: {exc}") from exc
                self.records.setdefault(qid, {}).setdefault(rank, []).extend(ents)

    def extract(self, docset: DocumentSet) -> list[EntityMention]:
        qid = docset.question_id
        known = {(d.question_id, d.original_rank) for d in docset.documents}
        for rank in self.records.get(qid, {}):
            if (qid, rank) not in known:
                raise IngestionError(
                    f"{self.path}: annotations reference unknown document "
                    f"{qid!r} rank {rank}"
                )
        mentions: list[EntityMention] = []
        for doc in docset.documents:
            doc_id = doc.doc_id
            by_rank = self.records.get(doc.question_id, {})
            for ent in by_rank.get(doc.original_rank, []):
                sent_idx = int(ent["sent_idx"])
                if not (0 <= sent_idx < len(doc.sentences)):
                    raise IngestionError(
                        f"{self.path}: sentence index {sent_idx} out of range "
                        f"for document {doc_id}"
                    )
                sentence = doc.sentences[sent_idx]
                start, end = int(ent["start"]), int(ent["end"])
                if not (0 <= start < end <= len(sentence.text)):
                    raise IngestionError(
                        f"{self.path}: span [{start}, {end}) outside sentence "
                        f"{sent_idx} of {doc_id}"
                    )
                mentions.append(EntityMention(
                    surface=str(ent["surface"]),
                    tag=str(ent["tag"]),
                    doc_id=doc_id,
                    sentence_index=sent_idx,
                    start=start,
                    end=end,
                ))
        return mentions


def write_annotations(path: str | Path, docset: DocumentSet,
                      mentions: Iterable[EntityMention]) -> None:
    """Write mentions in the annotation-file format (inverse of ingestion)."""
    by_doc: dict[str, list[EntityMention]] = {}
    for m in mentions:
        by_doc.setdefault(m.doc_id, []).append(m)
    atomic_write_text(path, "".join(json.dumps({
        "question_id": doc.question_id,
        "doc_rank": doc.original_rank,
        "entities": [{
            "surface": m.surface, "tag": m.tag, "sent_idx": m.sentence_index,
            "start": m.start, "end": m.end,
        } for m in by_doc.get(doc.doc_id, [])],
    }, ensure_ascii=False) + "\n" for doc in docset.documents))


# ---------------------------------------------------------------------------
# Filtering and pooling
# ---------------------------------------------------------------------------

def filter_by_type(mentions: Iterable[EntityMention],
                   accepted_tags: frozenset[str] | set[str]) -> list[EntityMention]:
    """Keep exactly the mentions whose tag matches the expected answer type."""
    return [m for m in mentions if m.tag in accepted_tags]


def build_pool(mentions: Sequence[EntityMention], docset: DocumentSet,
               cap: int = DEFAULT_CANDIDATE_CAP,
               group_surface_variants: bool = True,
               all_mentions: Sequence[EntityMention] | None = None,
               df_any_tag: bool = False) -> CandidatePool:
    """Group type-filtered mentions into candidates with document frequency.

    df counts the distinct documents containing the entity with an accepted
    tag; with df_any_tag=True it instead counts documents containing the
    entity under any tag (all_mentions must then carry the unfiltered list).
    If more than `cap` candidates emerge they are ranked by df descending
    (ties by canonical surface) and only the top `cap` are retained.
    """
    def key_of(m: EntityMention) -> str:
        return canonicalize(m.surface) if group_surface_variants else m.surface

    grouped: dict[str, list[EntityMention]] = {}
    for m in mentions:
        key = key_of(m)
        if key:
            grouped.setdefault(key, []).append(m)

    df_source = grouped
    if df_any_tag:
        if all_mentions is None:
            raise ValueError("df_any_tag requires the unfiltered mention list")
        df_source = {}
        for m in all_mentions:
            key = key_of(m)
            if key:
                df_source.setdefault(key, []).append(m)

    candidates = []
    for key, group in grouped.items():
        docs = {m.doc_id for m in df_source.get(key, group)}
        tags = Counter(m.tag for m in group)
        candidates.append(CandidateEntity(
            canonical_surface=key,
            mentions=tuple(group),
            df=len(docs),
            tags=tuple(tags.most_common()),
        ))

    candidates.sort(key=lambda c: (-c.df, c.canonical_surface))
    capped = len(candidates) > cap
    return CandidatePool(
        question_id=docset.question_id,
        candidates=tuple(candidates[:cap]),
        capped=capped,
    )
