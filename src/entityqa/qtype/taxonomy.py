"""Question-type taxonomy and the mapping onto entity tags.

The taxonomy has six coarse classes, each with a small set of fine
subclasses (50 fine classes in total). Answerable coarse classes map to
sets of entity tags; a handful of fine classes narrow that set further.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from ..corpus import read_json
from ..entities import ONTONOTES_TAGS
from ..errors import ParseError, UnmappedTypeError


@dataclass(frozen=True)
class Taxonomy:
    coarse_to_fine: dict[str, tuple[str, ...]]

    @property
    def coarse_labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.coarse_to_fine))

    @property
    def fine_labels(self) -> tuple[str, ...]:
        """Fully qualified fine labels, e.g. 'HUMAN:individual'."""
        out = []
        for coarse in self.coarse_labels:
            out.extend(f"{coarse}:{fine}" for fine in self.coarse_to_fine[coarse])
        return tuple(sorted(out))

    def validate_pair(self, coarse: str, fine: str) -> bool:
        return fine in self.coarse_to_fine.get(coarse, ())


@dataclass(frozen=True)
class AnswerTypeMap:
    coarse: dict[str, frozenset[str]]
    fine: dict[str, frozenset[str]]


def _load_packaged_json(name: str):
    ref = resources.files("entityqa.data").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


@lru_cache(maxsize=1)
def default_taxonomy() -> Taxonomy:
    raw = _load_packaged_json("taxonomy.json")
    return Taxonomy(coarse_to_fine={k: tuple(v) for k, v in raw.items()})


def _freeze_map(raw: dict) -> AnswerTypeMap:
    coarse = {}
    for label, tags in raw.get("coarse", {}).items():
        tagset = frozenset(tags)
        bad = tagset - ONTONOTES_TAGS
        if bad:
            raise ValueError(f"coarse {label!r} lists unknown tags {sorted(bad)}")
        coarse[label] = tagset
    fine = {}
    for label, tags in raw.get("fine", {}).items():
        tagset = frozenset(tags)
        bad = tagset - ONTONOTES_TAGS
        if bad:
            raise ValueError(f"fine {label!r} lists unknown tags {sorted(bad)}")
        fine[label] = tagset
    return AnswerTypeMap(coarse=coarse, fine=fine)


@lru_cache(maxsize=1)
def default_answer_type_map() -> AnswerTypeMap:
    return _freeze_map(_load_packaged_json("answer_type_map.json"))


def load_answer_type_map(path: str | Path) -> AnswerTypeMap:
    """Read a type-map file: {"coarse": {LABEL: [TAGS]}, "fine": {...}}."""
    raw = read_json(path)
    try:
        return _freeze_map(raw)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(str(path), 1, f"invalid answer-type map: {exc}") from exc


def map_answer_types(coarse: str, fine: str | None = None,
                     type_map: AnswerTypeMap | None = None) -> frozenset[str]:
    """Resolve a predicted question type to the set of accepted entity tags.

    A fine-grained prediction overrides the coarse mapping when a dedicated
    row exists for it (e.g. NUMERIC:money narrows to MONEY); otherwise the
    coarse row applies. Coarse classes without a row (the non-entity classes
    DESCRIPTION and ABBREVIATION) raise UnmappedTypeError.
    """
    table = type_map or default_answer_type_map()
    if fine:
        short = fine.split(":", 1)[1] if ":" in fine else fine
        narrowed = table.fine.get(f"{coarse}:{short}") or table.fine.get(short)
        if narrowed is not None:
            return narrowed
    accepted = table.coarse.get(coarse)
    if accepted is None:
        raise UnmappedTypeError(
            f"question type {coarse!r} has no entity-tag mapping"
        )
    return accepted
