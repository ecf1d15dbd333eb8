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

from ..corpus import read_field, read_json
from ..entities import ONTONOTES_TAGS
from ..errors import ParseError


@dataclass(frozen=True)
class AnswerTypeMap:
    coarse: dict[str, frozenset[str]]
    fine: dict[str, frozenset[str]]


def _load_packaged_json(name: str):
    ref = resources.files("entityqa.data").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


@lru_cache(maxsize=1)
def default_taxonomy() -> dict[str, tuple[str, ...]]:
    """Each coarse class and its fine classes."""
    raw = _load_packaged_json("taxonomy.json")
    return {k: tuple(v) for k, v in raw.items()}


def _freeze_map(raw: dict, path: str) -> AnswerTypeMap:
    """The type map in `raw`, read from `path`: each level an object of
    string arrays, each tag from the inventory, or a ParseError."""
    levels: dict[str, dict[str, frozenset[str]]] = {}
    for level in ("coarse", "fine"):
        rows = read_field(raw, level, "object", path, 1, default={})
        levels[level] = {}
        for label in rows:
            name = f"{level} {label!r}"
            tagset = frozenset(read_field(rows, label, ["string"], path, 1, name=name))
            bad = tagset - ONTONOTES_TAGS
            if bad:
                raise ParseError(path, 1, f"{name} lists unknown tags {sorted(bad)}")
            levels[level][label] = tagset
    return AnswerTypeMap(**levels)


@lru_cache(maxsize=1)
def default_answer_type_map() -> AnswerTypeMap:
    name = "answer_type_map.json"
    return _freeze_map(_load_packaged_json(name), name)


def load_answer_type_map(path: str | Path) -> AnswerTypeMap:
    """Read a type-map file: {"coarse": {LABEL: [TAGS]}, "fine": {...}}."""
    return _freeze_map(read_json(path), str(path))


def map_answer_types(coarse: str, fine: str | None = None,
                     type_map: AnswerTypeMap | None = None) -> frozenset[str] | None:
    """Resolve a predicted question type to the set of accepted entity tags.

    A fine-grained prediction overrides the coarse mapping when a dedicated
    row exists for it (e.g. NUMERIC:money narrows to MONEY); otherwise the
    coarse row applies. Coarse classes without a row (the non-entity classes
    DESCRIPTION and ABBREVIATION) map to None: no entity answers them.
    """
    table = type_map or default_answer_type_map()
    if fine:
        short = fine.split(":", 1)[1] if ":" in fine else fine
        narrowed = table.fine.get(f"{coarse}:{short}") or table.fine.get(short)
        if narrowed is not None:
            return narrowed
    return table.coarse.get(coarse)
