"""Score combination and tie-grouped top-5 answer ranking.

The semantic score of each candidate is combined with its normalized
document frequency, either additively (alpha * score + beta * df_norm)
or multiplicatively (score * df_norm). Candidates with exactly equal
combined scores share a rank; the run keeps the five best rank groups.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import atomic_write_text
from .errors import ParseError

COMBINE_MODES = ("additive", "multiplicative")

# Tuning grid for the additive weights: {0.1, ..., 0.7} x {0.1, ..., 0.7}.
_GRID_STEPS = tuple(round(0.1 * i, 1) for i in range(1, 8))
ALPHA_BETA_GRID = tuple((a, b) for a in _GRID_STEPS for b in _GRID_STEPS)

MAX_RANK_GROUPS = 5
SCORE_DIGITS = 9


@dataclass(frozen=True)
class RankingConfig:
    combine_mode: str = "multiplicative"
    alpha: float = 0.1
    beta: float = 0.1
    score_digits: int = SCORE_DIGITS

    def __post_init__(self):
        if self.combine_mode not in COMBINE_MODES:
            raise ValueError(f"unknown combine mode {self.combine_mode!r}")
        if self.combine_mode == "additive":
            if not (0.0 < self.alpha <= 1.0 and 0.0 < self.beta <= 1.0):
                raise ValueError("alpha and beta must lie in (0, 1]")
        if not isinstance(self.score_digits, int) or self.score_digits < 1:
            raise ValueError("score_digits must be a positive integer")


@dataclass(frozen=True)
class TiedRun:
    question_id: str
    groups: tuple[frozenset[str], ...]
    scores: tuple[float, ...]
    config_id: str = ""

    def __post_init__(self):
        if len(self.groups) != len(self.scores):
            raise ValueError("one score per group required")
        if any(not g for g in self.groups):
            raise ValueError("empty tie group")
        if list(self.scores) != sorted(self.scores, reverse=True) or \
                len(set(self.scores)) != len(self.scores):
            raise ValueError("group scores must be strictly decreasing")
        seen: set[str] = set()
        for g in self.groups:
            if seen & g:
                raise ValueError("tie groups must be pairwise disjoint")
            seen |= g

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)


def combine(semantic: float, df: int, n_docs: int, config: RankingConfig) -> float:
    """comb-score of one candidate: weighted addition or multiplication."""
    if n_docs <= 0:
        raise ValueError("n_docs must be positive")
    if not (0 <= df <= n_docs):
        raise ValueError(f"df {df} outside 0..{n_docs}")
    df_norm = df / n_docs
    if config.combine_mode == "additive":
        return config.alpha * semantic + config.beta * df_norm
    return semantic * df_norm


def rank_answers(question_id: str, surfaces: Sequence[str],
                 semantic: Sequence[float], dfs: Sequence[int], n_docs: int,
                 config: RankingConfig, config_id: str = "") -> TiedRun:
    """Combine each candidate's semantic score with its df, group equal
    combined scores and keep the MAX_RANK_GROUPS best groups, best first.

    Scores are rounded to `config.score_digits` before grouping so that
    float accumulation noise cannot split a genuine tie.
    """
    by_score: dict[float, set[str]] = {}
    for surface, value, df in zip(surfaces, semantic, dfs, strict=True):
        combined = round(combine(value, df, n_docs, config), config.score_digits)
        by_score.setdefault(combined, set()).add(surface)
    ordered = sorted(by_score.items(), key=lambda kv: -kv[0])[:MAX_RANK_GROUPS]
    return TiedRun(question_id=question_id,
                   groups=tuple(frozenset(members) for _, members in ordered),
                   scores=tuple(score for score, _ in ordered),
                   config_id=config_id)


# ---------------------------------------------------------------------------
# Run file round-trip
# ---------------------------------------------------------------------------

def write_runs(path: str | Path, runs: Sequence[TiedRun]) -> None:
    """The one run-file serializer: a JSON line per run, written atomically."""
    atomic_write_text(path, "".join(json.dumps({
        "question_id": run.question_id,
        "groups": [sorted(g) for g in run.groups],
        "scores": list(run.scores),
        "config_id": run.config_id,
    }, ensure_ascii=False) + "\n" for run in runs))


def load_runs(path: str | Path) -> list[TiedRun]:
    runs: list[TiedRun] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                run = TiedRun(
                    question_id=str(raw["question_id"]),
                    groups=tuple(frozenset(map(str, g)) for g in raw["groups"]),
                    scores=tuple(float(s) for s in raw["scores"]),
                    config_id=str(raw.get("config_id", "")),
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(str(path), line_no, f"invalid run record: {exc}") from exc
            runs.append(run)
    return runs
