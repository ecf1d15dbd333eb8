"""Score combination and tie-grouped top-5 answer ranking.

The semantic score of each candidate is combined with its normalized
document frequency, either additively (alpha * score + beta * df_norm)
or multiplicatively (score * df_norm). Candidates with exactly equal
combined scores share a rank; the run keeps the five best rank groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

from .corpus import read_field, read_question_jsonl, write_jsonl
from .errors import ParseError

# In the order the ablation grid reports its combine cells.
COMBINE_MODES = ("multiplicative", "additive")

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


def _combine_each(semantic: Sequence[float], dfs: Sequence[int], n_docs: int,
                  config: RankingConfig) -> list[float]:
    """comb-score of each candidate: weighted addition or multiplication
    of its semantic score and its df / n_docs. The counts are checked once
    per call; the error names the first df out of range in input order."""
    if n_docs <= 0:
        raise ValueError("n_docs must be positive")
    if dfs and not (0 <= min(dfs) and max(dfs) <= n_docs):
        bad = next(df for df in dfs if not 0 <= df <= n_docs)
        raise ValueError(f"df {bad} outside 0..{n_docs}")
    pairs = zip(semantic, dfs, strict=True)
    if config.combine_mode == "additive":
        alpha, beta = config.alpha, config.beta
        return [alpha * value + beta * (df / n_docs) for value, df in pairs]
    return [value * (df / n_docs) for value, df in pairs]


def rank_answers(question_id: str, surfaces: Sequence[str],
                 semantic: Sequence[float], dfs: Sequence[int], n_docs: int,
                 config: RankingConfig) -> TiedRun:
    """Combine each candidate's semantic score with its df, group equal
    combined scores and keep the MAX_RANK_GROUPS best groups, best first.

    Scores are rounded to `config.score_digits` before grouping so that
    float accumulation noise cannot split a genuine tie. Rounding is
    monotone, so the kept groups are a prefix of the candidates sorted by
    raw combined score: rounding runs from the top and stops at the sixth
    distinct rounded score. A group's score is the rounded score of its
    first member in input order, which decides the sign of a zero score
    whose members round to both -0.0 and 0.0. No candidates give the
    empty run, whatever `n_docs` is.
    """
    if not (surfaces or semantic or dfs):
        return TiedRun(question_id=question_id, groups=(), scores=())
    combined = _combine_each(semantic, dfs, n_docs, config)
    if len(surfaces) != len(combined):
        raise ValueError("one surface per candidate required")
    digits = config.score_digits
    groups: list[set[str]] = []
    firsts: list[int] = []  # input index of each group's first member
    last = None
    for i in sorted(range(len(combined)), key=combined.__getitem__, reverse=True):
        score = round(combined[i], digits)
        if score != last:
            if len(groups) == MAX_RANK_GROUPS:
                break
            groups.append({surfaces[i]})
            firsts.append(i)
            last = score
        else:
            groups[-1].add(surfaces[i])
            if i < firsts[-1]:
                firsts[-1] = i
    return TiedRun(question_id=question_id,
                   groups=tuple(map(frozenset, groups)),
                   scores=tuple(round(combined[i], digits) for i in firsts))


# ---------------------------------------------------------------------------
# Run file round-trip
# ---------------------------------------------------------------------------

def write_runs(path: str | Path, runs: Sequence[TiedRun], config_id: str) -> None:
    """The one run-file serializer: a JSON line per run, each stamped with
    the id of the config that wrote the file, written atomically."""
    write_jsonl(path, ({"question_id": run.question_id,
                        "groups": [sorted(g) for g in run.groups],
                        "scores": list(run.scores),
                        "config_id": config_id} for run in runs))


def load_runs(path: str | Path) -> list[TiedRun]:
    runs: list[TiedRun] = []
    for line_no, raw, qid in read_question_jsonl(path, "question_id"):
        groups = read_field(raw, "groups", "array", path, line_no, qid)
        if {list}.issuperset(map(type, groups)) and \
                {str}.issuperset(map(type, chain.from_iterable(groups))):
            groups = tuple(map(frozenset, groups))
        else:  # read group by group, for an error that names the first bad one
            groups = tuple(frozenset(read_field(groups, i, ["string"], path, line_no,
                                                qid, name="a group"))
                           for i in range(len(groups)))
        scores = tuple(read_field(raw, "scores", ["number"], path, line_no, qid))
        # Checked, not kept: the file's sidecar names the config behind it.
        read_field(raw, "config_id", "string", path, line_no, qid, default="")
        try:
            runs.append(TiedRun(question_id=qid, groups=groups, scores=scores))
        except ValueError as exc:
            raise ParseError(str(path), line_no,
                             f"question {qid!r}: invalid run record: {exc}") from exc
    return runs
