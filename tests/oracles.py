"""Independent reference implementations used to cross-check the package.

Nothing here imports the code under test. The tie-breaking oracles work
directly on linear arrangements of tie groups: the Monte-Carlo oracle
samples uniformly random within-group shuffles; the enumeration oracle
sums over all within-group relevance placements with exact weights. The
gazetteer oracle is the plain longest-match scan that probes every span
length at every token, over an NFD accent fold with no shortcuts. The
sentence-splitter oracle finds the word before each terminator with a
forward regex search over the whole sentence so far. The cosine oracle
checks both vectors and recomputes both norms on every call. The
preprocessing oracle always runs the contraction regex. The ranking
oracle is the old per-candidate tail: aggregate and range-check one
semantic score, combine it with df, round and group, one step at a time.
The answer-matching oracle splits both canonical forms into token lists
and compares slices. The count-based metric oracles scan every group's
(size, relevant) counts twice: once for the classical triple over the
first five groups, once for the tie-aware triple with its tHit@5
miss-probability product. The centroid oracle adds each labeled row to
its class in a Python loop. The word-average oracle matches each token on
the text as given and lower-cases it on its own.
"""

from __future__ import annotations

import itertools
import math
import re
import unicodedata
from typing import Sequence

import numpy as np


def mc_tie_metrics(group_sizes: list[int], group_relevant: list[int],
                   n_samples: int = 10 ** 6, seed: int = 0,
                   hit_cutoff: int = 5,
                   chunk: int = 10 ** 5) -> tuple[float, float, float]:
    """Monte-Carlo (tMRR, tP@1, tHit@5) under random within-group shuffles.

    Groups earlier in the list always precede later ones, so the first
    relevant item overall lives in the first group that has any relevant
    members; its linear position is the group's offset plus the rank of
    the smallest relevant sort key within the group.
    """
    assert len(group_sizes) == len(group_relevant)
    assert all(0 <= r <= n for n, r in zip(group_sizes, group_relevant))
    offset = 0
    target = None
    for n, r in zip(group_sizes, group_relevant):
        if r > 0:
            target = (n, r, offset)
            break
        offset += n
    if target is None:
        return 0.0, 0.0, 0.0
    n, r, offset = target
    if r == n:
        # Every member relevant: the first one is always at offset + 1.
        pos = offset + 1
        return 1.0 / pos, float(pos == 1), float(pos <= hit_cutoff)

    rng = np.random.default_rng(seed)
    sum_reciprocal = 0.0
    sum_p1 = 0
    sum_hit = 0
    remaining = n_samples
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        rel_keys = rng.random((size, r))
        irr_keys = rng.random((size, n - r))
        first_rel = rel_keys.min(axis=1)
        within = 1 + (irr_keys < first_rel[:, None]).sum(axis=1)
        positions = offset + within
        sum_reciprocal += (1.0 / positions).sum()
        sum_p1 += int((positions == 1).sum())
        sum_hit += int((positions <= hit_cutoff).sum())
    return (sum_reciprocal / n_samples, sum_p1 / n_samples,
            sum_hit / n_samples)


def enumerate_tie_metrics(group_sizes: list[int], group_relevant: list[int],
                          hit_cutoff: int = 5) -> tuple[float, float, float]:
    """Exact (tMRR, tP@1, tHit@5) by enumerating relevance placements.

    Groups occupy consecutive position blocks, so all three metrics depend
    only on the position of the first relevant item, which lives in the
    first group with any relevant members. That group's C(n, r) equally
    likely placements are enumerated directly; each contributes weight
    1 / C(n, r) at linear position offset + (smallest chosen slot).
    """
    assert len(group_sizes) == len(group_relevant)
    offset = 0
    target = None
    for n, r in zip(group_sizes, group_relevant):
        assert 0 <= r <= n
        if r > 0:
            target = (n, r, offset)
            break
        offset += n
    if target is None:
        return 0.0, 0.0, 0.0
    n, r, offset = target
    assert math.comb(n, r) <= 2_000_000, "instance too large to enumerate"
    weight = 1.0 / math.comb(n, r)
    tmrr = tp1 = thit = 0.0
    for placement in itertools.combinations(range(n), r):
        first = offset + placement[0] + 1
        tmrr += weight / first
        tp1 += weight * (first == 1)
        thit += weight * (first <= hit_cutoff)
    return tmrr, tp1, thit


def classical_reference(group_relevant: list[int],
                        cutoff: int = 5) -> tuple[float, float, float]:
    """(MRR, P@1, Hit@5) with one rank per group, scanning `cutoff` groups."""
    head = group_relevant[:cutoff]
    mrr = hit = 0.0
    for i, r in enumerate(head, start=1):
        if r > 0:
            mrr = 1.0 / i
            hit = 1.0
            break
    p1 = 1.0 if head and head[0] > 0 else 0.0
    return mrr, p1, hit


# Two-scan reference for run_metrics: the classical and the tie-aware
# triples from the (size, relevant) counts of every group.
CLASSICAL_RANK_CUTOFF = 5
TMRR_MODES = ("expected_reciprocal", "reciprocal_expected")


def classical_from_counts(counts: Sequence[tuple[int, int]]
                          ) -> tuple[float, float, float]:
    """(MRR, P@1, Hit@5) from per-group (size, relevant) counts.

    Only the first five groups are scanned — the rank list is a top-5 list
    by construction, and external runs with more groups are treated as if
    truncated.
    """
    counts = counts[:CLASSICAL_RANK_CUTOFF]
    mrr = 0.0
    hit = 0.0
    for index, (_n, r) in enumerate(counts, start=1):
        if r > 0:
            mrr = 1.0 / index
            hit = 1.0
            break
    p1 = 1.0 if counts and counts[0][1] > 0 else 0.0
    return mrr, p1, hit


def _first_relevant_position_dist(n: int, r: int) -> list[tuple[int, float]]:
    """(position, probability) of the first relevant item inside one group.

    With r relevant among n uniformly shuffled items, the first relevant
    sits at internal position j with probability C(n-j, r-1) / C(n, r).
    """
    denom = math.comb(n, r)
    return [
        (j, math.comb(n - j, r - 1) / denom)
        for j in range(1, n - r + 2)
    ]


def tie_aware_from_counts(counts: Sequence[tuple[int, int]],
                          tmrr_mode: str = "expected_reciprocal"
                          ) -> tuple[float, float, float]:
    """(tMRR, tP@1, tHit@5) from per-group (size, relevant) counts.

    The expectations depend only on each group's size and relevant count
    (McSherry & Najork, ECIR 2008).

    Position distributions: group g occupies linear positions
    N_{g-1}+1 .. N_g, where N_g is the cumulative size. tP@1 is the
    relevant fraction of group 1. tHit@5 multiplies, per group overlapping
    the first five positions, the probability that none of its relevant
    members is drawn into those positions. tMRR sums E[1/position] of the
    first relevant item over the first group that has one; the
    reciprocal_expected mode instead returns 1 / E[position].
    """
    if tmrr_mode not in TMRR_MODES:
        raise ValueError(f"unknown tMRR mode {tmrr_mode!r}")
    if not any(r for _n, r in counts):
        return 0.0, 0.0, 0.0

    tp1 = counts[0][1] / counts[0][0] if counts else 0.0

    # tHit@5: P(some relevant item within the first five positions).
    miss_prob = 1.0
    before = 0
    for n, r in counts:
        after = before + n
        if before >= CLASSICAL_RANK_CUTOFF:
            break
        if r > 0:
            if after <= CLASSICAL_RANK_CUTOFF:
                miss_prob = 0.0
                break
            slots = CLASSICAL_RANK_CUTOFF - before
            # All `slots` positions drawn from this group must come from
            # its n - r irrelevant members.
            if n - r < slots:
                miss_prob = 0.0
                break
            miss_prob *= math.comb(n - r, slots) / math.comb(n, slots)
        before = after
    thit = 1.0 - miss_prob

    # tMRR: only the first group with a relevant member matters.
    tmrr = 0.0
    before = 0
    for n, r in counts:
        if r > 0:
            if tmrr_mode == "expected_reciprocal":
                tmrr = sum(
                    p / (before + j)
                    for j, p in _first_relevant_position_dist(n, r)
                )
            else:
                expected_rank = before + (n + 1) / (r + 1)
                tmrr = 1.0 / expected_rank
            break
        before += n
    return tmrr, tp1, thit


def brute_force_aggregate(scores_by_doc: dict[str, list[float]], mode: str,
                          denominator: str = "containing_docs",
                          n_docs: int | None = None) -> float:
    """Direct evaluation of the three aggregation definitions."""
    all_scores = [s for scores in scores_by_doc.values() for s in scores]
    assert all_scores
    if mode == "avg":
        return sum(all_scores) / len(all_scores)
    if mode == "max":
        return max(all_scores)
    assert mode == "avg_max"
    best_per_doc = [max(scores) for scores in scores_by_doc.values() if scores]
    if denominator == "containing_docs":
        return sum(best_per_doc) / len(best_per_doc)
    assert denominator == "all_docs" and n_docs
    return sum(best_per_doc) / n_docs


def brute_force_df(mentions: list[tuple[str, str, str]],
                   surface_key, accepted: set[str] | None = None) -> dict[str, int]:
    """df per canonical surface from (surface, tag, doc_id) triples.

    `surface_key` is the canonicalization function under test's *contract*
    (passed in so this stays a pure counting oracle).
    """
    docs: dict[str, set[str]] = {}
    for surface, tag, doc_id in mentions:
        if accepted is not None and tag not in accepted:
            continue
        key = surface_key(surface)
        if key:
            docs.setdefault(key, set()).add(doc_id)
    return {key: len(ids) for key, ids in docs.items()}


def reference_fold_accents(text: str) -> str:
    """NFD decomposition with every combining mark (category Mn) dropped."""
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")


_APOSTROPHES = re.compile("[\u2018\u2019\u201a\u201b]")
_WS = re.compile(r"\s+")
_OUTER_PUNCT = "\"'`.,;:!?()[]{}<>-_/\\|~*&^%$#@+="


def reference_canonicalize(surface: str) -> str:
    """Lowercase, accent-fold, collapse whitespace, strip outer punctuation."""
    folded = reference_fold_accents(_APOSTROPHES.sub("'", surface)).lower()
    return _WS.sub(" ", folded).strip().strip(_OUTER_PUNCT + " ")


def _contains_tokens(haystack: str, needle: str) -> bool:
    hay = haystack.split()
    ndl = needle.split()
    if not ndl or len(ndl) > len(hay):
        return False
    return any(hay[i:i + len(ndl)] == ndl for i in range(len(hay) - len(ndl) + 1))


def reference_match_answer(candidate: str, gold_answers, match_policy: str) -> bool:
    """Canonical equality with any gold answer; under "containment" also
    either side's token list occurring as a contiguous run of the other's,
    found by comparing token slices at every offset."""
    golds = {reference_canonicalize(g) for g in gold_answers}
    cand = reference_canonicalize(candidate)
    if not cand:
        return False
    for gold in golds:
        if cand == gold:
            return True
        if match_policy == "containment" and (
                _contains_tokens(cand, gold) or _contains_tokens(gold, cand)):
            return True
    return False


_WORD = re.compile(r"\w+(?:'\w+)?")


def reference_gazetteer_scan(text: str, lexicon: dict[str, str]
                             ) -> list[tuple[str, str, int, int]]:
    """Longest-match gazetteer scan of one sentence, as (surface, tag,
    start, end) in text order.

    Every token is canonicalised on its own, and at every token every span
    length up to the longest entry is tried, longest first; a match skips
    the tokens it covers.
    """
    entries: dict[tuple[str, ...], str] = {}
    for surface, tag in lexicon.items():
        key = tuple(reference_canonicalize(surface).split())
        if key:
            entries[key] = tag
    max_len = max((len(k) for k in entries), default=0)
    tokens = [(m.group(0), m.start(), m.end()) for m in _WORD.finditer(text)]
    keys = [reference_canonicalize(tok) for tok, _, _ in tokens]
    found: list[tuple[str, str, int, int]] = []
    i = 0
    while i < len(tokens):
        match_len = 0
        match_tag = ""
        for length in range(min(max_len, len(tokens) - i), 0, -1):
            tag = entries.get(tuple(keys[i:i + length]))
            if tag is not None:
                match_len, match_tag = length, tag
                break
        if match_len:
            start = tokens[i][1]
            end = tokens[i + match_len - 1][2]
            found.append((text[start:end], match_tag, start, end))
            i += match_len
        else:
            i += 1
    return found


_BOUNDARY = re.compile(r"([.!?]+)(\s+)(?=[A-Z0-9\"'(])")
_LAST_WORD = re.compile(r"([\w.]+)$")


def reference_split_sentences(text: str, abbreviations: frozenset[str]) -> list[str]:
    """Rule-based sentence split: break after terminators followed by
    whitespace and an upper-case, digit, quote or parenthesis start,
    unless a period follows a word in `abbreviations`. The word before a
    terminator is `[\\w.]+` anchored by `$` to the terminator, searched
    forward from the sentence start."""
    if not text.strip():
        return []
    pieces: list[str] = []
    start = 0
    for match in _BOUNDARY.finditer(text):
        end = match.end(1)
        if "." in match.group(1):
            before = _LAST_WORD.search(text, start, match.start(1))
            if before and before.group(1).lower().rstrip(".") in abbreviations:
                continue
        pieces.append(text[start:end])
        start = match.end(2)
    pieces.append(text[start:])
    return [p.strip() for p in pieces if p.strip()]


def reference_word_average(text: str, vectors: dict[str, np.ndarray],
                           dim: int) -> np.ndarray:
    """Mean of the rows of the text's tokens, each found by `finditer` on
    the text and then lower-cased; the zero vector when none has a row.
    `vectors` is keyed by lower-cased words."""
    rows = []
    for match in _WORD.finditer(text):
        token = match.group(0).lower()
        if token in vectors:
            rows.append(vectors[token])
    return np.mean(rows, axis=0) if rows else np.zeros(dim)


def reference_cosine(a, b) -> float:
    """Cosine similarity of two non-empty 1-d vectors of one dimension,
    clamped to [-1, 1]; 0 when either vector has zero norm."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.size == 0 or b.ndim != 1 or b.size == 0:
        raise ValueError("embedding must be a non-empty 1-d vector")
    if a.size != b.size:
        raise ValueError(f"dimension mismatch: {a.size} vs {b.size}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    value = float(np.dot(a, b) / (na * nb))
    return max(-1.0, min(1.0, value))


def reference_preprocess_text(raw: str, table: dict[str, str]) -> str:
    """Curly apostrophes to ', accent fold, then expand every contraction
    of `table` (case-insensitive, whole words, longest key first, first
    letter's case kept)."""
    text = reference_fold_accents(_APOSTROPHES.sub("'", raw))
    keys = sorted(table, key=len, reverse=True)
    pattern = re.compile(r"\b(?:" + "|".join(re.escape(k) for k in keys) + r")\b",
                         re.IGNORECASE)
    lowered = {k.lower(): v for k, v in table.items()}

    def expand(match: re.Match) -> str:
        expansion = lowered[match.group(0).lower()]
        if match.group(0)[0].isupper():
            return expansion[0].upper() + expansion[1:]
        return expansion

    return pattern.sub(expand, text)


def reference_rank(candidates: list[tuple[str, list[tuple[str, float]], int]],
                   n_docs: int, aggregation: str, denominator: str,
                   combine: str, alpha: float, beta: float, digits: int,
                   max_groups: int = 5
                   ) -> tuple[tuple[frozenset[str], ...], tuple[float, ...]]:
    """Tie groups and their scores, best first, for candidates given as
    (surface, [(doc_id, sentence score), ...] in sentence order, df).

    Each semantic score is aggregated with the package's own float
    operations (np.mean, np.max, a left-to-right sum of per-document
    maxima), clamped to [-1, 1] and range-checked; combined with
    df / n_docs; rounded to `digits`; and equal rounded scores share a
    group.
    """
    scored = []
    for surface, evidence, df in candidates:
        scores = [score for _doc_id, score in evidence]
        assert scores
        if aggregation == "avg":
            semantic = float(np.mean(scores))
        elif aggregation == "max":
            semantic = float(np.max(scores))
        else:
            assert aggregation == "avg_max"
            best: dict[str, float] = {}
            for doc_id, score in evidence:
                if doc_id not in best or score > best[doc_id]:
                    best[doc_id] = score
            total = float(sum(best.values()))
            if denominator == "containing_docs":
                semantic = total / len(best)
            else:
                assert denominator == "all_docs"
                semantic = total / n_docs
        semantic = max(-1.0, min(1.0, semantic))
        assert -1.0 <= semantic <= 1.0
        assert 0 <= df <= n_docs
        df_norm = df / n_docs
        if combine == "additive":
            assert 0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0
            combined = alpha * semantic + beta * df_norm
        else:
            assert combine == "multiplicative"
            combined = semantic * df_norm
        scored.append((surface, round(combined, digits)))
    groups: dict[float, set[str]] = {}
    for surface, score in scored:
        groups.setdefault(score, set()).add(surface)
    best_scores = sorted(groups, reverse=True)[:max_groups]
    return (tuple(frozenset(groups[score]) for score in best_scores),
            tuple(best_scores))


def reference_centroids(classes: tuple[str, ...], labels: Sequence[str],
                        matrix: np.ndarray) -> np.ndarray:
    """Class centroids of the rows of `matrix`, L2-normalized where
    nonzero: each row is added to its label's sum in row order."""
    out = np.zeros((len(classes), matrix.shape[1]))
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros(len(classes))
    for label, row in zip(labels, matrix):
        out[index[label]] += row
        counts[index[label]] += 1
    out /= np.maximum(counts, 1.0)[:, None]
    norms = np.linalg.norm(out, axis=1)
    nonzero = norms > 0
    out[nonzero] /= norms[nonzero, None]
    return out
