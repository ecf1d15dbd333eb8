import random

import pytest

from entityqa.entities import CandidateEntity, EntityMention
from entityqa.errors import ParseError
from entityqa.ranking import (
    ALPHA_BETA_GRID,
    MAX_RANK_GROUPS,
    RankingConfig,
    TiedRun,
    combine,
    load_runs,
    rank_answers,
    score_candidates,
    write_runs,
)
from entityqa.scoring import SemanticScore


def _semantic(surface: str, value: float) -> SemanticScore:
    entity = CandidateEntity(
        canonical_surface=surface,
        mentions=(EntityMention(surface=surface, tag="PERSON", doc_id="q#1",
                                sentence_index=0, start=0, end=1),),
        df=1, tags=(("PERSON", 1),))
    return SemanticScore(entity=entity, mode="max", value=value)


# ---------------------------------------------------------------------------
# combine
# ---------------------------------------------------------------------------

def test_combine_multiplicative_example():
    cfg = RankingConfig(combine_mode="multiplicative")
    assert combine(0.5, 5, 10, cfg) == pytest.approx(0.25)


def test_combine_additive_example():
    cfg = RankingConfig(combine_mode="additive", alpha=0.1, beta=0.1)
    assert combine(1.0, 10, 10, cfg) == pytest.approx(0.2)


def test_combine_multiplicative_zero_df_absorbs():
    cfg = RankingConfig(combine_mode="multiplicative")
    assert combine(0.99, 0, 10, cfg) == 0.0


def test_combine_rejects_bad_counts():
    cfg = RankingConfig()
    with pytest.raises(ValueError):
        combine(0.5, 1, 0, cfg)
    with pytest.raises(ValueError):
        combine(0.5, 11, 10, cfg)


def test_additive_config_requires_weights_in_range():
    with pytest.raises(ValueError):
        RankingConfig(combine_mode="additive", alpha=0.0, beta=0.1)
    with pytest.raises(ValueError):
        RankingConfig(combine_mode="additive", alpha=0.1, beta=1.5)


def test_grid_has_49_points():
    assert len(ALPHA_BETA_GRID) == 49
    assert (0.1, 0.1) in ALPHA_BETA_GRID
    assert (0.7, 0.7) in ALPHA_BETA_GRID
    assert all(0.1 <= a <= 0.7 and 0.1 <= b <= 0.7 for a, b in ALPHA_BETA_GRID)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def _rank(values: dict[str, float], dfs: dict[str, int] | None = None,
          n_docs: int = 10, cfg: RankingConfig | None = None) -> TiedRun:
    cfg = cfg or RankingConfig()
    semantics = [_semantic(s, v) for s, v in values.items()]
    df_list = [dfs[s] if dfs else n_docs for s in values]
    scored = score_candidates(semantics, df_list, n_docs, cfg)
    return rank_answers(scored, "q1", cfg)


def test_rank_grouping_example():
    run = _rank({"a": 0.9, "b": 0.9, "c": 0.5})
    assert run.groups == (frozenset({"a", "b"}), frozenset({"c"}))


def test_rank_keeps_five_groups():
    values = {f"e{i}": 0.1 * i for i in range(1, 8)}  # 7 distinct scores
    run = _rank(values)
    assert len(run.groups) == MAX_RANK_GROUPS
    assert list(run.scores) == sorted(run.scores, reverse=True)
    # the retained groups are the five highest
    assert "e7" in run.groups[0]
    assert "e3" in run.groups[4]
    assert all("e1" not in g and "e2" not in g for g in run.groups)


def test_rank_full_tie_single_group():
    values = {f"e{i}": 0.42 for i in range(30)}
    run = _rank(values)
    assert len(run.groups) == 1
    assert len(run.groups[0]) == 30


def test_rank_rounds_before_grouping():
    # combined values identical to 9 digits must share a group
    run = _rank({"a": 0.123456789123, "b": 0.123456789456, "c": 0.2})
    assert run.groups[1] == frozenset({"a", "b"})


def test_rank_empty_input_gives_empty_run():
    run = rank_answers([], "q1", RankingConfig())
    assert run.groups == ()
    assert run.scores == ()


def test_multiplicative_scale_covariance():
    rng = random.Random(7)
    cfg = RankingConfig(combine_mode="multiplicative")
    for _ in range(200):
        n = rng.randint(2, 12)
        names = [f"e{i}" for i in range(n)]
        sems = {s: rng.uniform(0, 1) for s in names}
        dfs = {s: rng.randint(0, 10) for s in names}
        c = rng.uniform(0.1, 9.0)
        base = [combine(sems[s], dfs[s], 10, cfg) for s in names]
        scaled = [combine(c * sems[s], dfs[s], 10, cfg) for s in names]
        argsort = lambda xs: sorted(range(n), key=lambda i: (-xs[i], names[i]))
        assert argsort(base) == argsort(scaled)


def test_additive_matches_closed_form_brute_force():
    rng = random.Random(13)
    for _ in range(200):
        alpha, beta = rng.choice(ALPHA_BETA_GRID)
        cfg = RankingConfig(combine_mode="additive", alpha=alpha, beta=beta)
        n = rng.randint(1, 10)
        for _i in range(n):
            sem = rng.uniform(-1, 1)
            df = rng.randint(0, 10)
            got = combine(sem, df, 10, cfg)
            assert got == pytest.approx(alpha * sem + beta * df / 10)


# ---------------------------------------------------------------------------
# TiedRun validation and file round-trip
# ---------------------------------------------------------------------------

def test_tiedrun_rejects_mismatched_scores():
    with pytest.raises(ValueError):
        TiedRun(question_id="q", groups=(frozenset({"a"}),), scores=())


def test_tiedrun_rejects_non_decreasing_scores():
    with pytest.raises(ValueError):
        TiedRun(question_id="q",
                groups=(frozenset({"a"}), frozenset({"b"})),
                scores=(0.1, 0.5))
    with pytest.raises(ValueError):
        TiedRun(question_id="q",
                groups=(frozenset({"a"}), frozenset({"b"})),
                scores=(0.5, 0.5))


def test_tiedrun_rejects_overlapping_groups():
    with pytest.raises(ValueError):
        TiedRun(question_id="q",
                groups=(frozenset({"a", "b"}), frozenset({"b"})),
                scores=(0.5, 0.1))


def test_tiedrun_rejects_empty_group():
    with pytest.raises(ValueError):
        TiedRun(question_id="q", groups=(frozenset(),), scores=(0.5,))


def test_run_file_roundtrip(tmp_path):
    runs = [
        TiedRun(question_id="q1",
                groups=(frozenset({"a", "b"}), frozenset({"c"})),
                scores=(0.9, 0.5), config_id="abc123"),
        TiedRun(question_id="q2", groups=(), scores=(), config_id="abc123"),
    ]
    path = tmp_path / "runs.jsonl"
    write_runs(path, runs)
    again = load_runs(path)
    assert again == runs


def test_load_runs_rejects_malformed(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text('{"question_id": "q1", "groups": [["a"]], "scores": []}\n')
    with pytest.raises(ParseError) as err:
        load_runs(path)
    assert ":1:" in str(err.value)
