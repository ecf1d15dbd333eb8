import json
import random

import pytest

from datagen import NOT_QUESTION_IDS, question_id_error

from entityqa.corpus import write_jsonl
from entityqa.errors import ParseError
from entityqa.ranking import (
    ALPHA_BETA_GRID,
    MAX_RANK_GROUPS,
    RankingConfig,
    TiedRun,
    _combine_each,
    load_runs,
    rank_answers,
    write_runs,
)


# ---------------------------------------------------------------------------
# combine
# ---------------------------------------------------------------------------

def test_combine_multiplicative_example():
    cfg = RankingConfig(combine_mode="multiplicative")
    assert _combine_each([0.5], [5], 10, cfg) == [pytest.approx(0.25)]


def test_combine_additive_example():
    cfg = RankingConfig(combine_mode="additive", alpha=0.1, beta=0.1)
    assert _combine_each([1.0], [10], 10, cfg) == [pytest.approx(0.2)]


def test_combine_multiplicative_zero_df_absorbs():
    cfg = RankingConfig(combine_mode="multiplicative")
    assert _combine_each([0.99], [0], 10, cfg) == [0.0]


def test_combine_rejects_bad_counts():
    cfg = RankingConfig()
    with pytest.raises(ValueError):
        _combine_each([0.5], [1], 0, cfg)
    with pytest.raises(ValueError):
        _combine_each([0.5], [11], 10, cfg)


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
    df_list = [dfs[s] if dfs else n_docs for s in values]
    return rank_answers("q1", list(values), list(values.values()), df_list,
                        n_docs, cfg or RankingConfig())


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
    # Whatever n_docs is: an empty document set has no candidates.
    for n_docs in (10, 0):
        run = rank_answers("q1", [], [], [], n_docs, RankingConfig())
        assert run == TiedRun(question_id="q1", groups=(), scores=())


def test_rank_rejects_unparallel_inputs():
    with pytest.raises(ValueError):
        rank_answers("q1", ["a", "b"], [0.5], [1, 1], 10, RankingConfig())


def test_multiplicative_scale_covariance():
    rng = random.Random(7)
    cfg = RankingConfig(combine_mode="multiplicative")
    for _ in range(200):
        n = rng.randint(2, 12)
        names = [f"e{i}" for i in range(n)]
        sems = {s: rng.uniform(0, 1) for s in names}
        dfs = {s: rng.randint(0, 10) for s in names}
        c = rng.uniform(0.1, 9.0)
        df_list = [dfs[s] for s in names]
        base = _combine_each([sems[s] for s in names], df_list, 10, cfg)
        scaled = _combine_each([c * sems[s] for s in names], df_list, 10, cfg)
        argsort = lambda xs: sorted(range(n), key=lambda i: (-xs[i], names[i]))
        assert argsort(base) == argsort(scaled)


def test_additive_matches_closed_form_brute_force():
    rng = random.Random(13)
    for _ in range(200):
        alpha, beta = rng.choice(ALPHA_BETA_GRID)
        cfg = RankingConfig(combine_mode="additive", alpha=alpha, beta=beta)
        n = rng.randint(1, 10)
        sems, dfs = zip(*[(rng.uniform(-1, 1), rng.randint(0, 10))
                          for _ in range(n)])
        got = _combine_each(sems, dfs, 10, cfg)
        assert got == [pytest.approx(alpha * sem + beta * df / 10)
                       for sem, df in zip(sems, dfs)]


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
                scores=(0.9, 0.5)),
        TiedRun(question_id="q2", groups=(), scores=()),
    ]
    path = tmp_path / "runs.jsonl"
    write_runs(path, runs, "abc123")
    # The writer stamps its one config id on every line.
    assert [json.loads(line)["config_id"] for line in path.read_text().splitlines()] == \
        ["abc123", "abc123"]
    again = load_runs(path)
    assert again == runs


@pytest.mark.parametrize("value, shown", NOT_QUESTION_IDS)
def test_load_runs_takes_ids_as_strings_or_integers(tmp_path, value, shown):
    path = tmp_path / "runs.jsonl"
    rows = [{"question_id": "q1", "groups": [], "scores": []},
            {"question_id": 7, "groups": [], "scores": []}]
    write_jsonl(path, rows)
    assert [run.question_id for run in load_runs(path)] == ["q1", "7"]
    write_jsonl(path, rows + [{"question_id": value, "groups": [], "scores": []}])
    with pytest.raises(ParseError, match=question_id_error("runs.jsonl", 3, shown)):
        load_runs(path)


@pytest.mark.parametrize("groups, scores, reason", [
    ("ab", [0.9, 0.1], "groups must be a JSON array, not 'ab'"),
    (["ab"], [0.9], "a group must be a JSON array, not 'ab'"),
    ([["a"], ["b"]], "91", "scores must be a JSON array, not '91'"),
    ([[None, ["a"]]], [0.9], "element 0 of a group must be a string, not None"),
    ([["a"]], ["0.9"], "element 0 of scores must be a number, not '0.9'"),
    ([["a"]], [True], "element 0 of scores must be a number, not True"),
], ids=["groups-ab-scores0", "a group-groups1-scores1", "scores-groups2-91",
        "member-null", "score-string", "score-bool"])
def test_load_runs_rejects_a_string_for_a_list(tmp_path, groups, scores, reason):
    # A string would be read as its characters: "ab" as the groups {a}
    # and {b}, "91" as the scores (9.0, 1.0). A member is a string, not
    # null ("None") or a list ("['a']"), and a score is a number.
    path = tmp_path / "runs.jsonl"
    write_jsonl(path, [{"question_id": "q1", "groups": [], "scores": []},
                       {"question_id": "q2", "groups": groups, "scores": scores}])
    with pytest.raises(ParseError) as err:
        load_runs(path)
    assert str(err.value) == f"{path}:2: {reason}"


def test_load_runs_rejects_malformed(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text('{"question_id": "q1", "groups": [["a"]], "scores": []}\n')
    with pytest.raises(ParseError) as err:
        load_runs(path)
    assert ":1:" in str(err.value)
