import csv
import json
import math
import os
import random
import stat
from dataclasses import asdict, replace
from itertools import chain

import pytest

from datagen import NOT_QUESTION_IDS, question_id_error
from oracles import (classical_from_counts, classical_reference,
                     enumerate_tie_metrics, mc_tie_metrics,
                     reference_match_answer, tie_aware_from_counts)

from entityqa.corpus import (Document, DocumentSet, canonicalize, write_documents,
                             write_jsonl)
from entityqa.errors import DataError, ParseError
from entityqa.evaluation import (
    METRICS,
    DiffTable,
    Judgment,
    MetricReport,
    SignificanceResult,
    _t_two_sided_p,
    compare_reports,
    evaluate_run,
    load_qrels,
    match_answer,
    matching_surfaces,
    paired_t_test,
    per_query_diff,
    run_metrics,
    write_diff_csv,
    write_report_csv,
    write_report_json,
)
from entityqa.experiments import (AblationRow, LatencyReport,
                                  write_ablation_json, write_latency_json,
                                  write_significance_json)
from entityqa.pipeline import PipelineConfig, PipelineResult, write_run_file
from entityqa.qtype import LabeledQuestion, train_classifier
from entityqa.ranking import TiedRun, write_runs


def _judgment(*gold, policy="containment"):
    return Judgment(question_id="q1", gold_answers=frozenset(gold),
                    match_policy=policy)


def _run(groups, qid="q1"):
    """groups: list of iterables of surfaces, scores auto-descending."""
    n = len(groups)
    return TiedRun(
        question_id=qid,
        groups=tuple(frozenset(g) for g in groups),
        scores=tuple(1.0 - i / (n + 1) for i in range(n)),
    )


def _labeled_run(group_sizes, group_relevant, qid="q1"):
    """A run whose members are rel-i / irr-i markers plus its judgment."""
    groups = []
    rel_surfaces = []
    k = 0
    for gi, (n, r) in enumerate(zip(group_sizes, group_relevant)):
        members = []
        for j in range(n):
            name = f"g{gi} m{k}"
            k += 1
            members.append(name)
            if j < r:
                rel_surfaces.append(name)
        groups.append(members)
    run = _run(groups, qid=qid)
    judgment = Judgment(question_id=qid,
                        gold_answers=frozenset(rel_surfaces) or frozenset({"zz"}),
                        match_policy="exact")
    return run, judgment


def _metrics(run, judgment, tmrr_mode="expected_reciprocal"):
    """run_metrics of a run scored against a judgment, in METRICS order."""
    relevant = matching_surfaces(chain.from_iterable(run.groups), judgment)
    return run_metrics(run.groups, relevant, tmrr_mode)


# ---------------------------------------------------------------------------
# judgments and matching
# ---------------------------------------------------------------------------

def test_judgment_canonicalizes_gold():
    j = _judgment("The Sixth Sense")
    assert "the sixth sense" in j.gold_answers


def test_judgment_requires_gold():
    with pytest.raises(ValueError):
        Judgment(question_id="q1", gold_answers=frozenset())


def test_match_exact_equality_after_canonicalization():
    j = _judgment("The Sixth Sense", policy="exact")
    assert match_answer("the sixth sense", j)
    assert not match_answer("sixth sense", j)


def test_match_containment_both_directions():
    j = _judgment("Simpson")
    assert match_answer("webb simpson", j)
    j2 = _judgment("Webb Simpson")
    assert match_answer("simpson", j2)


def test_match_containment_is_token_level():
    j = _judgment("rome")
    assert not match_answer("romeo", j)
    assert not match_answer("chrome plating", j)
    assert match_answer("ancient rome", j)


def test_match_negative():
    j = _judgment("burkina faso")
    assert not match_answer("attack", j)


def test_judgment_padded_forms_are_not_fields():
    j = _judgment("Ancient  Rome", "Zoë")
    assert asdict(j) == {"question_id": "q1", "match_policy": "containment",
                         "gold_answers": frozenset({"ancient rome", "zoe"})}
    assert j == _judgment("ancient rome", "Zoe")
    assert hash(j) == hash(_judgment("ancient rome", "Zoe"))
    assert sorted(j.padded_golds) == [" ancient rome ", " zoe "]


# Each token comes in spellings that canonicalise alike: case, curly and
# straight apostrophes, precomposed and combining accents.
_TOKEN_SPELLINGS = (
    ("rome", "Rome", "ROME"), ("romeo", "Romeo"), ("chrome",),
    ("o'neil", "O\u2019Neil", "o\u2018neil"),
    ("beyonce", "Beyonc\u00e9", "Beyonce\u0301"), ("zoe", "Zo\u00eb", "Zoe\u0308"),
    ("new",), ("york", "York"), ("ancient",), ("the", "The"), ("a",),
)
_SEPARATORS = (" ", "  ", "\t", "\x1c", "\u00a0", "\u3000", " \n ")
_OUTER = ("", "", "", '"', "(", ")", "-", "...", "'", "?!", "\u2019")


def _random_surface(rng: random.Random, max_tokens: int) -> str:
    tokens = [rng.choice(rng.choice(_TOKEN_SPELLINGS))
              for _ in range(rng.randint(1, max_tokens))]
    if len(tokens) > 1 and rng.random() < 0.2:
        tokens.insert(rng.randrange(len(tokens)), rng.choice(tokens))  # repeat
    if rng.random() < 0.1:
        i = rng.randrange(len(tokens))
        tokens[i] += rng.choice((",", "-", "."))  # punctuation inside
    text = "".join(tok + rng.choice(_SEPARATORS) for tok in tokens[:-1]) + tokens[-1]
    return rng.choice(_OUTER) + rng.choice(("", " ")) + text + rng.choice(_OUTER)


@pytest.mark.parametrize("policy", ["exact", "containment"])
def test_match_answer_equals_reference_randomized(policy):
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        golds = [_random_surface(rng, 3) for _ in range(rng.randint(1, 3))]
        judgment = _judgment(*golds, policy=policy)
        for candidate in [_random_surface(rng, 4), rng.choice(golds),
                          rng.choice(("", " ", "--", "\t()"))]:
            expected = reference_match_answer(candidate, golds, policy)
            assert match_answer(candidate, judgment) is expected, (candidate, golds)
            outcomes[expected] += 1
    assert min(outcomes.values()) > 1000


@pytest.mark.parametrize("golds, candidate, expected", [
    # The shortest gold inside a candidate one token longer.
    (("a",), "a b", True),
    (("a",), "b a", True),
    (("a", "b c d"), "c a", True),
    # Golds of different lengths in one judgment: the shorter or the
    # longer one inside the candidate, or neither.
    (("a b", "c d e f"), "x c d e f", True),
    (("a b c", "d"), "x a b c", True),
    (("a b c", "d e"), "e d", False),
    (("a b c", "d e"), "x a b", False),
    # A candidate inside a longer gold, and of the same length as a gold.
    (("a b c d",), "b c", True),
    (("a", "b c d"), "c", True),
    (("a b", "c d"), "b c", False),
    (("ab",), "a", False),
], ids=["shortest-first", "shortest-last", "shortest-of-two", "longer-of-two",
        "shorter-of-two", "neither-reversed", "neither-prefix", "inside-gold",
        "inside-longer-gold", "across-golds", "inside-a-token"])
def test_match_answer_length_guard_boundaries(golds, candidate, expected):
    judgment = _judgment(*golds)
    assert match_answer(candidate, judgment) is expected
    assert reference_match_answer(candidate, golds, "containment") is expected


def test_load_qrels(tmp_path):
    path = tmp_path / "qrels.jsonl"
    rows = [{"question_id": "q1", "gold_answers": ["A", "B"]},
            {"question_id": "q2", "gold_answers": ["C"]}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    judgments = load_qrels(path)
    assert set(judgments) == {"q1", "q2"}
    assert judgments["q1"].gold_answers == frozenset({"a", "b"})


def test_load_qrels_rejects_a_string_for_the_gold_list(tmp_path):
    # A string would be read as its characters: the gold set {r, o, m, e};
    # and a gold answer is a string, not null ("none") or a number.
    path = tmp_path / "qrels.jsonl"
    for golds, reason in [("Rome", "gold_answers must be a JSON array, not 'Rome'"),
                          ([None, 7], "element 0 of gold_answers must be a string, not None"),
                          (["Rome", 7], "element 1 of gold_answers must be a string, not 7")]:
        write_jsonl(path, [{"question_id": "q1", "gold_answers": ["Paris"]},
                           {"question_id": "q2", "gold_answers": golds}])
        with pytest.raises(ParseError) as err:
            load_qrels(path)
        assert str(err.value) == f"{path}:2: question 'q2': {reason}"


def test_load_qrels_names_the_line_of_a_gold_answer_empty_after_canonicalisation(tmp_path):
    path = tmp_path / "qrels.jsonl"
    write_jsonl(path, [{"question_id": "q1", "gold_answers": ["Paris"]},
                       {"question_id": "q2", "gold_answers": ["Rome", "__"]}])
    with pytest.raises(ParseError) as err:
        load_qrels(path)
    assert str(err.value) == f"{path}:2: gold answer empty after normalization for 'q2'"


def test_load_qrels_of_blank_lines_is_a_data_error(tmp_path):
    # No line holds the fault, so the message names the file only.
    path = tmp_path / "qrels.jsonl"
    for text in ("", "\n  \n\n"):
        path.write_text(text)
        with pytest.raises(DataError) as err:
            load_qrels(path)
        assert type(err.value) is DataError
        assert str(err.value) == f"{path}: no judgments"


@pytest.mark.parametrize("value, shown", NOT_QUESTION_IDS)
def test_load_qrels_takes_ids_as_strings_or_integers(tmp_path, value, shown):
    path = tmp_path / "qrels.jsonl"
    rows = [{"question_id": "q1", "gold_answers": ["A"]},
            {"question_id": 7, "gold_answers": ["B"]}]
    write_jsonl(path, rows)
    assert list(load_qrels(path)) == ["q1", "7"]
    write_jsonl(path, rows + [{"question_id": value, "gold_answers": ["C"]}])
    with pytest.raises(ParseError, match=question_id_error("qrels.jsonl", 3, shown)):
        load_qrels(path)


# ---------------------------------------------------------------------------
# classical metrics
# ---------------------------------------------------------------------------

def test_classical_table_shape():
    # relevant answers only in the fifth group
    run, judgment = _labeled_run([2, 20, 1, 1, 2], [0, 0, 0, 0, 2])
    mrr, p1, hit = _metrics(run, judgment)[:3]
    assert mrr == pytest.approx(0.2)
    assert p1 == 0.0
    assert hit == 1.0


def test_classical_first_group_relevant():
    run, judgment = _labeled_run([1, 3], [1, 0])
    assert _metrics(run, judgment)[:3] == (1.0, 1.0, 1.0)


def test_classical_no_relevant():
    run, judgment = _labeled_run([2, 3], [0, 0])
    assert _metrics(run, judgment)[:3] == (0.0, 0.0, 0.0)


def test_classical_scans_only_five_groups():
    run, judgment = _labeled_run([1] * 6, [0, 0, 0, 0, 0, 1])
    assert _metrics(run, judgment)[:3] == (0.0, 0.0, 0.0)


def test_classical_empty_run():
    run = TiedRun(question_id="q1", groups=(), scores=())
    judgment = _judgment("anything")
    assert _metrics(run, judgment)[:3] == (0.0, 0.0, 0.0)


def test_classical_matches_reference_on_random_shapes():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randint(1, 6)
        sizes = [rng.randint(1, 5) for _ in range(k)]
        rel = [rng.randint(0, n) for n in sizes]
        run, judgment = _labeled_run(sizes, rel)
        assert _metrics(run, judgment)[:3] == \
            classical_reference(rel)


# ---------------------------------------------------------------------------
# tie-aware metrics
# ---------------------------------------------------------------------------

def test_tie_aware_table_shape():
    run, judgment = _labeled_run([2, 20, 1, 1, 2], [0, 0, 0, 0, 2])
    tmrr, tp1, thit = _metrics(run, judgment)[3:]
    assert tmrr == pytest.approx(0.04)
    assert tp1 == 0.0
    assert thit == 0.0


def test_tie_aware_half_relevant_first_group():
    run, judgment = _labeled_run([2], [1])
    _tmrr, tp1, _thit = _metrics(run, judgment)[3:]
    assert tp1 == pytest.approx(0.5)


def test_tie_aware_hit_worked_example():
    # 3 irrelevant singles, then 4 items with 1 relevant: only 2 of the 5
    # cutoff slots reach the second group, so tHit@5 = 1 - C(3,2)/C(4,2).
    run, judgment = _labeled_run([3, 4], [0, 1])
    _tmrr, _tp1, thit = _metrics(run, judgment)[3:]
    assert thit == pytest.approx(0.5)


def test_tie_aware_no_relevant_zeroes():
    run, judgment = _labeled_run([3, 3], [0, 0])
    assert _metrics(run, judgment)[3:] == (0.0, 0.0, 0.0)


def test_tie_aware_empty_run():
    run = TiedRun(question_id="q1", groups=(), scores=())
    assert _metrics(run, _judgment("x"))[3:] == (0.0, 0.0, 0.0)


def test_tie_aware_matches_enumeration_oracle():
    rng = random.Random(11)
    for _ in range(150):
        k = rng.randint(1, 6)
        sizes = [rng.randint(1, 8) for _ in range(k)]
        rel = [rng.randint(0, n) for n in sizes]
        run, judgment = _labeled_run(sizes, rel)
        got = _metrics(run, judgment)[3:]
        want = enumerate_tie_metrics(sizes, rel)
        for g, w in zip(got, want):
            assert math.isclose(g, w, abs_tol=1e-12)


def test_tie_aware_matches_mc_oracle_spot_checks():
    cases = [
        ([2, 20, 1, 1, 2], [0, 0, 0, 0, 2]),
        ([3, 4], [0, 1]),
        ([10], [3]),
        ([5, 5, 5], [0, 2, 5]),
    ]
    for sizes, rel in cases:
        run, judgment = _labeled_run(sizes, rel)
        got = _metrics(run, judgment)[3:]
        want = mc_tie_metrics(sizes, rel, n_samples=200_000, seed=4)
        for g, w in zip(got, want):
            assert math.isclose(g, w, abs_tol=0.01)


def test_singleton_runs_tie_aware_equals_classical():
    rng = random.Random(19)
    for _ in range(200):
        k = rng.randint(1, 5)
        sizes = [1] * k
        rel = [1 if rng.random() < 0.3 else 0 for _ in range(k)]
        run, judgment = _labeled_run(sizes, rel)
        values = _metrics(run, judgment)
        assert values[:3] == values[3:]  # bit-for-bit


def test_tmrr_reciprocal_expected_mode():
    # first relevant group: n=4, r=2 after 3 singles -> E[pos] = 3 + 5/3
    run, judgment = _labeled_run([3, 4], [0, 2])
    tmrr, _tp1, _thit = _metrics(
        run, judgment, tmrr_mode="reciprocal_expected")[3:]
    assert tmrr == pytest.approx(1.0 / (3 + 5 / 3))


def test_run_metrics_matches_two_scan_reference_bitwise():
    """run_metrics equals the old two-scan metric code (tests/oracles.py),
    float.hex for float.hex, on 100,000 seeded random layouts: 0-9 groups
    of 1-30 members, relevant surfaces also outside the groups, both tMRR
    modes."""
    rng = random.Random(12)
    names = [f"s{i}" for i in range(9 * 30 + 5)]
    past_fifth_group = past_fifth_position = 0
    for _ in range(100_000):
        share = rng.choice((0.05, 0.2, 0.5, 1.0))
        groups, counts, relevant = [], [], []
        start = 0
        for _g in range(rng.randint(0, 9)):
            n = rng.randint(1, 30)
            r = rng.randint(1, n) if rng.random() < share else 0
            groups.append(frozenset(names[start:start + n]))
            relevant += names[start:start + r]
            counts.append((n, r))
            start += n
        relevant += names[start:start + rng.randint(0, 5)]
        first = next((k for k, (_n, r) in enumerate(counts) if r), None)
        if first is not None:
            past_fifth_group += first >= 5
            past_fifth_position += sum(n for n, _r in counts[:first]) >= 5
        for mode in ("expected_reciprocal", "reciprocal_expected"):
            got = run_metrics(groups, frozenset(relevant), mode)
            want = classical_from_counts(counts) + \
                tie_aware_from_counts(counts, mode)
            assert [v.hex() for v in got] == [v.hex() for v in want], \
                (counts, mode, got, want)
    assert past_fifth_group > 1000 and past_fifth_position > 10_000


def test_run_metrics_rejects_unknown_tmrr_mode():
    for groups in ((), (frozenset({"a"}),)):
        with pytest.raises(ValueError, match="unknown tMRR mode 'bogus'"):
            run_metrics(groups, frozenset({"a"}), "bogus")


def test_tie_aware_bounds_and_partial_order():
    rng = random.Random(23)
    for _ in range(200):
        sizes = [rng.randint(1, 10) for _ in range(rng.randint(1, 5))]
        rel = [rng.randint(0, n) for n in sizes]
        run, judgment = _labeled_run(sizes, rel)
        tmrr, tp1, thit = _metrics(run, judgment)[3:]
        assert 0.0 <= tmrr <= 1.0
        assert 0.0 <= tp1 <= 1.0
        assert 0.0 <= thit <= 1.0
        assert tp1 <= thit + 1e-12


# ---------------------------------------------------------------------------
# evaluate_run
# ---------------------------------------------------------------------------

def _report(values_by_q: dict[str, float], run_id="r") -> MetricReport:
    qids = tuple(values_by_q)
    series = tuple(values_by_q[q] for q in qids)
    return MetricReport(run_id=run_id, question_ids=qids,
                        values={m: series for m in METRICS})


def test_evaluate_run_means():
    run1, judgment1 = _labeled_run([1], [1], qid="q1")
    run2, judgment2 = _labeled_run([1], [0], qid="q2")
    report = evaluate_run([run1, run2],
                          {"q1": judgment1, "q2": judgment2}, run_id="x")
    assert report.mean("P@1") == pytest.approx(0.5)
    assert report.question_ids == ("q1", "q2")


def test_evaluate_run_matches_members_up_to_first_relevant_group(monkeypatch):
    import entityqa.evaluation as evaluation

    calls = []
    real_match = evaluation.match_answer

    def counting_match(candidate, judgment):
        calls.append(candidate)
        return real_match(candidate, judgment)

    monkeypatch.setattr(evaluation, "match_answer", counting_match)
    run1, judgment1 = _labeled_run([3, 2, 4], [0, 1, 2], qid="q1")
    run2, judgment2 = _labeled_run([1, 5], [0, 0], qid="q2")
    report = evaluate_run([run1, run2], {"q1": judgment1, "q2": judgment2})
    # q1's first relevant group is its second: its third group is not
    # matched. q2 has no relevant group, so every member is matched.
    members = [*chain.from_iterable(run1.groups[:2]),
               *chain.from_iterable(run2.groups)]
    assert len(members) == 11
    assert sorted(calls) == sorted(members)
    assert report.series("tP@1") == (0.0, 0.0)
    assert report.series("P@1") == (0.0, 0.0)
    assert report.series("MRR") == (0.5, 0.0)


def test_evaluate_run_equals_run_metrics_of_every_match_on_random_runs():
    # Surfaces of one to three tokens from a small vocabulary, in outer
    # punctuation and spacing, next to members whose canonical form is
    # empty; gold answers from the same tokens. The rows of evaluate_run,
    # which stops matching at the first relevant group, must equal those
    # computed from the matches of every member.
    vocab = ["ab", "cd", "ef", "gh", "ij", "kl", "mn", "op", "qr"]
    empties = ["", " ", "--", "?!", " ' ", "\t.\n"]
    rng = random.Random(41)
    first_ranks: set[int | None] = set()
    policies, modes = set(), set()
    empty_members = 0
    for _ in range(400):
        policy = rng.choice(("exact", "containment"))
        mode = rng.choice(("expected_reciprocal", "reciprocal_expected"))
        golds = frozenset(" ".join(rng.sample(vocab, rng.randint(1, 3)))
                          for _ in range(rng.randint(1, 2)))
        judgment = Judgment(question_id="q", gold_answers=golds,
                            match_policy=policy)
        seen: set[str] = set()
        groups = []
        for _g in range(rng.randint(1, 8)):
            group = set()
            for _m in range(rng.randint(1, 5)):
                if rng.random() < 0.15:
                    surface = rng.choice(empties) * rng.randint(1, 2)
                else:
                    surface = " ".join(rng.sample(vocab, rng.randint(1, 3)))
                    surface = (rng.choice(("", " ", '"', "(")) + surface.upper()
                               + rng.choice(("", ".", "  ", ")")))
                if surface not in seen:
                    seen.add(surface)
                    group.add(surface)
            if group:
                groups.append(group)
        run = _run(groups, qid="q")
        relevant = matching_surfaces(chain.from_iterable(run.groups), judgment)
        want = run_metrics(run.groups, relevant, mode)
        report = evaluate_run([run], {"q": judgment}, tmrr_mode=mode)
        assert tuple(report.series(m)[0] for m in METRICS) == want
        first_ranks.add(next((g for g, group in enumerate(run.groups, start=1)
                              if group & relevant), None))
        policies.add(policy)
        modes.add(mode)
        empty_members += sum(not canonicalize(s) for s in seen)
    assert first_ranks >= {None, 1, 2, 3, 4, 5, 6}
    assert policies == {"exact", "containment"}
    assert modes == {"expected_reciprocal", "reciprocal_expected"}
    assert empty_members > 100


def test_evaluate_run_rejects_duplicates_and_unjudged():
    run, judgment = _labeled_run([1], [1], qid="q1")
    with pytest.raises(DataError):
        evaluate_run([run, run], {"q1": judgment})
    with pytest.raises(DataError):
        evaluate_run([run], {})
    with pytest.raises(DataError):
        evaluate_run([], {"q1": judgment})


# ---------------------------------------------------------------------------
# significance
# ---------------------------------------------------------------------------

def test_t_test_identical_series():
    result = paired_t_test([0.5, 0.25, 0.75], [0.5, 0.25, 0.75])
    assert result.p_value == 1.0
    assert not result.significant


def test_t_test_constant_difference_degenerate():
    result = paired_t_test([1.0] * 30, [0.5] * 30)
    assert result.p_value == 0.0
    assert result.significant
    assert math.isinf(result.t_statistic)


def test_t_test_known_critical_value():
    # differences c +/- 1 alternating over n=30 give sd = sqrt(30/29),
    # hence t = c * sqrt(29); choose c so that t = 2.045 at 29 dof.
    c = 2.045 / math.sqrt(29)
    diffs = [c + (1 if i % 2 == 0 else -1) for i in range(30)]
    result = paired_t_test(diffs, [0.0] * 30)
    assert result.t_statistic == pytest.approx(2.045, abs=1e-9)
    assert result.p_value == pytest.approx(0.050, abs=1e-3)


def test_t_test_rejects_bad_input():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [1.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0])


def test_t_p_value_matches_scipy_within_1e_8():
    """The two-sided p-value against scipy's stdtr, the oracle here only, on
    20,000 seeded draws: df from 1 to 5,000 and 1e4, 1e5, 1e6, and |t|
    log-uniform from 1e-8 to 1e3, either sign. Where scipy's p is at
    least 1e-300, the relative error is at most 1e-8."""
    from scipy.special import stdtr
    rng = random.Random(29)
    draws = [(rng.choice((10**4, 10**5, 10**6)) if rng.random() < 0.1 else rng.randint(1, 5000),
              rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, 3.0))
             for _ in range(20_000)]
    compared, failures = 0, []
    for df, t in draws:
        want = 2.0 * float(stdtr(df, -abs(t)))
        if want >= 1e-300:
            compared += 1
            got = _t_two_sided_p(t, df)
            if not abs(got - want) <= 1e-8 * want:
                failures.append((df, t, got, want))
    assert failures == []
    assert compared > 15_000


def _closed_form_p(df: int, s: float) -> float:
    """The two-sided p-value at |t| = s for df = 1 and df = 2; the second is
    2 / (sqrt(s² + 2) (sqrt(s² + 2) + s)), written so that s² never forms."""
    if df == 1:
        return 2.0 / math.pi * math.atan(1.0 / s)
    r = math.sqrt(1.0 + 2.0 / s / s)
    return 2.0 / s / s / (r * (r + 1.0))


@pytest.mark.parametrize("df", [1, 2])
def test_t_p_value_matches_closed_forms_within_1e_12(df):
    """scipy is not the oracle here: at df = 1 it is 3e-9 off near p = 1,
    and at t = 1e200 it returns 0.0 where p is 6.4e-201."""
    rng = random.Random(df)
    tails = [1e-8, 1e-3, 1.0, 1e150, 1e200, 1e300]
    for s in tails + [10.0 ** rng.uniform(-8.0, 300.0) for _ in range(5_000)]:
        want = _closed_form_p(df, s)
        if want >= 1e-300:
            assert _t_two_sided_p(s, df) == pytest.approx(want, rel=1e-12, abs=0.0), s
            assert _t_two_sided_p(-s, df) == _t_two_sided_p(s, df)
    assert _t_two_sided_p(1e200, 1) == pytest.approx(6.366197723675814e-201, rel=1e-12)


def test_t_p_value_of_a_vanishing_t_is_1():
    for t in (0.0, -0.0, 1e-200, 5e-324):
        assert _t_two_sided_p(t, 10) == 1.0


def test_compare_reports_runs_all_metrics():
    a = _report({"q1": 1.0, "q2": 0.5, "q3": 0.0})
    b = _report({"q1": 0.5, "q2": 0.5, "q3": 0.5})
    results = compare_reports(a, b)
    assert [r.metric for r in results] == list(METRICS)


def test_compare_reports_rejects_different_questions():
    a = _report({"q1": 1.0, "q2": 0.5})
    b = _report({"q1": 1.0, "q3": 0.5})
    with pytest.raises(DataError):
        compare_reports(a, b)


# ---------------------------------------------------------------------------
# per-query diffs and writers
# ---------------------------------------------------------------------------

def test_per_query_diff_identical_reports():
    a = _report({"q1": 1.0, "q2": 0.5})
    table = per_query_diff(a, a, "MRR")
    assert all(d == 0.0 for _q, d in table.entries)
    assert table.zeros == 2 and table.positives == 0 and table.negatives == 0


def test_per_query_diff_single_question():
    a = _report({"q1": 1.0})
    b = _report({"q1": 0.2})
    table = per_query_diff(a, b, "MRR")
    assert table.entries == (("q1", pytest.approx(0.8)),)
    assert table.positives == 1


def test_per_query_diff_sorted_descending():
    a = _report({"q1": 0.0, "q2": 1.0, "q3": 0.5})
    b = _report({"q1": 1.0, "q2": 0.0, "q3": 0.5})
    table = per_query_diff(a, b, "P@1")
    assert [q for q, _d in table.entries] == ["q2", "q3", "q1"]
    diffs = [d for _q, d in table.entries]
    assert all(d in (-1.0, 0.0, 1.0) for d in diffs)


def test_write_diff_csv(tmp_path):
    table = DiffTable(metric="MRR", entries=(("q1", 0.8), ("q2", -0.1)),
                      positives=1, negatives=1, zeros=0)
    path = tmp_path / "diff.csv"
    write_diff_csv(path, table)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["question_id", "diff_MRR"]
    assert rows[1] == ["q1", "0.800000"]


def test_write_report_csv_and_json(tmp_path):
    a = _report({"q1": 1.0, "q2": 0.0}, run_id="sysA")
    csv_path = tmp_path / "report.csv"
    write_report_csv(csv_path, [a])
    rows = list(csv.reader(csv_path.open()))
    assert rows[0] == ["run_id", *METRICS]
    assert rows[1][0] == "sysA"
    assert rows[1][1] == "0.5000"

    json_path = tmp_path / "report.json"
    write_report_json(json_path, [a])
    payload = json.loads(json_path.read_text())
    assert payload[0]["run_id"] == "sysA"
    assert payload[0]["means"]["MRR"] == pytest.approx(0.5)
    assert payload[0]["per_question"]["MRR"]["q1"] == pytest.approx(1.0)


class _Unwritable:
    """Raises as soon as a writer formats its value."""

    def __format__(self, spec):
        raise RuntimeError("cannot format")


def _broken_report(run_id):
    return _report({"q1": 1.0}, run_id=run_id)._replace(
        values={m: (_Unwritable(),) for m in METRICS})


def _docset(qid, *texts):
    return DocumentSet(question_id=qid, documents=tuple(
        Document(question_id=qid, original_rank=rank, text=text)
        for rank, text in enumerate(texts, start=1)))


class _Unarrayable:
    """Raises when numpy converts it to an array."""

    def __array__(self, *args, **kwargs):
        raise RuntimeError("cannot convert")


def _classifier(broken=False):
    clf = train_classifier([LabeledQuestion("HUM", "ind", "Who wrote Hamlet?"),
                            LabeledQuestion("LOC", "city", "Where is Paris?")],
                           epochs=1)
    if broken:
        # The last array numpy writes cannot be converted.
        clf = replace(clf, fine_model=replace(clf.fine_model,
                                              bias=_Unarrayable()))
    return clf


def _save(path, classifier):
    classifier.save(path)


def _ablation_row(config_id):
    return AblationRow("svm", "word-avg", "max", "multiplicative", None, None,
                       config_id, {m: 0.5 for m in METRICS})


def _significance(run_b):
    return [("sysA", run_b, [SignificanceResult("MRR", 0.5, 2.0, 0.1, False)])]


def _latency(label):
    return LatencyReport(label, 2, 12, 0.25, {"overall": 0.01}, False, None, [])


def _write_runs(path, runs):
    write_runs(path, runs, "abc")


def _write_run_file(path, result):
    write_run_file(path, result, PipelineConfig())


def _pipeline_result(error=None):
    """The bad result has the good one's run lines, so only its sidecar,
    written second, can fail."""
    return PipelineResult(runs=(TiedRun("q1", (frozenset({"a"}),), (0.5,)),),
                          errors=(("q2", error),) if error is not None else ())


@pytest.mark.parametrize("writer, good, bad", [
    (write_report_csv,
     lambda: [_report({"q1": 1.0}, "sysA")],
     lambda: [_report({"q1": 1.0}, "sysA"), _broken_report("sysB")]),
    (write_report_json,
     lambda: [_report({"q1": 1.0}, "sysA")],
     lambda: [_report({"q1": 1.0}, "sysA"), _report({"q1": 1.0}, object())]),
    (write_diff_csv,
     lambda: DiffTable("MRR", (("q1", 0.5),), 1, 0, 0),
     lambda: DiffTable("MRR", (("q1", 0.5), ("q2", _Unwritable())), 1, 0, 0)),
    # The bad inputs below fail after a first line that differs from the
    # good output, so a writer that streamed would leave that line behind.
    pytest.param(_write_runs,
                 lambda: [TiedRun("q1", (frozenset({"a"}),), (0.5,))],
                 lambda: [TiedRun("q2", (frozenset({"b"}),), (0.5,)),
                          TiedRun("q3", (frozenset({"c"}),), (object(),))],
                 id="write_runs-<lambda>-<lambda>"),
    (write_documents,
     lambda: [_docset("q1", "A.")],
     lambda: [_docset("q2", "B.", object())]),
    # Writes out.npz and out.npz.meta.json.
    pytest.param(_save, _classifier, lambda: _classifier(broken=True),
                 id="QuestionClassifier.save"),
    (write_ablation_json,
     lambda: [_ablation_row("abc")],
     lambda: [_ablation_row("def"), _ablation_row(object())]),
    (write_significance_json,
     lambda: _significance("sysB"),
     lambda: _significance("sysC") + _significance(object())),
    (write_latency_json, lambda: _latency("mine"), lambda: _latency(object())),
    # Writes out and out.config.json.
    pytest.param(_write_run_file, _pipeline_result,
                 lambda: _pipeline_result(error=object()), id="write_run_file"),
])
def test_writers_leave_previous_file_on_failure(tmp_path, writer, good, bad):
    path = tmp_path / "out"
    writer(path, good())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert "out" in before or "out.npz" in before
    assert not [name for name in before if name.endswith(".tmp")]
    with pytest.raises((RuntimeError, TypeError)):
        writer(path, bad())
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_atomic_write_removes_temp_file_when_write_fails(tmp_path):
    from entityqa.corpus import atomic_write_text

    path = tmp_path / "out.txt"
    atomic_write_text(path, "old\r\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "new" * 10_000 + "\ud800")
    assert path.read_bytes() == b"old\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("umask, before, after", [
    (0o022, None, 0o644), (0o027, None, 0o640),
    (0o022, 0o644, 0o644), (0o022, 0o640, 0o640), (0o077, 0o664, 0o664)],
    ids=["new-umask-022", "new-umask-027", "0644-umask-022", "0640-umask-022",
         "0664-umask-077"])
def test_atomic_write_keeps_the_replaced_mode_or_follows_the_umask(tmp_path, umask,
                                                                   before, after):
    """A new file gets 0o666 less the umask, as `open` gives it; a replaced
    file keeps its mode. The temp file is created 0o600."""
    from entityqa.corpus import atomic_write_bytes

    path = tmp_path / "out.bin"
    if before is not None:
        path.write_bytes(b"old")
        path.chmod(before)
    old_umask = os.umask(umask)
    try:
        atomic_write_bytes(path, b"new")
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(path.stat().st_mode) == after
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
