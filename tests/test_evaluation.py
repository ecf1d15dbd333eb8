import csv
import json
import math
import random
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from oracles import classical_reference, enumerate_tie_metrics, mc_tie_metrics

from entityqa.corpus import Document, DocumentSet, write_documents
from entityqa.entities import EntityMention, write_annotations
from entityqa.errors import DataError, ParseError
from entityqa.evaluation import (
    METRICS,
    DiffTable,
    Judgment,
    MetricReport,
    classical_metrics,
    compare_reports,
    evaluate_run,
    load_qrels,
    match_answer,
    paired_t_test,
    per_query_diff,
    tie_aware_metrics,
    write_diff_csv,
    write_report_csv,
    write_report_json,
)
from entityqa.qtype import LabeledQuestion, train_classifier
from entityqa.ranking import TiedRun, write_runs
from entityqa.scoring import WordAverageProvider, write_cache


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


def test_load_qrels(tmp_path):
    path = tmp_path / "qrels.jsonl"
    rows = [{"question_id": "q1", "gold_answers": ["A", "B"]},
            {"question_id": "q2", "gold_answers": ["C"]}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    judgments = load_qrels(path)
    assert set(judgments) == {"q1", "q2"}
    assert judgments["q1"].gold_answers == frozenset({"a", "b"})


def test_load_qrels_duplicate(tmp_path):
    path = tmp_path / "qrels.jsonl"
    rows = [{"question_id": "q1", "gold_answers": ["A"]},
            {"question_id": "q1", "gold_answers": ["B"]}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(ParseError) as err:
        load_qrels(path)
    assert ":2:" in str(err.value)


# ---------------------------------------------------------------------------
# classical metrics
# ---------------------------------------------------------------------------

def test_classical_table_shape():
    # relevant answers only in the fifth group
    run, judgment = _labeled_run([2, 20, 1, 1, 2], [0, 0, 0, 0, 2])
    mrr, p1, hit = classical_metrics(run, judgment)
    assert mrr == pytest.approx(0.2)
    assert p1 == 0.0
    assert hit == 1.0


def test_classical_first_group_relevant():
    run, judgment = _labeled_run([1, 3], [1, 0])
    assert classical_metrics(run, judgment) == (1.0, 1.0, 1.0)


def test_classical_no_relevant():
    run, judgment = _labeled_run([2, 3], [0, 0])
    assert classical_metrics(run, judgment) == (0.0, 0.0, 0.0)


def test_classical_scans_only_five_groups():
    run, judgment = _labeled_run([1] * 6, [0, 0, 0, 0, 0, 1])
    assert classical_metrics(run, judgment) == (0.0, 0.0, 0.0)


def test_classical_empty_run():
    run = TiedRun(question_id="q1", groups=(), scores=())
    judgment = _judgment("anything")
    assert classical_metrics(run, judgment) == (0.0, 0.0, 0.0)


def test_classical_matches_reference_on_random_shapes():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randint(1, 6)
        sizes = [rng.randint(1, 5) for _ in range(k)]
        rel = [rng.randint(0, n) for n in sizes]
        run, judgment = _labeled_run(sizes, rel)
        assert classical_metrics(run, judgment) == \
            classical_reference(rel)


# ---------------------------------------------------------------------------
# tie-aware metrics
# ---------------------------------------------------------------------------

def test_tie_aware_table_shape():
    run, judgment = _labeled_run([2, 20, 1, 1, 2], [0, 0, 0, 0, 2])
    tmrr, tp1, thit = tie_aware_metrics(run, judgment)
    assert tmrr == pytest.approx(0.04)
    assert tp1 == 0.0
    assert thit == 0.0


def test_tie_aware_half_relevant_first_group():
    run, judgment = _labeled_run([2], [1])
    _tmrr, tp1, _thit = tie_aware_metrics(run, judgment)
    assert tp1 == pytest.approx(0.5)


def test_tie_aware_hit_worked_example():
    # 3 irrelevant singles, then 4 items with 1 relevant: only 2 of the 5
    # cutoff slots reach the second group, so tHit@5 = 1 - C(3,2)/C(4,2).
    run, judgment = _labeled_run([3, 4], [0, 1])
    _tmrr, _tp1, thit = tie_aware_metrics(run, judgment)
    assert thit == pytest.approx(0.5)


def test_tie_aware_no_relevant_zeroes():
    run, judgment = _labeled_run([3, 3], [0, 0])
    assert tie_aware_metrics(run, judgment) == (0.0, 0.0, 0.0)


def test_tie_aware_empty_run():
    run = TiedRun(question_id="q1", groups=(), scores=())
    assert tie_aware_metrics(run, _judgment("x")) == (0.0, 0.0, 0.0)


def test_tie_aware_matches_enumeration_oracle():
    rng = random.Random(11)
    for _ in range(150):
        k = rng.randint(1, 6)
        sizes = [rng.randint(1, 8) for _ in range(k)]
        rel = [rng.randint(0, n) for n in sizes]
        run, judgment = _labeled_run(sizes, rel)
        got = tie_aware_metrics(run, judgment)
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
        got = tie_aware_metrics(run, judgment)
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
        classical = classical_metrics(run, judgment)
        tie_aware = tie_aware_metrics(run, judgment)
        assert classical == tie_aware  # bit-for-bit


def test_tmrr_reciprocal_expected_mode():
    # first relevant group: n=4, r=2 after 3 singles -> E[pos] = 3 + 5/3
    run, judgment = _labeled_run([3, 4], [0, 2])
    tmrr, _tp1, _thit = tie_aware_metrics(run, judgment,
                                          tmrr_mode="reciprocal_expected")
    assert tmrr == pytest.approx(1.0 / (3 + 5 / 3))


def test_tie_aware_bounds_and_partial_order():
    rng = random.Random(23)
    for _ in range(200):
        sizes = [rng.randint(1, 10) for _ in range(rng.randint(1, 5))]
        rel = [rng.randint(0, n) for n in sizes]
        run, judgment = _labeled_run(sizes, rel)
        tmrr, tp1, thit = tie_aware_metrics(run, judgment)
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


def test_evaluate_run_matches_each_group_member_once(monkeypatch):
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
    members = [m for run in (run1, run2) for g in run.groups for m in g]
    assert sorted(calls) == sorted(members)
    assert report.series("tP@1") == (0.0, 0.0)
    assert report.series("P@1") == (0.0, 0.0)
    assert report.series("MRR") == (0.5, 0.0)


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
    report = _report({"q1": 1.0}, run_id=run_id)
    object.__setattr__(report, "values",
                       {m: (_Unwritable(),) for m in METRICS})
    return report


def _docset(qid, *texts):
    return DocumentSet(question_id=qid, documents=tuple(
        Document(question_id=qid, original_rank=rank, text=text)
        for rank, text in enumerate(texts, start=1)))


def _texts_then_fail():
    yield "alpha"
    raise RuntimeError("input ended early")


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


def _write_annotations(path, docset_and_mentions):
    write_annotations(path, *docset_and_mentions)


def _annotated(qid, text, surface):
    docset = _docset(qid, text, text)
    return docset, [EntityMention(surface, "PERSON", f"{qid}#{rank}", 0, 0, 1)
                    for rank in (1, 2)]


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
    (write_runs,
     lambda: [TiedRun("q1", (frozenset({"a"}),), (0.5,))],
     lambda: [TiedRun("q2", (frozenset({"b"}),), (0.5,)),
              TiedRun("q3", (), (), config_id=object())]),
    (write_documents,
     lambda: [_docset("q1", "A.")],
     lambda: [_docset("q2", "B.", object())]),
    pytest.param(
        partial(write_cache, provider=WordAverageProvider(
            {"alpha": np.array([1.0, 0.0]), "beta": np.array([0.0, 1.0])})),
        lambda: ["beta"], _texts_then_fail, id="write_cache"),
    pytest.param(_write_annotations, lambda: _annotated("q1", "A.", "A"),
                 lambda: _annotated("q2", "B.", object()), id="write_annotations"),
    # Writes out.npz and out.meta.json.
    pytest.param(_save, _classifier, lambda: _classifier(broken=True),
                 id="QuestionClassifier.save"),
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
