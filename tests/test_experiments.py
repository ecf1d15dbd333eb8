import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from datagen import _TYPE_CYCLE, VOCAB_WORDS

from entityqa import experiments, pipeline
from entityqa.corpus import (DocumentSet, load_documents, load_questions,
                             segment_sentences)
from entityqa.entities import AnnotationFileExtractor, GazetteerExtractor
from entityqa.errors import DataError
from entityqa.evaluation import Judgment, evaluate_run, load_qrels
from entityqa.experiments import (
    evaluate_run_files,
    run_ablation,
    run_latency_bench,
    write_ablation_csv,
    write_ablation_json,
    write_latency_json,
    write_significance_json,
)
from entityqa.pipeline import (LoadedStages, PipelineConfig, aggregate_evidence,
                               load_stages, run_pipeline)
from entityqa.qtype import QuestionClassifier
from entityqa.scoring import CacheProvider, WordAverageProvider
from entityqa.ranking import ALPHA_BETA_GRID, TiedRun, rank_answers, write_runs


def _inputs(fixture):
    questions = load_questions(fixture.questions_path)
    docsets = {qid: DocumentSet(question_id=qid, documents=tuple(docs))
               for qid, docs in load_documents(fixture.documents_path).items()}
    return questions, docsets


@pytest.fixture(scope="module")
def ablation_rows(planted, planted_config):
    questions, docsets = _inputs(planted)
    judgments = load_qrels(planted.qrels_path)
    return run_ablation(PipelineConfig(**planted_config), questions, docsets,
                        judgments)


def test_ablation_covers_every_combination(ablation_rows):
    combos = {(r.classifier, r.embedding_provider, r.aggregation, r.combine)
              for r in ablation_rows}
    assert len(ablation_rows) == 24
    assert len(combos) == 24
    assert {r.classifier for r in ablation_rows} == {
        "svm", "external-embedding"}
    assert {r.embedding_provider for r in ablation_rows} == {
        "word-avg", "cache"}
    assert {r.aggregation for r in ablation_rows} == {"avg", "avg_max", "max"}
    assert {r.combine for r in ablation_rows} == {
        "additive", "multiplicative"}


def test_ablation_additive_rows_record_tuned_weights(ablation_rows):
    for row in ablation_rows:
        if row.combine == "additive":
            assert 0.1 <= row.alpha <= 0.7
            assert 0.1 <= row.beta <= 0.7
        else:
            assert row.alpha is None and row.beta is None
        assert set(row.means) == {"MRR", "P@1", "Hit@5",
                                  "tMRR", "tP@1", "tHit@5"}


def test_ablation_default_cell_is_perfect_on_planted(ablation_rows):
    default = next(r for r in ablation_rows
                   if (r.classifier, r.embedding_provider, r.aggregation,
                       r.combine) ==
                   ("svm", "word-avg", "max", "multiplicative"))
    assert default.means["P@1"] == 1.0
    assert default.means["tP@1"] == 1.0


def test_ablation_distinct_config_ids(ablation_rows):
    ids = [r.config_id for r in ablation_rows]
    assert len(set(ids)) == len(ids)


def test_ablation_writers(tmp_path, ablation_rows):
    csv_path = tmp_path / "ablation.csv"
    json_path = tmp_path / "ablation.json"
    write_ablation_csv(csv_path, ablation_rows)
    write_ablation_json(json_path, ablation_rows)
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 25
    payload = json.loads(json_path.read_text())
    assert payload[0]["classifier"] == ablation_rows[0].classifier


def _dense_gazetteer(planted, path):
    """The planted gazetteer plus every vocabulary word under one of the
    four answer tags, so that each pool holds many candidates."""
    extra = [f"{word}\t{_TYPE_CYCLE[k % len(_TYPE_CYCLE)][2]}\n"
             for k, word in enumerate(VOCAB_WORDS)]
    path.write_text(Path(planted.gazetteer_path).read_text(encoding="utf-8")
                    + "".join(extra), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module", params=["planted", "dense"])
def oracle_case(request, tmp_path_factory, planted, planted_config):
    """(base config, judgments, ablation rows, per pair the loaded stages
    and every question prepared).

    "dense" uses the dense gazetteer and judges every third pool surface
    (alphabetically, default pair) as gold, so that the metrics depend on
    the whole ranking and not only on the planted answer reaching the top.
    """
    questions, docsets = _inputs(planted)
    base = PipelineConfig(**planted_config)
    judgments = load_qrels(planted.qrels_path)
    if request.param == "dense":
        base = replace(base, gazetteer_path=_dense_gazetteer(
            planted, tmp_path_factory.mktemp("dense") / "gazetteer.tsv"))
    pairs = {}
    for classifier in ("svm", "external-embedding"):
        for provider in ("word-avg", "cache"):
            stages, _ = load_stages(replace(base, classifier=classifier,
                                            embedding_provider=provider))
            pairs[classifier, provider] = (
                stages, {q.id: stages.prepare(q, docsets[q.id]) for q in questions})
    if request.param == "dense":
        for qid, item in pairs["svm", "word-avg"][1].items():
            surfaces = sorted(c.canonical_surface for c in item[0].candidates)
            assert len(surfaces) >= 4
            judgments[qid] = Judgment(question_id=qid,
                                      gold_answers=frozenset(surfaces[1::3]),
                                      match_policy="exact")
    rows = run_ablation(base, questions, docsets, judgments)
    return base, judgments, rows, pairs


def test_ablation_rows_match_full_pipeline_runs(oracle_case, planted):
    """Every row equals its config run end to end, and additive rows carry
    the first grid point (alpha-major) with the best mean tMRR."""
    base, judgments, rows, pairs = oracle_case
    questions, docsets = _inputs(planted)
    for row in rows:
        stages, prepared = pairs[row.classifier, row.embedding_provider]
        config = replace(
            base, classifier=row.classifier,
            embedding_provider=row.embedding_provider,
            aggregation=row.aggregation, combine=row.combine,
            alpha=base.alpha if row.alpha is None else row.alpha,
            beta=base.beta if row.beta is None else row.beta)
        result = run_pipeline(config, questions, docsets,
                              stages=replace(stages, config=config))
        assert result.errors == ()
        report = evaluate_run(result.runs, judgments)
        assert report.means() == row.means
        assert config.config_id == row.config_id
        if row.combine != "additive":
            continue

        def mean_tmrr(alpha, beta):
            variant = replace(config, alpha=alpha, beta=beta)
            runs = []
            for q in questions:
                if prepared[q.id] is None:
                    runs.append(TiedRun(question_id=q.id, groups=(), scores=()))
                    continue
                _pool, evidence, n_docs = prepared[q.id]
                runs.append(rank_answers(
                    q.id, [ev.entity.canonical_surface for ev in evidence],
                    aggregate_evidence(evidence, n_docs, variant),
                    [ev.entity.df for ev in evidence], n_docs, variant.ranking))
            return evaluate_run(runs, judgments).mean("tMRR")

        sweep = [mean_tmrr(alpha, beta) for alpha, beta in ALPHA_BETA_GRID]
        first_best = ALPHA_BETA_GRID[sweep.index(max(sweep))]
        assert (row.alpha, row.beta) == first_best


def test_ablation_reads_each_question_documents_once(monkeypatch, planted,
                                                     planted_config):
    """The four pairs share one document step per question: it runs once
    for a question that some pair types as an entity type, and not at all
    for one that every pair types as a non-entity type."""
    questions, docsets = _inputs(planted)
    judgments = load_qrels(planted.qrels_path)
    base = PipelineConfig(**planted_config)
    questions[0] = replace(questions[0], text="What does VRC stand for?")
    pairs = [load_stages(replace(base, classifier=classifier,
                                 embedding_provider=provider))[0]
             for classifier in ("svm", "external-embedding")
             for provider in ("word-avg", "cache")]
    entity_typed = [q.id for q in questions
                    if any(stages.prepare(q, docsets[q.id]) is not None
                           for stages in pairs)]
    assert questions[0].id not in entity_typed
    assert entity_typed == [q.id for q in questions[1:]]

    segmented, extracted = [], []

    def counting_segment(doc):
        segmented.append(doc.doc_id)
        return segment_sentences(doc)

    def counting_extract(self, docset):
        extracted.append(docset.question_id)
        return extract(self, docset)

    extract = GazetteerExtractor.extract
    monkeypatch.setattr(pipeline, "segment_sentences", counting_segment)
    monkeypatch.setattr(GazetteerExtractor, "extract", counting_extract)
    rows = run_ablation(base, questions, docsets, judgments)
    assert len(rows) == 24
    assert extracted == entity_typed
    assert segmented == [d.doc_id for qid in entity_typed
                         for d in docsets[qid].documents]


def test_ablation_predicts_each_question_once_per_classifier(
        monkeypatch, planted, planted_config):
    """The two SVM pairs share one classifier and its prediction; each
    centroid pair has its own: three predictions per question, not four."""
    questions, docsets = _inputs(planted)
    predicted = []

    def counting_predict(self, question):
        predicted.append((self.config.classifier, question.id))
        return predict_types(self, question)

    predict_types = LoadedStages.predict_types
    monkeypatch.setattr(LoadedStages, "predict_types", counting_predict)
    run_ablation(PipelineConfig(**planted_config), questions, docsets,
                 load_qrels(planted.qrels_path))
    assert predicted == [(classifier, q.id) for q in questions
                         for classifier in ("svm", "external-embedding",
                                            "external-embedding")]


def _count_loads(monkeypatch) -> Counter:
    """Count every data-file read of the stage loader, and every centroid
    training, through the names the loader calls."""
    loads = Counter()
    for owner, attr, name in [
            (CacheProvider, "__init__", "cache"),
            (WordAverageProvider, "from_file", "vectors"),
            (QuestionClassifier, "load", "svm"),
            (GazetteerExtractor, "from_file", "gazetteer"),
            (AnnotationFileExtractor, "__init__", "annotations"),
            (pipeline, "load_labeled_questions", "labeled"),
            (pipeline, "load_answer_type_map", "type map"),
            (pipeline, "train_embedding_classifier", "centroids")]:
        original = vars(owner)[attr]
        method = isinstance(original, classmethod)

        def counted(*args, _fn=original.__func__ if method else original,
                    _name=name, **kwargs):
            loads[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, classmethod(counted) if method else counted)
    return loads


def test_ablation_reads_each_data_file_once(monkeypatch, planted, planted_config):
    """One grid reads each file once: the SVM is shared by both providers,
    and the centroids are trained once per provider."""
    questions, docsets = _inputs(planted)
    loads = _count_loads(monkeypatch)
    loaded = []

    def recording(configs):
        loaded.extend(load_shared_stages(configs))
        return loaded

    load_shared_stages = experiments.load_shared_stages
    monkeypatch.setattr(experiments, "load_shared_stages", recording)
    run_ablation(PipelineConfig(**planted_config), questions, docsets,
                 load_qrels(planted.qrels_path))
    assert loads == {"cache": 1, "vectors": 1, "svm": 1, "gazetteer": 1,
                     "labeled": 1, "centroids": 2}
    assert [(s.config.classifier, s.config.embedding_provider) for s in loaded] == [
        ("svm", "word-avg"), ("svm", "cache"),
        ("external-embedding", "word-avg"), ("external-embedding", "cache")]
    svm_word, svm_cache, centroid_word, centroid_cache = loaded
    assert svm_word.classifier is svm_cache.classifier
    assert centroid_word.classifier is not centroid_cache.classifier
    assert len({id(s.read_documents) for s in loaded}) == 1


@pytest.mark.parametrize("overrides, files", [
    ({}, {"svm": 1, "gazetteer": 1, "vectors": 1}),
    ({"classifier": "external-embedding", "ner_backend": "annotations",
      "embedding_provider": "cache",
      "type_map_path": str(Path(pipeline.__file__).parent / "data" / "answer_type_map.json")},
     {"labeled": 1, "centroids": 1, "annotations": 1, "cache": 1, "type map": 1}),
])
def test_load_stages_reads_each_data_file_once(monkeypatch, tmp_path, planted_config,
                                               overrides, files):
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text("")
    config = PipelineConfig(**dict(planted_config, annotations_path=str(annotations),
                                   **overrides))
    loads = _count_loads(monkeypatch)
    stages, seconds = load_stages(config)
    assert loads == files
    assert stages.config is config and seconds >= 0


def test_ablation_csv_write_is_atomic(tmp_path, ablation_rows):
    path = tmp_path / "ablation.csv"
    write_ablation_csv(path, ablation_rows)
    before = path.read_bytes()
    broken = replace(ablation_rows[1], means={})
    with pytest.raises(KeyError):
        write_ablation_csv(path, [ablation_rows[0], broken])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ablation.csv"]


def test_ablation_requires_full_coverage(planted, planted_config):
    questions, docsets = _inputs(planted)
    judgments = load_qrels(planted.qrels_path)
    judgments.pop(questions[0].id)
    with pytest.raises(DataError) as err:
        run_ablation(PipelineConfig(**planted_config), questions, docsets,
                     judgments)
    assert questions[0].id in str(err.value)


@pytest.mark.parametrize("drop, reason", [
    ("questions", "no questions to evaluate"),
    ("duplicate", "duplicate question ids: ['{qid}']"),
    ("documents", "questions without document sets: ['{qid}']"),
])
def test_ablation_rejects_a_question_set_it_cannot_cover(planted, planted_config,
                                                          drop, reason):
    questions, docsets = _inputs(planted)
    qid = questions[1].id
    if drop == "questions":
        questions = []
    elif drop == "duplicate":
        questions = questions + [questions[1]]
    else:
        del docsets[qid]
    with pytest.raises(DataError) as err:
        run_ablation(PipelineConfig(**planted_config), questions, docsets,
                     load_qrels(planted.qrels_path))
    assert str(err.value) == reason.format(qid=qid)


# ---------------------------------------------------------------------------
# run-file evaluation
# ---------------------------------------------------------------------------

def _mini_run(qid, relevant):
    surface = "gold" if relevant else "junk"
    return TiedRun(question_id=qid, groups=(frozenset({surface}),),
                   scores=(0.5,))


def _mini_judgments(qids):
    return {qid: Judgment(question_id=qid, gold_answers=frozenset({"gold"}),
                          match_policy="exact") for qid in qids}


def test_evaluate_run_files_pairwise(tmp_path):
    qids = [f"q{i}" for i in range(6)]
    a_path = tmp_path / "sysA.jsonl"
    b_path = tmp_path / "sysB.jsonl"
    write_runs(a_path, [_mini_run(q, True) for q in qids], "sysA")
    # system B covers the same questions in reversed order
    write_runs(b_path, [_mini_run(q, q in ("q0", "q1"))
                        for q in reversed(qids)], "sysB")
    reports, significance = evaluate_run_files(
        [a_path, b_path], _mini_judgments(qids))
    assert [r.run_id for r in reports] == ["sysA", "sysB"]
    assert reports[0].mean("P@1") == 1.0
    assert reports[1].mean("P@1") == pytest.approx(2 / 6)
    assert len(significance) == 1
    run_a, run_b, tests = significance[0]
    assert (run_a, run_b) == ("sysA", "sysB")
    by_metric = {t.metric: t for t in tests}
    assert by_metric["P@1"].mean_difference == pytest.approx(4 / 6)

    out = tmp_path / "significance.json"
    write_significance_json(out, significance)
    payload = json.loads(out.read_text())
    assert payload[0]["run_a"] == "sysA"
    assert any(t["metric"] == "tMRR" for t in payload[0]["tests"])


def test_evaluate_run_files_without_a_file_is_a_data_error():
    with pytest.raises(DataError, match="^no run files given$"):
        evaluate_run_files([], _mini_judgments(["q1"]))


def test_evaluate_run_files_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(DataError):
        evaluate_run_files([path], _mini_judgments(["q0"]))


def test_evaluate_run_files_rejects_unjudged_questions(tmp_path):
    path = tmp_path / "sys.jsonl"
    write_runs(path, [_mini_run("mystery", True)], "sys")
    with pytest.raises(DataError) as err:
        evaluate_run_files([path], _mini_judgments(["q0"]))
    assert "mystery" in str(err.value)


def test_evaluate_run_files_rejects_disjoint_question_sets(tmp_path):
    a_path = tmp_path / "a.jsonl"
    b_path = tmp_path / "b.jsonl"
    write_runs(a_path, [_mini_run("q0", True)], "a")
    write_runs(b_path, [_mini_run("q1", True)], "b")
    with pytest.raises(DataError):
        evaluate_run_files([a_path, b_path], _mini_judgments(["q0", "q1"]))


# ---------------------------------------------------------------------------
# latency benchmark
# ---------------------------------------------------------------------------

def test_latency_bench_basic(planted, planted_config):
    questions, docsets = _inputs(planted)
    report = run_latency_bench(PipelineConfig(**planted_config), questions,
                               docsets, iterations=2)
    assert report.iterations == 2
    assert report.n_questions == 12
    assert report.mean_seconds["overall"] > 0.0
    assert "custom" in report.mean_seconds
    assert not report.low_confidence
    assert report.speedup is None


def test_latency_bench_single_iteration_low_confidence(planted,
                                                       planted_config):
    questions, docsets = _inputs(planted)
    report = run_latency_bench(PipelineConfig(**planted_config), questions,
                               docsets, iterations=1)
    assert report.low_confidence


def test_latency_bench_speedup(tmp_path, planted, planted_config):
    questions, docsets = _inputs(planted)
    comparison = tmp_path / "other.json"
    comparison.write_text(json.dumps({"mean_seconds": {"overall": 100.0}}))
    report = run_latency_bench(PipelineConfig(**planted_config), questions,
                               docsets, iterations=1,
                               comparison_path=comparison)
    assert report.speedup["overall"] > 1.0

    out = tmp_path / "latency.json"
    write_latency_json(out, report)
    assert json.loads(out.read_text())["speedup"]["overall"] > 1.0


def test_latency_bench_leaves_a_failing_question_out_of_the_means(
        monkeypatch, planted, planted_config):
    questions, docsets = _inputs(planted)
    failing = questions[4].id
    asked = []

    class Stages:
        def answer(self, question, docset):
            asked.append(question.id)
            if question.id == failing:
                raise DataError("no vector")

    # Each clock reading is one second after the last: an answer takes 1 s.
    clock = iter(range(1_000))
    monkeypatch.setattr(experiments, "load_stages", lambda config: (Stages(), 0.5))
    monkeypatch.setattr(experiments, "perf_counter", lambda: float(next(clock)))
    report = run_latency_bench(PipelineConfig(**planted_config), questions, docsets,
                               iterations=3)
    assert report.failed == [{"question_id": failing, "error": "DataError: no vector"}]
    assert asked.count(failing) == 1 and len(asked) == 1 + 3 * (len(questions) - 1)
    assert set(report.mean_seconds.values()) == {1.0}


def test_latency_bench_rejects_empty_questions(planted, planted_config):
    _questions, docsets = _inputs(planted)
    with pytest.raises(DataError):
        run_latency_bench(PipelineConfig(**planted_config), [], docsets,
                          iterations=1)


def test_latency_bench_rejects_zero_iterations_and_questions_without_documents(
        planted, planted_config):
    questions, docsets = _inputs(planted)
    config = PipelineConfig(**planted_config)
    with pytest.raises(ValueError, match="^iterations must be >= 1$"):
        run_latency_bench(config, questions, docsets, iterations=0)
    del docsets[questions[2].id]
    with pytest.raises(DataError) as err:
        run_latency_bench(config, questions, docsets, iterations=1)
    assert str(err.value) == f"questions without document sets: ['{questions[2].id}']"
