import json
import logging
import random
import re
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import pytest

from datagen import random_answer_case
from oracles import reference_answer, reference_rank

from entityqa import pipeline
from entityqa.corpus import (Document, DocumentSet, Question, default_abbreviations,
                             default_contractions, load_documents, load_questions,
                             segment_sentences)
from entityqa.entities import CandidateEntity, GazetteerExtractor
from entityqa.errors import ConfigError
from entityqa.evaluation import load_qrels, evaluate_run
from entityqa.pipeline import (
    AVGMAX_DENOMINATORS,
    LoadedStages,
    PipelineConfig,
    document_step,
    load_config,
    load_stages,
    run_pipeline,
    write_run_file,
)
from entityqa.qtype import AnswerTypeMap
from entityqa.ranking import ALPHA_BETA_GRID, COMBINE_MODES, TiedRun
from entityqa.scoring import AGGREGATION_MODES, EvidenceSet, WordAverageProvider


def _inputs(fixture):
    questions = load_questions(fixture.questions_path)
    docsets = {qid: DocumentSet(question_id=qid, documents=tuple(docs))
               for qid, docs in load_documents(fixture.documents_path).items()}
    return questions, docsets


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_config_values():
    cfg = PipelineConfig()
    assert cfg.classifier == "svm"
    assert cfg.ner_backend == "gazetteer"
    assert cfg.embedding_provider == "word-avg"
    assert cfg.aggregation == "max"
    assert cfg.combine == "multiplicative"
    assert cfg.candidate_cap == 100


def test_config_rejects_unknown_enum():
    with pytest.raises(ConfigError):
        PipelineConfig(classifier="random-forest")
    with pytest.raises(ConfigError):
        PipelineConfig(aggregation="median")
    with pytest.raises(ConfigError):
        PipelineConfig(combine="geometric")


def test_config_rejects_bad_ranking_rules():
    # The ranking rules are checked when the config is built, not per
    # question, and the check adds no field.
    with pytest.raises(ConfigError, match="alpha and beta"):
        PipelineConfig(combine="additive", alpha=0.0)
    with pytest.raises(ConfigError, match="alpha and beta"):
        PipelineConfig(combine="additive", beta=1.5)
    for digits in (0, 1.5):
        with pytest.raises(ConfigError, match="score_digits"):
            PipelineConfig(score_digits=digits)
    cfg = PipelineConfig(combine="additive", alpha=0.3, beta=0.7, score_digits=4)
    assert (cfg.ranking.combine_mode, cfg.ranking.alpha, cfg.ranking.beta,
            cfg.ranking.score_digits) == ("additive", 0.3, 0.7, 4)
    assert PipelineConfig().config_id == "e8e1aed37abd"
    assert len(fields(PipelineConfig)) == 22
    assert "ranking" not in asdict(PipelineConfig())


def test_config_id_is_stable_and_canonical():
    a = PipelineConfig(aggregation="avg")
    b = PipelineConfig(aggregation="avg")
    assert a.config_id == b.config_id
    assert len(a.config_id) == 12
    assert int(a.config_id, 16) >= 0  # hex digest prefix
    assert a.config_id != PipelineConfig(aggregation="max").config_id
    # A replaced config gets its own id, and the id is in no field-based
    # view of the config.
    c = replace(a, aggregation="max")
    assert c.config_id == PipelineConfig(aggregation="max").config_id
    assert a.config_id != c.config_id
    assert a == b and a != c
    assert asdict(a) == asdict(PipelineConfig(aggregation="avg"))
    assert a.canonical_json() == PipelineConfig(aggregation="avg").canonical_json()
    assert replace(c, aggregation="avg").config_id == a.config_id


def test_canonical_json_sorts_keys():
    cfg = PipelineConfig()
    parsed = json.loads(cfg.canonical_json())
    assert list(parsed) == sorted(parsed)


def test_readme_config_table_lists_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    keys = [key for line in section.splitlines() if line.startswith("| `")
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in fields(PipelineConfig))


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys, planted,
                                     planted_config):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "config.json").write_text(json.dumps(planted_config),
                                          encoding="utf-8")
    (tmp_path / "qrels.jsonl").write_bytes(Path(planted.qrels_path).read_bytes())
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    # Every planted gold answer ranks alone at the top.
    assert float(capsys.readouterr().out) == 1.0


def test_load_config_applies_overrides(tmp_path, planted_config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(planted_config))
    cfg = load_config(path, overrides={"aggregation": "avg"})
    assert cfg.aggregation == "avg"
    base = load_config(path)
    assert base.aggregation == "max"
    assert base.config_id != cfg.config_id


def test_load_config_rejects_unknown_key(tmp_path, planted_config):
    path = tmp_path / "config.json"
    merged = dict(planted_config, not_a_real_option=1)
    path.write_text(json.dumps(merged))
    with pytest.raises(ConfigError):
        load_config(path)


def test_validate_paths_names_missing_file(tmp_path, planted_config):
    merged = dict(planted_config, gazetteer_path=str(tmp_path / "absent.tsv"))
    cfg = PipelineConfig(**merged)
    with pytest.raises(ConfigError) as err:
        cfg.validate_paths()
    assert "absent.tsv" in str(err.value)


@pytest.mark.parametrize("stage, variant, key, other_key", [
    ("classifier", "svm", "model_path", "labeled_path"),
    ("classifier", "external-embedding", "labeled_path", "model_path"),
    ("ner_backend", "gazetteer", "gazetteer_path", "annotations_path"),
    ("ner_backend", "annotations", "annotations_path", "gazetteer_path"),
    ("embedding_provider", "word-avg", "vectors_path", "cache_path"),
    ("embedding_provider", "cache", "cache_path", "vectors_path"),
])
def test_each_stage_variant_needs_exactly_its_own_file(
        tmp_path, planted_config, stage, variant, key, other_key):
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text("")
    merged = dict(planted_config, annotations_path=str(annotations),
                  **{stage: variant})
    PipelineConfig(**dict(merged, **{other_key: ""})).validate_paths()
    with pytest.raises(ConfigError) as err:
        PipelineConfig(**dict(merged, **{key: ""})).validate_paths()
    assert str(err.value) == f"{key} is required by this configuration"


# ---------------------------------------------------------------------------
# end-to-end behaviour on the planted corpus
# ---------------------------------------------------------------------------

def test_run_pipeline_plants_gold_on_top(planted, planted_config):
    cfg = PipelineConfig(**planted_config)
    questions, docsets = _inputs(planted)
    result = run_pipeline(cfg, questions, docsets)
    assert not result.errors
    assert len(result.runs) == len(planted.questions)
    judgments = load_qrels(planted.qrels_path)
    report = evaluate_run(result.runs, judgments, run_id="unit")
    assert report.mean("P@1") == 1.0
    assert report.mean("tP@1") == 1.0
    # gold is always alone in the top group at combined score df/|D| = 0.3
    for run in result.runs:
        assert len(run.groups[0]) == 1
        assert run.scores[0] == pytest.approx(0.3, abs=1e-6)


def test_run_pipeline_is_deterministic(tmp_path, planted, planted_config):
    cfg = PipelineConfig(**planted_config)
    questions, docsets = _inputs(planted)
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    write_run_file(out1, run_pipeline(cfg, questions, docsets), cfg)
    write_run_file(out2, run_pipeline(cfg, questions, docsets), cfg)
    assert out1.read_bytes() == out2.read_bytes()


def test_run_file_sidecar_records_config(tmp_path, planted, planted_config):
    cfg = PipelineConfig(**planted_config)
    questions, docsets = _inputs(planted)
    out = tmp_path / "runs.jsonl"
    write_run_file(out, run_pipeline(cfg, questions, docsets), cfg)
    sidecar = json.loads((tmp_path / "runs.jsonl.config.json").read_text())
    assert sidecar["config_id"] == cfg.config_id
    assert sidecar["config"]["aggregation"] == "max"
    first = json.loads(out.read_text().splitlines()[0])
    assert first["config_id"] == cfg.config_id


def test_run_pipeline_runs_follow_question_order(planted, planted_config):
    cfg = PipelineConfig(**planted_config)
    stages, _ = load_stages(cfg)
    questions, docsets = _inputs(planted)
    forward = run_pipeline(cfg, questions, docsets, stages=stages)
    backward = run_pipeline(cfg, questions[::-1], docsets, stages=stages)
    assert [r.question_id for r in forward.runs] == [q.id for q in questions]
    assert [r.question_id for r in backward.runs] == \
        [q.id for q in questions[::-1]]
    assert [r.groups for r in backward.runs] == \
        [r.groups for r in forward.runs][::-1]


def test_run_pipeline_logs_progress_at_info_only(tmp_path, caplog, planted,
                                                  planted_config):
    cfg = PipelineConfig(**planted_config)
    stages, _ = load_stages(cfg)
    questions, docsets = _inputs(planted)
    run_bytes = {}
    # WARNING is the CLI's level without --verbose, INFO the level with it.
    for level in (logging.WARNING, logging.INFO):
        caplog.clear()
        with caplog.at_level(level, logger="entityqa"):
            result = run_pipeline(cfg, questions, docsets, stages=stages)
        records = [r for r in caplog.records if r.name == "entityqa.pipeline"]
        if level == logging.INFO:
            assert [r.levelno for r in records] == [logging.INFO] * len(questions)
            assert all(q.id in r.getMessage()
                       for r, q in zip(records, questions))
        else:
            assert records == []
        out = tmp_path / f"{logging.getLevelName(level)}.jsonl"
        write_run_file(out, result, cfg)
        run_bytes[level] = out.read_bytes()
    assert run_bytes[logging.WARNING] == run_bytes[logging.INFO]


def test_run_pipeline_missing_docset_recorded(planted, planted_config):
    cfg = PipelineConfig(**planted_config)
    questions, docsets = _inputs(planted)
    docsets.pop(questions[0].id)
    result = run_pipeline(cfg, questions, docsets)
    assert result.errors
    assert len(result.runs) == len(questions) - 1
    assert result.errors[0][0] == questions[0].id
    assert "document" in result.errors[0][1]


def test_run_pipeline_times_each_run_and_no_failed_question(monkeypatch, planted,
                                                            planted_config):
    cfg = PipelineConfig(**planted_config)
    questions, docsets = _inputs(planted)
    result = run_pipeline(cfg, questions, docsets)
    assert len(result.seconds) == len(result.runs) == len(questions)
    assert all(type(s) is float and s > 0 for s in result.seconds)

    # Each question takes a different time on a fake clock, so a time
    # recorded for a failed question, or out of run order, shows.
    no_docs, raising = questions[1].id, questions[4].id
    docsets.pop(no_docs)
    duration = {q.id: float(n) for n, q in enumerate(questions, start=1)}
    now = [0.0]

    class Stages:
        config = cfg

        def answer(self, question, docset):
            now[0] += duration[question.id]
            if question.id == raising:
                raise ValueError("no answer")
            return TiedRun(question.id, (), ())

    monkeypatch.setattr(pipeline, "perf_counter", lambda: now[0])
    result = run_pipeline(cfg, questions, docsets, stages=Stages())
    answered = [q.id for q in questions if q.id not in (no_docs, raising)]
    assert [run.question_id for run in result.runs] == answered
    assert result.seconds == tuple(duration[qid] for qid in answered)
    assert [qid for qid, _ in result.errors] == [no_docs, raising]


def test_prepare_skips_segmentation_for_unmapped_type(monkeypatch, planted,
                                                      planted_config):
    stages, _ = load_stages(PipelineConfig(**planted_config))
    questions, docsets = _inputs(planted)
    segmented = []

    def counting_segment(doc):
        segmented.append(doc.doc_id)
        return segment_sentences(doc)

    monkeypatch.setattr(pipeline, "segment_sentences", counting_segment)
    abbreviation = Question(id=questions[0].id, text="What does VRC stand for?")
    assert stages.prepare(abbreviation, docsets[abbreviation.id]) is None
    assert segmented == []
    # The same documents are segmented for an entity question.
    assert stages.prepare(questions[0], docsets[questions[0].id]) is not None
    assert segmented == [d.doc_id for d in docsets[questions[0].id].documents]


def test_unmapped_question_type_yields_empty_run(tmp_path, planted,
                                                 planted_config):
    # an abbreviation question has no entity-tag mapping: the pipeline
    # must emit an empty run for it rather than fail
    questions_path = tmp_path / "q.jsonl"
    questions_path.write_text(json.dumps({
        "id": "abbr-1", "text": "What does VRC stand for?",
        "gold_answers": ["anything"], "set": "custom"}) + "\n")
    documents_path = tmp_path / "d.jsonl"
    documents_path.write_text(json.dumps({
        "question_id": "abbr-1", "rank": 1,
        "text": "Zorvath Kellin appeared here."}) + "\n")
    cfg = PipelineConfig(**dict(planted_config,
                                questions_path=str(questions_path),
                                documents_path=str(documents_path)))
    questions = load_questions(questions_path)
    docsets = {qid: DocumentSet(question_id=qid, documents=tuple(docs))
               for qid, docs in load_documents(documents_path).items()}
    result = run_pipeline(cfg, questions, docsets)
    assert not result.errors
    assert len(result.runs) == 1
    assert result.runs[0].groups == ()


def test_empty_candidate_pool_yields_empty_run(tmp_path, planted,
                                               planted_config):
    questions_path = tmp_path / "q.jsonl"
    questions_path.write_text(json.dumps({
        "id": "empty-1", "text": "Who founded the famous bridge in Ostenfell?",
        "gold_answers": ["nobody"], "set": "custom"}) + "\n")
    documents_path = tmp_path / "d.jsonl"
    documents_path.write_text(json.dumps({
        "question_id": "empty-1", "rank": 1,
        "text": "No lexicon entity occurs in this text."}) + "\n")
    cfg = PipelineConfig(**dict(planted_config,
                                questions_path=str(questions_path),
                                documents_path=str(documents_path)))
    questions = load_questions(questions_path)
    docsets = {qid: DocumentSet(question_id=qid, documents=tuple(docs))
               for qid, docs in load_documents(documents_path).items()}
    result = run_pipeline(cfg, questions, docsets)
    assert not result.errors
    assert result.runs[0].groups == ()


def test_stages_reusable_across_runs(planted, planted_config):
    cfg = PipelineConfig(**planted_config)
    stages, load_seconds = load_stages(cfg)
    assert load_seconds >= 0.0
    questions, docsets = _inputs(planted)
    r1 = run_pipeline(cfg, questions, docsets, stages=stages)
    r2 = run_pipeline(cfg, questions, docsets, stages=stages)
    assert [r.groups for r in r1.runs] == [r.groups for r in r2.runs]
    # An equal config built anew is the same config.
    assert run_pipeline(PipelineConfig(**planted_config), questions, docsets,
                        stages=stages) == r1


def test_run_pipeline_refuses_the_stages_of_another_config(planted, planted_config):
    """The run file carries the id of `run_pipeline`'s config, so stages
    loaded for another config would answer under a false id."""
    cfg = PipelineConfig(**planted_config)
    stages, _ = load_stages(cfg)
    other = replace(cfg, aggregation="avg")
    questions, docsets = _inputs(planted)
    with pytest.raises(ValueError) as err:
        run_pipeline(other, questions, docsets, stages=stages)
    assert str(err.value) == (f"stages of config {cfg.config_id} "
                              f"given for config {other.config_id}")


def test_aggregation_modes_change_scores_not_winner(planted, planted_config):
    questions, docsets = _inputs(planted)
    gold = {q.qid: q.gold_surface.lower() for q in planted.questions}
    for aggregation in ("avg", "avg_max", "max"):
        cfg = PipelineConfig(**dict(planted_config, aggregation=aggregation))
        result = run_pipeline(cfg, questions, docsets)
        for run in result.runs:
            assert gold[run.question_id] in run.groups[0]


def _random_evidence(rng: random.Random, n_docs: int
                     ) -> tuple[list[EvidenceSet], list]:
    """Up to 100 candidates with few distinct sentence scores and dfs, so
    that ties are common, and with scores of both signs that round to
    zero, as EvidenceSets and as reference_rank's plain tuples."""
    levels = [-1.0, -0.5, -1e-12, 0.0, 1e-12, 0.1, 0.2, 1 / 3, 0.5, 0.7,
              0.9, 1.0]
    evidence, plain = [], []
    for i in range(rng.randint(0, 100)):
        surface = f"entity {i}"
        docs = rng.sample(range(n_docs), rng.randint(1, n_docs))
        keys = sorted((f"d{d}", s) for d in docs
                      for s in rng.sample(range(6), rng.randint(1, 3)))
        scores = tuple(rng.choice(levels) if rng.random() < 0.7
                       else rng.uniform(-1, 1) for _ in keys)
        df = rng.randint(0, n_docs)
        entity = CandidateEntity(canonical_surface=surface, df=df,
                                 sentence_keys=tuple(keys))
        evidence.append(EvidenceSet(entity=entity, scores=scores))
        plain.append((surface, [(doc_id, score) for (doc_id, _), score
                                in zip(keys, scores)], df))
    return evidence, plain


def _hex(scores):
    # float.hex tells -0.0 from 0.0, which == does not.
    return tuple(score.hex() for score in scores)


def test_answer_matches_reference_rank(monkeypatch):
    """The float tail of `answer` gives the old per-candidate tail's groups
    and scores, bit for bit, under every aggregation, denominator and
    combine mode."""
    prepared = None
    monkeypatch.setattr(LoadedStages, "prepare",
                        lambda self, question, docset: prepared)
    question = Question(id="q", text="Who?")
    rng = random.Random(2024)
    grid = rng.sample(ALPHA_BETA_GRID, 8) + [(0.1, 0.1), (0.7, 0.7)]
    cut = signed_zero = 0
    for trial in range(600):
        n_docs = rng.randint(1, 10)
        evidence, plain = _random_evidence(rng, n_docs)
        aggregation = AGGREGATION_MODES[trial % 3]
        denominator = ("containing_docs", "all_docs")[trial // 3 % 2]
        combine = ("multiplicative", "additive")[trial // 6 % 2]
        alpha, beta = grid[trial % len(grid)]
        digits = rng.choice([1, 3, 9])
        config = PipelineConfig(aggregation=aggregation,
                                avgmax_denominator=denominator,
                                combine=combine, alpha=alpha, beta=beta,
                                score_digits=digits)
        prepared = None, evidence, n_docs
        stages = LoadedStages(config=config, classifier=None, provider=None,
                              type_map=None, read_documents=None)
        run = stages.answer(question, None)
        groups, scores = reference_rank(plain, n_docs, aggregation,
                                        denominator, combine, alpha, beta,
                                        digits, max_groups=len(plain))
        assert run.groups == groups[:5]
        assert _hex(run.scores) == _hex(scores[:5])
        assert run.question_id == "q"
        cut += len(groups) > 5
        signed_zero += "-0x0.0p+0" in _hex(scores[:5])
    # Most pools hold more groups than are kept, and some keep a -0.0.
    assert cut > 300 and signed_zero > 10


class _StubClassifier:
    """Types every question ENTITY; the test's type map gives its tags."""

    def predict(self, _text):
        return "ENTITY", "ENTITY:other"


def test_answer_matches_reference_answer_on_random_cases():
    """From raw text to a run: `answer` on the gazetteer/word-average path
    gives the groups of `reference_answer`, and its scores bit for bit,
    on random questions, documents, gazetteers and configs."""
    rng = random.Random(61)
    abbreviations = default_abbreviations()
    contractions = dict(default_contractions())
    drawn = {key: set() for key in ("aggregation", "combine", "avgmax_denominator",
                                    "score_digits", "candidate_cap", "df_any_tag",
                                    "group_surface_variants")}
    answered = capped = full = tied = signed_zero = 0
    for n in range(300):
        case = random_answer_case(rng)
        for key, values in drawn.items():
            values.add(case.config[key])
        config = PipelineConfig(**case.config)
        question = Question("q", case.question)
        docset = DocumentSet("q", tuple(Document("q", rank, text) for rank, text
                                        in enumerate(case.documents, start=1)))
        stages = LoadedStages(
            config=config, classifier=_StubClassifier(),
            provider=WordAverageProvider(case.vectors),
            type_map=AnswerTypeMap(coarse={"ENTITY": case.accepted} if case.accepted
                                   else {}, fine={}),
            read_documents=partial(document_step,
                                   extractor=GazetteerExtractor(case.lexicon)))
        run = stages.answer(question, docset)
        groups, scores = reference_answer(
            case.question, [(d.doc_id, d.text) for d in docset.documents], config,
            case.lexicon, case.vectors, accepted=case.accepted,
            abbreviations=abbreviations, contractions=contractions)
        assert (run.groups, _hex(run.scores)) == (groups, _hex(scores)), n
        pool = stages.prepare(question, docset)
        answered += bool(groups)
        capped += bool(pool and pool[0].capped)
        full += len(groups) == 5
        tied += any(len(group) > 1 for group in groups)
        signed_zero += "-0x0.0p+0" in _hex(scores)
    assert drawn == {
        "aggregation": set(AGGREGATION_MODES), "combine": set(COMBINE_MODES),
        "avgmax_denominator": set(AVGMAX_DENOMINATORS), "score_digits": {1, 2, 3, 9, 15},
        "candidate_cap": {1, 2, 3, 5, 100}, "df_any_tag": {False, True},
        "group_surface_variants": {False, True}}
    # Most cases rank candidates, and many cap the pool, keep five groups,
    # tie two candidates or keep a -0.0.
    counts = (answered, capped, full, tied, signed_zero)
    assert answered > 200 and min(capped, full, tied) > 20 and signed_zero > 5, counts


def test_rank_answers_takes_a_group_score_from_its_first_member():
    """Scores of both signs that round to zero share one group, whose score
    keeps the sign of its first member in input order."""
    config = PipelineConfig().ranking
    for semantic, want in (([-1e-12, 1e-12], ("-0x0.0p+0",)),
                           ([1e-12, -1e-12], ("0x0.0p+0",)),
                           ([0.5, 1e-12, -1e-12, -0.0], ((0.5).hex(), "0x0.0p+0"))):
        surfaces = [f"e{i}" for i in range(len(semantic))]
        run = pipeline.rank_answers("q", surfaces, semantic, [1] * len(semantic),
                                    1, config)
        assert _hex(run.scores) == want
        assert frozenset().union(*run.groups) == frozenset(surfaces)
