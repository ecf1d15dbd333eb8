import json
import logging
import re
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from entityqa.corpus import DocumentSet, load_documents, load_questions
from entityqa.errors import ConfigError
from entityqa.evaluation import load_qrels, evaluate_run
from entityqa.pipeline import (
    PipelineConfig,
    load_config,
    load_stages,
    run_pipeline,
    write_run_file,
)


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


def test_config_id_is_stable_and_canonical():
    a = PipelineConfig(aggregation="avg")
    b = PipelineConfig(aggregation="avg")
    assert a.config_id == b.config_id
    assert len(a.config_id) == 12
    assert int(a.config_id, 16) >= 0  # hex digest prefix
    assert a.config_id != PipelineConfig(aggregation="max").config_id
    # The id is cached per instance; a replaced config gets its own, and
    # the cache shows in no field-based view of the config.
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


# ---------------------------------------------------------------------------
# end-to-end behaviour on the planted corpus
# ---------------------------------------------------------------------------

def test_run_pipeline_plants_gold_on_top(planted, planted_config):
    cfg = PipelineConfig(**planted_config)
    questions, docsets = _inputs(planted)
    result = run_pipeline(cfg, questions, docsets)
    assert result.ok
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
    assert not result.ok
    assert len(result.runs) == len(questions) - 1
    assert result.errors[0][0] == questions[0].id
    assert "document" in result.errors[0][1]


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
    assert result.ok
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
    assert result.ok
    assert result.runs[0].groups == ()


def test_stages_reusable_across_runs(planted, planted_config):
    cfg = PipelineConfig(**planted_config)
    stages, load_seconds = load_stages(cfg)
    assert load_seconds >= 0.0
    questions, docsets = _inputs(planted)
    r1 = run_pipeline(cfg, questions, docsets, stages=stages)
    r2 = run_pipeline(cfg, questions, docsets, stages=stages)
    assert [r.groups for r in r1.runs] == [r.groups for r in r2.runs]


def test_aggregation_modes_change_scores_not_winner(planted, planted_config):
    questions, docsets = _inputs(planted)
    gold = {q.qid: q.gold_surface.lower() for q in planted.questions}
    for aggregation in ("avg", "avg_max", "max"):
        cfg = PipelineConfig(**dict(planted_config, aggregation=aggregation))
        result = run_pipeline(cfg, questions, docsets)
        for run in result.runs:
            assert gold[run.question_id] in run.groups[0]
