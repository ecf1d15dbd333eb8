import argparse
import csv
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from datagen import generate_labeled_file

from entityqa.cli import _build_parser, main
from entityqa.corpus import (Document, DocumentSet, load_documents, preprocess_text,
                             write_documents)
from entityqa.entities import AnnotationFileExtractor
from entityqa.errors import ParseError
from entityqa.qtype import QuestionClassifier
from entityqa.scoring import text_sha256


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_run_file_and_sidecar(tmp_path, config_file):
    cfg = config_file()
    out = tmp_path / "runs.jsonl"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()
    sidecar = json.loads((tmp_path / "runs.jsonl.config.json").read_text())
    assert sidecar["errors"] == []
    lines = out.read_text().splitlines()
    assert len(lines) == 12
    assert json.loads(lines[0])["config_id"] == sidecar["config_id"]


def test_run_twice_is_byte_identical(tmp_path, config_file):
    cfg = config_file()
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_set_overrides_change_config_id(tmp_path, config_file):
    cfg = config_file()
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    main(["run", "--config", str(cfg), "--out", str(out1)])
    main(["run", "--config", str(cfg), "--out", str(out2),
          "--set", "aggregation=avg"])
    id1 = json.loads((tmp_path / "r1.jsonl.config.json").read_text())["config_id"]
    id2 = json.loads((tmp_path / "r2.jsonl.config.json").read_text())["config_id"]
    assert id1 != id2


def test_run_unknown_config_key_exits_2(tmp_path, config_file, capsys):
    # Old configs that still set `workers` or `seed` must fail loudly.
    for key in ("not_an_option", "workers", "seed"):
        cfg = config_file({key: 1})
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "r.jsonl")]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {cfg}: unknown config keys ['{key}']")


@pytest.mark.parametrize("text, reason", [
    ('{"aggregation": "avg",\n', ":2: invalid JSON: "),
    ('["aggregation", "avg"]', ":1: expected a JSON object"),
])
def test_run_malformed_config_exits_2(tmp_path, capsys, text, reason):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "r.jsonl")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {cfg}{reason}")


@pytest.mark.parametrize("key, value, reason", [
    ("df_any_tag", "false", "df_any_tag must be true or false, not 'false'"),
    ("candidate_cap", 2.5, "candidate_cap must be a positive integer, not 2.5"),
    ("questions_path", 7, "questions_path must be a string, not 7"),
])
def test_run_config_value_of_another_kind_exits_2(tmp_path, config_file, capsys,
                                                  key, value, reason):
    cfg = config_file({key: value})
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "r.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: {reason}")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_run_set_value_of_another_kind_names_the_file_and_set(tmp_path, config_file,
                                                              capsys):
    cfg = config_file()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.jsonl"),
                 "--set", 'df_any_tag="false"']) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg} with --set: "
                          "df_any_tag must be true or false, not 'false'")
    assert list(tmp_path.iterdir()) == [cfg]


def test_run_missing_input_file_exits_2(tmp_path, config_file):
    cfg = config_file({"gazetteer_path": str(tmp_path / "missing.tsv")})
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "r.jsonl")]) == 2


def test_run_writes_into_a_new_nested_directory(tmp_path, config_file):
    out = tmp_path / "new" / "nested" / "runs.jsonl"
    assert main(["run", "--config", str(config_file()), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 12
    sidecar = json.loads((out.parent / "runs.jsonl.config.json").read_text())
    assert sidecar["errors"] == []


@pytest.mark.parametrize("case", ["run --config", "run --out", "evaluate run"])
def test_a_path_that_names_a_directory_is_a_data_error(tmp_path, config_file, planted,
                                                      capsys, case):
    directory = tmp_path / "dir"
    directory.mkdir()
    argv = {
        "run --config": ["run", "--config", str(directory),
                         "--out", str(tmp_path / "r.jsonl")],
        "run --out": ["run", "--config", str(config_file()), "--out", str(directory)],
        "evaluate run": ["evaluate", str(directory), "--qrels", planted.qrels_path,
                         "--out-prefix", str(tmp_path / "eval")],
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"'{directory}'" in err
    assert "Traceback" not in err
    assert directory.is_dir() and not any(directory.iterdir())
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("own_set", [False, True])
@pytest.mark.parametrize("via_set", [False, True])
def test_unknown_source_set_is_a_config_error(tmp_path, config_file, planted_config,
                                              capsys, own_set, via_set):
    """The config's source_set is checked whether or not each question
    carries its own set, before any input is read."""
    questions = tmp_path / "questions.jsonl"
    records = [json.loads(line) for line in Path(
        planted_config["questions_path"]).read_text(encoding="utf-8").splitlines()]
    questions.write_text("".join(
        json.dumps({k: v for k, v in record.items() if own_set or k != "set"}) + "\n"
        for record in records), encoding="utf-8")
    cfg = config_file({"questions_path": str(questions),
                       **({} if via_set else {"source_set": "CQ-X"})})
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "r.jsonl")]
    assert main(argv + (["--set", "source_set=CQ-X"] if via_set else [])) == 2
    source = f"{cfg} with --set" if via_set else str(cfg)
    assert capsys.readouterr().err == (
        f"config error: {source}: source_set must be one of "
        f"('CQ-W', 'CQ-T', 'custom'), got 'CQ-X'\n")
    assert not (tmp_path / "r.jsonl").exists()


def test_run_question_without_documents_exits_1(tmp_path, config_file,
                                                 planted_config):
    # The run file and the sidecar are still written, but a run file that
    # lacks a question must not look like a success.
    lines = Path(planted_config["documents_path"]).read_text(
        encoding="utf-8").splitlines(keepends=True)
    dropped = json.loads(lines[0])["question_id"]
    documents = tmp_path / "documents.jsonl"
    documents.write_text("".join(line for line in lines
                                 if json.loads(line)["question_id"] != dropped),
                         encoding="utf-8")
    cfg = config_file({"documents_path": str(documents)})
    out = tmp_path / "runs.jsonl"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    answered = [json.loads(line)["question_id"]
                for line in out.read_text().splitlines()]
    assert len(answered) == 11 and dropped not in answered
    sidecar = json.loads((tmp_path / "runs.jsonl.config.json").read_text())
    assert sidecar["errors"] == [{"question_id": dropped,
                                  "error": "no document set"}]


def test_run_question_that_fails_exits_1_and_the_others_are_answered(
        tmp_path, config_file, planted, planted_config, caplog):
    # One failure of each kind that README's `run` section names: a question
    # without documents; an annotation line that names a document rank its
    # question lacks, a ParseError; and a question whose text the embedding
    # cache lacks, a DataError. Each fails its question alone, and the
    # sidecar records it as {"question_id", "error"}.
    no_docs, bad_rank, uncached = (planted.questions[i] for i in (1, 3, 5))
    documents = tmp_path / "documents.jsonl"
    documents.write_text("".join(
        line for line in Path(planted_config["documents_path"]).read_text(
            encoding="utf-8").splitlines(keepends=True)
        if json.loads(line)["question_id"] != no_docs.qid), encoding="utf-8")
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text(json.dumps({"question_id": bad_rank.qid, "doc_rank": 99,
                                       "entities": []}) + "\n", encoding="utf-8")
    digest = text_sha256(preprocess_text(uncached.text))
    cache = tmp_path / "cache.jsonl"
    cache.write_text("".join(
        line for line in Path(planted_config["cache_path"]).read_text(
            encoding="utf-8").splitlines(keepends=True)
        if json.loads(line)["sha256"] != digest), encoding="utf-8")
    cfg = config_file({"documents_path": str(documents), "ner_backend": "annotations",
                       "annotations_path": str(annotations),
                       "embedding_provider": "cache", "cache_path": str(cache)})
    out = tmp_path / "runs.jsonl"
    with caplog.at_level("INFO", logger="entityqa"):
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    failed = (no_docs.qid, bad_rank.qid, uncached.qid)
    answered = [json.loads(line)["question_id"] for line in out.read_text().splitlines()]
    assert answered == [q.qid for q in planted.questions if q.qid not in failed]
    sidecar = json.loads((tmp_path / "runs.jsonl.config.json").read_text())
    assert sidecar["errors"] == [
        {"question_id": no_docs.qid, "error": "no document set"},
        {"question_id": bad_rank.qid, "error": (
            f"ParseError: {annotations}:1: question {bad_rank.qid!r}: annotations reference"
            f" unknown document {bad_rank.qid!r} rank 99")},
        {"question_id": uncached.qid, "error": (
            f"DataError: {cache}: no cached embedding for sha256 {digest}")}]
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert [r.getMessage() for r in errors] == [f"question {bad_rank.qid} failed",
                                                 f"question {uncached.qid} failed"]
    # README's `run` section gives the same record and the same two forms.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert '`{"question_id", "error"}` objects' in readme
    assert "`no document set`" in readme and "`<ExceptionType>: <message>`" in readme


def test_run_malformed_questions_exits_1(tmp_path, config_file):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    cfg = config_file({"questions_path": str(bad)})
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "r.jsonl")]) == 1


def test_run_duplicate_document_is_a_data_error(tmp_path, config_file, capsys):
    bad = tmp_path / "documents.jsonl"
    record = json.dumps({"question_id": "q1", "rank": 1, "text": "Paris is big."})
    bad.write_text(record + "\n" + record + "\n", encoding="utf-8")
    cfg = config_file({"documents_path": str(bad)})
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "r.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}:2:")
    assert "'q1'" in err and "first seen on line 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entity, reason", [
    ({"tag": "CITY"}, "unknown entity tag 'CITY'"),
    ({"end": None}, "entity without key 'end'"),
    ({"start": 5}, "bad span [5, 5)"),
    ({"sent_idx": "one"}, "sent_idx must be an integer, not 'one'"),
    ({"sent_idx": True, "start": 0.9, "end": 2.7}, "sent_idx must be an integer, not True"),
    ({"start": 0.9, "end": 2.7}, "start must be an integer, not 0.9"),
    ({"surface": 7}, "surface must be a string, not 7"),
])
def test_malformed_annotation_is_a_data_error_at_load(
        tmp_path, config_file, capsys, entity, reason):
    good = {"surface": "Paris", "tag": "GPE", "sent_idx": 0, "start": 0, "end": 5}
    ent = {k: v for k, v in {**good, **entity}.items() if v is not None}
    bad = tmp_path / "annotations.jsonl"
    bad.write_text(json.dumps({"question_id": "q7", "doc_rank": 1,
                               "entities": [ent]}) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        AnnotationFileExtractor(bad)
    assert str(excinfo.value).startswith(f"{bad}:1: question 'q7': {reason}")

    out = tmp_path / "r.jsonl"
    cfg = config_file({"ner_backend": "annotations", "annotations_path": str(bad)})
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}:1: question 'q7': {reason}")
    assert not out.exists() and not Path(f"{out}.config.json").exists()


def test_gazetteer_tag_outside_the_tagset_is_a_data_error(tmp_path, config_file,
                                                         capsys):
    bad = tmp_path / "gazetteer.tsv"
    bad.write_text("Foo Bar\tCITY\n", encoding="utf-8")
    out = tmp_path / "r.jsonl"
    assert main(["run", "--config", str(config_file()), "--out", str(out),
                 "--set", f"gazetteer_path={bad}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}:1: gazetteer tag 'CITY' not in the tagset")
    assert "Traceback" not in err
    assert not out.exists() and not Path(f"{out}.config.json").exists()


def test_oversized_integer_in_a_documents_line_is_a_data_error(tmp_path, config_file,
                                                              capsys):
    # An integer of more digits than int() converts (4,300 by default)
    # raises a plain ValueError in the JSON parser, not a JSONDecodeError.
    bad = tmp_path / "documents.jsonl"
    bad.write_text('{"question_id": ' + "7" * 5000 + ', "rank": 1, "text": "A."}\n',
                   encoding="utf-8")
    cfg = config_file({"documents_path": str(bad)})
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "r.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}:1: invalid JSON: ")
    assert "Traceback" not in err


def test_oversized_integer_in_set_is_a_config_error(tmp_path, config_file, capsys):
    # Kept as the raw string, like any other value that is not JSON.
    assert main(["run", "--config", str(config_file()),
                 "--out", str(tmp_path / "r.jsonl"),
                 "--set", "candidate_cap=" + "5" * 5000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def test_bad_set_syntax_exits_2(tmp_path, config_file):
    cfg = config_file()
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "r.jsonl"),
                 "--set", "no-equals-sign"]) == 2


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("overrides, reason", [
    (["combine=additive", "alpha=0"], "alpha and beta must lie in (0, 1]"),
    (["score_digits=0"], "score_digits must be a positive integer"),
    (["score_digits=1.5"], "score_digits must be a positive integer"),
])
def test_bad_ranking_rules_exit_2_before_any_question(
        tmp_path, planted, config_file, capsys, command, overrides, reason):
    out = tmp_path / "out"
    args = ([command, "--config", str(config_file()), "--out", str(out)]
            if command == "run" else
            [command, "--config", str(config_file()),
             "--qrels", planted.qrels_path, "--out-prefix", str(out)])
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 2
    cfg = tmp_path / "config.json"
    assert capsys.readouterr().err.startswith(f"config error: {cfg} with --set: {reason}")
    assert list(tmp_path.iterdir()) == [cfg]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

@pytest.fixture()
def run_file(tmp_path, config_file):
    cfg = config_file()
    out = tmp_path / "system.jsonl"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_evaluate_writes_reports(tmp_path, planted, run_file, capsys):
    prefix = tmp_path / "eval"
    assert main(["evaluate", str(run_file), "--qrels", planted.qrels_path,
                 "--out-prefix", str(prefix)]) == 0
    rows = list(csv.reader((tmp_path / "eval.csv").open()))
    assert rows[0][0] == "run_id"
    assert rows[1][0] == "system"
    payload = json.loads((tmp_path / "eval.json").read_text())
    assert payload[0]["means"]["P@1"] == pytest.approx(1.0)
    printed = capsys.readouterr().out
    assert "system" in printed and "P@1" in printed


def test_evaluate_two_runs_significance_and_diff(tmp_path, planted,
                                                 config_file, run_file):
    cfg = config_file({"aggregation": "avg"}, name="avg.json")
    other = tmp_path / "other.jsonl"
    assert main(["run", "--config", str(cfg), "--out", str(other)]) == 0
    prefix = tmp_path / "cmp"
    assert main(["evaluate", str(run_file), str(other),
                 "--qrels", planted.qrels_path,
                 "--out-prefix", str(prefix),
                 "--diff-metric", "tMRR"]) == 0
    sig = json.loads((tmp_path / "cmp.significance.json").read_text())
    assert sig  # at least one pair compared
    diff_rows = list(csv.reader((tmp_path / "cmp.diff.csv").open()))
    assert diff_rows[0] == ["question_id", "diff_tMRR"]
    assert len(diff_rows) == 13


def test_evaluate_diff_metric_on_reordered_run(tmp_path, planted, config_file,
                                               run_file):
    # Centroids on the cache provider leave most questions unanswered, so
    # the diff against the default run is not all zeros.
    cfg = config_file({"classifier": "external-embedding",
                       "embedding_provider": "cache"}, name="centroids.json")
    other = tmp_path / "other.jsonl"
    assert main(["run", "--config", str(cfg), "--out", str(other)]) == 0
    reversed_other = tmp_path / "reversed.jsonl"
    reversed_other.write_text(
        "".join(reversed(other.read_text().splitlines(keepends=True))))
    for b, prefix in ((other, "in-order"), (reversed_other, "reversed")):
        assert main(["evaluate", str(run_file), str(b),
                     "--qrels", planted.qrels_path,
                     "--out-prefix", str(tmp_path / prefix),
                     "--diff-metric", "tMRR"]) == 0
    in_order = (tmp_path / "in-order.diff.csv").read_bytes()
    assert in_order == (tmp_path / "reversed.diff.csv").read_bytes()
    assert any(float(row[1]) != 0.0 for row in
               list(csv.reader((tmp_path / "in-order.diff.csv").open()))[1:])


def test_evaluate_diff_metric_requires_two_runs(tmp_path, planted, run_file):
    assert main(["evaluate", str(run_file), "--qrels", planted.qrels_path,
                 "--out-prefix", str(tmp_path / "x"),
                 "--diff-metric", "tMRR"]) == 2
    assert list(tmp_path.glob("x.*")) == []


def test_evaluate_unknown_diff_metric_rejected(tmp_path, planted, run_file):
    assert main(["evaluate", str(run_file), str(run_file),
                 "--qrels", planted.qrels_path,
                 "--out-prefix", str(tmp_path / "x"),
                 "--diff-metric", "NDCG"]) == 2
    assert list(tmp_path.glob("x.*")) == []


def test_evaluate_two_runs_of_one_question_is_a_data_error(tmp_path, capsys):
    qrels = tmp_path / "qrels.jsonl"
    qrels.write_text(json.dumps({"question_id": "q1", "gold_answers": ["Rome"]}) + "\n")
    runs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for run in runs:
        run.write_text(json.dumps({"question_id": "q1", "groups": [["Rome"]],
                                   "scores": [0.5]}) + "\n")
    prefix = tmp_path / "x"
    assert main(["evaluate", *map(str, runs), "--qrels", str(qrels),
                 "--out-prefix", str(prefix)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: runs {runs[0]}, {runs[1]} hold fewer than two")
    assert "t-tests" in err and "Traceback" not in err
    assert list(tmp_path.glob("x.*")) == []


def test_evaluate_two_run_files_with_one_stem_is_a_data_error(tmp_path, capsys):
    # Each report row and significance pair is named after its file's stem,
    # so sysA/run.jsonl and sysB/run.jsonl would both read "run".
    qrels = tmp_path / "qrels.jsonl"
    qrels.write_text("".join(json.dumps({"question_id": qid, "gold_answers": ["Rome"]}) + "\n"
                             for qid in ("q1", "q2")))
    runs = [tmp_path / "sysA" / "run.jsonl", tmp_path / "sysB" / "run.jsonl"]
    for run in runs:
        run.parent.mkdir()
        run.write_text("".join(json.dumps({"question_id": qid, "groups": [["Rome"]],
                                           "scores": [0.5]}) + "\n" for qid in ("q1", "q2")))
    assert main(["evaluate", *map(str, runs), "--qrels", str(qrels),
                 "--out-prefix", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        f"data error: run files {runs[0]} and {runs[1]} share the stem 'run', "
        f"which names a run in the reports\n")
    assert list(tmp_path.glob("x.*")) == []


def test_evaluate_run_file_with_a_question_twice_names_file_and_line(
        tmp_path, run_file, planted, capsys):
    lines = run_file.read_text(encoding="utf-8").splitlines(keepends=True)
    twice = tmp_path / "twice.jsonl"
    twice.write_text(lines[0] + lines[1] + lines[0], encoding="utf-8")
    qid = json.loads(lines[0])["question_id"]
    assert main(["evaluate", str(run_file), str(twice), "--qrels", planted.qrels_path,
                 "--out-prefix", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        f"data error: {twice}:3: duplicate question id {qid!r} (first seen on line 1)\n")
    assert list(tmp_path.glob("x.*")) == []


def test_evaluate_qrels_with_a_byte_that_is_not_utf8_is_a_data_error_naming_its_line(
        tmp_path, capsys):
    qrels = tmp_path / "qrels.jsonl"
    qrels.write_bytes(b'{"question_id": "q1", "gold_answers": ["Rome"]}\n'
                      b'{"question_id": "q2", "gold_answers": ["R\xffme"]}\n')
    run = tmp_path / "run.jsonl"
    run.write_text("".join(json.dumps({"question_id": qid, "groups": [["Rome"]],
                                       "scores": [0.5]}) + "\n" for qid in ("q1", "q2")))
    assert main(["evaluate", str(run), "--qrels", str(qrels),
                 "--out-prefix", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        f"data error: {qrels}:2: not UTF-8: byte 0xff at column 42\n")
    assert list(tmp_path.glob("x.*")) == []


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_ablate_writes_24_rows(tmp_path, planted, config_file):
    cfg = config_file()
    prefix = tmp_path / "ablation"
    assert main(["ablate", "--config", str(cfg),
                 "--qrels", planted.qrels_path,
                 "--out-prefix", str(prefix)]) == 0
    rows = list(csv.reader((tmp_path / "ablation.csv").open()))
    assert len(rows) == 25  # header + 24 combinations
    header = rows[0]
    assert "classifier" in header and "tMRR" in header
    payload = json.loads((tmp_path / "ablation.json").read_text())
    assert len(payload) == 24


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_writes_latency_report(tmp_path, config_file):
    cfg = config_file()
    out = tmp_path / "bench.json"
    assert main(["bench", "--config", str(cfg), "--out", str(out),
                 "--iterations", "2"]) == 0
    payload = json.loads(out.read_text())
    assert payload["iterations"] == 2
    assert payload["n_questions"] == 12
    assert payload["mean_seconds"]["overall"] > 0
    assert not payload["low_confidence"]


def test_bench_single_iteration_flagged(tmp_path, config_file, capsys):
    cfg = config_file()
    out = tmp_path / "bench.json"
    assert main(["bench", "--config", str(cfg), "--out", str(out),
                 "--iterations", "1"]) == 0
    assert json.loads(out.read_text())["low_confidence"]
    assert "low-confidence" in capsys.readouterr().err.lower()


def test_bench_speedup_against_comparison(tmp_path, config_file):
    cfg = config_file()
    comparison = tmp_path / "other.json"
    comparison.write_text(json.dumps(
        {"label": "reference", "mean_seconds": {"overall": 10.0}}))
    out = tmp_path / "bench.json"
    assert main(["bench", "--config", str(cfg), "--out", str(out),
                 "--iterations", "2", "--comparison", str(comparison)]) == 0
    payload = json.loads(out.read_text())
    assert payload["speedup"]["overall"] > 1.0


def _cache_without(tmp_path, planted_config, questions) -> Path:
    """A copy of the planted embedding cache without the vectors of
    `questions`' texts."""
    digests = {text_sha256(preprocess_text(q.text)) for q in questions}
    cache = tmp_path / "cache.jsonl"
    cache.write_text("".join(
        line for line in Path(planted_config["cache_path"]).read_text(
            encoding="utf-8").splitlines(keepends=True)
        if json.loads(line)["sha256"] not in digests), encoding="utf-8")
    return cache


def test_bench_question_that_fails_is_listed_and_the_others_timed(
        tmp_path, config_file, planted, planted_config, capsys):
    # One question's text is missing from the embedding cache: it fails
    # alone, the report is written and lists it as a run sidecar does, and
    # bench exits 1 after naming it on stderr, as run does.
    uncached = planted.questions[5]
    cache = _cache_without(tmp_path, planted_config, [uncached])
    cfg = config_file({"embedding_provider": "cache", "cache_path": str(cache)})
    out = tmp_path / "bench.json"
    assert main(["bench", "--config", str(cfg), "--out", str(out),
                 "--iterations", "2"]) == 1
    payload = json.loads(out.read_text())
    error = (f"DataError: {cache}: no cached embedding for sha256 "
             f"{text_sha256(preprocess_text(uncached.text))}")
    assert payload["failed"] == [{"question_id": uncached.qid, "error": error}]
    assert payload["n_questions"] == 12 and payload["mean_seconds"]["overall"] > 0
    assert capsys.readouterr().err == f"1 question(s) failed:\n  {uncached.qid}: {error}\n"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert "for `run` and `bench` —\nany question that failed" in readme
    assert 'The report\'s `failed` list holds one `{"question_id", "error"}`' in readme


def test_bench_where_every_question_fails_writes_nothing(
        tmp_path, config_file, planted, planted_config, capsys):
    cache = _cache_without(tmp_path, planted_config, planted.questions)
    cfg = config_file({"embedding_provider": "cache", "cache_path": str(cache)})
    out = tmp_path / "bench.json"
    assert main(["bench", "--config", str(cfg), "--out", str(out),
                 "--iterations", "1"]) == 1
    first = planted.questions[0]
    assert capsys.readouterr().err == (
        f"data error: no question was answered; the first, {first.qid}, failed: "
        f"DataError: {cache}: no cached embedding for sha256 "
        f"{text_sha256(preprocess_text(first.text))}\n")
    assert not out.exists()


def test_run_and_bench_list_the_same_failures(tmp_path, config_file, planted,
                                              planted_config, capsys):
    # One config, two failures: a question whose text the embedding cache
    # lacks, and a later one without documents. Both commands fail each
    # alone, list both in input order in the same objects, name them on
    # stderr alike and exit 1.
    uncached, no_docs = planted.questions[2], planted.questions[6]
    documents = tmp_path / "documents.jsonl"
    documents.write_text("".join(
        line for line in Path(planted_config["documents_path"]).read_text(
            encoding="utf-8").splitlines(keepends=True)
        if json.loads(line)["question_id"] != no_docs.qid), encoding="utf-8")
    cache = _cache_without(tmp_path, planted_config, [uncached])
    cfg = config_file({"documents_path": str(documents),
                       "embedding_provider": "cache", "cache_path": str(cache)})
    runs, bench = tmp_path / "runs.jsonl", tmp_path / "bench.json"
    assert main(["run", "--config", str(cfg), "--out", str(runs)]) == 1
    run_err = capsys.readouterr().err
    assert main(["bench", "--config", str(cfg), "--out", str(bench),
                 "--iterations", "2"]) == 1
    failed = json.loads(bench.read_text())["failed"]
    assert failed == json.loads((tmp_path / "runs.jsonl.config.json").read_text())["errors"]
    assert [f["question_id"] for f in failed] == [uncached.qid, no_docs.qid]
    assert failed[1]["error"] == "no document set"
    assert capsys.readouterr().err == run_err
    assert run_err.startswith("2 question(s) failed:\n")


# ---------------------------------------------------------------------------
# sample-strata
# ---------------------------------------------------------------------------

@pytest.fixture()
def ranked_documents_file(tmp_path):
    docsets = []
    for qid in ("q1", "q2"):
        docs = tuple(Document(question_id=qid, original_rank=r,
                              text=f"Document {r} for {qid}.")
                     for r in range(1, 51))
        docsets.append(DocumentSet(question_id=qid, documents=docs))
    path = tmp_path / "ranked.jsonl"
    write_documents(path, docsets)
    return path


def test_sample_strata_named_spec(tmp_path, ranked_documents_file):
    out = tmp_path / "sampled.jsonl"
    assert main(["sample-strata", "--documents", str(ranked_documents_file),
                 "--spec", "Strata-3", "--out", str(out), "--seed", "5"]) == 0
    by_q = load_documents(out)
    assert set(by_q) == {"q1", "q2"}
    for docs in by_q.values():
        assert len(docs) == 10
    # per-question seeds differ, so the two questions draw different ranks
    assert [d.original_rank for d in by_q["q1"]] != \
        [d.original_rank for d in by_q["q2"]]


def test_sample_strata_deterministic(tmp_path, ranked_documents_file):
    out1, out2 = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
    args = ["sample-strata", "--documents", str(ranked_documents_file),
            "--spec", "Strata-5", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_strata_spec_file(tmp_path, ranked_documents_file):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"name": "mine", "x1": 60, "x2": 30, "x3": 10, "size": 10, "seed": 2}))
    out = tmp_path / "sampled.jsonl"
    assert main(["sample-strata", "--documents", str(ranked_documents_file),
                 "--spec", str(spec_path), "--out", str(out)]) == 0
    assert all(len(docs) == 10 for docs in load_documents(out).values())


@pytest.mark.parametrize("percents", [{"x1": -10, "x2": 60, "x3": 50},
                                      {"x1": 110, "x2": -20, "x3": 10}])
def test_sample_strata_negative_percentage_is_a_data_error(
        tmp_path, ranked_documents_file, capsys, percents):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"name": "mine", **percents}))
    out = tmp_path / "sampled.jsonl"
    assert main(["sample-strata", "--documents", str(ranked_documents_file),
                 "--spec", str(spec_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {spec_path}:1: invalid strata spec: "
                          "band percentages must not be negative")
    assert not out.exists()


def test_sample_strata_unknown_spec_exits_2(tmp_path, ranked_documents_file):
    assert main(["sample-strata", "--documents", str(ranked_documents_file),
                 "--spec", "Strata-99",
                 "--out", str(tmp_path / "out.jsonl")]) == 2


def test_sample_strata_underfull_exits_1(tmp_path):
    docs = tuple(Document(question_id="q1", original_rank=r, text=f"Doc {r}.")
                 for r in range(1, 21))  # no rank 26-50 band
    path = tmp_path / "short.jsonl"
    write_documents(path, [DocumentSet(question_id="q1", documents=docs)])
    assert main(["sample-strata", "--documents", str(path),
                 "--spec", "Strata-3",
                 "--out", str(tmp_path / "out.jsonl")]) == 1


# ---------------------------------------------------------------------------
# malformed JSON-object inputs
# ---------------------------------------------------------------------------

# case -> (name of the malformed file, its text)
_MALFORMED = {
    "type-map-invalid-json": ("type_map.json", '{"coarse": {'),
    "type-map-list": ("type_map.json", '[["HUMAN", "PERSON"]]'),
    "type-map-unknown-tag": ("type_map.json", '{"coarse": {"HUMAN": ["BOGUS"]}}'),
    # Read as a set, "" would be no tags, "PERSON" its letters and 7 a tag.
    "type-map-empty-string": ("type_map.json", '{"coarse": {"HUMAN": ""}}'),
    "type-map-string": ("type_map.json", '{"coarse": {"HUMAN": "PERSON"}}'),
    "type-map-integer-tag": ("type_map.json", '{"coarse": {"HUMAN": [7]}}'),
    "strata-spec-invalid-json": ("spec.json", '{"name": "mine", "x1": 60,,}'),
    # Read as 60 and 10, the percentages would pass the sum-to-100 check.
    "strata-spec-fractional-percent": ("spec.json",
                                       '{"name": "mine", "x1": 60.9, "x2": 30, "x3": 10.4}'),
    "bench-comparison-invalid-json": ("other.json", '{"mean_seconds": '),
    "model-meta-invalid-json": ("model.npz.meta.json", '{"vocab": '),
}
# case -> what its error must say, where another error would also name the file
_MALFORMED_REASON = {
    "type-map-string": "coarse 'HUMAN' must be a JSON array, not 'PERSON'",
    "type-map-integer-tag": "element 0 of coarse 'HUMAN' must be a string, not 7",
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_json_object_input_is_a_data_error(
        tmp_path, config_file, planted_config, ranked_documents_file, capsys,
        case):
    name, text = _MALFORMED[case]
    bad = tmp_path / name
    bad.write_text(text)
    out = str(tmp_path / "out")
    if case.startswith("type-map"):
        argv = ["run", "--config", str(config_file({"type_map_path": str(bad)})),
                "--out", out]
    elif case.startswith("strata-spec"):
        argv = ["sample-strata", "--documents", str(ranked_documents_file),
                "--spec", str(bad), "--out", out]
    elif case.startswith("bench"):
        argv = ["bench", "--config", str(config_file()), "--out", out,
                "--iterations", "1", "--comparison", str(bad)]
    else:
        model = tmp_path / "model.npz"
        shutil.copy(planted_config["model_path"], model)
        argv = ["run", "--config", str(config_file({"model_path": str(model)})),
                "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}:")
    assert _MALFORMED_REASON.get(case, "") in err
    assert "Traceback" not in err
    assert not Path(out).exists()


def _broken_model(model: Path, saved: str, case: str) -> Path:
    """A copy of the model saved as `saved` at `model`, broken as `case`
    says; returns the broken file."""
    npz, meta = QuestionClassifier.files(saved)
    meta_path = QuestionClassifier.files(model)[1]
    shutil.copy(npz, model)
    shutil.copy(meta, meta_path)
    if case == "meta-empty-object":
        meta_path.write_text("{}")
        return meta_path
    if case == "meta-without-fine-classes":
        raw = json.loads(meta.read_text())
        del raw["fine_classes"]
        meta_path.write_text(json.dumps(raw))
        return meta_path
    if case == "meta-vocab-list":
        raw = json.loads(meta.read_text())
        raw["vocab"] = list(raw["vocab"])
        meta_path.write_text(json.dumps(raw))
        return meta_path
    if case == "meta-classes-string":
        # A string of as many letters as there are classes.
        raw = json.loads(meta.read_text())
        raw["coarse_classes"] = "".join(c[0] for c in raw["coarse_classes"])
        meta_path.write_text(json.dumps(raw))
        return meta_path
    if case == "meta-one-class-too-few":
        raw = json.loads(meta.read_text())
        raw["fine_classes"] = raw["fine_classes"][:-1]
        meta_path.write_text(json.dumps(raw))
        return meta_path
    if case == "meta-one-feature-too-many":
        raw = json.loads(meta.read_text())
        raw["vocab"]["lem"].append("zzz-unseen")
        meta_path.write_text(json.dumps(raw))
        return meta_path
    if case == "npz-garbage":
        model.write_bytes(b"\x00not an npz archive\xff" * 8)
        return model
    with np.load(npz) as arrays:
        kept = {name: arrays[name] for name in arrays.files if name != "fine_bias"}
    np.savez(model, **kept)
    return model


@pytest.mark.parametrize("case", ["meta-empty-object", "meta-without-fine-classes",
                                  "meta-vocab-list", "npz-garbage",
                                  "npz-without-fine-bias", "meta-classes-string",
                                  "meta-one-class-too-few", "meta-one-feature-too-many"])
def test_broken_model_file_is_a_data_error(tmp_path, config_file, planted_config,
                                           capsys, case):
    model = tmp_path / "model.npz"
    bad = _broken_model(model, planted_config["model_path"], case)
    argv = ["run", "--config", str(config_file()), "--set", f"model_path={model}",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}:")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"mean_seconds": {"overall": "fast"}}',
    '{"mean_seconds": {"overall": 0.01, "CQ-W": null}}',
    '{"mean_seconds": {"overall": true}}',
    '{"mean_seconds": [0.01]}',
], ids=["string", "null", "bool", "list"])
def test_bench_bad_comparison_fails_before_any_timing(
        tmp_path, config_file, capsys, monkeypatch, text):
    import entityqa.experiments as experiments

    def no_stages(_config):
        raise AssertionError("stages loaded before the comparison was checked")

    monkeypatch.setattr(experiments, "load_stages", no_stages)
    bad = tmp_path / "other.json"
    bad.write_text(text)
    argv = ["bench", "--config", str(config_file()), "--out", str(tmp_path / "out"),
            "--iterations", "1", "--comparison", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# train-qc
# ---------------------------------------------------------------------------

def test_train_qc_saves_model_and_reports_accuracy(tmp_path, capsys):
    labeled = tmp_path / "labeled.txt"
    generate_labeled_file(labeled, n=400, seed=3)
    model_out = tmp_path / "model.npz"
    assert main(["train-qc", "--labeled", str(labeled),
                 "--model-out", str(model_out),
                 "--epochs", "5"]) == 0
    assert model_out.exists()
    printed = capsys.readouterr().out.lower()
    assert "coarse" in printed and "accuracy" in printed

    clf = QuestionClassifier.load(model_out)
    hp = clf.hyperparams
    assert hp["epochs"] == 5
    assert hp["heldout_fraction"] == pytest.approx(0.1)


def test_train_qc_model_without_suffix_runs(tmp_path, config_file):
    labeled = tmp_path / "labeled.txt"
    generate_labeled_file(labeled, n=400, seed=3)
    model_out = tmp_path / "m"
    assert main(["train-qc", "--labeled", str(labeled),
                 "--model-out", str(model_out), "--epochs", "2"]) == 0
    cfg = config_file({"model_path": str(model_out)})
    out = tmp_path / "runs.jsonl"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 12


@pytest.mark.parametrize("command, count", [("bench", "--iterations"),
                                            ("train-qc", "--epochs")])
def test_zero_count_is_a_config_error_before_any_input_is_read(tmp_path, capsys,
                                                              command, count):
    # The inputs do not exist: reading one would be a data error (exit 1).
    missing = str(tmp_path / "missing")
    out = tmp_path / "out"
    inputs = (["--config", missing, "--out", str(out)] if command == "bench"
              else ["--labeled", missing, "--model-out", str(out)])
    assert main([command, *inputs, count, "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {count} must be at least 1, not 0")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, rule", [
    ("--learning-rate", "nan", "finite and positive"),
    ("--learning-rate", "inf", "finite and positive"),
    ("--learning-rate", "-0.5", "finite and positive"),
    ("--learning-rate", "0", "finite and positive"),
    ("--l2", "-1", "finite and at least 0"),
    ("--l2", "nan", "finite and at least 0"),
    ("--l2", "inf", "finite and at least 0"),
])
def test_train_qc_untrainable_rate_is_a_config_error_before_any_input_is_read(
        tmp_path, capsys, flag, value, rule):
    # The labeled file does not exist: reading it would be a data error.
    out = tmp_path / "m.npz"
    assert main(["train-qc", "--labeled", str(tmp_path / "missing"),
                 "--model-out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} must be {rule}, not {float(value)}")
    assert "Traceback" not in err
    assert not out.exists()


def test_train_qc_bad_labels_exit_1(tmp_path):
    labeled = tmp_path / "labeled.txt"
    labeled.write_text("BOGUS:nope\tWhat?\n")
    assert main(["train-qc", "--labeled", str(labeled),
                 "--model-out", str(tmp_path / "m.npz")]) == 1


# ---------------------------------------------------------------------------
# README usage
# ---------------------------------------------------------------------------

def test_readme_usage_names_exactly_the_flags_of_each_command():
    """Each subcommand has one usage block in the README, which names every
    flag of the parser's subcommand and no other, continuation lines
    included; `-h` and the global `--verbose`, which every command takes,
    are left out."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    usage: dict[str, set[str]] = {}
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        if block.startswith("entityqa "):
            command = block.split()[1]
            assert command not in usage, f"two usage blocks of {command}"
            usage[command] = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", block))
    (subparsers,) = [a for a in _build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert usage == {command: {flag for action in parser._actions
                               for flag in action.option_strings
                               if flag.startswith("--")} - {"--help"}
                     for command, parser in subparsers.choices.items()}
