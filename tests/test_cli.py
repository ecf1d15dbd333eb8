import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from datagen import generate_labeled_file

from entityqa.cli import main
from entityqa.corpus import Document, DocumentSet, load_documents, write_documents
from entityqa.entities import AnnotationFileExtractor
from entityqa.errors import ParseError
from entityqa.qtype import QuestionClassifier


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
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err


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


def test_run_missing_input_file_exits_2(tmp_path, config_file):
    cfg = config_file({"gazetteer_path": str(tmp_path / "missing.tsv")})
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "r.jsonl")]) == 2


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
    ({"sent_idx": "one"}, "invalid entity: invalid literal for int()"),
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
    assert f"config error: {reason}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


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
    "strata-spec-invalid-json": ("spec.json", '{"name": "mine", "x1": 60,,}'),
    "bench-comparison-invalid-json": ("other.json", '{"mean_seconds": '),
    "model-meta-invalid-json": ("model.npz.meta.json", '{"vocab": '),
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
    assert "Traceback" not in err


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
    if case == "npz-garbage":
        model.write_bytes(b"\x00not an npz archive\xff" * 8)
        return model
    with np.load(npz) as arrays:
        kept = {name: arrays[name] for name in arrays.files if name != "fine_bias"}
    np.savez(model, **kept)
    return model


@pytest.mark.parametrize("case", ["meta-empty-object", "meta-without-fine-classes",
                                  "meta-vocab-list", "npz-garbage",
                                  "npz-without-fine-bias"])
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


def test_train_qc_bad_labels_exit_1(tmp_path):
    labeled = tmp_path / "labeled.txt"
    labeled.write_text("BOGUS:nope\tWhat?\n")
    assert main(["train-qc", "--labeled", str(labeled),
                 "--model-out", str(tmp_path / "m.npz")]) == 1
