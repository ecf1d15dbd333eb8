"""Byte-identity gate: the planted fixture's outputs, pinned by digest.

A change that is meant to leave outputs alone (a speed-up, a refactor)
must leave these digests alone. Every `config_id` is dropped first,
because the config names the fixture's temporary paths.
"""

import hashlib
import json
import re

import pytest

from entityqa.cli import main
from entityqa.corpus import (DocumentSet, load_documents, load_questions,
                             segment_sentences)
from datagen import write_annotations

from entityqa.entities import GazetteerExtractor
from entityqa.pipeline import PipelineConfig, run_pipeline, write_run_file

_CONFIG_ID = re.compile(r', "config_id": "[0-9a-f]{12}"')

# variant -> (config overrides, sha256 of its run lines without config_id)
GOLDEN = {
    "default": (
        {},
        "3aa7a2b559618c0cddf5fda4cde9a24bf8b805a9fb0956a1a32724eed0bcdd63"),
    "centroids-cache-avgmax-additive-annotations": (
        {"classifier": "external-embedding", "embedding_provider": "cache",
         "aggregation": "avg_max", "combine": "additive",
         "ner_backend": "annotations"},
        "58dcb756cd771ea3db25e951f2a39945b31c42eeb628d497393a18cbf4487f68"),
}


# `evaluate` of the default run against the centroid run above, and the
# `ablate` grid of the default config: output -> sha256 of its bytes, with
# every config_id dropped.
EVALUATE_GOLDEN = {
    "eval.csv":
        "18e195b083fba25e5bac6e06777b9cd60d18466152ed4eb3f2625118091e0081",
    "eval.json":
        "819a9dc6a1d9816d991128d02c45e568e4f3184e87ed3490eb1d380c9e822157",
    "eval.significance.json":
        "6a0e52f85dd64e6ff6e39746ea98d94c40f4515bf7d2bb37ab55a7b137c093c5",
}
ABLATE_GOLDEN = {
    "ablation.csv":
        "f72f86065a3c0d485316e80a4937ae3c6929d49633f35b55a26f7f0f225414a1",
    "ablation.json":
        "8fe23637fdb6bf05d7ce95f625e94f725dd142631ca87dc8758f7ef8bf81c33c",
}
# The fixture SVM's feature space: its dimension and the sha256 of its
# vocabulary as sorted-key JSON. A change to the question features that
# flips none of the planted predictions still shows here. The weights are
# not digested: their float sums may differ between numpy builds.
SVM_SPACE_GOLDEN = (
    1645, "0bd9366e9ac3121e54a04e6aa503752e9269b29d4fde07204ffadb80e586a9ac")
# A config_id as an ablation CSV cell or a JSON string.
_ABLATION_CONFIG_ID = re.compile(r'(?<=[,"])[0-9a-f]{12}(?=[,"])')


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read(path):
    """The file's text as written: CSV keeps its CRLF line ends."""
    return path.read_bytes().decode("utf-8")


def _write_gazetteer_annotations(path, planted, docsets):
    """An annotation file holding the gazetteer's mentions of every
    document, one docset after another."""
    extractor = GazetteerExtractor.from_file(planted.gazetteer_path)
    part = path.with_suffix(".part")
    parts = []
    for docset in docsets.values():
        segmented = DocumentSet(docset.question_id, tuple(
            segment_sentences(d) for d in docset.documents))
        write_annotations(part, segmented, extractor.extract(segmented))
        parts.append(part.read_text(encoding="utf-8"))
    path.write_text("".join(parts), encoding="utf-8")


def _run_variant(tmp_path, planted, planted_config, variant):
    """Answer the planted questions under one GOLDEN variant and write the
    run file <variant>.jsonl."""
    questions = load_questions(planted.questions_path)
    docsets = {qid: DocumentSet(question_id=qid, documents=tuple(docs))
               for qid, docs in load_documents(planted.documents_path).items()}
    overrides = dict(GOLDEN[variant][0])
    if overrides.get("ner_backend") == "annotations":
        annotations = tmp_path / "annotations.jsonl"
        _write_gazetteer_annotations(annotations, planted, docsets)
        overrides["annotations_path"] = str(annotations)
    cfg = PipelineConfig(**dict(planted_config, **overrides))
    result = run_pipeline(cfg, questions, docsets)
    assert not result.errors
    assert any(run.groups for run in result.runs)
    out = tmp_path / f"{variant}.jsonl"
    write_run_file(out, result, cfg)
    assert len(out.read_text(encoding="utf-8").splitlines()) == len(questions)
    return out


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_planted_run_lines_match_golden_digest(tmp_path, planted,
                                               planted_config, variant):
    out = _run_variant(tmp_path, planted, planted_config, variant)
    stripped = []
    for line in out.read_text(encoding="utf-8").splitlines(keepends=True):
        line, n = _CONFIG_ID.subn("", line)
        assert n == 1
        stripped.append(line)
    assert _sha256("".join(stripped)) == GOLDEN[variant][1]


def test_planted_evaluate_outputs_match_golden_digests(tmp_path, planted,
                                                       planted_config):
    runs = [str(_run_variant(tmp_path, planted, planted_config, variant))
            for variant in ("default",
                            "centroids-cache-avgmax-additive-annotations")]
    prefix = tmp_path / "eval"
    assert main(["evaluate", *runs, "--qrels", planted.qrels_path,
                 "--out-prefix", str(prefix)]) == 0
    digests = {name: _sha256(_read(tmp_path / name))
               for name in EVALUATE_GOLDEN}
    assert digests == EVALUATE_GOLDEN


def test_planted_ablation_outputs_match_golden_digests(tmp_path, planted,
                                                       planted_config):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(planted_config), encoding="utf-8")
    assert main(["ablate", "--config", str(config),
                 "--qrels", planted.qrels_path,
                 "--out-prefix", str(tmp_path / "ablation")]) == 0
    digests = {}
    for name in ABLATE_GOLDEN:
        text, n = _ABLATION_CONFIG_ID.subn("", _read(tmp_path / name))
        assert n == 24
        digests[name] = _sha256(text)
    assert digests == ABLATE_GOLDEN


def test_svm_feature_space_matches_golden_digest(svm_classifier):
    space = svm_classifier.space
    assert (space.total_dim,
            _sha256(json.dumps(space.to_dict(), sort_keys=True))) == SVM_SPACE_GOLDEN
