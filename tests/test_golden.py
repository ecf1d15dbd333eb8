"""Byte-identity gate: the planted fixture's run lines, pinned by digest.

A change that is meant to leave outputs alone (a speed-up, a refactor)
must leave these digests alone. The `config_id` key is dropped from each
line first, because the config names the fixture's temporary paths.
"""

import hashlib
import re

import pytest

from entityqa.corpus import (DocumentSet, load_documents, load_questions,
                             segment_sentences)
from entityqa.entities import GazetteerExtractor, write_annotations
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


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_planted_run_lines_match_golden_digest(tmp_path, planted,
                                               planted_config, variant):
    questions = load_questions(planted.questions_path)
    docsets = {qid: DocumentSet(question_id=qid, documents=tuple(docs))
               for qid, docs in load_documents(planted.documents_path).items()}
    overrides, golden = GOLDEN[variant]
    overrides = dict(overrides)
    if overrides.get("ner_backend") == "annotations":
        annotations = tmp_path / "annotations.jsonl"
        _write_gazetteer_annotations(annotations, planted, docsets)
        overrides["annotations_path"] = str(annotations)
    cfg = PipelineConfig(**dict(planted_config, **overrides))
    result = run_pipeline(cfg, questions, docsets)
    assert result.ok
    assert any(run.groups for run in result.runs)
    out = tmp_path / "runs.jsonl"
    write_run_file(out, result, cfg)
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == len(questions)
    stripped = []
    for line in lines:
        line, n = _CONFIG_ID.subn("", line)
        assert n == 1
        stripped.append(line)
    digest = hashlib.sha256("".join(stripped).encode("utf-8")).hexdigest()
    assert digest == golden
