"""Every reader of an input file, fed damaged bytes.

Each fuzz case is a prefix of a small valid file with one to four bytes
deleted, inserted or replaced, the bytes drawn from an alphabet that holds
an undecodable byte, the start and continuation of a two-byte UTF-8
sequence, both line ends and JSON punctuation. A case must either load or
raise the package's own errors; a `ParseError` must name a line of the
file. Any other exception, `UnicodeDecodeError` above all, fails the case.
"""

import json
import random

import pytest

from entityqa.corpus import load_documents, load_questions, load_strata_spec, read_jsonl
from entityqa.entities import AnnotationFileExtractor, GazetteerExtractor
from entityqa.errors import ConfigError, DataError, ParseError
from entityqa.evaluation import load_qrels
from entityqa.pipeline import load_config
from entityqa.qtype import QuestionClassifier, load_labeled_questions, train_classifier
from entityqa.qtype.classifier import LabeledQuestion
from entityqa.qtype.taxonomy import load_answer_type_map
from entityqa.ranking import load_runs
from entityqa.scoring import CacheProvider, WordAverageProvider, text_sha256

CASES = 300
ALPHABET = b"\xff\xc3\x80\r\n\t #:,\"{}[]0a"


def _jsonl(*records) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode()


# Each reader: (a small valid file, the call that loads it).
LINE_READERS = {
    "load_questions": (_jsonl({"id": "q1", "text": "Who founded Valderia?", "set": "CQ-W"},
                              {"id": 2, "text": "Where is Zoë's bridge?"}),
                       load_questions),
    "load_documents": (_jsonl({"question_id": "q1", "rank": 1, "text": "Zoë built it. Then"},
                              {"question_id": "q1", "rank": 2, "text": "Valderia. Yes"}),
                       load_documents),
    "load_qrels": (_jsonl({"question_id": "q1", "gold_answers": ["Zoë Brimshore"]},
                          {"question_id": "q2", "gold_answers": ["Valderia", "1820"]}),
                   load_qrels),
    "load_runs": (_jsonl({"question_id": "q1", "groups": [["Zoë"], ["b", "c"]],
                          "scores": [0.5, 0.25], "config_id": "abc"},
                         {"question_id": "q2", "groups": [], "scores": []}),
                  load_runs),
    "CacheProvider": (_jsonl(*({"sha256": text_sha256(text), "text": text,
                                "vector": [0.5, -1.25], "provider_id": "word-avg"}
                               for text in ("Zoë built it.", "Valderia"))),
                      CacheProvider),
    "AnnotationFileExtractor": (_jsonl({"question_id": "q1", "doc_rank": 1, "entities": [
        {"surface": "Zoë", "tag": "PERSON", "sent_idx": 0, "start": 0, "end": 1}]},
        {"question_id": "q1", "doc_rank": 2, "entities": []}), AnnotationFileExtractor),
    "GazetteerExtractor.from_file": ("# places\nValderia\tGPE\nZoë Brimshore\tPERSON\n".encode(),
                                     GazetteerExtractor.from_file),
    "WordAverageProvider.from_file": ("the 0.5 1.0\ncafé 0.25 -1.5\nbridge 1 2\n".encode(),
                                      WordAverageProvider.from_file),
    "load_labeled_questions": ("HUMAN:individual\tWho built Zoë's bridge?\n"
                               "LOCATION:city Where is Valderia?\n".encode(),
                               load_labeled_questions),
}

JSON_READERS = {
    "load_config": (json.dumps({"aggregation": "avg", "alpha": 0.5, "candidate_cap": 20,
                                "questions_path": "qé.jsonl"}).encode(), load_config),
    "load_answer_type_map": (json.dumps({"coarse": {"HUMAN": ["PERSON", "ORG"]},
                                         "fine": {"NUMERIC:money": ["MONEY"]}}).encode(),
                             load_answer_type_map),
    "load_strata_spec": (json.dumps({"name": "Stratä", "x1": 60, "x2": 30, "x3": 10,
                                     "size": 10, "seed": 3}).encode(), load_strata_spec),
}


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """A prefix of `data`, half the time all of it, with one to four bytes
    deleted, inserted or replaced."""
    data = bytearray(data[:rng.choice((len(data), rng.randint(1, len(data))))])
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(data) + 1)
        edit = rng.choice(("delete", "insert", "replace"))
        if edit == "insert" or not data:
            data.insert(at, rng.choice(ALPHABET))
        elif edit == "delete":
            del data[min(at, len(data) - 1)]
        else:
            data[min(at, len(data) - 1)] = rng.choice(ALPHABET)
    return bytes(data)


def _fuzz(name: str, valid: bytes, path, load) -> None:
    """Load `valid`, then each case made from it, from `path`."""
    path.write_bytes(valid)
    load(path)
    rng = random.Random(f"fuzz {name}")
    for _ in range(CASES):
        data = _mutate(rng, valid)
        path.write_bytes(data)
        lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        try:
            load(path)
        except ParseError as exc:
            assert exc.path == str(path) and 0 <= exc.line_no <= lines, (data, exc)
        except (DataError, ConfigError):
            pass


@pytest.mark.parametrize("name", [*LINE_READERS, *JSON_READERS])
def test_every_reader_turns_damaged_bytes_into_a_data_error(tmp_path, name):
    valid, load = {**LINE_READERS, **JSON_READERS}[name]
    _fuzz(name, valid, tmp_path / "input", load)


def test_the_model_meta_reader_turns_damaged_bytes_into_a_data_error(tmp_path):
    labeled = [LabeledQuestion("HUMAN", "individual", "Who built Zoë's bridge?"),
               LabeledQuestion("LOCATION", "city", "Where is Valderia?")]
    model = tmp_path / "model.npz"
    train_classifier(labeled, epochs=1).save(model)
    _npz, meta = QuestionClassifier.files(model)
    _fuzz("QuestionClassifier.load", meta.read_bytes(), meta,
          lambda _path: QuestionClassifier.load(model))


def test_each_line_end_ends_a_line_of_jsonl_and_gazetteer_files(tmp_path):
    # "\n", "\r\n" and "\r" each end a line, and a blank line keeps its
    # number: a reader that split on "\n" alone would join lines here.
    records = tmp_path / "records.jsonl"
    records.write_bytes(b'{"a": 1}\r{"a": 2}\r\n\r{"a": 3}\n \r\n{"a": "\xc3\xa9"}')
    assert list(read_jsonl(records)) == [(1, {"a": 1}), (2, {"a": 2}), (4, {"a": 3}),
                                         (6, {"a": "é"})]
    gazetteer = tmp_path / "gazetteer.tsv"
    gazetteer.write_bytes(b"Valderia\tGPE\r# note\r\n\rOstenfell\tGPE\nZo\xc3\xab\tPERSON\r")
    assert GazetteerExtractor.from_file(gazetteer).entries == {
        "valderia": "GPE", "ostenfell": "GPE", "zoe": "PERSON"}
    gazetteer.write_bytes(gazetteer.read_bytes() + b"\r\nvalderia\tORG\n")
    with pytest.raises(ParseError) as info:
        GazetteerExtractor.from_file(gazetteer)
    assert str(info.value) == (f"{gazetteer}:7: 'valderia' is tagged ORG here but 'Valderia',"
                               f" of the same canonical key, is tagged GPE at line 1")
