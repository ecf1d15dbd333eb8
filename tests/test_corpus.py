import json
import random
import re

import pytest

from entityqa.corpus import (
    BAND_BOUNDS,
    COLLECTION_SPECS,
    Document,
    DocumentSet,
    StrataSpec,
    canonicalize,
    collection_spec,
    default_abbreviations,
    default_contractions,
    derive_question_seed,
    fold_accents,
    load_documents,
    load_questions,
    load_strata_spec,
    preprocess_text,
    read_json,
    read_jsonl,
    sample_strata,
    segment_sentences,
    split_sentences,
    write_documents,
    write_json,
    write_jsonl,
)
from entityqa.errors import EmptyInputError, ParseError, UnderfullBandError

from oracles import (reference_canonicalize, reference_fold_accents,
                     reference_preprocess_text, reference_split_sentences)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def test_preprocess_folds_accents_and_expands_contractions():
    assert preprocess_text("Beyoncé can't") == "Beyonce cannot"


def test_preprocess_empty():
    assert preprocess_text("") == ""


def test_preprocess_expands_common_contractions():
    out = preprocess_text("They won't say it isn't I'm")
    assert "will not" in out
    assert "is not" in out
    assert "I am" in out


def test_preprocess_idempotent_on_random_strings():
    rng = random.Random(5)
    alphabet = "abcdé ïôñ 'tn.!?ABC"
    for _ in range(1000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        once = preprocess_text(s)
        assert preprocess_text(once) == once


def test_preprocess_never_emits_accents():
    import unicodedata
    out = preprocess_text("àéîõü Ñ Ç")
    decomposed = unicodedata.normalize("NFD", out)
    assert not any(unicodedata.category(c) == "Mn" for c in decomposed)
    assert out == "aeiou N C"


def test_only_the_apostrophe_matches_it_ignoring_case():
    # preprocess_text skips the contraction regex on text without ' when
    # every key has one; that is exact only if nothing else matches '.
    every_char = "".join(map(chr, range(0x110000)))
    assert re.compile("'", re.IGNORECASE).findall(every_char) == ["'"]
    assert all("'" in key for key in default_contractions())


def test_preprocess_matches_regex_path_on_random_strings():
    reference_table = dict(default_contractions())
    rng = random.Random(17)
    words = [w for key in reference_table for w in (key, key.upper(), key.title(),
                                                    key.replace("'", ""))]
    words += ["the", "Beyoncé", "ñandú", "x", "\u2019s", "\u2018", "Gonna", "42"]
    for _ in range(2000):
        parts = [rng.choice(words) for _ in range(rng.randint(0, 6))]
        text = rng.choice((" ", "  ", ", ", "\t")).join(parts)
        if rng.random() < 0.5:
            text = text.replace("'", "").replace("\u2019", "").replace("\u2018", "")
        assert preprocess_text(text) == \
            reference_preprocess_text(text, reference_table)


def test_canonicalize():
    assert canonicalize("  The  Sixth   Sense ") == "the sixth sense"
    assert canonicalize('"Burkina Faso"') == "burkina faso"
    assert canonicalize("Beyoncé") == "beyonce"
    # ASCII takes a shortcut past the NFD fold; mixed text must not.
    for text in ("", "plain ASCII, 42_x!", "O'Neil\t~", "Beyonce\u0301",
                 "Beyoncé and Zoë", "ñandú 3rd", "İstanbul", "Straße",
                 "O\u2019Neil", "x\u0327 y", "\u00c5ngstr\u00f6m"):
        assert fold_accents(text) == reference_fold_accents(text)
        assert canonicalize(text) == reference_canonicalize(text)
    # Random strings over ASCII (the fast path) and mixed alphabets: curly
    # and straight apostrophes, precomposed and combining accents, ASCII
    # and Unicode whitespace, and outer punctuation.
    ascii_alphabet = "aZq09 _-'\".,;:!?()\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"
    mixed_alphabet = ascii_alphabet + ("\u2018\u2019\u201a\u201b\u00e9\u0301\u0308"
                                       "\u00c5\u0130\u00df\u00a0\u0085\u2003\u2009"
                                       "\u3000\u2028\u00ab\u00bb")
    rng = random.Random(23)
    for _ in range(4000):
        alphabet = rng.choice((ascii_alphabet, mixed_alphabet))
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
        canonical = canonicalize(text)
        assert canonical == reference_canonicalize(text)
        assert canonical == " ".join(canonical.split())
        assert canonicalize(canonical) == canonical


def test_regex_and_str_split_whitespace_are_one_set():
    # canonicalize collapses whitespace with str.split(), its reference with
    # the regex \s+, and match_answer relies on canonical forms holding no
    # whitespace but single spaces: all of this rests on one whitespace set.
    every_char = "".join(map(chr, range(0x110000)))
    regex = set(re.findall(r"\s", every_char))
    assert regex == {ch for ch in every_char if ch.isspace()}
    assert regex == {ch for ch in every_char if len(f"a{ch}b".split()) == 2}
    assert all(re.fullmatch(r"\s", ch) for ch in regex)


# ---------------------------------------------------------------------------
# sentence splitting
# ---------------------------------------------------------------------------

def test_split_three_terminators():
    assert split_sentences("A. B? C!") == ["A.", "B?", "C!"]


def test_split_protects_abbreviations():
    assert split_sentences("Dr. Smith won.") == ["Dr. Smith won."]


def test_split_empty():
    assert split_sentences("") == []


def test_split_no_terminator_single_sentence():
    assert split_sentences("no terminator here") == ["no terminator here"]


def test_split_preserves_characters_in_order():
    text = "One ran. Two ran? Mr. Three ran!"
    parts = split_sentences(text)
    assert "".join("".join(p.split()) for p in parts) == "".join(text.split())


# Words before a terminator: abbreviations with inner periods, non-ASCII
# letters, digits and numerals (é, ٣, ², ⅷ), underscores, runs of periods.
_SPLIT_WORDS = ("U.S", "u.s", "e.g", "E.G", "i.e", "Dr", "mr", "No", "etc",
                "ph.d", "Ph.D.", "café", "é", "٣", "x²", "ⅷ", "Ⅷ", "snake_case",
                "_", "a_b.c", "3.14", "word", "Zoë", "naïve", "..", "x", "")
_SPLIT_GAPS = (" ", "  ", "\n", " \n", "\n\n", "\t", "")
_SPLIT_TERMINATORS = (".", "!", "?", "...", "?!", ".!", ". .", "")
_SPLIT_STARTS = ("Next", "next", "3 more", '"Quoted"', "(Aside)", "'tis",
                 "É", "_x", ". Dot", "U.S")


def _random_split_text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(1, 8)):
        parts.append(rng.choice(_SPLIT_STARTS))
        for _ in range(rng.randint(0, 3)):
            parts.append(rng.choice(_SPLIT_GAPS) or " ")
            parts.append(rng.choice(_SPLIT_WORDS))
        # A gap may fall between the last word and its terminator.
        parts.append(rng.choice(("", "", "", "\n", " ")))
        parts.append(rng.choice(_SPLIT_TERMINATORS))
        parts.append(rng.choice(_SPLIT_GAPS))
    return "".join(parts)


def test_split_sentences_matches_reference_on_random_texts():
    rng = random.Random(5)
    # The default list, and one whose entries hold non-ASCII word
    # characters and underscores, so those words are looked up too.
    abbreviation_sets = (default_abbreviations(),
                         frozenset({"é", "٣", "x²", "ⅷ", "snake_case", "a_b.c",
                                    "café", "zoë", "_", "3.14", ""}))
    for _ in range(4000):
        text = _random_split_text(rng)
        for abbreviations in abbreviation_sets:
            assert split_sentences(text, abbreviations) == \
                reference_split_sentences(text, abbreviations), repr(text)


# Whitespace that `\s` matches besides space, tab and newline: no-break,
# line separator, ideographic space, NEL, file separator, vertical tab,
# form feed and CRLF.
_UNICODE_GAPS = ("\u00a0", "\u2028", "\u3000", "\u0085", "\x1c", "\v", "\f",
                 "\r\n", " \u00a0", "\r\n\r\n", "\u2028\n")


def _long_split_text(rng: random.Random) -> str:
    """30-60 sentences, as long as a benchmark document, that may open with
    a terminator and whose gaps mix ASCII and Unicode whitespace."""
    gaps = _SPLIT_GAPS + _UNICODE_GAPS
    parts = [rng.choice(("", "", ".", ". ", "?! ", "...\n", "\u3000. "))]
    for _ in range(rng.randint(30, 60)):
        parts.append(rng.choice(_SPLIT_STARTS))
        for _ in range(rng.randint(0, 6)):
            parts.append(rng.choice(gaps) or " ")
            parts.append(rng.choice(_SPLIT_WORDS))
        parts.append(rng.choice(("", "", "", "\n", " ", "\r\n", "\u2028", "\u0085")))
        parts.append(rng.choice(_SPLIT_TERMINATORS))
        parts.append(rng.choice(gaps))
    return "".join(parts)


def test_split_sentences_matches_reference_on_long_and_unicode_texts():
    rng = random.Random(31)
    abbreviation_sets = (default_abbreviations(),
                         frozenset({"u.s", "é", "snake_case", "x", "..", ""}))
    blanks = ["".join(rng.choice(_UNICODE_GAPS + _SPLIT_GAPS) for _ in range(n))
              for n in range(8)]
    texts = blanks + [_long_split_text(rng) for _ in range(800)]
    for text in texts:
        for abbreviations in abbreviation_sets:
            assert split_sentences(text, abbreviations) == \
                reference_split_sentences(text, abbreviations), repr(text)
    assert all(split_sentences(text) == [] for text in blanks)


def test_segment_sentences_matches_reference_on_planted_documents(planted):
    abbreviations = default_abbreviations()
    documents = [doc for docs in load_documents(planted.documents_path).values()
                 for doc in docs]
    assert documents
    for doc in documents:
        assert segment_sentences(doc).sentences == \
            tuple(reference_split_sentences(doc.text, abbreviations))


@pytest.mark.parametrize("text, expected", [
    # "$" of the old word search also matched before a final newline.
    ("U.S\n. Next", ["U.S\n. Next"]),
    ("U.S \n. Next", ["U.S \n.", "Next"]),
    ("U.S\n\n. Next", ["U.S\n\n.", "Next"]),
    ("See e.g. Paris. Then", ["See e.g. Paris.", "Then"]),
    ("Café. Next", ["Café.", "Next"]),
    (". Next", [".", "Next"]),
    ("\n. Next", [".", "Next"]),
])
def test_split_sentences_word_before_terminator(text, expected):
    assert split_sentences(text) == expected
    assert reference_split_sentences(text, default_abbreviations()) == expected


def test_segment_sentences_indexes():
    doc = Document(question_id="q1", original_rank=1, text="A ran. B ran.")
    seg = segment_sentences(doc)
    assert seg.sentences == ("A ran.", "B ran.")
    assert (seg.question_id, seg.original_rank, seg.text) == (
        doc.question_id, doc.original_rank, doc.text)
    assert doc.sentences == ()


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------

def test_load_questions_roundtrip(tmp_path):
    path = tmp_path / "q.jsonl"
    records = [
        {"id": "q1", "text": "Who won?", "gold_answers": ["A"], "set": "CQ-W"},
        {"id": "q2", "text": "Where is it?", "gold_answers": ["B", "C"]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    questions = load_questions(path, source_set="custom")
    assert [q.id for q in questions] == ["q1", "q2"]
    assert questions[0].source_set == "CQ-W"
    assert questions[1].source_set == "custom"


def test_load_questions_ignores_gold_answers(tmp_path):
    path = tmp_path / "q.jsonl"
    records = [
        {"id": "q1", "text": "Who won?"},
        {"id": "q2", "text": "Where is it?", "gold_answers": []},
        {"id": "q3", "text": "When was it?", "gold_answers": ["?!"]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert [q.id for q in load_questions(path)] == ["q1", "q2", "q3"]


def test_load_questions_empty_file(tmp_path):
    path = tmp_path / "q.jsonl"
    path.write_text("")
    with pytest.raises(EmptyInputError):
        load_questions(path)


def test_load_questions_duplicate_id_names_line(tmp_path):
    path = tmp_path / "q.jsonl"
    rows = [{"id": f"q{i}", "text": "t?", "gold_answers": ["a"]}
            for i in range(6)]
    rows.append({"id": "q3", "text": "dup?", "gold_answers": ["a"]})
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(ParseError) as err:
        load_questions(path)
    assert ":7:" in str(err.value)


def test_load_questions_malformed_line(tmp_path):
    path = tmp_path / "q.jsonl"
    path.write_text('{"id": "q1", "text": "ok?", "gold_answers": ["a"]}\nnot json\n')
    with pytest.raises(ParseError) as err:
        load_questions(path)
    assert ":2:" in str(err.value)


def test_read_jsonl_skips_blank_lines_and_rejects_non_objects(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"b": 2}\n[3]\n')
    records = read_jsonl(path)
    assert next(records) == (1, {"a": 1})
    assert next(records) == (4, {"b": 2})
    with pytest.raises(ParseError, match=r"records\.jsonl:5: expected a JSON object"):
        next(records)


def test_json_writers_formats(tmp_path):
    lines, doc = tmp_path / "out.jsonl", tmp_path / "out.json"
    write_jsonl(lines, [{"b": "café", "a": 1}, {}])
    assert lines.read_bytes() == '{"b": "café", "a": 1}\n{}\n'.encode("utf-8")
    write_json(doc, {"b": "café", "a": [1]})
    assert doc.read_bytes() == b'{\n  "a": [\n    1\n  ],\n  "b": "caf\\u00e9"\n}\n'
    assert read_json(doc) == {"a": [1], "b": "café"}
    assert list(read_jsonl(lines)) == [(1, {"b": "café", "a": 1}), (2, {})]


def test_load_documents_sorted_by_rank(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [
        {"question_id": "q1", "rank": 2, "text": "second."},
        {"question_id": "q1", "rank": 1, "text": "first."},
        {"question_id": "q2", "rank": 1, "text": "other."},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    by_q = load_documents(path)
    assert sorted(by_q) == ["q1", "q2"]
    assert [d.original_rank for d in by_q["q1"]] == [1, 2]
    assert by_q["q1"][0].doc_id == "q1#1"


def test_load_documents_duplicate_rank_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [{"question_id": "q1", "rank": 1, "text": "a."},
            {"question_id": "q2", "rank": 1, "text": "b."},
            {"question_id": "q1", "rank": 2, "text": "c."},
            {"question_id": "q1", "rank": 1, "text": "d."}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(ParseError, match=r"d\.jsonl:4: duplicate document: "
                                         r"question 'q1' rank 1 \(first seen on line 1\)"):
        load_documents(path)


def test_write_documents_roundtrip(tmp_path):
    docs = [Document(question_id="q1", original_rank=r, text=f"doc {r}.")
            for r in (1, 2, 3)]
    docset = DocumentSet(question_id="q1", documents=tuple(docs))
    path = tmp_path / "out.jsonl"
    write_documents(path, [docset])
    again = load_documents(path)
    assert [d.text for d in again["q1"]] == ["doc 1.", "doc 2.", "doc 3."]


# ---------------------------------------------------------------------------
# stratified sampling
# ---------------------------------------------------------------------------

def _ranked_docs(n=50):
    return [Document(question_id="q1", original_rank=r, text=f"doc {r}.")
            for r in range(1, n + 1)]


def _band_of(rank: int) -> int:
    for i, (lo, hi) in enumerate(BAND_BOUNDS):
        if lo <= rank <= hi:
            return i
    raise AssertionError(rank)


def test_collection_band_counts():
    expected = {
        "Top10": (10, 0, 0),
        "Strata-1": (6, 3, 1),
        "Strata-2": (5, 4, 1),
        "Strata-3": (5, 3, 2),
        "Strata-4": (4, 4, 2),
        "Strata-5": (4, 3, 3),
    }
    for name, counts in expected.items():
        assert collection_spec(name).band_counts() == counts


def test_sample_strata_counts_and_determinism():
    docs = _ranked_docs()
    spec = collection_spec("Strata-3", seed=7)
    sampled = sample_strata(docs, spec)
    assert sampled.k == 10
    got = [0, 0, 0]
    for d in sampled.documents:
        got[_band_of(d.original_rank)] += 1
    assert tuple(got) == (5, 3, 2)
    again = sample_strata(docs, spec)
    assert [d.original_rank for d in again.documents] == \
        [d.original_rank for d in sampled.documents]


def test_sample_strata_top10_is_exact():
    docs = _ranked_docs()
    sampled = sample_strata(docs, collection_spec("Top10", seed=3))
    assert sorted(d.original_rank for d in sampled.documents) == list(range(1, 11))


def test_sample_strata_different_seeds_differ():
    docs = _ranked_docs()
    a = sample_strata(docs, collection_spec("Strata-5", seed=1))
    b = sample_strata(docs, collection_spec("Strata-5", seed=2))
    assert {d.original_rank for d in a.documents} != \
        {d.original_rank for d in b.documents}


def test_sample_strata_underfull_band():
    docs = _ranked_docs(20)  # third band empty
    with pytest.raises(UnderfullBandError):
        sample_strata(docs, collection_spec("Strata-3", seed=0))


def test_strata_spec_validation():
    with pytest.raises(ValueError):
        StrataSpec(name="bad", x1=50, x2=30, x3=30)


def test_load_strata_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"name": "custom", "x1": 50, "x2": 30, "x3": 20, "size": 10, "seed": 4}))
    spec = load_strata_spec(path)
    assert spec.band_counts() == (5, 3, 2)
    assert spec.seed == 4


def test_derive_question_seed_stable_and_distinct():
    s1 = derive_question_seed(0, "q1")
    assert s1 == derive_question_seed(0, "q1")
    assert s1 != derive_question_seed(0, "q2")
    assert s1 != derive_question_seed(1, "q1")


def test_collection_specs_cover_table():
    assert set(COLLECTION_SPECS) == {
        "Top10", "Strata-1", "Strata-2", "Strata-3", "Strata-4", "Strata-5"}
