import json
import math
import random
import re

import pytest

from entityqa import corpus
from entityqa.corpus import (
    BAND_BOUNDS,
    COLLECTION_SPECS,
    Document,
    DocumentSet,
    StrataSpec,
    ascii_lower_words,
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
from entityqa.errors import DataError, ParseError
from entityqa.evaluation import load_qrels
from entityqa.ranking import load_runs

from datagen import NOT_QUESTION_IDS, question_id_error
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
    # Random strings over printable ASCII (the path without split/join),
    # ASCII with the controls (the ASCII whitespace other than the space,
    # and DEL), and mixed alphabets: curly and straight apostrophes,
    # precomposed and combining accents, Unicode whitespace. Each draws
    # runs of spaces and every outer punctuation character.
    printable = [*"aZq09_'\".,;:!?()-[]{}<>/\\|~*&^%$#@+=`", " ", " ", "  ", "   "]
    controls = [*"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x7f"]
    unicode = [*"\u2018\u2019\u201a\u201b\u00e9\u0301\u0308\u00c5\u0130\u00df"
               "\u00a0\u0085\u2003\u2009\u3000\u2028\u00ab\u00bb"]
    alphabets = (printable, printable + controls, printable + controls + unicode)
    rng = random.Random(23)
    paths = {"printable": 0, "split": 0}
    for _ in range(12_000):
        alphabet = rng.choice(alphabets)
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
        canonical = canonicalize(text)
        assert canonical == reference_canonicalize(text), repr(text)
        assert canonical == " ".join(canonical.split())
        assert canonicalize(canonical) == canonical
        if text.isascii():
            paths["printable" if text.isprintable() and "  " not in text
                  else "split"] += 1
    assert min(paths.values()) > 3_000, paths


def test_regex_and_str_split_whitespace_are_one_set():
    # canonicalize collapses whitespace with str.split(), its reference with
    # the regex \s+, and match_answer relies on canonical forms holding no
    # whitespace but single spaces: all of this rests on one whitespace set.
    every_char = "".join(map(chr, range(0x110000)))
    regex = set(re.findall(r"\s", every_char))
    assert regex == {ch for ch in every_char if ch.isspace()}
    assert regex == {ch for ch in every_char if len(f"a{ch}b".split()) == 2}
    assert all(re.fullmatch(r"\s", ch) for ch in regex)


def test_ascii_lower_words_matches_findall_on_random_ascii():
    # Every ASCII code point, weighted toward the apostrophe (the regex
    # fallback), the word characters that are not letters, the controls
    # that str.split() takes for whitespace and bytes.split() does not,
    # and DEL.
    word = re.compile(r"\w+(?:'\w+)?")
    every_ascii = "".join(map(chr, range(128)))
    edges = "'_0123456789\x0b\x0c\x1c\x1d\x1e\x1f\x7f"
    rng = random.Random(19)
    inner_apostrophes = 0
    for _ in range(100_000):
        text = "".join(rng.choice(every_ascii if rng.random() < 0.6 else edges)
                       for _ in range(rng.randint(0, 16)))
        want = word.findall(text.lower())
        assert ascii_lower_words(text) == want, text
        inner_apostrophes += any("'" in token for token in want)
    assert inner_apostrophes > 2_000


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
# letters, digits and numerals (é, ٣, ², ⅷ), underscores, runs of periods,
# and letters where `str.lower` and `re.IGNORECASE` part ways: "İ" lowers
# to "i" + U+0307, the Kelvin sign "K" to "k", "ſ" stays "ſ", and a
# word-final "Σ" lowers to "ς" (after an apostrophe the run is "Σ" alone,
# which lowers to "σ").
_SPLIT_WORDS = ("U.S", "u.s", "e.g", "E.G", "i.e", "Dr", "mr", "No", "etc",
                "ph.d", "Ph.D.", "café", "é", "٣", "x²", "ⅷ", "Ⅷ", "snake_case",
                "_", "a_b.c", "3.14", "word", "Zoë", "naïve", "..", "x", "",
                "İ", "\u212a", "ſ", "ΑΣ", "Α'Σ", "Σ", "DR")
# Entries that only the exact rule tells apart from what `(?i)` matches:
# "i̇" is "i" + U+0307, "x." and ".." can never match, "" matches a run of
# periods alone, and "DR" matches nothing, as runs are lower-cased.
_CASE_ABBREVIATIONS = frozenset({"i\u0307", "k", "σ", "ς", "x.", "", "..", "DR"})
_SPLIT_GAPS = (" ", "  ", "\n", " \n", "\n\n", "\t", "")
_SPLIT_TERMINATORS = (".", "!", "?", "...", "?!", ".!", ". .", "")
_SPLIT_STARTS = ("Next", "next", "3 more", '"Quoted"', "(Aside)", "'tis",
                 "É", "_x", ". Dot", "U.S")


def _held_kinds(rng: random.Random, *choices: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Each of `choices` cut down to the strings that hold no terminator
    outside one, two or three kinds drawn for one text. So the texts hold
    every set of kinds, and a text of one kind takes the splitter's
    literal scan."""
    kinds = rng.sample(".!?", rng.randint(1, 3))
    return [tuple(c for c in choice if all(ch in kinds for ch in c if ch in ".!?"))
            for choice in choices]


def _random_split_text(rng: random.Random) -> str:
    starts, words, terminators = _held_kinds(rng, _SPLIT_STARTS, _SPLIT_WORDS,
                                             _SPLIT_TERMINATORS)
    parts = []
    for _ in range(rng.randint(1, 8)):
        parts.append(rng.choice(starts))
        for _ in range(rng.randint(0, 3)):
            parts.append(rng.choice(_SPLIT_GAPS) or " ")
            parts.append(rng.choice(words))
        # A gap may fall between the last word and its terminator.
        parts.append(rng.choice(("", "", "", "\n", " ")))
        parts.append(rng.choice(terminators))
        parts.append(rng.choice(_SPLIT_GAPS))
    return "".join(parts)


def _flagged_outcomes(text: str, abbreviations: frozenset[str]) -> tuple[int, int]:
    """How many of the text's flagged boundaries stay splits, and how many
    the exact rule joins (the rule of `reference_split_sentences`)."""
    held = ("." in text, "!" in text, "?" in text)
    parts = corpus._splitter(abbreviations, held)(text) if True in held else [text]
    split = joined = 0
    for piece, terminators, gap in zip(parts[::3], parts[1::3], parts[2::3]):
        if gap is not None:
            word = re.search(r"([\w.]+)$", piece)
            if "." in terminators and word and \
                    word.group(1).lower().rstrip(".") in abbreviations:
                joined += 1
            else:
                split += 1
    return split, joined


def test_split_sentences_matches_reference_on_random_texts():
    rng = random.Random(5)
    # The default list, one whose entries hold non-ASCII word characters
    # and underscores, so those words are looked up too, and the entries
    # where lower-casing and `(?i)` differ.
    abbreviation_sets = (default_abbreviations(),
                         frozenset({"é", "٣", "x²", "ⅷ", "snake_case", "a_b.c",
                                    "café", "zoë", "_", "3.14", ""}),
                         _CASE_ABBREVIATIONS)
    outcomes = {abbreviations: [0, 0] for abbreviations in abbreviation_sets}
    for _ in range(4000):
        text = _random_split_text(rng)
        for abbreviations in abbreviation_sets:
            assert split_sentences(text, abbreviations) == \
                reference_split_sentences(text, abbreviations), repr(text)
            split, joined = _flagged_outcomes(text, abbreviations)
            outcomes[abbreviations][0] += split
            outcomes[abbreviations][1] += joined
    # The exact check ran both ways under every set.
    assert all(split > 100 and joined > 100 for split, joined in outcomes.values()), outcomes


# Whitespace that `\s` matches besides space, tab and newline: no-break,
# line separator, ideographic space, NEL, file separator, vertical tab,
# form feed and CRLF.
_UNICODE_GAPS = ("\u00a0", "\u2028", "\u3000", "\u0085", "\x1c", "\v", "\f",
                 "\r\n", " \u00a0", "\r\n\r\n", "\u2028\n")


def _long_split_text(rng: random.Random) -> str:
    """30-60 sentences, as long as a benchmark document, that may open with
    a terminator and whose gaps mix ASCII and Unicode whitespace."""
    gaps = _SPLIT_GAPS + _UNICODE_GAPS
    openings, starts, words, terminators = _held_kinds(
        rng, ("", "", ".", ". ", "?! ", "...\n", "\u3000. ", "! ", "?\n"),
        _SPLIT_STARTS, _SPLIT_WORDS, _SPLIT_TERMINATORS)
    parts = [rng.choice(openings)]
    for _ in range(rng.randint(30, 60)):
        parts.append(rng.choice(starts))
        for _ in range(rng.randint(0, 6)):
            parts.append(rng.choice(gaps) or " ")
            parts.append(rng.choice(words))
        parts.append(rng.choice(("", "", "", "\n", " ", "\r\n", "\u2028", "\u0085")))
        parts.append(rng.choice(terminators))
        parts.append(rng.choice(gaps))
    return "".join(parts)


def test_split_sentences_matches_reference_on_long_and_unicode_texts():
    rng = random.Random(31)
    abbreviation_sets = (default_abbreviations(),
                         frozenset({"u.s", "é", "snake_case", "x", "..", ""}),
                         _CASE_ABBREVIATIONS)
    blanks = ["".join(rng.choice(_UNICODE_GAPS + _SPLIT_GAPS) for _ in range(n))
              for n in range(8)]
    # No terminator: words between Unicode whitespace, one sentence.
    bare_words = [word for word in _SPLIT_WORDS if word and "." not in word]
    bare = [rng.choice(_UNICODE_GAPS) + " ".join(rng.choices(bare_words, k=rng.randint(1, 5)))
            + rng.choice(_UNICODE_GAPS) for _ in range(40)]
    long_texts = [_long_split_text(rng) for _ in range(800)]
    texts = blanks + bare + long_texts
    outcomes = {abbreviations: [0, 0] for abbreviations in abbreviation_sets}
    for text in texts:
        for abbreviations in abbreviation_sets:
            assert split_sentences(text, abbreviations) == \
                reference_split_sentences(text, abbreviations), repr(text)
            split, joined = _flagged_outcomes(text, abbreviations)
            outcomes[abbreviations][0] += split
            outcomes[abbreviations][1] += joined
    assert all(split > 100 and joined > 100 for split, joined in outcomes.values()), outcomes
    assert all(split_sentences(text) == [] for text in blanks)
    assert all(split_sentences(text) == [text.strip()] for text in bare)
    # Long texts of each number of kinds of terminator were split.
    kinds = [sum(t in text for t in ".!?") for text in long_texts]
    assert min(map(kinds.count, (1, 2, 3))) > 100, kinds


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
    # The run before one newline may end in periods; they are stripped.
    ("Dr.\n. Next", ["Dr.\n. Next"]),
    ("Dr..\n. Next", ["Dr..\n. Next"]),
    ("e.g.\n. Next", ["e.g.\n. Next"]),
    ("x.\n. Next", ["x.\n.", "Next"]),
])
def test_split_sentences_word_before_terminator(text, expected):
    assert split_sentences(text) == expected
    assert reference_split_sentences(text, default_abbreviations()) == expected


@pytest.mark.parametrize("text, abbreviations, expected", [
    ("\u0130. Next", _CASE_ABBREVIATIONS, ["\u0130. Next"]),
    ("i. Next", _CASE_ABBREVIATIONS, ["i.", "Next"]),
    ("I. Next", _CASE_ABBREVIATIONS, ["I.", "Next"]),
    ("\u0130.\n. Next", _CASE_ABBREVIATIONS, ["\u0130.\n. Next"]),
    ("X\u0130. Next", frozenset({"xi\u0307"}), ["X\u0130. Next"]),
    ("\u212a. Next", _CASE_ABBREVIATIONS, ["\u212a. Next"]),
    ("K. Next", _CASE_ABBREVIATIONS, ["K. Next"]),
    ("\u017f. Next", _CASE_ABBREVIATIONS, ["\u017f.", "Next"]),
    ("\u017f. Next", frozenset({"s"}), ["\u017f.", "Next"]),
    ("S. Next", frozenset({"\u017f"}), ["S.", "Next"]),
    ("Σ. Next", _CASE_ABBREVIATIONS, ["Σ. Next"]),
    ("Α'Σ. Next", _CASE_ABBREVIATIONS, ["Α'Σ. Next"]),
    ("ΑΣ. Next", _CASE_ABBREVIATIONS, ["ΑΣ.", "Next"]),
    ("ΑΣ. Next", frozenset({"ας"}), ["ΑΣ. Next"]),
    ("ΑΣ. Next", frozenset({"ασ"}), ["ΑΣ.", "Next"]),
    ("Dr. Next", _CASE_ABBREVIATIONS, ["Dr.", "Next"]),
    ("DR. Next", _CASE_ABBREVIATIONS, ["DR.", "Next"]),
    ("x. Next", _CASE_ABBREVIATIONS, ["x.", "Next"]),
    ("x.\n. Next", _CASE_ABBREVIATIONS, ["x.\n.", "Next"]),
    ("a ..\n. Next", _CASE_ABBREVIATIONS, ["a ..\n. Next"]),
    ("a ..\n. Next", default_abbreviations(), ["a ..\n.", "Next"]),
    ("a .. Next", _CASE_ABBREVIATIONS, ["a ..", "Next"]),
    ("Dr.\n. Next", _CASE_ABBREVIATIONS, ["Dr.\n.", "Next"]),
])
def test_split_sentences_where_case_folding_differs(text, abbreviations, expected):
    assert split_sentences(text, abbreviations) == expected
    assert reference_split_sentences(text, abbreviations) == expected


def test_split_sentences_keeps_each_abbreviation_set_apart():
    text = "See bar. Next. Dr. Who"
    answers = {default_abbreviations(): ["See bar.", "Next.", "Dr. Who"],
               frozenset({"bar"}): ["See bar. Next.", "Dr.", "Who"],
               frozenset({"bar", "dr"}): ["See bar. Next.", "Dr. Who"],
               frozenset(): ["See bar.", "Next.", "Dr.", "Who"]}
    for _ in range(3):
        for abbreviations, expected in answers.items():
            assert split_sentences(text, abbreviations) == expected
            assert reference_split_sentences(text, abbreviations) == expected
        assert split_sentences(text) == answers[default_abbreviations()]
    # More sets than the cache holds: each call still gets its own answer,
    # and the cache stays at its bound.
    for n in range(40):
        word = f"w{n}"
        assert split_sentences(f"See {word}. Next", frozenset({word})) == [f"See {word}. Next"]
        assert split_sentences(f"See {word}. Next", frozenset({f"w{n + 1}"})) == \
            [f"See {word}.", "Next"]
    # A plain set is read as its frozenset.
    assert split_sentences(text, {"bar"}) == answers[frozenset({"bar"})]
    info = corpus._splitter.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert split_sentences(text) == answers[default_abbreviations()]


def test_every_word_character_matches_its_lower_case_ignoring_case():
    # The flag of `split_sentences` rests on this: every character a run
    # can hold lower-cases to one character that matches it under `(?i)`,
    # except "İ", whose lower case is "i" + U+0307, and U+0307 is no word
    # character.
    every_char = "".join(map(chr, range(0x110000)))
    changed = [ch for ch in re.findall(r"[\w.]", every_char) if ch.lower() != ch]
    assert len(changed) > 1000
    for ch in changed:
        lower = ch.lower()
        if len(lower) == 1:
            assert re.fullmatch(f"(?i:{re.escape(lower)})", ch), hex(ord(ch))
        else:
            assert ch == "\u0130" and lower == "i\u0307", hex(ord(ch))
    assert not re.fullmatch(r"\w", "\u0307")


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
    with pytest.raises(DataError, match=f"^no questions in {re.escape(str(path))}$"):
        load_questions(path)


@pytest.mark.parametrize("load, key, extra", [
    (load_questions, "id", {"text": "t?"}),
    (load_qrels, "question_id", {"gold_answers": ["a"]}),
    (load_runs, "question_id", {"groups": [], "scores": []}),
], ids=["questions", "qrels", "runs"])
def test_a_repeated_question_id_is_a_parse_error_naming_both_lines(tmp_path, load, key,
                                                                   extra):
    # Each file of one record per question names the later line and the
    # first, blank lines counted.
    path = tmp_path / "records.jsonl"
    ids = ["q0", "q1", "q2", "q3", "", "q4", "q5", "q3"]
    path.write_text("\n".join(qid and json.dumps({key: qid, **extra}) for qid in ids) + "\n",
                    encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load(path)
    assert (err.value.path, err.value.line_no) == (str(path), 8)
    assert str(err.value) == f"{path}:8: duplicate question id 'q3' (first seen on line 4)"


def test_load_questions_names_the_line_of_a_blank_text(tmp_path):
    path = tmp_path / "q.jsonl"
    path.write_text('{"id": "q1", "text": "ok?"}\n\n{"id": "q2", "text": " \\t"}\n')
    with pytest.raises(ParseError) as err:
        load_questions(path)
    assert str(err.value) == f"{path}:3: question 'q2' has empty text"


def test_load_questions_malformed_line(tmp_path):
    path = tmp_path / "q.jsonl"
    path.write_text('{"id": "q1", "text": "ok?", "gold_answers": ["a"]}\nnot json\n')
    with pytest.raises(ParseError) as err:
        load_questions(path)
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("value, shown", NOT_QUESTION_IDS)
def test_load_questions_takes_ids_as_strings_or_integers(tmp_path, value, shown):
    path = tmp_path / "q.jsonl"
    rows = [{"id": "q1", "text": "Who?"}, {"id": 7, "text": "Who?"}]
    write_jsonl(path, rows)
    assert [q.id for q in load_questions(path)] == ["q1", "7"]
    write_jsonl(path, rows + [{"id": value, "text": "Who?"}])
    with pytest.raises(ParseError, match=question_id_error("q.jsonl", 3, shown)):
        load_questions(path)


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


# Characters that json escapes, or writes as \u escapes: quotes, controls,
# non-ASCII and a character outside the basic plane.
_JSON_CHARS = ("a", "Z", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
               "é", "\u2028", "☃", "\U0001f600")
_JSON_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 1e300, 5e-324, 0.1)
_BIG_INTS = (2 ** 64, -(2 ** 200), 10 ** 100)


def _random_json_text(rng: random.Random) -> str:
    return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randint(0, 4)))


def _random_json_scalar(rng: random.Random):
    return rng.choice((
        lambda: _random_json_text(rng), lambda: rng.randint(-9, 9),
        lambda: rng.uniform(-1e3, 1e3), lambda: rng.choice(_JSON_FLOATS),
        lambda: rng.choice(_BIG_INTS), lambda: rng.choice((True, False, None)),
    ))()


def _random_json_keys(rng: random.Random, n: int) -> list:
    """Keys of one kind that sort together; now and then one of another kind,
    which json cannot sort."""
    keys = rng.choice((
        lambda: [_random_json_text(rng) for _ in range(n)],
        lambda: [rng.randint(-9, 9) for _ in range(n)],
        lambda: [rng.choice((rng.uniform(-9, 9), *_JSON_FLOATS)) for _ in range(n)],
        lambda: [rng.choice((True, False, 2, 0.5)) for _ in range(n)],
        lambda: [None],
    ))()
    if n and rng.random() < 0.02:
        keys[-1] = rng.choice(("1", 1, None))
    return keys


def _random_json_payload(rng: random.Random, depth: int = 0):
    if depth > 3 or rng.random() < 0.3:
        return _random_json_scalar(rng)
    values = [_random_json_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    kind = rng.randrange(3)
    if kind == 0:
        return values
    if kind == 1:
        return tuple(values)
    return dict(zip(_random_json_keys(rng, len(values)), values))


def test_write_json_equals_indented_json_dumps_on_random_payloads(tmp_path):
    rng = random.Random(17)
    path = tmp_path / "out.json"
    refused = 0
    for _ in range(3000):
        payload = _random_json_payload(rng)
        try:
            want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        except TypeError:  # keys that do not sort together
            with pytest.raises(TypeError):
                write_json(path, payload)
            refused += 1
            continue
        write_json(path, payload)
        assert path.read_bytes() == want.encode("utf-8"), payload
    assert 0 < refused < 300


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


@pytest.mark.parametrize("ranks, bad_line, shown", [
    ([2.5], 1, "2.5"),
    ([True], 1, "True"),
    ([1, 1.9, True], 2, "1.9"),
    ([1, "2.5"], 2, "'2.5'"),
    ([1, None], 2, "None"),
])
def test_load_documents_rejects_ranks_that_are_not_integers(tmp_path, ranks, bad_line, shown):
    path = tmp_path / "d.jsonl"
    path.write_text("".join(json.dumps({"question_id": "q1", "rank": rank, "text": "a."}) + "\n"
                            for rank in ranks))
    with pytest.raises(ParseError, match=rf"d\.jsonl:{bad_line}: question 'q1': "
                                         rf"rank must be an integer, not {re.escape(shown)}$"):
        load_documents(path)


def test_load_documents_names_the_line_of_rank_0(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("".join(json.dumps({"question_id": "q1", "rank": rank, "text": "a."}) + "\n"
                            for rank in (1, 0)))
    with pytest.raises(ParseError) as err:
        load_documents(path)
    assert str(err.value) == f"{path}:2: question 'q1': original_rank must be >= 1"


@pytest.mark.parametrize("text, shown", [(None, "None"), (7, "7"), (["a."], "['a.']")])
def test_load_documents_rejects_text_that_is_not_a_string(tmp_path, text, shown):
    # null would be read as the text "None".
    path = tmp_path / "d.jsonl"
    path.write_text("".join(json.dumps({"question_id": "q1", "rank": rank, "text": t}) + "\n"
                            for rank, t in ((1, "a."), (2, text))))
    with pytest.raises(ParseError, match=rf"d\.jsonl:2: question 'q1': "
                                         rf"text must be a string, not {re.escape(shown)}$"):
        load_documents(path)


@pytest.mark.parametrize("value, shown", NOT_QUESTION_IDS)
def test_load_documents_takes_ids_as_strings_or_integers(tmp_path, value, shown):
    path = tmp_path / "d.jsonl"
    rows = [{"question_id": "q1", "rank": 1, "text": "a."},
            {"question_id": 7, "rank": 1, "text": "b."}]
    write_jsonl(path, rows)
    assert sorted(load_documents(path)) == ["7", "q1"]
    write_jsonl(path, rows + [{"question_id": value, "rank": 2, "text": "c."}])
    with pytest.raises(ParseError, match=question_id_error("d.jsonl", 3, shown)):
        load_documents(path)


def test_load_documents_accepts_ints_and_digit_strings(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text("".join(json.dumps({"question_id": "q1", "rank": rank, "text": "a."}) + "\n"
                            for rank in (3, "1", " 2 ")))
    assert [d.original_rank for d in load_documents(path)["q1"]] == [1, 2, 3]


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
    with pytest.raises(DataError, match="^band 26-50 for question 'q1' has 0 documents, "
                                        "need 2$"):
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
