import json
import random
import re

import pytest

from datagen import (NOT_QUESTION_IDS, question_id_error, random_mention_corpus,
                     write_annotations)
from oracles import brute_force_df, reference_canonicalize, reference_gazetteer_scan

from entityqa.corpus import Document, DocumentSet, segment_sentences, write_jsonl
from entityqa.entities import (
    ONTONOTES_TAGS,
    AnnotationFileExtractor,
    CandidatePool,
    EntityMention,
    GazetteerExtractor,
    build_pool,
    filter_by_type,
)
from entityqa.errors import ParseError
from entityqa.qtype import load_labeled_questions


def _docset(texts, qid="q1"):
    docs = tuple(
        segment_sentences(Document(question_id=qid, original_rank=i + 1,
                                   text=t))
        for i, t in enumerate(texts)
    )
    return DocumentSet(question_id=qid, documents=docs)


# ---------------------------------------------------------------------------
# mention and tag basics
# ---------------------------------------------------------------------------

def test_ontonotes_tag_set():
    assert len(ONTONOTES_TAGS) == 18
    assert {"PERSON", "GPE", "ORG", "DATE", "MONEY", "WORK_OF_ART",
            "CARDINAL"} <= ONTONOTES_TAGS


def test_filter_by_type():
    mk = lambda tag: EntityMention(surface="x", tag=tag, doc_id="q1#1",
                                   sentence_index=0, start=0, end=1)
    mentions = [mk("PERSON"), mk("DATE"), mk("GPE")]
    kept = filter_by_type(mentions, frozenset({"PERSON", "GPE"}))
    assert [m.tag for m in kept] == ["PERSON", "GPE"]


# ---------------------------------------------------------------------------
# gazetteer extraction
# ---------------------------------------------------------------------------

def test_gazetteer_extracts_and_canonicalizes():
    ext = GazetteerExtractor({"Webb Simpson": "PERSON",
                              "Burkina Faso": "GPE"})
    docset = _docset(["Webb Simpson visited Burkina Faso. Nothing else."])
    mentions = ext.extract(docset)
    assert {(m.surface, m.tag) for m in mentions} == {
        ("Webb Simpson", "PERSON"), ("Burkina Faso", "GPE")}
    assert all(m.doc_id == "q1#1" for m in mentions)


def test_gazetteer_longest_match_wins():
    ext = GazetteerExtractor({"New York": "GPE", "New York Times": "ORG"})
    docset = _docset(["The New York Times reported it."])
    mentions = ext.extract(docset)
    assert [(m.surface, m.tag) for m in mentions] == [
        ("New York Times", "ORG")]


def test_gazetteer_non_overlapping_left_to_right():
    ext = GazetteerExtractor({"alpha beta": "ORG", "beta gamma": "ORG"})
    docset = _docset(["alpha beta gamma."])
    mentions = ext.extract(docset)
    assert [m.surface for m in mentions] == ["alpha beta"]


def test_gazetteer_matches_ignore_case_and_accents():
    ext = GazetteerExtractor({"Beyoncé Knowles": "PERSON"})
    docset = _docset(["Fans cheered beyonce knowles loudly."])
    mentions = ext.extract(docset)
    assert len(mentions) == 1


def test_gazetteer_from_file(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("# comment line\nWebb Simpson\tPERSON\nParis\tGPE\n")
    ext = GazetteerExtractor.from_file(path)
    docset = _docset(["Webb Simpson went to Paris."])
    assert len(ext.extract(docset)) == 2


def test_gazetteer_entries_that_can_never_match_load_with_one_warning(tmp_path, caplog):
    """A sentence key is the canonical form of one `WORD` token: "u.s",
    "at&t", "jean-luc", "'n'" and "x_" (of "x_ y" and of "_x_ y", whose
    outer "_" alone is stripped) are none."""
    path = tmp_path / "gaz.tsv"
    path.write_text("U.S.\tGPE\nAT&T\tORG\nJean-Luc Picard\tPERSON\nPicard\tPERSON\n"
                    "O'Neil\tPERSON\nx_y\tORG\n_x_ y\tORG\nx_ y\tORG\n"
                    "rock 'n' roll\tWORK_OF_ART\nZoë Café\tPERSON\n\u00bd\tCARDINAL\n")
    with caplog.at_level("WARNING", logger="entityqa.entities"):
        ext = GazetteerExtractor.from_file(path)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    message = caplog.records[0].getMessage()
    assert message.startswith("6 gazetteer entries can never match")
    assert message.endswith(f": {path}:1: U.S.; {path}:2: AT&T; "
                            f"{path}:3: Jean-Luc Picard; ...")
    assert len(ext.entries) == 10  # every entry loads; two share the key 'x_ y'
    docset = _docset(["He left the U.S. today. AT&T called Jean-Luc Picard.",
                      "O'Neil met x_y and _x_ y. A rock 'n' roll x_ y.",
                      "Zoe cafe wrote \u00bd."])
    assert [m.surface for m in ext.extract(docset)] == [
        "Picard", "O'Neil", "x_y", "Zoe cafe", "\u00bd"]
    caplog.clear()
    path.write_text("Zoë Café\tPERSON\nO\u2019Neil\tPERSON\nx_y z\tORG\n")
    with caplog.at_level("WARNING", logger="entityqa.entities"):
        GazetteerExtractor.from_file(path)
    assert caplog.records == []


def test_gazetteer_key_given_two_tags_is_a_data_error_naming_both_lines(tmp_path):
    """Which tag a mention gets must not depend on line order: two
    surfaces of one canonical key, or one surface twice, with different
    tags are a ParseError at the second line that names the first."""
    path = tmp_path / "gaz.tsv"
    path.write_text("# fruit\nApple\tORG\nPear\tPRODUCT\napple\tPRODUCT\n")
    with pytest.raises(ParseError) as err:
        GazetteerExtractor.from_file(path)
    assert (err.value.path, err.value.line_no) == (str(path), 4)
    assert "'Apple'" in err.value.reason and err.value.reason.endswith("ORG at line 2")
    path.write_text("Apple\tORG\nPear\tPRODUCT\nApple\tORG\nApple\tPRODUCT\n")
    with pytest.raises(ParseError) as err:
        GazetteerExtractor.from_file(path)
    assert err.value.line_no == 4 and err.value.reason.endswith("ORG at line 1")
    with pytest.raises(ValueError, match="'Apple' \\(ORG\\) and 'APPLE' \\(PRODUCT\\)"):
        GazetteerExtractor({"Apple": "ORG", "Pear": "ORG", "APPLE": "PRODUCT"})
    # The same tag twice loads as one entry, as does a surface repeated.
    path.write_text("Apple\tORG\napple\tORG\nApple\tORG\n")
    assert GazetteerExtractor.from_file(path).entries == {"apple": "ORG"}


def test_gazetteer_surfaces_without_a_key_are_counted_as_never_matching(tmp_path, caplog):
    path = tmp_path / "gaz.tsv"
    path.write_text("Paris\tGPE\n__\tORG\n\tORG\n  \tDATE\n")
    with caplog.at_level("WARNING", logger="entityqa.entities"):
        ext = GazetteerExtractor.from_file(path)
    assert ext.entries == {"paris": "GPE"}
    message = caplog.records[0].getMessage()
    assert message.startswith("3 gazetteer entries can never match")
    assert message.endswith(f": {path}:2: __; {path}:3: ; {path}:4:   ")


@pytest.mark.parametrize("text, error", [
    ("Apple\tORG\nPear\tPRODUCT\n", None),
    ("Apple\tORG\nU.S.\tGPE\n", None),
    ("Apple\tORG\nPear\tPRODUCT\nApple\tPRODUCT\n", "tagged PRODUCT here but ORG at line 1"),
    ("Apple\tORG\nPear\tPRODUCT\napple\tPRODUCT\n", "is tagged ORG at line 1"),
], ids=["clean", "never-match", "surface-conflict", "key-conflict"])
def test_gazetteer_load_opens_its_file_once(tmp_path, opens_of, text, error):
    """The lines that a warning or a conflict names are those read the
    first time through, not found by reading the file again."""
    path = tmp_path / "gaz.tsv"
    path.write_text(text)
    opened = opens_of(path)
    if error is None:
        GazetteerExtractor.from_file(path)
    else:
        with pytest.raises(ParseError, match=error):
            GazetteerExtractor.from_file(path)
    assert len(opened) == 1


def test_gazetteer_names_the_first_line_of_a_repeated_surface(tmp_path, caplog):
    """A surface given again with its tag is named at its first line, by
    the key conflict and by the never-match warning, which shows it once."""
    path = tmp_path / "gaz.tsv"
    path.write_text("Apple\tORG\nU.S.\tGPE\nApple\tORG\nU.S.\tGPE\nAT&T\tORG\n"
                    "apple\tPRODUCT\n")
    with caplog.at_level("WARNING", logger="entityqa.entities"), \
            pytest.raises(ParseError) as err:
        GazetteerExtractor.from_file(path)
    assert str(err.value) == (f"{path}:6: 'apple' is tagged PRODUCT here but 'Apple',"
                              " of the same canonical key, is tagged ORG at line 1")
    assert caplog.records[0].getMessage().endswith(f": {path}:2: U.S.; {path}:5: AT&T")


@pytest.mark.parametrize("line", ["Paris", "Paris\tGPE\tcity", "Paris GPE"])
def test_gazetteer_line_without_exactly_one_tab_is_a_data_error(tmp_path, line):
    path = tmp_path / "gaz.tsv"
    path.write_text(f"# places\nRome\tGPE\n\n{line}\n")
    with pytest.raises(ParseError) as err:
        GazetteerExtractor.from_file(path)
    assert str(err.value) == f"{path}:4: expected 'surface<TAB>tag'"


def test_gazetteer_sentence_indices():
    ext = GazetteerExtractor({"Paris": "GPE"})
    docset = _docset(["Nothing here. Paris is nice."])
    mentions = ext.extract(docset)
    assert [m.sentence_index for m in mentions] == [1]


# ---------------------------------------------------------------------------
# annotation-file extraction
# ---------------------------------------------------------------------------

def test_annotation_file_roundtrip(tmp_path):
    docset = _docset(["Webb Simpson won. He was happy."])
    mentions = [EntityMention(surface="Webb Simpson", tag="PERSON",
                              doc_id="q1#1", sentence_index=0, start=0,
                              end=12)]
    path = tmp_path / "ann.jsonl"
    write_annotations(path, docset, mentions)
    ext = AnnotationFileExtractor(path)
    again = ext.extract(docset)
    assert [(m.surface, m.tag, m.sentence_index) for m in again] == [
        ("Webb Simpson", "PERSON", 0)]


def test_annotation_file_bad_sentence_index(tmp_path):
    docset = _docset(["Only one sentence."])
    path = tmp_path / "ann.jsonl"
    path.write_text('{"question_id": "q1", "doc_rank": 1, "entities": '
                    '[{"surface": "x", "tag": "PERSON", "sent_idx": 9, '
                    '"start": 0, "end": 1}]}\n')
    with pytest.raises(ParseError, match=r"ann\.jsonl:1: question 'q1': sentence index 9 "
                                         r"out of range for document q1#1$"):
        AnnotationFileExtractor(path).extract(docset)


def _annotation_file(path, entity):
    """An annotation file whose second line holds one entity of q1's document 1."""
    path.write_text("".join(json.dumps(record) + "\n" for record in (
        {"question_id": "q2", "doc_rank": 1, "entities": []},
        {"question_id": "q1", "doc_rank": 1, "entities": [
            {"surface": "x", "tag": "PERSON", "sent_idx": 0, "start": 0, "end": 1, **entity}]})))
    return path


def test_annotation_file_rejects_a_negative_sentence_index_at_load(tmp_path):
    path = _annotation_file(tmp_path / "ann.jsonl", {"sent_idx": -1})
    with pytest.raises(ParseError) as err:
        AnnotationFileExtractor(path)
    assert str(err.value) == f"{path}:2: question 'q1': negative sentence index -1"


def test_annotation_span_past_its_sentence_is_an_ingestion_error(tmp_path):
    # "Only one sentence." has 18 characters: a span may end at 18, not 19.
    docset = _docset(["Only one sentence."])
    path = _annotation_file(tmp_path / "ann.jsonl", {"surface": "sentence.", "start": 9,
                                                     "end": 18})
    assert [m.surface for m in AnnotationFileExtractor(path).extract(docset)] == ["sentence."]
    _annotation_file(path, {"start": 9, "end": 19})
    with pytest.raises(ParseError) as err:
        AnnotationFileExtractor(path).extract(docset)
    assert str(err.value) == (f"{path}:2: question 'q1': span [9, 19) outside"
                              " sentence 0 of q1#1")


@pytest.mark.parametrize("rank, shown", [(2.5, "2.5"), (True, "True"), (False, "False"),
                                         ("x", "'x'")])
def test_annotation_file_rejects_ranks_that_are_not_integers(tmp_path, rank, shown):
    path = tmp_path / "ann.jsonl"
    path.write_text("".join(json.dumps({"question_id": qid, "doc_rank": r, "entities": []}) + "\n"
                            for qid, r in (("q1", 1), ("q7", rank))))
    with pytest.raises(ParseError, match=rf"ann\.jsonl:2: question 'q7': "
                                         rf"rank must be an integer, not {re.escape(shown)}$"):
        AnnotationFileExtractor(path)


@pytest.mark.parametrize("value, shown", NOT_QUESTION_IDS)
def test_annotation_file_takes_ids_as_strings_or_integers(tmp_path, value, shown):
    path = tmp_path / "ann.jsonl"
    rows = [{"question_id": "q1", "doc_rank": 1, "entities": []},
            {"question_id": 7, "doc_rank": 1, "entities": []}]
    write_jsonl(path, rows)
    assert list(AnnotationFileExtractor(path).records) == ["q1", "7"]
    write_jsonl(path, rows + [{"question_id": value, "doc_rank": 2, "entities": []}])
    with pytest.raises(ParseError, match=question_id_error("ann.jsonl", 3, shown)):
        AnnotationFileExtractor(path)


def test_annotation_file_accepts_ints_and_digit_strings(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text("".join(json.dumps({"question_id": "q1", "doc_rank": r, "entities": []}) + "\n"
                            for r in (2, "3")))
    assert list(AnnotationFileExtractor(path).records["q1"]) == [2, 3]


def test_annotation_file_unknown_doc_ok_when_unused(tmp_path):
    # annotations for other questions are simply not consulted
    docset = _docset(["Webb Simpson won."])
    path = tmp_path / "ann.jsonl"
    path.write_text('{"question_id": "zz", "doc_rank": 1, "entities": []}\n')
    assert AnnotationFileExtractor(path).extract(docset) == []


def test_annotation_file_unknown_doc_raises_for_its_question_only(tmp_path):
    # q1's annotations name two unknown documents, rank 5 before rank 3 in
    # the file; q2's and q3's name only documents they have.
    records = [("q1", 1, [{"surface": "Webb", "tag": "PERSON", "sent_idx": 0,
                           "start": 0, "end": 4}]),
               ("q2", 1, [{"surface": "Paris", "tag": "GPE", "sent_idx": 0,
                           "start": 0, "end": 5}]),
               ("q1", 5, []), ("q3", 2, []), ("q1", 3, []), ("q1", 5, [])]
    path = tmp_path / "ann.jsonl"
    path.write_text("".join(
        json.dumps({"question_id": qid, "doc_rank": rank, "entities": ents}) + "\n"
        for qid, rank, ents in records))
    ext = AnnotationFileExtractor(path)
    with pytest.raises(ParseError, match=r"ann\.jsonl:3: question 'q1': annotations "
                                         r"reference unknown document 'q1' rank 5$"):
        ext.extract(_docset(["Webb won.", "Nobody."], qid="q1"))
    assert [(m.surface, m.doc_id) for m in ext.extract(
        _docset(["Paris is nice."], qid="q2"))] == [("Paris", "q2#1")]
    assert ext.extract(_docset(["One.", "Two."], qid="q3")) == []


def _annotations(*records) -> str:
    """Annotation lines of q1, one per (doc_rank, entities) record."""
    return "".join(json.dumps({"question_id": "q1", "doc_rank": rank, "entities": ents}) + "\n"
                   for rank, ents in records)


def _extract_from_one_sentence(path):
    return AnnotationFileExtractor(path).extract(_docset(["Only one sentence."]))


_ENTITY = {"surface": "x", "tag": "PERSON", "sent_idx": 0, "start": 0, "end": 1}


@pytest.mark.parametrize("name, text, load, line_no, reason", [
    ("ann.jsonl", _annotations((1, []), (5, [])), _extract_from_one_sentence, 2,
     "question 'q1': annotations reference unknown document 'q1' rank 5"),
    ("ann.jsonl", _annotations((1, [_ENTITY]), (1, [{**_ENTITY, "sent_idx": 1}])),
     _extract_from_one_sentence, 2,
     "question 'q1': sentence index 1 out of range for document q1#1"),
    ("ann.jsonl", _annotations((1, [{**_ENTITY, "start": 9, "end": 19}])),
     _extract_from_one_sentence, 1, "question 'q1': span [9, 19) outside sentence 0 of q1#1"),
    ("labeled.txt", "HUMAN:individual\tWho won?\n\nBOGUS:thing\tWhat?\n",
     load_labeled_questions, 3, "unknown question label 'BOGUS:thing'"),
], ids=["unknown-document-rank", "sentence-index-out-of-range", "span-outside-sentence",
        "unknown-label"])
def test_a_fault_on_one_line_is_a_parse_error_naming_it(tmp_path, name, text, load,
                                                         line_no, reason):
    # A fault that one line of one file holds is a ParseError carrying the
    # file and the line, whatever stage finds it.
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load(path)
    assert (err.value.path, err.value.line_no, err.value.reason) == (str(path), line_no, reason)
    assert str(err.value) == f"{path}:{line_no}: {reason}"


# ---------------------------------------------------------------------------
# candidate pools and document frequency
# ---------------------------------------------------------------------------

def test_build_pool_groups_surface_variants():
    docset = _docset(["Webb Simpson won.", "WEBB SIMPSON lost."])
    ext = GazetteerExtractor({"Webb Simpson": "PERSON"})
    pool = build_pool(ext.extract(docset))
    assert len(pool.candidates) == 1
    cand = pool.candidates[0]
    assert cand.canonical_surface == "webb simpson"
    assert cand.df == 2
    assert cand.sentence_keys == (("q1#1", 0), ("q1#2", 0))


def test_build_pool_df_counts_documents_not_mentions():
    docset = _docset(["Paris and Paris again. Paris!", "No city here."])
    ext = GazetteerExtractor({"Paris": "GPE"})
    pool = build_pool(ext.extract(docset))
    assert pool.candidates[0].df == 1
    assert pool.candidates[0].sentence_keys == (("q1#1", 0), ("q1#1", 1))


def test_build_pool_orders_by_df_then_surface():
    docset = _docset(["Alpha Corp and Beta Corp.", "Beta Corp alone."])
    ext = GazetteerExtractor({"Alpha Corp": "ORG", "Beta Corp": "ORG"})
    pool = build_pool(ext.extract(docset))
    assert [c.canonical_surface for c in pool.candidates] == [
        "beta corp", "alpha corp"]


def test_build_pool_cap_keeps_df_descending_prefix():
    texts = []
    # entity i appears in i+1 documents
    for d in range(6):
        parts = [f"Ent{i}ax here" for i in range(d, 6)]
        texts.append(". ".join(parts) + ".")
    lexicon = {f"Ent{i}ax": "PERSON" for i in range(6)}
    docset = _docset(texts)
    ext = GazetteerExtractor(lexicon)
    full = build_pool(ext.extract(docset))
    capped = build_pool(ext.extract(docset), cap=3)
    assert capped.capped and not full.capped
    assert [c.canonical_surface for c in capped.candidates] == \
        [c.canonical_surface for c in full.candidates][:3]
    dfs = [c.df for c in full.candidates]
    assert dfs == sorted(dfs, reverse=True)


def test_build_pool_df_any_tag_counts_all_tagged_docs():
    # same surface tagged PERSON everywhere; accepted tags keep PERSON
    docset = _docset(["Ent0ax spoke.", "Ent0ax sang.", "Nothing."])
    ext = GazetteerExtractor({"Ent0ax": "PERSON"})
    mentions = ext.extract(docset)
    kept = filter_by_type(mentions, frozenset({"PERSON"}))
    pool = build_pool(kept, df_mentions=mentions)
    assert pool.candidates[0].df == 2


def test_build_pool_df_mentions_and_exact_surfaces():
    mentions = [EntityMention("Paris", "GPE", "q1#1", 0, 0, 5),
                EntityMention("PARIS", "GPE", "q1#2", 1, 0, 5),
                EntityMention("Paris", "GPE", "q1#1", 0, 9, 14),
                EntityMention("Paris", "ORG", "q1#3", 0, 0, 5)]
    typed = filter_by_type(mentions, frozenset({"GPE"}))
    keys = (("q1#1", 0), ("q1#2", 1))
    assert build_pool(typed).candidates == (("paris", 2, keys),)
    assert build_pool(typed, df_mentions=mentions).candidates == (("paris", 3, keys),)
    assert build_pool(typed, group_surface_variants=False).candidates == (
        ("PARIS", 1, (("q1#2", 1),)), ("Paris", 1, (("q1#1", 0),)))


def test_df_matches_brute_force_on_random_corpora():
    # The synthetic surfaces are plain alnum words, so lowercasing is a
    # full canonicalization for them; the oracle stays independent.
    rng = random.Random(17)
    for _ in range(50):
        texts, lexicon, truth = random_mention_corpus(rng)
        docset = _docset(texts)
        ext = GazetteerExtractor(lexicon)
        mentions = ext.extract(docset)
        pool = build_pool(mentions, cap=1000)
        got = {c.canonical_surface: c.df for c in pool.candidates}
        assert got == brute_force_df(truth, str.lower)
        # Each planted surface occurs in no other surface, so a substring
        # test finds exactly the sentences that mention it; the keys are
        # sorted as plain tuples ("q1#10" before "q1#2").
        assert {c.canonical_surface: c.sentence_keys for c in pool.candidates} == {
            surface.lower(): tuple(sorted(
                (doc.doc_id, index) for doc in docset.documents
                for index, sentence in enumerate(doc.sentences) if surface in sentence))
            for surface in lexicon if surface.lower() in got}


# Word forms that the scan must treat alike or apart: accents precomposed
# and combining, curly apostrophes, underscores, digits and case.
_NOISY_WORDS = (
    "new", "york", "times", "alpha", "beta", "gamma", "café", "cafe\u0301",
    "Cafe", "ñandú", "nandu", "Zoë", "zoe", "o'neil", "O\u2019Neil", "x_y",
    "_x_", "__", "3rd", "42", "r2d2", "İstanbul", "straße", "de",
)


_UNDERSCORED_WORDS = (
    "new", "york", "alpha", "beta", "o'neil", "x", "y", "_x", "x_", "_x_",
    "_alpha_", "beta__", "__new", "x_y", "_", "3rd",
)


def _noisy(word, rng):
    roll = rng.random()
    if roll < 0.2:
        return word.upper()
    if roll < 0.4:
        return word.title()
    return word


def _noisy_lexicon(rng):
    tags = ("PERSON", "GPE", "ORG", "DATE", "PRODUCT")
    lexicon = {
        "New York": "GPE", "New York Times": "ORG",
        "alpha beta": "ORG", "beta gamma": "PRODUCT",
        "Café": "ORG", "café ñandú zoë de 42": "PRODUCT",
        "__": "ORG", "": "ORG",
    }
    # One tag per canonical key: a variant of a key already drawn keeps
    # that key's tag, which a lexicon must (two tags are a ValueError).
    tag_of = {tuple(reference_canonicalize(s).split()): t for s, t in lexicon.items()}
    for _ in range(rng.randint(3, 12)):
        words = [_noisy(rng.choice(_NOISY_WORDS), rng)
                 for _ in range(rng.randint(1, 4))]
        tag = rng.choice(tags)
        surface = rng.choice((" ", "  ", " - ")).join(words)
        key = tuple(reference_canonicalize(surface).split())
        lexicon[surface] = tag_of.setdefault(key, tag)
    return lexicon


def test_gazetteer_index_is_keyed_by_canonical_strings_on_random_lexicons():
    """Each entry key is the canonical form of its surfaces, a `str` whose
    tokens are joined by one space; the start index holds, per first token,
    bit L for each entry of L tokens."""
    rng = random.Random(31)
    for _ in range(300):
        lexicon = _noisy_lexicon(rng)
        ext = GazetteerExtractor(lexicon)
        assert set(ext.entries) == {reference_canonicalize(s) for s in lexicon} - {""}
        for surface, tag in lexicon.items():
            if key := reference_canonicalize(surface):
                assert ext.entries[key] == tag
        lengths_from = {}
        for key in ext.entries:
            assert type(key) is str and "  " not in key and " ".join(key.split()) == key
            tokens = key.split()
            lengths_from[tokens[0]] = lengths_from.get(tokens[0], 0) | 1 << len(tokens)
        assert ext.lengths_from == lengths_from


def _noisy_sentence(rng, lexicon):
    parts = []
    for _ in range(rng.randint(0, 9)):
        if rng.random() < 0.3:
            parts.append(" ".join(_noisy(w, rng)
                                  for w in rng.choice(list(lexicon)).split()))
        else:
            parts.append(_noisy(rng.choice(_NOISY_WORDS), rng))
    return rng.choice((" ", ", ", " ")).join(parts) + rng.choice((".", "!", ""))


def _assert_scan_matches_reference(docset, lexicon):
    got = [(m.doc_id, m.sentence_index, m.surface, m.tag, m.start, m.end)
           for m in GazetteerExtractor(lexicon).extract(docset)]
    want = [(doc.doc_id, index) + found
            for doc in docset.documents
            for index, sentence in enumerate(doc.sentences)
            for found in reference_gazetteer_scan(sentence, lexicon)]
    assert got == want


def test_gazetteer_scan_matches_reference_on_random_corpora():
    rng = random.Random(29)
    for _ in range(30):
        texts, lexicon, _truth = random_mention_corpus(rng)
        _assert_scan_matches_reference(_docset(texts), lexicon)
    matched = 0
    for _ in range(150):
        lexicon = _noisy_lexicon(rng)
        texts = [" ".join(_noisy_sentence(rng, lexicon)
                          for _ in range(rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 4))]
        docset = _docset(texts)
        _assert_scan_matches_reference(docset, lexicon)
        matched += len(GazetteerExtractor(lexicon).extract(docset))
    assert matched > 100  # the noisy corpora do exercise matching
    # ASCII sentences whose tokens carry "_" at either end, which their
    # canonical keys drop: "_X_" must still match the entry "x".
    lexicon = {"alpha beta": "ORG", "x": "DATE", "new york": "GPE",
               "x y": "PERSON", "o'neil": "PERSON"}
    underscored = 0
    for _ in range(100):
        texts = [" ".join(_noisy(rng.choice(_UNDERSCORED_WORDS), rng)
                          for _ in range(rng.randint(1, 12))) + "."
                 for _ in range(rng.randint(1, 4))]
        docset = _docset(texts)
        assert all(s.isascii() for d in docset.documents for s in d.sentences)
        _assert_scan_matches_reference(docset, lexicon)
        underscored += sum("_" in m.surface
                           for m in GazetteerExtractor(lexicon).extract(docset))
    assert underscored > 50


def test_gazetteer_scan_mixes_ascii_and_unicode_sentences_in_one_docset():
    """ASCII and non-ASCII sentences of one docset share tokens, so the
    ASCII byte-table path and the per-docset memo both see "zoe" and
    "o'neil", in either order. A curly apostrophe is read as "'", so
    "O\u2019Neil" is the one token "o'neil"; a hyphen ends a token, and
    digits stay in theirs ("x-3rd")."""
    lexicon = {"Zoë Café": "PERSON", "O'Neil": "PERSON", "zoe": "ORG", "x": "DATE",
               "3rd x": "DATE"}
    texts = ["Zoe cafe met ZOË Café. Zoe left. O\u2019Neil and o'neil met.",
             "_x_ and x_ saw Zoë_ x. Then _x_ and x_ saw zoe_ x.",
             "O'NEIL saw zoe CAFE. Zoë, O\u2019neil. Zoe x-3rd X, 3RD-x."]
    docset = _docset(texts)
    sentences = [s for d in docset.documents for s in d.sentences]
    assert len(sentences) == 8
    assert [s.isascii() for s in sentences] == [False, True, False, False, True,
                                                True, False, True]
    _assert_scan_matches_reference(docset, lexicon)
    assert [m.surface for m in GazetteerExtractor(lexicon).extract(docset)] == [
        "Zoe cafe", "ZOË Café", "Zoe", "O\u2019Neil", "o'neil",
        "_x_", "x_", "Zoë_", "x", "_x_", "x_", "zoe_", "x",
        "O'NEIL", "zoe CAFE", "Zoë", "O\u2019neil", "Zoe", "x", "3rd X", "3RD-x"]


def test_gazetteer_matches_an_entry_across_a_curly_apostrophe():
    """The entry "O'Neil" matches "O\u2019Neil" in a document: one mention,
    whose surface and span are the sentence's own, pooled under the key
    that `canonicalize` gives the entry."""
    docset = _docset(["Then O\u2019Neil came."])
    mentions = GazetteerExtractor({"O'Neil": "PERSON"}).extract(docset)
    assert mentions == [EntityMention("O\u2019Neil", "PERSON", "q1#1", 0, 5, 11)]
    pool = build_pool(mentions)
    assert [c.canonical_surface for c in pool.candidates] == ["o'neil"]


def test_gazetteer_scan_tries_each_entry_length_that_fits():
    """"new" begins entries of one, two and three tokens and "york" one of
    three: at each start only the lengths that exist and fit are tried,
    longest first, and a match may end at the sentence's last token."""
    lexicon = {"new": "ORG", "New York": "GPE", "New York City": "GPE",
               "York City Hall": "FAC"}
    texts = ["New York City Hall.", "The New York Times and new York",
             "new new york", "at York City Hall", "York City", "new york city",
             "_new_ York city hall", "Néw York City new"]
    _assert_scan_matches_reference(_docset(texts), lexicon)
    ext = GazetteerExtractor(lexicon)
    assert [[(m.surface, m.tag) for m in ext.extract(_docset([text]))]
            for text in texts] == [
        [("New York City", "GPE")],
        [("New York", "GPE"), ("new York", "GPE")],
        [("new", "ORG"), ("new york", "GPE")],
        [("York City Hall", "FAC")],
        [],
        [("new york city", "GPE")],
        [("_new_ York city", "GPE")],
        [("Néw York City", "GPE"), ("new", "ORG")],
    ]


def test_gazetteer_scan_prefix_entries_and_short_sentences():
    lexicon = {"a": "ORG", "a b": "GPE", "a b c d e": "PERSON",
               "b c": "DATE", "Zoë": "PERSON"}
    texts = ["a", "a b", "a b c", "a b c d", "a b c d e", "b a b c d e a",
             "zoe\u0308 A B", "ZOE"]
    _assert_scan_matches_reference(_docset(texts), lexicon)
    ext = GazetteerExtractor(lexicon)
    assert [m.surface for m in ext.extract(_docset(["a b c d"]))] == ["a b"]
    assert [m.surface for m in ext.extract(_docset(["b a b c d e a"]))] == [
        "a b c d e", "a"]
