import json
import random
import re

import pytest

from datagen import (NOT_QUESTION_IDS, question_id_error, random_mention_corpus,
                     write_annotations)
from oracles import brute_force_df, reference_gazetteer_scan

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
from entityqa.errors import IngestionError, ParseError


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
    with pytest.raises(IngestionError):
        AnnotationFileExtractor(path).extract(docset)


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
    with pytest.raises(IngestionError, match=r"unknown document 'q1' rank 5$"):
        ext.extract(_docset(["Webb won.", "Nobody."], qid="q1"))
    assert [(m.surface, m.doc_id) for m in ext.extract(
        _docset(["Paris is nice."], qid="q2"))] == [("Paris", "q2#1")]
    assert ext.extract(_docset(["One.", "Two."], qid="q3")) == []


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
    for _ in range(rng.randint(3, 12)):
        words = [_noisy(rng.choice(_NOISY_WORDS), rng)
                 for _ in range(rng.randint(1, 4))]
        lexicon[rng.choice((" ", "  ", " - ")).join(words)] = rng.choice(tags)
    return lexicon


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
