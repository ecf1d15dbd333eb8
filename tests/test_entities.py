import json
import random

import pytest

from datagen import random_mention_corpus
from oracles import brute_force_df, reference_gazetteer_scan

from entityqa.corpus import Document, DocumentSet, segment_sentences
from entityqa.entities import (
    ONTONOTES_TAGS,
    AnnotationFileExtractor,
    CandidatePool,
    EntityMention,
    GazetteerExtractor,
    build_pool,
    filter_by_type,
    write_annotations,
)
from entityqa.errors import IngestionError


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
