import math
import random
import re
import sys

import numpy as np
import pytest

from datagen import write_cache
from oracles import brute_force_aggregate, reference_cosine, reference_word_average

from entityqa.corpus import Document, DocumentSet, segment_sentences
from entityqa.entities import CandidateEntity, GazetteerExtractor, build_pool
from entityqa.errors import DataError, ParseError
from entityqa.scoring import (
    AGGREGATION_MODES,
    CacheProvider,
    EvidenceSet,
    WordAverageProvider,
    aggregate,
    build_evidence,
    text_sha256,
)


def _provider(vectors=None):
    vectors = vectors or {
        "alpha": np.array([1.0, 0.0]),
        "beta": np.array([0.0, 1.0]),
        "gamma": np.array([1.0, 1.0]),
    }
    return WordAverageProvider(vectors={k: np.asarray(v, dtype=float)
                                        for k, v in vectors.items()})


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------

def test_word_average_is_mean_of_known_tokens():
    p = _provider()
    vec = p.embed("alpha beta")
    assert np.allclose(vec, [0.5, 0.5])


def test_word_average_ignores_oov():
    p = _provider()
    vec = p.embed("alpha unknowntoken")
    assert np.allclose(vec, [1.0, 0.0])


def test_word_average_all_oov_is_zero_vector():
    p = _provider()
    vec = p.embed("nothing matches here")
    assert np.allclose(vec, [0.0, 0.0])


def test_word_average_case_insensitive():
    p = _provider()
    assert np.allclose(p.embed("ALPHA"), p.embed("alpha"))


_EMBED_WORDS = ("alpha", "Beta", "GAMMA", "İstanbul", "istanbul", "straße",
                "STRASSE", "ſun", "sun", "o'neil", "O\u2019Neil", "x_y", "_x_",
                "__", "café", "CAFE\u0301", "it's", "3rd")


def test_word_average_matches_reference_on_unicode_text():
    """Byte for byte against np.mean, on ASCII text and on text where lower-casing first
    would change the tokens ("İ" lower-cases to "i" and a combining dot)."""
    rng = np.random.default_rng(5)
    words = ("alpha", "gamma", "i\u0307stanbul", "i", "stanbul", "straße",
             "strasse", "ſun", "o'neil", "o", "neil", "x_y", "_x_", "café",
             "it's", "3rd")
    vectors = {w: rng.standard_normal(3) for w in words}
    provider = WordAverageProvider(vectors)
    pick = random.Random(5)
    ascii_texts = 0
    for _ in range(2000):
        text = "".join(
            pick.choice(_EMBED_WORDS).swapcase() if pick.random() < 0.3
            else pick.choice(_EMBED_WORDS) + pick.choice((" ", ", ", "\u2019", "'", "_"))
            for _ in range(pick.randint(0, 8)))
        ascii_texts += text.isascii()
        want = reference_word_average(text, provider.vectors, provider.dim)
        assert provider.embed(text).tobytes() == want.tobytes(), text
    assert 200 < ascii_texts < 1800


def test_word_average_matches_reference_on_a_mixed_docset():
    """Byte for byte against np.mean, on the sentences of one docset: plain ASCII, ASCII
    with an apostrophe or "_", and not ASCII."""
    rng = np.random.default_rng(11)
    words = ("it's", "it", "s", "o'neil", "o", "neil", "x_y", "_x_", "x",
             "zoë", "zoe", "alpha", "beta", "3rd")
    provider = WordAverageProvider({w: rng.standard_normal(3) for w in words})
    docset = DocumentSet(question_id="q1", documents=tuple(
        segment_sentences(Document("q1", rank, text)) for rank, text in enumerate((
            "Alpha beta 3rd. It's O'NEIL, o'neil. X_Y met _x_ and x.",
            "Zoë met ZOE. O\u2019Neil, it\u2019s alpha. Beta x-3rd.",
        ), start=1)))
    sentences = [s for doc in docset.documents for s in doc.sentences]
    assert [s.isascii() for s in sentences] == [True, True, True, False, False, True]
    assert ["'" in s for s in sentences] == [False, True, False, False, False, False]
    assert ["_" in s for s in sentences] == [False, False, True, False, False, False]
    for sentence in sentences:
        want = reference_word_average(sentence, provider.vectors, provider.dim)
        assert want.any()
        assert provider.embed(sentence).tobytes() == want.tobytes(), sentence


def test_word_average_reads_a_curly_apostrophe_as_straight():
    """"it\u2019s" is the one token "it's", not "it" and "s"."""
    rng = np.random.default_rng(5)
    provider = WordAverageProvider({w: rng.standard_normal(3)
                                    for w in ("it's", "it", "s", "zoë")})
    assert np.array_equal(provider.embed("it\u2019s"), provider.embed("it's"))
    assert np.array_equal(provider.embed("Zoë: it\u2019s"), provider.embed("Zoë: it's"))


def test_provider_from_file(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("alpha 1.0 0.0\nbeta 0.0 1.0\n")
    p = WordAverageProvider.from_file(path)
    assert p.dim == 2
    assert np.allclose(p.embed("alpha beta"), [0.5, 0.5])


def test_provider_from_file_rejects_ragged_rows(tmp_path):
    path = tmp_path / "vectors.txt"
    path.write_text("alpha 1.0 0.0\nbeta 0.0\n")
    with pytest.raises(ParseError) as err:
        WordAverageProvider.from_file(path)
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("line, reason", [
    ("beta 0.0 nan", "non-finite component"),
    ("beta 0.0 inf", "non-finite component"),
    ("beta 0.0 -Infinity", "non-finite component"),
    ("w 1.5e308 0", "squared norm overflows"),
    ("beta 1e308 1e308", "squared norm overflows"),
    ("beta 1e-170 0", "squared norm of a nonzero vector underflows"),
], ids=["nan", "inf", "-Infinity", "1.5e308", "1e308-1e308", "1e-170"])
def test_provider_from_file_rejects_non_finite_component(tmp_path, line, reason):
    # A NaN cosine would clamp to 1.0, the best evidence score. So would
    # the cosine of finite rows whose squares overflow, and the mean of
    # two such rows may overflow; squares that underflow lose the sign.
    path = tmp_path / "vectors.txt"
    path.write_text(f"alpha 1.0 0.0\n{line}\n")
    with pytest.raises(ParseError) as err:
        WordAverageProvider.from_file(path)
    assert str(err.value) == f"{path}:2: {reason}"


@pytest.mark.parametrize("text, line_no, reason", [
    ("alpha 1.0 0.0\nbeta\n", 2, "expected 'token v1 ... vd'"),
    ("alpha 1.0 0.0\nbeta 0.5 x\n", 2,
     "bad float: could not convert string to float: 'x'"),
    ("alpha 1.0 0.0\n\n\nbeta 0.5\n", 4, "expected 2 components, got 1"),
], ids=["no-components", "not-a-number", "after-blank-lines"])
def test_provider_from_file_names_the_line_of_a_bad_row(tmp_path, text, line_no, reason):
    # Blank lines are skipped, but counted.
    path = tmp_path / "vectors.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        WordAverageProvider.from_file(path)
    assert str(err.value) == f"{path}:{line_no}: {reason}"
    path.write_text(text.rpartition("beta")[0])
    assert list(WordAverageProvider.from_file(path).vectors) == ["alpha"]


def test_provider_from_file_skips_every_whitespace_only_line(tmp_path):
    # A line of spaces is as blank as an empty line or a line of tabs.
    path = tmp_path / "vectors.txt"
    path.write_text("\n  \nalpha 1.0 0.0\n\t\t\n \t \nbeta 0.0 1.0\n   \n")
    provider = WordAverageProvider.from_file(path)
    assert list(provider.vectors) == ["alpha", "beta"]
    path.write_text("  \n\t\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: no vectors$"):
        WordAverageProvider.from_file(path)


def test_provider_from_file_rejects_a_file_without_vectors(tmp_path):
    path = tmp_path / "vectors.txt"
    for text in ("", "\n\n"):
        path.write_text(text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: no vectors$"):
            WordAverageProvider.from_file(path)


def test_vectors_word_given_two_vectors_is_a_data_error_naming_both_lines(tmp_path):
    """Which row a word embeds to must not depend on line order: a word
    given again, after lower-casing, with another vector is a ParseError at
    the later line that names the first; an identical repeat loads once."""
    path = tmp_path / "vectors.txt"
    path.write_text("Paris 1 0\nthe 1 1\nPARIS 1 0\nparis 1.0 0.0\n")
    provider = WordAverageProvider.from_file(path)
    assert {w: v.tolist() for w, v in provider.vectors.items()} == {
        "paris": [1.0, 0.0], "the": [1.0, 1.0]}
    assert provider.embed("Paris the").tolist() == [1.0, 0.5]
    # One bit apart (the sign of a zero), or wholly different.
    for row in ("paris 1 -0", "paris 0 1"):
        path.write_text(f"Paris 1 0\nthe 1 1\nPARIS 1 0\n{row}\nthe 2 2\n")
        with pytest.raises(ParseError) as err:
            WordAverageProvider.from_file(path)
        assert str(err.value) == f"{path}:4: word 'paris' has another vector here than at line 1"


def test_word_average_rejects_words_that_lower_case_alike_with_other_vectors():
    provider = WordAverageProvider({"Paris": [1.0, 0.0], "paris": [1.0, 0.0]})
    assert list(provider.vectors) == ["paris"]
    with pytest.raises(ValueError, match="^words 'Paris' and 'PARIS' lower-case alike"
                                         " but have different vectors$"):
        WordAverageProvider({"Paris": [1.0, 0.0], "the": [1.0, 1.0], "PARIS": [0.0, 1.0]})


def test_vectors_load_exactly_where_the_squared_norm_is_a_normal_float(tmp_path):
    # The loaders settle most vectors by their `math.hypot` norm. Around both
    # ends of the range they must still accept exactly the vectors whose
    # v.dot(v), the squared norm `build_evidence` takes, is a normal float,
    # and the zero vector.
    rng = random.Random(5)
    ends = (math.sqrt(sys.float_info.min), 1e-153, 1.0, 1e153, math.sqrt(sys.float_info.max))
    path = tmp_path / "vectors.txt"
    seen = {True: 0, False: 0}
    for _ in range(400):
        direction = np.array([rng.uniform(-1, 1) * rng.choice((0, 1, 1))
                              for _ in range(rng.randint(1, 5))])
        norm = float(np.linalg.norm(direction)) or 1.0
        vec = direction / norm * rng.choice(ends) * rng.uniform(0.7, 1.4)
        with np.errstate(over="ignore"):
            squared = vec.dot(vec)
        expected = bool(sys.float_info.min <= squared <= sys.float_info.max or not vec.any())
        path.write_text("w " + " ".join(map(repr, vec.tolist())) + "\n")
        try:
            loaded = WordAverageProvider.from_file(path).vectors["w"]
        except ParseError:
            assert not expected, vec.tolist()
        else:
            assert expected, vec.tolist()
            assert np.array_equal(loaded, vec)
        seen[expected] += 1
    assert min(seen.values()) > 50, seen


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_roundtrip_bit_for_bit(tmp_path):
    p = _provider()
    texts = ["alpha beta", "gamma alone", "alpha beta"]  # dup collapses
    path = tmp_path / "cache.jsonl"
    n = write_cache(path, texts, p, provider_id="enc-1")
    assert n == 2
    cache = CacheProvider(path)
    assert cache.provider_id == "enc-1"
    for text in texts:
        assert np.array_equal(cache.embed(text), p.embed(text))


def test_cache_miss_names_hash(tmp_path):
    p = _provider()
    path = tmp_path / "cache.jsonl"
    write_cache(path, ["alpha"], p)
    cache = CacheProvider(path)
    missing = "never cached"
    with pytest.raises(DataError) as err:
        cache.embed(missing)
    assert str(err.value) == f"{path}: no cached embedding for sha256 {text_sha256(missing)}"


def test_cache_rejects_hash_mismatch(tmp_path):
    import json
    path = tmp_path / "cache.jsonl"
    record = {"sha256": "0" * 64, "text": "alpha", "vector": [1.0, 0.0],
              "provider_id": "x"}
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ParseError):
        CacheProvider(path)


def _cache_file(path, records):
    """A cache file of (text, vector, provider_id) records."""
    import json
    path.write_text("".join(json.dumps({
        "sha256": text_sha256(text), "text": text, "vector": vector,
        "provider_id": provider_id}) + "\n" for text, vector, provider_id in records))
    return path


def test_cache_rejects_empty_vector_with_line_number(tmp_path):
    path = _cache_file(tmp_path / "cache.jsonl",
                       [("alpha", [1.0, 0.0], "x"), ("beta", [], "x")])
    with pytest.raises(ParseError) as err:
        CacheProvider(path)
    assert f"{path}:2: empty vector" in str(err.value)


@pytest.mark.parametrize("vector, reason", [
    ([float("nan"), 1.0, 0.0], "non-finite component"),
    ([float("-inf"), 1.0, 0.0], "non-finite component"),
    (["nan", 1.0, 0.0], "element 0 of vector must be a number, not 'nan'"),
    ([1e200, 0, 0], "squared norm overflows"),
    ([1e308, 1e308, 0.0], "squared norm overflows"),
    ([1e-170, 0, 0], "squared norm of a nonzero vector underflows"),
], ids=["nan0", "-inf", "nan1", "1e+200", "1e308-1e308", "1e-170"])
def test_cache_rejects_non_finite_component_with_line_number(tmp_path, vector, reason):
    # NaN and -Infinity are JSON constants to the parser; a string "nan"
    # is no number. The cosine of finite components whose squares overflow
    # would be NaN too, and squares that underflow lose the sign.
    path = _cache_file(tmp_path / "cache.jsonl",
                       [("alpha", [1.0, 0.0, 0.0], "x"), ("beta", vector, "x")])
    with pytest.raises(ParseError) as err:
        CacheProvider(path)
    assert str(err.value) == f"{path}:2: {reason}"


def test_cache_rejects_a_string_for_the_vector(tmp_path):
    # A string would be read as its characters: "123" as [1.0, 2.0, 3.0];
    # and a component is a number, not a bool or a string of digits.
    for vector, reason in [("123", "vector must be a JSON array, not '123'"),
                           ([True, "2", 0.0], "element 0 of vector must be a number, not True"),
                           ([1.0, "2", 0.0], "element 1 of vector must be a number, not '2'")]:
        path = _cache_file(tmp_path / "cache.jsonl",
                           [("alpha", [1.0, 0.0, 0.0], "x"), ("beta", vector, "x")])
        with pytest.raises(ParseError) as err:
            CacheProvider(path)
        assert str(err.value) == f"{path}:2: {reason}"


def test_cache_rejects_mixed_provider_ids(tmp_path):
    path = _cache_file(tmp_path / "cache.jsonl",
                       [("alpha", [1.0, 0.0], "enc-1"), ("beta", [1.0, 0.0], "enc-2")])
    with pytest.raises(ParseError) as err:
        CacheProvider(path)
    assert "mixed provider_ids" in str(err.value)


@pytest.mark.parametrize("second, reason", [
    (("gamma", [1.0, 0.0], "enc-2"),
     "mixed provider_ids in one cache: 'enc-2' here but 'enc-1' at line 2"),
    (("gamma", [1.0, 0.0, 0.0], "enc-1"),
     "mixed dimensions in one cache: 3 here but 2 at line 2"),
], ids=["provider_id", "dimension"])
def test_cache_first_record_fixes_provider_and_dimension(tmp_path, second, reason):
    # A blank first line: the first record is on line 2. The record that
    # differs from it is named at its own line, 4.
    path = _cache_file(tmp_path / "cache.jsonl",
                       [("alpha", [1.0, 0.0], "enc-1"), ("beta", [0.0, 1.0], "enc-1"), second])
    path.write_text("\n" + path.read_text())
    with pytest.raises(ParseError) as err:
        CacheProvider(path)
    assert str(err.value) == f"{path}:4: {reason}"


def test_cache_digest_given_two_vectors_is_a_data_error_naming_both_lines(tmp_path):
    records = [("alpha", [1.0, 0.0], "x"), ("beta", [0.5, 0.5], "x"),
               ("alpha", [1.0, 0.0], "x"),  # an identical repeat loads
               ("gamma", [0.0, 2.0], "x")]
    path = _cache_file(tmp_path / "cache.jsonl", records)
    cache = CacheProvider(path)
    assert len(cache.entries) == 3
    assert cache.embed("alpha").tolist() == [1.0, 0.0]
    # Another vector for a digest is not taken in place of the first:
    # one bit apart (the sign of a zero), or wholly different.
    for vector in ([1.0, -0.0], [0.0, 1.0]):
        _cache_file(path, [*records, ("alpha", vector, "x")])
        with pytest.raises(ParseError) as err:
            CacheProvider(path)
        assert str(err.value) == (f"{path}:5: sha256 {text_sha256('alpha')} has another"
                                  " vector here than at line 1")


@pytest.mark.parametrize("records, error", [
    ([("alpha", [1.0, 0.0], "x"), ("beta", [0.5, 0.5], "x")], None),
    ([("alpha", [1.0, 0.0], "x"), ("beta", [0.5, 0.5], "x"), ("alpha", [0.0, 1.0], "x")],
     "has another vector here than at line 1"),
], ids=["clean", "digest-conflict"])
def test_cache_load_opens_its_file_once(tmp_path, opens_of, records, error):
    """The line a digest conflict names is the one read the first time
    through, not found by reading the cache again."""
    path = _cache_file(tmp_path / "cache.jsonl", records)
    opened = opens_of(path)
    if error is None:
        CacheProvider(path)
    else:
        with pytest.raises(ParseError, match=error):
            CacheProvider(path)
    assert len(opened) == 1


@pytest.mark.parametrize("vectors", [
    {"alpha": np.array([])},
    {"alpha": np.zeros((2, 2))},
    {"alpha": np.array([1.0, 0.0]), "beta": np.array([1.0])},
])
def test_word_average_rejects_empty_2d_or_ragged_vectors(vectors):
    with pytest.raises(ValueError):
        WordAverageProvider(vectors)


def test_text_sha256_is_stable():
    assert text_sha256("abc") == text_sha256("abc")
    assert text_sha256("abc") != text_sha256("abd")
    assert len(text_sha256("abc")) == 64


# ---------------------------------------------------------------------------
# cosine (the reference that build_evidence is checked against)
# ---------------------------------------------------------------------------

def test_cosine_identity_and_orthogonal():
    assert reference_cosine([1, 0], [2, 0]) == pytest.approx(1.0)
    assert reference_cosine([1, 0], [0, 3]) == pytest.approx(0.0)
    assert reference_cosine([1, 0], [-1, 0]) == pytest.approx(-1.0)


def test_cosine_zero_norm_is_zero():
    assert reference_cosine([0, 0], [1, 0]) == 0.0


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError):
        reference_cosine([1, 0], [1, 0, 0])


def test_cosine_clamped():
    v = [1e-160, 1e-160]
    assert -1.0 <= reference_cosine(v, v) <= 1.0


# ---------------------------------------------------------------------------
# evidence
# ---------------------------------------------------------------------------

def _evidence_fixture():
    texts = ["Ent0ax likes alpha. Ent0ax and Ent1bx like beta.",
             "Ent1bx likes gamma."]
    docs = tuple(segment_sentences(Document(question_id="q1",
                                            original_rank=i + 1, text=t))
                 for i, t in enumerate(texts))
    docset = DocumentSet(question_id="q1", documents=docs)
    ext = GazetteerExtractor({"Ent0ax": "PERSON", "Ent1bx": "PERSON"})
    pool = build_pool(ext.extract(docset))
    return docset, pool


def test_build_evidence_shapes_and_sharing():
    docset, pool = _evidence_fixture()
    provider = _provider()
    evidence = {ev.entity.canonical_surface: ev
                for ev in build_evidence(pool, docset, "alpha beta", provider)}
    text = {(doc.doc_id, i): s
            for doc in docset.documents for i, s in enumerate(doc.sentences)}
    ent0 = evidence["ent0ax"]
    ent1 = evidence["ent1bx"]
    assert ent0.entity.sentence_keys == (("q1#1", 0), ("q1#1", 1))  # both in doc 1
    assert ent1.entity.sentence_keys == (("q1#1", 1), ("q1#2", 0))  # shared + doc 2
    shared = set(ent0.entity.sentence_keys) & set(ent1.entity.sentence_keys)
    assert {text[key] for key in shared} == {"Ent0ax and Ent1bx like beta."}
    # the shared sentence scored identically for both candidates
    key = shared.pop()
    s0 = dict(zip(ent0.entity.sentence_keys, ent0.scores))
    s1 = dict(zip(ent1.entity.sentence_keys, ent1.scores))
    assert s0[key] == s1[key]


def test_build_evidence_scores_in_range():
    docset, pool = _evidence_fixture()
    evidence = build_evidence(pool, docset, "alpha beta", _provider())
    for ev in evidence:
        assert all(-1.0 <= s <= 1.0 for s in ev.scores)


def _random_evidence_case(rng: random.Random):
    """A docset whose sentences mix gazetteer entities with vocabulary
    words (one of them the zero vector, one so small that its products
    are subnormal) and out-of-vocabulary words, a question, and the
    provider."""
    dim = 3
    vectors = {f"w{i}": np.array([rng.uniform(-1, 1) for _ in range(dim)])
               for i in range(8)}
    vectors["wzero"] = np.zeros(dim)
    vectors["wtiny"] = np.full(dim, 1e-160)
    words = list(vectors) + ["oov", "nowhere"]
    entities = [f"Ent{i}x" for i in range(4)]

    def sentence():
        pick = rng.choice((words, words, ["wtiny", "oov"]))
        parts = [rng.choice(entities)]
        parts += [rng.choice(pick) for _ in range(rng.randint(0, 4))]
        rng.shuffle(parts)
        return " ".join(parts) + "."

    texts = [" ".join(sentence() for _ in range(rng.randint(1, 4)))
             for _ in range(rng.randint(1, 4))]
    docs = tuple(segment_sentences(Document(question_id="q1",
                                            original_rank=i + 1, text=t))
                 for i, t in enumerate(texts))
    docset = DocumentSet(question_id="q1", documents=docs)
    pool = build_pool(GazetteerExtractor({e: "PERSON" for e in entities})
                      .extract(docset))
    pick = rng.choice((words, words, ["wtiny"]))
    question = " ".join(rng.choice(pick) for _ in range(rng.randint(1, 3)))
    return docset, pool, question, WordAverageProvider(vectors)


def test_build_evidence_equals_reference_cosine_randomized(tmp_path):
    rng = random.Random(41)
    seen = {"zero": 0, "tiny": 0, "other": 0}
    cache_loads = {True: 0, False: 0}
    for case in range(60):
        docset, pool, question, word_avg = _random_evidence_case(rng)
        texts = [s for doc in docset.documents for s in doc.sentences]
        cache_path = tmp_path / f"cache{case}.jsonl"
        write_cache(cache_path, texts + [question], word_avg)
        sentence = {(doc.doc_id, i): s for doc in docset.documents
                    for i, s in enumerate(doc.sentences)}
        # The cache takes no nonzero vector whose squared norm is below the
        # smallest normal float, as the square of a tiny word's vector is.
        loads = all(v.dot(v) >= sys.float_info.min or not v.any()
                    for v in map(word_avg.embed, texts + [question]))
        cache_loads[loads] += 1
        if not loads:
            with pytest.raises(ParseError, match="squared norm of a nonzero vector underflows"):
                CacheProvider(cache_path)
        for provider in (word_avg, CacheProvider(cache_path)) if loads else (word_avg,):
            q_vec = provider.embed(question)
            for ev in build_evidence(pool, docset, question, provider):
                for key, score in zip(ev.entity.sentence_keys, ev.scores):
                    s_vec = provider.embed(sentence[key])
                    assert score == reference_cosine(q_vec, s_vec)
                    if not (q_vec.any() and s_vec.any()):
                        seen["zero"] += 1
                    elif max(abs(q_vec).max(), abs(s_vec).max()) < 1e-100:
                        seen["tiny"] += 1
                    else:
                        seen["other"] += 1
    assert all(seen.values()), seen
    assert all(cache_loads.values()), cache_loads


class _TableProvider:
    """Embeds each text as the vector a table gives it."""

    dim = 4

    def __init__(self, table):
        self.table = table

    def embed(self, text):
        return self.table[text]


def test_build_evidence_norms_equal_numpy_norm_at_the_extremes():
    # build_evidence takes each norm as sqrt(v.dot(v)), which is numpy's own
    # path for the norm of a real 1-d array; pin the two bit for bit where
    # the squares vanish, are subnormal or overflow.
    tiny = np.nextafter(0.0, 1.0)
    vectors = [np.zeros(4), np.full(4, tiny), np.array([tiny, -3 * tiny, 0.0, 1e-160]),
               np.full(4, 1e-160), np.array([2.2e-308, 1e-310, -1e-320, 0.0]),
               np.array([1e154, 1e154, 0.0, 1.0]), np.full(4, 1e200),
               np.array([1.7e308, -1.7e308, 1.0, 0.0]), np.array([3.0, -4.0, 1e-320, 0.5])]
    with np.errstate(over="ignore"):
        for vec in vectors:
            assert math.sqrt(vec.dot(vec)) == float(np.linalg.norm(vec))
    text = " ".join(f"Ent{i}x says s{i}." for i in range(len(vectors)))
    docset = DocumentSet(question_id="q1", documents=(
        segment_sentences(Document(question_id="q1", original_rank=1, text=text)),))
    sentences = docset.documents[0].sentences
    assert len(sentences) == len(vectors)
    pool = build_pool(GazetteerExtractor({f"Ent{i}x": "PERSON" for i in range(len(vectors))})
                      .extract(docset))
    for q_vec in vectors:
        provider = _TableProvider(dict(zip(sentences, vectors), question=q_vec))
        with np.errstate(all="ignore"):
            evidence = build_evidence(pool, docset, "question", provider)
            expected = [[reference_cosine(q_vec, vectors[index])
                         for _doc_id, index in ev.entity.sentence_keys] for ev in evidence]
        assert len(evidence) == len(vectors)
        assert [list(ev.scores) for ev in evidence] == expected


def test_build_evidence_cache_miss_names_hash(tmp_path):
    docset, pool = _evidence_fixture()
    texts = [s for doc in docset.documents for s in doc.sentences]
    path = tmp_path / "cache.jsonl"
    write_cache(path, ["alpha beta"] + texts[1:], _provider())
    with pytest.raises(DataError) as err:
        build_evidence(pool, docset, "alpha beta", CacheProvider(path))
    assert str(err.value) == f"{path}: no cached embedding for sha256 {text_sha256(texts[0])}"


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _ev(scores_by_doc: dict[str, list[float]]) -> EvidenceSet:
    keys = []
    values = []
    for doc_id, scores in scores_by_doc.items():
        for i, s in enumerate(scores):
            keys.append((doc_id, i))
            values.append(s)
    entity = CandidateEntity(canonical_surface="x", df=len(scores_by_doc),
                             sentence_keys=tuple(keys))
    return EvidenceSet(entity=entity, scores=tuple(values))


def test_aggregate_singleton_all_modes_coincide():
    ev = _ev({"d1": [0.7]})
    for mode in AGGREGATION_MODES:
        assert aggregate(ev, mode) == pytest.approx(0.7)


def test_aggregate_worked_example():
    ev = _ev({"d1": [0.2, 0.8], "d2": [0.4]})
    assert aggregate(ev, "max") == pytest.approx(0.8)
    assert aggregate(ev, "avg_max") == pytest.approx(0.6)
    assert aggregate(ev, "avg") == pytest.approx(1.4 / 3)


def test_aggregate_all_equal():
    ev = _ev({"d1": [0.3, 0.3], "d2": [0.3]})
    for mode in AGGREGATION_MODES:
        assert aggregate(ev, mode) == pytest.approx(0.3)


def test_aggregate_all_docs_denominator():
    ev = _ev({"d1": [0.2, 0.8], "d2": [0.4]})
    got = aggregate(ev, "avg_max", avgmax_denominator="all_docs", n_docs=10)
    assert got == pytest.approx(1.2 / 10)
    with pytest.raises(ValueError):
        aggregate(ev, "avg_max", avgmax_denominator="all_docs")


def test_aggregate_empty_evidence_rejected():
    entity = CandidateEntity(canonical_surface="x", df=1, sentence_keys=())
    ev = EvidenceSet(entity=entity, scores=())
    with pytest.raises(ValueError):
        aggregate(ev, "avg")


def test_aggregate_avg_and_max_are_np_mean_and_np_max_to_the_bit():
    """Last bits and signed zeros included, on 1 to 40 scores with ties of
    0.0 and -0.0: neither sum(...) / n nor the builtin max is a stand-in
    (max keeps -0.0 on (-0.0, 0.0), where np.max gives 0.0)."""
    rng = random.Random(41)
    seen_by = {"avg": 0, "max": 0}  # cases where the stand-in differs
    for _ in range(3000):
        scores = [rng.choice((0.0, -0.0)) if rng.random() < 0.4
                  else rng.uniform(-1.0, 0.05) for _ in range(rng.randint(1, 40))]
        ev = _ev({"d1": scores})
        for mode, reference, stand_in in (("avg", np.mean, sum(scores) / len(scores)),
                                          ("max", np.max, max(scores))):
            want = max(-1.0, min(1.0, float(reference(scores))))
            got = aggregate(ev, mode)
            assert got.hex() == want.hex(), (mode, scores)
            assert math.copysign(1.0, got) == math.copysign(1.0, want), (mode, scores)
            seen_by[mode] += stand_in.hex() != want.hex()
    assert seen_by["avg"] > 500 and seen_by["max"] > 500, seen_by


def test_aggregate_matches_brute_force_randomized():
    rng = random.Random(31)
    for _ in range(1000):
        n_docs = rng.randint(1, 6)
        scores_by_doc = {
            f"d{d}": [round(rng.uniform(-1, 1), 6)
                      for _ in range(rng.randint(1, 5))]
            for d in range(n_docs)
        }
        ev = _ev(scores_by_doc)
        for mode in AGGREGATION_MODES:
            got = aggregate(ev, mode)
            want = brute_force_aggregate(scores_by_doc, mode)
            assert math.isclose(got, want, abs_tol=1e-12)
        allv = aggregate(ev, "avg")
        mx = aggregate(ev, "max")
        am = aggregate(ev, "avg_max")
        assert allv <= mx + 1e-12
        assert am <= mx + 1e-12
