import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from oracles import hinge_objective, reference_centroids

from entityqa.corpus import Question
from entityqa.errors import TrainingError, UnmappedTypeError
from entityqa.pipeline import PipelineConfig, load_classifier, load_provider, load_stages
from entityqa.qtype.classifier import _centroids
from entityqa.qtype import (
    NAMESPACES,
    EmbeddingClassifier,
    FeatureSpace,
    LabeledQuestion,
    QuestionClassifier,
    classifier_accuracy,
    default_answer_type_map,
    default_taxonomy,
    load_labeled_questions,
    majority_baseline,
    map_answer_types,
    question_features,
    split_labeled,
    train_classifier,
    train_embedding_classifier,
    train_one_vs_rest,
)


# ---------------------------------------------------------------------------
# question features
# ---------------------------------------------------------------------------

def test_toy_question_feature_count():
    # "Who won?" yields exactly six features: two lemmas, one lemma
    # bigram, two POS tags, one POS bigram, and no named entities.
    feats = question_features("Who won?")
    assert feats == {
        ("lem", "who"), ("lem", "win"), ("lem2", "who_win"),
        ("pos", "WP"), ("pos", "VBD"), ("pos2", "WP_VBD"),
    }
    space = FeatureSpace.build([feats])
    assert space.total_dim == 6
    assert len(space.extract(feats)) == 6


def test_namespaces_fixed():
    assert NAMESPACES == ("lem", "lem2", "ne", "pos", "pos2")


def test_oov_features_dropped():
    space = FeatureSpace.build([question_features("Who won?")])
    other = question_features("Where is the castle?")
    active = space.extract(other)
    assert all(0 <= i < space.total_dim for i in active)
    # nothing from the unseen question except possibly shared templates
    shared = other & question_features("Who won?")
    assert len(active) == len({space.index[f] for f in shared})


def test_feature_indices_sorted_and_unique():
    feats = question_features("Who won the war that Napoleon won?")
    space = FeatureSpace.build([feats])
    active = space.extract(feats)
    assert list(active) == sorted(set(active))


def test_feature_space_roundtrip():
    space = FeatureSpace.build(question_features(t) for t in
                               ("Who won?", "Where was the treaty signed?", "How many ran?"))
    again = FeatureSpace.from_vocab(space.to_dict())
    assert again.index == space.index
    assert again.total_dim == space.total_dim


def test_named_entity_features_present():
    feats = question_features("Who won in March 1990?")
    assert any(ns == "ne" for ns, _ in feats)


def test_multi_token_entities_give_one_feature_per_tag():
    # "March 1990" and "May 1991" are two DATE entities of two tokens each
    # ("May" is tagged MD, as the modal is); the tag is one "ne" feature.
    assert question_features("Who won in March 1990 and May 1991?") == {
        ("lem", "1990"), ("lem", "1991"), ("lem", "and"), ("lem", "in"),
        ("lem", "march"), ("lem", "may"), ("lem", "who"), ("lem", "win"),
        ("lem2", "1990_and"), ("lem2", "and_may"), ("lem2", "in_march"),
        ("lem2", "march_1990"), ("lem2", "may_1991"), ("lem2", "who_win"),
        ("lem2", "win_in"),
        ("ne", "DATE"),
        ("pos", "CC"), ("pos", "CD"), ("pos", "IN"), ("pos", "MD"),
        ("pos", "NNP"), ("pos", "VBD"), ("pos", "WP"),
        ("pos2", "CC_MD"), ("pos2", "CD_CC"), ("pos2", "IN_NNP"),
        ("pos2", "MD_CD"), ("pos2", "NNP_CD"), ("pos2", "VBD_IN"),
        ("pos2", "WP_VBD"),
    }


def test_dollar_and_percent_are_symbol_tokens():
    # "$" and "%" are tokens of their own: each is tagged SYM, and "$"
    # names a MONEY entity though no currency word is in the question.
    feats = question_features("What cost $5 in 1990, and what share paid 7%?")
    assert {("pos", "SYM"), ("ne", "MONEY"), ("lem", "$"), ("lem", "%"),
            ("lem2", "$_5"), ("lem2", "7_%"), ("pos2", "CD_SYM")} <= feats


# ---------------------------------------------------------------------------
# linear trainer
# ---------------------------------------------------------------------------

def _separable_samples():
    # class i fires its private feature i plus shared features 3 and 4
    samples = []
    for cls_index in (0, 1, 2):
        for extra in (3, 4):
            samples.append(((cls_index, extra), cls_index))
    return samples


def test_trainer_learns_separable_problem():
    samples = _separable_samples()
    model = train_one_vs_rest(samples, classes=("a", "b", "c"), dimension=5,
                              epochs=20, learning_rate=0.5, l2=1e-4, seed=0)
    for active, label in samples:
        scores = model.decision_scores(active)
        assert int(np.argmax(scores)) == label


def test_trainer_deterministic():
    samples = _separable_samples()
    kwargs = dict(classes=("a", "b", "c"), dimension=5, epochs=7,
                  learning_rate=0.3, l2=1e-3, seed=9)
    m1 = train_one_vs_rest(samples, **kwargs)
    m2 = train_one_vs_rest(samples, **kwargs)
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.bias, m2.bias)


def test_trainer_seed_changes_path():
    samples = _separable_samples() * 3
    m1 = train_one_vs_rest(samples, classes=("a", "b", "c"), dimension=5,
                           epochs=1, seed=0)
    m2 = train_one_vs_rest(samples, classes=("a", "b", "c"), dimension=5,
                           epochs=1, seed=1)
    assert not np.array_equal(m1.weights, m2.weights)


def test_trainer_rejects_bad_input():
    with pytest.raises(TrainingError):
        train_one_vs_rest([], classes=("a",), dimension=3)
    with pytest.raises(TrainingError):  # class index out of range
        train_one_vs_rest([((0,), 4)], classes=("a",), dimension=3)
    with pytest.raises(TrainingError):  # empty feature space
        train_one_vs_rest([((0,), 0)], classes=("a",), dimension=0)
    with pytest.raises(TrainingError):  # feature index out of range
        train_one_vs_rest([((5,), 0)], classes=("a",), dimension=3)
    with pytest.raises(TrainingError):  # classes not sorted
        train_one_vs_rest([((0,), 0)], classes=("b", "a"), dimension=3)


def test_trainer_records_hyperparams():
    labeled = [LabeledQuestion("HUMAN", "individual", "Who won the race?"),
               LabeledQuestion("LOCATION", "city", "Where is the arena?")]
    model = train_classifier(labeled, epochs=4, learning_rate=0.25, l2=1e-3,
                             seed=2)
    assert model.hyperparams == {"epochs": 4, "learning_rate": 0.25,
                                 "l2": 1e-3, "seed": 2}


def test_objective_improves_over_zero_model():
    samples = _separable_samples()
    trained = train_one_vs_rest(samples, classes=("a", "b", "c"), dimension=5,
                                epochs=20, seed=0)
    zero = trained.__class__(classes=trained.classes,
                             weights=np.zeros_like(trained.weights),
                             bias=np.zeros_like(trained.bias))
    assert hinge_objective(trained, samples) < hinge_objective(zero, samples)


def test_featureless_question_trains_and_scores_by_the_bias_alone():
    """A question with no feature ("???") trains through the same numpy
    update as any other, and scores as the bias: a featureless text
    predicts the bias argmax of each model."""
    labeled = [LabeledQuestion("HUMAN", "individual", "Who won the race?"),
               LabeledQuestion("LOCATION", "city", "Where is the arena?"),
               LabeledQuestion("NUMERIC", "count", "???"),
               LabeledQuestion("NUMERIC", "count", "!!")]
    assert [question_features(q.text) for q in labeled[2:]] == [set(), set()]
    clf = train_classifier(labeled, epochs=3)
    for model in (clf.coarse_model, clf.fine_model):
        assert np.array_equal(model.decision_scores([]), model.bias)
    coarse = clf.coarse_model.classes[int(np.argmax(clf.coarse_model.bias))]
    fine = clf.fine_model.classes[int(np.argmax(clf.fine_model.bias))]
    assert clf.predict("...") == (coarse, fine.split(":", 1)[1])


# ---------------------------------------------------------------------------
# answer-type mapping
# ---------------------------------------------------------------------------

def test_coarse_rows():
    assert map_answer_types("HUMAN") == frozenset({"PERSON"})
    assert map_answer_types("LOCATION") == frozenset({"GPE", "LOC", "ORG"})
    assert map_answer_types("ENTITY") == frozenset({
        "NORP", "FAC", "PRODUCT", "EVENT", "LANGUAGE", "LAW", "WORK_OF_ART"})
    assert map_answer_types("NUMERIC") == frozenset({
        "DATE", "TIME", "PERCENT", "MONEY", "QUANTITY", "ORDINAL", "CARDINAL"})


def test_fine_overrides():
    assert map_answer_types("NUMERIC", "money") == frozenset({"MONEY"})
    assert map_answer_types("NUMERIC", "date") == frozenset({"DATE"})
    assert map_answer_types("HUMAN", "group") == frozenset({"ORG"})


def test_fine_without_override_falls_back_to_coarse():
    assert map_answer_types("NUMERIC", "count") == map_answer_types("NUMERIC")
    assert map_answer_types("HUMAN", "individual") == frozenset({"PERSON"})


def test_unmapped_types_raise():
    with pytest.raises(UnmappedTypeError):
        map_answer_types("DESCRIPTION")
    with pytest.raises(UnmappedTypeError):
        map_answer_types("ABBREVIATION", "exp")
    with pytest.raises(UnmappedTypeError):
        map_answer_types("NO_SUCH_COARSE")


def test_taxonomy_shape():
    tax = default_taxonomy()
    assert len(tax) == 6
    assert sum(map(len, tax.values())) == 50


# ---------------------------------------------------------------------------
# labeled-question IO and the full classifier
# ---------------------------------------------------------------------------

def test_load_labeled_tab_and_space(tmp_path):
    path = tmp_path / "labeled.txt"
    path.write_text("HUMAN:individual\tWho won?\n"
                    "LOCATION:city Where is it?\n")
    labeled = load_labeled_questions(path)
    assert [(lq.coarse, lq.fine) for lq in labeled] == [
        ("HUMAN", "individual"), ("LOCATION", "city")]
    assert labeled[1].text == "Where is it?"
    assert labeled[0].fine_qualified == "HUMAN:individual"


def test_load_labeled_unknown_label(tmp_path):
    path = tmp_path / "labeled.txt"
    path.write_text("HUMAN:individual\tWho won?\nBOGUS:thing\tWhat?\n")
    with pytest.raises(TrainingError) as err:
        load_labeled_questions(path)
    assert ":2:" in str(err.value)


def test_load_labeled_empty(tmp_path):
    path = tmp_path / "labeled.txt"
    path.write_text("")
    with pytest.raises(TrainingError):
        load_labeled_questions(path)


def test_split_labeled_deterministic():
    labeled = [LabeledQuestion("HUMAN", "individual", f"Who is number {i}?")
               for i in range(100)]
    t1, h1 = split_labeled(labeled, train_fraction=0.9, seed=0)
    t2, h2 = split_labeled(labeled, train_fraction=0.9, seed=0)
    assert [x.text for x in t1] == [x.text for x in t2]
    assert [x.text for x in h1] == [x.text for x in h2]
    assert len(t1) == 90 and len(h1) == 10
    assert {x.text for x in t1} | {x.text for x in h1} == {x.text for x in labeled}


def test_classifier_roundtrip_and_predictions(tmp_path, svm_classifier,
                                              svm_split):
    path = tmp_path / "model.npz"
    svm_classifier.save(path)
    again = QuestionClassifier.load(path)
    _, heldout = svm_split
    for lq in heldout[:50]:
        assert again.predict(lq.text) == svm_classifier.predict(lq.text)


@pytest.mark.parametrize("name", ["model", "model.npz"])
def test_classifier_save_load_same_path(tmp_path, svm_classifier, svm_split,
                                        name):
    svm_classifier.save(tmp_path / name)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "model.npz", "model.npz.meta.json"]
    _, heldout = svm_split
    texts = [lq.text for lq in heldout[:20]]
    want = [svm_classifier.predict(text) for text in texts]
    for path in (tmp_path / name, tmp_path / "model.npz"):
        again = QuestionClassifier.load(path)
        assert [again.predict(text) for text in texts] == want


def test_classifier_beats_majority(svm_classifier, svm_split):
    _, heldout = svm_split
    coarse_acc, _ = classifier_accuracy(svm_classifier, heldout)
    assert coarse_acc > majority_baseline(heldout)


@pytest.fixture(scope="module")
def svm_stages(planted_config):
    stages, _ = load_stages(PipelineConfig(**planted_config))
    return stages


def test_predict_types_then_map_end_to_end(svm_stages):
    q = Question(id="t1", text="Who founded the famous bridge in Ostenfell?",
                 source_set="custom")
    coarse, fine = svm_stages.predict_types(q)
    assert coarse == "HUMAN"
    assert map_answer_types(coarse, fine, svm_stages.type_map) == \
        frozenset({"PERSON"})


def test_predict_types_unmapped_type_raises(svm_stages):
    q = Question(id="t2", text="What does VRC stand for?",
                 source_set="custom")
    coarse, fine = svm_stages.predict_types(q)
    with pytest.raises(UnmappedTypeError):
        map_answer_types(coarse, fine, svm_stages.type_map)


def test_embedding_classifier_nearest_centroid():
    def embed(text):
        v = np.zeros(3)
        if "who" in text.lower():
            v[0] = 1.0
        if "where" in text.lower():
            v[1] = 1.0
        return v

    labeled = [
        LabeledQuestion("HUMAN", "individual", "Who won the race?"),
        LabeledQuestion("HUMAN", "individual", "Who lost the match?"),
        LabeledQuestion("LOCATION", "city", "Where is the arena?"),
        LabeledQuestion("LOCATION", "city", "Where was the film made?"),
    ]
    clf = train_embedding_classifier(labeled, embed)
    assert isinstance(clf, EmbeddingClassifier)
    coarse, _fine = clf.predict_vector(embed("Who is that?"))
    assert coarse == "HUMAN"
    coarse, _fine = clf.predict_vector(embed("Where is that?"))
    assert coarse == "LOCATION"


# provider -> sha256 of the (coarse, fine) centroid array bytes trained on
# the planted fixture's labeled questions. The planted cache holds the
# word-average vectors, so both providers train the same centroids.
_PLANTED_CENTROIDS = (
    "f4875bce8ff8e35f7a6a3bd32f3b5b8d490324db23dc595686a1220203179b7a",
    "fd4aa862721df38ef8a31e00e865b43c12d1ab46b7bd4090d616cc637f0a0a5d")
CENTROID_DIGESTS = {"word-avg": _PLANTED_CENTROIDS, "cache": _PLANTED_CENTROIDS}


@pytest.mark.parametrize("provider", sorted(CENTROID_DIGESTS))
def test_planted_centroids_match_pinned_digests(planted_config, provider):
    config = replace(PipelineConfig(**planted_config),
                     classifier="external-embedding", embedding_provider=provider)
    clf = load_classifier(config, load_provider(config))
    digests = tuple(hashlib.sha256(arr.tobytes()).hexdigest()
                    for arr in (clf.coarse_centroids, clf.fine_centroids))
    assert digests == CENTROID_DIGESTS[provider]


def test_centroids_match_row_loop_reference_bitwise():
    """Rows are summed per class in row order, so every bit, signed zeros
    included, equals the loop's."""
    rng = random.Random(5)
    np_rng = np.random.default_rng(5)
    for _ in range(300):
        classes = tuple(f"c{i}" for i in range(rng.randint(1, 6)))
        n_rows, dim = rng.randint(1, 40), rng.randint(1, 8)
        labels = [rng.choice(classes) for _ in range(n_rows)]
        matrix = np_rng.normal(size=(n_rows, dim)) * 10.0 ** np_rng.integers(
            -3, 4, size=(n_rows, 1))
        # Signed zeros, whole zero rows and repeated rows.
        matrix[np_rng.random((n_rows, dim)) < 0.2] = -0.0
        matrix[np_rng.random((n_rows, dim)) < 0.1] = 0.0
        if n_rows > 2:
            matrix[rng.randrange(n_rows)] = -0.0
            matrix[rng.randrange(n_rows)] = matrix[rng.randrange(n_rows)]
        got = _centroids(classes, labels, matrix)
        want = reference_centroids(classes, labels, matrix)
        assert got.tobytes() == want.tobytes()
