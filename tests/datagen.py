"""Deterministic synthetic data for the test suite.

Two independent assets are produced here:

* a labeled question file covering all 50 fine classes, built from
  per-class templates over shared word pools, sized like the standard
  training set for this task (5500 questions);
* a "planted answer" corpus of 12 questions whose gold entity appears in
  3 of 10 documents inside sentences that reuse the question's content
  words verbatim, while a same-tag distractor appears in 2 documents
  inside unrelated sentences. Because the combining step multiplies the
  semantic score (<= 1) by df/10, the gold entity (df 3, similarity 1.0)
  provably outscores the distractor (df 2) and every decoy (df 1) under
  the default max-score configuration.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# JSON values that are no question id, each with the repr an error shows.
NOT_QUESTION_IDS = [(None, "None"), (True, "True"), (1.5, "1.5"),
                    (["q"], "['q']"), ({"q": 1}, "{'q': 1}")]


def question_id_error(name: str, line_no: int, shown: str) -> str:
    """The message pattern of a bad question id on line `line_no` of the
    file `name`."""
    return (rf"{re.escape(name)}:{line_no}: question id must be a string "
            rf"or an integer, not {re.escape(shown)}$")


VERBS = ("founded", "built", "designed", "restored", "discovered", "painted",
         "composed", "directed", "established", "expanded")
ADJS = ("ancient", "famous", "northern", "coastal", "hidden", "royal",
        "modern", "sacred", "ruined", "grand")
NOUNS = ("observatory", "bridge", "cathedral", "festival", "museum",
         "archive", "garden", "harbor", "library", "monument", "academy",
         "workshop", "theater", "fortress", "lighthouse", "market", "palace",
         "arena", "canal", "mill")
PLACES = ("Valderia", "Ostenfell", "Brimshore", "Caldermoor", "Eastwick",
          "Fennwood", "Galdenport", "Hartvale", "Ironmere", "Jasperfield")
PERSONS = ("painter", "architect", "composer", "explorer", "scholar",
           "merchant", "general", "poet", "engineer", "captain")
THINGS = ("telescope", "tapestry", "engine", "vessel", "crown", "manuscript",
          "statue", "organ", "clock", "mosaic")
ABBRS = ("VRC", "OSTL", "BMR", "CMK", "EWA", "FWD", "GLP", "HTV")

# Every in-vocabulary word for the synthetic embedding space. Function
# words, wh-words and entity name tokens stay out of vocabulary on
# purpose: a question and its planted sentence then average exactly the
# same vectors, making their cosine exactly 1.
VOCAB_EXTRA = ("product",)
VOCAB_WORDS = tuple(sorted(
    {w.lower() for w in VERBS + ADJS + NOUNS + PLACES + PERSONS + THINGS}
    | set(VOCAB_EXTRA)
))

TEMPLATES: dict[tuple[str, str], tuple[str, ...]] = {
    ("HUMAN", "individual"): (
        "Who {verb} the {adj} {noun} in {place}?",
        "Which {person} {verb} the {noun} of {place}?",
        "Who was the first {person} of {place}?",
    ),
    ("HUMAN", "group"): (
        "What team {verb} the {noun} tournament in {place}?",
        "Which organization {verb} the {adj} {noun}?",
    ),
    ("HUMAN", "title"): (
        "What title did the {person} of {place} hold?",
        "What rank was granted to the {person} after the {noun}?",
    ),
    ("HUMAN", "description"): (
        "Who was the celebrated {person} of {place}?",
    ),
    ("LOCATION", "city"): (
        "What city hosts the {adj} {noun}?",
        "In which city did the {person} {verb} the {noun}?",
    ),
    ("LOCATION", "country"): (
        "What country lies beyond the {adj} {noun}?",
        "Which country {verb} the {noun} treaty?",
    ),
    ("LOCATION", "mountain"): (
        "What mountain overlooks the {adj} {noun} of {place}?",
    ),
    ("LOCATION", "state"): (
        "What state contains the {adj} {noun}?",
    ),
    ("LOCATION", "other"): (
        "Where was the {adj} {noun} of {place} {verb}?",
        "Where did the {person} {verb} the {noun}?",
    ),
    ("NUMERIC", "count"): (
        "How many {noun}s stand in {place}?",
        "How many {person}s {verb} the {noun}?",
    ),
    ("NUMERIC", "date"): (
        "When was the {adj} {noun} in {place} {verb}?",
        "What year was the {noun} of {place} {verb}?",
    ),
    ("NUMERIC", "money"): (
        "How much did the {adj} {noun} cost?",
        "How much money did the {person} spend on the {noun}?",
    ),
    ("NUMERIC", "distance"): (
        "How far is {place} from the {adj} {noun}?",
    ),
    ("NUMERIC", "period"): (
        "How long did the {noun} festival in {place} last?",
    ),
    ("NUMERIC", "percent"): (
        "What percentage of {place} visited the {noun}?",
    ),
    ("NUMERIC", "speed"): (
        "How fast can the {thing} travel?",
    ),
    ("NUMERIC", "temp"): (
        "How hot does the {noun} furnace get?",
    ),
    ("NUMERIC", "weight"): (
        "How much does the {thing} weigh?",
    ),
    ("NUMERIC", "size"): (
        "How large is the {adj} {noun}?",
    ),
    ("NUMERIC", "order"): (
        "In what order were the {noun}s of {place} {verb}?",
    ),
    ("NUMERIC", "code"): (
        "What is the postal code of {place}?",
        "What code unlocks the {noun} archive?",
    ),
    ("NUMERIC", "other"): (
        "What number marks the {adj} {noun}?",
    ),
    ("ENTITY", "animal"): ("What animal roams the {adj} {noun}?",),
    ("ENTITY", "body"): ("What body of water borders {place}?",),
    ("ENTITY", "color"): ("What color is the {adj} {noun}?",),
    ("ENTITY", "creative"): (
        "What painting hangs in the {noun} of {place}?",
        "What novel did the {person} of {place} write?",
    ),
    ("ENTITY", "currency"): ("What currency is used in {place}?",),
    ("ENTITY", "disease"): ("What disease spread through {place}?",),
    ("ENTITY", "event"): ("What event marked the opening of the {noun}?",),
    ("ENTITY", "food"): ("What food is served at the {noun} festival?",),
    ("ENTITY", "instrument"): (
        "What instrument did the {person} of {place} play?",
    ),
    ("ENTITY", "language"): ("What language is spoken in {place}?",),
    ("ENTITY", "letter"): ("What letter marks the {noun} gate?",),
    ("ENTITY", "other"): ("What artifact rests in the {adj} {noun}?",),
    ("ENTITY", "plant"): ("What plant grows along the {noun} walls?",),
    ("ENTITY", "product"): (
        "What product did the {adj} {noun} in {place} {verb}?",
    ),
    ("ENTITY", "religion"): ("What religion flourished in {place}?",),
    ("ENTITY", "sport"): ("What sport is played at the {noun} grounds?",),
    ("ENTITY", "substance"): ("What substance coats the {adj} {noun}?",),
    ("ENTITY", "symbol"): ("What symbol appears on the {place} banner?",),
    ("ENTITY", "technique"): (
        "What technique was used to restore the {noun}?",
    ),
    ("ENTITY", "term"): ("What term describes the {adj} {noun} style?",),
    ("ENTITY", "vehicle"): ("What vehicle carried the {person} to {place}?",),
    ("ENTITY", "word"): ("What word did the {person} coin for the {noun}?",),
    ("DESCRIPTION", "definition"): (
        "What is a {noun}?",
        "What is the meaning of the term {noun}?",
    ),
    ("DESCRIPTION", "description"): (
        "What does the {adj} {noun} look like?",
        "What is the {noun} of {place} known for?",
    ),
    ("DESCRIPTION", "manner"): (
        "How do {person}s restore a {noun}?",
        "How was the {adj} {noun} {verb}?",
    ),
    ("DESCRIPTION", "reason"): (
        "Why did the {person} {verb} the {noun}?",
        "Why was the {adj} {noun} abandoned?",
    ),
    ("ABBREVIATION", "exp"): ("What does {abbr} stand for?",),
    ("ABBREVIATION", "abb"): (
        "What is the abbreviation for the {noun} ministry?",
        "What is the short form of {place} {noun}?",
    ),
}

_COARSE_WEIGHTS = {
    "HUMAN": 23, "ENTITY": 22, "DESCRIPTION": 17, "NUMERIC": 18,
    "LOCATION": 14, "ABBREVIATION": 6,
}
_FINE_WEIGHTS = {("HUMAN", "individual"): 6, ("HUMAN", "group"): 2,
                 ("HUMAN", "title"): 1, ("HUMAN", "description"): 1,
                 ("LOCATION", "other"): 3, ("NUMERIC", "date"): 4,
                 ("NUMERIC", "count"): 4, ("NUMERIC", "money"): 2,
                 ("ENTITY", "product"): 3}


def _fill(template: str, rng: random.Random) -> str:
    return template.format(
        verb=rng.choice(VERBS), adj=rng.choice(ADJS), noun=rng.choice(NOUNS),
        place=rng.choice(PLACES), person=rng.choice(PERSONS),
        thing=rng.choice(THINGS), abbr=rng.choice(ABBRS),
    )


def generate_labeled_file(path: str | Path, n: int = 5500,
                          seed: int = 11) -> None:
    rng = random.Random(seed)
    pairs = sorted(TEMPLATES)
    lines: list[str] = []
    # Coverage pass: every fine class gets a base allocation.
    for pair in pairs:
        for _ in range(20):
            template = rng.choice(TEMPLATES[pair])
            lines.append(f"{pair[0]}:{pair[1]}\t{_fill(template, rng)}")
    # Weighted remainder.
    weights = [(_COARSE_WEIGHTS[c] * _FINE_WEIGHTS.get((c, f), 1)) for c, f in pairs]
    while len(lines) < n:
        coarse, fine = rng.choices(pairs, weights=weights, k=1)[0]
        template = rng.choice(TEMPLATES[(coarse, fine)])
        lines.append(f"{coarse}:{fine}\t{_fill(template, rng)}")
    Path(path).write_text("\n".join(lines[:n]) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Planted-answer fixture
# ---------------------------------------------------------------------------

_GOLD_SURFACES = (
    "Zorvath Kellin", "Maretheon Point", "Kresmun Epoch", "Velgrath Loom",
    "Ilvane Dresk", "Thornmere Basin", "Ormuld Era", "Quellis Frame",
    "Bravik Solen", "Wyrmont Reach", "Sellvane Age", "Drossel Kit",
)
_DISTRACTOR_SURFACES = (
    "Fendrel Moak", "Ashmere Hollow", "Tervun Span", "Glimmer Rig",
    "Parvek Noll", "Duskwell Flats", "Hollum Cycle", "Marrow Press",
    "Yelvik Crane", "Stonemarch Gap", "Calder Interval", "Ember Jig",
)
_DECOY_SURFACES = ("Vintmar Accord", "Nurelle Script", "Oblast Charter",
                   "Pellim Codex")

# question type cycle: coarse, fine, entity tag, decoy tag
_TYPE_CYCLE = (
    ("HUMAN", "individual", "PERSON", "DATE"),
    ("LOCATION", "other", "GPE", "PERSON"),
    ("NUMERIC", "date", "DATE", "PERSON"),
    ("ENTITY", "product", "PRODUCT", "PERSON"),
)

_QUESTION_SHAPES = {
    "HUMAN": ("Who {verb} the {adj} {noun} in {place}?",
              "The {adj} {noun} in {place} was {verb} by {entity}."),
    "LOCATION": ("Where was the {adj} {noun} of {place} {verb}?",
                 "The {adj} {noun} of {place} was {verb} at {entity}."),
    "NUMERIC": ("When was the {adj} {noun} in {place} {verb}?",
                "The {adj} {noun} in {place} was {verb} during the {entity}."),
    "ENTITY": ("What product did the {adj} {noun} in {place} {verb}?",
               "The {adj} {noun} in {place} {verb} the {entity} product."),
}

GOLD_DOC_RANKS = (2, 5, 8)
DISTRACTOR_DOC_RANKS = (1, 9)
DECOY_DOC_RANK = 4
N_DOCS = 10


@dataclass(frozen=True)
class PlantedQuestion:
    qid: str
    text: str
    coarse: str
    fine: str
    tag: str
    gold_surface: str
    distractor_surface: str
    content_words: tuple[str, ...]


@dataclass(frozen=True)
class PlantedFixture:
    root: Path
    questions_path: str
    documents_path: str
    gazetteer_path: str
    vectors_path: str
    cache_path: str
    qrels_path: str
    questions: tuple[PlantedQuestion, ...]
    n_docs: int


def _filler_sentence(rng: random.Random, avoid: set[str]) -> str:
    candidates = [w for w in VOCAB_WORDS if w not in avoid]
    a, b = rng.sample(candidates, 2)
    return f"Travelers described the {a} and the {b} at length."


def generate_planted_fixture(root: str | Path, seed: int = 23,
                             labeled_texts: list[str] | None = None,
                             vector_dim: int = 32) -> PlantedFixture:
    """Write the full fixture (questions, docs, gazetteer, vectors, cache,
    qrels) under `root` and return its paths plus ground truth.

    `labeled_texts`, when given, are embedded into the cache as well so
    the cache-backed provider can also serve the question classifier.
    """
    from entityqa.corpus import Document, preprocess_text, segment_sentences
    from entityqa.scoring import WordAverageProvider

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    questions: list[PlantedQuestion] = []
    doc_lines: list[dict] = []
    for i in range(12):
        coarse, fine, tag, decoy_tag = _TYPE_CYCLE[i % 4]
        q_shape, s_shape = _QUESTION_SHAPES[coarse]
        verb = VERBS[(i * 3) % len(VERBS)]
        adj = ADJS[(i * 5 + 1) % len(ADJS)]
        noun = NOUNS[(i * 7 + 2) % len(NOUNS)]
        place = PLACES[(i * 2 + 3) % len(PLACES)]
        gold = _GOLD_SURFACES[i]
        distractor = _DISTRACTOR_SURFACES[i]
        content = [verb, adj.lower(), noun, place.lower()]
        if coarse == "ENTITY":
            content.append("product")
        text = q_shape.format(verb=verb, adj=adj, noun=noun, place=place)
        planted = s_shape.format(verb=verb, adj=adj, noun=noun, place=place,
                                 entity=gold)
        planted_variant = "Clearly " + planted[0].lower() + planted[1:]
        aside = f"Old records also mention {gold} in passing."
        other_place = PLACES[(i * 2 + 7) % len(PLACES)]
        distractor_sentences = (
            f"Several traders from {other_place} praised {distractor} at length.",
            f"Critics in {other_place} often cited {distractor} as well.",
        )
        decoy = _DECOY_SURFACES[i % len(_DECOY_SURFACES)]

        avoid = set(content)
        per_rank: dict[int, list[str]] = {}
        per_rank[GOLD_DOC_RANKS[0]] = [planted]
        per_rank[GOLD_DOC_RANKS[1]] = [planted_variant, aside]
        per_rank[GOLD_DOC_RANKS[2]] = [aside, _filler_sentence(rng, avoid)]
        per_rank[DISTRACTOR_DOC_RANKS[0]] = [distractor_sentences[0],
                                             _filler_sentence(rng, avoid)]
        per_rank[DISTRACTOR_DOC_RANKS[1]] = [distractor_sentences[1]]
        per_rank[DECOY_DOC_RANK] = [f"{decoy} appeared briefly in the margins.",
                                    _filler_sentence(rng, avoid)]
        for rank in range(1, N_DOCS + 1):
            sentences = per_rank.get(rank) or [_filler_sentence(rng, avoid)]
            qid = f"pq-{i:02d}"
            doc_lines.append({
                "question_id": qid,
                "rank": rank,
                "text": " ".join(sentences),
            })
        questions.append(PlantedQuestion(
            qid=f"pq-{i:02d}", text=text, coarse=coarse, fine=fine, tag=tag,
            gold_surface=gold, distractor_surface=distractor,
            content_words=tuple(content),
        ))

    import json
    questions_path = root / "questions.jsonl"
    with open(questions_path, "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps({
                "id": q.qid, "text": q.text,
                "gold_answers": [q.gold_surface], "set": "custom",
            }) + "\n")

    documents_path = root / "documents.jsonl"
    with open(documents_path, "w", encoding="utf-8") as fh:
        for record in doc_lines:
            fh.write(json.dumps(record) + "\n")

    qrels_path = root / "qrels.jsonl"
    with open(qrels_path, "w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps({
                "question_id": q.qid, "gold_answers": [q.gold_surface],
            }) + "\n")

    gazetteer_path = root / "gazetteer.tsv"
    with open(gazetteer_path, "w", encoding="utf-8") as fh:
        fh.write("# synthetic lexicon\n")
        for q in questions:
            fh.write(f"{q.gold_surface}\t{q.tag}\n")
            fh.write(f"{q.distractor_surface}\t{q.tag}\n")
        for j, decoy in enumerate(_DECOY_SURFACES):
            fh.write(f"{decoy}\t{_TYPE_CYCLE[j % 4][3]}\n")

    vectors_path = root / "vectors.txt"
    vec_rng = np.random.default_rng(seed + 1)
    with open(vectors_path, "w", encoding="utf-8") as fh:
        for word in VOCAB_WORDS:
            values = vec_rng.normal(0.0, 1.0, vector_dim)
            fh.write(word + " " + " ".join(f"{v:.6f}" for v in values) + "\n")

    # Cache: every text the cache-backed provider may be asked for.
    provider = WordAverageProvider(
        WordAverageProvider.from_file(vectors_path).vectors,
        provider_id="frozen-encoder")
    texts: list[str] = []
    for record in doc_lines:
        doc = segment_sentences(Document(
            question_id=record["question_id"], original_rank=record["rank"],
            text=record["text"]))
        texts.extend(doc.sentences)
    texts.extend(preprocess_text(q.text) for q in questions)
    for extra in labeled_texts or ():
        texts.append(preprocess_text(extra))
    cache_path = root / "cache.jsonl"
    write_cache(cache_path, texts, provider)

    return PlantedFixture(
        root=root,
        questions_path=str(questions_path),
        documents_path=str(documents_path),
        gazetteer_path=str(gazetteer_path),
        vectors_path=str(vectors_path),
        cache_path=str(cache_path),
        qrels_path=str(qrels_path),
        questions=tuple(questions),
        n_docs=N_DOCS,
    )


def base_config_dict(fixture: PlantedFixture, model_path: str,
                     labeled_path: str) -> dict:
    """Default-configuration dict pointing at the fixture's files."""
    return {
        "classifier": "svm",
        "ner_backend": "gazetteer",
        "embedding_provider": "word-avg",
        "aggregation": "max",
        "combine": "multiplicative",
        "questions_path": fixture.questions_path,
        "documents_path": fixture.documents_path,
        "model_path": model_path,
        "labeled_path": labeled_path,
        "vectors_path": fixture.vectors_path,
        "cache_path": fixture.cache_path,
        "gazetteer_path": fixture.gazetteer_path,
    }


# ---------------------------------------------------------------------------
# Writers of the annotation-file and embedding-cache formats
# ---------------------------------------------------------------------------

def write_annotations(path: str | Path, docset, mentions) -> None:
    """Write mentions in the annotation-file format (inverse of ingestion)."""
    from entityqa.corpus import write_jsonl

    by_doc: dict[str, list] = {}
    for m in mentions:
        by_doc.setdefault(m.doc_id, []).append(m)
    write_jsonl(path, ({
        "question_id": doc.question_id,
        "doc_rank": doc.original_rank,
        "entities": [{
            "surface": m.surface, "tag": m.tag, "sent_idx": m.sentence_index,
            "start": m.start, "end": m.end,
        } for m in by_doc.get(doc.doc_id, [])],
    } for doc in docset.documents))


def write_cache(path: str | Path, texts, provider) -> int:
    """Embed texts with `provider` and persist them in cache format."""
    from entityqa.corpus import write_jsonl
    from entityqa.scoring import text_sha256

    records: dict[str, dict] = {}
    for text in texts:
        digest = text_sha256(text)
        if digest not in records:
            records[digest] = {
                "sha256": digest,
                "text": text,
                "vector": [float(x) for x in provider.embed(text)],
                "provider_id": provider.provider_id,
            }
    write_jsonl(path, records.values())
    return len(records)


# ---------------------------------------------------------------------------
# Random mention corpora for df cross-checks
# ---------------------------------------------------------------------------

def random_mention_corpus(rng: random.Random, n_docs: int = 10):
    """A random gazetteer corpus with known entity placements.

    Returns (docset-ready document texts, lexicon, truth) where truth is a
    list of (surface, tag, doc_id) triples, one per planted occurrence.
    """
    tags = ("PERSON", "GPE", "ORG", "DATE", "PRODUCT")
    n_entities = rng.randint(4, 12)
    surfaces = []
    lexicon = {}
    for e in range(n_entities):
        surface = f"Ent{e}ax Blo{e}rn"
        surfaces.append(surface)
        lexicon[surface] = rng.choice(tags)
    truth: list[tuple[str, str, str]] = []
    texts: list[str] = []
    for d in range(1, n_docs + 1):
        doc_id = f"q#{d}"
        sentences = []
        for _s in range(rng.randint(1, 4)):
            words = rng.sample(VOCAB_WORDS, 3)
            sentence = f"The {words[0]} near the {words[1]} held a {words[2]}"
            for surface in surfaces:
                if rng.random() < 0.25:
                    sentence += f" beside {surface}"
                    truth.append((surface, lexicon[surface], doc_id))
            sentences.append(sentence + ".")
        texts.append(" ".join(sentences))
    return texts, lexicon, truth


# ---------------------------------------------------------------------------
# Random answer cases for the end-to-end reference answer
# ---------------------------------------------------------------------------

# The surfaces of one gazetteer key each: case and accent variants, curly
# and straight apostrophes, underscores and digits. Several entries share
# their first tokens ("new", "new york", "new york city"), and one ends
# where another starts ("york city hall").
ANSWER_ENTITIES = (
    ("New", "NEW"), ("New York", "new york", "NEW YORK"), ("New York City",),
    ("New York Times", "new york times"), ("York City Hall",),
    ("Zoë Café", "Zoe Cafe", "zoe café"), ("Zoë", "ZOE"),
    ("O'Neil", "O’Neil", "o'neil"), ("x_y", "X_Y"), ("3rd Street", "3RD street"),
    ("r2d2",), ("alpha beta", "Alpha Beta"), ("alpha beta gamma",), ("beta gamma",),
    ("Dr Who", "dr who"), ("ñandú", "Nandu"), ("straße",), ("İstanbul",), ("1990s",),
)
ANSWER_TAGS = ("PERSON", "GPE", "ORG", "DATE", "PRODUCT")
# Other words of the same shapes, and contractions that question
# preprocessing expands.
ANSWER_WORDS = ("the", "met", "left", "near", "of", "de", "city", "times", "gamma",
                "café", "it’s", "don't", "isn’t", "_x_", "beta__", "42", "7th",
                "r2", "Über", "naïve")
# Words written before a terminator: listed abbreviations ("dr", "mr", "st", "e.g",
# "u.s", "jan"), in any case, and words that are not.
ANSWER_ABBREVIATIONS = ("Dr", "DR", "Mr", "st", "e.g", "U.S", "Jan", "Zed", "Alpha", "x_y")
ANSWER_TERMINATORS = (".", ".", "!", "?", "...", ".!")
# Sentence starts that let a boundary stand before them.
ANSWER_STARTS = ("Who", "New", "Zoë", "O'Neil", "3rd", "42", '"Alpha', "(beta", "'x",
                 "İstanbul", "Dr")


@dataclass(frozen=True)
class AnswerCase:
    question: str
    documents: tuple[str, ...]  # texts, in rank order from rank 1
    lexicon: dict[str, str]  # surface -> tag; the surfaces of a key share a tag
    vectors: dict[str, np.ndarray]  # lower-cased word -> row, some words left out
    accepted: frozenset[str] | None  # the answer type's tags; None: a non-entity type
    config: dict  # PipelineConfig keys of pooling, aggregation and ranking


_ANSWER_TOKEN = re.compile(r"\w+(?:'\w+)?")


def _answer_sentence(rng: random.Random) -> str:
    words = [rng.choice(ANSWER_STARTS)]
    for _ in range(rng.randint(1, 9)):
        roll = rng.random()
        if roll < 0.35:
            words.append(rng.choice(rng.choice(ANSWER_ENTITIES)))
        elif roll < 0.5:
            # An abbreviation, or a word that is not one, before a
            # terminator and a word that could start a sentence.
            words.append(rng.choice(ANSWER_ABBREVIATIONS) + rng.choice(ANSWER_TERMINATORS))
            words.append(rng.choice(ANSWER_STARTS))
        else:
            words.append(rng.choice(ANSWER_WORDS))
    return " ".join(words) + rng.choice(ANSWER_TERMINATORS)


def random_answer_case(rng: random.Random) -> AnswerCase:
    """A question, its documents, a gazetteer, word vectors, the answer
    type's tags and a pipeline config, all drawn from `rng`."""
    lexicon = {}
    for forms in rng.sample(ANSWER_ENTITIES, rng.randint(3, len(ANSWER_ENTITIES))):
        tag = rng.choice(ANSWER_TAGS)
        for surface in rng.sample(forms, rng.randint(1, len(forms))):
            lexicon[surface] = tag
    documents = tuple(
        rng.choice((" ", "  ", "\n")).join(_answer_sentence(rng)
                                           for _ in range(rng.randint(1, 4)))
        for _ in range(rng.randint(1, 8)))
    question = " ".join(["Who’s", *(rng.choice(ANSWER_WORDS + ("didn't", "new", "york"))
                                        for _ in range(rng.randint(1, 6)))]) + "?"
    words = {token.lower() for text in (*documents, question, "who is did not it do")
             for token in _ANSWER_TOKEN.findall(text.replace("’", "'"))}
    dim = rng.randint(2, 4)
    levels = (-1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0)
    vectors = {word: np.array([rng.choice(levels) if rng.random() < 0.8
                               else rng.uniform(-1, 1) for _ in range(dim)])
               for word in sorted(words) if rng.random() < 0.8}
    vectors.setdefault("the", np.ones(dim))
    accepted = (frozenset(rng.sample(ANSWER_TAGS, rng.randint(1, 3)))
                if rng.random() < 0.9 else None)
    config = {
        "aggregation": rng.choice(("max", "avg", "avg_max")),
        "combine": rng.choice(("multiplicative", "additive")),
        "alpha": rng.choice((0.1, 0.3, 0.7, 1.0)),
        "beta": rng.choice((0.1, 0.5, 1.0)),
        "avgmax_denominator": rng.choice(("containing_docs", "all_docs")),
        "score_digits": rng.choice((1, 2, 3, 9, 15)),
        "candidate_cap": rng.choice((1, 2, 3, 5, 100)),
        "df_any_tag": rng.random() < 0.5,
        "group_surface_variants": rng.random() < 0.5,
    }
    return AnswerCase(question, documents, lexicon, vectors, accepted, config)
