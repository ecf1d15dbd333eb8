"""Seeded input generator for the entityqa benchmark.

Writes every file a workload hands to the program (questions, ranked
documents, qrels, gazetteer, word vectors, embedding cache, annotations,
run files, a pipeline config) together with the planted truth that the
benchmark's checks compare against. The same seed always writes the same
bytes.

Planted corpus. Each question gets `docs` ranked documents of `filler`
filler sentences. Its gold entity is placed in 3 documents (twice in one
of them), once inside a sentence that reuses the question's content words
verbatim (cosine 1 under word averaging); a same-tag distractor sits in 2
documents, every extra same-tag candidate and other-tag decoy in 1 or 2.
Under the default config (max aggregation, multiplicative combine) the
gold therefore scores 1 * 3/10 and every other candidate at most 2/10,
so the gold is exactly the top group. A share of the questions asks a
non-entity type (reason, definition), which the pipeline answers with an
empty run.

The only code taken from the program is its SVM trainer, used once per
checkout to fit the question model on the generated labelled questions,
as `entityqa train-qc` does.

    python3 bench/generate.py --workload run-gazetteer --seed 1 \
        --out bench/.work/run-gazetteer/seed-1 --common bench/.work/common

Paths are taken relative to the checkout root and written so into the
pipeline config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

VERBS = ("founded", "built", "designed", "restored", "charted", "painted",
         "composed", "directed", "funded", "expanded", "guarded", "mapped")
ADJS = ("ancient", "famous", "northern", "coastal", "hidden", "royal",
        "modern", "sacred", "ruined", "grand", "eastern", "silent")
NOUNS = ("observatory", "bridge", "cathedral", "museum", "archive", "garden",
         "harbor", "library", "monument", "academy", "workshop", "theater",
         "fortress", "lighthouse", "market", "palace", "arena", "canal",
         "mill", "tower", "quarry", "chapel")
PLACES = ("Arlenmoor", "Brackwater", "Corvale", "Dunmere", "Elstow",
          "Farrowdeep", "Greyhollow", "Hesketh", "Islemark", "Jorvund",
          "Lowenbrook", "Marrowgate")
PERSONS = ("painter", "architect", "composer", "explorer", "scholar",
           "merchant", "general", "poet", "engineer", "captain")
THINGS = ("telescope", "tapestry", "engine", "vessel", "crown", "manuscript",
          "statue", "organ", "clock", "mosaic")
ABBRS = ("ARL", "BRKW", "CVL", "DNM", "ELS", "FRD")

# One in-vocabulary cue word per planted question class, present in all
# its labelled questions, so the nearest-centroid classifier can tell the
# planted classes apart although they share the same content slots.
CUES = ("person", "region", "history", "product", "reason", "meaning")

# The in-vocabulary words of the synthetic embedding space. Function
# words, wh-words and entity names stay out of it, so a question and its
# planted sentence average exactly the same vectors.
VOCAB = tuple(sorted({w.lower() for w in
                      VERBS + ADJS + NOUNS + PLACES + PERSONS + THINGS + CUES}))

# One or two templates per fine class of the 50-class taxonomy.
LABEL_TEMPLATES: dict[tuple[str, str], tuple[str, ...]] = {
    ("ABBREVIATION", "abb"): ("What is the abbreviation for the {noun} office?",),
    ("ABBREVIATION", "exp"): ("What does {abbr} stand for?",),
    ("DESCRIPTION", "definition"): ("What is the meaning of {noun}?",
                                    "What does the word {noun} mean?"),
    ("DESCRIPTION", "description"): ("What is the {noun} of {place} known for?",),
    ("DESCRIPTION", "manner"): ("How do {person}s repair a {noun}?",),
    ("DESCRIPTION", "reason"): ("Why did the {person} {verb} the {noun} and for what reason?",),
    ("ENTITY", "animal"): ("What animal lives near the {adj} {noun}?",),
    ("ENTITY", "body"): ("What body of water surrounds {place}?",),
    ("ENTITY", "color"): ("What color is the {adj} {noun}?",),
    ("ENTITY", "creative"): ("What novel did the {person} of {place} write?",),
    ("ENTITY", "currency"): ("What currency do merchants use in {place}?",),
    ("ENTITY", "disease"): ("What disease struck {place} that winter?",),
    ("ENTITY", "event"): ("What event opened the {adj} {noun}?",),
    ("ENTITY", "food"): ("What food is sold at the {noun} fair?",),
    ("ENTITY", "instrument"): ("What instrument did the {person} play?",),
    ("ENTITY", "language"): ("What language do people speak in {place}?",),
    ("ENTITY", "letter"): ("What letter is carved above the {noun} door?",),
    ("ENTITY", "other"): ("What relic lies inside the {adj} {noun}?",),
    ("ENTITY", "plant"): ("What plant climbs the {noun} walls?",),
    ("ENTITY", "product"): ("What product did the {adj} {noun} in {place} {verb}?",),
    ("ENTITY", "religion"): ("What religion spread across {place}?",),
    ("ENTITY", "sport"): ("What sport do crowds watch at the {noun}?",),
    ("ENTITY", "substance"): ("What substance covers the {adj} {noun}?",),
    ("ENTITY", "symbol"): ("What symbol decorates the flag of {place}?",),
    ("ENTITY", "technique"): ("What technique saved the {noun}?",),
    ("ENTITY", "term"): ("What term names the {adj} {noun} style?",),
    ("ENTITY", "vehicle"): ("What vehicle brought the {person} to {place}?",),
    ("ENTITY", "word"): ("What word did the {person} invent for the {noun}?",),
    ("HUMAN", "description"): ("Who was the celebrated {person} of {place}?",),
    ("HUMAN", "group"): ("Which organization {verb} the {adj} {noun}?",),
    ("HUMAN", "individual"): ("Which person {verb} the {adj} {noun} in {place}?",
                              "Which {person} {verb} the {noun} of {place}?"),
    ("HUMAN", "title"): ("What title did the {person} of {place} hold?",),
    ("LOCATION", "city"): ("What city hosts the {adj} {noun}?",),
    ("LOCATION", "country"): ("What country lies past the {adj} {noun}?",),
    ("LOCATION", "mountain"): ("What mountain towers over {place}?",),
    ("LOCATION", "other"): ("Where in the region was the {adj} {noun} of {place} {verb}?",),
    ("LOCATION", "state"): ("What state contains the {adj} {noun}?",),
    ("NUMERIC", "code"): ("What is the postal code of {place}?",),
    ("NUMERIC", "count"): ("How many {noun}s stand in {place}?",),
    ("NUMERIC", "date"): ("When in history was the {adj} {noun} in {place} {verb}?",),
    ("NUMERIC", "distance"): ("How far is {place} from the {noun}?",),
    ("NUMERIC", "money"): ("How much did the {adj} {noun} cost?",),
    ("NUMERIC", "order"): ("In what order were the {noun}s {verb}?",),
    ("NUMERIC", "other"): ("What number is painted on the {noun}?",),
    ("NUMERIC", "percent"): ("What percentage of {place} visited the {noun}?",),
    ("NUMERIC", "period"): ("How long did the {noun} fair in {place} last?",),
    ("NUMERIC", "size"): ("How large is the {adj} {noun}?",),
    ("NUMERIC", "speed"): ("How fast can the {thing} move?",),
    ("NUMERIC", "temp"): ("How hot does the {noun} furnace burn?",),
    ("NUMERIC", "weight"): ("How heavy is the {thing}?",),
}

# Answerable shapes: (coarse, fine, entity tag, planted sentence).
ENTITY_SHAPES = (
    ("HUMAN", "individual", "PERSON",
     "The {adj} {noun} in {place} was {verb} by the person {entity}."),
    ("LOCATION", "other", "GPE",
     "The {adj} {noun} of {place} was {verb} at {entity} in the region."),
    ("NUMERIC", "date", "DATE",
     "The {adj} {noun} in {place} was {verb} during the {entity} in history."),
    ("ENTITY", "product", "PRODUCT",
     "The {adj} {noun} in {place} {verb} the {entity} product."),
)
NON_ENTITY_SHAPES = (("DESCRIPTION", "reason"), ("DESCRIPTION", "definition"))
DECOY_TAGS = {"PERSON": "DATE", "GPE": "PERSON", "DATE": "PERSON",
              "PRODUCT": "PERSON"}
ONTONOTES_TAGS = ("PERSON", "NORP", "FAC", "ORG", "GPE", "LOC", "PRODUCT",
                  "EVENT", "WORK_OF_ART", "LAW", "LANGUAGE", "DATE", "TIME",
                  "PERCENT", "MONEY", "QUANTITY", "ORDINAL", "CARDINAL")

GOLD_DOCS = 3
DISTRACTOR_DOCS = 2
VECTOR_DIM = 32
LABELED_QUESTIONS = 5500
LABELED_SEED = 11
PROVIDER_ID = "frozen-encoder"
_TOKEN = re.compile(r"\w+(?:'\w+)?")


@dataclass(frozen=True)
class CorpusSpec:
    questions: int
    docs: int            # ranked documents per question
    filler: int          # filler sentences per document
    lexicon: int         # gazetteer entries that no document uses
    longest: int         # tokens in the longest gazetteer entry
    extras: int          # extra same-tag candidates per question
    non_entity: float    # share of questions of an unmapped type
    labeled: int = LABELED_QUESTIONS  # labelled questions the centroids learn from


@dataclass(frozen=True)
class TiedSpec:
    questions: int
    tied_runs: int       # run files with large tie groups
    max_group: int       # largest tie group
    golds: int           # gold answers per question


SPECS = {
    "run-gazetteer": CorpusSpec(questions=64, docs=10, filler=24,
                                lexicon=20000, longest=6, extras=12,
                                non_entity=0.2),
    "run-annotated-cache": CorpusSpec(questions=320, docs=10, filler=12,
                                      lexicon=0, longest=2, extras=12,
                                      non_entity=0.2),
    "ablate-grid": CorpusSpec(questions=1, docs=10, filler=2, lexicon=2000,
                              longest=3, extras=110, non_entity=0.0,
                              labeled=1100),
    "evaluate-tied": TiedSpec(questions=300, tied_runs=3, max_group=24,
                              golds=3),
}


# ---------------------------------------------------------------------------
# Names and text
# ---------------------------------------------------------------------------

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _reserved_words() -> set[str]:
    words = set(VOCAB) | {a.lower() for a in ABBRS}
    texts = [t for ts in LABEL_TEMPLATES.values() for t in ts]
    texts += [shape[3] for shape in ENTITY_SHAPES] + list(_SENTENCES.values())
    for text in texts:
        words.update(m.group(0).lower() for m in _TOKEN.finditer(text))
    return words


class NameMaker:
    """Distinct made-up name tokens (two consonant-vowel-consonant
    syllables) that never collide with a word the corpus uses otherwise,
    so a gazetteer entry can only match where a name was planted."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = _reserved_words()

    def token(self) -> str:
        while True:
            word = "".join(self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS)
                           + self.rng.choice(_CONSONANTS) for _ in range(2))
            if word not in self.used:
                self.used.add(word)
                return word.capitalize()

    def surface(self, n_tokens: int = 2) -> str:
        return " ".join(self.token() for _ in range(n_tokens))


_SENTENCES = {
    "filler": "Travelers described the {a} and the {b} at length.",
    "aside": "Old records also mention {entity} in passing.",
    "repeat": "Later accounts repeat the name {entity} as well.",
    "distractor": "Several traders from {place} praised {entity} at length.",
    "extra": "Merchants near the {noun} spoke of {entity} often.",
    "decoy": "{entity} appeared briefly in the margins.",
}


def canonical(surface: str) -> str:
    """Lower-cased form; names are plain ASCII, so this is the whole
    canonicalisation the program applies to them."""
    return " ".join(surface.split()).lower()


def _fill(template: str, rng: random.Random, **fixed) -> str:
    values = dict(verb=rng.choice(VERBS), adj=rng.choice(ADJS),
                  noun=rng.choice(NOUNS), place=rng.choice(PLACES),
                  person=rng.choice(PERSONS), thing=rng.choice(THINGS),
                  abbr=rng.choice(ABBRS))
    values.update(fixed)
    return template.format(**values)


def _write_labeled(path: Path, labeled: list[tuple[str, str, str]]) -> None:
    path.write_text("".join(f"{c}:{f}\t{t}\n" for c, f, t in labeled),
                    encoding="utf-8")


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Seed-independent inputs: labelled questions and the SVM model
# ---------------------------------------------------------------------------

def labeled_questions() -> list[tuple[str, str, str]]:
    """(coarse, fine, text) triples: 20 per class, the rest weighted
    towards the classes the planted questions use."""
    rng = random.Random(LABELED_SEED)
    pairs = sorted(LABEL_TEMPLATES)
    planted = {(c, f) for c, f, _t, _s in ENTITY_SHAPES} | set(NON_ENTITY_SHAPES)
    out = [(c, f, _fill(rng.choice(LABEL_TEMPLATES[(c, f)]), rng))
           for c, f in pairs for _ in range(20)]
    weights = [6 if pair in planted else 1 for pair in pairs]
    while len(out) < LABELED_QUESTIONS:
        c, f = rng.choices(pairs, weights=weights, k=1)[0]
        out.append((c, f, _fill(rng.choice(LABEL_TEMPLATES[(c, f)]), rng)))
    return out


def write_common(common: Path) -> None:
    """Labelled questions, word vectors and the trained SVM model; these do
    not depend on the seed and are written once per checkout."""
    if (common / "done").is_file():
        return
    common.mkdir(parents=True, exist_ok=True)
    _write_labeled(common / "labeled.txt", labeled_questions())
    rng = np.random.default_rng(LABELED_SEED)
    with open(common / "vectors.txt", "w", encoding="utf-8") as fh:
        for word in VOCAB:
            values = rng.normal(0.0, 1.0, VECTOR_DIM)
            fh.write(word + " " + " ".join(f"{v:.6f}" for v in values) + "\n")

    sys.path.insert(0, str(ROOT / "src"))
    from entityqa.qtype import load_labeled_questions, train_classifier
    model = train_classifier(load_labeled_questions(common / "labeled.txt"),
                             epochs=10, learning_rate=0.5, l2=1e-4, seed=0)
    model.save(common / "question_model.npz")
    (common / "done").write_text("ok\n", encoding="utf-8")


def read_vectors(common: Path) -> dict[str, np.ndarray]:
    vectors = {}
    for line in (common / "vectors.txt").read_text(encoding="utf-8").splitlines():
        word, *values = line.split(" ")
        vectors[word] = np.array([float(v) for v in values])
    return vectors


def embed(text: str, vectors: dict[str, np.ndarray]) -> list[float]:
    """Mean of the in-vocabulary token vectors (zero when there are none),
    standing in for an external sentence encoder."""
    rows = [vectors[t] for t in (m.group(0).lower() for m in _TOKEN.finditer(text))
            if t in vectors]
    mean = np.mean(rows, axis=0) if rows else np.zeros(VECTOR_DIM)
    return [float(x) for x in mean]


def write_cache(path: Path, texts, vectors: dict[str, np.ndarray]) -> int:
    seen: set[str] = set()
    with open(path, "w", encoding="utf-8") as fh:
        for text in texts:
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if digest in seen:
                continue
            seen.add(digest)
            fh.write(json.dumps({"sha256": digest, "text": text,
                                 "vector": embed(text, vectors),
                                 "provider_id": PROVIDER_ID}) + "\n")
    return len(seen)


# ---------------------------------------------------------------------------
# Planted corpus (run-gazetteer, run-annotated-cache, ablate-grid)
# ---------------------------------------------------------------------------

def _place(rng: random.Random, docs: list[list], n_docs: int, count: int,
           sentence: str, surface: str, tag: str) -> list[int]:
    """Insert `sentence` (which names `surface`) into `count` distinct
    documents at random positions; returns their ranks."""
    ranks = sorted(rng.sample(range(1, n_docs + 1), count))
    for rank in ranks:
        sentences = docs[rank - 1]
        sentences.insert(rng.randint(0, len(sentences)), (sentence, surface, tag))
    return ranks


def generate_corpus(spec: CorpusSpec, seed: int, out: Path, common: Path,
                    with_cache: bool) -> None:
    rng = random.Random(seed)
    names = NameMaker(rng)
    questions, doc_records, annotations, truth = [], [], [], []
    sentence_texts: list[str] = []
    lexicon: dict[str, str] = {}
    # The questions themselves (mix and wording) do not depend on the seed,
    # so every seed asks the classifiers the same questions and the same
    # amount of work; the seed draws names, documents and the lexicon.
    wording = random.Random(0)
    non_entity = set(wording.sample(range(spec.questions),
                                    round(spec.non_entity * spec.questions)))
    for i in range(spec.questions):
        qid = f"q{i:04d}"
        coarse, fine, tag, planted = ENTITY_SHAPES[i % len(ENTITY_SHAPES)]
        words = dict(verb=wording.choice(VERBS), adj=wording.choice(ADJS),
                     noun=wording.choice(NOUNS), place=wording.choice(PLACES))
        answerable = i not in non_entity
        if answerable:
            text = _fill(LABEL_TEMPLATES[(coarse, fine)][0], wording, **words)
        else:
            coarse, fine = NON_ENTITY_SHAPES[i % len(NON_ENTITY_SHAPES)]
            text = _fill(LABEL_TEMPLATES[(coarse, fine)][0], wording)
        content = {w.lower() for w in words.values()} | set(CUES)
        other_places = [p for p in PLACES if p.lower() not in content]
        other_nouns = [n for n in NOUNS if n not in content]
        fillers = [w for w in VOCAB if w not in content]

        docs: list[list] = [
            [(_SENTENCES["filler"].format(a=a, b=b), None, None)
             for a, b in (rng.sample(fillers, 2) for _ in range(spec.filler))]
            for _ in range(spec.docs)
        ]
        placements: dict[str, list[int]] = {}
        gold = names.surface()
        gold_ranks = sorted(rng.sample(range(1, spec.docs + 1), GOLD_DOCS))
        # The gold is mentioned twice in its last document, so a df that
        # counted mentions instead of documents would read 4, not 3.
        gold_sentences = [planted.format(entity=gold, **words),
                          _SENTENCES["aside"].format(entity=gold),
                          _SENTENCES["aside"].format(entity=gold),
                          _SENTENCES["repeat"].format(entity=gold)]
        for rank, sentence in zip(gold_ranks + gold_ranks[-1:], gold_sentences):
            sentences = docs[rank - 1]
            sentences.insert(rng.randint(0, len(sentences)), (sentence, gold, tag))
        placements[gold] = gold_ranks
        distractor = names.surface()
        placements[distractor] = _place(
            rng, docs, spec.docs, DISTRACTOR_DOCS,
            _SENTENCES["distractor"].format(entity=distractor,
                                            place=other_places[0]),
            distractor, tag)
        entity_tags = {gold: tag, distractor: tag}
        others = [(names.surface(), tag) for _ in range(spec.extras)]
        others += [(names.surface(), DECOY_TAGS[tag])
                   for _ in range(spec.extras // 4 + 1)]
        # Scores and document counts follow the candidate's index, not the
        # seed, so every seed gives the same tie structure to rank and score.
        for j, (surface, other_tag) in enumerate(others):
            kind = "extra" if other_tag == tag else "decoy"
            sentence = _SENTENCES[kind].format(
                entity=surface, noun=other_nouns[j % len(other_nouns)])
            placements[surface] = _place(rng, docs, spec.docs, 1 + j % 2,
                                         sentence, surface, other_tag)
            entity_tags[surface] = other_tag
        lexicon.update(entity_tags)

        for rank, sentences in enumerate(docs, start=1):
            sentence_texts.extend(s for s, _e, _t in sentences)
            doc_records.append({"question_id": qid, "rank": rank,
                                "text": " ".join(s for s, _e, _t in sentences)})
            entities = []
            for idx, (sentence, surface, ent_tag) in enumerate(sentences):
                if surface is not None:
                    start = sentence.index(surface)
                    entities.append({"surface": surface, "tag": ent_tag,
                                     "sent_idx": idx, "start": start,
                                     "end": start + len(surface)})
            annotations.append({"question_id": qid, "doc_rank": rank,
                                "entities": entities})
        questions.append({"id": qid, "text": text, "gold_answers": [gold],
                          "set": "custom"})
        truth.append({"question_id": qid, "answerable": answerable,
                      "tag": tag, "gold": canonical(gold),
                      "df": {canonical(s): len(r) for s, r in placements.items()},
                      "tags": {canonical(s): t for s, t in entity_tags.items()}})

    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "questions.jsonl", questions)
    _write_jsonl(out / "documents.jsonl", doc_records)
    _write_jsonl(out / "annotations.jsonl", annotations)
    _write_jsonl(out / "qrels.jsonl", ({"question_id": q["id"],
                                        "gold_answers": q["gold_answers"]}
                                       for q in questions))
    entries = list(lexicon.items())
    lengths = [spec.longest] + [rng.randint(1, spec.longest)
                                for _ in range(spec.lexicon - 1)]
    for length in lengths[:spec.lexicon]:
        entries.append((names.surface(length), rng.choice(ONTONOTES_TAGS)))
    rng.shuffle(entries)
    with open(out / "gazetteer.tsv", "w", encoding="utf-8") as fh:
        fh.write("# synthetic lexicon: planted entities and unused entries\n")
        fh.writelines(f"{surface}\t{tag}\n" for surface, tag in entries)
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    labeled = labeled_questions()[:spec.labeled]
    _write_labeled(out / "labeled.txt", labeled)

    if with_cache:
        # Every text the cache provider is asked for: each sentence as
        # the segmenter yields it, each question and labelled question.
        texts = sentence_texts + [q["text"] for q in questions]
        texts += [t for _c, _f, t in labeled]
        write_cache(out / "cache.jsonl", texts, read_vectors(common))


# ---------------------------------------------------------------------------
# Tied run files (evaluate-tied)
# ---------------------------------------------------------------------------

def generate_tied(spec: TiedSpec, seed: int, out: Path) -> None:
    """Run files with known group sizes and gold positions. Runs `tied-*`
    have groups of 1..max_group members; run `singleton` has one member per
    group. Golds are placed in at most one group per question (or none).
    Each run's list of group layouts does not depend on the seed, so every
    seed scores the same number of members; the seed deals the layouts to
    the questions and draws names, gold placements and scores."""
    rng = random.Random(seed)
    names = NameMaker(rng)
    qids = [f"t{i:05d}" for i in range(spec.questions)]
    golds = {qid: [names.surface() for _ in range(spec.golds)] for qid in qids}
    _write_jsonl(out / "qrels.jsonl", ({"question_id": qid, "gold_answers": g}
                                       for qid, g in golds.items()))
    run_names = [f"tied-{chr(ord('a') + k)}" for k in range(spec.tied_runs)]
    truth = {}
    for k, run_name in enumerate(run_names + ["singleton"]):
        fixed = random.Random(k)
        max_group = 1 if run_name == "singleton" else spec.max_group
        layouts = [[fixed.randint(1, max_group) for _ in range(fixed.randint(1, 5))]
                   for _ in qids]
        rng.shuffle(layouts)
        records, layout = [], {}
        for qid, sizes in zip(qids, layouts):
            n_groups = len(sizes)
            relevant = [0] * n_groups
            hit = rng.randrange(n_groups + 1)  # == n_groups: no gold at all
            if hit < n_groups:
                relevant[hit] = rng.randint(1, min(spec.golds, sizes[hit]))
            chosen = iter(rng.sample(golds[qid], relevant[hit] if hit < n_groups else 0))
            groups, score = [], 1.0
            for size, rel in zip(sizes, relevant):
                members = [next(chosen) for _ in range(rel)]
                members += [names.surface() for _ in range(size - rel)]
                groups.append(sorted(canonical(m) for m in members))
            scores = []
            for _ in groups:
                score = round(score - rng.uniform(0.01, 0.1), 6)
                scores.append(score)
            records.append({"question_id": qid, "groups": groups,
                            "scores": scores, "config_id": run_name})
            layout[qid] = [sizes, relevant]
        _write_jsonl(out / f"{run_name}.jsonl", records)
        truth[run_name] = layout
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def write_config(out: Path, common: Path, **stages) -> None:
    """Pipeline config naming every input. The benchmark passes paths
    relative to the checkout root, so config ids do not depend on where
    the checkout lives."""
    config = {
        **stages,
        "questions_path": str(out / "questions.jsonl"),
        "documents_path": str(out / "documents.jsonl"),
        "model_path": str(common / "question_model.npz"),
        "labeled_path": str(out / "labeled.txt"),
        "vectors_path": str(common / "vectors.txt"),
        "gazetteer_path": str(out / "gazetteer.tsv"),
        "annotations_path": str(out / "annotations.jsonl"),
    }
    if (out / "cache.jsonl").is_file():
        config["cache_path"] = str(out / "cache.jsonl")
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n",
                                     encoding="utf-8")


CONFIGS = {
    "run-gazetteer": dict(classifier="svm", ner_backend="gazetteer",
                          embedding_provider="word-avg", aggregation="max",
                          combine="multiplicative"),
    "run-annotated-cache": dict(classifier="external-embedding",
                                ner_backend="annotations",
                                embedding_provider="cache",
                                aggregation="avg_max", combine="additive"),
    "ablate-grid": dict(classifier="svm", ner_backend="gazetteer",
                        embedding_provider="word-avg", aggregation="max",
                        combine="multiplicative"),
}


def generate(workload: str, seed: int, out: Path, common: Path) -> None:
    write_common(common)
    spec = SPECS[workload]
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(spec, TiedSpec):
        generate_tied(spec, seed, out)
        return
    generate_corpus(spec, seed, out, common,
                    with_cache=workload != "run-gazetteer")
    write_config(out, common, **CONFIGS[workload])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--common", required=True,
                        help="directory for the seed-independent inputs")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), Path(args.common))
    return 0


if __name__ == "__main__":
    sys.exit(main())
