"""The features of a question string for its answer-type classifier.

Each question is tokenized, lemmatized and POS-tagged once by rules, and
each token that names an entity is tagged; the classifier sees these
layers only as features. Rule-based annotation keeps the package
self-contained and fully deterministic.
"""

from __future__ import annotations

import re

from ..corpus import preprocess_text

_TOKEN = re.compile(r"\w+(?:'\w+)?|[$%]")

_WH_POS = {
    "who": "WP", "whom": "WP", "whose": "WP$", "what": "WP", "which": "WDT",
    "when": "WRB", "where": "WRB", "why": "WRB", "how": "WRB",
}
_CLOSED_CLASS = {
    "the": "DT", "a": "DT", "an": "DT", "this": "DT", "that": "DT",
    "these": "DT", "those": "DT",
    "of": "IN", "in": "IN", "on": "IN", "at": "IN", "by": "IN", "for": "IN",
    "from": "IN", "with": "IN", "about": "IN", "between": "IN", "during": "IN",
    "to": "TO", "and": "CC", "or": "CC", "but": "CC",
    "is": "VBZ", "are": "VBP", "was": "VBD", "were": "VBD", "be": "VB",
    "been": "VBN", "being": "VBG", "am": "VBP",
    "do": "VBP", "does": "VBZ", "did": "VBD", "done": "VBN",
    "have": "VBP", "has": "VBZ", "had": "VBD",
    "can": "MD", "could": "MD", "will": "MD", "would": "MD", "shall": "MD",
    "should": "MD", "may": "MD", "might": "MD", "must": "MD",
    "i": "PRP", "you": "PRP", "he": "PRP", "she": "PRP", "it": "PRP",
    "we": "PRP", "they": "PRP", "me": "PRP", "him": "PRP", "her": "PRP",
    "them": "PRP", "us": "PRP",
    "not": "RB", "never": "RB", "there": "EX",
    "many": "JJ", "much": "JJ", "most": "JJS", "more": "JJR",
    "first": "JJ", "last": "JJ", "longest": "JJS", "largest": "JJS",
    "name": "VB", "call": "VB", "called": "VBN", "mean": "VB", "stand": "VB",
}

_MONTHS = {
    "january", "february", "march", "april", "may", "june", "july",
    "august", "september", "october", "november", "december",
}

_IRREGULAR_PAST = {
    "won": "win", "wrote": "write", "made": "make", "took": "take",
    "gave": "give", "found": "find", "said": "say", "built": "build",
    "bought": "buy", "sold": "sell", "ran": "run", "held": "hold",
    "began": "begin", "led": "lead", "met": "meet", "sent": "send",
    "spent": "spend", "brought": "bring", "thought": "think",
    "taught": "teach", "caught": "catch", "flew": "fly", "grew": "grow",
    "knew": "know", "drew": "draw", "threw": "throw", "chose": "choose",
    "spoke": "speak", "broke": "break", "wore": "wear", "drove": "drive",
    "rode": "ride", "rose": "rise", "fell": "fall", "felt": "feel",
    "kept": "keep", "left": "leave", "lost": "lose", "paid": "pay",
    "stood": "stand", "told": "tell", "came": "come", "went": "go",
    "saw": "see", "got": "get", "became": "become", "died": "die",
}

_IRREGULAR_LEMMAS = {
    "is": "be", "are": "be", "was": "be", "were": "be", "been": "be",
    "being": "be", "am": "be", "does": "do", "did": "do", "done": "do",
    "has": "have", "had": "have", "men": "man", "women": "woman",
    "children": "child", "people": "person", "feet": "foot", "mice": "mouse",
    "better": "good", "best": "good", "worse": "bad", "worst": "bad",
    **_IRREGULAR_PAST,
}


def _lemma(token: str) -> str:
    low = token.lower()
    if low in _IRREGULAR_LEMMAS:
        return _IRREGULAR_LEMMAS[low]
    if len(low) > 4 and low.endswith("ies"):
        return low[:-3] + "y"
    if len(low) > 4 and low.endswith("sses"):
        return low[:-2]
    if len(low) > 5 and low.endswith("ing") and low[-4] not in "aeiou":
        return low[:-3]
    if len(low) > 4 and low.endswith("ed") and low[-3] not in "aeiou":
        return low[:-2]
    if len(low) > 3 and low.endswith("s") and not low.endswith(("ss", "us", "is")):
        return low[:-1]
    return low


def _pos(token: str, position: int) -> str:
    low = token.lower()
    if low in _WH_POS:
        return _WH_POS[low]
    if low in _CLOSED_CLASS:
        return _CLOSED_CLASS[low]
    if low in _IRREGULAR_PAST:
        return "VBD"
    if re.fullmatch(r"\d[\d,.]*", token):
        return "CD"
    if token in "$%":
        return "SYM"
    if position > 0 and token[:1].isupper():
        return "NNP"
    if low.endswith("ly"):
        return "RB"
    if low.endswith("ing"):
        return "VBG"
    if low.endswith("ed"):
        return "VBD"
    if low.endswith("est"):
        return "JJS"
    if low.endswith("s") and not low.endswith("ss"):
        return "NNS"
    return "NN"


def _entity_tag(token: str, position: int, pos_tag: str) -> str | None:
    low = token.lower()
    if low in _MONTHS or re.fullmatch(r"(1[5-9]|20)\d\d", token):
        return "DATE"
    if token == "$" or low in {"dollar", "dollars", "cent", "cents"}:
        return "MONEY"
    if pos_tag == "CD":
        return "CARDINAL"
    if position > 0 and pos_tag == "NNP":
        return "MISC"
    return None


def question_features(text: str) -> set[tuple[str, str]]:
    """The (namespace, value) features of one question: each lemma and
    POS tag, each adjacent pair of them, and the tag of each token that
    names an entity. Heuristic; no models, no external processes."""
    tokens = _TOKEN.findall(preprocess_text(text))
    lemmas = [_lemma(t) for t in tokens]
    tags = [_pos(t, i) for i, t in enumerate(tokens)]
    entity_tags = (_entity_tag(t, i, p) for i, (t, p) in enumerate(zip(tokens, tags)))
    return {
        *(("lem", lem) for lem in lemmas),
        *(("lem2", f"{a}_{b}") for a, b in zip(lemmas, lemmas[1:])),
        *(("pos", tag) for tag in tags),
        *(("pos2", f"{a}_{b}") for a, b in zip(tags, tags[1:])),
        *(("ne", tag) for tag in entity_tags if tag is not None),
    }
