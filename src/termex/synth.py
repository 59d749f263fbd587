"""Synthetic news-style corpus generator with gold labels by construction.

Sentences come from small templates that embed gazetteer terms; every other
word is drawn from pools disjoint from the gazetteer, so re-annotating the
generated text reproduces the gold labels exactly."""

from __future__ import annotations

import random

from .config import SynthConfig, check
from .corpus import (
    Document,
    Gazetteer,
    LabeledSentence,
    TokenLabel,
    split_document,
    tokenize,
)
from .errors import ConfigError

SUBJECTS = [
    "Researchers", "Developers", "Engineers", "Analysts", "Teams", "Students",
    "Vendors", "Startups", "Companies", "Reporters", "Scientists", "Consultants",
    "Operators", "Designers", "Architects", "Regulators", "Customers", "Partners",
    "Investors", "Managers",
]
VERBS = [
    "use", "adopt", "deploy", "evaluate", "test", "prefer", "recommend",
    "install", "benchmark", "review", "discuss", "examine", "audit", "monitor",
    "document", "debug", "extend", "maintain", "ship", "trial",
]
NOUNS = [
    "report", "meeting", "budget", "schedule", "garden", "weather", "hallway",
    "contract", "invoice", "manual", "roadmap", "survey", "workshop", "seminar",
    "memo", "policy", "handbook", "cafeteria", "elevator", "newsletter",
    "agenda", "ledger", "charter", "brochure",
]
ADVERBS = [
    "today", "daily", "widely", "recently", "quickly", "internally", "globally",
    "carefully", "regularly", "often", "rarely", "successfully", "reliably",
    "heavily", "routinely", "publicly", "quietly", "early", "repeatedly",
    "extensively",
]
# The slots after a sentence's subject: an upper-case slot names a word pool
# (a TERM is a gazetteer term, the only T tokens), any other is template glue.
POSITIVE = (
    ("VERB", "TERM", "ADVERB"),
    ("VERB", "TERM"),
    ("compared", "TERM", "with", "TERM", "ADVERB"),
    ("VERB", "TERM", "for", "the", "NOUN"),
)
DISTRACTOR = (
    ("VERB", "the", "NOUN"),
    ("VERB", "the", "NOUN", "ADVERB"),
    ("VERB", "the", "NOUN", "and", "the", "NOUN"),
)
# Generation refuses gazetteers that collide with the glue.
STRUCTURAL = list(dict.fromkeys(s for t in POSITIVE + DISTRACTOR for s in t if s.islower()))


def _detokenize(words: list[str]) -> str:
    """Join with spaces, attaching the terminal period to the last word."""
    out = " ".join(words[:-1]) if words[-1] == "." else " ".join(words)
    return out + "." if words[-1] == "." else out


def _filter_pool(pool: list[str], reserved: set[str], name: str) -> list[str]:
    kept = [w for w in pool if w.casefold() not in reserved]
    if not kept:
        raise ConfigError(f"gazetteer exhausts the {name} word pool")
    return kept


def generate_corpus(
    gazetteer: Gazetteer, config: SynthConfig
) -> tuple[list[Document], list[LabeledSentence]]:
    """Deterministic synthetic documents plus their gold-labeled sentences.

    Raises ConfigError for gazetteers the templates cannot host safely
    (e.g. entries colliding with template glue, or terms whose spelling
    does not survive tokenization and sentence splitting)."""
    check(config)
    reserved = {tok for entry in gazetteer.entries for tok in entry}
    for word in STRUCTURAL:
        if word in reserved:
            raise ConfigError(f"gazetteer entry token {word!r} collides with templates")
    pools = {
        "SUBJECT": _filter_pool(SUBJECTS, reserved, "subject"),
        "VERB": _filter_pool(VERBS, reserved, "verb"),
        "NOUN": _filter_pool(NOUNS, reserved, "noun"),
        "ADVERB": _filter_pool(ADVERBS, reserved, "adverb"),
        "TERM": [[t.text for t in tokenize(s)] for s in gazetteer.surface_forms.values()],
    }

    rng = random.Random(config.seed)
    planned = [
        _sentence(rng, POSITIVE if rng.random() < config.positive_rate else DISTRACTOR, pools)
        for _ in range(config.n_sentences)
    ]

    docs: list[Document] = []
    gold: list[LabeledSentence] = []
    for at in range(0, len(planned), config.sentences_per_doc):
        chunk = planned[at : at + config.sentences_per_doc]
        doc_id = f"synth-{at // config.sentences_per_doc:05d}"
        text = " ".join(_detokenize(words) for words, _ in chunk)
        doc = Document(id=doc_id, text=text)
        sentences = split_document(doc)
        if len(sentences) != len(chunk):
            raise ConfigError(
                f"gazetteer produced text that does not split back into "
                f"{len(chunk)} sentences (doc {doc_id})"
            )
        for sentence, (words, mask) in zip(sentences, chunk):
            if sentence.token_texts() != words:
                raise ConfigError(
                    f"gazetteer term does not survive tokenization in doc {doc_id}"
                )
            labels = [TokenLabel.T if flag else TokenLabel.O for flag in mask]
            gold.append(LabeledSentence.from_token_labels(sentence, labels))
        docs.append(doc)
    return docs, gold


def _sentence(rng: random.Random, templates, pools: dict) -> tuple[list[str], list[bool]]:
    """A sentence and its term mask: a template drawn at random, the subject,
    then each slot in order, drawn from its pool or taken as written."""
    template = templates[rng.randrange(len(templates))]
    words, mask = [rng.choice(pools["SUBJECT"])], [False]
    for slot in template:
        if slot == "TERM":
            term = rng.choice(pools["TERM"])
            words += term
            mask += [True] * len(term)
        else:
            words.append(rng.choice(pools[slot]) if slot in pools else slot)
            mask.append(False)
    return words + ["."], mask + [False]
