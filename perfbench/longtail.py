"""Long-tail documents: long sentences of pseudo-words, half carrying one
gazetteer term, with gold labels by construction.

The synthetic news generator draws every non-term word from a few small
pools, so models trained on it see a closed vocabulary. Here almost every
token is a random pseudo-word the models have never seen, of varied length
and shape, which makes the embedding lookups and CRF features miss. The
only gold T tokens are the inserted term's; pseudo-words that fold to a
gazetteer token are redrawn, so gazetteer annotation reproduces the gold."""

from __future__ import annotations

import itertools
import random
import string

from termex.corpus import Document, Gazetteer, LabeledSentence, TokenLabel, split_document, tokenize

MIN_WORDS = 15
MAX_WORDS = 45
SENTENCES_PER_DOC = 5


def _letters(rng: random.Random, low: int, high: int, alphabet: str = string.ascii_lowercase) -> str:
    return "".join(rng.choices(alphabet, k=low + int((high - low + 1) * rng.random())))


def _lower(rng):
    return _letters(rng, 2, 10)


def _capitalised(rng):
    return _letters(rng, 1, 1, string.ascii_uppercase) + _letters(rng, 2, 9)


def _upper(rng):
    return _letters(rng, 2, 5, string.ascii_uppercase)


def _alnum(rng):
    return _letters(rng, 1, 4) + _letters(rng, 1, 3, string.digits) + _letters(rng, 0, 3)


def _number(rng):
    return _letters(rng, 1, 1, "123456789") + _letters(rng, 0, 5, string.digits)


def _hyphenated(rng):
    return _letters(rng, 2, 6) + "-" + _letters(rng, 2, 6)


# (weight, maker): mostly lowercase prose with a tail of other shapes.
SHAPES = (
    (50, _lower), (20, _capitalised), (10, _upper), (10, _alnum),
    (5, _number), (5, _hyphenated),
)


def generate(
    gazetteer: Gazetteer, n_docs: int, seed: int
) -> tuple[list[Document], list[LabeledSentence]]:
    """`n_docs` documents of SENTENCES_PER_DOC sentences and their gold."""
    rng = random.Random(seed)
    reserved = {tok for entry in gazetteer.entries for tok in entry}
    terms = [
        [t.text for t in tokenize(surface)] for surface in gazetteer.surface_forms.values()
    ]
    makers = [m for _, m in SHAPES]
    cum_weights = list(itertools.accumulate(w for w, _ in SHAPES))

    def pseudo_word(maker) -> str:
        while True:
            word = maker(rng)
            if word.casefold() not in reserved:
                return word

    docs: list[Document] = []
    gold: list[LabeledSentence] = []
    for d in range(n_docs):
        planned = []
        for _ in range(SENTENCES_PER_DOC):
            n_words = rng.randint(MIN_WORDS, MAX_WORDS)
            words = [pseudo_word(_capitalised)] + [
                pseudo_word(rng.choices(makers, cum_weights=cum_weights)[0]) for _ in range(n_words - 1)
            ]
            mask = [False] * n_words
            if rng.random() < 0.5:
                term = rng.choice(terms)
                at = rng.randint(1, n_words)
                words[at:at] = term
                mask[at:at] = [True] * len(term)
            planned.append((words + ["."], mask + [False]))
        doc = Document(
            id=f"longtail-{d:05d}",
            text=" ".join(" ".join(words[:-1]) + "." for words, _ in planned),
        )
        sentences = split_document(doc)
        if [s.token_texts() for s in sentences] != [words for words, _ in planned]:
            raise ValueError(f"document {doc.id} does not split back into its words")
        for sentence, (_, mask) in zip(sentences, planned):
            labels = [TokenLabel.T if flag else TokenLabel.O for flag in mask]
            gold.append(LabeledSentence.from_token_labels(sentence, labels))
        docs.append(doc)
    return docs, gold
