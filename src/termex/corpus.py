"""Corpus handling: tokenization, sentence splitting, gazetteer annotation,
dataset balancing, and train/validation/test splitting."""

from __future__ import annotations

import functools
import math
import random
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateDatasetError,
    EmptyGazetteerError,
    RatioError,
)


class TokenLabel(Enum):
    T = "T"
    O = "O"


class SentenceLabel(Enum):
    CONTAINS_TECH = "contains_tech"
    NO_TECH = "no_tech"


@dataclass(frozen=True)
class Token:
    """A token with byte offsets into the UTF-8 encoding of its source text."""

    text: str
    start: int
    end: int


@dataclass(frozen=True)
class Sentence:
    """A sentence as columns: each token's text and its byte offsets into the
    UTF-8 encoding of its source text. ``tokens`` builds the Token values on
    first use; extraction reads only the texts."""

    doc_id: str
    index: int
    texts: tuple[str, ...]
    starts: tuple[int, ...]
    ends: tuple[int, ...]

    @classmethod
    def from_tokens(cls, doc_id: str, index: int, tokens: Iterable[Token]) -> "Sentence":
        tokens = tuple(tokens)
        return cls(doc_id, index, tuple(t.text for t in tokens),
                   tuple(t.start for t in tokens), tuple(t.end for t in tokens))

    @functools.cached_property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(map(Token, self.texts, self.starts, self.ends))

    def token_texts(self) -> list[str]:
        return list(self.texts)

    def folded_texts(self) -> list[str]:
        return [text.casefold() for text in self.texts]


@dataclass(frozen=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class Gazetteer:
    """Curated technology terms as case-folded token sequences.

    ``surface_forms`` keeps the first original spelling of each entry for
    reporting; matching always goes through the folded token tuples.
    """

    entries: frozenset[tuple[str, ...]]
    surface_forms: dict[tuple[str, ...], str]
    max_len: int

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LabeledSentence:
    sentence: Sentence
    token_labels: tuple[TokenLabel, ...]
    sentence_label: SentenceLabel

    def __post_init__(self):
        if len(self.token_labels) != len(self.sentence.texts):
            raise ValueError(
                f"{len(self.token_labels)} labels for "
                f"{len(self.sentence.texts)} tokens"
            )
        has_t = TokenLabel.T in self.token_labels
        expected = SentenceLabel.CONTAINS_TECH if has_t else SentenceLabel.NO_TECH
        if self.sentence_label is not expected:
            raise ValueError("sentence_label inconsistent with token labels")

    @classmethod
    def from_token_labels(
        cls, sentence: Sentence, token_labels: Iterable[TokenLabel]
    ) -> "LabeledSentence":
        labels = tuple(token_labels)
        label = SentenceLabel.CONTAINS_TECH if TokenLabel.T in labels else SentenceLabel.NO_TECH
        return cls(sentence, labels, label)


@dataclass
class DatasetSplit:
    train: list[LabeledSentence]
    validation: list[LabeledSentence]
    test: list[LabeledSentence]
    seed: int


_ABBREVIATIONS = frozenset({"e.g.", "i.e.", "etc."})


def _is_separable(ch: str) -> bool:
    # Punctuation and symbol characters peel off token edges.
    return unicodedata.category(ch)[0] in ("P", "S")


def _is_abbreviation(chunk: str) -> bool:
    """True when a chunk ending in a period, without the characters peeled
    off its front, is on the stop list or is a single capital initial ("J.")."""
    if chunk.casefold() in _ABBREVIATIONS:
        return True
    return len(chunk) == 2 and chunk[0].isalpha() and chunk[0].isupper()


# The largest code points that UTF-8 encodes in 1, 2 and 3 bytes.
_UTF8_LIMITS = np.array([0x7F, 0x7FF, 0xFFFF], dtype=np.uint32)


def _byte_offsets(
    text: str, starts: list[int], ends: list[int]
) -> tuple[list[int], list[int]]:
    """The UTF-8 byte offsets of character offsets into text, read from one
    table of each character's encoded length built in bulk. A lone
    surrogate raises UnicodeEncodeError, as encoding it to UTF-8 does."""
    codes = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    table = np.zeros(len(codes) + 1, dtype=np.intp)
    np.cumsum(_UTF8_LIMITS.searchsorted(codes) + 1, out=table[1:])
    return table[starts].tolist(), table[ends].tolist()


def _columns(text: str) -> tuple[list[str], list[int], list[int], list[int]]:
    """Columns of token texts and UTF-8 byte offsets, and the token counts
    after which sentences end. Each whitespace chunk sheds its edge
    punctuation as one-character tokens. A terminator must be followed by
    whitespace or the end of the text, so sentences are runs of whole chunks:
    one ends after a chunk ending in .!? (but not a period after an
    abbreviation) when no chunk follows or the next starts uppercase."""
    texts: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    cuts: list[int] = []
    pending = False  # the previous chunk ends a sentence if this one is uppercase
    b = 0
    for chunk in text.split():
        # Only whitespace lies between the previous chunk and this one.
        a = text.index(chunk, b)
        b = a + len(chunk)
        if pending and chunk[0].isupper():
            cuts.append(len(texts))
        last = chunk[-1]
        # No alphanumeric code point is in a P or S category: nothing to peel,
        # and no terminator.
        if chunk[0].isalnum() and last.isalnum():
            texts.append(chunk)
            starts.append(a)
            ends.append(b)
            pending = False
            continue
        i = a
        while i < b and _is_separable(text[i]):
            i += 1
        j = b
        while j > i and _is_separable(text[j - 1]):
            j -= 1
        texts.extend(text[a:i])
        starts.extend(range(a, i))
        ends.extend(range(a + 1, i + 1))
        if i < j:
            texts.append(text[i:j])
            starts.append(i)
            ends.append(j)
        texts.extend(text[j:b])
        starts.extend(range(j, b))
        ends.extend(range(j + 1, b + 1))
        pending = last in "!?" or last == "." and not _is_abbreviation(text[i:b])
    if not text.isascii():
        starts, ends = _byte_offsets(text, starts, ends)
    return texts, starts, ends, cuts


def tokenize(text: str) -> list[Token]:
    """Split on whitespace, then peel leading/trailing punctuation into
    single-character tokens. Internal punctuation stays attached, so
    "theregister.co.uk" survives whole while "PyTorch," splits in two."""
    return list(map(Token, *_columns(text)[:3]))


def split_sentences(text: str, doc_id: str = "") -> list[Sentence]:
    """Rule-based sentence splitting at ./!/? followed by whitespace and an
    uppercase letter (or end of text), with abbreviation suppression."""
    texts, starts, ends, cuts = _columns(text)
    if not texts:
        return []
    bounds = [0, *cuts, len(texts)]
    return [
        Sentence(doc_id, idx, tuple(texts[p:q]), tuple(starts[p:q]), tuple(ends[p:q]))
        for idx, (p, q) in enumerate(zip(bounds, bounds[1:]))
    ]


def split_document(doc: Document) -> list[Sentence]:
    return split_sentences(doc.text, doc_id=doc.id)


def load_gazetteer(source: str | Iterable[str]) -> Gazetteer:
    """Parse a line-oriented term list; blank lines and '#' comments are
    skipped, entries are tokenized and case-folded, duplicates collapse."""
    lines = source.splitlines() if isinstance(source, str) else source
    surface: dict[tuple[str, ...], str] = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entry = tuple(t.text.casefold() for t in tokenize(line))
        if entry and entry not in surface:
            surface[entry] = line
    if not surface:
        raise EmptyGazetteerError("no usable gazetteer entries")
    return Gazetteer(
        entries=frozenset(surface),
        surface_forms=surface,
        max_len=max(len(e) for e in surface),
    )


def annotate(sentence: Sentence, gazetteer: Gazetteer) -> LabeledSentence:
    """Left-to-right longest-match gazetteer labeling over case-folded tokens.

    Matches never overlap: scanning resumes after each match, and at every
    position the longest entry wins (so "Google Cloud" is not split by a
    bare "Cloud" entry)."""
    folded = sentence.folded_texts()
    n = len(folded)
    labels = [TokenLabel.O] * n
    i = 0
    while i < n:
        matched = 0
        for length in range(min(gazetteer.max_len, n - i), 0, -1):
            if tuple(folded[i : i + length]) in gazetteer.entries:
                matched = length
                break
        if matched:
            for j in range(i, i + matched):
                labels[j] = TokenLabel.T
            i += matched
        else:
            i += 1
    return LabeledSentence.from_token_labels(sentence, labels)


def balance(sentences: Sequence[LabeledSentence], seed: int) -> list[LabeledSentence]:
    """Keep every minority-class sentence and an equal-sized uniform sample
    (without replacement) of the majority class; order is then shuffled.
    Deterministic under ``seed``, which must be non-negative: random.Random
    would take a negative one as its absolute value."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    positive = [s for s in sentences if s.sentence_label is SentenceLabel.CONTAINS_TECH]
    negative = [s for s in sentences if s.sentence_label is SentenceLabel.NO_TECH]
    if not positive or not negative:
        raise DegenerateDatasetError(
            f"cannot balance {len(positive)} positive vs {len(negative)} negative sentences"
        )
    minority, majority = sorted((positive, negative), key=len)
    rng = random.Random(seed)
    kept = minority + rng.sample(majority, len(minority))
    rng.shuffle(kept)
    return kept


def _part_sizes(n: int, ratios: Sequence[float]) -> list[int]:
    """Largest-remainder apportionment of n items over the ratios."""
    raw = [n * r for r in ratios]
    base = [math.floor(x) for x in raw]
    remainder = n - sum(base)
    order = sorted(range(len(ratios)), key=lambda i: (base[i] - raw[i], i))
    for i in order[:remainder]:
        base[i] += 1
    return base


def check_ratios(ratios: Sequence[float]) -> None:
    """Raise RatioError unless ratios are three positive numbers summing to 1."""
    if len(ratios) != 3 or not all(r > 0 for r in ratios):
        raise RatioError(f"ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise RatioError(f"ratios must sum to 1, got {sum(ratios)}")


def split_dataset(
    sentences: Sequence[LabeledSentence],
    ratios: tuple[float, float, float],
    seed: int,
) -> DatasetSplit:
    """Stratified train/validation/test split, deterministic under ``seed``.

    Each class is partitioned independently so the label distribution is
    preserved in every part (to within one sentence of rounding)."""
    check_ratios(ratios)
    rng = random.Random(seed)
    parts: tuple[list[LabeledSentence], ...] = ([], [], [])
    for label in (SentenceLabel.CONTAINS_TECH, SentenceLabel.NO_TECH):
        group = [s for s in sentences if s.sentence_label is label]
        rng.shuffle(group)
        sizes = _part_sizes(len(group), ratios)
        at = 0
        for part, size in zip(parts, sizes):
            part.extend(group[at : at + size])
            at += size
    for part in parts:
        rng.shuffle(part)
    return DatasetSplit(train=parts[0], validation=parts[1], test=parts[2], seed=seed)
