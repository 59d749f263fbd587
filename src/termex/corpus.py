"""Corpus handling: tokenization, sentence splitting, gazetteer annotation,
dataset balancing, and train/validation/test splitting."""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
import unicodedata
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
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
        has_t = any(l is TokenLabel.T for l in self.token_labels)
        expected = SentenceLabel.CONTAINS_TECH if has_t else SentenceLabel.NO_TECH
        if self.sentence_label is not expected:
            raise ValueError("sentence_label inconsistent with token labels")

    @classmethod
    def from_token_labels(
        cls, sentence: Sentence, token_labels: Iterable[TokenLabel]
    ) -> "LabeledSentence":
        labels = tuple(token_labels)
        has_t = any(l is TokenLabel.T for l in labels)
        label = SentenceLabel.CONTAINS_TECH if has_t else SentenceLabel.NO_TECH
        return cls(sentence, labels, label)


@dataclass
class DatasetSplit:
    train: list[LabeledSentence]
    validation: list[LabeledSentence]
    test: list[LabeledSentence]
    seed: int


_WORD_RE = re.compile(r"\S+")
_TERMINATOR_RE = re.compile(r"[.!?]")
_ABBREVIATIONS = frozenset({"e.g.", "i.e.", "etc."})


def _is_separable(ch: str) -> bool:
    # Punctuation and symbol characters peel off token edges.
    return unicodedata.category(ch)[0] in ("P", "S")


def _char_tokens(text: str) -> list[tuple[str, int, int]]:
    """Tokenize with character offsets; byte conversion happens later."""
    out: list[tuple[str, int, int]] = []
    for m in _WORD_RE.finditer(text):
        a, b = m.span()
        # No alphanumeric code point is in a P or S category: nothing to peel.
        if text[a].isalnum() and text[b - 1].isalnum():
            out.append((m.group(), a, b))
            continue
        i = a
        while i < b and _is_separable(text[i]):
            out.append((text[i], i, i + 1))
            i += 1
        j = b
        trail: list[tuple[str, int, int]] = []
        while j > i and _is_separable(text[j - 1]):
            j -= 1
            trail.append((text[j], j, j + 1))
        if i < j:
            out.append((text[i:j], i, j))
        out.extend(reversed(trail))
    return out


def _byte_offsets(text: str) -> list[int] | None:
    """Cumulative UTF-8 byte offset per character index; None when ASCII."""
    if text.isascii():
        return None
    offs = [0] * (len(text) + 1)
    total = 0
    for k, ch in enumerate(text):
        total += len(ch.encode("utf-8"))
        offs[k + 1] = total
    return offs


def tokenize(text: str) -> list[Token]:
    """Split on whitespace, then peel leading/trailing punctuation into
    single-character tokens. Internal punctuation stays attached, so
    "theregister.co.uk" survives whole while "PyTorch," splits in two."""
    offs = _byte_offsets(text)
    if offs is None:
        return [Token(t, a, b) for t, a, b in _char_tokens(text)]
    return [Token(t, offs[a], offs[b]) for t, a, b in _char_tokens(text)]


def _is_abbreviation(text: str, k: int) -> bool:
    """True when the chunk ending at the period text[k] is on the stop list
    or is a single capital initial ("J.")."""
    s = k
    while s > 0 and not text[s - 1].isspace():
        s -= 1
    chunk = text[s : k + 1]
    if chunk.casefold() in _ABBREVIATIONS:
        return True
    return len(chunk) == 2 and chunk[0].isalpha() and chunk[0].isupper()


def _sentence_boundaries(text: str) -> list[int]:
    """Exclusive character offsets where sentences end."""
    n = len(text)
    bounds: list[int] = []
    for m in _TERMINATOR_RE.finditer(text):
        k, ch = m.start(), m.group()
        j = k + 1
        if j < n and not text[j].isspace():
            continue  # internal dot, e.g. "3.14" mid-token never reaches here
        while j < n and text[j].isspace():
            j += 1
        if j < n and not text[j].isupper():
            continue
        if ch == "." and _is_abbreviation(text, k):
            continue
        bounds.append(k + 1)
    return bounds


def split_sentences(text: str, doc_id: str = "") -> list[Sentence]:
    """Rule-based sentence splitting at ./!/? followed by whitespace and an
    uppercase letter (or end of text), with abbreviation suppression."""
    bounds = _sentence_boundaries(text)
    offs = _byte_offsets(text)
    # A token's sentence is the number of boundaries at or before its start;
    # a sentence with no tokens forms no group.
    groups = itertools.groupby(_char_tokens(text), key=lambda tok: bisect_right(bounds, tok[1]))
    sentences = []
    for idx, (_, group) in enumerate(groups):
        texts, starts, ends = zip(*group)
        if offs is not None:
            starts, ends = tuple(map(offs.__getitem__, starts)), tuple(map(offs.__getitem__, ends))
        sentences.append(Sentence(doc_id, idx, texts, starts, ends))
    return sentences


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
    Deterministic under ``seed``."""
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
