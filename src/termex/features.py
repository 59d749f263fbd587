"""Deterministic per-token feature templates for the CRF tagger: lexical
context, character n-grams, coarse orthographic tags, and word shapes."""

from __future__ import annotations

import functools
import itertools
import unicodedata
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .corpus import Sentence
from .errors import ConfigError


class CoarsePosTag(Enum):
    CAP = "CAP"
    LOWER = "LOWER"
    MIXED = "MIXED"
    NUM = "NUM"
    PUNCT = "PUNCT"
    SYM = "SYM"


@dataclass(frozen=True)
class FeatureConfig:
    ngram_min: int = 2
    ngram_max: int = 4
    window: int = 4  # context words on each side, current token excluded

    def validate(self) -> None:
        if self.ngram_min < 1:
            raise ConfigError(f"ngram_min must be >= 1, got {self.ngram_min}")
        if self.ngram_max < self.ngram_min:
            raise ConfigError(f"ngram_max must be >= ngram_min, got {self.ngram_max}")
        if self.window < 0:
            raise ConfigError(f"window must be non-negative, got {self.window}")


DEFAULT_FEATURES = FeatureConfig()


@dataclass(frozen=True)
class SparseFeatures:
    fired: frozenset[str]


def word_shape(text: str) -> str:
    """Orthographic shape: X/x/d/s character classes with runs collapsed."""
    out: list[str] = []
    for ch in text:
        if ch.isupper():
            cls = "X"
        elif ch.islower():
            cls = "x"
        elif ch.isdigit():
            cls = "d"
        else:
            cls = "s"
        if not out or out[-1] != cls:
            out.append(cls)
    return "".join(out)


def raw_ngrams(text: str, n_min: int, n_max: int) -> list[str]:
    """Each contiguous n-gram of the boundary-marked, lowercased token,
    repeats included: the NG features' keys without their prefix."""
    marked = "<" + text.lower() + ">"
    return [
        marked[at : at + n]
        for n in range(n_min, min(n_max, len(marked)) + 1)
        for at in range(len(marked) - n + 1)
    ]


def ngram_key(feature: str) -> str | None:
    """The raw n-gram an NG feature string names; None for other templates."""
    return feature[3:] if feature.startswith("NG=") else None


def _tag_token(text: str) -> CoarsePosTag:
    if text.replace(",", "").replace(".", "").isdigit():
        return CoarsePosTag.NUM
    if all(unicodedata.category(ch).startswith("P") for ch in text):
        return CoarsePosTag.PUNCT
    if text[0].isupper() and (len(text) == 1 or text[1:].islower() and text[1:].isalpha()):
        return CoarsePosTag.CAP
    if text.islower() and text.isalpha():
        return CoarsePosTag.LOWER
    if text.isalnum():
        return CoarsePosTag.MIXED
    return CoarsePosTag.SYM


def pos_tag(sentence: Sentence) -> list[CoarsePosTag]:
    """Coarse orthographic tag per token. A stand-in for a real POS tagger
    with the same interface, so one can be swapped in."""
    return [_tag_token(t.text) for t in sentence.tokens]


# A text enters a table on its second sighting, so one-off words never fill
# it. The table and the set of texts seen are each emptied when full.
TABLE_SIZE, SEEN_SIZE = 1024, 4096


def admit(table: dict, seen: set, key, value):
    """Store value under key in table if key was seen before, else mark key
    seen (the second-sighting rule above); returns value."""
    if key in seen:
        if len(table) >= TABLE_SIZE:
            table.clear()
        table[key] = value
    else:
        if len(seen) >= SEEN_SIZE:
            seen.clear()
        seen.add(key)
    return value


@functools.lru_cache(maxsize=8)
def _tables(ngram_min: int, ngram_max: int) -> tuple[dict[str, tuple], set[str]]:
    """The table of token parts and the seen set for these n-gram bounds."""
    return {}, set()


def word_parts(text: str) -> tuple:
    """token_parts without the n-grams: its own features are W0, P0 and SH0."""
    word = text.casefold()
    tag, shape = _tag_token(text).value, word_shape(text)
    own = (f"W0={word}", f"P0={tag}", f"SH0={shape}")
    return word, tag, shape, own, "W-1=" + word, "W+1=" + word, "LW=" + word, "RW=" + word


def token_parts(text: str, config: FeatureConfig) -> tuple:
    """Everything sentence_features derives from a token's text alone: the
    case-folded word, the coarse tag and the shape; the features the token
    fires itself (W0, P0, SH0 and its distinct NG strings, in order); and the
    W-1, W+1, LW and RW strings it fires at its neighbours."""
    word, tag, shape, own, *neighbours = word_parts(text)
    grams = dict.fromkeys(["NG=" + g for g in raw_ngrams(text, config.ngram_min, config.ngram_max)])
    return word, tag, shape, (*own, *grams), *neighbours


def neighbour_features(
    before: Sequence[str], after: Sequence[str], tags: Sequence[str], shapes: Sequence[str]
) -> list[tuple[str, str, str, str]]:
    """The W-1, W+1, PSEQ and SHSEQ strings at every position, from each
    token's W-1 and W+1 strings, tag and shape (see token_parts), with
    <BOS> and BOS before the first token, <EOS> and EOS after the last."""
    tags3, shapes3 = ("BOS", *tags, "EOS"), ("BOS", *shapes, "EOS")
    pseq = [f"PSEQ={a}_{b}_{c}" for a, b, c in zip(tags3, tags, tags3[2:])]
    shseq = [f"SHSEQ={a}_{b}_{c}" for a, b, c in zip(shapes3, shapes, shapes3[2:])]
    return list(zip(("W-1=<BOS>", *before), (*after[1:], "W+1=<EOS>"), pseq, shseq))


def window_slices(i: int, window: int) -> tuple[slice, slice]:
    """The positions whose LW and RW features fire at position i."""
    return slice(max(0, i - window), i), slice(i + 1, i + 1 + window)


def sentence_features(
    sentence: Sentence, config: FeatureConfig = DEFAULT_FEATURES
) -> list[SparseFeatures]:
    """The features fired at every token position i, in one pass:

    - W0, W-1 and W+1: the case-folded word at i, i - 1 and i + 1, with
      <BOS> and <EOS> past the ends;
    - P0 and SH0: the coarse tag and the shape of token i; PSEQ and SHSEQ:
      those of tokens i - 1, i and i + 1, with BOS and EOS past the ends;
    - NG: each n-gram of the boundary-marked, lowercased token i;
    - LW and RW: the case-folded words up to config.window positions left
      and right of i.

    A token's text-local parts are computed once per recurring text: per
    pair of n-gram bounds, a table of at most 1,024 texts keeps them, and
    admits a text on its second sighting among up to 4,096 texts seen.

    The training path, and the reference for crf.sentence_potentials."""
    texts = sentence.token_texts()
    if not texts:
        return []
    table, seen = _tables(config.ngram_min, config.ngram_max)
    _, tags, shapes, own, before, after, left, right = zip(
        *[table.get(text) or admit(table, seen, text, token_parts(text, config)) for text in texts]
    )
    out = []
    for i, neighbours in enumerate(neighbour_features(before, after, tags, shapes)):
        left_of, right_of = window_slices(i, config.window)
        fired = (*own[i], *neighbours, *left[left_of], *right[right_of])
        out.append(SparseFeatures(frozenset(fired)))
    return out


class FeatureIndex:
    """Dense ids for feature strings; frozen after building, so unseen
    features at inference map to nothing. Freezing numbers the features in
    sorted-string order, so sorted ids are ids of sorted strings."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self.frozen = False

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, feature: str) -> bool:
        return feature in self._ids

    def add(self, feature: str) -> None:
        if self.frozen:
            raise ValueError("feature index is frozen")
        self._ids.setdefault(feature, len(self._ids))

    def freeze(self) -> "FeatureIndex":
        self.frozen = True
        self._ids = {feature: idx for idx, feature in enumerate(sorted(self._ids))}
        # A frozenset, because intersecting two sets walks the smaller one.
        self._known = frozenset(self._ids)
        return self

    def lookup(self, feature: str) -> int | None:
        return self._ids.get(feature)

    def ids(self, features: SparseFeatures) -> list[int]:
        """Known ids for the fired features, in the sorted order of their
        strings; unknown ones are dropped."""
        if not self.frozen:
            raise ValueError("feature index must be frozen before lookups")
        return sorted(map(self._ids.__getitem__, self._known & features.fired))

    def strings(self) -> list[str]:
        """Feature strings in id order."""
        return list(self._ids)

    @classmethod
    def build(
        cls, feature_sets: Iterable[SparseFeatures], min_count: int = 2
    ) -> "FeatureIndex":
        """Index the features fired in at least min_count of the sets."""
        counts = Counter(itertools.chain.from_iterable(f.fired for f in feature_sets))
        return cls.from_strings([f for f, n in counts.items() if n >= min_count])

    @classmethod
    def from_strings(cls, strings: Sequence[str]) -> "FeatureIndex":
        index = cls()
        for feature in strings:
            index.add(feature)
        return index.freeze()
