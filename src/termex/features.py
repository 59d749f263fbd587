"""Deterministic per-token feature templates for the CRF tagger: lexical
context, character n-grams, coarse orthographic tags, and word shapes."""

from __future__ import annotations

import functools
import itertools
import unicodedata
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

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


def word_shape(text: str) -> str:
    """Orthographic shape: X/x/d/s character classes with runs collapsed."""
    if text.isascii() and text.isalpha() and (text.islower() or text.isupper() or text.istitle()):
        return "x" if text.islower() else "X" if text.isupper() else "Xx"
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


@functools.lru_cache(maxsize=256)
def _gram_slices(length: int, n_min: int, n_max: int) -> tuple[slice, ...]:
    sizes = range(n_min, min(n_max, length) + 1)
    return tuple(slice(at, at + n) for n in sizes for at in range(length - n + 1))


def raw_ngrams(text: str, n_min: int, n_max: int) -> Iterator[str]:
    """Each contiguous n-gram of the boundary-marked, lowercased token,
    shortest first, repeats included: the NG features' keys without their
    prefix."""
    marked = "<" + text.lower() + ">"
    return map(marked.__getitem__, _gram_slices(len(marked), n_min, n_max))


def _tag_token(text: str) -> CoarsePosTag:
    if text.isascii() and text.isalpha():
        if text.islower():
            return CoarsePosTag.LOWER
        return CoarsePosTag.CAP if text.istitle() else CoarsePosTag.MIXED
    if text.replace(",", "").replace(".", "").isdigit():
        return CoarsePosTag.NUM
    # No alphanumeric code point is punctuation, so only a text that does
    # not start with one needs the category scan.
    if not text[:1].isalnum() and all(unicodedata.category(ch).startswith("P") for ch in text):
        return CoarsePosTag.PUNCT
    if text[0].isupper() and (len(text) == 1 or text[1:].islower() and text[1:].isalpha()):
        return CoarsePosTag.CAP
    if text.islower() and text.isalpha():
        return CoarsePosTag.LOWER
    if text.isalnum():
        return CoarsePosTag.MIXED
    return CoarsePosTag.SYM


# Every feature string is a template prefix and a raw value: a fold (W0,
# W-1, W+1, LW, RW), a tag (P0), a shape (SH0), an n-gram (NG) or a triple
# of tags or shapes (PSEQ, SHSEQ). W-1 and W+1 take <BOS> and <EOS> past the
# sentence's ends, and the triples BOS and EOS.
TEMPLATES = W0, P0, SH0, NG, W_BEFORE, W_AFTER, PSEQ, SHSEQ, LW, RW = (
    "W0=", "P0=", "SH0=", "NG=", "W-1=", "W+1=", "PSEQ=", "SHSEQ=", "LW=", "RW="
)
BOS_WORD, EOS_WORD = "<BOS>", "<EOS>"


def token_parts(text: str, config: FeatureConfig) -> tuple:
    """Everything sentence_features derives from a token's text alone: the
    case-folded word, the coarse tag and the shape; the features the token
    fires itself (W0, P0, SH0 and its distinct NG strings, in order); and the
    W-1, W+1, LW and RW strings it fires at its neighbours."""
    word = text.casefold()
    tag, shape = _tag_token(text).value, word_shape(text)
    grams = dict.fromkeys([NG + g for g in raw_ngrams(text, config.ngram_min, config.ngram_max)])
    own = (W0 + word, P0 + tag, SH0 + shape, *grams)
    return word, tag, shape, own, W_BEFORE + word, W_AFTER + word, LW + word, RW + word


def triples(values: Sequence[str]) -> list[str]:
    """Each position's value joined to its neighbours' (BOS and EOS past the
    ends): the raw values of PSEQ over tags and SHSEQ over shapes."""
    padded = ("BOS", *values, "EOS")
    return [f"{a}_{b}_{c}" for a, b, c in zip(padded, values, padded[2:])]


def sentence_features(
    sentence: Sentence, config: FeatureConfig = DEFAULT_FEATURES
) -> list[frozenset[str]]:
    """The features fired at every token position i, in one pass:

    - W0, W-1 and W+1: the case-folded word at i, i - 1 and i + 1, with
      <BOS> and <EOS> past the ends;
    - P0 and SH0: the coarse tag and the shape of token i; PSEQ and SHSEQ:
      those of tokens i - 1, i and i + 1, with BOS and EOS past the ends;
    - NG: each n-gram of the boundary-marked, lowercased token i;
    - LW and RW: the case-folded words up to config.window positions left
      and right of i.

    The reference for crf.node_scores and pipeline.crf_dataset,
    which both keep each recurring text's share instead of rebuilding it."""
    parts = [token_parts(text, config) for text in sentence.token_texts()]
    return features_from_parts(parts, config.window)


def features_from_parts(parts: Sequence[tuple], window: int) -> list[frozenset[str]]:
    """sentence_features of the sentence whose tokens have these token_parts,
    with LW and RW reaching window positions to each side."""
    if not parts:
        return []
    _, tags, shapes, own, before, after, left, right = zip(*parts)
    neighbours = zip(
        (W_BEFORE + BOS_WORD, *before), (*after[1:], W_AFTER + EOS_WORD),
        [PSEQ + v for v in triples(tags)], [SHSEQ + v for v in triples(shapes)],
    )
    out = []
    for i, fired in enumerate(neighbours):
        context = (*left[max(0, i - window) : i], *right[i + 1 : i + 1 + window])
        out.append(frozenset((*own[i], *fired, *context)))
    return out


class FeatureIndex:
    """Dense ids for a fixed set of feature strings, numbered in sorted-string
    order, so sorted ids are ids of sorted strings; unseen features at
    inference map to nothing. Repeated strings share one id."""

    def __init__(self, strings: Iterable[str]) -> None:
        self._ids = {feature: idx for idx, feature in enumerate(sorted(set(strings)))}
        # A frozenset, because intersecting two sets walks the smaller one.
        self._known = frozenset(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, feature: str) -> bool:
        return feature in self._ids

    def lookup(self, feature: str) -> int | None:
        return self._ids.get(feature)

    def ids(self, features: frozenset[str]) -> list[int]:
        """Known ids for the fired features, in the sorted order of their
        strings; unknown ones are dropped."""
        return sorted(map(self._ids.__getitem__, self._known & features))

    def strings(self) -> list[str]:
        """Feature strings in id order."""
        return list(self._ids)

    @classmethod
    def build(
        cls, feature_sets: Iterable[frozenset[str]], min_count: int = 2
    ) -> "FeatureIndex":
        """Index the features fired in at least min_count of the sets."""
        counts = Counter(itertools.chain.from_iterable(feature_sets))
        return cls(f for f, n in counts.items() if n >= min_count)
