"""Deterministic per-token feature templates for the CRF tagger: lexical
context, character n-grams, coarse orthographic tags, and word shapes."""

from __future__ import annotations

import functools
import itertools
import unicodedata
from collections import Counter
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from .config import FeatureConfig
from .corpus import Sentence


class CoarsePosTag(Enum):
    CAP = "CAP"
    LOWER = "LOWER"
    MIXED = "MIXED"
    NUM = "NUM"
    PUNCT = "PUNCT"
    SYM = "SYM"


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


# Every feature string is a template prefix and a raw value read at token
# position i: the case-folded word at i (W0), i - 1 (W-1) and i + 1 (W+1);
# the coarse tag (P0) and shape (SH0) of token i, and the triples of those at
# i - 1, i and i + 1 (PSEQ, SHSEQ); each n-gram of the boundary-marked,
# lowercased token i (NG); and the folds up to window positions left (LW) and
# right (RW) of i. Past the ends W-1 and W+1 read <BOS> and <EOS>, and the
# triples BOS and EOS.
TEMPLATES = W0, P0, SH0, NG, W_BEFORE, W_AFTER, PSEQ, SHSEQ, LW, RW = (
    "W0=", "P0=", "SH0=", "NG=", "W-1=", "W+1=", "PSEQ=", "SHSEQ=", "LW=", "RW="
)
BOS_WORD, EOS_WORD = "<BOS>", "<EOS>"


class _Strings(dict):
    """One template's lookup over raw keys: it knows every value, and maps it
    to its feature string, built once."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix

    def __missing__(self, value) -> str:
        self[value] = string = self.prefix + (value if isinstance(value, str) else "_".join(value))
        return string

    def __contains__(self, value) -> bool:
        return True

    get = dict.__getitem__


def text_share(text: str, config: FeatureConfig, lookups: Mapping[str, Mapping]) -> tuple:
    """What a token's text alone gives walk: its fold, tag and shape; the
    known items of the features it fires itself (W0, P0, SH0, then each
    known n-gram once, shortest first, first occurrence first); and the W-1,
    W+1, LW and RW items it fires at its neighbours (None if unknown)."""
    word, marked = text.casefold(), "<" + text.lower() + ">"
    tag, shape = _tag_token(text).value, word_shape(text)
    grams = lookups[NG]
    slices = _gram_slices(len(marked), config.ngram_min, config.ngram_max)
    hits = dict.fromkeys(filter(grams.__contains__, map(marked.__getitem__, slices)))
    own = (*filter(None, (lookups[W0].get(word), lookups[P0].get(tag), lookups[SH0].get(shape))),
           *map(grams.__getitem__, hits))
    return (word, tag, shape, own, lookups[W_BEFORE].get(word), lookups[W_AFTER].get(word),
            lookups[LW].get(word), lookups[RW].get(word))


def walk(
    shares: Sequence[tuple], lookups: Mapping[str, Mapping], window: int
) -> tuple[Iterator, list]:
    """The one walk of the templates over a sentence of these text_shares.
    lookups maps each template prefix to a mapping from raw values (a triple
    as its tuple of parts) to items that are never false: feature strings,
    or a model's weight pairs. Returns (firsts, spans): firsts yields each
    position's own items and its W-1, W+1, PSEQ and SHSEQ items (None if
    unknown); a span (item, start, stop) fires a known LW item, or after all
    of those an RW one, at positions start to stop - 1. So a position adds,
    in the documented order of training and decode, its own items, its known
    neighbours, then LW for each distinct fold of the window to its left and
    RW for each of the one to its right, first occurrence first."""
    words, tags, shapes, own, before, after, lefts, rights = zip(*shares)
    fired = zip(
        (lookups[W_BEFORE].get(BOS_WORD), *before[:-1]),
        (*after[1:], lookups[W_AFTER].get(EOS_WORD)),
        map(lookups[PSEQ].get, zip(("BOS", *tags), tags, (*tags[1:], "EOS"))),
        map(lookups[SHSEQ].get, zip(("BOS", *shapes), shapes, (*shapes[1:], "EOS"))),
    )
    # The fold at k is the first of its kind in a window that starts after
    # the last earlier position p with the same fold: its LW fires past
    # p + window, and its RW from p on. Decode runs this loop for every
    # sentence, so it clamps by comparisons, which cost less than min and max.
    n, last, spans, right_spans = len(words), {}, [], []
    for k, (word, left, right) in enumerate(zip(words, lefts, rights)):
        p = last.get(word, -1)
        last[word] = k
        if left:
            stop = k + 1 + window
            start = k + 1 if p < 0 or p + window <= k else p + window + 1
            spans.append((left, start, stop if stop < n else n))
        if right:
            start = k - window if k - window > p else p
            right_spans.append((right, start if start > 0 else 0, k))
    return zip(own, fired), spans + right_spans


def feature_lists(
    sentences: Iterable[Sequence[str]], config: FeatureConfig
) -> Iterator[list[list[str]]]:
    """Each sentence of token texts as each position's feature strings, in
    walk's documented order. One call builds each distinct text's share and
    each string once, so every position that fires a string shares it."""
    lookups = {prefix: _Strings(prefix) for prefix in TEMPLATES}
    shares: dict[str, tuple] = {}
    for texts in sentences:
        row = [shares.get(text) or shares.setdefault(text, text_share(text, config, lookups))
               for text in texts]
        firsts, spans = walk(row, lookups, config.window) if row else ((), ())
        out = [[*mine, *filter(None, neighbours)] for mine, neighbours in firsts]
        for item, start, stop in spans:
            for i in range(start, stop):
                out[i].append(item)
        yield out


def sentence_features(
    sentence: Sentence, config: FeatureConfig = DEFAULT_FEATURES
) -> list[frozenset[str]]:
    """The features (see TEMPLATES) fired at every token position: the pure
    string reference, a fresh feature_lists kept as sets, so it sets no
    order of additions. Training and decode add in walk's order, and
    crf.potentials adds a set in sorted-string order."""
    return list(map(frozenset, next(feature_lists([sentence.token_texts()], config))))


class FeatureIndex:
    """Dense ids for a fixed set of feature strings, numbered in sorted-string
    order, so sorted ids are ids of sorted strings; unseen features at
    inference map to nothing. Repeated strings share one id."""

    def __init__(self, strings: Iterable[str]) -> None:
        self._ids = {feature: idx for idx, feature in enumerate(sorted(set(strings)))}
        # lookup(feature, default=None): the feature's id, or default.
        self.lookup = self._ids.get

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, feature: str) -> bool:
        return feature in self._ids

    def strings(self) -> list[str]:
        """Feature strings in id order."""
        return list(self._ids)

    @classmethod
    def build(
        cls, feature_sets: Iterable[Iterable[str]], min_count: int = 2
    ) -> "FeatureIndex":
        """Index the features fired at at least min_count positions; each
        position names a feature at most once."""
        counts = Counter(itertools.chain.from_iterable(feature_sets))
        return cls(f for f, n in counts.items() if n >= min_count)
