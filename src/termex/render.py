"""ANSI and HTML renderings of extraction results: positive sentences in
green, extracted terms in yellow, missed gold terms (when gold labels are
supplied) in red. Stripping the markup recovers the original text exactly."""

from __future__ import annotations

import html
import itertools
from typing import Callable, Sequence

from .cascade import Extraction, spans_from_labels
from .corpus import Document, LabeledSentence, split_document
from .errors import InputDataError

# Styles in rising priority: where marks overlap, the higher style shows.
_NONE, _SENTENCE, _TERM, _MISSED = range(4)

_ANSI = {_SENTENCE: "\x1b[32m", _TERM: "\x1b[30;43m", _MISSED: "\x1b[37;41m"}
_HTML = {
    _SENTENCE: "color:#1b7f2a",
    _TERM: "background:#ffe84d",
    _MISSED: "background:#ff6b6b;color:#fff",
}


def _ansi(style: int, text: str) -> str:
    return f"{_ANSI[style]}{text}\x1b[0m" if style else text


def _html(style: int, text: str) -> str:
    text = html.escape(text, quote=False)
    return f'<span style="{_HTML[style]}">{text}</span>' if style else text


def _render(
    doc: Document,
    extractions: Sequence[Extraction],
    gold: Sequence[LabeledSentence] | None,
    markup: Callable[[int, str], str],
) -> str:
    """Paint each byte of the text with its style, then mark up each run."""
    raw = doc.text.encode("utf-8")
    styles = [_NONE] * len(raw)
    by_index = {e.sentence_index: e for e in extractions}
    gold = gold or ()
    gold_by_index = {g.sentence.index: g for g in gold}
    if len(gold_by_index) < len(gold):
        raise InputDataError(f"gold document {doc.id!r} gives one sentence index twice")
    sentences = split_document(doc)
    if max(gold_by_index, default=-1) >= len(sentences):
        raise InputDataError(f"gold document {doc.id!r} has more sentences than the corpus")

    for sentence in sentences:
        extraction = by_index.get(sentence.index)
        if extraction is None:
            continue
        marks = []
        if extraction.sentence_positive:
            marks.append((0, len(sentence.texts) - 1, _SENTENCE))
            marks += [(s.start, s.end, _TERM) for s in extraction.term_spans]
        labeled = gold_by_index.get(sentence.index)
        if labeled is not None:
            if labeled.sentence.texts != sentence.texts:
                raise InputDataError(
                    f"gold sentence {sentence.index} of document {doc.id!r} "
                    "does not match the corpus"
                )
            predicted = {(s.start, s.end) for s in extraction.term_spans}
            marks += [
                (s.start, s.end, _MISSED)
                for s in spans_from_labels(sentence.texts, labeled.token_labels)
                if (s.start, s.end) not in predicted
            ]
        # Marks come in rising style, so a later one overwrites an earlier.
        for start, end, style in marks:
            a, b = sentence.starts[start], sentence.ends[end]
            styles[a:b] = [style] * (b - a)

    pieces, at = [], 0
    for style, run in itertools.groupby(styles):
        end = at + sum(1 for _ in run)
        pieces.append(markup(style, raw[at:end].decode("utf-8")))
        at = end
    return "".join(pieces)


def render_ansi(
    doc: Document,
    extractions: Sequence[Extraction],
    gold: Sequence[LabeledSentence] | None = None,
) -> str:
    return _render(doc, extractions, gold, _ansi)


def render_html(
    doc: Document,
    extractions: Sequence[Extraction],
    gold: Sequence[LabeledSentence] | None = None,
) -> str:
    return f"<pre>{_render(doc, extractions, gold, _html)}</pre>"
