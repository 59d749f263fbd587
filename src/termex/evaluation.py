"""Precision/recall/F-score reports for the sentence stage, the token stage,
and the end-to-end cascade."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .cascade import PipelineModels, gate, gated_labels, spans_from_labels, tag
from .corpus import LabeledSentence, SentenceLabel, TokenLabel


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class EvalReport:
    counts: ConfusionCounts
    precision: float
    recall: float
    f_score: float
    mode: str


def f_score(counts: ConfusionCounts, mode: str = "token") -> EvalReport:
    """Harmonic-mean F from the counts; 0/0 denominators yield 0."""
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(counts, precision, recall, f, mode)


def _tally(pairs: Iterable[tuple[bool, bool]]) -> ConfusionCounts:
    """Confusion counts of (gold positive, predicted positive) pairs."""
    counts = Counter(pairs)
    return ConfusionCounts(
        tp=counts[True, True],
        fp=counts[False, True],
        tn=counts[False, False],
        fn=counts[True, False],
    )


def _token_pairs(
    labeled: LabeledSentence, predicted: Sequence[TokenLabel] | None
) -> Iterator[tuple[bool, bool]]:
    """(gold T, predicted T) per token; no prediction reads as all O."""
    for gold, pred in zip(labeled.token_labels, predicted or repeat(TokenLabel.O)):
        yield gold is TokenLabel.T, pred is TokenLabel.T


def evaluate_stage1(
    models: PipelineModels, test: Sequence[LabeledSentence]
) -> EvalReport:
    """Sentence-level report of the cascade's gate, ContainsTech positive."""
    pairs = (
        (s.sentence_label is SentenceLabel.CONTAINS_TECH, gate(models, s.sentence))
        for s in test
    )
    return f_score(_tally(pairs), mode="sentence")


def evaluate_stage2(
    models: PipelineModels, test: Sequence[LabeledSentence]
) -> EvalReport:
    """Token-level report over the gold-positive sentences of test, in order,
    decoding every one (no stage-I gating), as the tagger is trained; gold
    negatives are skipped."""
    positives = (s for s in test if s.sentence_label is SentenceLabel.CONTAINS_TECH)
    pairs = (p for s in positives for p in _token_pairs(s, tag(models, s.sentence)))
    return f_score(_tally(pairs), mode="token")


def evaluate_end_to_end(
    models: PipelineModels, test: Sequence[LabeledSentence]
) -> EvalReport:
    """Token-level report over all sentences with the cascade's gating: a
    stage-I negative pushes every one of its tokens to predicted O."""
    pairs = (
        p for labeled in test for p in _token_pairs(labeled, gated_labels(models, labeled.sentence))
    )
    return f_score(_tally(pairs), mode="end_to_end")


def evaluate_spans(
    models: PipelineModels, test: Sequence[LabeledSentence]
) -> EvalReport:
    """Secondary exact-span view: a predicted span counts only if it matches
    a gold term span exactly. There are no true negatives at span level."""
    tp = fp = fn = 0
    for labeled in test:
        gold = {
            (s.start, s.end)
            for s in spans_from_labels(labeled.sentence.texts, labeled.token_labels)
        }
        predicted = {
            (s.start, s.end)
            for s in spans_from_labels(labeled.sentence.texts, tag(models, labeled.sentence))
        }
        tp += len(gold & predicted)
        fp += len(predicted - gold)
        fn += len(gold - predicted)
    return f_score(ConfusionCounts(tp=tp, fp=fp, tn=0, fn=fn), mode="span")


def report_to_json(report: EvalReport) -> dict:
    return {
        "mode": report.mode,
        "tp": report.counts.tp,
        "fp": report.counts.fp,
        "tn": report.counts.tn,
        "fn": report.counts.fn,
        "precision": report.precision,
        "recall": report.recall,
        "f_score": report.f_score,
    }
