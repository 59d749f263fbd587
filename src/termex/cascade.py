"""Two-stage extraction pipeline: the sentence classifier gates the CRF
tagger, and decoded T runs become term spans."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .classifier import ClassifierModel, predict
from .corpus import Document, Sentence, SentenceLabel, Token, TokenLabel, split_document
from .crf import CrfModel, sentence_potentials, viterbi_from_table
from .embeddings import EmbeddingModel, embed_sentence
from .errors import LengthMismatchError, ModelMismatchError


@dataclass(frozen=True)
class Span:
    """Token-index span, end inclusive."""

    start: int
    end: int
    text: str


@dataclass(frozen=True)
class Extraction:
    doc_id: str
    sentence_index: int
    sentence_positive: bool
    term_spans: tuple[Span, ...]


@dataclass
class PipelineStats:
    sentences: int = 0
    stage2_invocations: int = 0
    zero_evidence: int = 0  # sentences with no in-vocabulary token
    punctuation_only: int = 0  # sentences whose in-vocabulary tokens are all punctuation


@dataclass
class PipelineModels:
    embedding: EmbeddingModel
    classifier: ClassifierModel
    crf: CrfModel

    def __post_init__(self):
        if self.classifier.d != self.embedding.dim:
            raise ModelMismatchError(
                f"classifier expects dim {self.classifier.d}, "
                f"embeddings provide {self.embedding.dim}"
            )


def spans_from_labels(
    tokens: Sequence[Token], labels: Sequence[TokenLabel]
) -> list[Span]:
    """Maximal runs of T become spans; span text joins token texts with
    single spaces."""
    if len(tokens) != len(labels):
        raise LengthMismatchError(f"{len(labels)} labels for {len(tokens)} tokens")
    spans: list[Span] = []
    start: int | None = None
    for i, label in enumerate(labels):
        if label is TokenLabel.T:
            if start is None:
                start = i
        elif start is not None:
            spans.append(_span(tokens, start, i - 1))
            start = None
    if start is not None:
        spans.append(_span(tokens, start, len(labels) - 1))
    return spans


def _span(tokens: Sequence[Token], start: int, end: int) -> Span:
    return Span(start, end, " ".join(t.text for t in tokens[start : end + 1]))


def gated_labels(
    models: PipelineModels,
    sentence: Sentence,
    stats: PipelineStats | None = None,
) -> list[TokenLabel] | None:
    """Classify the sentence; only a stage-I positive reaches the CRF, whose
    labels are returned. None for a stage-I negative, which a sentence with
    no evidence always is (see classifier.predict)."""
    vector = embed_sentence(models.embedding, sentence)
    if stats is not None:
        stats.sentences += 1
        stats.zero_evidence += vector.contributing_count == 0
        stats.punctuation_only += vector.punctuation_only
    if predict(models.classifier, vector).label is SentenceLabel.NO_TECH:
        return None
    if stats is not None:
        stats.stage2_invocations += 1
    return viterbi_from_table(sentence_potentials(models.crf, sentence))


def extract_sentence(
    models: PipelineModels,
    sentence: Sentence,
    stats: PipelineStats | None = None,
) -> Extraction:
    """The cascade on one sentence: gated_labels as spans. The stages may
    disagree: a positive whose decode is all O is reported with no spans."""
    labels = gated_labels(models, sentence, stats)
    if labels is None:
        return Extraction(sentence.doc_id, sentence.index, False, ())
    spans = spans_from_labels(sentence.tokens, labels)
    return Extraction(sentence.doc_id, sentence.index, True, tuple(spans))


def extract_from_document(
    doc: Document,
    models: PipelineModels,
    stats: PipelineStats | None = None,
) -> list[Extraction]:
    return [extract_sentence(models, s, stats) for s in split_document(doc)]


def extraction_to_json(extraction: Extraction) -> dict:
    return {
        "doc_id": extraction.doc_id,
        "sentence_index": extraction.sentence_index,
        "positive": extraction.sentence_positive,
        "spans": [
            {"start_token": s.start, "end_token": s.end, "text": s.text}
            for s in extraction.term_spans
        ],
    }


def write_extractions_jsonl(path: str | Path, extractions: Iterable[Extraction]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for extraction in extractions:
            fh.write(json.dumps(extraction_to_json(extraction)) + "\n")
