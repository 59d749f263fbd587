"""Two-stage extraction pipeline: the sentence classifier gates the CRF
tagger, and decoded T runs become term spans."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .corpus import Document, Sentence, TokenLabel, split_document
from .crf import CrfModel, Decoder, decode
from .embeddings import EmbeddingModel
from .errors import LengthMismatchError, ModelMismatchError

if TYPE_CHECKING:  # classifier imports evaluation, which imports this module
    from .classifier import ClassifierModel


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
    tokens: int = 0
    in_vocab_tokens: int = 0
    stage2_invocations: int = 0
    zero_evidence: int = 0  # sentences with no in-vocabulary token
    punctuation_only: int = 0  # sentences whose in-vocabulary tokens are all punctuation


@dataclass
class PipelineModels:
    """The cascade's models, read-only once constructed. All inference state
    is built here: the gate's per-word logits and stage II's decoder."""

    embedding: EmbeddingModel
    classifier: ClassifierModel
    crf: CrfModel
    # Each word's (ContainsTech, NoTech) logits without the bias: nothing lies
    # between the sentence mean and the logits, so W.mean(v) == mean(W.v).
    word_logits: list[tuple[float, float]] = field(init=False, repr=False, compare=False)
    bias: tuple[float, float] = field(init=False, repr=False, compare=False)
    decoder: Decoder = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.classifier.d != self.embedding.dim:
            raise ModelMismatchError(
                f"classifier expects dim {self.classifier.d}, "
                f"embeddings provide {self.embedding.dim}"
            )
        c = self.classifier
        logits = self.embedding.input_vectors @ c.output_weights.T
        self.word_logits = list(map(tuple, logits.tolist()))
        self.bias = tuple(c.bias.tolist())
        self.decoder = Decoder(self.crf)


def spans_from_labels(
    texts: Sequence[str], labels: Sequence[TokenLabel]
) -> list[Span]:
    """Maximal runs of T become spans; span text joins token texts with
    single spaces."""
    if len(texts) != len(labels):
        raise LengthMismatchError(f"{len(labels)} labels for {len(texts)} tokens")
    spans: list[Span] = []
    start: int | None = None
    for i, label in enumerate(labels):
        if label is TokenLabel.T:
            if start is None:
                start = i
        elif start is not None:
            spans.append(_span(texts, start, i - 1))
            start = None
    if start is not None:
        spans.append(_span(texts, start, len(labels) - 1))
    return spans


def _span(texts: Sequence[str], start: int, end: int) -> Span:
    return Span(start, end, " ".join(texts[start : end + 1]))


def stage1_logits(models: PipelineModels, rows: Sequence[int]) -> tuple[float, float]:
    """The bias plus the mean word_logits of a sentence's in-vocabulary ids,
    repeats included: classifier.predict's logits for embed_sentence's vector,
    summed in another float order."""
    t = o = 0.0
    word_logits = models.word_logits
    for i in rows:
        wt, wo = word_logits[i]
        t += wt
        o += wo
    n = len(rows)
    bt, bo = models.bias
    return t / n + bt, o / n + bo


def gate(models: PipelineModels, sentence: Sentence, stats: PipelineStats | None = None) -> bool:
    """Stage I at inference: whether stage1_logits call the sentence
    ContainsTech. With no in-vocabulary token, or only punctuation ones, a
    sentence carries no evidence and is NoTech; so is a tie."""
    vocab = models.embedding.vocab
    rows = [i for i in map(vocab.index.get, sentence.folded_texts()) if i is not None]
    punctuation_only = bool(rows) and vocab.punctuation.issuperset(rows)
    if stats is not None:
        stats.sentences += 1
        stats.tokens += len(sentence.texts)
        stats.in_vocab_tokens += len(rows)
        stats.zero_evidence += not rows
        stats.punctuation_only += punctuation_only
    if not rows or punctuation_only:
        return False
    t, o = stage1_logits(models, rows)
    return t > o


def tag(models: PipelineModels, sentence: Sentence) -> list[TokenLabel]:
    """Stage II alone: the CRF's labels for a sentence."""
    return decode(models.decoder, sentence.texts)


def gated_labels(
    models: PipelineModels,
    sentence: Sentence,
    stats: PipelineStats | None = None,
) -> list[TokenLabel] | None:
    """The CRF's labels for a sentence that passes the gate, else None."""
    if not gate(models, sentence, stats):
        return None
    if stats is not None:
        stats.stage2_invocations += 1
    return tag(models, sentence)


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
    spans = spans_from_labels(sentence.texts, labels)
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

