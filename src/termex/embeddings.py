"""Word-level skipgram embeddings with negative sampling, trained from
scratch, plus averaged sentence vectors for the downstream classifier."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import modelio
from .corpus import Sentence
from .errors import (
    ConfigError,
    EmptyVocabularyError,
    ModelFormatError,
    NonFiniteLossError,
)

MAGIC = b"TXEMB"
VERSION = 1


@dataclass
class Vocabulary:
    words: list[str]
    counts: np.ndarray  # int64 corpus frequency per index
    min_count: int
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def lookup(self, word: str) -> int | None:
        return self.index.get(word)


@dataclass
class EmbeddingModel:
    dim: int
    vocab: Vocabulary
    input_vectors: np.ndarray  # (|V|, dim)
    output_vectors: np.ndarray  # (|V|, dim)

    def vector(self, word: str) -> np.ndarray | None:
        idx = self.vocab.lookup(word.casefold())
        return None if idx is None else self.input_vectors[idx]


@dataclass(frozen=True)
class SentenceVector:
    values: np.ndarray
    contributing_count: int


@dataclass(frozen=True)
class SkipgramConfig:
    dim: int = 300
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 1
    seed: int = 0

    def validate(self) -> None:
        positive = {
            "dim": self.dim,
            "window": self.window,
            "negatives": self.negatives,
            "learning_rate": self.learning_rate,
            "min_count": self.min_count,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")


def build_vocab(corpus: Iterable[Sentence], min_count: int = 1) -> Vocabulary:
    """Case-folded token counts; words under min_count are dropped."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts: dict[str, int] = {}
    for sentence in corpus:
        for word in sentence.folded_texts():
            counts[word] = counts.get(word, 0) + 1
    kept = sorted(
        ((w, c) for w, c in counts.items() if c >= min_count),
        key=lambda wc: (-wc[1], wc[0]),
    )
    if not kept:
        raise EmptyVocabularyError(f"no token reached min_count={min_count}")
    return Vocabulary(
        words=[w for w, _ in kept],
        counts=np.array([c for _, c in kept], dtype=np.int64),
        min_count=min_count,
    )


def generate_pairs(
    vocab: Vocabulary, sentence: Sentence, window: int
) -> list[tuple[int, int]]:
    """(center, context) vocabulary-index pairs for all in-vocabulary token
    positions at distance <= window. Distances count original positions, so
    out-of-vocabulary tokens still consume window slots."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    ids = [vocab.lookup(w) for w in sentence.folded_texts()]
    pairs: list[tuple[int, int]] = []
    for i, center in enumerate(ids):
        if center is None:
            continue
        for j in range(max(0, i - window), min(len(ids), i + window + 1)):
            if j == i or ids[j] is None:
                continue
            pairs.append((center, ids[j]))
    return pairs


def negative_distribution(vocab: Vocabulary) -> np.ndarray:
    """Unigram^(3/4) sampling weights over vocabulary indices."""
    weights = vocab.counts.astype(np.float64) ** 0.75
    return weights / weights.sum()


# Pairs per draw of negatives. Draws of consecutive chunks of pairs consume
# the generator exactly as one draw for the whole epoch would, so the chunk
# size bounds memory without changing the result.
_CHUNK_PAIRS = 8192


def negative_sampling_loss(scores: np.ndarray) -> float:
    """Summed loss over blocks of scores u_r . v_center, where column 0 scores
    the context word and the others the negatives:
    -log s(x_context) - sum_k log s(-x_negative_k) per block."""
    return float(
        np.logaddexp(0.0, -scores[..., 0]).sum()
        + np.logaddexp(0.0, scores[..., 1:]).sum()
    )


def sgd_step(
    input_vectors: np.ndarray,
    output_vectors: np.ndarray,
    center: int,
    rows: np.ndarray,
    lr: float,
    repeated: bool,
) -> np.ndarray:
    """One SGD step on the negative-sampling loss of one pair, in place.

    rows[0] is the context word and rows[1:] the negatives; repeated says
    whether a row occurs twice in rows. Every gradient is taken at the
    parameters before the step. Returns the scores before the step.

    The step runs ~340k times per criterion-1 training, so it is written for
    numpy's per-call overhead: np.dot instead of @, and in-place updates."""
    center_vec = input_vectors[center]  # a view: updated in place below
    block = output_vectors.take(rows, axis=0)
    scores = np.dot(block, center_vec)
    # d loss / d score: s(x) - 1 for the context, s(x) for each negative.
    step = 1.0 / (1.0 + np.exp(-scores))
    step[0] -= 1.0
    step *= -lr
    # The outer product as a rank-1 matrix product: each entry is one
    # product, so it equals np.multiply.outer bit for bit, at half the cost.
    delta = np.dot(step[:, None], center_vec[None, :])
    if repeated:
        # Adds row by row in the order np.add.at would, at a quarter of its
        # per-call cost on a block this small.
        for row, row_delta in zip(rows.tolist(), delta):
            output_vectors[row] += row_delta
    else:
        delta += block
        output_vectors[rows] = delta
    center_vec += np.dot(step, block)
    return scores


def _run_pairs(
    input_vectors: np.ndarray,
    output_vectors: np.ndarray,
    pairs: np.ndarray,
    negatives: np.ndarray,
    lrs: np.ndarray,
) -> float:
    """Sequential SGD over the pair stream; returns the summed loss.

    One update per pair, exactly as the objective is stated; batching pairs
    would let frequent rows absorb many stale-gradient steps at once and
    diverge at learning rates that per-pair SGD tolerates."""
    blocks = np.concatenate([pairs[:, 1:], negatives], axis=1)
    ordered = np.sort(blocks, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    scores = np.empty(blocks.shape)
    # Divergent runs hit inf/nan transiently before the per-epoch finiteness
    # check raises; keep numpy quiet about it.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (center, lr, repeated) in enumerate(
            zip(pairs[:, 0].tolist(), lrs.tolist(), repeats.tolist())
        ):
            scores[t] = sgd_step(
                input_vectors, output_vectors, center, blocks[t], lr, repeated
            )
        return negative_sampling_loss(scores)


def _collect_pairs(
    corpus: Sequence[Sentence], vocab: Vocabulary, window: int
) -> np.ndarray:
    chunks = []
    for sentence in corpus:
        pairs = generate_pairs(vocab, sentence, window)
        if pairs:
            chunks.append(np.asarray(pairs, dtype=np.int64))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(chunks, axis=0)


def train_skipgram(
    corpus: Sequence[Sentence],
    config: SkipgramConfig,
    callback: Callable[[int, dict], None] | None = None,
) -> EmbeddingModel:
    """Train skipgram-with-negative-sampling embeddings.

    Input vectors start uniform in [-0.5/dim, 0.5/dim), output vectors at
    zero; negatives come from the unigram^(3/4) distribution; the learning
    rate decays linearly to 1e-4 of its initial value over the total pair
    count. Runs are bit-reproducible under a fixed seed."""
    config.validate()
    corpus = list(corpus)
    if not corpus:
        raise ConfigError("corpus is empty")
    vocab = build_vocab(corpus, config.min_count)
    rng = np.random.default_rng(config.seed)
    input_vectors = (rng.random((len(vocab), config.dim)) - 0.5) / config.dim
    output_vectors = np.zeros((len(vocab), config.dim))
    model = EmbeddingModel(
        dim=config.dim,
        vocab=vocab,
        input_vectors=input_vectors,
        output_vectors=output_vectors,
    )
    if config.epochs == 0:
        return model

    pairs = _collect_pairs(corpus, vocab, config.window)
    if len(pairs) == 0:
        return model
    neg_probs = negative_distribution(vocab)
    total_updates = len(pairs) * config.epochs

    for epoch in range(config.epochs):
        epoch_loss = 0.0
        for first in range(0, len(pairs), _CHUNK_PAIRS):
            chunk = pairs[first : first + _CHUNK_PAIRS]
            negatives = rng.choice(
                len(vocab), size=(len(chunk), config.negatives), p=neg_probs
            )
            done = epoch * len(pairs) + first
            lrs = config.learning_rate * (
                1.0
                - (1.0 - 1e-4) * ((done + np.arange(len(chunk))) / total_updates)
            )
            epoch_loss += _run_pairs(
                input_vectors, output_vectors, chunk, negatives, lrs
            )
        if not np.isfinite(epoch_loss):
            raise NonFiniteLossError(f"skipgram loss diverged at epoch {epoch}")
        if callback is not None:
            callback(epoch, {"loss": epoch_loss / len(pairs)})

    return model


def embed_sentence(model: EmbeddingModel, sentence: Sentence) -> SentenceVector:
    """Element-wise mean of the input vectors of in-vocabulary tokens.

    Out-of-vocabulary tokens are skipped; an all-OOV sentence yields the
    zero vector with contributing_count == 0."""
    rows = [
        idx
        for idx in (model.vocab.lookup(w) for w in sentence.folded_texts())
        if idx is not None
    ]
    if not rows:
        return SentenceVector(np.zeros(model.dim), 0)
    values = model.input_vectors[rows].mean(axis=0)
    return SentenceVector(values, len(rows))


def save_embeddings(model: EmbeddingModel, path: str | Path) -> None:
    with open(path, "wb") as fh:
        modelio.write_header(fh, MAGIC, VERSION)
        modelio.write_u32(fh, model.dim)
        modelio.write_u32(fh, len(model.vocab))
        modelio.write_u32(fh, model.vocab.min_count)
        for word, count in zip(model.vocab.words, model.vocab.counts):
            modelio.write_str(fh, word)
            modelio.write_u64(fh, int(count))
        modelio.write_matrix(fh, model.input_vectors)
        modelio.write_matrix(fh, model.output_vectors)


def load_embeddings(path: str | Path) -> EmbeddingModel:
    with modelio.open_model(path) as fh:
        modelio.read_header(fh, MAGIC, VERSION)
        dim = modelio.read_u32(fh)
        size = modelio.read_u32(fh)
        min_count = modelio.read_u32(fh)
        words = []
        counts = []
        for _ in range(size):
            words.append(modelio.read_str(fh))
            counts.append(modelio.read_u64(fh))
        input_vectors = modelio.read_matrix(fh, (size, dim))
        output_vectors = modelio.read_matrix(fh, (size, dim))
        modelio.read_end(fh)
    if max(counts, default=0) > np.iinfo(np.int64).max:
        raise ModelFormatError("word count out of range in the embedding vocabulary")
    vocab = Vocabulary(
        words=words, counts=np.array(counts, dtype=np.int64), min_count=min_count
    )
    if len(vocab.index) != size:
        raise ModelFormatError("repeated words in the embedding vocabulary")
    return EmbeddingModel(
        dim=dim, vocab=vocab, input_vectors=input_vectors, output_vectors=output_vectors
    )
