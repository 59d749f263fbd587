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
from .features import CoarsePosTag, _tag_token

MAGIC = b"TXEMB"
VERSION = 2


@dataclass
class Vocabulary:
    words: list[str]
    index: dict[str, int] = field(init=False)
    punctuation: frozenset[int] = field(init=False)  # ids of PUNCT-tagged words

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}
        tags = map(_tag_token, self.words)
        self.punctuation = frozenset(i for i, tag in enumerate(tags) if tag is CoarsePosTag.PUNCT)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def lookup(self, word: str) -> int | None:
        return self.index.get(word)


@dataclass
class EmbeddingModel:
    """The words and their input vectors: all that inference reads."""

    vocab: Vocabulary
    input_vectors: np.ndarray  # (|V|, dim)

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]


@dataclass(frozen=True)
class SentenceVector:
    values: np.ndarray
    contributing_count: int  # in-vocabulary tokens
    punctuation_only: bool = False  # some in-vocabulary tokens, all punctuation


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
    """Case-folded words seen min_count times or more, most frequent first."""
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
    return Vocabulary([w for w, _ in kept])


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


def negative_distribution(counts: np.ndarray) -> np.ndarray:
    """Unigram^(3/4) sampling weights from each vocabulary word's corpus count."""
    weights = counts.astype(np.float64) ** 0.75
    return weights / weights.sum()


# Centers per training step. A sentence with more in-vocabulary positions is
# cut into blocks of this many centers, each with the contexts up to `window`
# positions beyond it, so that a step's scores stay ~BLOCK x BLOCK (K + 1)
# however long the sentence.
BLOCK = 256


def sentence_blocks(
    vocab: Vocabulary, sentence: Sentence, window: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[slice, slice]]]:
    """The in-vocabulary ids of a sentence, their token positions, and the
    (centers, contexts) slices of its steps: blocks of at most BLOCK centers,
    each with every position within `window` of one of them. Positions count
    out-of-vocabulary tokens, so those still use up window slots."""
    found = [
        (at, idx)
        for at, idx in enumerate(map(vocab.lookup, sentence.folded_texts()))
        if idx is not None
    ]
    positions = np.array([at for at, _ in found], dtype=np.int64)
    ids = np.array([idx for _, idx in found], dtype=np.int64)
    blocks = []
    for first in range(0, len(ids), BLOCK):
        last = min(first + BLOCK, len(ids))
        lo = np.searchsorted(positions, positions[first] - window)
        hi = np.searchsorted(positions, positions[last - 1] + window, side="right")
        blocks.append((slice(first, last), slice(int(lo), int(hi))))
    return ids, positions, blocks


def pair_count(positions: np.ndarray, window: int) -> int:
    """The (center, context) pairs of sorted positions: others 1 to window away."""
    last = positions.searchsorted(positions + window, side="right")
    first = positions.searchsorted(positions - window)
    return int((last - first).sum()) - len(positions)


def window_mask(centers: np.ndarray, contexts: np.ndarray, window: int) -> np.ndarray:
    """mask[a, b]: positions centers[a] and contexts[b] are 1 to window apart."""
    distance = np.abs(centers[:, None] - contexts[None, :])
    return (distance <= window) & (distance > 0)


def scatter_add(
    matrix: np.ndarray, rows: np.ndarray, coefficients: np.ndarray, basis: np.ndarray
) -> None:
    """matrix[rows] += coefficients @ basis, in place, with the updates of
    repeated rows summed.

    The rows are sorted, each distinct row's coefficients are summed by
    np.add.reduceat, and every row is written once. np.add.at would cost
    ~2.5 us per 300-wide row; a one-hot product would grow with the square
    of the rows."""
    order = rows.argsort(kind="stable")
    ordered = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    matrix[ordered[starts]] += np.add.reduceat(coefficients[order], starts) @ basis


def sentence_step(
    input_vectors: np.ndarray,
    output_vectors: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    mask: np.ndarray,
    negatives: np.ndarray,
    lr: float,
) -> float:
    """One SGD step, in place, on the summed negative-sampling loss of the
    (centers[a], contexts[b]) pairs with mask[a, b], where each pair of
    center a takes the K negatives negatives[a]:
    -log s(u_context . v) - sum_k log s(-u_negative_k . v) per pair.

    A center's negatives are scored once and weighted by its context count,
    which is the same loss. Every gradient is taken at the parameters before
    the step. Returns the loss before the step."""
    n, k = negatives.shape
    width = len(contexts)
    rows = np.concatenate([contexts, negatives.ravel()])
    center_vectors = input_vectors[centers]
    block = output_vectors[rows]
    # Scores signed so that every term of the loss is log(1 + e^x): minus
    # u . v for a context, u . v for a negative.
    signed = center_vectors @ block.T
    signed[:, :width] *= -1.0
    # Column width + a k + j holds center a's negative j, weighted by a's
    # context count; other centers' negatives weigh 0 in row a.
    counts = mask.sum(axis=1)
    weights = np.concatenate(
        [mask, np.diag(counts).repeat(k, axis=1)], axis=1, dtype=np.float64
    )
    loss = float((weights * np.logaddexp(0.0, signed)).sum())
    # -lr times d loss / d (u . v): lr s(x) for a context, -lr s(x) for a
    # negative.
    step = weights / (1.0 + np.exp(-signed))
    step[:, width:] *= -1.0
    step *= lr
    scatter_add(input_vectors, centers, step, block)
    scatter_add(output_vectors, rows, step.T, center_vectors)
    return loss


def train_skipgram(
    corpus: Sequence[Sentence],
    config: SkipgramConfig,
    callback: Callable[[int, dict], None] | None = None,
) -> EmbeddingModel:
    """Train skipgram-with-negative-sampling embeddings, one step per
    sentence (per block of a long one).

    Input vectors start uniform in [-0.5/dim, 0.5/dim), output vectors at
    zero; each center draws its own negatives from the unigram^(3/4)
    distribution, once per epoch; the learning rate decays linearly to 1e-4
    of its initial value over the total pair count. Runs are
    bit-reproducible under a fixed seed. The model keeps the input vectors only."""
    config.validate()
    corpus = list(corpus)
    if not corpus:
        raise ConfigError("corpus is empty")
    vocab = build_vocab(corpus, config.min_count)
    rng = np.random.default_rng(config.seed)
    input_vectors = (rng.random((len(vocab), config.dim)) - 0.5) / config.dim
    model = EmbeddingModel(vocab, input_vectors)
    if config.epochs == 0:
        return model

    # Masks are built per step from positions: storing them all would cost
    # more memory than building them costs time.
    sentences = []
    every_id = []
    total_pairs = 0
    for sentence in corpus:
        ids, positions, blocks = sentence_blocks(vocab, sentence, config.window)
        every_id.append(ids)
        pairs = pair_count(positions, config.window)
        if pairs:
            sentences.append((ids, positions, blocks, pairs))
            total_pairs += pairs
    if total_pairs == 0:
        return model
    output_vectors = np.zeros((len(vocab), config.dim))
    counts = np.bincount(np.concatenate(every_id), minlength=len(vocab))
    # The draws of rng.choice(len(vocab), size, p=negative_distribution(counts)),
    # without its per-call checks of p.
    cdf = np.cumsum(negative_distribution(counts))
    cdf /= cdf[-1]
    total_updates = total_pairs * config.epochs
    done = 0

    for epoch in range(config.epochs):
        epoch_loss = 0.0
        # Divergent runs hit inf/nan transiently before the per-epoch
        # finiteness check raises; keep numpy quiet about it.
        with np.errstate(over="ignore", invalid="ignore"):
            for ids, positions, blocks, pairs in sentences:
                negatives = cdf.searchsorted(
                    rng.random((len(ids), config.negatives)), side="right"
                )
                lr = config.learning_rate * (
                    1.0 - (1.0 - 1e-4) * (done / total_updates)
                )
                for centers, contexts in blocks:
                    mask = window_mask(
                        positions[centers], positions[contexts], config.window
                    )
                    epoch_loss += sentence_step(
                        input_vectors, output_vectors, ids[centers],
                        ids[contexts], mask, negatives[centers], lr,
                    )
                done += pairs
        if not np.isfinite(epoch_loss):
            raise NonFiniteLossError(f"skipgram loss diverged at epoch {epoch}")
        if callback is not None:
            callback(epoch, {"loss": epoch_loss / total_pairs})

    return model


def embed_sentence(model: EmbeddingModel, sentence: Sentence) -> SentenceVector:
    """Element-wise mean of the input vectors of in-vocabulary tokens: the
    classifier's training input, and the tests' reference for cascade.gate.

    Out-of-vocabulary tokens are skipped; an all-OOV sentence yields the
    zero vector with contributing_count == 0; punctuation_only marks one whose
    in-vocabulary tokens are all PUNCT-tagged (see classifier.predict)."""
    rows = [
        idx
        for idx in (model.vocab.lookup(w) for w in sentence.folded_texts())
        if idx is not None
    ]
    if not rows:
        return SentenceVector(np.zeros(model.dim), 0)
    values = model.input_vectors[rows].mean(axis=0)
    return SentenceVector(values, len(rows), model.vocab.punctuation.issuperset(rows))


def save_embeddings(model: EmbeddingModel, path: str | Path) -> None:
    with open(path, "wb") as fh:
        modelio.write_header(fh, MAGIC, VERSION)
        modelio.write_u32(fh, model.dim)
        modelio.write_u32(fh, len(model.vocab))
        for word in model.vocab.words:
            modelio.write_str(fh, word)
        modelio.write_matrix(fh, model.input_vectors)


def load_embeddings(path: str | Path) -> EmbeddingModel:
    """Read a v2 file, or a v1 one: its min_count, word counts and output
    vectors are read and checked, then dropped."""
    with modelio.open_model(path) as fh:
        version = modelio.read_header(fh, MAGIC, VERSION)
        dim = modelio.read_u32(fh)
        size = modelio.read_u32(fh)
        if version == 1:
            modelio.read_u32(fh)  # min_count
        words = []
        for _ in range(size):
            words.append(modelio.read_str(fh))
            if version == 1:
                modelio.read_u64(fh)  # the word's count
        input_vectors = modelio.read_matrix(fh, (size, dim))
        if version == 1:
            modelio.read_matrix(fh, (size, dim))  # output vectors
        modelio.read_end(fh)
    vocab = Vocabulary(words)
    if len(vocab.index) != size:
        raise ModelFormatError("repeated words in the embedding vocabulary")
    return EmbeddingModel(vocab, input_vectors)
