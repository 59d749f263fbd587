"""Word-level skipgram embeddings with negative sampling, trained from
scratch, plus averaged sentence vectors for the downstream classifier."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import modelio
from .config import SkipgramConfig, check
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
    ids = [vocab.index.get(w) for w in sentence.folded_texts()]
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
        for at, idx in enumerate(map(vocab.index.get, sentence.folded_texts()))
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


class StepConstants(NamedTuple):
    """What a step reads besides its rows. They depend only on the block's
    relative positions: a chunk of steps builds them once per pattern, and
    they live until the next chunk starts."""

    weights: np.ndarray  # (n, width + n K): the mask, then each center's count
    sign: np.ndarray  # (width + n K,): -1.0 for a context, +1.0 for a negative


def step_constants(mask: np.ndarray, k: int) -> StepConstants:
    """The constants of a block with pairs mask whose centers draw k
    negatives each. Column width + a k + j of the weights holds center a's
    negative j, weighted by a's context count; other centers' negatives
    weigh 0 in row a. The weights are stored in the smallest unsigned type
    that holds the largest count: a product with float64 promotes exactly."""
    n, width = mask.shape
    counts = mask.sum(axis=1)
    dtype = np.min_scalar_type(int(counts.max(initial=0)))
    weights = np.concatenate(
        [mask.astype(dtype), np.diag(counts.astype(dtype)).repeat(k, axis=1)], axis=1
    )
    return StepConstants(weights, np.concatenate([np.full(width, -1.0), np.ones(n * k)]))


class ScatterPlan(NamedTuple):
    """How scatter_add writes a run of rows."""

    order: np.ndarray  # a stable argsort of the rows
    starts: np.ndarray  # where each run of equal rows starts in that order
    distinct: np.ndarray  # the row of each run


def scatter_plans(rows: np.ndarray, bounds: np.ndarray) -> list[ScatterPlan]:
    """The plan of each segment rows[bounds[s]:bounds[s + 1]] (none empty),
    from one stable argsort of (segment, row) keys. Sorting keeps the
    segments in place, and within one it orders as a stable argsort of that
    segment alone."""
    sizes = np.diff(bounds)
    keys = np.repeat(np.arange(len(sizes)) * (int(rows.max()) + 1), sizes) + rows
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    distinct = rows[order[starts]]
    order -= np.repeat(bounds[:-1], sizes)
    runs = starts.searchsorted(bounds)
    starts -= np.repeat(bounds[:-1], np.diff(runs))
    bounds, runs = bounds.tolist(), runs.tolist()
    return [
        ScatterPlan(order[a:b], starts[c:d], distinct[c:d])
        for a, b, c, d in zip(bounds, bounds[1:], runs, runs[1:])
    ]


def center_plans(ids: np.ndarray, bounds: np.ndarray) -> list[ScatterPlan | None]:
    """scatter_plans of each block's centers, or None for a block whose
    centers are distinct: scatter_add then writes each row once, unsorted,
    with the same products."""
    return [
        None if len(plan.distinct) == len(plan.order) else plan
        for plan in scatter_plans(ids, bounds)
    ]


def scatter_add(
    matrix: np.ndarray,
    rows: np.ndarray,
    plan: ScatterPlan | None,
    coefficients: np.ndarray,
    basis: np.ndarray,
) -> None:
    """matrix[rows] += coefficients @ basis, in place, with the updates of
    repeated rows summed; plan is the rows' plan, or None if they are
    distinct.

    Each distinct row's coefficients are summed by np.add.reduceat in the
    plan's order, and every row is written once. np.add.at would cost
    ~2.5 us per 300-wide row; a one-hot product would grow with the square
    of the rows."""
    if plan is None:
        matrix[rows] += coefficients @ basis
    else:
        matrix[plan.distinct] += (
            np.add.reduceat(coefficients[plan.order], plan.starts) @ basis
        )


def sentence_step(
    input_vectors: np.ndarray,
    output_vectors: np.ndarray,
    centers: np.ndarray,
    rows: np.ndarray,
    constants: StepConstants,
    center_plan: ScatterPlan | None,
    row_plan: ScatterPlan,
    lr: float,
) -> float:
    """One SGD step, in place, on the summed negative-sampling loss of a
    block's (center, context) pairs, where each pair of center a takes a's
    K negatives: -log s(u_context . v) - sum_k log s(-u_negative_k . v) per
    pair.

    rows holds the block's contexts, then each center's K negatives in turn.
    constants are step_constants of the block's mask; center_plan is
    center_plans' for the centers and row_plan scatter_plans' for the rows.
    A center's negatives are scored once and weighted by its context count,
    which is the same loss. Every gradient is taken at the parameters before
    the step. Returns the loss before the step."""
    weights, sign = constants
    center_vectors = input_vectors[centers]
    block = output_vectors[rows]
    # Scores signed so that every term of the loss is log(1 + e^x): minus
    # u . v for a context, u . v for a negative.
    signed = center_vectors @ block.T
    signed *= sign
    loss = float((weights * np.logaddexp(0.0, signed)).sum())
    # -lr times d loss / d (u . v): lr s(x) for a context, -lr s(x) for a
    # negative.
    step = weights / (1.0 + np.exp(-signed))
    step *= sign * -lr
    scatter_add(input_vectors, centers, center_plan, step, block)
    scatter_add(output_vectors, rows, row_plan, step.T, center_vectors)
    return loss


# Output rows per chunk of steps. A chunk's negatives are drawn, laid out
# and planned together, and its step constants live until the next chunk
# starts, so transient memory is bounded by the chunk.
CHUNK_ROWS = 2**15


class _Chunk(NamedTuple):
    steps: list[tuple]  # per step: center ids, pattern, pair prefix, center plan
    contexts: np.ndarray  # every step's contexts, in turn
    is_context: np.ndarray  # per row: a context (True) or a negative (False)
    bounds: np.ndarray  # step s owns rows bounds[s]:bounds[s + 1]
    centers: int


def _chunks(sentences: list[tuple], k: int) -> tuple[list[tuple], list[_Chunk]]:
    """Every block of the sentences (ids, positions, blocks, pairs), in
    training order, cut into chunks of about CHUNK_ROWS rows; and the
    relative positions (centers', contexts') of each distinct block
    pattern, which a step names by its index. Blocks with the same relative
    positions have the same constants."""
    patterns: dict[tuple, int] = {}
    shapes: list[tuple[np.ndarray, np.ndarray]] = []
    chunks = []
    steps = []
    rows = prefix = 0
    for ids, positions, slices, pairs in sentences:
        for centers, contexts in slices:
            at = positions[contexts] - positions[contexts.start]
            key = (
                centers.start - contexts.start,
                centers.stop - contexts.start,
                at.tobytes(),
            )
            if key not in patterns:
                patterns[key] = len(shapes)
                shapes.append((positions[centers] - positions[contexts.start], at))
            steps.append((ids[centers], ids[contexts], patterns[key], prefix))
            rows += len(at) + (centers.stop - centers.start) * k
            if rows >= CHUNK_ROWS:
                chunks.append(_chunk(steps, k))
                steps, rows = [], 0
        prefix += pairs
    if steps:
        chunks.append(_chunk(steps, k))
    return shapes, chunks


def _chunk(steps: list[tuple], k: int) -> _Chunk:
    """Consecutive steps (center ids, context ids, pattern, prefix) and the
    layout of their rows: each step's contexts, then its centers' negatives."""
    widths = np.array([len(step[1]) for step in steps])
    centers = np.array([len(step[0]) for step in steps])
    plans = center_plans(
        np.concatenate([step[0] for step in steps]),
        np.concatenate(([0], np.cumsum(centers))),
    )
    return _Chunk(
        [
            (ids, pattern, prefix, plan)
            for (ids, _, pattern, prefix), plan in zip(steps, plans)
        ],
        np.concatenate([step[1] for step in steps]),
        np.repeat(
            np.tile([True, False], len(steps)),
            np.column_stack([widths, centers * k]).ravel(),
        ),
        np.concatenate(([0], np.cumsum(widths + centers * k))),
        int(centers.sum()),
    )


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
    check(config)
    corpus = list(corpus)
    if not corpus:
        raise ConfigError("corpus is empty")
    vocab = build_vocab(corpus, config.min_count)
    rng = np.random.default_rng(config.seed)
    input_vectors = (rng.random((len(vocab), config.dim)) - 0.5) / config.dim
    model = EmbeddingModel(vocab, input_vectors)
    if config.epochs == 0:
        return model

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
    k = config.negatives
    shapes, chunks = _chunks(sentences, k)
    total_updates = total_pairs * config.epochs
    # The current chunk's step constants, by pattern: built at the pattern's
    # first step in the chunk, released when the next chunk starts.
    built: dict[int, StepConstants] = {}

    for epoch in range(config.epochs):
        epoch_loss = 0.0
        done = epoch * total_pairs
        # Divergent runs hit inf/nan transiently before the per-epoch
        # finiteness check raises; keep numpy quiet about it.
        with np.errstate(over="ignore", invalid="ignore"):
            for chunk in chunks:
                built.clear()
                # One draw per chunk: rng.random fills in order, so each
                # center still takes the same K draws.
                negatives = cdf.searchsorted(
                    rng.random((chunk.centers, k)), side="right"
                )
                rows = np.empty(len(chunk.is_context), dtype=np.int64)
                rows[chunk.is_context] = chunk.contexts
                rows[~chunk.is_context] = negatives.ravel()
                bounds = chunk.bounds.tolist()
                plans = scatter_plans(rows, chunk.bounds)
                for step, row_plan, lo, hi in zip(chunk.steps, plans, bounds, bounds[1:]):
                    centers, pattern, prefix, center_plan = step
                    if pattern not in built:
                        built[pattern] = step_constants(
                            window_mask(*shapes[pattern], config.window), k
                        )
                    lr = config.learning_rate * (
                        1.0 - (1.0 - 1e-4) * ((done + prefix) / total_updates)
                    )
                    epoch_loss += sentence_step(
                        input_vectors, output_vectors, centers, rows[lo:hi],
                        built[pattern], center_plan, row_plan, lr,
                    )
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
        for idx in map(model.vocab.index.get, sentence.folded_texts())
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
