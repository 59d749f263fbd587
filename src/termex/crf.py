"""Linear-chain CRF over the {T, O} label pair: log-space clique potentials,
forward-backward, Viterbi decoding, and maximum-likelihood training."""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import modelio
from .config import CrfConfig, FeatureConfig, check
from .corpus import TokenLabel
from .errors import ConfigError, LengthMismatchError, ModelFormatError
from .features import PSEQ, SHSEQ, TEMPLATES, FeatureIndex, text_share, walk

MAGIC = b"TXCRF"
VERSION = 1

LABELS = (TokenLabel.T, TokenLabel.O)
_LABEL_INDEX = {TokenLabel.T: 0, TokenLabel.O: 1}
# Transition rows: previous state BOS / T / O.
BOS = 0

# Each position's feature strings, each named once, and the gold labels.
TrainingSequence = tuple[Sequence[Iterable[str]], Sequence[TokenLabel]]


@dataclass(frozen=True)
class CrfModel:
    """A trained tagger: a value, whose inference state a Decoder holds."""

    feature_index: FeatureIndex
    emission_weights: np.ndarray  # (F, 2): feature id x current label
    transition_weights: np.ndarray  # (3, 2): previous state x current label
    l2: float = 1.0
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)


@dataclass
class PotentialTable:
    """Log clique potentials: ``start[s]`` for position 0 (from BOS) and
    ``steps[i-1][prev, cur]`` for positions 1..L-1."""

    start: np.ndarray  # (2,)
    steps: np.ndarray  # (L-1, 2, 2)

    def __len__(self) -> int:
        return 1 + len(self.steps)


def _layout(
    index: FeatureIndex, positions: Sequence[Iterable[str]]
) -> tuple[np.ndarray, np.ndarray]:
    """Each position's known feature ids, in the order its strings come,
    flattened, and the position at which each one fired."""
    strings = itertools.chain.from_iterable(positions)
    ids = np.fromiter(map(index.lookup, strings, itertools.repeat(-1)), np.intp)
    tokens = np.repeat(np.arange(len(positions)), [len(features) for features in positions])
    return ids[ids >= 0], tokens[ids >= 0]


def _label_sums(
    bins: np.ndarray, table: np.ndarray, rows: np.ndarray, size: int
) -> np.ndarray:
    """Per-bin sums of the rows table[rows], shape (size, 2), as floats even
    with no rows; each bin adds its rows in array order. Each label's column
    is gathered from a contiguous copy."""
    sums = np.empty((size, 2))
    for label, column in enumerate(np.ascontiguousarray(table.T)):
        sums[:, label] = np.bincount(bins, weights=column.take(rows), minlength=size)
    return sums


def _clique_scores(
    transition: np.ndarray, node: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log potentials from node scores of shape (..., L, 2): the start
    scores (..., 2) and the step scores (..., L-1, 2, 2)."""
    start = transition[BOS] + node[..., 0, :]
    steps = transition[1:] + node[..., 1:, None, :]
    return start, steps


def potentials(
    model: CrfModel, features_per_position: Sequence[frozenset[str]]
) -> PotentialTable:
    """log phi_i(prev, cur) = transition[prev, cur] + sum of emission weights
    of the features fired at i (unknown features are ignored), added from
    0.0 in the sorted order of their strings, whatever order a position's
    collection has: the reference over feature sets, equal to node_scores
    within rounding."""
    if not features_per_position:
        raise ValueError("cannot build potentials for an empty sentence")
    ids, tokens = _layout(model.feature_index, [sorted(f) for f in features_per_position])
    node = _label_sums(tokens, model.emission_weights, ids, len(features_per_position))
    start, steps = _clique_scores(model.transition_weights, node)
    return PotentialTable(start=start, steps=steps)


# A text enters a decoder's table on its second sighting, so one-off words
# never fill it. The table and the set of texts seen are each emptied when
# full.
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


class Decoder:
    """Stage II's inference state for one model: one emission weight dict per
    template prefix, keyed by the raw value after it (a PSEQ or SHSEQ triple
    by the tuple of its three parts), the transition rows as
    Python floats, and the per-text sums that node_scores keeps under the
    second-sighting rule of admit. PipelineModels builds one per model pair."""

    def __init__(self, model: CrfModel) -> None:
        self.model = model
        # A string of no template (none in a trained model) is dropped, and
        # so is a PSEQ or SHSEQ value that is not a triple: it never fires.
        self.weights: dict[str, dict] = {prefix: {} for prefix in TEMPLATES}
        for feature, row in zip(model.feature_index.strings(), model.emission_weights.tolist()):
            name, _, value = feature.partition("=")
            if name + "=" in (PSEQ, SHSEQ):
                value = tuple(value.split("_"))
                if len(value) != 3:
                    continue
            self.weights.get(name + "=", {})[value] = tuple(row)
        self.transitions = model.transition_weights.tolist()
        self.table: dict[str, tuple] = {}
        self.seen: set[str] = set()


def _text_sums(decoder: Decoder, text: str) -> tuple:
    """A token text's text_share through the decoder's weight pairs, with its
    own items summed from 0.0 in their order into the one item of a 1-tuple."""
    word, tag, shape, own, before, after, left, right = text_share(
        text, decoder.model.feature_config, decoder.weights
    )
    local_t = local_o = 0.0
    for t, o in own:
        local_t, local_o = local_t + t, local_o + o
    return word, tag, shape, ((local_t, local_o),), before, after, left, right


def node_scores(decoder: Decoder, texts: Sequence[str]) -> list[tuple[float, float]]:
    """The (T, O) node scores of a sentence of these token texts: at each
    position, the known weights of features.walk's items added from 0.0 in
    its documented order, the order training adds a position's ids in, so
    the two agree bit for bit. The decoder's table serves each text's own
    items pre-summed (_text_sums); starting from that sum equals adding its
    items, since a sum from 0.0 is never -0.0."""
    if not texts:
        raise ValueError("cannot build potentials for an empty sentence")
    table, seen = decoder.table, decoder.seen
    shares = [table.get(text) or admit(table, seen, text, _text_sums(decoder, text))
              for text in texts]
    firsts, spans = walk(shares, decoder.weights, decoder.model.feature_config.window)
    node_t, node_o = [], []
    for ((t, o),), neighbours in firsts:
        for a, b in filter(None, neighbours):
            t, o = t + a, o + b
        node_t.append(t)
        node_o.append(o)
    for (a, b), start, stop in spans:
        for i in range(start, stop):
            node_t[i] += a
            node_o[i] += b
    return list(zip(node_t, node_o))


def decode(decoder: Decoder, texts: Sequence[str]) -> list[TokenLabel]:
    """viterbi_from_table of node_scores' potential table, in Python floats:
    the clique scores add each transition row to a node score, as
    _clique_scores does, and go straight into the same Viterbi."""
    (first_t, first_o), *rest = node_scores(decoder, texts)
    (bos_t, bos_o), (tt, to), (ot, oo) = decoder.transitions
    steps = [((tt + t, to + o), (ot + t, oo + o)) for t, o in rest]
    return _viterbi((bos_t + first_t, bos_o + first_o), steps)


def _forward(start: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Log forward scores of a batch of equal-length chains, shape (n, L, 2):
    entry [k, i] sums over the prefixes of chain k that end at i."""
    alphas = np.empty((len(start), steps.shape[1] + 1, 2))
    alphas[:, 0] = start
    for j in range(steps.shape[1]):
        alphas[:, j + 1] = np.logaddexp.reduce(
            alphas[:, j, :, None] + steps[:, j], axis=1
        )
    return alphas


def _log_z(alphas: np.ndarray) -> np.ndarray:
    return np.logaddexp.reduce(alphas[:, -1], axis=1)


def _posteriors(
    start: np.ndarray, steps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-backward over a batch of equal-length chains: log Z (n,), node
    marginals (n, L, 2) and edge marginals (n, L-1, 2, 2)."""
    alphas = _forward(start, steps)
    # Backward scores: the forward recursion over the reversed, transposed chain.
    betas = _forward(np.zeros_like(start), steps[:, ::-1].swapaxes(2, 3))[:, ::-1]
    log_z = _log_z(alphas)
    node = np.exp(alphas + betas - log_z[:, None, None])
    edge = np.exp(
        alphas[:, :-1, :, None] + steps + betas[:, 1:, None, :]
        - log_z[:, None, None, None]
    )
    return log_z, node, edge


def _path_scores(
    start: np.ndarray, steps: np.ndarray, states: np.ndarray
) -> np.ndarray:
    """Unnormalized log score of one state path per chain; states is (n, L)."""
    chains = np.arange(len(states))
    score = start[chains, states[:, 0]]
    for j in range(steps.shape[1]):
        score = score + steps[chains, j, states[:, j], states[:, j + 1]]
    return score


def _viterbi(start: Sequence[float], steps: Sequence) -> list[TokenLabel]:
    """Best label sequence of log potentials as Python floats: start[cur] and
    steps[i][prev][cur]. Ties prefer O at the earliest differing position."""
    # best[i][s]: best score of positions i+1..L-1 given state s at i.
    best = [(0.0, 0.0)] * (1 + len(steps))
    after_t = after_o = 0.0
    for i in range(len(steps) - 1, -1, -1):
        (tt, to), (ot, oo) = steps[i]
        after_t, after_o = (
            max(tt + after_t, to + after_o),
            max(ot + after_t, oo + after_o),
        )
        best[i] = (after_t, after_o)

    start_t, start_o = start
    state = 0 if start_t + best[0][0] > start_o + best[0][1] else 1  # index 1 is O
    states = [state]
    for i in range(1, len(best)):
        row_t, row_o = steps[i - 1][state]
        state = 0 if row_t + best[i][0] > row_o + best[i][1] else 1
        states.append(state)
    return [LABELS[s] for s in states]


def viterbi_from_table(table: PotentialTable) -> list[TokenLabel]:
    """Best label sequence of a table; ties prefer O at the earliest
    differing position."""
    return _viterbi(table.start.tolist(), table.steps.tolist())


def viterbi(
    model: CrfModel, features_per_position: Sequence[frozenset[str]]
) -> list[TokenLabel]:
    return viterbi_from_table(potentials(model, features_per_position))


@dataclass
class PreparedDataset:
    """Training sequences with their feature ids in one flat array.

    Sequences are grouped by length, shortest first, keeping dataset order
    within a group, and tokens are numbered in that order. ``feature_ids[k]``
    fired at token ``tokens[k]``; ``states`` holds each token's gold state.
    Group ``(length, first, count)`` covers tokens ``first`` to
    ``first + length * count - 1``."""

    # (M,) intp: each token's known ids in the order of its strings, so node
    # scores add up as node_scores adds the walk's items.
    feature_ids: np.ndarray
    tokens: np.ndarray  # (M,) intp
    states: np.ndarray  # (N,) intp
    groups: list[tuple[int, int, int]]


def prepare_dataset(
    dataset: Sequence[TrainingSequence], index: FeatureIndex
) -> PreparedDataset:
    for features_per_position, gold in dataset:
        if len(features_per_position) != len(gold):
            raise LengthMismatchError(
                f"{len(gold)} labels for {len(features_per_position)} positions"
            )
    ordered = sorted(dataset, key=lambda sequence: len(sequence[1]))
    groups, first = [], 0
    for length, members in itertools.groupby(ordered, key=lambda sequence: len(sequence[1])):
        count = len(list(members))
        groups.append((length, first, count))
        first += length * count
    feature_ids, tokens = _layout(index, [fired for positions, _ in ordered for fired in positions])
    states = [_LABEL_INDEX[label] for _, gold in ordered for label in gold]
    return PreparedDataset(
        feature_ids=feature_ids,
        tokens=tokens,
        states=np.array(states, dtype=np.intp),
        groups=groups,
    )


def regularized_log_likelihood_and_gradient(
    prepared: PreparedDataset,
    emission: np.ndarray,
    transition: np.ndarray,
    l2: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective sum_seq log p(gold) - (l2/2)||w||^2 and its exact gradient
    (observed feature counts minus expected counts minus l2*w).

    Node scores and expected counts are sums over the flat feature ids;
    forward-backward runs once per position over each length group."""
    n_tokens = len(prepared.states)
    node = _label_sums(prepared.tokens, emission, prepared.feature_ids, n_tokens)
    # Per token: the gold state's indicator minus its posterior marginal.
    residual = np.empty((n_tokens, 2))
    value = 0.0
    grad_transition = np.zeros_like(transition)
    for length, first, count in prepared.groups:
        block = slice(first, first + length * count)
        states = prepared.states[block].reshape(count, length)
        start, steps = _clique_scores(
            transition, node[block].reshape(count, length, 2)
        )
        log_z, node_marginals, edge_marginals = _posteriors(start, steps)
        value += float((_path_scores(start, steps, states) - log_z).sum())
        residual[block] = -node_marginals.reshape(-1, 2)

        np.add.at(grad_transition[BOS], states[:, 0], 1.0)
        grad_transition[BOS] -= node_marginals[:, 0].sum(axis=0)
        np.add.at(grad_transition, (1 + states[:, :-1], states[:, 1:]), 1.0)
        grad_transition[1:] -= edge_marginals.sum(axis=(0, 1))

    residual[np.arange(n_tokens), prepared.states] += 1.0
    grad_emission = _label_sums(
        prepared.feature_ids, residual, prepared.tokens, len(emission)
    )

    value -= 0.5 * l2 * (float((emission**2).sum()) + float((transition**2).sum()))
    grad_emission -= l2 * emission
    grad_transition -= l2 * transition
    return value, grad_emission, grad_transition


# L-BFGS (Liu & Nocedal 1989): pairs kept, least y.s / s.s of a kept pair (it
# keeps the step scale s.y / y.y under 1e6, which 20 halvings undo), Armijo
# constant, halvings before the line search gives up, stopping tolerances.
_HISTORY, _CURVATURE_MIN, _ARMIJO_C1, _MAX_HALVINGS = 10, 1e-6, 1e-4, 20
_RELATIVE_TOL, _GRADIENT_TOL = 1e-11, 1e-5


def lbfgs_maximize(
    fun: Callable, x0: np.ndarray, max_iter: int, callback: Callable | None = None
) -> np.ndarray:
    """Maximize fun, which returns (value, gradient), from x0 by L-BFGS with a
    backtracking Armijo line search that halves from a unit step.

    Stops after max_iter steps, when a step raises the value by at most
    _RELATIVE_TOL * max(1, |value|), when ||g|| <= _GRADIENT_TOL * max(1, ||x||),
    or when the line search fails, where a non-finite value fails too. After
    each step, callback(step, x, value, gradient, evaluations)."""
    x = np.array(x0, dtype=float)
    value, grad = fun(x)
    evaluations = 1
    pairs: collections.deque = collections.deque(maxlen=_HISTORY)  # (s, y, 1 / y.s)
    for step in range(max_iter):
        if np.linalg.norm(grad) <= _GRADIENT_TOL * max(1.0, np.linalg.norm(x)):
            break
        # Two-loop recursion for the ascent direction H g. y = g_old - g_new is
        # the gradient change of -fun; H stays positive definite as y.s > 0.
        direction, alphas = grad.copy(), []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ direction))
            direction -= alphas[-1] * y
        direction *= scale if pairs else 1.0 / np.linalg.norm(grad)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            direction += (alpha - rho * (y @ direction)) * s
        slope, t = float(grad @ direction), 1.0
        for _ in range(_MAX_HALVINGS):
            trial = x + t * direction
            trial_value, trial_grad = fun(trial)
            evaluations += 1
            if np.isfinite(trial_value) and trial_value >= value + _ARMIJO_C1 * t * slope:
                break
            t /= 2
        else:
            break
        s, y = trial - x, grad - trial_grad
        if y @ s > _CURVATURE_MIN * (s @ s):
            pairs.append((s, y, 1.0 / (y @ s)))
            scale = (s @ y) / (y @ y)  # the newest pair's s.y / y.y
        if callback is not None:
            callback(step, trial, trial_value, trial_grad, evaluations)
        if trial_value - value <= _RELATIVE_TOL * max(abs(value), 1.0):
            return trial
        x, value, grad = trial, trial_value, trial_grad
    return x


def train_crf(
    dataset: Sequence[TrainingSequence],
    config: CrfConfig,
    callback: Callable[[int, dict], None] | None = None,
) -> CrfModel:
    """Maximize the regularized log-likelihood by L-BFGS from zero weights,
    for at most config.epochs steps, over the features fired at
    config.feature_min_count positions or more; deterministic.
    callback(step, metrics) gets the objective, the nll (minus the objective
    without its l2 penalty), the gradient norm and the objective evaluations
    so far."""
    check(config)
    if not dataset:
        raise ConfigError("training dataset is empty")
    index = FeatureIndex.build(
        (f for features, _ in dataset for f in features), min_count=config.feature_min_count
    )
    prepared = prepare_dataset(dataset, index)
    split = 2 * len(index)  # x is [emission.ravel(), transition.ravel()]

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad_emission, grad_transition = regularized_log_likelihood_and_gradient(
            prepared, x[:split].reshape(-1, 2), x[split:].reshape(3, 2), config.l2
        )
        return value, np.concatenate([grad_emission.ravel(), grad_transition.ravel()])

    def report(step, x, value, grad, evals):
        nll = -(value + 0.5 * config.l2 * float(x @ x))
        grad_norm = float(np.linalg.norm(grad))
        callback(step, dict(objective=value, nll=nll, grad_norm=grad_norm, evaluations=evals))

    x = lbfgs_maximize(objective, np.zeros(split + 6), config.epochs, callback and report)
    emission, transition = x[:split].reshape(-1, 2), x[split:].reshape(3, 2)
    return CrfModel(index, emission, transition, config.l2, config.feature_config)


def save_crf(model: CrfModel, path: str | Path) -> None:
    strings = model.feature_index.strings()
    with open(path, "wb") as fh:
        modelio.write_header(fh, MAGIC, VERSION)
        modelio.write_u32(fh, len(strings))
        for feature in strings:
            modelio.write_str(fh, feature)
        for label in LABELS:
            modelio.write_str(fh, label.value)
        modelio.write_f64(fh, model.l2)
        modelio.write_u32(fh, model.feature_config.ngram_min)
        modelio.write_u32(fh, model.feature_config.ngram_max)
        modelio.write_u32(fh, model.feature_config.window)
        modelio.write_matrix(fh, model.emission_weights)
        modelio.write_matrix(fh, model.transition_weights)


def load_crf(path: str | Path) -> CrfModel:
    with modelio.open_model(path) as fh:
        modelio.read_header(fh, MAGIC, VERSION)
        count = modelio.read_u32(fh)
        strings = [modelio.read_str(fh) for _ in range(count)]
        labels = tuple(modelio.read_str(fh) for _ in LABELS)
        if labels != tuple(l.value for l in LABELS):
            raise ModelFormatError(f"unexpected label order {labels}")
        l2 = modelio.read_f64(fh)
        feature_config = FeatureConfig(
            ngram_min=modelio.read_u32(fh),
            ngram_max=modelio.read_u32(fh),
            window=modelio.read_u32(fh),
        )
        emission = modelio.read_matrix(fh, (count, 2))
        transition = modelio.read_matrix(fh, (3, 2))
        modelio.read_end(fh)
    try:
        check(feature_config)
    except ConfigError as exc:
        raise ModelFormatError(f"bad feature config in the CRF model: {exc}") from exc
    index = FeatureIndex(strings)
    if len(index) != count:
        raise ModelFormatError("repeated feature strings in the CRF model")
    # Ids follow sorted-string order, but older files hold their strings in
    # first-seen order: the emission rows move with their strings.
    emission = emission[sorted(range(count), key=strings.__getitem__)]
    return CrfModel(
        feature_index=index,
        emission_weights=emission,
        transition_weights=transition,
        l2=l2,
        feature_config=feature_config,
    )
