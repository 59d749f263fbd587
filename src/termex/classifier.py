"""Stage-I sentence classifier: softmax cross-entropy over averaged sentence
vectors, with no hidden layer."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import modelio
from .config import ClassifierConfig, check
from .corpus import SentenceLabel
from .embeddings import SentenceVector
from .evaluation import ConfusionCounts, f_score
from .errors import (
    ConfigError,
    DimensionMismatchError,
    ModelFormatError,
    NonFiniteLossError,
)

MAGIC = b"TXCLS"
VERSION = 2

# Probability/logit index 0 is the positive class.
CLASS_ORDER = (SentenceLabel.CONTAINS_TECH, SentenceLabel.NO_TECH)
_CLASS_INDEX = {label: i for i, label in enumerate(CLASS_ORDER)}

Example = tuple[SentenceVector, SentenceLabel]


@dataclass
class ClassifierModel:
    output_weights: np.ndarray  # (2, d)
    bias: np.ndarray  # (2,)

    @property
    def d(self) -> int:
        return self.output_weights.shape[1]


@dataclass(frozen=True)
class Prediction:
    label: SentenceLabel
    probabilities: np.ndarray  # (2,) in CLASS_ORDER


def new_model(d: int, seed: int = 0) -> ClassifierModel:
    rng = np.random.default_rng(seed)
    return ClassifierModel(rng.uniform(-0.01, 0.01, size=(2, d)), np.zeros(2))


def _stack(batch: Sequence[Example], d: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.empty((len(batch), d))
    ys = np.empty(len(batch), dtype=np.int64)
    for i, (vec, label) in enumerate(batch):
        if vec.values.shape != (d,):
            raise DimensionMismatchError(
                f"sentence vector has dim {vec.values.shape}, model expects {d}"
            )
        xs[i] = vec.values
        ys[i] = _CLASS_INDEX[label]
    return xs, ys


def _forward(model: ClassifierModel, xs: np.ndarray) -> np.ndarray:
    return xs @ model.output_weights.T + model.bias


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis, shifted by its max so that no
    exp overflows."""
    m = logits.max(axis=-1, keepdims=True)
    return logits - (m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)))


def _mean_nll(model: ClassifierModel, xs: np.ndarray, ys: np.ndarray) -> float:
    logp = _log_softmax(_forward(model, xs))
    return float(-logp[np.arange(len(ys)), ys].mean())


def loss_and_gradients(
    model: ClassifierModel, xs: np.ndarray, ys: np.ndarray, l2: float = 0.0
) -> tuple[float, dict[str, np.ndarray]]:
    """Regularized loss and its exact gradients for the trained parameters.

    The L2 penalty (l2/2)*||W||^2 covers output_weights; the bias is never
    regularized."""
    n = len(ys)
    logp = _log_softmax(_forward(model, xs))
    value = -logp[np.arange(n), ys].mean()

    probs = np.exp(logp)
    dlogits = probs
    dlogits[np.arange(n), ys] -= 1.0
    dlogits /= n

    grads = {
        "output_weights": dlogits.T @ xs + l2 * model.output_weights,
        "bias": dlogits.sum(axis=0),
    }
    value += 0.5 * l2 * float((model.output_weights**2).sum())
    return float(value), grads


def predict(model: ClassifierModel, vector: SentenceVector) -> Prediction:
    """Softmax probabilities and the label: ContainsTech when its logit is the
    larger, as in cascade.gate, so a tie goes to NoTech.

    The vector-level reference that tests hold the cascade's gate to.

    A sentence with no in-vocabulary token (contributing_count == 0), or with
    only punctuation ones (punctuation_only), carries no evidence, so it is
    NoTech whatever the bias favours; its probabilities are still the model's.
    SYM tokens such as `node.js` and `$` are evidence."""
    if vector.values.shape != (model.d,):
        raise DimensionMismatchError(
            f"sentence vector has dim {vector.values.shape}, model expects {model.d}"
        )
    logits = _forward(model, vector.values[None, :])[0]
    label = (
        SentenceLabel.CONTAINS_TECH
        if logits[0] > logits[1] and vector.contributing_count > 0 and not vector.punctuation_only
        else SentenceLabel.NO_TECH
    )
    return Prediction(label=label, probabilities=np.exp(_log_softmax(logits)))


def _f_score_against(model: ClassifierModel, xs: np.ndarray, ys: np.ndarray) -> float:
    logits = _forward(model, xs)
    predicted = np.where(logits[:, 0] > logits[:, 1], 0, 1)
    tp = int(((predicted == 0) & (ys == 0)).sum())
    fp = int(((predicted == 0) & (ys == 1)).sum())
    fn = int(((predicted == 1) & (ys == 0)).sum())
    return f_score(ConfusionCounts(tp=tp, fp=fp, fn=fn)).f_score


def train_classifier(
    train: Sequence[Example],
    validation: Sequence[Example],
    config: ClassifierConfig,
    callback: Callable[[int, dict], None] | None = None,
) -> ClassifierModel:
    """Mini-batch SGD on the cross-entropy objective plus L2.

    Returns the checkpoint from the epoch with the best validation F-score
    (training F-score stands in when no validation set is given).
    Deterministic under the config seed."""
    check(config)
    if not train:
        raise ConfigError("training set is empty")
    d = train[0][0].values.shape[0]
    xs, ys = _stack(train, d)
    if validation:
        val_xs, val_ys = _stack(validation, d)
    else:
        val_xs, val_ys = xs, ys

    rng = np.random.default_rng(config.seed)
    model = new_model(d, seed=config.seed)
    best = _checkpoint(model)
    best_f = -1.0

    for epoch in range(config.epochs):
        order = rng.permutation(len(ys))
        for at in range(0, len(ys), config.batch_size):
            rows = order[at : at + config.batch_size]
            _, grads = loss_and_gradients(model, xs[rows], ys[rows], config.l2)
            model.output_weights -= config.learning_rate * grads["output_weights"]
            model.bias -= config.learning_rate * grads["bias"]

        epoch_loss = _mean_nll(model, xs, ys)
        if not np.isfinite(epoch_loss):
            raise NonFiniteLossError(f"classifier loss diverged at epoch {epoch}")
        val_f = _f_score_against(model, val_xs, val_ys)
        if val_f > best_f:
            best_f = val_f
            best = _checkpoint(model)
        if callback is not None:
            callback(epoch, {"train_loss": epoch_loss, "validation_f": val_f})

    return best


def _checkpoint(model: ClassifierModel) -> ClassifierModel:
    return ClassifierModel(model.output_weights.copy(), model.bias.copy())


def save_classifier(model: ClassifierModel, path: str | Path) -> None:
    with open(path, "wb") as fh:
        modelio.write_header(fh, MAGIC, VERSION)
        modelio.write_u32(fh, model.d)
        modelio.write_matrix(fh, model.output_weights)
        modelio.write_matrix(fh, model.bias)


def load_classifier(path: str | Path) -> ClassifierModel:
    """Read a v2 file (d, W, b) or a v1 one (d, h, use_hidden, P, W, b).

    An untrained v1 projection is the identity and is dropped; a trained one
    has no nonlinearity after it, so it folds into W as W @ P."""
    with modelio.open_model(path) as fh:
        version = modelio.read_header(fh, MAGIC, VERSION)
        d = h = modelio.read_u32(fh)
        if version == 1:
            h = modelio.read_u32(fh)
            use_hidden = modelio.read_u32(fh)
            projection = modelio.read_matrix(fh, (h, d))
        output_weights = modelio.read_matrix(fh, (2, h))
        bias = modelio.read_matrix(fh, (2,))
        modelio.read_end(fh)
    if version == 1:
        if use_hidden:
            output_weights = output_weights @ projection
        elif not (h == d and np.array_equal(projection, np.eye(d))):
            raise ModelFormatError("untrained classifier projection is not the identity")
    return ClassifierModel(output_weights, bias)
