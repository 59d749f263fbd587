import html
import re
import struct

import numpy as np
import pytest

from termex.classifier import ClassifierConfig
from termex.config import RunConfig
from termex.corpus import Gazetteer, load_gazetteer
from termex.crf import CrfConfig, regularized_log_likelihood_and_gradient
from termex.embeddings import (
    EmbeddingModel,
    SkipgramConfig,
    Vocabulary,
    center_plans,
    scatter_plans,
    sentence_step,
    step_constants,
)
from termex.errors import ConfigError, EmptyVocabularyError
from termex.pipeline import PipelineResult, run_pipeline

SINGLE_TERMS = [
    "tensorflow", "pytorch", "cortana", "kubernetes", "hadoop", "redis",
    "kafka", "spark", "airflow", "mlflow", "keras", "scikit", "numpy",
    "pandas", "jupyter", "docker", "terraform", "ansible", "grafana",
    "prometheus", "elasticsearch", "logstash", "kibana", "cassandra",
    "postgres", "sqlite", "mongodb", "rabbitmq", "zookeeper", "flink",
    "beam", "dask", "polars", "duckdb", "snowflake", "databricks",
    "tableau", "airbyte",
]
MULTI_TERMS = [
    "apache hive", "google cloud natural language api", "amazon web services",
    "azure machine learning", "apache spark streaming", "google cloud platform",
    "watson natural language understanding", "hugging face transformers",
    "stanford core nlp", "open neural network exchange", "vertex ai",
    "sage maker",
]
ALL_TERMS = SINGLE_TERMS + MULTI_TERMS


def gazetteer_text() -> str:
    lines = [t.capitalize() if " " not in t else t.title() for t in ALL_TERMS]
    return "\n".join(lines)


@pytest.fixture(scope="session")
def gazetteer() -> Gazetteer:
    return load_gazetteer(gazetteer_text())


@pytest.fixture(scope="session")
def gazetteer_file(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("gazetteer") / "gazetteer.txt"
    path.write_text(gazetteer_text(), encoding="utf-8")
    return str(path)


def strip_ansi(text: str) -> str:
    """The text of an ANSI rendering, without its escape codes."""
    return re.sub(r"\x1b\[[0-9;]*m", "", text)


def strip_html(text: str) -> str:
    """The text of an HTML rendering, without its tags and entities."""
    return html.unescape(re.sub(r"<[^>]*>", "", text))


def classifier_v1_bytes(projection, output_weights, bias, use_hidden: int) -> bytes:
    """A classifier.bin in the v1 layout: d, h, use_hidden, P (h x d), W, b."""
    h, d = projection.shape
    header = b"TXCLS" + struct.pack("<IIII", 1, d, h, use_hidden)
    return header + b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (projection, output_weights, bias)
    )


def embeddings_v1_bytes(words, input_vectors, output_vectors, counts, min_count=1) -> bytes:
    """An embeddings.bin in the v1 layout: dim, |V|, min_count, each word
    with its u64 count, then the input and output matrices."""
    size, dim = input_vectors.shape
    body = b"".join(
        struct.pack("<I", len(w.encode("utf-8"))) + w.encode("utf-8") + struct.pack("<Q", c)
        for w, c in zip(words, counts)
    )
    return (
        b"TXEMB" + struct.pack("<IIII", 1, dim, size, min_count) + body
        + b"".join(
            np.ascontiguousarray(a, dtype="<f8").tobytes()
            for a in (input_vectors, output_vectors)
        )
    )


def fast_config(gazetteer_path: str, n_sentences: int = 400, seed: int = 0) -> RunConfig:
    """Small models that still separate cleanly; keeps fixtures fast."""
    cfg = RunConfig()
    cfg.seed = seed
    cfg.gazetteer_path = gazetteer_path
    cfg.synth_sentences = n_sentences
    cfg.embeddings = SkipgramConfig(dim=32, window=5, negatives=5, epochs=3, learning_rate=0.05)
    cfg.classifier = ClassifierConfig(epochs=30, learning_rate=1.0)
    cfg.crf = CrfConfig(epochs=40)
    return cfg


@pytest.fixture(scope="session")
def small_run(gazetteer_file, tmp_path_factory) -> PipelineResult:
    workdir = tmp_path_factory.mktemp("small-run")
    cfg = fast_config(gazetteer_file)
    return run_pipeline(cfg, workdir=workdir)


def gradient_ascent_reference(prepared, n_features, l2, epochs=100, learning_rate=0.05):
    """The CRF trainer that L-BFGS replaced: full-batch gradient ascent at a
    fixed rate from zero weights. Returns the emission and transition weights."""
    emission, transition = np.zeros((n_features, 2)), np.zeros((3, 2))
    for _ in range(epochs):
        _, grad_emission, grad_transition = regularized_log_likelihood_and_gradient(
            prepared, emission, transition, l2
        )
        emission += learning_rate * grad_emission
        transition += learning_rate * grad_transition
    return emission, transition


def negative_sampling_loss(scores):
    """Summed loss over blocks of scores u_r . v_center, where column 0 scores
    the context word and the others the negatives:
    -log s(x_context) - sum_k log s(-x_negative_k) per block."""
    return float(
        np.logaddexp(0.0, -scores[..., 0]).sum()
        + np.logaddexp(0.0, scores[..., 1:]).sum()
    )


def pair_loss(input_vectors, output_vectors, centers, contexts, mask, negatives):
    """The per-pair negative-sampling losses summed over the pairs of mask,
    pair by pair: (centers[a], contexts[b]) with mask[a, b] scores the
    context word and center a's own negatives[a]."""
    total = 0.0
    for a, b in zip(*np.nonzero(mask)):
        rows = [contexts[b], *negatives[a]]
        total += negative_sampling_loss(
            output_vectors[rows] @ input_vectors[centers[a]]
        )
    return total


def step_args(centers, contexts, mask, negatives):
    """sentence_step's arguments after the two matrices, for one block with
    these centers, contexts, pairs and negatives, built by the functions
    training builds them with."""
    rows = np.concatenate([contexts, np.ravel(negatives)])
    constants = step_constants(mask, np.shape(negatives)[1])
    (center_plan,) = center_plans(centers, np.array([0, len(centers)]))
    (row_plan,) = scatter_plans(rows, np.array([0, len(rows)]))
    return centers, rows, constants, center_plan, row_plan


def step_gradients(input_vectors, output_vectors, centers, contexts, mask, negatives):
    """Gradients of pair_loss as the training step applies them: at learning
    rate 1 the step moves each matrix by minus its gradient."""
    inputs, outputs = input_vectors.copy(), output_vectors.copy()
    sentence_step(inputs, outputs, *step_args(centers, contexts, mask, negatives), 1.0)
    return input_vectors - inputs, output_vectors - outputs


def load_text_vectors(source) -> EmbeddingModel:
    """Embeddings from "word v1 ... vdim" lines, for hand-written test models."""
    lines = source.splitlines() if isinstance(source, str) else source
    words: list[str] = []
    rows: list[list[float]] = []
    for raw in lines:
        parts = raw.split()
        if not parts:
            continue
        words.append(parts[0].casefold())
        rows.append([float(x) for x in parts[1:]])
    if not rows:
        raise EmptyVocabularyError("no vectors in text source")
    dims = {len(r) for r in rows}
    if len(dims) != 1:
        raise ConfigError(f"inconsistent vector dimensions: {sorted(dims)}")
    return EmbeddingModel(Vocabulary(words), np.asarray(rows, dtype=np.float64))
