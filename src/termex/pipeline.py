"""End-to-end orchestration: corpus in (or synthesized), annotated dataset,
trained models, and evaluation reports out."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from . import formats
from .cascade import PipelineModels
from .classifier import save_classifier, train_classifier
from .config import RunConfig
from .corpus import (
    DatasetSplit,
    LabeledSentence,
    SentenceLabel,
    annotate,
    balance,
    split_dataset,
    split_document,
)
from .crf import save_crf, train_crf
from .embeddings import EmbeddingModel, embed_sentence, save_embeddings, train_skipgram
from .errors import ConfigError
from .evaluation import (
    EvalReport,
    evaluate_end_to_end,
    evaluate_stage1,
    evaluate_stage2,
    report_to_json,
)
from .features import feature_lists
from .synth import generate_corpus


@dataclass
class PipelineResult:
    models: PipelineModels
    split: DatasetSplit
    reports: dict[str, EvalReport]
    paths: dict[str, str]


def classifier_examples(model: EmbeddingModel, sentences: list[LabeledSentence]):
    return [
        (embed_sentence(model, s.sentence), s.sentence_label) for s in sentences
    ]


def crf_dataset(sentences: list[LabeledSentence], feature_config):
    """Stage-II training pairs from the gold-positive sentences only: each
    position's feature strings, from one features.feature_lists call."""
    positives = [s for s in sentences if s.sentence_label is SentenceLabel.CONTAINS_TECH]
    fired = feature_lists((s.sentence.token_texts() for s in positives), feature_config)
    return [(positions, list(s.token_labels)) for s, positions in zip(positives, fired)]


def run_pipeline(
    cfg: RunConfig,
    workdir: str | Path | None = None,
    log: Callable[[str], None] | None = None,
) -> PipelineResult:
    """Synthesize or load a corpus, annotate, balance, split, train the three
    models, evaluate, and persist everything under the working directory."""
    say = log or (lambda _msg: None)
    cfg.validate()
    out = Path(workdir if workdir is not None else cfg.workdir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.gazetteer_path is None:
        raise ConfigError("a gazetteer path is required")
    gazetteer = formats.read_gazetteer(cfg.gazetteer_path)

    if cfg.corpus_path is not None:
        docs = formats.read_corpus_jsonl(cfg.corpus_path)
        say(f"loaded {len(docs)} documents from {cfg.corpus_path}")
        sentences = [s for doc in docs for s in split_document(doc)]
    else:
        docs, gold = generate_corpus(gazetteer, cfg.synth())
        formats.write_corpus_jsonl(out / "corpus.jsonl", docs)
        say(f"synthesized {len(docs)} documents into {out / 'corpus.jsonl'}")
        # generate_corpus has split every document, in order, already.
        sentences = [g.sentence for g in gold]

    annotated = [annotate(s, gazetteer) for s in sentences]
    positives = sum(
        1 for s in annotated if s.sentence_label is SentenceLabel.CONTAINS_TECH
    )
    negatives = len(annotated) - positives
    say(f"annotated {len(annotated)} sentences: {positives} positive, {negatives} negative")
    formats.write_conll(out / "annotated.tsv", annotated)

    balanced = balance(annotated, cfg.seed)
    say(f"balanced dataset: {len(balanced)} sentences ({len(balanced) // 2} per class)")
    split = split_dataset(balanced, cfg.ratios, cfg.seed)
    say(
        f"split: {len(split.train)} train / {len(split.validation)} validation / "
        f"{len(split.test)} test"
    )
    formats.write_conll(out / "train.tsv", split.train)
    formats.write_conll(out / "validation.tsv", split.validation)
    formats.write_conll(out / "test.tsv", split.test)

    embedding = train_skipgram(
        [s.sentence for s in annotated], replace(cfg.embeddings, seed=cfg.seed)
    )
    save_embeddings(embedding, out / "embeddings.bin")
    say(f"trained embeddings: |V|={len(embedding.vocab)}, dim={embedding.dim}")

    classifier = train_classifier(
        classifier_examples(embedding, split.train),
        classifier_examples(embedding, split.validation),
        replace(cfg.classifier, seed=cfg.seed),
    )
    save_classifier(classifier, out / "classifier.bin")
    say("trained sentence classifier")

    crf = train_crf(crf_dataset(split.train, cfg.crf.feature_config), cfg.crf)
    save_crf(crf, out / "crf.bin")
    say(f"trained CRF: {len(crf.feature_index)} features")

    models = PipelineModels(embedding=embedding, classifier=classifier, crf=crf)
    reports = {
        "sentence": evaluate_stage1(models, split.test),
        "token": evaluate_stage2(models, split.test),
        "end_to_end": evaluate_end_to_end(models, split.test),
    }
    with open(out / "reports.json", "w", encoding="utf-8") as fh:
        json.dump({k: report_to_json(r) for k, r in reports.items()}, fh, indent=2)
    for name, report in reports.items():
        say(
            f"{name}: precision={report.precision:.4f} recall={report.recall:.4f} "
            f"f={report.f_score:.4f}"
        )

    paths = {
        "annotated": str(out / "annotated.tsv"),
        "embeddings": str(out / "embeddings.bin"),
        "classifier": str(out / "classifier.bin"),
        "crf": str(out / "crf.bin"),
        "reports": str(out / "reports.json"),
    }
    return PipelineResult(
        models=models,
        split=split,
        reports=reports,
        paths=paths,
    )
