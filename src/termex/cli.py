"""Command-line surface: annotate, train, extract, evaluate, synth, pipeline.

Exit codes: 0 success, 2 bad input, 3 non-finite loss during training."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import formats
from .cascade import PipelineModels, extract_from_document, extraction_to_json
from .classifier import load_classifier, save_classifier, train_classifier
from .config import RunConfig, check_bound, default_config_path, load_run_config
from .corpus import (
    SentenceLabel,
    annotate,
    balance,
    split_document,
)
from .crf import load_crf, save_crf, train_crf
from .embeddings import load_embeddings, save_embeddings, train_skipgram
from .errors import InputDataError, NonFiniteLossError, TermexError
from .evaluation import (
    evaluate_end_to_end,
    evaluate_spans,
    evaluate_stage1,
    evaluate_stage2,
    report_to_json,
)
from .pipeline import classifier_examples, crf_dataset, run_pipeline
from .render import render_ansi, render_html
from .synth import SynthConfig, generate_corpus

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _require(path: str | None, what: str) -> str:
    if path is None:
        raise InputDataError(f"missing required {what}")
    if not Path(path).exists():
        raise InputDataError(f"{what} not found: {path}")
    return path


def _load_config(args) -> RunConfig:
    cfg = load_run_config(args.config or default_config_path())
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def cmd_annotate(args) -> int:
    check_bound("seed", args.seed, "non-negative")
    gazetteer = formats.read_gazetteer(_require(args.gazetteer, "gazetteer file"))
    docs = formats.read_corpus_jsonl(_require(args.corpus, "corpus file"))
    annotated = [
        annotate(s, gazetteer) for doc in docs for s in split_document(doc)
    ]
    positives = sum(
        1 for s in annotated if s.sentence_label is SentenceLabel.CONTAINS_TECH
    )
    negatives = len(annotated) - positives
    # Balancing can fail on a one-class corpus, so it runs before any write.
    balanced = balance(annotated, args.seed) if args.balanced_out else None
    formats.write_conll(args.out, annotated)
    print(f"annotated {len(annotated)} sentences -> {args.out}")
    print(f"before balancing: {positives} positive, {negatives} negative")
    if balanced is not None:
        formats.write_conll(args.balanced_out, balanced)
        print(f"after balancing: {len(balanced) // 2} positive, {len(balanced) // 2} negative")
        print(f"balanced dataset -> {args.balanced_out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    if args.stage == "embeddings":
        docs = formats.read_corpus_jsonl(_require(args.corpus, "corpus file"))
        sentences = [s for doc in docs for s in split_document(doc)]
        model = train_skipgram(
            sentences,
            replace(cfg.embeddings, seed=cfg.seed),
            callback=lambda e, m: print(f"epoch {e}: loss={m['loss']:.6f}"),
        )
        save_embeddings(model, args.out)
        print(f"embeddings: |V|={len(model.vocab)}, dim={model.dim} -> {args.out}")
        return EXIT_OK

    if args.stage == "classifier":
        embedding = load_embeddings(_require(args.embeddings, "embeddings model"))
        train_set = formats.read_conll(_require(args.train, "training TSV"))
        val_set = (
            formats.read_conll(_require(args.validation, "validation TSV"))
            if args.validation
            else []
        )
        model = train_classifier(
            classifier_examples(embedding, train_set),
            classifier_examples(embedding, val_set),
            replace(cfg.classifier, seed=cfg.seed),
            callback=lambda e, m: print(
                f"epoch {e}: train_loss={m['train_loss']:.6f} "
                f"validation_f={m['validation_f']:.4f}"
            ),
        )
        save_classifier(model, args.out)
        print(f"classifier: d={model.d} -> {args.out}")
        return EXIT_OK

    train_set = formats.read_conll(_require(args.train, "training TSV"))
    dataset = crf_dataset(train_set, cfg.crf.feature_config)
    if not dataset:
        raise InputDataError("training TSV has no positive sentences for the CRF")
    model = train_crf(
        dataset,
        cfg.crf,
        callback=lambda e, m: print(f"iteration {e}:", *(f"{k}={v:.10g}" for k, v in m.items())),
    )
    save_crf(model, args.out)
    print(f"crf: {len(model.feature_index)} features -> {args.out}")
    return EXIT_OK


def _load_models(args) -> PipelineModels:
    return PipelineModels(
        embedding=load_embeddings(_require(args.embeddings, "embeddings model")),
        classifier=load_classifier(_require(args.classifier, "classifier model")),
        crf=load_crf(_require(args.crf, "crf model")),
    )


def cmd_extract(args) -> int:
    if args.gold and args.format == "jsonl":
        raise InputDataError("--gold applies to --format ansi and html only")
    models = _load_models(args)
    docs = formats.read_corpus_jsonl(_require(args.input, "corpus file"))
    gold = {}  # doc id -> its gold sentences
    if args.gold:
        for labeled in formats.read_conll(_require(args.gold, "gold TSV")):
            gold.setdefault(labeled.sentence.doc_id, []).append(labeled)
    missing = sorted(gold.keys() - {doc.id for doc in docs})
    if missing:
        raise InputDataError(f"gold document {missing[0]!r} is not in the corpus")

    per_doc = ((doc, extract_from_document(doc, models)) for doc in docs)
    if args.format == "jsonl":
        output = "".join(
            json.dumps(extraction_to_json(e)) + "\n"
            for _, extractions in per_doc
            for e in extractions
        )
    else:
        render = render_ansi if args.format == "ansi" else render_html
        pieces = (render(doc, extractions, gold.get(doc.id)) for doc, extractions in per_doc)
        output = "\n".join(pieces) + "\n"
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    else:
        sys.stdout.write(output)
    return EXIT_OK


_EVALUATORS = {
    "sentence": evaluate_stage1,
    "token": evaluate_stage2,
    "end_to_end": evaluate_end_to_end,
    "span": evaluate_spans,
}


def cmd_evaluate(args) -> int:
    models = _load_models(args)
    test = formats.read_conll(_require(args.test, "test TSV"))
    payload = report_to_json(_EVALUATORS[args.mode](models, test))
    print(f"mode: {payload['mode']}")
    print(
        f"tp={payload['tp']} fp={payload['fp']} tn={payload['tn']} fn={payload['fn']}"
    )
    print(
        f"precision={payload['precision']:.4f} recall={payload['recall']:.4f} "
        f"f_score={payload['f_score']:.4f}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"report -> {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    gazetteer = formats.read_gazetteer(_require(args.gazetteer, "gazetteer file"))
    config = SynthConfig(
        n_sentences=args.n,
        seed=args.seed,
        positive_rate=args.positive_rate,
        sentences_per_doc=args.sentences_per_doc,
    )
    docs, gold = generate_corpus(gazetteer, config)
    formats.write_corpus_jsonl(args.out_corpus, docs)
    formats.write_conll(args.out_gold, gold)
    positives = sum(
        1 for s in gold if s.sentence_label is SentenceLabel.CONTAINS_TECH
    )
    print(
        f"synthesized {len(gold)} sentences ({positives} positive) in "
        f"{len(docs)} documents"
    )
    print(f"corpus -> {args.out_corpus}")
    print(f"gold -> {args.out_gold}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg = _load_config(args)
    if args.gazetteer:
        cfg.gazetteer_path = args.gazetteer
    if args.corpus:
        cfg.corpus_path = args.corpus
    workdir = args.out or cfg.workdir
    run_pipeline(cfg, workdir=workdir, log=print)
    print(f"artifacts -> {workdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termex",
        description="Technology-term extraction: sentence filter + CRF tagger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="run seed; overrides the config's")
        p.add_argument("--config", default=None, help="INI config file")

    p = sub.add_parser("annotate", help="gazetteer-annotate a JSONL corpus into TSV")
    p.add_argument("--seed", type=int, default=0, help="balancing seed")
    p.add_argument("--corpus", required=True)
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--out", required=True, help="annotated TSV path")
    p.add_argument("--balanced-out", default=None, help="also write a balanced TSV")
    p.set_defaults(fn=cmd_annotate)

    p = sub.add_parser("train", help="train one pipeline stage")
    config_flags(p)
    p.add_argument("stage", choices=("embeddings", "classifier", "crf"))
    p.add_argument("--corpus", help="JSONL corpus (embeddings stage)")
    p.add_argument("--train", help="training TSV (classifier and crf stages)")
    p.add_argument("--validation", help="validation TSV (classifier stage)")
    p.add_argument("--embeddings", help="embeddings model (classifier stage)")
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("extract", help="run the cascade over a JSONL corpus")
    p.add_argument("--input", required=True, help="JSONL corpus")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--classifier", required=True)
    p.add_argument("--crf", required=True)
    p.add_argument("--format", choices=("jsonl", "ansi", "html"), default="jsonl")
    p.add_argument("--gold", default=None, help="gold TSV for missed-term marks")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("evaluate", help="score models against a gold TSV")
    p.add_argument("--test", required=True, help="gold TSV")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--classifier", required=True)
    p.add_argument("--crf", required=True)
    p.add_argument(
        "--mode",
        choices=tuple(_EVALUATORS),
        default="end_to_end",
    )
    p.add_argument("--out", default=None, help="JSON report path")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic corpus with gold labels")
    p.add_argument("--seed", type=int, default=0, help="corpus seed")
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--n", type=int, required=True, help="number of sentences")
    p.add_argument("--positive-rate", type=float, default=0.5)
    p.add_argument("--sentences-per-doc", type=int, default=5)
    p.add_argument("--out-corpus", required=True)
    p.add_argument("--out-gold", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser(
        "pipeline", help="synth/annotate -> balance -> split -> train x3 -> evaluate"
    )
    config_flags(p)
    p.add_argument("--gazetteer", default=None)
    p.add_argument("--corpus", default=None, help="JSONL corpus; omitted = synthesize")
    p.add_argument("--out", default=None, help="working directory")
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (TermexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
