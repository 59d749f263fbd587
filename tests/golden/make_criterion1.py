"""Writes criterion1.json, the behaviour pin of the criterion-1 pipeline
(50-term gazetteer, 2,000 sentences, default hyperparameters).

For each seed in SEEDS it records the sha256 of the pipeline's text outputs
(FILES), the tp/fp/tn/fn of every mode in reports.json, and the sha256 of
`termex extract --format jsonl` over a fixed synthetic news corpus with that
seed's models. Model bytes are not pinned: the matrix products go through
BLAS, whose kernels, and so whose rounding, differ by CPU.

A change that alters behaviour on purpose regenerates the file, from the
repository root:

    PYTHONPATH=src python -m tests.golden.make_criterion1
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from termex import cli, formats
from termex.config import RunConfig
from termex.pipeline import run_pipeline
from termex.synth import SynthConfig, generate_corpus

GOLDEN = Path(__file__).with_name("criterion1.json")
SEEDS = (0, 7, 101)
FILES = ("corpus.jsonl", "annotated.tsv", "train.tsv", "validation.tsv", "test.tsv")
# The news corpus that extract runs over: 200 documents of 5 sentences.
NEWS = SynthConfig(n_sentences=1000, seed=1, positive_rate=0.5, sentences_per_doc=5)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def criterion1_config(seed: int, gazetteer_path: str) -> RunConfig:
    cfg = RunConfig()
    cfg.seed = seed
    cfg.gazetteer_path = gazetteer_path
    cfg.synth_sentences = 2000
    return cfg


def write_news(gazetteer_path: str, path: Path) -> Path:
    docs, _ = generate_corpus(formats.read_gazetteer(gazetteer_path), NEWS)
    formats.write_corpus_jsonl(path, docs)
    return path


def record(workdir: Path, news: Path) -> dict:
    """The pinned fields of one pipeline run whose outputs are in workdir."""
    reports = json.loads((workdir / "reports.json").read_text(encoding="utf-8"))
    extractions = news.with_name(news.stem + "-extractions.jsonl")
    status = cli.main([
        "extract", "--input", str(news), "--format", "jsonl", "--out", str(extractions),
        "--embeddings", str(workdir / "embeddings.bin"),
        "--classifier", str(workdir / "classifier.bin"),
        "--crf", str(workdir / "crf.bin"),
    ])
    if status != 0:
        raise RuntimeError(f"termex extract exited {status}")
    return {
        **{name: sha256(workdir / name) for name in FILES},
        **{
            f"reports.{mode}.{count}": report[count]
            for mode, report in reports.items()
            for count in ("tp", "fp", "tn", "fn")
        },
        "extract.jsonl": sha256(extractions),
    }


def main() -> None:
    from tests.conftest import gazetteer_text

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        gazetteer = base / "gazetteer.txt"
        gazetteer.write_text(gazetteer_text(), encoding="utf-8")
        news = write_news(str(gazetteer), base / "news.jsonl")
        pins = {}
        for seed in SEEDS:
            workdir = base / f"seed{seed}"
            run_pipeline(criterion1_config(seed, str(gazetteer)), workdir=workdir)
            pins[str(seed)] = record(workdir, news)
    GOLDEN.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
