"""Writes criterion1.json, the behaviour pin of the criterion-1 pipeline
(50-term gazetteer, 2,000 sentences, default hyperparameters).

For each seed in SEEDS it records the sha256 of the pipeline's text outputs
(FILES), the tp/fp/tn/fn of every mode in reports.json, and the sha256 of
`termex extract --format jsonl` with that seed's models over two fixed
corpora: synthetic news, and an OOV-heavy corpus of pseudo-words (see
write_oov). Model bytes are not pinned: the matrix products go through
BLAS, whose kernels, and so whose rounding, differ by CPU.

A change that alters behaviour on purpose regenerates the file, from the
repository root:

    PYTHONPATH=src python -m tests.golden.make_criterion1
"""

from __future__ import annotations

import hashlib
import json
import random
import string
import tempfile
from pathlib import Path

from termex import cli, formats
from termex.config import RunConfig
from termex.pipeline import run_pipeline
from termex.corpus import Document, split_document
from termex.synth import ADVERBS, SUBJECTS, VERBS, SynthConfig, generate_corpus

GOLDEN = Path(__file__).with_name("criterion1.json")
SEEDS = (0, 7, 101)
FILES = ("corpus.jsonl", "annotated.tsv", "train.tsv", "validation.tsv", "test.tsv")
# The news corpus that extract runs over: 200 documents of 5 sentences.
NEWS = SynthConfig(n_sentences=1000, seed=1, positive_rate=0.5, sentences_per_doc=5)
# The OOV-heavy corpus: 200 documents of 5 sentences, from this seed.
OOV_DOCS, OOV_SENTENCES, OOV_SEED = 200, 5, 1


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


def _pseudo_word(rng: random.Random, reserved: set[str]) -> str:
    """A word of one of five shapes (lower, Capitalised, UPPER, letters and
    digits, hyphenated) that folds to no gazetteer token."""
    lower, digits = string.ascii_lowercase, string.digits
    while True:
        shape = rng.randrange(5)
        letters = "".join(rng.choices(lower, k=rng.randint(2, 8)))
        if shape == 1:
            letters = letters.capitalize()
        elif shape == 2:
            letters = letters.upper()
        elif shape == 3:
            letters += "".join(rng.choices(digits, k=rng.randint(1, 3)))
        elif shape == 4:
            letters += "-" + "".join(rng.choices(lower, k=rng.randint(2, 6)))
        if letters.casefold() not in reserved:
            return letters


def write_oov(gazetteer_path: str, path: Path) -> Path:
    """The OOV-heavy corpus, where stage II decides from orthography and
    context rather than from known words. Each sentence starts with a synth
    subject or, half the time, a capitalised pseudo-word; then come a synth
    verb and 6-20 pseudo-words. Half the sentences get a gazetteer term at a
    random place after the first word, which takes the first word's tag and
    shape triples out of the training distribution. A synth adverb and a
    period end the sentence."""
    gazetteer = formats.read_gazetteer(gazetteer_path)
    reserved = {tok for entry in gazetteer.entries for tok in entry}
    terms = sorted(gazetteer.surface_forms.values())
    rng = random.Random(OOV_SEED)
    docs = []
    for d in range(OOV_DOCS):
        sentences = []
        for _ in range(OOV_SENTENCES):
            first = rng.choice(SUBJECTS) if rng.random() < 0.5 else (
                _pseudo_word(rng, reserved).capitalize()
            )
            words = [first, rng.choice(VERBS)] + [
                _pseudo_word(rng, reserved) for _ in range(rng.randint(6, 20))
            ]
            if rng.random() < 0.5:
                words.insert(rng.randint(1, len(words)), rng.choice(terms))
            sentences.append(" ".join(words + [rng.choice(ADVERBS)]) + ".")
        doc = Document(id=f"oov-{d:05d}", text=" ".join(sentences))
        if len(split_document(doc)) != OOV_SENTENCES:
            raise RuntimeError(f"document {doc.id} does not split into {OOV_SENTENCES} sentences")
        docs.append(doc)
    formats.write_corpus_jsonl(path, docs)
    return path


def extract(workdir: Path, corpus: Path) -> str:
    """The sha256 of `termex extract --format jsonl` over corpus with the
    models in workdir."""
    extractions = corpus.with_name(corpus.stem + "-extractions.jsonl")
    status = cli.main([
        "extract", "--input", str(corpus), "--format", "jsonl", "--out", str(extractions),
        "--embeddings", str(workdir / "embeddings.bin"),
        "--classifier", str(workdir / "classifier.bin"),
        "--crf", str(workdir / "crf.bin"),
    ])
    if status != 0:
        raise RuntimeError(f"termex extract exited {status}")
    return sha256(extractions)


def record(workdir: Path, news: Path, oov: Path) -> dict:
    """The pinned fields of one pipeline run whose outputs are in workdir."""
    reports = json.loads((workdir / "reports.json").read_text(encoding="utf-8"))
    return {
        **{name: sha256(workdir / name) for name in FILES},
        **{
            f"reports.{mode}.{count}": report[count]
            for mode, report in reports.items()
            for count in ("tp", "fp", "tn", "fn")
        },
        "extract.jsonl": extract(workdir, news),
        "extract_oov.jsonl": extract(workdir, oov),
    }


def main() -> None:
    from tests.conftest import gazetteer_text

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        gazetteer = base / "gazetteer.txt"
        gazetteer.write_text(gazetteer_text(), encoding="utf-8")
        news = write_news(str(gazetteer), base / "news.jsonl")
        oov = write_oov(str(gazetteer), base / "oov.jsonl")
        pins = {}
        for seed in SEEDS:
            workdir = base / f"seed{seed}"
            run_pipeline(criterion1_config(seed, str(gazetteer)), workdir=workdir)
            pins[str(seed)] = record(workdir, news, oov)
    GOLDEN.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
