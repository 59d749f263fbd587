"""termex benchmark: runs one workload, checks its outputs and prints its
metrics, ending with one JSON line.

    python3 perfbench/run.py --workload extract_news --seed 1 --seconds 20 --trace 0

Run it from a termex checkout; it imports the package from src/.

Workloads, each a closed loop with one caller: a call starts only after the
previous one returned.

  train_c1          `pipeline.run_pipeline` at the criterion-1 configuration:
                    2,000 synthetic sentences from the workload seed, the demo
                    gazetteer and default hyperparameters. One operation is
                    one pipeline run.
  extract_news      `cascade.extract_from_document` over 1,000 synthetic news
                    documents (5 sentences each, half positive) drawn with
                    seed + 1, never the models' training seed 0. One operation
                    is one document.
  extract_longtail  the same models over 1,000 documents of long pseudo-word
                    sentences from `longtail.py`.

The extract workloads use models trained once per source tree at the
criterion-1 configuration with seed 0 and cached under .bench_build/.

--trace 0 runs operations until --seconds have been spent inside them (an
extract workload always finishes one pass over its documents) and prints the
end-to-end metrics:

  setup_s           median of 5 set-ups spread over the run: loading the
                    models (extract only) and generating the inputs
  latency_ms_p50/99 per operation: a document, or a whole pipeline run
  sents_per_s       sentences extracted, or trained on, per busy second
  sentence_f        F of the sentence gate against the gold
  token_f           token F of the CRF alone on the gold-positive sentences
  end_to_end_f      token F of the gated cascade on every sentence
  success_rate      operations that raised nothing, over those attempted
  peak_rss_mb       the process's peak resident memory

On train_c1 the F-scores are the pipeline's own reports; on the extract
workloads they are computed here from the extractions and the generator's
gold.

--trace 1 makes one untraced pass, then the same pass with spans around every
call into the package's layers (see tracer.py), checks that both give the
same outputs, and prints the per-layer metrics; the untraced pass's wall time
subtracted from the traced one is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GAZETTEER = ROOT / "demo" / "gazetteer.txt"
BUILD = ROOT / ".bench_build"

TRAIN_SENTENCES = 2000
MODEL_SEED = 0
EXTRACT_DOCS = 1000
SENTENCES_PER_DOC = 5
# Set-up is timed this many times, spread over the run, and reported as the
# median. The host's speed changes every few seconds, so repeats made back
# to back would all see the same speed.
SETUP_REPEATS = 5
# The paper's acceptance bar, on the training run and on in-distribution news.
F_FLOOR = 0.90

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "sents_per_s": "sents/s",
    "sentence_f": "ratio",
    "token_f": "ratio",
    "end_to_end_f": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".calls", "_count", ".tokens_decoded", "_sentences")):
        return "count"
    return "ratio"


class Tally:
    """Operations attempted and failed, and the output checks that failed.

    A failing operation is counted and the run goes on."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # every failure is counted, none ends the run
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return None

    def check(self, ok: bool, problem: str) -> None:
        if not ok and problem not in self.problems:
            self.problems.append(problem)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Confusion:
    def __init__(self) -> None:
        self.tp = self.fp = self.fn = 0

    def add(self, gold: bool, predicted: bool) -> None:
        self.tp += gold and predicted
        self.fp += predicted and not gold
        self.fn += gold and not predicted

    def f(self) -> float:
        return 2 * self.tp / (2 * self.tp + self.fp + self.fn) if self.tp else 0.0


def criterion_1(seed: int):
    from termex.config import RunConfig

    cfg = RunConfig()
    cfg.seed = seed
    cfg.gazetteer_path = str(GAZETTEER)
    cfg.synth_sentences = TRAIN_SENTENCES
    return cfg


def _digest(base: Path, paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(base)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def reference_models() -> Path:
    """Directory of the extract workloads' models, trained on first use."""
    from termex import pipeline

    sources = sorted((SRC / "termex").rglob("*.py")) + [GAZETTEER]
    target = BUILD / f"models-c1-{TRAIN_SENTENCES}-seed{MODEL_SEED}-{_digest(ROOT, sources)[:16]}"
    if not (target / "crf.bin").is_file():
        print(f"training the reference models into {target.relative_to(ROOT)}", file=sys.stderr)
        staging = Path(tempfile.mkdtemp(dir=BUILD, prefix="train-"))
        try:
            pipeline.run_pipeline(criterion_1(MODEL_SEED), workdir=staging)
            shutil.rmtree(target, ignore_errors=True)
            staging.rename(target)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return target


class TrainC1:
    name = "train_c1"
    model_dir = None
    # Other names for some end-to-end figures: name -> (metric, scale, unit).
    aliases = {"train_s": ("latency_ms_p50", 1e-3, "s")}

    def inputs(self, seed: int):
        """The corpus the pipeline must synthesize; the run checks it did."""
        from termex import formats, synth

        cfg = criterion_1(seed)
        docs, _ = synth.generate_corpus(formats.read_gazetteer(GAZETTEER), cfg.synth())
        return cfg, [(d.id, d.text) for d in docs], frozenset()

    def load(self):
        return None

    def one_op(self, models, inputs, index: int):
        from termex import pipeline

        cfg, expected_docs, _ = inputs
        workdir = Path(tempfile.mkdtemp(dir=BUILD, prefix="run-"))
        try:
            result = pipeline.run_pipeline(cfg, workdir=workdir)
            with open(workdir / "corpus.jsonl", encoding="utf-8") as fh:
                written = [(o["id"], o["text"]) for o in map(json.loads, fh)]
            names = ("reports.json", "embeddings.bin", "classifier.bin", "crf.bin")
            return {
                "f": {k: r.f_score for k, r in result.reports.items()},
                "corpus_matches_seed": written == expected_docs,
                "artifacts": _digest(workdir, [workdir / n for n in names]),
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def n_ops(self, inputs) -> int:
        return 1

    def sentences(self, output) -> int:
        return TRAIN_SENTENCES

    def quality(self, models, inputs, outputs, tally: Tally) -> dict[str, float]:
        done = [o for o in outputs if o is not None]
        if not done:
            return {"sentence_f": 0.0, "token_f": 0.0, "end_to_end_f": 0.0}
        f = done[0]["f"]
        metrics = {"sentence_f": f["sentence"], "token_f": f["token"],
                   "end_to_end_f": f["end_to_end"]}
        for name, value in metrics.items():
            tally.check(value >= F_FLOOR, f"{name} {value:.4f} is under {F_FLOOR}")
        tally.check(all(o["corpus_matches_seed"] for o in done),
                    "the pipeline did not synthesize the seeded corpus")
        return metrics


class Extract:
    """`extract_from_document` over a fixed, seeded document set."""

    aliases = {
        "extract_sents_per_s": ("sents_per_s", 1.0, "sents/s"),
        "doc_latency_ms_p50": ("latency_ms_p50", 1.0, "ms"),
        "doc_latency_ms_p99": ("latency_ms_p99", 1.0, "ms"),
        "extract_token_f": ("end_to_end_f", 1.0, "ratio"),
    }

    def __init__(self, name: str, f_floor: float | None) -> None:
        self.name = name
        self.f_floor = f_floor
        self.model_dir = None

    def inputs(self, seed: int):
        from termex import formats, synth
        from termex.corpus import SentenceLabel

        gazetteer = formats.read_gazetteer(GAZETTEER)
        if self.name == "extract_news":
            config = synth.SynthConfig(
                n_sentences=EXTRACT_DOCS * SENTENCES_PER_DOC, seed=seed + 1,
                positive_rate=0.5, sentences_per_doc=SENTENCES_PER_DOC,
            )
            docs, gold = synth.generate_corpus(gazetteer, config)
        else:
            import longtail

            docs, gold = longtail.generate(gazetteer, EXTRACT_DOCS, seed)
        positives = frozenset(
            (g.sentence.doc_id, g.sentence.index)
            for g in gold if g.sentence_label is SentenceLabel.CONTAINS_TECH
        )
        return docs, gold, positives

    def load(self):
        from termex import cascade, classifier, crf, embeddings

        return cascade.PipelineModels(
            embedding=embeddings.load_embeddings(self.model_dir / "embeddings.bin"),
            classifier=classifier.load_classifier(self.model_dir / "classifier.bin"),
            crf=crf.load_crf(self.model_dir / "crf.bin"),
        )

    def one_op(self, models, inputs, index: int):
        from termex import cascade

        return cascade.extract_from_document(inputs[0][index], models)

    def n_ops(self, inputs) -> int:
        return len(inputs[0])

    def sentences(self, output) -> int:
        return len(output)

    def quality(self, models, inputs, outputs, tally: Tally) -> dict[str, float]:
        """F of the extractions against the generator's gold: sentence F of
        the gate, token F over every sentence (end to end), and token F of
        the CRF alone over the gold-positive sentences (stage II)."""
        from termex import crf, features
        from termex.corpus import SentenceLabel, TokenLabel

        _, gold, _ = inputs
        tally.check(None not in outputs, "a document failed")
        flat = [e for doc_out in outputs if doc_out is not None for e in doc_out]
        tally.check(len(flat) == len(gold), "sentence counts differ from the gold")
        sentence, end_to_end, stage2 = Confusion(), Confusion(), Confusion()
        for e, g in zip(flat, gold):
            tokens = g.sentence.tokens
            tally.check((e.doc_id, e.sentence_index) == (g.sentence.doc_id, g.sentence.index),
                        "extractions are out of step with the gold sentences")
            tally.check(e.sentence_positive or not e.term_spans,
                        "a negative sentence has spans")
            predicted = [False] * len(tokens)
            last_end = -2
            for span in e.term_spans:
                valid = last_end + 1 < span.start <= span.end < len(tokens)
                tally.check(valid, "spans overlap, touch or leave the sentence")
                if not valid:
                    continue
                tally.check(span.text == " ".join(t.text for t in tokens[span.start:span.end + 1]),
                            "span text differs from its tokens")
                predicted[span.start:span.end + 1] = [True] * (span.end - span.start + 1)
                last_end = span.end
            gold_t = [label is TokenLabel.T for label in g.token_labels]
            gold_positive = g.sentence_label is SentenceLabel.CONTAINS_TECH
            sentence.add(gold_positive, e.sentence_positive)
            for gt, pt in zip(gold_t, predicted):
                end_to_end.add(gt, pt)
            if gold_positive:
                if not e.sentence_positive:
                    fired = features.sentence_features(g.sentence, models.crf.feature_config)
                    predicted = [label is TokenLabel.T for label in crf.viterbi(models.crf, fired)]
                for gt, pt in zip(gold_t, predicted):
                    stage2.add(gt, pt)
        metrics = {"sentence_f": sentence.f(), "token_f": stage2.f(),
                   "end_to_end_f": end_to_end.f()}
        if self.f_floor is not None:
            for name, value in metrics.items():
                tally.check(value >= self.f_floor, f"{name} {value:.4f} is under {self.f_floor}")
        return metrics


WORKLOADS = {
    w.name: w for w in (TrainC1(), Extract("extract_news", F_FLOOR), Extract("extract_longtail", None))
}


def one_pass(workload, models, inputs, tally: Tally) -> list:
    return [tally.call(workload.one_op, models, inputs, i) for i in range(workload.n_ops(inputs))]


def measure(workload, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    setup: list[float] = []

    def timed_setup():
        start = perf_counter()
        state = workload.load(), workload.inputs(seed)
        setup.append(perf_counter() - start)
        return state

    models, inputs = timed_setup()
    n = workload.n_ops(inputs)
    first: list = [None] * n
    latencies: list[float] = []
    sentences = 0
    busy = 0.0  # time inside operations; the set-up repeats do not count
    i = 0
    while i < n or busy < seconds:
        start = perf_counter()
        output = tally.call(workload.one_op, models, inputs, i % n)
        latencies.append(perf_counter() - start)
        busy += latencies[-1]
        sentences += workload.sentences(output) if output is not None else 0
        if i < n:
            first[i] = output
        else:
            tally.check(output == first[i % n], "outputs differ across repetitions")
        i += 1
        if len(setup) < SETUP_REPEATS and busy >= len(setup) * seconds / SETUP_REPEATS:
            timed_setup()  # timed only; the measured loop keeps its first models
    while len(setup) < SETUP_REPEATS:
        timed_setup()

    metrics = {
        "setup_s": statistics.median(setup),
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_p99": 1e3 * percentile(latencies, 99),
        "sents_per_s": sentences / busy,
    }
    metrics.update(workload.quality(models, inputs, first, tally))
    metrics["success_rate"] = 1.0 - tally.failed / tally.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{workload.name}: {len(latencies)} operations over {busy:.2f} s; "
          f"{n} distinct inputs", file=sys.stderr)
    return metrics


def trace(workload, seed: int, tally: Tally) -> dict[str, float]:
    import tracer

    inputs = workload.inputs(seed)

    def run_once():
        models = workload.load()
        return models, one_pass(workload, models, inputs, tally)

    start = perf_counter()
    models, untraced = run_once()
    untraced_s = perf_counter() - start

    spans = tracer.Tracer(gold_positive=inputs[2])
    with tracer.installed(spans):
        traced_run = spans.wrap(tracer.BENCH_SPAN, run_once)
        start = perf_counter()
        _, traced = traced_run()
        traced_s = perf_counter() - start

    tally.check(traced == untraced, "the traced pass changed the outputs")
    workload.quality(models, inputs, untraced, tally)
    metrics = spans.metrics()
    accounted = metrics["trace.count_s"] + sum(
        metrics[f"{layer}.self_s"] for layer in tracer.LAYERS + (tracer.BENCH_SPAN,)
    )
    tally.check(abs(accounted - traced_s) <= 0.01 * traced_s,
                f"self times add up to {accounted:.3f} s of a {traced_s:.3f} s traced pass")
    metrics["trace.wall_s"] = traced_s
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "termex" / "__init__.py").is_file() or not GAZETTEER.is_file():
        print(f"perfbench: no termex checkout at {ROOT} "
              "(src/termex and demo/gazetteer.txt are needed)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    BUILD.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    if isinstance(workload, Extract):
        workload.model_dir = reference_models()
    tally = Tally()
    if args.trace:
        metrics = trace(workload, args.seed, tally)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = measure(workload, args.seed, args.seconds, tally)
        units = END_TO_END_UNITS

    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        for alias, (name, scale, unit) in workload.aliases.items():
            print(f"  {alias} = {scale * metrics[name]:.6g} {unit}")
        print(f"  error_rate = {tally.failed / tally.attempted:.6g} ratio")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
