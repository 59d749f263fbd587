"""Spans around calls into termex's layers, recorded from outside the package.

`installed(tracer)` rebinds every module attribute of the termex package that
refers to one of the functions in SPANS (the defining module's own binding
included, so calls inside a module are seen too) to a wrapper that times the
call, and restores the originals on exit. Nothing under src/termex changes.

A span's self time is its duration minus the time covered by the spans it
caused. Work done to update counters after a call is charged to
`trace.count_s` rather than to any layer, so the layers' self times plus
`trace.count_s` add up to the traced wall time of the outermost span.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# "module.function" -> span name. The layer is the span name up to its first
# dot; functions sharing a span name are summed into one span.
SPANS = {
    "synth.generate_corpus": "synth.generate_corpus",
    "corpus.split_document": "corpus.split_document",
    "corpus.annotate": "corpus.annotate",
    "corpus.balance": "corpus.balance",
    "corpus.split_dataset": "corpus.split_dataset",
    "formats.read_gazetteer": "formats.read",
    "formats.read_corpus_jsonl": "formats.read",
    "formats.write_corpus_jsonl": "formats.write",
    "formats.write_conll": "formats.write",
    "embeddings.save_embeddings": "modelio.save",
    "classifier.save_classifier": "modelio.save",
    "crf.save_crf": "modelio.save",
    "embeddings.load_embeddings": "modelio.load",
    "classifier.load_classifier": "modelio.load",
    "crf.load_crf": "modelio.load",
    "embeddings.train_skipgram": "embeddings.train_skipgram",
    "embeddings.embed_sentence": "embeddings.embed_sentence",
    "classifier.train_classifier": "classifier.train_classifier",
    "classifier.predict": "classifier.predict",
    "features.sentence_features": "features.sentence_features",
    "crf.train_crf": "crf.train_crf",
    "crf.viterbi": "crf.viterbi",
    "crf.potentials": "crf.potentials",
    "crf.viterbi_from_table": "crf.viterbi_from_table",
    "cascade.extract_from_document": "cascade.extract_from_document",
    "cascade.extract_sentence": "cascade.extract_sentence",
    "cascade.spans_from_labels": "cascade.spans_from_labels",
    "evaluation.evaluate_stage1": "evaluation",
    "evaluation.evaluate_stage2": "evaluation",
    "evaluation.evaluate_end_to_end": "evaluation",
    "evaluation.evaluate_spans": "evaluation",
    "pipeline.run_pipeline": "pipeline.run_pipeline",
    "pipeline.crf_dataset": "pipeline.crf_dataset",
}
LAYERS = (
    "synth", "corpus", "formats", "modelio", "embeddings", "classifier",
    "features", "crf", "cascade", "evaluation", "pipeline",
)
# The harness's own code between calls into the program.
BENCH_SPAN = "bench"
COUNTING = "trace.count"


def span_names() -> list[str]:
    return list(dict.fromkeys(SPANS.values()))


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


# Counters run after a successful call with the result and the call's own
# arguments; their parameter names mirror the traced function's.
def _count_embed(tracer, result, model, sentence):
    tracer.counts["embeddings.tokens"] += len(sentence.tokens)
    tracer.counts["embeddings.in_vocab_tokens"] += result.contributing_count
    tracer.counts["embeddings.all_oov_sentences"] += result.contributing_count == 0


def _count_potentials(tracer, result, model, features_per_position):
    index = model.feature_index
    for features in features_per_position:
        tracer.counts["features.fired"] += len(features.fired)
        tracer.counts["features.known"] += sum(map(index.__contains__, features.fired))


def _count_viterbi_from_table(tracer, result, table):
    tracer.counts["crf.tokens_decoded"] += len(result)


def _count_extract_sentence(tracer, result, models, sentence, stats=None):
    tracer.counts["cascade.sentences"] += 1
    if result.sentence_positive:
        tracer.counts["cascade.stage2"] += 1
        key = (sentence.doc_id, sentence.index)
        tracer.counts["cascade.stage2_gold_positive"] += key in tracer.gold_positive


def _count_skipgram(tracer, result, corpus, config, callback=None):
    from termex.embeddings import generate_pairs

    pairs = sum(len(generate_pairs(result.vocab, s, config.window)) for s in corpus)
    tracer.counts["embeddings.pair_updates"] += pairs * config.epochs


def _count_train_crf(tracer, result, dataset, config, index=None, callback=None):
    tokens = sum(len(features) for features, _ in dataset)
    tracer.counts["crf.token_epochs"] += tokens * config.epochs
    tracer.feature_count = len(result.feature_index)


def _count_load_crf(tracer, result, path):
    tracer.feature_count = len(result.feature_index)


COUNTERS = {
    "embeddings.embed_sentence": _count_embed,
    "crf.potentials": _count_potentials,
    "crf.viterbi_from_table": _count_viterbi_from_table,
    "cascade.extract_sentence": _count_extract_sentence,
    "embeddings.train_skipgram": _count_skipgram,
    "crf.train_crf": _count_train_crf,
    "crf.load_crf": _count_load_crf,
}


class Tracer:
    """Per-span self time and call counts, plus the layers' work counters.

    `gold_positive` holds the (doc_id, sentence_index) keys of gold-positive
    sentences, so the cascade's gate can be scored where it decides."""

    def __init__(self, gold_positive: frozenset = frozenset()) -> None:
        self.gold_positive = gold_positive
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.feature_count = 0
        self._children: list[float] = []

    def wrap(self, span: str, fn, counter=None):
        """`fn` wrapped in a span; `counter` runs after each successful call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                self._close(span, start, end, end)
                raise
            end = perf_counter()
            if counter is not None:
                counter(self, result, *args, **kwargs)
            self._close(span, start, end, perf_counter())
            return result

        return traced

    def _close(self, span: str, start: float, end: float, counted: float) -> None:
        self.seconds[span] += end - start - self._children.pop()
        self.calls[span] += 1
        self.seconds[COUNTING] += counted - end
        if self._children:
            self._children[-1] += counted - start

    def metrics(self) -> dict[str, float]:
        """Every span and layer by name, with zeros for those never entered."""
        out: dict[str, float] = {}
        layer_self: Counter = Counter()
        for span in span_names():
            out[f"{span}.s"] = self.seconds[span]
            out[f"{span}.calls"] = self.calls[span]
            layer_self[layer_of(span)] += self.seconds[span]
        layer_self[BENCH_SPAN] = self.seconds[BENCH_SPAN]
        for layer in LAYERS + (BENCH_SPAN,):
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.count_s"] = self.seconds[COUNTING]

        c = self.counts
        out["embeddings.train_skipgram.pairs_per_s"] = _ratio(
            c["embeddings.pair_updates"], self.seconds["embeddings.train_skipgram"]
        )
        out["embeddings.oov_rate"] = 1.0 - _ratio(
            c["embeddings.in_vocab_tokens"], c["embeddings.tokens"], empty=1.0
        )
        out["embeddings.all_oov_sentences"] = c["embeddings.all_oov_sentences"]
        out["features.unknown_feature_rate"] = 1.0 - _ratio(
            c["features.known"], c["features.fired"], empty=1.0
        )
        out["crf.train_crf.token_epochs_per_s"] = _ratio(
            c["crf.token_epochs"], self.seconds["crf.train_crf"]
        )
        out["crf.feature_count"] = self.feature_count
        out["crf.tokens_decoded"] = c["crf.tokens_decoded"]
        out["cascade.gate_rate"] = _ratio(c["cascade.stage2"], c["cascade.sentences"])
        out["cascade.stage2_useful_ratio"] = _ratio(
            c["cascade.stage2_gold_positive"], c["cascade.stage2"]
        )
        return out


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


def _modules():
    import termex

    yield termex
    for info in pkgutil.iter_modules(termex.__path__):
        yield importlib.import_module(f"termex.{info.name}")


@contextmanager
def installed(tracer: Tracer):
    """Route every termex call to a SPANS function through `tracer`."""
    modules = {m.__name__: m for m in _modules()}
    wrappers = {}  # each wrapper holds its original, so the id stays unique
    for qualname, span in SPANS.items():
        module, name = qualname.split(".")
        original = getattr(modules[f"termex.{module}"], name)
        wrappers[id(original)] = tracer.wrap(span, original, COUNTERS.get(qualname))
    patched = []
    try:
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, name, wrappers[id(value)])
                    patched.append((module, name, value))
        yield tracer
    finally:
        for module, name, value in patched:
            setattr(module, name, value)
