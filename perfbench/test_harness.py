"""Self-test of the benchmark harness: tracer accounting, the long-tail
generator, the result arithmetic and the manifest's metric names.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter, sleep

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import longtail  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from termex import cascade, corpus, formats  # noqa: E402
from termex.classifier import ClassifierConfig  # noqa: E402
from termex.corpus import SentenceLabel, TokenLabel  # noqa: E402
from termex.crf import CrfConfig  # noqa: E402
from termex.embeddings import SkipgramConfig  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def gazetteer():
    return formats.read_gazetteer(run.GAZETTEER)


def test_nested_spans_split_wall_time_into_self_times():
    spans = tracer.Tracer()
    inner = spans.wrap("crf.potentials", lambda: sleep(0.02))

    def outer():
        sleep(0.01)
        inner()
        inner()

    root = spans.wrap(tracer.BENCH_SPAN, spans.wrap("cascade.extract_sentence", outer))
    start = perf_counter()
    root()
    wall = perf_counter() - start
    m = spans.metrics()
    assert m["crf.potentials.calls"] == 2
    assert m["crf.potentials.s"] >= 0.04
    assert 0.01 <= m["cascade.extract_sentence.s"] < 0.03
    total = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS + (tracer.BENCH_SPAN,))
    assert total + m["trace.count_s"] == pytest.approx(wall, abs=1e-3)


def test_a_failing_call_still_closes_its_span():
    spans = tracer.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        spans.wrap("corpus.annotate", boom)()
    assert spans.metrics()["corpus.annotate.calls"] == 1
    assert spans._children == []


def test_installed_routes_package_calls_and_restores_them():
    original = corpus.split_document
    spans = tracer.Tracer()
    doc = corpus.Document("d", "Teams use Redis daily. Engineers test Kafka.")
    with tracer.installed(spans):
        assert corpus.split_document is not original
        extracted = cascade.split_document(doc)  # the cascade's own binding
    assert corpus.split_document is original and cascade.split_document is original
    assert len(extracted) == 2
    m = spans.metrics()
    assert m["corpus.split_document.calls"] == 1
    # A layer nothing called is reported as zero, not left out.
    assert m["crf.train_crf.calls"] == 0 and m["crf.train_crf.s"] == 0


def test_traced_training_and_extraction_fill_the_counters(tmp_path, gazetteer):
    cfg = run.criterion_1(seed=0)
    cfg.synth_sentences = 200
    cfg.embeddings = SkipgramConfig(dim=8, epochs=1)
    cfg.classifier = ClassifierConfig(epochs=3)
    cfg.crf = CrfConfig(epochs=3)
    from termex import pipeline, synth

    docs, gold = synth.generate_corpus(gazetteer, replace(cfg.synth(), n_sentences=20, seed=9))
    positives = frozenset(
        (g.sentence.doc_id, g.sentence.index)
        for g in gold if g.sentence_label is SentenceLabel.CONTAINS_TECH
    )
    spans = tracer.Tracer(gold_positive=positives)
    with tracer.installed(spans):
        result = pipeline.run_pipeline(cfg, workdir=tmp_path)
        for doc in docs:
            cascade.extract_from_document(doc, result.models)
    m = spans.metrics()
    for span in ("pipeline.run_pipeline", "synth.generate_corpus", "embeddings.train_skipgram",
                 "classifier.train_classifier", "crf.train_crf", "corpus.balance"):
        assert m[f"{span}.calls"] == 1, span
    assert m["modelio.save.calls"] == 3
    assert m["evaluation.calls"] == 3
    assert m["embeddings.train_skipgram.pairs_per_s"] > 0
    assert m["crf.train_crf.token_epochs_per_s"] > 0
    assert m["crf.feature_count"] == len(result.models.crf.feature_index)
    assert m["cascade.extract_from_document.calls"] == len(docs)
    assert m["cascade.extract_sentence.calls"] == 20
    assert 0 < m["cascade.gate_rate"] <= 1
    assert 0 < m["cascade.stage2_useful_ratio"] <= 1
    assert 0 <= m["features.unknown_feature_rate"] < 1
    assert 0 <= m["embeddings.oov_rate"] < 1


def test_longtail_is_seeded_and_its_gold_is_the_gazetteer_annotation(gazetteer):
    docs, gold = longtail.generate(gazetteer, 40, seed=3)
    again, _ = longtail.generate(gazetteer, 40, seed=3)
    other, _ = longtail.generate(gazetteer, 40, seed=4)
    assert docs == again and docs != other
    assert len(gold) == 40 * longtail.SENTENCES_PER_DOC
    with_term = 0
    for labeled in gold:
        assert corpus.annotate(labeled.sentence, gazetteer).token_labels == labeled.token_labels
        words = labeled.sentence.token_texts()
        assert words[0][0].isupper() and words[-1] == "."
        term_tokens = labeled.token_labels.count(TokenLabel.T)
        assert longtail.MIN_WORDS <= len(words) - 1 - term_tokens <= longtail.MAX_WORDS
        with_term += labeled.sentence_label is SentenceLabel.CONTAINS_TECH
    assert 0.3 < with_term / len(gold) < 0.7


def test_percentile_and_f_arithmetic():
    assert run.percentile([5.0], 99) == 5.0
    assert run.percentile([float(i) for i in range(1, 101)], 99) == 99.0
    counts = run.Confusion()
    for gold, predicted in [(True, True), (True, False), (False, True), (False, False)]:
        counts.add(gold, predicted)
    assert counts.f() == pytest.approx(0.5)
    assert run.Confusion().f() == 0.0


def test_manifest_names_every_metric_the_harness_prints():
    assert [m["name"] for m in MANIFEST["end_to_end"]] == list(run.END_TO_END_UNITS)
    for metric in MANIFEST["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
    traced = tracer.Tracer().metrics()
    traced.update({"trace.wall_s": 0, "trace.untraced_wall_s": 0, "trace.overhead_s": 0})
    assert {m["name"] for m in MANIFEST["per_layer"]} == set(traced)
    for metric in MANIFEST["per_layer"]:
        assert metric["unit"] == run.per_layer_unit(metric["name"])
    assert sorted(w["name"] for w in MANIFEST["workloads"]) == sorted(run.WORKLOADS)


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract_news", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
