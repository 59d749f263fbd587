"""No module of termex keeps run state: a pipeline run and extraction leave
every module-level container and memo as they found it."""

import importlib
import pkgutil

import termex
from termex.cascade import extract_from_document
from termex.corpus import Document
from termex.crf import CrfConfig
from termex.features import sentence_features
from termex.pipeline import run_pipeline
from tests.conftest import fast_config
from tests.test_features import make_sentence

# _gram_slices memoizes the n-gram slices of a token length and a pair of
# n-gram bounds: immutable tuples keyed by ints, the same in every run.
MAY_CHANGE = {"termex.features._gram_slices"}


def module_globals():
    """(qualified name, value) of every global of every termex module."""
    for info in pkgutil.iter_modules(termex.__path__):
        module = importlib.import_module(f"{termex.__name__}.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__"):
                yield f"{module.__name__}.{name}", value


def snapshot() -> dict[str, int]:
    """The size of each dict, set or list global and of each lru_cache, by name."""
    sizes = {}
    for key, value in module_globals():
        if isinstance(value, (dict, set, list)):
            sizes[key] = len(value)
        elif hasattr(value, "cache_info"):
            sizes[key] = value.cache_info().currsize
    return sizes


def test_a_run_leaves_module_state_unchanged(gazetteer_file, tmp_path):
    # An earlier test may have filled a memo; emptied, any use of it shows.
    for _, value in module_globals():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    before = snapshot()

    cfg = fast_config(gazetteer_file, n_sentences=100, seed=3)
    cfg.crf = CrfConfig(epochs=5)
    result = run_pipeline(cfg, workdir=tmp_path)
    text = "Zorblat runs Kafka-9 widely. Nobody uses QUUXDB today."
    extract_from_document(Document(id="fresh", text=text), result.models)
    sentence_features(make_sentence(["Frobnicate", "the", "x86-ish", "Widget", "."]))

    after = snapshot()
    changed = {
        key: (before.get(key), after.get(key))
        for key in before.keys() | after.keys()
        if before.get(key) != after.get(key) and key not in MAY_CHANGE
    }
    assert not changed, f"module state changed (before, after): {changed}"
