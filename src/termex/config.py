"""Every stage's hyperparameters, their bounds, and the flat INI-style run
configuration with one section per pipeline stage.

Each numeric field declares its bound beside its default (`bound`), and
`check` holds any config, nested ones included, to those declarations.
Command-line flags override file values; the TERMEX_CONFIG environment
variable supplies a default config path."""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .corpus import check_ratios
from .errors import ConfigError

ENV_CONFIG = "TERMEX_CONFIG"

# The bounds a field may declare, keyed by their wording in errors. NaN
# fails each; a float bound open above says "finite", so inf fails it too.
_BOUNDS = {
    ">= 1": lambda v: v >= 1,
    "non-negative": lambda v: v >= 0,
    "non-negative and finite": lambda v: 0 <= v < math.inf,
    "positive and finite": lambda v: 0 < v < math.inf,
    "in (0, 1)": lambda v: 0 < v < 1,
}


def bound(rule: str, default=MISSING) -> Field:
    """A dataclass field whose value must be `rule`, a key of _BOUNDS."""
    return field(default=default, metadata={"bound": rule})


def check_bound(name: str, value, rule: str) -> None:
    if not _BOUNDS[rule](value):
        raise ConfigError(f"{name} must be {rule}, got {value}")


def check(config) -> None:
    """Raise ConfigError naming the first field of `config`, or of a config
    it holds, that breaks its declared bound."""
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            check(value)
        elif "bound" in f.metadata:
            check_bound(f.name, value, f.metadata["bound"])
    if isinstance(config, FeatureConfig) and config.ngram_max < config.ngram_min:
        raise ConfigError(f"ngram_max must be >= ngram_min, got {config.ngram_max}")


@dataclass(frozen=True)
class SkipgramConfig:
    dim: int = bound(">= 1", 300)
    window: int = bound(">= 1", 5)
    negatives: int = bound(">= 1", 5)
    epochs: int = bound("non-negative", 5)
    learning_rate: float = bound("positive and finite", 0.025)
    min_count: int = bound(">= 1", 1)
    seed: int = bound("non-negative", 0)


@dataclass(frozen=True)
class ClassifierConfig:
    epochs: int = bound("non-negative", 50)
    learning_rate: float = bound("positive and finite", 1.0)
    l2: float = bound("non-negative and finite", 0.0)
    seed: int = bound("non-negative", 0)
    batch_size: int = bound(">= 1", 32)


@dataclass(frozen=True)
class FeatureConfig:
    ngram_min: int = bound(">= 1", 2)
    ngram_max: int = 4  # `check` holds it to >= ngram_min
    window: int = bound("non-negative", 4)  # context words on each side, current token excluded


@dataclass(frozen=True)
class CrfConfig:
    epochs: int = bound("non-negative", 100)  # a cap on L-BFGS steps
    l2: float = bound("non-negative and finite", 1.0)
    feature_min_count: int = bound(">= 1", 2)
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)


@dataclass(frozen=True)
class SynthConfig:
    n_sentences: int = bound(">= 1")
    seed: int = bound("non-negative", 0)
    positive_rate: float = bound("in (0, 1)", 0.5)
    sentences_per_doc: int = bound(">= 1", 5)


@dataclass
class RunConfig:
    seed: int = bound("non-negative", 0)  # the one seed of every stage
    corpus_path: str | None = None
    gazetteer_path: str | None = None
    workdir: str = "termex-run"
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    synth_sentences: int = 2000
    synth_positive_rate: float = 0.5
    synth_sentences_per_doc: int = 5
    embeddings: SkipgramConfig = field(default_factory=SkipgramConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    crf: CrfConfig = field(default_factory=CrfConfig)

    def synth(self) -> SynthConfig:
        return SynthConfig(
            n_sentences=self.synth_sentences,
            seed=self.seed,
            positive_rate=self.synth_positive_rate,
            sentences_per_doc=self.synth_sentences_per_doc,
        )

    def validate(self) -> None:
        """Check every stage's config and the split ratios before any work."""
        check(self)
        check(self.synth())
        check_ratios(self.ratios)


def default_config_path() -> str | None:
    return os.environ.get(ENV_CONFIG)


# A stage section holds the int and float fields of its configs (the CRF's
# feature config is flattened into [crf]); the seed comes from [main].
_CASTS = {"int": int, "float": float}
_STAGES = {
    "embeddings": (SkipgramConfig,),
    "classifier": (ClassifierConfig,),
    "crf": (CrfConfig, FeatureConfig),
}


def _stage_fields(config_type) -> list[Field]:
    return [f for f in fields(config_type) if f.name != "seed" and f.type in _CASTS]


# The keys each section accepts; anything else is a typo or a leftover.
_KEYS = {
    "main": {"seed", "corpus", "gazetteer", "workdir", "ratios"},
    "synth": {"n_sentences", "positive_rate", "sentences_per_doc"},
    **{
        name: {f.name for config_type in types for f in _stage_fields(config_type)}
        for name, types in _STAGES.items()
    },
}


def _check_keys(parser: configparser.ConfigParser) -> None:
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        unknown = sorted(set(parser[name]) - _KEYS[name])
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in config section [{name}]")


def _section(parser: configparser.ConfigParser, name: str) -> dict[str, str]:
    return dict(parser[name]) if parser.has_section(name) else {}


def _get(values: dict[str, str], key: str, cast, fallback):
    if key not in values:
        return fallback
    try:
        return cast(values[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {values[key]!r}") from exc


def _read(values: dict[str, str], base, **fixed):
    """`base` with the stage fields that `values` names, cast, and `fixed`."""
    read = {
        f.name: _get(values, f.name, _CASTS[f.type], getattr(base, f.name))
        for f in _stage_fields(type(base))
    }
    return replace(base, **read, **fixed)


def load_run_config(path: str | Path | None) -> RunConfig:
    """Build a RunConfig from an INI file; a missing path yields defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    _check_keys(parser)

    main = _section(parser, "main")
    cfg.seed = _get(main, "seed", int, cfg.seed)
    cfg.corpus_path = main.get("corpus", cfg.corpus_path)
    cfg.gazetteer_path = main.get("gazetteer", cfg.gazetteer_path)
    cfg.workdir = main.get("workdir", cfg.workdir)
    if "ratios" in main:
        try:  # RunConfig.validate checks that there are three
            cfg.ratios = tuple(map(float, main["ratios"].replace(",", " ").split()))
        except ValueError as exc:
            raise ConfigError(f"bad value for 'ratios': {main['ratios']!r}") from exc

    synth = _section(parser, "synth")
    cfg.synth_sentences = _get(synth, "n_sentences", int, cfg.synth_sentences)
    cfg.synth_positive_rate = _get(
        synth, "positive_rate", float, cfg.synth_positive_rate
    )
    cfg.synth_sentences_per_doc = _get(
        synth, "sentences_per_doc", int, cfg.synth_sentences_per_doc
    )

    cfg.embeddings = _read(_section(parser, "embeddings"), cfg.embeddings)
    cfg.classifier = _read(_section(parser, "classifier"), cfg.classifier)
    crf = _section(parser, "crf")
    cfg.crf = _read(crf, cfg.crf, feature_config=_read(crf, cfg.crf.feature_config))
    return cfg
