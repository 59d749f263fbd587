"""Flat INI-style run configuration with one section per pipeline stage.

Command-line flags override file values; the TERMEX_CONFIG environment
variable supplies a default config path."""

from __future__ import annotations

import configparser
import os
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path

from .classifier import ClassifierConfig
from .corpus import check_ratios
from .crf import CrfConfig
from .embeddings import SkipgramConfig
from .errors import ConfigError
from .features import FeatureConfig
from .synth import SynthConfig

ENV_CONFIG = "TERMEX_CONFIG"


@dataclass
class RunConfig:
    seed: int = 0
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
        for stage in (self.embeddings, self.classifier, self.synth(), self.crf):
            stage.validate()
        check_ratios(self.ratios)


def default_config_path() -> str | None:
    return os.environ.get(ENV_CONFIG)


# A stage section holds the int and float fields of its configs (the CRF's
# feature config is flattened into [crf]); the seeds come from [main].
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

    cfg.embeddings = _read(_section(parser, "embeddings"), cfg.embeddings, seed=cfg.seed)
    cfg.classifier = _read(_section(parser, "classifier"), cfg.classifier, seed=cfg.seed)
    crf = _section(parser, "crf")
    cfg.crf = _read(crf, cfg.crf, feature_config=_read(crf, cfg.crf.feature_config))
    return cfg
