import dataclasses

import pytest

from termex.classifier import ClassifierConfig
from termex.cli import main
from termex.config import RunConfig, check, load_run_config
from termex.crf import CrfConfig
from termex.embeddings import SkipgramConfig
from termex.errors import ConfigError
from termex.features import FeatureConfig
from termex.pipeline import run_pipeline
from termex.synth import SynthConfig


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadRunConfig:
    def test_known_keys_load(self, tmp_path):
        cfg = load_run_config(write(
            tmp_path,
            "[main]\nseed = 4\nratios = 0.8 0.1 0.1\n"
            "[embeddings]\nlearning_rate = 0.5\n"
            "[crf]\nwindow = 2\n",
        ))
        assert cfg.seed == 4
        assert cfg.ratios == (0.8, 0.1, 0.1)
        assert cfg.embeddings.learning_rate == 0.5
        assert cfg.crf.feature_config.window == 2

    def test_every_stage_key_reaches_its_field(self, tmp_path):
        cfg = load_run_config(write(
            tmp_path,
            "[main]\nseed = 6\n"
            "[embeddings]\ndim = 7\nwindow = 3\nnegatives = 2\nepochs = 4\n"
            "learning_rate = 0.5\nmin_count = 2\n"
            "[classifier]\nepochs = 9\nlearning_rate = 0.25\nl2 = 0.125\n"
            "batch_size = 8\n"
            "[crf]\nepochs = 11\nl2 = 2.5\nfeature_min_count = 3\n"
            "ngram_min = 1\nngram_max = 6\nwindow = 0\n",
        ))
        # The stages keep their default seed: the run hands them [main] seed.
        assert cfg.seed == 6
        assert cfg.embeddings == SkipgramConfig(7, 3, 2, 4, 0.5, 2, seed=0)
        assert cfg.classifier == ClassifierConfig(9, 0.25, 0.125, 0, 8)
        assert cfg.crf == CrfConfig(11, 2.5, 3, FeatureConfig(1, 6, 0))

    def test_byte_order_mark_loads_as_the_plain_file(self, tmp_path):
        text = "[main]\nseed = 4\nratios = 0.8 0.1 0.1\n[crf]\nwindow = 2\n"
        plain = load_run_config(write(tmp_path, text))
        bom = tmp_path / "bom.ini"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert bom.read_bytes()[:4] == b"\xef\xbb\xbf["
        assert load_run_config(bom) == plain
        assert plain.seed == 4 and plain.crf.feature_config.window == 2

    def test_unknown_key_names_section_and_key(self, tmp_path):
        path = write(tmp_path, "[embeddings]\nlearning_rat = 9\n")
        with pytest.raises(ConfigError, match=r"'learning_rat'.*\[embeddings\]"):
            load_run_config(path)

    def test_use_hidden_rejected(self, tmp_path):
        # Stage I has no hidden layer: a projection without a nonlinearity
        # adds nothing that W cannot express.
        path = write(tmp_path, "[classifier]\nuse_hidden = 0\n")
        with pytest.raises(ConfigError, match=r"'use_hidden'.*\[classifier\]"):
            load_run_config(path)

    def test_key_of_another_section_rejected(self, tmp_path):
        path = write(tmp_path, "[classifier]\nfeature_min_count = 3\n")
        with pytest.raises(ConfigError, match=r"'feature_min_count'.*\[classifier\]"):
            load_run_config(path)

    def test_crf_learning_rate_rejected(self, tmp_path):
        # The CRF trains by L-BFGS, which has no learning rate.
        path = write(tmp_path, "[crf]\nlearning_rate = 0.05\n")
        with pytest.raises(ConfigError, match=r"'learning_rate'.*\[crf\]"):
            load_run_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[crff\]"):
            load_run_config(write(tmp_path, "[crff]\nepochs = 3\n"))

    def test_malformed_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(write(tmp_path, "epochs = 3\n"))

    def test_cli_exits_2_on_unknown_key(self, tmp_path, capsys):
        path = write(tmp_path, "[embeddings]\nworkers = 4\n")
        code = main([
            "train", "embeddings", "--corpus", str(tmp_path / "none.jsonl"),
            "--out", str(tmp_path / "emb.bin"), "--config", str(path),
        ])
        assert code == 2
        assert "workers" in capsys.readouterr().err


class TestRunConfigValidate:
    def test_negative_seed_rejected(self):
        # random.Random would take -1 as 1, so synthesis, balancing and the
        # split would run as seed 1.
        cfg = RunConfig()
        cfg.seed = -1
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            cfg.validate()
        cfg.seed = 0
        cfg.validate()


# Every config a run reads: RunConfig holds the stage configs (and the CRF's
# holds its FeatureConfig); SynthConfig is built by RunConfig.synth() or from
# the `termex synth` flags.
CONFIGS = (RunConfig(), SynthConfig(n_sentences=1))
# Values just past each bound, as typed in an INI file or on the command
# line; a float field also gets NON_FINITE. ON_BOUND values must pass.
JUST_PAST = {
    ">= 1": ["0"],
    "non-negative": ["-1"],
    "non-negative and finite": ["-5e-324"],
    "positive and finite": ["0"],
    "in (0, 1)": ["0", "1"],
}
NON_FINITE = ["nan", "inf", "-inf"]
ON_BOUND = {
    ">= 1": [1],
    "non-negative": [0],
    "non-negative and finite": [0.0],
    "positive and finite": [5e-324],
    "in (0, 1)": [5e-324, 1 - 2**-53],
}
# The int and float fields that declare no bound, and what holds them.
HELD_ELSEWHERE = {
    ("FeatureConfig", "ngram_max"): "the cross-field rule ngram_max >= ngram_min",
    ("RunConfig", "synth_sentences"): "SynthConfig.n_sentences, through synth()",
    ("RunConfig", "synth_positive_rate"): "SynthConfig.positive_rate, through synth()",
    ("RunConfig", "synth_sentences_per_doc"): "SynthConfig.sentences_per_doc, through synth()",
}
SECTIONS = {
    "SkipgramConfig": "embeddings",
    "ClassifierConfig": "classifier",
    "CrfConfig": "crf",
    "FeatureConfig": "crf",
    "SynthConfig": "synth",
}
SYNTH_FLAGS = {
    "n_sentences": "--n",
    "seed": "--seed",
    "positive_rate": "--positive-rate",
    "sentences_per_doc": "--sentences-per-doc",
}


def numeric_fields(config):
    """(config, field) for each int and float field of `config` and of the
    configs it holds."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from numeric_fields(value)
        elif f.type in ("int", "float"):
            yield config, f


FIELDS = [(config, f) for top in CONFIGS for config, f in numeric_fields(top)]
BOUNDED = [(config, f) for config, f in FIELDS if "bound" in f.metadata]


def rejected_cases():
    """(config name, field name, value, route) for every bounded field and
    value past its bound. A SynthConfig field goes through the `synth` flags
    and through the INI; every other field through the INI."""
    for config, f in BOUNDED:
        name = type(config).__name__
        values = JUST_PAST[f.metadata["bound"]] + (NON_FINITE if f.type == "float" else [])
        for value in values:
            yield name, f.name, value, "ini"
            if name == "SynthConfig":
                yield name, f.name, value, "flags"
    yield "FeatureConfig", "ngram_max", "1", "ini"  # below the default ngram_min, 2


class TestDeclaredBounds:
    def test_every_numeric_field_declares_a_bound(self):
        unbounded = {(type(c).__name__, f.name) for c, f in FIELDS if "bound" not in f.metadata}
        assert unbounded == set(HELD_ELSEWHERE)
        assert {f.metadata["bound"] for _, f in BOUNDED} == set(JUST_PAST) == set(ON_BOUND)

    @pytest.mark.parametrize(
        "config, f", BOUNDED, ids=[f"{type(c).__name__}.{f.name}" for c, f in BOUNDED]
    )
    def test_check_holds_the_bound(self, config, f):
        rule = f.metadata["bound"]
        for value in ON_BOUND[rule]:
            check(dataclasses.replace(config, **{f.name: value}))
        cast = int if f.type == "int" else float
        for text in JUST_PAST[rule] + (NON_FINITE if f.type == "float" else []):
            with pytest.raises(ConfigError, match=f"^{f.name} must be "):
                check(dataclasses.replace(config, **{f.name: cast(text)}))

    @pytest.mark.parametrize("config, name, value, route", list(rejected_cases()))
    def test_rejected_through_the_cli(
        self, config, name, value, route, gazetteer_file, tmp_path, capsys
    ):
        out = tmp_path / "out"
        if route == "flags":
            flags = {"--n": "10", SYNTH_FLAGS[name]: value}
            argv = [
                "synth", "--gazetteer", gazetteer_file, *(f"{k}={v}" for k, v in flags.items()),
                "--out-corpus", str(out / "corpus.jsonl"), "--out-gold", str(out / "gold.tsv"),
            ]
        else:
            section = "main" if name == "seed" else SECTIONS[config]
            ini = write(tmp_path, f"[{section}]\n{name} = {value}\n")
            argv = ["pipeline", "--config", str(ini), "--gazetteer", gazetteer_file, "--out", str(out)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1, err
        assert not out.exists()


def test_one_run_seed_from_python_the_config_and_the_flag(gazetteer_file, tmp_path):
    """The run seed seeds every stage, however it is set: the three ways
    write the same models."""
    tiny = (
        "[synth]\nn_sentences = 120\n[embeddings]\ndim = 8\nepochs = 1\n"
        "[classifier]\nepochs = 5\n[crf]\nepochs = 5\n"
    )
    ini = write(tmp_path, tiny)
    seeded = tmp_path / "seeded.ini"
    seeded.write_text("[main]\nseed = 7\n" + tiny, encoding="utf-8")

    cfg = load_run_config(ini)
    cfg.seed = 7
    cfg.gazetteer_path = gazetteer_file
    run_pipeline(cfg, workdir=tmp_path / "python")
    common = ["pipeline", "--gazetteer", gazetteer_file]
    assert main([*common, "--config", str(seeded), "--out", str(tmp_path / "config")]) == 0
    assert main([*common, "--config", str(ini), "--seed", "7", "--out", str(tmp_path / "flag")]) == 0
    for name in ("embeddings.bin", "classifier.bin", "crf.bin"):
        python, config, flag = (
            (tmp_path / run / name).read_bytes() for run in ("python", "config", "flag")
        )
        assert python == config == flag, name
