import pytest

from termex.classifier import ClassifierConfig
from termex.cli import main
from termex.config import RunConfig, load_run_config
from termex.crf import CrfConfig
from termex.embeddings import SkipgramConfig
from termex.errors import ConfigError
from termex.features import FeatureConfig


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
        assert cfg.embeddings == SkipgramConfig(7, 3, 2, 4, 0.5, 2, seed=6)
        assert cfg.classifier == ClassifierConfig(9, 0.25, 0.125, 6, 8)
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
        # Only the synth seed reads RunConfig.seed set in Python: random.Random
        # would take -1 as 1, so synthesis, balancing and the split would run
        # as seed 1.
        cfg = RunConfig()
        cfg.seed = -1
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            cfg.validate()
        cfg.seed = 0
        cfg.validate()
