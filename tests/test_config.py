import pytest

from termex.cli import main
from termex.config import load_run_config
from termex.errors import ConfigError


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

    def test_unknown_key_names_section_and_key(self, tmp_path):
        path = write(tmp_path, "[embeddings]\nlearning_rat = 9\n")
        with pytest.raises(ConfigError, match=r"'learning_rat'.*\[embeddings\]"):
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
