import io
import json

import numpy as np
import pytest

from termex import modelio
from termex.classifier import load_classifier
from termex.cli import main
from termex.crf import CrfModel, load_crf, save_crf
from termex.embeddings import (
    EmbeddingModel,
    Vocabulary,
    load_embeddings,
    save_embeddings,
)
from termex.features import FeatureConfig, FeatureIndex
from termex.errors import ModelFormatError
from tests.conftest import classifier_v1_bytes

LOADERS = {
    "embeddings": load_embeddings,
    "classifier": load_classifier,
    "crf": load_crf,
}


def corrupt(data: bytes, rng) -> bytes:
    """A truncated copy, or a copy with one to three flipped bits."""
    if rng.random() < 0.3:
        return data[: int(rng.integers(0, len(data)))]
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(out)))
        out[at] ^= 1 << int(rng.integers(0, 8))
    return bytes(out)


class TestReaders:
    def test_string_size_beyond_file(self):
        fh = io.BytesIO(b"\xff\xff\xff\x7fabc")
        with pytest.raises(ModelFormatError, match="declared"):
            modelio.read_str(fh)

    def test_invalid_utf8(self):
        fh = io.BytesIO()
        modelio.write_u32(fh, 2)
        fh.write(b"\xc3\x28")
        fh.seek(0)
        with pytest.raises(ModelFormatError, match="UTF-8"):
            modelio.read_str(fh)

    def test_matrix_size_beyond_file(self):
        fh = io.BytesIO(bytes(64))
        with pytest.raises(ModelFormatError):
            modelio.read_matrix(fh, (2**32 - 1, 2**32 - 1))

    def test_trailing_bytes(self, small_run, tmp_path):
        path = tmp_path / "crf.bin"
        with open(small_run.paths["crf"], "rb") as fh:
            path.write_bytes(fh.read() + b"\x00")
        with pytest.raises(ModelFormatError, match="unexpected bytes"):
            load_crf(path)


class TestLoaderChecks:
    def test_repeated_crf_feature_strings(self, tmp_path):
        model = CrfModel(
            feature_index=FeatureIndex(["a=1", "b=1"]),
            emission_weights=np.zeros((2, 2)),
            transition_weights=np.zeros((3, 2)),
        )
        path = tmp_path / "crf.bin"
        save_crf(model, path)
        path.write_bytes(path.read_bytes().replace(b"b=1", b"a=1"))
        with pytest.raises(ModelFormatError, match="repeated"):
            load_crf(path)

    @pytest.mark.parametrize("features", [FeatureConfig(0, 2, 1), FeatureConfig(5, 2, 1)])
    def test_bad_crf_feature_config(self, tmp_path, features):
        model = CrfModel(
            feature_index=FeatureIndex(["a=1"]),
            emission_weights=np.zeros((1, 2)),
            transition_weights=np.zeros((3, 2)),
            feature_config=features,
        )
        path = tmp_path / "crf.bin"
        save_crf(model, path)
        with pytest.raises(ModelFormatError, match="feature config"):
            load_crf(path)

    def test_repeated_vocabulary_words(self, tmp_path):
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingModel(Vocabulary(["x", "y"]), np.zeros((2, 1))), path)
        path.write_bytes(path.read_bytes().replace(b"y", b"x"))
        with pytest.raises(ModelFormatError, match="repeated"):
            load_embeddings(path)


class TestCorruptModels:
    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_corrupt_files_load_or_raise_model_format_error(
        self, small_run, tmp_path, kind
    ):
        with open(small_run.paths[kind], "rb") as fh:
            data = fh.read()
        rng = np.random.default_rng(sorted(LOADERS).index(kind))
        for k in range(150):
            # A new file each time: rewriting one in place is slow on some
            # file systems.
            path = tmp_path / f"{kind}-{k}.bin"
            path.write_bytes(corrupt(data, rng))
            try:
                LOADERS[kind](path)
            except ModelFormatError:
                pass
            path.unlink()

    def test_extract_exits_2_on_corrupt_models(self, small_run, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"id": "d1", "text": "We deployed Kafka on Docker. It ran."})
            + "\n",
            encoding="utf-8",
        )
        rng = np.random.default_rng(99)
        failed = 0
        for k in range(40):
            kind = sorted(LOADERS)[int(rng.integers(0, 3))]
            with open(small_run.paths[kind], "rb") as fh:
                path = tmp_path / f"bad-{kind}-{k}.bin"
                path.write_bytes(corrupt(fh.read(), rng))
            paths = {**small_run.paths, kind: str(path)}
            try:
                LOADERS[kind](path)
                loads = True
            except ModelFormatError:
                loads = False
            models = [
                arg for name in sorted(LOADERS) for arg in (f"--{name}", paths[name])
            ]
            code = main([
                "extract", "--input", str(corpus), "--format", "jsonl",
                "--out", str(tmp_path / f"out-{k}.jsonl"), *models,
            ])
            if loads:
                assert code in (0, 2)
            else:
                assert code == 2
                failed += 1
            path.unlink()
        capsys.readouterr()
        assert failed > 0

    def test_extract_exits_2_on_v1_untrained_non_identity_projection(
        self, small_run, tmp_path, capsys
    ):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"id": "d1", "text": "We deployed Kafka on Docker."}) + "\n",
            encoding="utf-8",
        )
        model = load_classifier(small_run.paths["classifier"])
        projection = np.eye(model.d)
        projection[0, 1] = 0.5
        path = tmp_path / "classifier.bin"
        path.write_bytes(
            classifier_v1_bytes(projection, model.output_weights, model.bias, use_hidden=0)
        )
        paths = {**small_run.paths, "classifier": str(path)}
        code = main([
            "extract", "--input", str(corpus), "--format", "jsonl",
            "--out", str(tmp_path / "out.jsonl"),
            *[arg for name in sorted(LOADERS) for arg in (f"--{name}", paths[name])],
        ])
        assert code == 2
        assert "identity" in capsys.readouterr().err
