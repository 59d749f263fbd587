import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import termex
from termex import formats
from termex.cascade import extract_from_document
from termex.cli import main
from termex.corpus import LabeledSentence, TokenLabel
from termex.render import render_ansi
from tests.conftest import strip_ansi, strip_html


@pytest.fixture()
def fast_ini(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(
        "[main]\n"
        "seed = 0\n"
        "[synth]\n"
        "n_sentences = 200\n"
        "[embeddings]\n"
        "dim = 16\n"
        "epochs = 2\n"
        "learning_rate = 0.05\n"
        "[classifier]\n"
        "epochs = 15\n"
        "[crf]\n"
        "epochs = 20\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture()
def synth_corpus(gazetteer_file, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    gold = tmp_path / "gold.tsv"
    code = main([
        "synth", "--gazetteer", gazetteer_file, "--n", "120", "--seed", "5",
        "--out-corpus", str(corpus), "--out-gold", str(gold),
    ])
    assert code == 0
    return corpus, gold


class TestSynth:
    def test_same_seed_identical_files(self, gazetteer_file, tmp_path):
        paths = []
        for tag in ("a", "b"):
            corpus = tmp_path / f"corpus-{tag}.jsonl"
            gold = tmp_path / f"gold-{tag}.tsv"
            assert main([
                "synth", "--gazetteer", gazetteer_file, "--n", "150", "--seed", "3",
                "--out-corpus", str(corpus), "--out-gold", str(gold),
            ]) == 0
            paths.append((corpus, gold))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_missing_gazetteer_exits_2(self, tmp_path):
        code = main([
            "synth", "--gazetteer", str(tmp_path / "nope.txt"), "--n", "10",
            "--out-corpus", str(tmp_path / "c.jsonl"),
            "--out-gold", str(tmp_path / "g.tsv"),
        ])
        assert code == 2


class TestAnnotate:
    def test_matches_hand_annotation(self, tmp_path):
        corpus = tmp_path / "tiny.jsonl"
        corpus.write_text(
            json.dumps({"id": "d1", "text": "We use Apache Hive."}) + "\n"
            + json.dumps({"id": "d2", "text": "Nothing here."}) + "\n"
            + json.dumps({"id": "d3", "text": "Try Redis now."}) + "\n",
            encoding="utf-8",
        )
        gz = tmp_path / "gazetteer.txt"
        gz.write_text("Apache Hive\nRedis\n", encoding="utf-8")
        out = tmp_path / "annotated.tsv"
        assert main([
            "annotate", "--corpus", str(corpus), "--gazetteer", str(gz),
            "--out", str(out), "--seed", "0",
        ]) == 0
        expected = (
            "-DOCSTART- d1\n"
            "We\tO\nuse\tO\nApache\tT\nHive\tT\n.\tO\n\n"
            "-DOCSTART- d2\n"
            "Nothing\tO\nhere\tO\n.\tO\n\n"
            "-DOCSTART- d3\n"
            "Try\tO\nRedis\tT\nnow\tO\n.\tO\n\n"
        )
        assert out.read_text(encoding="utf-8") == expected

    def test_rerun_is_byte_identical(self, synth_corpus, gazetteer_file, tmp_path):
        corpus, _ = synth_corpus
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"annotated-{tag}.tsv"
            balanced = tmp_path / f"balanced-{tag}.tsv"
            assert main([
                "annotate", "--corpus", str(corpus), "--gazetteer", gazetteer_file,
                "--out", str(out), "--balanced-out", str(balanced), "--seed", "9",
            ]) == 0
            outs.append((out.read_bytes(), balanced.read_bytes()))
        assert outs[0] == outs[1]

    def test_one_class_corpus_balances_only_when_asked(self, tmp_path, capsys):
        corpus = tmp_path / "one.jsonl"
        corpus.write_text(
            json.dumps({"id": "d1", "text": "We use Apache Hive."}) + "\n", encoding="utf-8"
        )
        gz = tmp_path / "gazetteer.txt"
        gz.write_text("Apache Hive\n", encoding="utf-8")
        argv = ["annotate", "--corpus", str(corpus), "--gazetteer", str(gz)]
        out = tmp_path / "annotated.tsv"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("-DOCSTART- d1\nWe\tO\n")
        capsys.readouterr()

        out, balanced = tmp_path / "annotated-2.tsv", tmp_path / "balanced.tsv"
        assert main([*argv, "--out", str(out), "--balanced-out", str(balanced)]) == 2
        assert "cannot balance 1 positive vs 0 negative" in capsys.readouterr().err
        assert not out.exists() and not balanced.exists()

    def test_missing_input_exits_2(self, tmp_path, gazetteer_file):
        assert main([
            "annotate", "--corpus", str(tmp_path / "missing.jsonl"),
            "--gazetteer", gazetteer_file, "--out", str(tmp_path / "o.tsv"),
        ]) == 2

    def test_malformed_corpus_exits_2(self, tmp_path, gazetteer_file, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("not json at all\n", encoding="utf-8")
        assert main([
            "annotate", "--corpus", str(corpus), "--gazetteer", gazetteer_file,
            "--out", str(tmp_path / "o.tsv"),
        ]) == 2
        assert "line 1" in capsys.readouterr().err


class TestTrain:
    def test_classifier_requires_embeddings_file(self, synth_corpus, tmp_path, fast_ini):
        _, gold = synth_corpus
        code = main([
            "train", "classifier", "--train", str(gold),
            "--embeddings", str(tmp_path / "missing.bin"),
            "--out", str(tmp_path / "cls.bin"), "--config", fast_ini,
        ])
        assert code == 2

    def test_crf_requires_tsv(self, tmp_path, fast_ini):
        code = main([
            "train", "crf", "--train", str(tmp_path / "missing.tsv"),
            "--out", str(tmp_path / "crf.bin"), "--config", fast_ini,
        ])
        assert code == 2

    def test_all_three_stages_round_trip(self, synth_corpus, tmp_path, fast_ini, capsys):
        corpus, gold = synth_corpus
        emb = tmp_path / "emb.bin"
        cls = tmp_path / "cls.bin"
        crf = tmp_path / "crf.bin"
        assert main([
            "train", "embeddings", "--corpus", str(corpus),
            "--out", str(emb), "--config", fast_ini,
        ]) == 0
        assert main([
            "train", "classifier", "--train", str(gold), "--validation", str(gold),
            "--embeddings", str(emb), "--out", str(cls), "--config", fast_ini,
        ]) == 0
        assert main([
            "train", "crf", "--train", str(gold),
            "--out", str(crf), "--config", fast_ini,
        ]) == 0
        out = capsys.readouterr().out
        assert "epoch" in out

        from termex.classifier import load_classifier
        from termex.crf import load_crf
        from termex.embeddings import load_embeddings

        assert load_embeddings(emb).dim == 16
        assert load_classifier(cls).d == 16
        assert len(load_crf(crf).feature_index) > 0

    def test_crf_nll_non_increasing_at_small_rate(self, synth_corpus, tmp_path, capsys):
        """epochs caps the L-BFGS steps; each printed step reports its
        objective, which never falls, with its nll, gradient norm and
        evaluation count."""
        _, gold = synth_corpus
        ini = tmp_path / "gentle.ini"
        ini.write_text("[crf]\nepochs = 20\n", encoding="utf-8")
        assert main([
            "train", "crf", "--train", str(gold),
            "--out", str(tmp_path / "crf.bin"), "--config", str(ini),
        ]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("iteration")
        ]
        assert 1 <= len(lines) <= 20
        fields = [dict(f.split("=") for f in line.split()[2:]) for line in lines]
        assert all(set(f) == {"objective", "nll", "grad_norm", "evaluations"} for f in fields)
        objectives = [float(f["objective"]) for f in fields]
        assert all(b >= a for a, b in zip(objectives, objectives[1:]))

    def test_divergent_training_exits_3(self, synth_corpus, tmp_path):
        corpus, _ = synth_corpus
        ini = tmp_path / "explode.ini"
        ini.write_text(
            "[embeddings]\ndim = 8\nepochs = 3\nlearning_rate = 1e6\n",
            encoding="utf-8",
        )
        code = main([
            "train", "embeddings", "--corpus", str(corpus),
            "--out", str(tmp_path / "emb.bin"), "--config", str(ini),
        ])
        assert code == 3


class TestRejectedConfig:
    """A negative seed or a non-finite rate exits 2 with a one-line error,
    before any file is written."""

    @staticmethod
    def assert_rejected(code, capsys, message):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_pipeline_seed_writes_nothing(self, how, gazetteer_file, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["pipeline", "--gazetteer", gazetteer_file, "--out", str(out)]
        if how == "flag":
            argv += ["--seed", "-1"]
        else:
            ini = tmp_path / "seed.ini"
            ini.write_text("[main]\nseed = -2\n", encoding="utf-8")
            argv += ["--config", str(ini)]
        self.assert_rejected(main(argv), capsys, "seed must be non-negative")
        assert not out.exists()

    def test_negative_embeddings_seed(self, synth_corpus, tmp_path, capsys):
        corpus, _ = synth_corpus
        out = tmp_path / "emb.bin"
        code = main([
            "train", "embeddings", "--corpus", str(corpus), "--out", str(out), "--seed", "-3",
        ])
        self.assert_rejected(code, capsys, "seed must be non-negative")
        assert not out.exists()

    def test_negative_synth_seed_writes_nothing(self, gazetteer_file, tmp_path, capsys):
        corpus, gold = tmp_path / "corpus.jsonl", tmp_path / "gold.tsv"
        code = main([
            "synth", "--gazetteer", gazetteer_file, "--n", "20", "--seed", "-3",
            "--out-corpus", str(corpus), "--out-gold", str(gold),
        ])
        self.assert_rejected(code, capsys, "seed must be non-negative, got -3")
        assert not corpus.exists() and not gold.exists()

    def test_negative_annotate_seed_writes_nothing(self, synth_corpus, gazetteer_file, tmp_path, capsys):
        corpus, _ = synth_corpus
        out, balanced = tmp_path / "annotated.tsv", tmp_path / "balanced.tsv"
        code = main([
            "annotate", "--corpus", str(corpus), "--gazetteer", gazetteer_file,
            "--out", str(out), "--balanced-out", str(balanced), "--seed", "-5",
        ])
        self.assert_rejected(code, capsys, "seed must be non-negative, got -5")
        assert not out.exists() and not balanced.exists()

    def test_negative_annotate_seed_without_balancing_writes_nothing(
        self, synth_corpus, gazetteer_file, tmp_path, capsys
    ):
        corpus, _ = synth_corpus
        out = tmp_path / "annotated.tsv"
        code = main([
            "annotate", "--corpus", str(corpus), "--gazetteer", gazetteer_file,
            "--out", str(out), "--seed", "-5",
        ])
        self.assert_rejected(code, capsys, "seed must be non-negative, got -5")
        assert not out.exists()

    @pytest.mark.parametrize(
        "stage, key, value",
        [
            ("embeddings", "learning_rate", "nan"),
            ("classifier", "learning_rate", "inf"),
            ("classifier", "l2", "nan"),
            ("crf", "l2", "nan"),
            ("crf", "l2", "inf"),
        ],
    )
    def test_non_finite_hyperparameter(
        self, stage, key, value, synth_corpus, cli_models, tmp_path, capsys
    ):
        corpus, gold = synth_corpus
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{stage}]\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / f"{stage}.bin"
        inputs = {
            "embeddings": ["--corpus", str(corpus)],
            "classifier": ["--train", str(gold), "--embeddings", cli_models["embeddings"]],
            "crf": ["--train", str(gold)],
        }[stage]
        code = main(["train", stage, *inputs, "--out", str(out), "--config", str(ini)])
        self.assert_rejected(code, capsys, f"{key} must be")
        assert not out.exists()


@pytest.fixture(scope="session")
def cli_models(small_run):
    return small_run.paths


class TestExtract:
    def test_jsonl_schema(self, cli_models, synth_corpus, tmp_path):
        corpus, _ = synth_corpus
        out = tmp_path / "extractions.jsonl"
        assert main([
            "extract", "--input", str(corpus),
            "--embeddings", cli_models["embeddings"],
            "--classifier", cli_models["classifier"],
            "--crf", cli_models["crf"],
            "--format", "jsonl", "--out", str(out),
        ]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == {"doc_id", "sentence_index", "positive", "spans"}
            for span in obj["spans"]:
                assert set(span) == {"start_token", "end_token", "text"}

    def test_ansi_round_trip(self, cli_models, synth_corpus, tmp_path):
        corpus, _ = synth_corpus
        out = tmp_path / "render.ansi"
        assert main([
            "extract", "--input", str(corpus),
            "--embeddings", cli_models["embeddings"],
            "--classifier", cli_models["classifier"],
            "--crf", cli_models["crf"],
            "--format", "ansi", "--out", str(out),
        ]) == 0
        rendered = out.read_text(encoding="utf-8")
        docs = [json.loads(l)["text"] for l in corpus.read_text().splitlines()]
        assert strip_ansi(rendered) == "\n".join(docs) + "\n"

    def test_html_round_trip_with_gold(self, cli_models, synth_corpus, tmp_path):
        corpus, gold = synth_corpus
        out = tmp_path / "render.html"
        assert main([
            "extract", "--input", str(corpus),
            "--embeddings", cli_models["embeddings"],
            "--classifier", cli_models["classifier"],
            "--crf", cli_models["crf"],
            "--format", "html", "--gold", str(gold), "--out", str(out),
        ]) == 0
        rendered = out.read_text(encoding="utf-8")
        docs = [json.loads(l)["text"] for l in corpus.read_text().splitlines()]
        assert strip_html(rendered) == "\n".join(docs) + "\n"

    def test_bad_model_exits_2(self, cli_models, synth_corpus, tmp_path):
        corpus, _ = synth_corpus
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"garbage")
        assert main([
            "extract", "--input", str(corpus),
            "--embeddings", str(junk),
            "--classifier", cli_models["classifier"],
            "--crf", cli_models["crf"],
        ]) == 2


    def extract(self, cli_models, corpus, *flags):
        return main([
            "extract", "--input", str(corpus),
            "--embeddings", cli_models["embeddings"],
            "--classifier", cli_models["classifier"],
            "--crf", cli_models["crf"],
            *flags,
        ])

    @pytest.mark.parametrize("fmt", ["jsonl", "ansi", "html"])
    def test_stdout_equals_out_file(self, cli_models, synth_corpus, tmp_path, capsys, fmt):
        corpus, gold = synth_corpus
        for extra in ([], ["--gold", str(gold)])[: 1 if fmt == "jsonl" else 2]:
            out = tmp_path / f"extract.{fmt}"
            capsys.readouterr()
            assert self.extract(cli_models, corpus, "--format", fmt, *extra) == 0
            stdout = capsys.readouterr().out
            assert self.extract(cli_models, corpus, "--format", fmt, *extra, "--out", str(out)) == 0
            assert stdout
            assert out.read_bytes() == stdout.encode("utf-8")

    @pytest.mark.parametrize("fmt,expected", [("jsonl", ""), ("ansi", "\n"), ("html", "\n")])
    def test_empty_corpus_bytes(self, cli_models, tmp_path, capsys, fmt, expected):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_bytes(b"")
        out = tmp_path / f"empty.{fmt}"
        capsys.readouterr()
        assert self.extract(cli_models, corpus, "--format", fmt) == 0
        assert capsys.readouterr().out == expected
        assert self.extract(cli_models, corpus, "--format", fmt, "--out", str(out)) == 0
        assert out.read_bytes() == expected.encode("utf-8")

    def test_gold_is_matched_per_document(self, cli_models, small_run, synth_corpus, tmp_path):
        """Over a multi-document corpus, each document renders with its own
        gold; every first sentence carries a term the tagger cannot find."""
        corpus, gold_path = synth_corpus
        docs = formats.read_corpus_jsonl(corpus)
        gold = formats.read_conll(gold_path)
        gold = [
            LabeledSentence.from_token_labels(
                g.sentence, (TokenLabel.T,) + g.token_labels[1:]
            ) if g.sentence.index == 0 else g
            for g in gold
        ]
        marked = tmp_path / "marked.tsv"
        formats.write_conll(marked, gold)
        out = tmp_path / "render.ansi"
        assert len(docs) > 1
        assert self.extract(
            cli_models, corpus, "--format", "ansi", "--gold", str(marked), "--out", str(out)
        ) == 0
        expected = "\n".join(
            render_ansi(
                doc,
                extract_from_document(doc, small_run.models),
                [g for g in gold if g.sentence.doc_id == doc.id],
            )
            for doc in docs
        ) + "\n"
        rendered = out.read_text(encoding="utf-8")
        assert rendered == expected
        assert "\x1b[37;41m" in rendered

    def extract_with_gold(self, cli_models, tmp_path, gold_text, fmt="ansi", models=None):
        """Run `termex extract --gold` in a subprocess over the one-sentence
        corpus "We use Redis." (document d1)."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"id": "d1", "text": "We use Redis."}) + "\n")
        gold = tmp_path / "gold.tsv"
        gold.write_text(gold_text)
        models = {**cli_models, **(models or {})}
        src = str(Path(termex.__file__).resolve().parent.parent)
        return subprocess.run(
            [sys.executable, "-m", "termex.cli", "extract", "--input", str(corpus),
             "--embeddings", models["embeddings"],
             "--classifier", models["classifier"],
             "--crf", models["crf"],
             "--format", fmt, "--gold", str(gold)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
        )

    def test_mismatched_gold_exits_2_without_traceback(self, cli_models, tmp_path):
        proc = self.extract_with_gold(
            cli_models, tmp_path,
            "-DOCSTART- d1\nWe\tO\nalso\tO\nuse\tO\nApache\tT\nHive\tT\n.\tO\n\n",
        )
        assert proc.returncode == 2
        assert "gold sentence 0 of document 'd1' does not match the corpus" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_gold_with_jsonl_exits_2_before_models_load(self, cli_models, tmp_path):
        # The gold TSV would not match the corpus, and the classifier file is
        # junk: the format check comes first.
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"garbage")
        proc = self.extract_with_gold(
            cli_models, tmp_path,
            "-DOCSTART- d1\nWe\tO\nalso\tO\nuse\tO\nApache\tT\nHive\tT\n.\tO\n\n",
            fmt="jsonl", models={"classifier": str(junk)},
        )
        assert proc.returncode == 2
        assert "--gold applies to --format ansi and html only" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_gold_document_missing_from_corpus_exits_2(self, cli_models, tmp_path):
        proc = self.extract_with_gold(
            cli_models, tmp_path,
            "-DOCSTART- d1\nWe\tO\nuse\tO\nRedis\tT\n.\tO\n\n"
            "-DOCSTART- zz\nWe\tO\nuse\tO\nRedis\tT\n.\tO\n\n",
        )
        assert proc.returncode == 2
        assert "gold document 'zz' is not in the corpus" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_gold_sentence_past_document_end_exits_2(self, cli_models, tmp_path):
        proc = self.extract_with_gold(
            cli_models, tmp_path,
            "-DOCSTART- d1\nWe\tO\nuse\tO\nRedis\tT\n.\tO\n\n"
            "It\tO\nran\tO\n.\tO\n\n",
            fmt="html",
        )
        assert proc.returncode == 2
        assert "gold document 'd1' has more sentences than the corpus" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_gold_document_in_two_blocks_exits_2(self, cli_models, tmp_path):
        # Each block restarts the sentence indices. The second block's
        # sentence 0 matches the corpus, so keeping only the later block
        # would hide the first block's mismatch.
        proc = self.extract_with_gold(
            cli_models, tmp_path,
            "-DOCSTART- d1\nWe\tO\nalso\tO\nuse\tO\nApache\tT\nHive\tT\n.\tO\n\n"
            "-DOCSTART- d1\nWe\tO\nuse\tO\nRedis\tT\n.\tO\n\n",
        )
        assert proc.returncode == 2
        assert "gold document 'd1' gives one sentence index twice" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestUnreadFlags:
    """Each subcommand accepts only the flags it reads: --seed and --config
    belong to train and pipeline, and --seed also to annotate and synth."""

    ARGS = {
        "annotate": ["--corpus", "c.jsonl", "--gazetteer", "g.txt", "--out", "o.tsv"],
        "synth": ["--gazetteer", "g.txt", "--n", "5", "--out-corpus", "c", "--out-gold", "g"],
        "extract": ["--input", "c", "--embeddings", "e", "--classifier", "c", "--crf", "f"],
        "evaluate": ["--test", "t", "--embeddings", "e", "--classifier", "c", "--crf", "f"],
    }

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("extract", ["--seed", "1"]),
            ("extract", ["--config", "x.ini"]),
            ("evaluate", ["--seed", "1"]),
            ("evaluate", ["--config", "x.ini"]),
            ("annotate", ["--config", "x.ini"]),
            ("synth", ["--config", "x.ini"]),
        ],
    )
    def test_removed_flag_is_rejected(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.ARGS[command], *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestEvaluate:
    @pytest.mark.parametrize("mode", ["sentence", "token", "end_to_end", "span"])
    def test_modes_and_schema(self, cli_models, small_run, tmp_path, mode):
        report_path = tmp_path / f"report-{mode}.json"
        test_tsv = os.path.join(os.path.dirname(cli_models["annotated"]), "test.tsv")
        assert main([
            "evaluate", "--test", test_tsv,
            "--embeddings", cli_models["embeddings"],
            "--classifier", cli_models["classifier"],
            "--crf", cli_models["crf"],
            "--mode", mode, "--out", str(report_path),
        ]) == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["mode"] == mode
        assert set(payload) == {
            "mode", "tp", "fp", "tn", "fn", "precision", "recall", "f_score",
        }

    def test_malformed_tsv_exits_2(self, cli_models, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("token with no tab\n", encoding="utf-8")
        assert main([
            "evaluate", "--test", str(bad),
            "--embeddings", cli_models["embeddings"],
            "--classifier", cli_models["classifier"],
            "--crf", cli_models["crf"],
        ]) == 2


class TestPipeline:
    def test_single_command_end_to_end(self, gazetteer_file, fast_ini, tmp_path, capsys):
        workdir = tmp_path / "run"
        assert main([
            "pipeline", "--config", fast_ini, "--gazetteer", gazetteer_file,
            "--out", str(workdir),
        ]) == 0
        reports = json.loads((workdir / "reports.json").read_text(encoding="utf-8"))
        assert set(reports) == {"sentence", "token", "end_to_end"}
        for name in ("annotated.tsv", "embeddings.bin", "classifier.bin", "crf.bin"):
            assert (workdir / name).exists()

    def test_config_via_environment(self, gazetteer_file, fast_ini, tmp_path, monkeypatch):
        monkeypatch.setenv("TERMEX_CONFIG", fast_ini)
        workdir = tmp_path / "env-run"
        assert main([
            "pipeline", "--gazetteer", gazetteer_file, "--out", str(workdir),
        ]) == 0
        assert (workdir / "reports.json").exists()

    def test_missing_gazetteer_exits_2(self, fast_ini, tmp_path):
        assert main([
            "pipeline", "--config", fast_ini, "--out", str(tmp_path / "r"),
        ]) == 2

    @pytest.mark.parametrize(
        "section,line,message",
        [
            ("crf", "ngram_min = 0", "ngram_min must be >= 1"),
            ("main", "ratios = 0.5 0.5 0.5", "ratios must sum to 1"),
            ("main", "ratios = a b c", "bad value for 'ratios'"),
            ("main", "ratios = nan nan nan", "ratios must be three positive numbers"),
            ("classifier", "use_hidden = 0", "unknown key 'use_hidden' in config section [classifier]"),
        ],
    )
    def test_bad_feature_config_exits_2_without_traceback(
        self, gazetteer_file, fast_ini, tmp_path, section, line, message
    ):
        ini = Path(fast_ini)
        ini.write_text(ini.read_text().replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
        src = str(Path(termex.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "termex.cli", "pipeline", "--config", fast_ini,
             "--gazetteer", gazetteer_file, "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
        )
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        # Every stage's config and the ratios are checked before any file is
        # written.
        for name in ("corpus.jsonl", "annotated.tsv", "embeddings.bin", "classifier.bin"):
            assert not (tmp_path / "run" / name).exists()

    def test_artifacts_identical_across_processes(
        self, gazetteer_file, fast_ini, tmp_path
    ):
        """Separate processes with different string-hash seeds write
        byte-identical models and reports."""
        src = str(Path(termex.__file__).resolve().parent.parent)
        outputs = []
        for hash_seed in ("1", "2"):
            workdir = tmp_path / f"hash-{hash_seed}"
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(
                    filter(None, [src, os.environ.get("PYTHONPATH")])
                ),
            }
            subprocess.run(
                [sys.executable, "-m", "termex.cli", "pipeline", "--config", fast_ini,
                 "--gazetteer", gazetteer_file, "--out", str(workdir)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            outputs.append(workdir)
        for name in ("embeddings.bin", "classifier.bin", "crf.bin", "reports.json"):
            first, second = ((out / name).read_bytes() for out in outputs)
            assert first == second, name
