import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termex.corpus import Sentence, Token
from termex.embeddings import (
    EmbeddingModel,
    SkipgramConfig,
    Vocabulary,
    build_vocab,
    embed_sentence,
    generate_pairs,
    load_embeddings,
    negative_distribution,
    negative_sampling_loss,
    save_embeddings,
    sgd_step,
    train_skipgram,
)
from termex.errors import ConfigError, EmptyVocabularyError, ModelFormatError
from tests.conftest import load_text_vectors, pair_loss, step_gradients


def make_sentence(words, index=0):
    tokens = []
    at = 0
    for w in words:
        tokens.append(Token(w, at, at + len(w)))
        at += len(w) + 1
    return Sentence(doc_id="d", index=index, tokens=tuple(tokens))


def shared_context_corpus(seed=0, n=500):
    """alpha and beta appear in identical contexts; 'unrelated' does not."""
    rng = np.random.default_rng(seed)
    left = ["teams", "users", "labs", "crews"]
    right = ["daily", "often", "early", "late"]
    other_left = ["rain", "snow", "wind", "fog"]
    other_right = ["falls", "stops", "lifts", "builds"]
    sentences = []
    for i in range(n):
        kind = i % 5
        if kind < 2:
            words = [str(rng.choice(left)), "alpha", str(rng.choice(right))]
        elif kind < 4:
            words = [str(rng.choice(left)), "beta", str(rng.choice(right))]
        else:
            words = [str(rng.choice(other_left)), "unrelated", str(rng.choice(other_right))]
        sentences.append(make_sentence(words, index=i))
    return sentences


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestVocabulary:
    def test_min_count_threshold(self):
        corpus = [make_sentence(["hive"]), make_sentence(["hive", "rare"]),
                  make_sentence(["hive"])]
        vocab = build_vocab(corpus, min_count=2)
        assert vocab.words == ["hive"]

    def test_min_count_one_keeps_all(self):
        vocab = build_vocab([make_sentence(["a", "b", "a"])], min_count=1)
        assert set(vocab.words) == {"a", "b"}

    def test_empty_corpus(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocab([], min_count=1)

    def test_case_folded(self):
        vocab = build_vocab([make_sentence(["Hive", "hive"])], min_count=2)
        assert vocab.words == ["hive"]

    def test_bad_min_count(self):
        with pytest.raises(ConfigError):
            build_vocab([make_sentence(["a"])], min_count=0)


class TestGeneratePairs:
    def vocab(self, words):
        return build_vocab([make_sentence(words)], min_count=1)

    def names(self, vocab, pairs):
        return [(vocab.words[c], vocab.words[o]) for c, o in pairs]

    def test_window_one(self):
        vocab = self.vocab(["a", "b", "c"])
        got = self.names(vocab, generate_pairs(vocab, make_sentence(["a", "b", "c"]), 1))
        assert got == [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]

    def test_single_token(self):
        vocab = self.vocab(["a"])
        assert generate_pairs(vocab, make_sentence(["a"]), 1) == []

    def test_window_two(self):
        vocab = self.vocab(["a", "b", "c"])
        got = self.names(vocab, generate_pairs(vocab, make_sentence(["a", "b", "c"]), 2))
        assert len(got) == 6
        assert ("a", "c") in got and ("c", "a") in got

    def test_oov_positions_consume_window(self):
        vocab = self.vocab(["a", "b"])
        got = self.names(
            vocab, generate_pairs(vocab, make_sentence(["a", "zzz", "b"]), 1)
        )
        assert got == []  # a and b are 2 apart; the OOV token blocks them

    def test_bad_window(self):
        vocab = self.vocab(["a"])
        with pytest.raises(ConfigError):
            generate_pairs(vocab, make_sentence(["a"]), 0)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        inputs = rng.normal(size=(3, 4))
        outputs = rng.normal(size=(5, 4))
        eps = 1e-6
        worst = 0.0
        # distinct rows, a negative repeating the context, and all one row
        for rows in ([2, 0, 4, 1], [2, 0, 2, 4], [3, 3, 3]):
            rows = np.array(rows)
            grads = step_gradients(inputs, outputs, 1, rows)
            for arr, grad in zip((inputs, outputs), grads):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    old = arr[idx]
                    arr[idx] = old + eps
                    up = pair_loss(inputs, outputs, 1, rows)
                    arr[idx] = old - eps
                    down = pair_loss(inputs, outputs, 1, rows)
                    arr[idx] = old
                    numeric = (up - down) / (2 * eps)
                    worst = max(
                        worst, abs(grad[idx] - numeric) / (abs(numeric) + 1e-12)
                    )
        assert worst < 1e-5

    def test_step_returns_scores_before_the_update(self):
        rng = np.random.default_rng(8)
        inputs = rng.normal(size=(2, 3))
        outputs = rng.normal(size=(4, 3))
        rows = np.array([1, 3, 0])
        expected = outputs[rows] @ inputs[0]
        scores = sgd_step(inputs, outputs, 0, rows, 0.1, repeated=False)
        assert np.array_equal(scores, expected)

    @staticmethod
    def reference_step(input_vectors, output_vectors, center, rows, lr):
        """sgd_step written plainly: an outer product, np.add.at over every
        row, and @."""
        center_vec = input_vectors[center].copy()
        block = output_vectors[rows]
        scores = block @ center_vec
        step = 1.0 / (1.0 + np.exp(-scores))
        step[0] -= 1.0
        step *= -lr
        np.add.at(output_vectors, rows, np.multiply.outer(step, center_vec))
        input_vectors[center] += step @ block
        return scores

    def test_step_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(21)
        repeated_blocks = 0
        for dim in range(1, 17):
            for trial in range(12):
                n_rows = int(rng.integers(1, 9))
                width = int(rng.integers(2, 8))
                rows = rng.integers(0, n_rows, size=width)
                if trial == 0:
                    n_rows = max(n_rows, width)
                    rows = rng.permutation(n_rows)[:width]  # all rows distinct
                elif trial == 1:
                    rows[int(rng.integers(1, width))] = rows[0]  # negative = context
                elif trial == 2:
                    rows[:] = rows[0]  # every row the same
                inputs = rng.normal(scale=2.0, size=(3, dim))
                outputs = rng.normal(scale=2.0, size=(n_rows, dim))
                center = int(rng.integers(0, 3))
                lr = float(rng.uniform(1e-4, 1.0))
                repeated = len(set(rows.tolist())) < width
                repeated_blocks += repeated
                want_in, want_out = inputs.copy(), outputs.copy()
                want = self.reference_step(want_in, want_out, center, rows, lr)
                got = sgd_step(inputs, outputs, center, rows, lr, repeated)
                assert got.tobytes() == want.tobytes()
                assert inputs.tobytes() == want_in.tobytes()
                assert outputs.tobytes() == want_out.tobytes()
        assert 0 < repeated_blocks < 16 * 12  # both paths ran

    def test_loss_sums_blocks(self):
        scores = np.array([[0.3, -1.2, 2.0], [-0.7, 0.1, 0.0]])
        expected = sum(
            -np.log(1 / (1 + np.exp(-row[0])))
            - sum(np.log(1 / (1 + np.exp(x))) for x in row[1:])
            for row in scores
        )
        assert negative_sampling_loss(scores) == pytest.approx(expected, rel=1e-12)
        assert negative_sampling_loss(scores) == pytest.approx(
            negative_sampling_loss(scores[0]) + negative_sampling_loss(scores[1]),
            rel=1e-12,
        )


class TestNegativeSampler:
    def test_unigram_power_distribution(self):
        vocab = Vocabulary(
            words=["a", "b", "c"],
            counts=np.array([100, 10, 1], dtype=np.int64),
            min_count=1,
        )
        probs = negative_distribution(vocab)
        expected = np.array([100.0, 10.0, 1.0]) ** 0.75
        expected /= expected.sum()
        assert np.allclose(probs, expected)

        rng = np.random.default_rng(0)
        draws = rng.choice(3, size=1_000_000, p=probs)
        freq = np.bincount(draws, minlength=3) / len(draws)
        assert np.max(np.abs(freq - expected)) < 0.01


class TestTraining:
    def test_epochs_zero_returns_initialization(self):
        corpus = [make_sentence(["a", "b", "c"])]
        cfg = SkipgramConfig(dim=6, window=2, negatives=2, epochs=0, seed=9)
        model = train_skipgram(corpus, cfg)
        assert np.all(model.output_vectors == 0.0)
        assert np.all(np.abs(model.input_vectors) <= 0.5 / cfg.dim)

    def test_deterministic(self):
        corpus = shared_context_corpus(seed=1, n=60)
        cfg = SkipgramConfig(dim=8, window=2, negatives=3, epochs=2, seed=4)
        a = train_skipgram(corpus, cfg)
        b = train_skipgram(corpus, cfg)
        assert np.array_equal(a.input_vectors, b.input_vectors)
        assert np.array_equal(a.output_vectors, b.output_vectors)

    def test_shared_context_similarity(self):
        corpus = shared_context_corpus(seed=2)
        cfg = SkipgramConfig(
            dim=16, window=2, negatives=5, epochs=3, learning_rate=0.05, seed=0
        )
        model = train_skipgram(corpus, cfg)
        alpha = model.vector("alpha")
        beta = model.vector("beta")
        unrelated = model.vector("unrelated")
        assert cosine(alpha, beta) > cosine(alpha, unrelated)

    def test_stays_finite_at_max_contract_rate(self):
        corpus = shared_context_corpus(seed=3, n=200)
        cfg = SkipgramConfig(
            dim=16, window=2, negatives=5, epochs=3, learning_rate=0.1, seed=0
        )
        model = train_skipgram(corpus, cfg)
        assert np.isfinite(model.input_vectors).all()
        assert np.isfinite(model.output_vectors).all()

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SkipgramConfig(dim=0).validate()
        with pytest.raises(ConfigError):
            SkipgramConfig(learning_rate=-1.0).validate()
        with pytest.raises(ConfigError):
            train_skipgram([], SkipgramConfig())


class TestEmbedSentence:
    def model(self):
        vocab = Vocabulary(
            words=["a", "b"], counts=np.array([2, 2], dtype=np.int64), min_count=1
        )
        return EmbeddingModel(
            dim=2,
            vocab=vocab,
            input_vectors=np.array([[1.0, 3.0], [3.0, 1.0]]),
            output_vectors=np.zeros((2, 2)),
        )

    def test_mean_of_vectors(self):
        vec = embed_sentence(self.model(), make_sentence(["a", "b"]))
        assert np.allclose(vec.values, [2.0, 2.0])
        assert vec.contributing_count == 2

    def test_all_oov(self):
        vec = embed_sentence(self.model(), make_sentence(["zzz", "yyy"]))
        assert np.all(vec.values == 0.0)
        assert vec.contributing_count == 0

    def test_single_word_identity(self):
        vec = embed_sentence(self.model(), make_sentence(["A"]))
        assert np.allclose(vec.values, [1.0, 3.0])

    @given(st.permutations(["a", "b", "a", "zzz", "b"]))
    @settings(max_examples=30)
    def test_permutation_invariant(self, words):
        base = embed_sentence(self.model(), make_sentence(["a", "b", "a", "zzz", "b"]))
        other = embed_sentence(self.model(), make_sentence(list(words)))
        assert np.allclose(base.values, other.values)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        corpus = shared_context_corpus(seed=6, n=50)
        model = train_skipgram(
            corpus, SkipgramConfig(dim=8, window=2, negatives=2, epochs=1, seed=1)
        )
        path = tmp_path / "emb.bin"
        save_embeddings(model, path)
        loaded = load_embeddings(path)
        assert loaded.dim == model.dim
        assert loaded.vocab.words == model.vocab.words
        assert np.array_equal(loaded.input_vectors, model.input_vectors)
        assert np.array_equal(loaded.output_vectors, model.output_vectors)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(ModelFormatError):
            load_embeddings(path)

    def test_truncated(self, tmp_path):
        corpus = [make_sentence(["a", "b"])]
        model = train_skipgram(
            corpus, SkipgramConfig(dim=4, window=1, negatives=1, epochs=0, seed=0)
        )
        path = tmp_path / "emb.bin"
        save_embeddings(model, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ModelFormatError):
            load_embeddings(path)


class TestTextImport:
    def test_parses_vectors(self):
        model = load_text_vectors("hive 1.0 2.0\nSpark 3.0 4.0\n")
        assert model.dim == 2
        assert np.allclose(model.vector("HIVE"), [1.0, 2.0])
        assert np.allclose(model.vector("spark"), [3.0, 4.0])

    def test_inconsistent_dims(self):
        with pytest.raises(ConfigError):
            load_text_vectors("a 1.0\nb 1.0 2.0")
