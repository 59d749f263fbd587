import dataclasses
import itertools
import struct
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termex import embeddings
from termex.config import check
from termex.corpus import Sentence, Token
from termex.embeddings import (
    BLOCK,
    EmbeddingModel,
    SkipgramConfig,
    Vocabulary,
    build_vocab,
    center_plans,
    embed_sentence,
    generate_pairs,
    load_embeddings,
    negative_distribution,
    pair_count,
    save_embeddings,
    scatter_add,
    scatter_plans,
    sentence_blocks,
    sentence_step,
    step_constants,
    train_skipgram,
    window_mask,
)
from termex.errors import (
    ConfigError,
    EmptyVocabularyError,
    ModelFormatError,
    NonFiniteLossError,
)
from tests.conftest import (
    embeddings_v1_bytes,
    load_text_vectors,
    negative_sampling_loss,
    pair_loss,
    step_args,
    step_gradients,
)


def make_sentence(words, index=0):
    tokens = []
    at = 0
    for w in words:
        tokens.append(Token(w, at, at + len(w)))
        at += len(w) + 1
    return Sentence.from_tokens("d", index, tokens)


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


def reference_scatter_add(matrix, rows, coefficients, basis):
    """matrix[rows] += coefficients @ basis with a plan built for this call."""
    order = rows.argsort(kind="stable")
    ordered = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    matrix[ordered[starts]] += np.add.reduceat(coefficients[order], starts) @ basis


def reference_sentence_step(
    input_vectors, output_vectors, centers, contexts, mask, negatives, lr
):
    """The training step with its weights, signs and scatter plans built
    from the mask and the negatives at every call."""
    n, k = negatives.shape
    width = len(contexts)
    rows = np.concatenate([contexts, negatives.ravel()])
    center_vectors = input_vectors[centers]
    block = output_vectors[rows]
    signed = center_vectors @ block.T
    signed[:, :width] *= -1.0
    counts = mask.sum(axis=1)
    weights = np.concatenate(
        [mask, np.diag(counts).repeat(k, axis=1)], axis=1, dtype=np.float64
    )
    loss = float((weights * np.logaddexp(0.0, signed)).sum())
    step = weights / (1.0 + np.exp(-signed))
    step[:, width:] *= -1.0
    step *= lr
    reference_scatter_add(input_vectors, centers, step, block)
    reference_scatter_add(output_vectors, rows, step.T, center_vectors)
    return loss


def reference_train_skipgram(corpus, config, callback=None):
    """train_skipgram as one loop: a mask per step, one draw of negatives
    per sentence and epoch, and the step above. train_skipgram must match
    it bit for bit."""
    check(config)
    vocab = build_vocab(corpus, config.min_count)
    rng = np.random.default_rng(config.seed)
    input_vectors = (rng.random((len(vocab), config.dim)) - 0.5) / config.dim
    model = EmbeddingModel(vocab, input_vectors)
    if config.epochs == 0:
        return model
    sentences = []
    every_id = []
    total_pairs = 0
    for sentence in corpus:
        ids, positions, blocks = sentence_blocks(vocab, sentence, config.window)
        every_id.append(ids)
        pairs = pair_count(positions, config.window)
        if pairs:
            sentences.append((ids, positions, blocks, pairs))
            total_pairs += pairs
    if total_pairs == 0:
        return model
    output_vectors = np.zeros((len(vocab), config.dim))
    counts = np.bincount(np.concatenate(every_id), minlength=len(vocab))
    cdf = np.cumsum(negative_distribution(counts))
    cdf /= cdf[-1]
    total_updates = total_pairs * config.epochs
    done = 0
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for ids, positions, blocks, pairs in sentences:
                negatives = cdf.searchsorted(
                    rng.random((len(ids), config.negatives)), side="right"
                )
                lr = config.learning_rate * (
                    1.0 - (1.0 - 1e-4) * (done / total_updates)
                )
                for centers, contexts in blocks:
                    mask = window_mask(
                        positions[centers], positions[contexts], config.window
                    )
                    epoch_loss += reference_sentence_step(
                        input_vectors, output_vectors, ids[centers],
                        ids[contexts], mask, negatives[centers], lr,
                    )
                done += pairs
        if not np.isfinite(epoch_loss):
            raise NonFiniteLossError(f"skipgram loss diverged at epoch {epoch}")
        if callback is not None:
            callback(epoch, {"loss": epoch_loss / total_pairs})
    return model


def oracle_corpus(seed, n, long_lengths=()):
    """Seeded sentences over a skewed vocabulary, so words repeat within a
    sentence: single-token ones, n short and medium ones, and one per long
    length (more than BLOCK centers). A tenth of the words in all but the
    last sentence are seen once, so min_count 2 leaves gaps; the last is
    gap-free."""
    rng = np.random.default_rng(seed)
    vocabulary = [f"w{i}" for i in range(60)]
    weights = 1.0 / np.arange(1, 61)
    weights /= weights.sum()
    rare = iter(range(10**6))
    lengths = [1, 1, 2, *rng.integers(1, 25, n), *long_lengths]
    corpus = []
    for index, length in enumerate(lengths):
        rate = 0.1 if index < len(lengths) - 1 else 0.0
        words = [
            f"rare{next(rare)}" if rng.random() < rate else str(rng.choice(vocabulary, p=weights))
            for _ in range(length)
        ]
        corpus.append(make_sentence(words, index=index))
    return corpus


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

    def test_training_masks_give_the_same_pairs(self):
        # The (center, context) multiset of the training step's masks, over
        # all blocks of a sentence, is generate_pairs's.
        rng = np.random.default_rng(12)
        words = [f"w{i}" for i in range(40)]
        vocab = build_vocab([make_sentence(words[:30])], min_count=1)  # w30+ OOV
        lengths = [1, 2, 7, 30, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 37]
        most_blocks = 0
        for length in lengths:
            for window in range(1, 7):
                sentence = make_sentence(list(rng.choice(words, length)))
                ids, positions, blocks = sentence_blocks(vocab, sentence, window)
                most_blocks = max(most_blocks, len(blocks))
                got = Counter()
                for centers, contexts in blocks:
                    mask = window_mask(positions[centers], positions[contexts], window)
                    for a, b in zip(*np.nonzero(mask)):
                        got[ids[centers][a], ids[contexts][b]] += 1
                    assert centers.stop - centers.start <= BLOCK
                assert got == Counter(generate_pairs(vocab, sentence, window))
        assert most_blocks >= 3

    @given(
        length=st.integers(0, 3 * BLOCK + 40),
        oov=st.floats(0.0, 1.0),
        window=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_pair_count_matches_generate_pairs(self, length, oov, window, seed):
        # Training sizes its learning-rate schedule by pair_count; the OOV
        # words leave gaps in the positions it counts from.
        rng = np.random.default_rng(seed)
        vocab = Vocabulary([f"w{i}" for i in range(20)])
        words = [
            f"oov{i}" if rng.random() < oov else f"w{i % 20}"
            for i in rng.integers(0, 1000, length)
        ]
        sentence = make_sentence(words)
        _, positions, _ = sentence_blocks(vocab, sentence, window)
        assert pair_count(positions, window) == len(generate_pairs(vocab, sentence, window))


class TestGradient:
    # (ids, positions, centers, contexts, window, negatives of each center):
    # one step's sentence, the slices of its block, and the draws.
    CASES = [
        # distinct words, an out-of-vocabulary gap at position 3
        ([2, 0, 4, 1], [0, 1, 2, 4], slice(0, 4), slice(0, 4), 2,
         [[3, 5], [6, 3], [5, 6], [3, 6]]),
        # a word repeated within the sentence
        ([2, 0, 2, 4], [0, 1, 2, 3], slice(0, 4), slice(0, 4), 2,
         [[3, 5], [6, 3], [5, 6], [3, 6]]),
        # a negative equal to a context word, and one equal to the center
        ([2, 0, 4, 1], [0, 1, 2, 3], slice(0, 4), slice(0, 4), 1,
         [[0, 5], [0, 6], [1, 1], [4, 2]]),
        # every row the same
        ([3, 3, 3], [0, 1, 2], slice(0, 3), slice(0, 3), 2,
         [[3, 3], [3, 3], [3, 3]]),
        # a block whose contexts reach beyond its centers
        ([2, 0, 4, 1, 5], [0, 1, 2, 3, 4], slice(1, 3), slice(0, 5), 2,
         [[3, 0], [6, 4]]),
    ]

    @staticmethod
    def unpack(case):
        ids, positions, centers, contexts, window, negatives = case
        ids, positions = np.array(ids), np.array(positions)
        mask = window_mask(positions[centers], positions[contexts], window)
        return ids[centers], ids[contexts], mask, np.array(negatives)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        inputs = rng.normal(size=(7, 4))
        outputs = rng.normal(size=(7, 4))
        eps = 1e-6
        worst = 0.0
        for case in self.CASES:
            args = self.unpack(case)
            grads = step_gradients(inputs, outputs, *args)
            for arr, grad in zip((inputs, outputs), grads):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    old = arr[idx]
                    arr[idx] = old + eps
                    up = pair_loss(inputs, outputs, *args)
                    arr[idx] = old - eps
                    down = pair_loss(inputs, outputs, *args)
                    arr[idx] = old
                    numeric = (up - down) / (2 * eps)
                    worst = max(
                        worst, abs(grad[idx] - numeric) / (abs(numeric) + 1e-12)
                    )
        assert worst < 1e-5

    def test_step_returns_loss_before_the_update(self):
        rng = np.random.default_rng(8)
        for case in self.CASES:
            args = self.unpack(case)
            inputs = rng.normal(size=(7, 3))
            outputs = rng.normal(size=(7, 3))
            expected = pair_loss(inputs, outputs, *args)
            before = inputs.copy()
            loss = sentence_step(inputs, outputs, *step_args(*args), 0.1)
            assert loss == pytest.approx(expected, rel=1e-12)
            assert not np.array_equal(inputs, before)

    @staticmethod
    def reference_step(inputs, outputs, centers, contexts, mask, negatives, lr):
        """sentence_step written plainly: per-pair gradients, taken before
        the step and summed with np.add.at."""
        grad_in = np.zeros_like(inputs)
        grad_out = np.zeros_like(outputs)
        for a, b in zip(*np.nonzero(mask)):
            center = inputs[centers[a]]
            rows = [contexts[b], *negatives[a]]
            scores = outputs[rows] @ center
            step = 1.0 / (1.0 + np.exp(-scores))
            step[0] -= 1.0
            grad_in[centers[a]] += step @ outputs[rows]
            np.add.at(grad_out, rows, np.multiply.outer(step, center))
        inputs -= lr * grad_in
        outputs -= lr * grad_out

    def test_step_matches_reference(self):
        # Sums run in another order, so the two agree to rounding, not bits.
        rng = np.random.default_rng(21)
        for dim in range(1, 17):
            for _ in range(6):
                size = int(rng.integers(1, 9))
                length = int(rng.integers(2, 12))
                ids = rng.integers(0, size, length)
                positions = np.sort(rng.choice(2 * length, length, replace=False))
                first = int(rng.integers(0, length))
                centers = slice(first, int(rng.integers(first + 1, length + 1)))
                window = int(rng.integers(1, 4))
                mask = window_mask(positions[centers], positions, window)
                negatives = rng.integers(0, size, (centers.stop - first, 3))
                inputs = rng.normal(scale=2.0, size=(size, dim))
                outputs = rng.normal(scale=2.0, size=(size, dim))
                lr = float(rng.uniform(1e-4, 1.0))
                want_in, want_out = inputs.copy(), outputs.copy()
                self.reference_step(
                    want_in, want_out, ids[centers], ids, mask, negatives, lr
                )
                sentence_step(
                    inputs, outputs, *step_args(ids[centers], ids, mask, negatives), lr
                )
                np.testing.assert_allclose(inputs, want_in, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(outputs, want_out, rtol=1e-12, atol=1e-12)

    def test_scatter_matches_add_at(self):
        # The one-hot product sums in another order than np.add.at does.
        rng = np.random.default_rng(5)
        for trial in range(200):
            size = int(rng.integers(1, 12))
            count = int(rng.integers(1, 30))
            rows = rng.integers(0, size, count)
            if trial % 3 == 0:
                rows[:] = rows[0]  # every row the same
            coefficients = rng.normal(size=(count, int(rng.integers(1, 9))))
            basis = rng.normal(size=(coefficients.shape[1], int(rng.integers(1, 20))))
            matrix = rng.normal(size=(size, basis.shape[1]))
            want = matrix.copy()
            np.add.at(want, rows, coefficients @ basis)
            # The plan training writes output rows with, and the one it
            # writes centers with (None when they are distinct).
            bounds = np.array([0, count])
            for plan in (scatter_plans(rows, bounds)[0], center_plans(rows, bounds)[0]):
                got = matrix.copy()
                scatter_add(got, rows, plan, coefficients, basis)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                untouched = np.setdiff1d(np.arange(size), rows)
                assert got[untouched].tobytes() == want[untouched].tobytes()

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
        probs = negative_distribution(np.array([100, 10, 1], dtype=np.int64))
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
        assert np.all(np.abs(model.input_vectors) <= 0.5 / cfg.dim)

    def test_deterministic(self):
        corpus = shared_context_corpus(seed=1, n=60)
        cfg = SkipgramConfig(dim=8, window=2, negatives=3, epochs=2, seed=4)
        a = train_skipgram(corpus, cfg)
        b = train_skipgram(corpus, cfg)
        assert np.array_equal(a.input_vectors, b.input_vectors)

    def test_shared_context_similarity(self):
        corpus = shared_context_corpus(seed=2)
        cfg = SkipgramConfig(
            dim=16, window=2, negatives=5, epochs=3, learning_rate=0.05, seed=0
        )
        model = train_skipgram(corpus, cfg)
        alpha = model.input_vectors[model.vocab.index["alpha"]]
        beta = model.input_vectors[model.vocab.index["beta"]]
        unrelated = model.input_vectors[model.vocab.index["unrelated"]]
        assert cosine(alpha, beta) > cosine(alpha, unrelated)

    def test_stays_finite_at_max_contract_rate(self):
        # 0.1 is the contract's rate; the step is measured stable to 0.2.
        corpus = shared_context_corpus(seed=3, n=200)
        for rate in (0.1, 0.2):
            cfg = SkipgramConfig(
                dim=16, window=2, negatives=5, epochs=3, learning_rate=rate, seed=0
            )
            model = train_skipgram(corpus, cfg)
            assert np.isfinite(model.input_vectors).all()

    @pytest.mark.parametrize(
        "sentences, min_count",
        [
            ([["a"], ["b"], ["a"]], 1),  # single-token sentences
            ([["a", "zzz", "b"], ["b", "yyy", "a"]], 2),  # two apart, window 1
        ],
    )
    def test_corpus_without_pairs_returns_initialization(self, sentences, min_count):
        corpus = [make_sentence(words) for words in sentences]
        cfg = SkipgramConfig(dim=6, window=1, epochs=3, min_count=min_count, seed=9)
        calls = []
        model = train_skipgram(corpus, cfg, callback=lambda *args: calls.append(args))
        init = train_skipgram(corpus, dataclasses.replace(cfg, epochs=0))
        assert calls == []
        assert model.input_vectors.tobytes() == init.input_vectors.tobytes()

    def test_negatives_drawn_per_center(self, monkeypatch):
        # One draw of n x K per sentence and epoch, in corpus order, each
        # center taking its own row: the draws of rng.choice, weighted by
        # the corpus counts of the vocabulary's words.
        corpus = shared_context_corpus(seed=4, n=30)
        corpus.append(make_sentence(["alpha"]))  # no pair: draws nothing
        cfg = SkipgramConfig(dim=4, window=1, negatives=3, epochs=2, seed=5)
        seen = []
        step = embeddings.sentence_step

        def recording_step(inputs, outputs, centers, rows, *rest):
            # rows: the contexts, then each center's K negatives in turn
            negatives = rows[len(rows) - len(centers) * cfg.negatives :]
            seen.append(negatives.reshape(len(centers), cfg.negatives).copy())
            return step(inputs, outputs, centers, rows, *rest)

        monkeypatch.setattr(embeddings, "sentence_step", recording_step)
        model = train_skipgram(corpus, cfg)
        rng = np.random.default_rng(cfg.seed)
        rng.random((len(model.vocab), cfg.dim))
        counts = Counter(w for s in corpus for w in s.folded_texts())
        probs = negative_distribution(np.array([counts[w] for w in model.vocab.words]))
        want = [
            rng.choice(len(model.vocab), size=(len(s.tokens), cfg.negatives), p=probs)
            for _ in range(cfg.epochs)
            for s in corpus[:-1]
        ]
        assert len(seen) == len(want)
        for got, drawn in zip(seen, want):
            assert np.array_equal(got, drawn)

    def test_long_sentence_memory_is_bounded(self):
        # One 5,000-token sentence, all in vocabulary. A dense 5,000-position
        # step would need ~1.2 GB of scores; blocks of BLOCK centers peak at
        # ~17 MB, mostly a block's scores and their temporaries.
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in rng.integers(0, 1000, 5000)]
        corpus = [make_sentence(words)]
        cfg = SkipgramConfig(dim=64, window=5, negatives=5, epochs=1, seed=0)
        tracemalloc.start()
        try:
            model = train_skipgram(corpus, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(model.input_vectors).all()
        assert peak < 32 * 2**20

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            check(SkipgramConfig(dim=0))
        with pytest.raises(ConfigError):
            check(SkipgramConfig(learning_rate=-1.0))
        with pytest.raises(ConfigError):
            train_skipgram([], SkipgramConfig())


class TestBitIdentity:
    """train_skipgram against reference_train_skipgram: the same input
    vectors, byte for byte, and the same loss at every epoch."""

    @staticmethod
    def both(corpus, cfg):
        runs = []
        for train in (train_skipgram, reference_train_skipgram):
            losses = []
            model = train(corpus, cfg, callback=lambda e, d: losses.append((e, d["loss"])))
            runs.append((model.vocab.words, model.input_vectors.tobytes(), losses))
        assert runs[0] == runs[1]
        return runs[0]

    @pytest.mark.parametrize(
        "window, min_count, epochs",
        [(5, 1, 3), (2, 2, 3), (1, 1, 1), (1, 2, 3), (3, 2, 0), (130, 2, 1)],
    )
    @pytest.mark.parametrize("small_tables", [False, True])
    def test_matches_the_reference(self, window, min_count, epochs, small_tables, monkeypatch):
        # Small tables cut every epoch into chunks of a few steps, each
        # building the constants of its own patterns.
        if small_tables:
            monkeypatch.setattr(embeddings, "CHUNK_ROWS", 200)
        # The gap-free 2 BLOCK sentence has two blocks of one size and
        # contexts, whose centers sit at different offsets in them.
        corpus = oracle_corpus(window * 10 + min_count, 80, long_lengths=(700, 2 * BLOCK))
        cfg = SkipgramConfig(
            dim=6, window=window, negatives=3, epochs=epochs, min_count=min_count,
            learning_rate=0.05, seed=window,
        )
        _, _, losses = self.both(corpus, cfg)
        assert len(losses) == epochs

    def test_more_steps_than_a_chunk(self):
        corpus = oracle_corpus(11, 900)
        cfg = SkipgramConfig(dim=4, window=2, negatives=5, epochs=2, seed=3)
        vocab = build_vocab(corpus)
        rows = 0
        for sentence in corpus:
            ids, positions, blocks = sentence_blocks(vocab, sentence, cfg.window)
            if pair_count(positions, cfg.window):
                rows += sum(
                    x.stop - x.start + (c.stop - c.start) * cfg.negatives for c, x in blocks
                )
        assert rows > 2 * embeddings.CHUNK_ROWS
        self.both(corpus, cfg)

    def test_divergence_raises_at_the_same_epoch(self):
        corpus = oracle_corpus(5, 60)
        cfg = SkipgramConfig(dim=8, window=3, negatives=2, epochs=3, learning_rate=50.0)
        outcomes = []
        for train in (train_skipgram, reference_train_skipgram):
            losses = []
            with pytest.raises(NonFiniteLossError) as raised:
                train(corpus, cfg, callback=lambda e, d: losses.append(d["loss"]))
            outcomes.append((str(raised.value), losses))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1]  # an epoch ended before the divergence

    def test_constants_live_for_one_chunk(self, monkeypatch):
        # Long sentences with out-of-vocabulary gaps rarely repeat a
        # pattern, short ones often do. When a chunk plans its rows, no
        # constants built for an earlier chunk are alive; each chunk builds
        # those of its distinct patterns once per epoch.
        monkeypatch.setattr(embeddings, "CHUNK_ROWS", 3000)
        corpus = oracle_corpus(8, 40, long_lengths=(400,) * 12)
        cfg = SkipgramConfig(dim=4, window=3, negatives=5, epochs=2, min_count=2, seed=1)
        vocab = build_vocab(corpus, cfg.min_count)
        chunks, patterns, rows = [], {}, 0
        for sentence in corpus:
            ids, positions, blocks = sentence_blocks(vocab, sentence, cfg.window)
            if not pair_count(positions, cfg.window):
                continue
            for centers, contexts in blocks:
                at = positions - positions[contexts.start]
                mask = window_mask(at[centers], at[contexts], cfg.window)
                key = (at[centers].tobytes(), at[contexts].tobytes())
                patterns[key] = (mask.shape, mask.tobytes())
                width, n = contexts.stop - contexts.start, centers.stop - centers.start
                rows += width + n * cfg.negatives
                if rows >= embeddings.CHUNK_ROWS:
                    chunks.append(sorted(patterns.values()))
                    patterns, rows = {}, 0
        if patterns:
            chunks.append(sorted(patterns.values()))
        assert len(chunks) > 2

        planned = [0]
        built = []  # (scatter_plans calls so far, mask, weakrefs to the constants)
        stale = []
        plan, build = embeddings.scatter_plans, embeddings.step_constants

        def planning(rows, bounds):
            planned[0] += 1
            alive = [mask for _, mask, refs in built if any(ref() is not None for ref in refs)]
            stale.extend(alive)
            return plan(rows, bounds)

        def building(mask, k):
            constants = build(mask, k)
            key = (mask.shape, mask.tobytes())
            built.append((planned[0], key, [weakref.ref(a) for a in constants]))
            return constants

        monkeypatch.setattr(embeddings, "scatter_plans", planning)
        monkeypatch.setattr(embeddings, "step_constants", building)
        train_skipgram(corpus, cfg)
        assert stale == []
        by_chunk = [
            sorted(mask for _, mask, _ in group)
            for _, group in itertools.groupby(built, key=lambda b: b[0])
        ]
        assert by_chunk == chunks * cfg.epochs

    def test_weights_hold_large_counts(self):
        # Window 130 over 300 positions: counts reach 260, past uint8.
        positions = np.arange(300)
        mask = window_mask(positions, positions, 130)
        weights, sign = step_constants(mask, 2)
        assert weights.dtype == np.uint16
        assert weights.max() == 260
        assert np.array_equal(weights[:, :300], mask)
        assert np.array_equal(weights[:, 300:], np.diag(mask.sum(axis=1)).repeat(2, axis=1))
        assert np.array_equal(sign, np.concatenate([-np.ones(300), np.ones(600)]))


class TestScatterPlans:
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        span=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_segment_as_if_alone(self, sizes, span, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, span, sum(sizes))
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        plans = scatter_plans(rows, bounds)
        assert len(plans) == len(sizes)
        for plan, lo, hi in zip(plans, bounds, bounds[1:]):
            segment = rows[lo:hi]
            order = segment.argsort(kind="stable")
            ordered = segment[order]
            starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
            assert np.array_equal(plan.order, order)
            assert np.array_equal(plan.starts, starts)
            assert np.array_equal(plan.distinct, ordered[starts])

    def test_center_plans_leave_distinct_blocks_out(self):
        ids = np.array([4, 1, 7, 2, 2, 5, 9])
        plans = center_plans(ids, np.array([0, 3, 7]))
        assert plans[0] is None
        assert np.array_equal(plans[1].distinct, [2, 5, 9])


class TestEmbedSentence:
    def model(self):
        return EmbeddingModel(Vocabulary(["a", "b"]), np.array([[1.0, 3.0], [3.0, 1.0]]))

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
        assert loaded.input_vectors.tobytes() == model.input_vectors.tobytes()

    def test_v2_layout(self, tmp_path):
        # dim, |V|, each word as a u32 length and its UTF-8 bytes, then the
        # input matrix: nothing of training.
        words = ["node.js", "café", "東京", "$"]
        vectors = np.random.default_rng(2).normal(size=(len(words), 3))
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingModel(Vocabulary(words), vectors), path)
        data = path.read_bytes()
        text = sum(4 + len(w.encode("utf-8")) for w in words)
        assert len(data) == 17 + text + 8 * len(words) * 3
        assert data[:17] == b"TXEMB" + struct.pack("<III", 2, 3, len(words))
        loaded = load_embeddings(path)
        assert loaded.vocab.words == words
        assert loaded.input_vectors.tobytes() == vectors.tobytes()
        again = tmp_path / "again.bin"
        save_embeddings(loaded, again)
        assert again.read_bytes() == data

    def v1_model(self):
        words = ["hive", "spark", "ü"]
        rng = np.random.default_rng(5)
        inputs, outputs = rng.normal(size=(2, len(words), 4))
        return words, inputs, outputs

    def test_v1_loads_words_and_input_vectors(self, tmp_path):
        words, inputs, outputs = self.v1_model()
        path = tmp_path / "emb-v1.bin"
        path.write_bytes(embeddings_v1_bytes(words, inputs, outputs, [9, 4, 2], min_count=2))
        loaded = load_embeddings(path)
        assert loaded.vocab.words == words
        assert loaded.dim == 4
        assert loaded.input_vectors.tobytes() == inputs.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_v1_non_finite_output_vectors(self, tmp_path, bad):
        words, inputs, outputs = self.v1_model()
        outputs[2, 1] = bad
        path = tmp_path / "emb-v1.bin"
        path.write_bytes(embeddings_v1_bytes(words, inputs, outputs, [9, 4, 2]))
        with pytest.raises(ModelFormatError, match="non-finite"):
            load_embeddings(path)

    @pytest.mark.parametrize("version", [0, 3])
    def test_unknown_versions(self, tmp_path, version):
        words, inputs, _ = self.v1_model()
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingModel(Vocabulary(words), inputs), path)
        data = path.read_bytes()
        path.write_bytes(data[:5] + struct.pack("<I", version) + data[9:])
        with pytest.raises(ModelFormatError, match="unsupported version"):
            load_embeddings(path)

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
        assert np.allclose(model.input_vectors[model.vocab.index["hive"]], [1.0, 2.0])
        assert np.allclose(model.input_vectors[model.vocab.index["spark"]], [3.0, 4.0])

    def test_inconsistent_dims(self):
        with pytest.raises(ConfigError):
            load_text_vectors("a 1.0\nb 1.0 2.0")
