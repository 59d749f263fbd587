import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termex.classifier import (
    ClassifierConfig,
    ClassifierModel,
    _forward,
    loss,
    loss_and_gradients,
    load_classifier,
    new_model,
    predict,
    save_classifier,
    softmax,
    train_classifier,
)
from termex.corpus import Document, SentenceLabel, split_document
from termex.embeddings import (
    EmbeddingModel,
    SentenceVector,
    Vocabulary,
    embed_sentence,
    load_embeddings,
    save_embeddings,
)
from termex.errors import ConfigError, DimensionMismatchError, ModelFormatError
from termex.features import CoarsePosTag, _tag_token


def ex(values, label):
    return (SentenceVector(np.asarray(values, dtype=float), len(values)), label)


def zero_model(d):
    return ClassifierModel(
        projection=np.eye(d), output_weights=np.zeros((2, d)), bias=np.zeros(2)
    )


def toy_set(dim=10, n_per_class=100, sigma=0.1, seed=11):
    rng = np.random.default_rng(seed)
    pos = rng.normal(1.0, sigma, size=(n_per_class, dim))
    neg = rng.normal(-1.0, sigma, size=(n_per_class, dim))
    return [ex(x, SentenceLabel.CONTAINS_TECH) for x in pos] + [
        ex(x, SentenceLabel.NO_TECH) for x in neg
    ]


class TestSoftmax:
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
    @settings(max_examples=100)
    def test_sums_to_one_and_shift_invariant(self, zs):
        z = np.asarray(zs)
        p = softmax(z)
        assert abs(p.sum() - 1.0) < 1e-9
        shifted = softmax(z + 17.5)
        assert np.max(np.abs(p - shifted)) < 1e-9


class TestLoss:
    def test_uniform_model_gives_ln2(self):
        batch = [ex([1.0, -2.0], SentenceLabel.CONTAINS_TECH),
                 ex([0.5, 0.5], SentenceLabel.NO_TECH)]
        assert abs(loss(zero_model(2), batch) - math.log(2)) < 1e-9

    def test_quarter_probability(self):
        # bias only: softmax(b)[0] = 0.25 for the true label
        b = np.array([0.0, math.log(3.0)])
        model = ClassifierModel(
            projection=np.eye(2), output_weights=np.zeros((2, 2)), bias=b
        )
        batch = [ex([0.0, 0.0], SentenceLabel.CONTAINS_TECH)]
        assert abs(loss(model, batch) - math.log(4)) < 1e-9

    def test_perfect_fit_loss_zero(self):
        model = ClassifierModel(
            projection=np.eye(1), output_weights=np.array([[60.0], [-60.0]]),
            bias=np.zeros(2),
        )
        batch = [ex([1.0], SentenceLabel.CONTAINS_TECH),
                 ex([-1.0], SentenceLabel.NO_TECH)]
        assert loss(model, batch) < 1e-9

    def test_duplication_invariance(self):
        model = new_model(3, seed=2)
        batch = [ex([0.3, -0.2, 0.9], SentenceLabel.CONTAINS_TECH),
                 ex([-0.5, 0.1, 0.2], SentenceLabel.NO_TECH)]
        assert abs(loss(model, batch) - loss(model, batch * 2)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loss(zero_model(3), [ex([1.0, 2.0], SentenceLabel.NO_TECH)])

    def test_non_negative(self):
        model = new_model(4, seed=1)
        rng = np.random.default_rng(0)
        batch = [ex(rng.normal(size=4), SentenceLabel.NO_TECH) for _ in range(8)]
        assert loss(model, batch) >= 0.0


class TestGradients:
    @pytest.mark.parametrize("use_hidden,l2", [(False, 0.0), (True, 0.0), (True, 0.3)])
    def test_finite_differences(self, use_hidden, l2):
        rng = np.random.default_rng(5)
        d = 4
        model = new_model(d, use_hidden=use_hidden, seed=3)
        model.output_weights = rng.normal(size=(2, d)) * 0.4
        model.bias = rng.normal(size=2) * 0.2
        if use_hidden:
            model.projection = rng.normal(size=(d, d)) * 0.4
        xs = rng.normal(size=(6, d))
        ys = rng.integers(0, 2, size=6)
        _, grads = loss_and_gradients(model, xs, ys, l2=l2)

        eps = 1e-5
        worst = 0.0
        params = {"output_weights": model.output_weights, "bias": model.bias}
        if use_hidden:
            params["projection"] = model.projection
        for name, arr in params.items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + eps
                up = loss_and_gradients(model, xs, ys, l2=l2)[0]
                arr[idx] = old - eps
                down = loss_and_gradients(model, xs, ys, l2=l2)[0]
                arr[idx] = old
                numeric = (up - down) / (2 * eps)
                worst = max(worst, abs(grads[name][idx] - numeric) / (abs(numeric) + 1e-10))
        assert worst < 1e-4


class TestPredict:
    def test_zero_model_tie_goes_negative(self):
        p = predict(zero_model(3), SentenceVector(np.ones(3), 3))
        assert p.label is SentenceLabel.NO_TECH
        assert np.allclose(p.probabilities, [0.5, 0.5])

    def test_saturated_logits(self):
        model = ClassifierModel(
            projection=np.eye(1), output_weights=np.array([[10.0], [-10.0]]),
            bias=np.zeros(2),
        )
        p = predict(model, SentenceVector(np.array([1.0]), 1))
        assert p.probabilities[0] > 0.9999
        assert p.label is SentenceLabel.CONTAINS_TECH

    def test_zero_input_uses_bias(self):
        bias = np.array([0.4, -0.3])
        model = ClassifierModel(
            projection=np.eye(2), output_weights=np.ones((2, 2)), bias=bias
        )
        p = predict(model, SentenceVector(np.zeros(2), 0))
        assert np.allclose(p.probabilities, softmax(bias))

    def test_label_depends_on_logit_order_only(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            logits = rng.normal(size=2)
            model = ClassifierModel(
                projection=np.eye(2), output_weights=np.eye(2), bias=np.zeros(2)
            )
            p = predict(model, SentenceVector(logits, 2))
            expected = (
                SentenceLabel.CONTAINS_TECH
                if logits[0] > logits[1]
                else SentenceLabel.NO_TECH
            )
            assert p.label is expected

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            predict(zero_model(2), SentenceVector(np.zeros(5), 5))

    def test_zero_evidence_is_negative(self):
        model = ClassifierModel(
            projection=np.eye(2), output_weights=np.zeros((2, 2)),
            bias=np.array([3.0, -3.0]),
        )
        assert predict(model, SentenceVector(np.zeros(2), 2)).label is (
            SentenceLabel.CONTAINS_TECH
        )
        p = predict(model, SentenceVector(np.zeros(2), 0))
        assert p.label is SentenceLabel.NO_TECH
        assert np.allclose(p.probabilities, softmax(model.bias))

    def test_forward_skips_identity_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for d in (1, 2, 7, 32, 300):
            model = new_model(d, seed=d)
            model.bias = rng.normal(size=2)
            xs = rng.normal(size=(9, d)) * 10.0 ** rng.integers(-8, 8, size=(9, 1))
            hidden, logits = _forward(model, xs)
            ref_hidden = xs @ model.projection.T
            ref_logits = ref_hidden @ model.output_weights.T + model.bias
            assert hidden.tobytes() == ref_hidden.tobytes()
            assert logits.tobytes() == ref_logits.tobytes()


# Punctuation (PUNCT) first, then symbols and words (SYM, LOWER).
EVIDENCE_WORDS = [".", ",", "%", "#", "$", "node.js", "scikit-learn", "kafka"]


def evidence_embeddings(dim=4):
    n = len(EVIDENCE_WORDS)
    vocab = Vocabulary(words=EVIDENCE_WORDS, counts=np.ones(n, dtype=np.int64), min_count=1)
    rng = np.random.default_rng(3)
    return EmbeddingModel(dim, vocab, rng.normal(size=(n, dim)), np.zeros((n, dim)))


def eager_model(d):
    """A classifier whose bias calls every sentence positive."""
    return ClassifierModel(
        projection=np.eye(d), output_weights=np.zeros((2, d)), bias=np.array([3.0, -3.0])
    )


def embed_text(model, text):
    (sentence,) = split_document(Document(id="p", text=text))
    return embed_sentence(model, sentence)


class TestPunctuationEvidence:
    def test_vocabulary_marks_punctuation_ids(self):
        tags = [_tag_token(word) for word in EVIDENCE_WORDS]
        assert tags[:4] == [CoarsePosTag.PUNCT] * 4
        assert tags[4:7] == [CoarsePosTag.SYM] * 3
        assert evidence_embeddings().vocab.punctuation == frozenset(range(4))

    @pytest.mark.parametrize("text", [".", ". , ;", "Zqxv, wqpz.", "Zqxv # wqpz %."])
    def test_punctuation_only_is_negative(self, text):
        model = evidence_embeddings()
        vector = embed_text(model, text)
        assert vector.contributing_count > 0 and vector.punctuation_only
        p = predict(eager_model(model.dim), vector)
        assert p.label is SentenceLabel.NO_TECH
        assert np.allclose(p.probabilities, softmax(np.array([3.0, -3.0])))

    @pytest.mark.parametrize(
        "text", ["Zqxv, wqpz kafka.", "Deploy node.js now.", "Pay $ 5.", "Zqxv scikit-learn."]
    )
    def test_a_word_or_symbol_is_evidence(self, text):
        model = evidence_embeddings()
        vector = embed_text(model, text)
        assert not vector.punctuation_only
        assert predict(eager_model(model.dim), vector).label is SentenceLabel.CONTAINS_TECH

    def test_all_oov_is_not_counted_as_punctuation_only(self):
        vector = embed_text(evidence_embeddings(), "Zqxv wqpz")
        assert (vector.contributing_count, vector.punctuation_only) == (0, False)

    def test_hand_built_vector_is_evidence(self):
        assert SentenceVector(np.zeros(2), 2).punctuation_only is False

    def test_loaded_vocabulary_rebuilds_punctuation_ids(self, tmp_path):
        save_embeddings(evidence_embeddings(), tmp_path / "embeddings.bin")
        loaded = load_embeddings(tmp_path / "embeddings.bin")
        assert loaded.vocab.punctuation == frozenset(range(4))
        flags = [embed_text(loaded, text).punctuation_only for text in ("Zqxv, wqpz.", "Pay $ 5.")]
        assert flags == [True, False]


class TestTraining:
    def test_separable_toy_reaches_full_accuracy(self):
        train = toy_set()
        model = train_classifier(
            train, [], ClassifierConfig(epochs=50, learning_rate=0.5, seed=0)
        )
        assert all(predict(model, v).label is y for v, y in train)

    def test_epochs_zero_returns_seeded_init(self):
        train = toy_set(n_per_class=5)
        cfg = ClassifierConfig(epochs=0, seed=7)
        model = train_classifier(train, [], cfg)
        assert np.array_equal(model.output_weights, new_model(10, seed=7).output_weights)

    def test_deterministic(self):
        train = toy_set(n_per_class=20, seed=3)
        val = toy_set(n_per_class=5, seed=4)
        cfg = ClassifierConfig(epochs=10, learning_rate=0.3, seed=1)
        a = train_classifier(train, val, cfg)
        b = train_classifier(train, val, cfg)
        assert np.array_equal(a.output_weights, b.output_weights)
        assert np.array_equal(a.bias, b.bias)

    def test_loss_non_increasing_at_small_rate(self):
        train = toy_set(n_per_class=50, seed=9)
        losses = []
        train_classifier(
            train,
            [],
            ClassifierConfig(epochs=20, learning_rate=0.01, seed=0),
            callback=lambda e, m: losses.append(m["train_loss"]),
        )
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-6

    def test_returns_best_validation_checkpoint(self):
        train = toy_set(n_per_class=30, sigma=1.5, seed=12)  # noisy, non-separable
        val = toy_set(n_per_class=15, sigma=1.5, seed=13)
        history = []
        cfg = ClassifierConfig(epochs=25, learning_rate=2.0, seed=0)
        model = train_classifier(
            train, val, cfg, callback=lambda e, m: history.append(m["validation_f"])
        )
        val_xs = np.stack([v.values for v, _ in val])
        val_ys = np.array(
            [0 if y is SentenceLabel.CONTAINS_TECH else 1 for _, y in val]
        )
        from termex.classifier import _f_score_against

        assert _f_score_against(model, val_xs, val_ys) == pytest.approx(max(history))

    def test_hidden_layer_trains(self):
        train = toy_set(n_per_class=30, seed=5)
        cfg = ClassifierConfig(epochs=30, learning_rate=0.2, seed=0, use_hidden=True)
        model = train_classifier(train, [], cfg)
        assert model.use_hidden
        assert not np.array_equal(model.projection, np.eye(10))

    def test_epoch_loss_is_loss_of_the_training_set(self):
        train = toy_set(n_per_class=20, sigma=1.5, seed=14)
        val = toy_set(n_per_class=5, sigma=1.5, seed=15)
        losses = []
        model = train_classifier(
            train,
            val,
            ClassifierConfig(epochs=1, learning_rate=0.3, seed=0),
            callback=lambda e, m: losses.append(m["train_loss"]),
        )
        assert losses == [loss(model, train)]

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigError):
            train_classifier([], [], ClassifierConfig())


class TestSerialization:
    def test_round_trip_identical_predictions(self, tmp_path):
        train = toy_set(n_per_class=20, seed=6)
        model = train_classifier(
            train, [], ClassifierConfig(epochs=5, learning_rate=0.3, seed=2)
        )
        path = tmp_path / "cls.bin"
        save_classifier(model, path)
        loaded = load_classifier(path)
        for v, _ in train:
            a = predict(model, v)
            b = predict(loaded, v)
            assert a.label is b.label
            assert np.array_equal(a.probabilities, b.probabilities)

    @pytest.mark.parametrize(
        "projection", [2.0 * np.eye(3), np.eye(3)[::-1].copy(), np.eye(4, 3)]
    )
    def test_untrained_projection_must_be_identity(self, tmp_path, projection):
        h = projection.shape[0]
        model = ClassifierModel(
            projection=projection, output_weights=np.ones((2, h)), bias=np.zeros(2)
        )
        path = tmp_path / "cls.bin"
        save_classifier(model, path)
        with pytest.raises(ModelFormatError, match="identity"):
            load_classifier(path)
        model.use_hidden = True
        save_classifier(model, path)
        assert np.array_equal(load_classifier(path).projection, projection)
