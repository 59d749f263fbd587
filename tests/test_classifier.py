import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termex.classifier import (
    ClassifierConfig,
    ClassifierModel,
    _forward,
    _log_softmax,
    _mean_nll,
    _stack,
    loss_and_gradients,
    load_classifier,
    new_model,
    predict,
    save_classifier,
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
from tests.conftest import classifier_v1_bytes


def ex(values, label):
    return (SentenceVector(np.asarray(values, dtype=float), len(values)), label)


def zero_model(d):
    return ClassifierModel(np.zeros((2, d)), np.zeros(2))


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
        p = np.exp(_log_softmax(z))
        assert abs(p.sum() - 1.0) < 1e-9
        shifted = np.exp(_log_softmax(z + 17.5))
        assert np.max(np.abs(p - shifted)) < 1e-9

    @pytest.mark.parametrize("logits", [[1e4, -1e4], [-1e4, 1e4], [1e4, 1e4], [-1e4, -1e4]])
    def test_finite_at_large_logits(self, logits):
        logp = _log_softmax(np.array(logits))
        assert np.all(np.isfinite(logp))
        assert abs(np.exp(logp).sum() - 1.0) < 1e-9


def loss(model, batch):
    """Mean softmax cross-entropy of the batch; always >= 0."""
    if not batch:
        raise ValueError("loss of an empty batch is undefined")
    return _mean_nll(model, *_stack(batch, model.d))


class TestLoss:
    def test_uniform_model_gives_ln2(self):
        batch = [ex([1.0, -2.0], SentenceLabel.CONTAINS_TECH),
                 ex([0.5, 0.5], SentenceLabel.NO_TECH)]
        assert abs(loss(zero_model(2), batch) - math.log(2)) < 1e-9

    def test_quarter_probability(self):
        # bias only: softmax(b)[0] = 0.25 for the true label
        b = np.array([0.0, math.log(3.0)])
        model = ClassifierModel(np.zeros((2, 2)), b)
        batch = [ex([0.0, 0.0], SentenceLabel.CONTAINS_TECH)]
        assert abs(loss(model, batch) - math.log(4)) < 1e-9

    def test_perfect_fit_loss_zero(self):
        model = ClassifierModel(np.array([[60.0], [-60.0]]), np.zeros(2))
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
    @pytest.mark.parametrize("l2", [0.0, 0.3])
    def test_finite_differences(self, l2):
        rng = np.random.default_rng(5)
        d = 4
        model = new_model(d, seed=3)
        model.output_weights = rng.normal(size=(2, d)) * 0.4
        model.bias = rng.normal(size=2) * 0.2
        xs = rng.normal(size=(6, d))
        ys = rng.integers(0, 2, size=6)
        _, grads = loss_and_gradients(model, xs, ys, l2=l2)

        eps = 1e-5
        worst = 0.0
        params = {"output_weights": model.output_weights, "bias": model.bias}
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
        model = ClassifierModel(np.array([[10.0], [-10.0]]), np.zeros(2))
        p = predict(model, SentenceVector(np.array([1.0]), 1))
        assert p.probabilities[0] > 0.9999
        assert p.label is SentenceLabel.CONTAINS_TECH

    def test_zero_input_uses_bias(self):
        bias = np.array([0.4, -0.3])
        model = ClassifierModel(np.ones((2, 2)), bias)
        p = predict(model, SentenceVector(np.zeros(2), 0))
        assert np.allclose(p.probabilities, np.exp(_log_softmax(bias)))

    def test_label_depends_on_logit_order_only(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            logits = rng.normal(size=2)
            model = ClassifierModel(np.eye(2), np.zeros(2))
            p = predict(model, SentenceVector(logits, 2))
            expected = (
                SentenceLabel.CONTAINS_TECH
                if logits[0] > logits[1]
                else SentenceLabel.NO_TECH
            )
            assert p.label is expected

    def test_one_ulp_logit_margin_is_contains_tech(self):
        # exp(-2**-55) rounds to 1, so the probabilities tie; the logits
        # decide, as in cascade.gate.
        logits = np.array([0.25, np.nextafter(0.25, 0.0)])
        p = predict(ClassifierModel(np.eye(2), np.zeros(2)), SentenceVector(logits, 2))
        assert p.probabilities[0] == p.probabilities[1]
        assert p.label is SentenceLabel.CONTAINS_TECH

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            predict(zero_model(2), SentenceVector(np.zeros(5), 5))

    def test_zero_evidence_is_negative(self):
        model = ClassifierModel(np.zeros((2, 2)), np.array([3.0, -3.0]))
        assert predict(model, SentenceVector(np.zeros(2), 2)).label is (
            SentenceLabel.CONTAINS_TECH
        )
        p = predict(model, SentenceVector(np.zeros(2), 0))
        assert p.label is SentenceLabel.NO_TECH
        assert np.allclose(p.probabilities, np.exp(_log_softmax(model.bias)))


# Punctuation (PUNCT) first, then symbols and words (SYM, LOWER).
EVIDENCE_WORDS = [".", ",", "%", "#", "$", "node.js", "scikit-learn", "kafka"]


def evidence_embeddings(dim=4):
    vectors = np.random.default_rng(3).normal(size=(len(EVIDENCE_WORDS), dim))
    return EmbeddingModel(Vocabulary(EVIDENCE_WORDS), vectors)


def eager_model(d):
    """A classifier whose bias calls every sentence positive."""
    return ClassifierModel(np.zeros((2, d)), np.array([3.0, -3.0]))


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
        assert np.allclose(p.probabilities, np.exp(_log_softmax(np.array([3.0, -3.0]))))

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


def reference_logsumexp_rows(logits):
    """The normaliser that _log_softmax replaced, in its own operation order."""
    m = logits.max(axis=1, keepdims=True)
    return m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))


def reference_f_score_against(model, xs, ys):
    """The checkpoint F with its own arithmetic, from before it called
    evaluation.f_score."""
    logits = _forward(model, xs)
    predicted = np.where(logits[:, 0] > logits[:, 1], 0, 1)
    tp = int(((predicted == 0) & (ys == 0)).sum())
    fp = int(((predicted == 0) & (ys == 1)).sum())
    fn = int(((predicted == 1) & (ys == 0)).sum())
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def reference_train_classifier(train, validation, config, callback):
    """train_classifier written out over the two reference helpers: the same
    shuffles, SGD steps, epoch loss and best-validation checkpoint."""
    xs, ys = _stack(train, train[0][0].values.shape[0])
    val_xs, val_ys = _stack(validation, xs.shape[1]) if validation else (xs, ys)
    rng = np.random.default_rng(config.seed)
    model = new_model(xs.shape[1], seed=config.seed)
    best, best_f = (model.output_weights.copy(), model.bias.copy()), -1.0
    for epoch in range(config.epochs):
        order = rng.permutation(len(ys))
        for at in range(0, len(ys), config.batch_size):
            rows = order[at : at + config.batch_size]
            logits = _forward(model, xs[rows])
            dlogits = np.exp(logits - reference_logsumexp_rows(logits))
            dlogits[np.arange(len(rows)), ys[rows]] -= 1.0
            dlogits /= len(rows)
            grad_w = dlogits.T @ xs[rows] + config.l2 * model.output_weights
            model.output_weights -= config.learning_rate * grad_w
            model.bias -= config.learning_rate * dlogits.sum(axis=0)
        logits = _forward(model, xs)
        logp = logits - reference_logsumexp_rows(logits)
        epoch_loss = float(-logp[np.arange(len(ys)), ys].mean())
        val_f = reference_f_score_against(model, val_xs, val_ys)
        if val_f > best_f:
            best, best_f = (model.output_weights.copy(), model.bias.copy()), val_f
        callback(epoch, {"train_loss": epoch_loss, "validation_f": val_f})
    return ClassifierModel(*best)


CLASSES = (SentenceLabel.CONTAINS_TECH, SentenceLabel.NO_TECH)


def noisy_set(rng, n, dim):
    """Labelled vectors whose classes overlap, so predictions err both ways."""
    labels = rng.integers(0, 2, size=n)
    values = rng.normal(size=(n, dim)) + np.where(labels[:, None] == 0, 0.5, -0.5)
    return [ex(v, CLASSES[y]) for v, y in zip(values, labels)]


# Validation sets: none (training F stands in), noisy, all NoTech (tp = 0
# every epoch), and each vector under both labels (tp = fp every epoch).
VALIDATION_KINDS = ("none", "noisy", "negatives", "mirrored")


class TestTraining:
    @given(
        data_seed=st.integers(0, 2**16),
        n=st.integers(2, 60),
        dim=st.integers(1, 6),
        epochs=st.integers(1, 8),
        learning_rate=st.sampled_from([0.1, 0.5, 2.0]),
        l2=st.sampled_from([0.0, 0.3]),
        batch_size=st.integers(1, 40),
        seed=st.integers(0, 1000),
        kind=st.sampled_from(VALIDATION_KINDS),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_the_reference_trainer(
        self, data_seed, n, dim, epochs, learning_rate, l2, batch_size, seed, kind
    ):
        rng = np.random.default_rng(data_seed)
        train = noisy_set(rng, n, dim)
        validation = {
            "none": [],
            "noisy": noisy_set(rng, 12, dim),
            "negatives": [(v, SentenceLabel.NO_TECH) for v, _ in noisy_set(rng, 12, dim)],
            "mirrored": [(v, y) for v, _ in noisy_set(rng, 6, dim) for y in CLASSES],
        }[kind]
        cfg = ClassifierConfig(
            epochs=epochs, learning_rate=learning_rate, l2=l2, seed=seed, batch_size=batch_size
        )
        got, want = [], []
        model = train_classifier(train, validation, cfg, callback=lambda e, m: got.append((e, m)))
        reference = reference_train_classifier(
            train, validation, cfg, callback=lambda e, m: want.append((e, m))
        )
        assert model.output_weights.tobytes() == reference.output_weights.tobytes()
        assert model.bias.tobytes() == reference.bias.tobytes()
        assert got == want

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

    def test_v2_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(4)
        model = ClassifierModel(rng.normal(size=(2, 5)), rng.normal(size=2))
        path = tmp_path / "cls.bin"
        save_classifier(model, path)
        # magic, version, d, then W and b: no projection is stored.
        assert path.stat().st_size == 5 + 4 + 4 + 8 * (2 * 5 + 2)
        loaded = load_classifier(path)
        assert loaded.output_weights.tobytes() == model.output_weights.tobytes()
        assert loaded.bias.tobytes() == model.bias.tobytes()

    def test_v1_identity_loads_same_weights(self, tmp_path):
        rng = np.random.default_rng(5)
        weights, bias = rng.normal(size=(2, 4)), rng.normal(size=2)
        path = tmp_path / "cls.bin"
        path.write_bytes(classifier_v1_bytes(np.eye(4), weights, bias, use_hidden=0))
        loaded = load_classifier(path)
        assert loaded.output_weights.tobytes() == weights.tobytes()
        assert loaded.bias.tobytes() == bias.tobytes()

    @pytest.mark.parametrize(
        "projection", [2.0 * np.eye(3), np.eye(3)[::-1].copy(), np.eye(4, 3)]
    )
    def test_v1_untrained_projection_must_be_identity(self, tmp_path, projection):
        weights = np.ones((2, projection.shape[0]))
        path = tmp_path / "cls.bin"
        path.write_bytes(classifier_v1_bytes(projection, weights, np.zeros(2), use_hidden=0))
        with pytest.raises(ModelFormatError, match="identity"):
            load_classifier(path)

    @pytest.mark.parametrize("h,d", [(3, 3), (5, 3), (2, 6)])
    def test_v1_trained_projection_folds_into_weights(self, tmp_path, h, d):
        rng = np.random.default_rng(h * 10 + d)
        projection = rng.normal(size=(h, d))
        weights, bias = rng.normal(size=(2, h)), rng.normal(size=2)
        path = tmp_path / "cls.bin"
        path.write_bytes(classifier_v1_bytes(projection, weights, bias, use_hidden=1))
        loaded = load_classifier(path)
        assert loaded.d == d
        xs = rng.normal(size=(20, d))
        got = xs @ loaded.output_weights.T + loaded.bias
        want = (xs @ projection.T) @ weights.T + bias
        # The gate's tolerance: 1e-12 times one plus the sum of the absolute
        # terms the unfolded product adds up.
        magnitude = 1.0 + (np.abs(xs) @ np.abs(projection).T) @ np.abs(weights).T + np.abs(bias)
        assert np.all(np.abs(got - want) <= 1e-12 * magnitude)

    @pytest.mark.parametrize("version", [0, 3])
    def test_unknown_version_rejected(self, tmp_path, version):
        path = tmp_path / "cls.bin"
        save_classifier(ClassifierModel(np.zeros((2, 2)), np.zeros(2)), path)
        data = path.read_bytes()
        path.write_bytes(data[:5] + version.to_bytes(4, "little") + data[9:])
        with pytest.raises(ModelFormatError, match="unsupported version"):
            load_classifier(path)
