import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termex import crf
from termex.config import check
from termex.corpus import LabeledSentence, Sentence, Token, TokenLabel
from termex.crf import (
    CrfConfig,
    CrfModel,
    Decoder,
    SEEN_SIZE,
    TABLE_SIZE,
    PotentialTable,
    _LABEL_INDEX,
    _clique_scores,
    _forward,
    _label_sums,
    _log_z,
    _path_scores,
    _posteriors,
    _text_sums,
    decode,
    lbfgs_maximize,
    load_crf,
    node_scores,
    potentials,
    prepare_dataset,
    regularized_log_likelihood_and_gradient,
    save_crf,
    train_crf,
    viterbi,
    viterbi_from_table,
)
from termex.errors import ConfigError, LengthMismatchError
from termex.features import (
    TEMPLATES,
    FeatureConfig,
    FeatureIndex,
    _Strings,
    _tag_token,
    sentence_features,
    text_share,
    word_shape,
)
from termex.pipeline import crf_dataset
from tests.conftest import gradient_ascent_reference

T, O = TokenLabel.T, TokenLabel.O


def feats(*names):
    return frozenset(names)


def raw_keys():
    """The lookups over raw keys that crf_dataset walks with."""
    return {prefix: _Strings(prefix) for prefix in TEMPLATES}


def build_model(feature_names, emission=None, transition=None, l2=1.0):
    index = FeatureIndex(feature_names)
    if emission is None:
        emission = np.zeros((len(index), 2))
    if transition is None:
        transition = np.zeros((3, 2))
    return CrfModel(
        feature_index=index,
        emission_weights=np.asarray(emission, dtype=float),
        transition_weights=np.asarray(transition, dtype=float),
        l2=l2,
    )


def random_table(rng, length):
    return PotentialTable(
        start=rng.normal(size=2), steps=rng.normal(size=(length - 1, 2, 2))
    )


def enumerate_scores(table):
    """Brute-force path scores over all 2^L label sequences."""
    length = len(table)
    scores = {}
    for states in itertools.product((0, 1), repeat=length):
        score = table.start[states[0]]
        for j in range(length - 1):
            score += table.steps[j][states[j], states[j + 1]]
        scores[states] = float(score)
    return scores


def enumeration_argmax(scores):
    """Exact argmax with the decoder's tie rule: O preferred at the earliest
    differing position (O sorts before T)."""
    order = sorted(scores, key=lambda st: tuple(-s for s in st))
    best = order[0]
    for states in order[1:]:
        if scores[states] > scores[best]:
            best = states
    return best


def log_partition(table):
    """log Z of one table, through the forward pass that training runs."""
    return float(_log_z(_forward(table.start[None], table.steps[None]))[0])


def sequence_log_prob(table, labels):
    """Normalized log-probability of one label sequence, through training's
    path scores; always <= 0."""
    if len(labels) != len(table):
        raise LengthMismatchError(
            f"{len(labels)} labels for a table of length {len(table)}"
        )
    states = np.array([[_LABEL_INDEX[l] for l in labels]])
    path = _path_scores(table.start[None], table.steps[None], states)[0]
    return float(path) - log_partition(table)


def marginals(table):
    """Node (L, 2) and edge (L-1, 2, 2) marginals of one table, through
    training's forward-backward."""
    _, node, edge = _posteriors(table.start[None], table.steps[None])
    return node[0], edge[0]


def known_ids(index, features):
    """The known ids of a feature set, in the sorted order of its strings."""
    return [index.lookup(f) for f in sorted(features) if f in index]


def reference_potentials(model, features_per_position):
    """Per-position emission sums, as a plain loop over the known ids in the
    sorted order of their strings."""
    index = model.feature_index
    node = np.zeros((len(features_per_position), 2))
    for i, features in enumerate(features_per_position):
        ids = known_ids(index, features)
        if ids:
            node[i] = model.emission_weights[ids].sum(axis=0)
    transition = model.transition_weights
    steps = np.empty((len(node) - 1, 2, 2))
    for i in range(1, len(node)):
        for prev in (0, 1):
            steps[i - 1, prev] = transition[1 + prev] + node[i]
    return transition[0] + node[0], steps


class TestPotentials:
    def test_bit_identical_to_per_position_sums(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n_features = int(rng.integers(1, 40))
            names = [f"f={k:03d}" for k in rng.permutation(n_features)]
            model = build_model(
                names,
                rng.normal(scale=rng.uniform(0.1, 100.0), size=(n_features, 2)),
                rng.normal(size=(3, 2)),
            )
            sentence = []
            for _ in range(int(rng.integers(1, 12))):
                count = int(rng.integers(0, n_features + 1))
                known = rng.choice(n_features, size=count, replace=False)
                sentence.append(feats(*(names[k] for k in known), "unseen=1"))
            table = potentials(model, sentence)
            start, steps = reference_potentials(model, sentence)
            assert start.tobytes() == table.start.tobytes()
            assert steps.tobytes() == table.steps.tobytes()

    def test_all_zero_weights(self):
        model = build_model(["f=1"])
        table = potentials(model, [feats("f=1"), feats()])
        assert np.all(table.start == 0.0)
        assert np.all(table.steps == 0.0)

    def test_emission_additivity(self):
        model = build_model(["f=1"], emission=[[2.0, 0.0]])
        table = potentials(model, [feats(), feats("f=1"), feats()])
        assert np.allclose(table.steps[0][:, 0] - table.steps[0][:, 1], 2.0)
        assert np.allclose(table.steps[1], 0.0)

    def test_transition_shift_leaves_probabilities(self):
        rng = np.random.default_rng(0)
        emission = rng.normal(size=(2, 2))
        transition = rng.normal(size=(3, 2))
        model = build_model(["a=1", "b=2"], emission, transition)
        shifted = build_model(["a=1", "b=2"], emission, transition + 3.7)
        sentence = [feats("a=1"), feats("b=2"), feats("a=1", "b=2")]
        t1 = potentials(model, sentence)
        t2 = potentials(shifted, sentence)
        assert np.allclose(t2.start - t1.start, 3.7)
        assert np.allclose(t2.steps - t1.steps, 3.7)
        for labels in itertools.product((T, O), repeat=3):
            assert math.isclose(
                sequence_log_prob(t1, list(labels)),
                sequence_log_prob(t2, list(labels)),
                abs_tol=1e-9,
            )

    def test_unknown_features_ignored(self):
        model = build_model(["f=1"], emission=[[5.0, -5.0]])
        table = potentials(model, [feats("unseen=1")])
        assert np.all(table.start == 0.0)


def make_sentence(words):
    tokens, at = [], 0
    for word in words:
        tokens.append(Token(word, at, at + len(word)))
        at += len(word) + 1
    return Sentence.from_tokens("d", 0, tokens)


# Default bounds, no context window, unigrams only, and wider n-gram spans.
ORACLE_CONFIGS = [
    FeatureConfig(2, 4, 4),
    FeatureConfig(2, 4, 0),
    FeatureConfig(1, 1, 1),
    FeatureConfig(3, 5, 2),
    FeatureConfig(1, 6, 6),
]
ORACLE_SENTENCES = {
    "window_repeats": ["Apache", "Hive", "uses", "Hive", "and", "Hive", "too"],
    "folds_to_one_word": ["The", "cat", "saw", "the", "dog", "THE", "end"],
    "repeated_ngrams": ["aaaa", "aaaa", "aaa", "Aaaa"],
    "single_token": ["Kafka"],
    "longer_than_two_windows": [f"w{k % 5}" for k in range(15)] + ["Spark"],
    "punctuation_and_numbers": ["In", "2,019", ",", "v3.14", "rose", "12", "%", "!", "C++"],
}


def text_model(sentences, config, rng, keep=0.8):
    """A model over real sentence_features strings of the sentences, a random
    share keep of them known, with random weights of mixed scales."""
    strings = sorted(
        {f for words in sentences
         for features in sentence_features(make_sentence(words), config)
         for f in features}
    )
    known = [f for f in strings if rng.random() < keep]
    scale = rng.choice([0.01, 1.0, 100.0], size=(len(known), 1))
    emission = rng.normal(size=(len(known), 2)) * scale
    return CrfModel(FeatureIndex(known), emission, rng.normal(size=(3, 2)),
                    feature_config=config)


def sentence_potentials(decoder, sentence):
    """The potential table of node_scores: the inference path to potentials."""
    node = np.array(node_scores(decoder, sentence.texts))
    start, steps = _clique_scores(decoder.model.transition_weights, node)
    return PotentialTable(start=start, steps=steps)


def assert_matches_reference(decoder, sentence):
    """sentence_potentials within 1e-12 * (1 + sum of |w| fired) of potentials
    over sentence_features, entry by entry, with the same decode."""
    model = decoder.model
    fired = sentence_features(sentence, model.feature_config)
    reference = potentials(model, fired)
    table = sentence_potentials(decoder, sentence)
    weight = np.array(
        [np.abs(model.emission_weights[known_ids(model.feature_index, f)]).sum(axis=0) for f in fired]
    ).reshape(-1, 2)
    tolerance = 1e-12 * (1.0 + weight)
    assert np.all(np.abs(table.start - reference.start) <= tolerance[0])
    assert np.all(np.abs(table.steps - reference.steps) <= tolerance[1:, None, :])
    assert viterbi_from_table(table) == viterbi_from_table(reference)
    return table


def assert_same_table(a, b):
    assert a.start.tobytes() == b.start.tobytes()
    assert a.steps.tobytes() == b.steps.tobytes()


words_strategy = st.lists(
    st.sampled_from(["The", "the", "THE", "aaaa", "Hive", "2,019", "3.14", ",", "!", "C++"])
    | st.text(alphabet="aAbB1.,-", min_size=1, max_size=6),
    min_size=1,
    max_size=14,
)


class TestSentencePotentials:
    @given(words=words_strategy, config=st.sampled_from(ORACLE_CONFIGS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference_on_every_sighting(self, words, config, seed):
        decoder = Decoder(text_model([words], config, np.random.default_rng(seed)))
        sentence = make_sentence(words)
        first = assert_matches_reference(decoder, sentence)
        for _ in range(3):  # second sighting admits the texts, later ones hit
            assert_same_table(sentence_potentials(decoder, sentence), first)

    @pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=str)
    @pytest.mark.parametrize("case", sorted(ORACLE_SENTENCES))
    def test_named_cases(self, case, config):
        words = ORACLE_SENTENCES[case]
        decoder = Decoder(text_model(ORACLE_SENTENCES.values(), config, np.random.default_rng(5)))
        first = assert_matches_reference(decoder, make_sentence(words))
        for _ in range(3):
            assert_same_table(assert_matches_reference(decoder, make_sentence(words)), first)

    def test_all_unknown_tokens_give_the_transitions_alone(self):
        model = build_model(["f=1"], [[3.0, -1.0]], np.random.default_rng(2).normal(size=(3, 2)))
        sentence = make_sentence(["Zqxv", "wqpz", "12", "!"])
        reference = potentials(model, sentence_features(sentence, model.feature_config))
        decoder = Decoder(model)
        for _ in range(3):
            assert_same_table(sentence_potentials(decoder, sentence), reference)

    def test_model_is_frozen(self):
        model = build_model(["f=1"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.emission_weights = np.ones((1, 2))

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError, match="empty sentence"):
            sentence_potentials(Decoder(build_model(["f=1"])), make_sentence([]))

    def test_table_stays_bounded(self):
        config = FeatureConfig()
        decoder = Decoder(text_model([["tok1", "tok2", "Hive"]], config, np.random.default_rng(8)))
        texts = [f"tok{n}" for n in range(10_000)]
        for text in texts:
            for _ in range(2):
                sentence_potentials(decoder, make_sentence([text]))
        assert 0 < len(decoder.table) <= TABLE_SIZE
        assert 0 < len(decoder.seen) <= SEEN_SIZE
        assert_matches_reference(decoder, make_sentence(["tok1", *texts[-3:], "Hive"]))

    def test_models_share_no_entries(self):
        """Two models decoding the same texts in turn each keep their own
        sums: a table shared across models would serve one model's weights
        to the other."""
        words = ["Apache", "Hive", "uses", "Hive"]
        rng = np.random.default_rng(9)
        decoders = [Decoder(text_model([words], config, rng, keep=1.0))
                    for config in (FeatureConfig(), FeatureConfig(), FeatureConfig(3, 3, 1))]
        for _ in range(3):
            for decoder in decoders:
                assert_matches_reference(decoder, make_sentence(words))
        tables = [decoder.table for decoder in decoders]
        assert all(set(table) == {"Apache", "Hive", "uses"} for table in tables)
        assert len({id(entry) for table in tables for entry in table.values()}) == 9


def ordered_strings(config, words):
    """Each position's feature strings in the documented order, written
    plainly: W0, P0, SH0 and each distinct n-gram (first occurrence first),
    then W-1, W+1, PSEQ and SHSEQ, then LW for each distinct fold of the left
    window and RW for each of the right one, both in first-occurrence order."""
    n = len(words)
    folds = [w.casefold() for w in words]
    tags = ["BOS", *(_tag_token(w).value for w in words), "EOS"]
    shapes = ["BOS", *map(word_shape, words), "EOS"]
    out = []
    for i, word in enumerate(words):
        marked = "<" + word.lower() + ">"
        grams = [marked[at : at + k] for k in range(config.ngram_min, min(config.ngram_max, len(marked)) + 1)
                 for at in range(len(marked) - k + 1)]
        left = folds[max(0, i - config.window) : i]
        right = folds[i + 1 : i + 1 + config.window]
        strings = [
            f"W0={folds[i]}", f"P0={tags[i + 1]}", f"SH0={shapes[i + 1]}",
            *(f"NG={g}" for g in dict.fromkeys(grams)),
            f"W-1={folds[i - 1] if i > 0 else '<BOS>'}",
            f"W+1={folds[i + 1] if i + 1 < n else '<EOS>'}",
            f"PSEQ={tags[i]}_{tags[i + 1]}_{tags[i + 2]}",
            f"SHSEQ={shapes[i]}_{shapes[i + 1]}_{shapes[i + 2]}",
            *(f"LW={f}" for f in dict.fromkeys(left)),
            *(f"RW={f}" for f in dict.fromkeys(right)),
        ]
        out.append(strings)
    return out


def ordered_potentials(model, words):
    """sentence_potentials' documented float order: at each position, from
    0.0, add the known weights of its ordered_strings in order."""
    weights = dict(zip(model.feature_index.strings(), model.emission_weights.tolist()))
    n = len(words)
    node = np.empty((n, 2))
    for i, strings in enumerate(ordered_strings(model.feature_config, words)):
        t = o = 0.0
        for feature in strings:
            if feature in weights:
                t, o = t + weights[feature][0], o + weights[feature][1]
        node[i] = t, o
    transition = model.transition_weights
    steps = np.empty((n - 1, 2, 2))
    for i in range(1, n):
        for prev in (0, 1):
            steps[i - 1, prev] = transition[1 + prev] + node[i]
    return PotentialTable(start=transition[0] + node[0], steps=steps)


def context_model(words, config, known, rng):
    """A model over the sentence's feature strings that knows every string
    but the LW, RW and W0 features of folds outside the set known."""
    strings = {f for features in sentence_features(make_sentence(words), config)
               for f in features}
    strings = sorted(f for f in strings if not f.startswith(("LW=", "RW=", "W0="))
                     or f.partition("=")[2] in known)
    emission = rng.normal(size=(len(strings), 2)) * rng.choice([0.01, 1.0, 100.0], size=(len(strings), 1))
    return CrfModel(FeatureIndex(strings), emission, rng.normal(size=(3, 2)),
                    feature_config=config)


def assert_in_documented_order(model, words):
    """Bit for bit on the first sighting, the second (admitted) and a hit."""
    expected = ordered_potentials(model, words)
    decoder = Decoder(model)
    for _ in range(3):
        assert_same_table(sentence_potentials(decoder, make_sentence(words)), expected)


def training_node_scores(model, words):
    """The node scores training adds for a sentence of these words: its
    crf_dataset positions laid out by prepare_dataset, summed by _label_sums
    as the objective sums them; and the ids laid out at each position."""
    labels = [T] + [O] * (len(words) - 1)
    sentence = LabeledSentence.from_token_labels(make_sentence(words), labels)
    prepared = prepare_dataset(crf_dataset([sentence], model.feature_config), model.feature_index)
    node = _label_sums(prepared.tokens, model.emission_weights, prepared.feature_ids, len(words))
    ids = [prepared.feature_ids[prepared.tokens == i].tolist() for i in range(len(words))]
    return node, ids


def assert_training_adds_as_decode(model, words):
    """Training lays out each position's known ids in the documented order,
    so its node scores equal node_scores bit for bit on every sighting."""
    node, ids = training_node_scores(model, words)
    index = model.feature_index
    assert ids == [[index.lookup(f) for f in strings if f in index]
                   for strings in ordered_strings(model.feature_config, words)]
    decoder = Decoder(model)
    for _ in range(3):
        scores = node_scores(decoder, tuple(words))
        assert scores == [tuple(row) for row in node.tolist()]
        assert np.array(scores).tobytes() == node.tobytes()


# Known folds repeated inside one window; known folds exactly window
# positions away from a position of unknown ones (and just past it).
EDGE_WORDS = ["k0", "u1", "u2", "mid", "u4", "u5", "k6", "u7", "k0"]


class TestDocumentedOrder:
    @given(words=words_strategy, config=st.sampled_from(ORACLE_CONFIGS),
           seed=st.integers(0, 2**32 - 1), keep=st.sampled_from([0.2, 0.8, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_on_random_sentences(self, words, config, seed, keep):
        assert_in_documented_order(text_model([words], config, np.random.default_rng(seed), keep), words)

    @pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=str)
    @pytest.mark.parametrize("case", sorted(ORACLE_SENTENCES))
    def test_named_cases(self, case, config):
        model = text_model(ORACLE_SENTENCES.values(), config, np.random.default_rng(6))
        assert_in_documented_order(model, ORACLE_SENTENCES[case])

    @pytest.mark.parametrize("window", [0, 1, 2, 3, 4])
    def test_known_folds_at_the_window_edges(self, window):
        config = FeatureConfig(2, 4, window)
        model = context_model(EDGE_WORDS, config, {"k0", "k6"}, np.random.default_rng(window))
        assert_in_documented_order(model, EDGE_WORDS)

    def test_folds_repeated_inside_one_window(self):
        words = ["Hive", "x", "HIVE", "hive", "y", "Hive", "z", "hIVE"]
        for window in (0, 2, 4, 7):
            config = FeatureConfig(2, 4, window)
            model = context_model(words, config, {"hive", "z"}, np.random.default_rng(window))
            assert_in_documented_order(model, words)

    def test_all_oov_sentence(self):
        """No fold of the sentence is known: only the boundary, sequence,
        tag, shape and n-gram weights that the model happens to know add."""
        words = ["Zqxv", "wqpz", "12", "!", "Zqxv"]
        others = text_model([["Other", "words", "99"]], FeatureConfig(), np.random.default_rng(4), 1.0)
        no_folds = context_model(words, FeatureConfig(), set(), np.random.default_rng(4))
        for model in (others, no_folds):
            assert_in_documented_order(model, words)

    def test_long_sentence_of_known_words(self):
        words = [f"w{k % 37}" if k % 5 else f"W{k % 11}" for k in range(600)]
        for config in (FeatureConfig(), FeatureConfig(1, 3, 9)):
            assert_in_documented_order(text_model([words], config, np.random.default_rng(7), 1.0), words)


class TestTrainingAddsAsDecode:
    @given(words=words_strategy, config=st.sampled_from(ORACLE_CONFIGS),
           seed=st.integers(0, 2**32 - 1), keep=st.sampled_from([0.2, 0.8, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_on_random_sentences(self, words, config, seed, keep):
        assert_training_adds_as_decode(text_model([words], config, np.random.default_rng(seed), keep), words)

    @pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=str)
    @pytest.mark.parametrize("case", sorted(ORACLE_SENTENCES))
    def test_named_cases(self, case, config):
        model = text_model(ORACLE_SENTENCES.values(), config, np.random.default_rng(6))
        assert_training_adds_as_decode(model, ORACLE_SENTENCES[case])

    @pytest.mark.parametrize("window", [0, 1, 2, 3, 4])
    def test_known_folds_at_the_window_edges(self, window):
        config = FeatureConfig(2, 4, window)
        model = context_model(EDGE_WORDS, config, {"k0", "k6"}, np.random.default_rng(window))
        assert_training_adds_as_decode(model, EDGE_WORDS)

    def test_long_sentence_of_known_words(self):
        words = [f"w{k % 37}" if k % 5 else f"W{k % 11}" for k in range(600)]
        model = text_model([words], FeatureConfig(1, 3, 9), np.random.default_rng(7), 1.0)
        assert_training_adds_as_decode(model, words)


# Unigrams only, default bounds, wide spans, and a floor that "<a>" is under.
RAW_CONFIGS = [
    FeatureConfig(1, 1, 1),
    FeatureConfig(2, 4, 4),
    FeatureConfig(3, 5, 2),
    FeatureConfig(1, 6, 6),
    FeatureConfig(5, 6, 1),
]
# Repeated n-grams, lower() changing the length ("İ") or not ("ß"), and texts
# shorter than ngram_min.
RAW_TEXTS = ["aaaa", "Aaaa", "İ", "İstanbul", "ß", "Straße", "a", "ab", "C++", "2,019"]


def assert_local_sums_exact(text, config, seed, keep):
    """_text_sums' local sums equal, bit for bit, the known weights of the
    own strings of text_share over raw keys added in tuple order."""
    model = text_model([[text], RAW_TEXTS], config, np.random.default_rng(seed), keep)
    weights = dict(zip(model.feature_index.strings(), model.emission_weights.tolist()))
    local_t = local_o = 0.0
    for feature in text_share(text, config, raw_keys())[3]:
        if feature in weights:
            local_t, local_o = local_t + weights[feature][0], local_o + weights[feature][1]
    assert _text_sums(Decoder(model), text)[3] == ((local_t, local_o),)


class TestRawNgramSums:
    @given(text=st.text(min_size=1, max_size=10), config=st.sampled_from(RAW_CONFIGS),
           seed=st.integers(0, 2**32 - 1), keep=st.sampled_from([0.5, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_equal_to_the_own_strings_sum(self, text, config, seed, keep):
        assert_local_sums_exact(text, config, seed, keep)

    @pytest.mark.parametrize("config", RAW_CONFIGS, ids=str)
    @pytest.mark.parametrize("text", RAW_TEXTS)
    def test_named_cases(self, text, config):
        for seed, keep in ((1, 0.5), (2, 0.8), (3, 1.0)):
            assert_local_sums_exact(text, config, seed, keep)


class TestLogPartition:
    def test_uniform_counts_sequences(self):
        for length in (1, 2, 5, 9):
            table = PotentialTable(
                start=np.zeros(2), steps=np.zeros((length - 1, 2, 2))
            )
            assert math.isclose(log_partition(table), length * math.log(2), abs_tol=1e-12)

    def test_length_one(self):
        table = PotentialTable(start=np.array([0.3, -1.2]), steps=np.zeros((0, 2, 2)))
        assert math.isclose(
            log_partition(table), np.logaddexp(0.3, -1.2), abs_tol=1e-12
        )

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            table = random_table(rng, int(rng.integers(1, 9)))
            scores = enumerate_scores(table)
            expected = np.logaddexp.reduce(np.array(list(scores.values())))
            assert abs(log_partition(table) - expected) < 1e-8

    def test_per_position_shift_moves_log_z_exactly(self):
        rng = np.random.default_rng(2)
        table = random_table(rng, 5)
        base = log_partition(table)
        shifted = PotentialTable(start=table.start.copy(), steps=table.steps.copy())
        shifted.steps[2] += 4.25
        assert math.isclose(log_partition(shifted), base + 4.25, abs_tol=1e-9)
        labels = [T, O, T, T, O]
        assert math.isclose(
            sequence_log_prob(table, labels),
            sequence_log_prob(shifted, labels),
            abs_tol=1e-9,
        )


class TestSequenceLogProb:
    def test_uniform(self):
        table = PotentialTable(start=np.zeros(2), steps=np.zeros((3, 2, 2)))
        assert math.isclose(
            sequence_log_prob(table, [T, O, T, O]), math.log(1 / 16), abs_tol=1e-12
        )

    def test_single_position(self):
        table = PotentialTable(start=np.zeros(2), steps=np.zeros((0, 2, 2)))
        for label in (T, O):
            assert math.isclose(
                sequence_log_prob(table, [label]), math.log(0.5), abs_tol=1e-12
            )

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            length = int(rng.integers(1, 9))
            table = random_table(rng, length)
            total = sum(
                math.exp(sequence_log_prob(table, list(labels)))
                for labels in itertools.product((T, O), repeat=length)
            )
            assert abs(total - 1.0) < 1e-9

    def test_always_non_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            table = random_table(rng, 6)
            labels = [T if rng.random() < 0.5 else O for _ in range(6)]
            assert sequence_log_prob(table, labels) <= 0.0

    def test_length_mismatch(self):
        table = PotentialTable(start=np.zeros(2), steps=np.zeros((1, 2, 2)))
        with pytest.raises(LengthMismatchError):
            sequence_log_prob(table, [T])


class TestViterbi:
    def test_all_zero_model_prefers_o(self):
        model = build_model(["f=1"])
        assert viterbi(model, [feats("f=1")] * 4) == [O, O, O, O]

    def test_dominant_emission(self):
        model = build_model(["hot=1"], emission=[[10.0, 0.0]])
        got = viterbi(model, [feats(), feats("hot=1"), feats()])
        assert got == [O, T, O]

    def test_matches_enumeration_on_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            length = int(rng.integers(1, 11))
            table = random_table(rng, length)
            decoded = viterbi_from_table(table)
            decoded_idx = tuple(0 if l is T else 1 for l in decoded)
            assert decoded_idx == enumeration_argmax(enumerate_scores(table))

    def test_matches_enumeration_on_tied_integer_tables(self):
        # Potentials in {-1, 0, 1} make many paths tie, which exercises the
        # tie rule at every position. viterbi_from_table feeds the table's
        # floats to _viterbi, the one Viterbi that decode also calls.
        rng = np.random.default_rng(17)
        for _ in range(1000):
            length = int(rng.integers(1, 9))
            table = PotentialTable(
                start=rng.integers(-1, 2, size=2).astype(float),
                steps=rng.integers(-1, 2, size=(length - 1, 2, 2)).astype(float),
            )
            decoded = tuple(0 if l is T else 1 for l in viterbi_from_table(table))
            assert decoded == enumeration_argmax(enumerate_scores(table))

    def test_tie_break_under_symmetric_potentials(self):
        # transitions favour staying, emissions are silent: all-T and all-O
        # tie, and the decoder must pick all-O.
        transition = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        model = build_model(["f=1"], transition=transition)
        assert viterbi(model, [feats()] * 3) == [O, O, O]


def integer_model(words, rng, window):
    """A model that knows only the W0 features of these words, with weights
    and transitions in {-1, 0, 1}, so that many paths tie."""
    strings = sorted({f"W0={w.casefold()}" for w in words})
    emission = rng.integers(-1, 2, size=(len(strings), 2)).astype(float)
    transition = rng.integers(-1, 2, size=(3, 2)).astype(float)
    return CrfModel(FeatureIndex(strings), emission, transition,
                    feature_config=FeatureConfig(2, 4, window))


class TestDecode:
    """decode, stage II's numpy-free path, against viterbi_from_table on the
    potentials of the same node scores and on the reference potentials."""

    @given(words=words_strategy, config=st.sampled_from(ORACLE_CONFIGS), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_table_decodes(self, words, config, seed):
        model = text_model([words], config, np.random.default_rng(seed))
        decoder, sentence = Decoder(model), make_sentence(words)
        reference = viterbi_from_table(potentials(model, sentence_features(sentence, config)))
        for _ in range(3):  # first sighting, admitted, then a table hit
            assert decode(decoder, sentence.texts) == reference
            assert decode(decoder, sentence.texts) == viterbi_from_table(sentence_potentials(decoder, sentence))

    @pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=str)
    @pytest.mark.parametrize("case", sorted(ORACLE_SENTENCES))
    def test_named_cases(self, case, config):
        words = ORACLE_SENTENCES[case]
        model = text_model(ORACLE_SENTENCES.values(), config, np.random.default_rng(5))
        reference = viterbi_from_table(potentials(model, sentence_features(make_sentence(words), config)))
        decoder = Decoder(model)
        for _ in range(3):
            assert decode(decoder, tuple(words)) == reference

    def test_long_sentence(self):
        words = [f"w{k % 37}" if k % 5 else f"W{k % 11}" for k in range(600)]
        model = text_model([words], FeatureConfig(), np.random.default_rng(7), 1.0)
        reference = viterbi_from_table(potentials(model, sentence_features(make_sentence(words))))
        assert decode(Decoder(model), words) == reference

    def test_feeds_the_core_the_table_floats(self, monkeypatch):
        """decode and viterbi_from_table call one Viterbi, and decode's clique
        scores equal sentence_potentials' entries bit for bit."""
        calls, core = [], crf._viterbi

        def recording(start, steps):
            calls.append((list(start), [[list(row) for row in step] for step in steps]))
            return core(start, steps)

        monkeypatch.setattr(crf, "_viterbi", recording)
        for words in ORACLE_SENTENCES.values():
            model = text_model([words], FeatureConfig(), np.random.default_rng(3))
            decoder, sentence = Decoder(model), make_sentence(words)
            calls.clear()
            labels = decode(decoder, sentence.texts)
            table = sentence_potentials(decoder, sentence)
            assert labels == viterbi_from_table(table)
            assert len(calls) == 2 and calls[0] == calls[1]
            assert calls[1] == (table.start.tolist(), table.steps.tolist())

    def test_tied_integer_weights_follow_the_tie_rule(self):
        """1,000 decodes whose potentials are small integers, so that many
        paths tie: decode picks enumeration's argmax under the tie rule."""
        rng = np.random.default_rng(17)
        vocab = ["a", "b", "C", "d", "E"]
        for _ in range(1000):
            words = [vocab[k] for k in rng.integers(0, len(vocab), size=int(rng.integers(1, 9)))]
            model = integer_model(vocab, rng, window=int(rng.integers(0, 3)))
            table = potentials(model, sentence_features(make_sentence(words), model.feature_config))
            decoded = tuple(0 if l is T else 1 for l in decode(Decoder(model), words))
            assert decoded == enumeration_argmax(enumerate_scores(table))

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError, match="empty sentence"):
            decode(Decoder(build_model(["f=1"])), ())


class TestTripleKeys:
    """The decoder looks PSEQ and SHSEQ weights up by the (prev, cur, next)
    tuple. A stored value that is not a triple can match no feature string,
    so it never fires there either."""

    # Strings in sorted (id) order. The weights are powers of two, so every
    # sum is exact in any order.
    MODEL = build_model(
        ["PSEQ=", "PSEQ=BOS_CAP_LOWER", "PSEQ=CAP_LOWER", "SHSEQ=X_x_x_x",
         "SHSEQ=Xx_x_EOS", "W0=kafka"],
        [[16.0, -32.0], [0.5, -0.25], [1.0, -2.0], [4.0, 8.0], [-0.125, 2.0], [64.0, -1.0]],
        [[0.5, -1.0], [2.0, -4.0], [-8.0, 0.25]],
    )
    SENTENCES = [["Apache", "kafka"], ["Apache"], ["Kafka", "Apache", "kafka"], ["X", "x", "x", "x"]]

    def test_only_triples_are_kept(self):
        decoder = Decoder(self.MODEL)
        assert set(decoder.weights["PSEQ="]) == {("BOS", "CAP", "LOWER")}
        assert set(decoder.weights["SHSEQ="]) == {("Xx", "x", "EOS")}

    @pytest.mark.parametrize("words", SENTENCES, ids="_".join)
    def test_equal_to_the_reference(self, words):
        sentence = make_sentence(words)
        reference = potentials(self.MODEL, sentence_features(sentence, self.MODEL.feature_config))
        decoder = Decoder(self.MODEL)
        for _ in range(3):  # first sighting, admitted, then a table hit
            table = sentence_potentials(decoder, sentence)
            assert table.start.tolist() == reference.start.tolist()
            assert table.steps.tolist() == reference.steps.tolist()
            assert decode(decoder, sentence.texts) == viterbi_from_table(reference)

    def test_the_well_formed_keys_fire(self):
        fired = sentence_features(make_sentence(["Apache", "kafka"]))
        assert "PSEQ=BOS_CAP_LOWER" in fired[0] and "SHSEQ=Xx_x_EOS" in fired[1]
        table = sentence_potentials(Decoder(self.MODEL), make_sentence(["Apache", "kafka"]))
        assert table.start.tolist() == [0.5 + 0.5, -1.0 - 0.25]


class TestMarginals:
    def test_uniform_marginals(self):
        table = PotentialTable(start=np.zeros(2), steps=np.zeros((2, 2, 2)))
        node, edge = marginals(table)
        assert np.allclose(node, 0.5)
        assert np.allclose(edge, 0.25)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            length = int(rng.integers(1, 9))
            table = random_table(rng, length)
            scores = enumerate_scores(table)
            values = np.array(list(scores.values()))
            probs = np.exp(values - np.logaddexp.reduce(values))
            node_ref = np.zeros((length, 2))
            edge_ref = np.zeros((length - 1, 2, 2))
            for (states, _), p in zip(scores.items(), probs):
                for i, s in enumerate(states):
                    node_ref[i, s] += p
                for j in range(length - 1):
                    edge_ref[j, states[j], states[j + 1]] += p
            node, edge = marginals(table)
            assert np.max(np.abs(node - node_ref)) < 1e-8
            if length > 1:
                assert np.max(np.abs(edge - edge_ref)) < 1e-8

    def test_node_marginals_normalize(self):
        rng = np.random.default_rng(7)
        table = random_table(rng, 12)
        node, _ = marginals(table)
        assert np.max(np.abs(node.sum(axis=1) - 1.0)) < 1e-9

    def test_edge_marginalization_identity(self):
        rng = np.random.default_rng(8)
        table = random_table(rng, 7)
        node, edge = marginals(table)
        assert np.max(np.abs(edge.sum(axis=1) - node[1:])) < 1e-9

    def test_no_overflow_on_long_extreme_chains(self):
        # |log phi| up to 50 over 10^4 positions stays finite in log-space.
        rng = np.random.default_rng(9)
        length = 10_000
        table = PotentialTable(
            start=rng.uniform(-50, 50, size=2),
            steps=rng.uniform(-50, 50, size=(length - 1, 2, 2)),
        )
        assert np.isfinite(log_partition(table))
        node, _ = marginals(table)
        assert np.isfinite(node).all()
        labels = [T if rng.random() < 0.5 else O for _ in range(length)]
        assert np.isfinite(sequence_log_prob(table, labels))


def reference_backward(steps):
    """Log backward scores (n, L, 2) of a batch of chains, by their own loop:
    entry [k, i, s] sums over the continuations of chain k after position i,
    given state s at i."""
    betas = np.zeros((len(steps), steps.shape[1] + 1, 2))
    for j in range(steps.shape[1] - 1, -1, -1):
        betas[:, j] = np.logaddexp.reduce(
            steps[:, j] + betas[:, j + 1, None, :], axis=2
        )
    return betas


def reference_posteriors(start, steps):
    """_posteriors with the backward scores of reference_backward."""
    alphas, betas = _forward(start, steps), reference_backward(steps)
    log_z = _log_z(alphas)
    node = np.exp(alphas + betas - log_z[:, None, None])
    edge = np.exp(
        alphas[:, :-1, :, None] + steps + betas[:, 1:, None, :]
        - log_z[:, None, None, None]
    )
    return log_z, node, edge


class TestPosteriors:
    @given(
        chains=st.integers(1, 12),
        length=st.integers(1, 20),
        scale=st.sampled_from([0.01, 1.0, 30.0, 700.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_the_backward_loop(self, chains, length, scale, seed):
        """The backward pass, run as the forward one over the reversed chain
        with each step transposed, equals its own loop bit for bit."""
        rng = np.random.default_rng(seed)
        start = rng.normal(size=(chains, 2)) * scale
        steps = rng.normal(size=(chains, length - 1, 2, 2)) * scale
        for got, expected in zip(_posteriors(start, steps), reference_posteriors(start, steps)):
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)


def random_training_setup(rng, n_features=5, n_sequences=3, max_len=5):
    index = FeatureIndex(f"f={i}" for i in range(n_features))
    dataset = []
    for _ in range(n_sequences):
        length = int(rng.integers(1, max_len + 1))
        features = []
        labels = []
        for _ in range(length):
            count = int(rng.integers(0, 4))
            chosen = rng.choice(n_features, size=count, replace=False)
            features.append(feats(*(f"f={i}" for i in chosen)))
            labels.append(T if rng.random() < 0.5 else O)
        dataset.append((features, labels))
    return index, dataset


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        index, dataset = random_training_setup(rng)
        prepared = prepare_dataset(dataset, index)
        emission = rng.normal(size=(len(index), 2)) * 0.5
        transition = rng.normal(size=(3, 2)) * 0.5
        l2 = 0.8
        _, grad_e, grad_t = regularized_log_likelihood_and_gradient(
            prepared, emission, transition, l2
        )

        eps = 1e-5
        worst = 0.0
        for arr, grad in ((emission, grad_e), (transition, grad_t)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + eps
                up = regularized_log_likelihood_and_gradient(
                    prepared, emission, transition, l2
                )[0]
                arr[idx] = old - eps
                down = regularized_log_likelihood_and_gradient(
                    prepared, emission, transition, l2
                )[0]
                arr[idx] = old
                numeric = (up - down) / (2 * eps)
                worst = max(worst, abs(grad[idx] - numeric) / (abs(numeric) + 1e-10))
        assert worst < 1e-4


def path_counts(ids_per_position, states, n_features):
    """Emission and transition feature counts of one label path."""
    emission = np.zeros((n_features, 2))
    transition = np.zeros((3, 2))
    previous = 0  # BOS row
    for ids, state in zip(ids_per_position, states):
        emission[ids, state] += 1.0
        transition[previous, state] += 1.0
        previous = 1 + state
    return emission, transition


class TestObjective:
    def test_matches_enumeration(self):
        """Value and gradient against brute force over every label path, on
        datasets with length-1 sequences, repeated lengths, and positions
        that fire no known feature."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            n_features = int(rng.integers(1, 6))
            names = [f"f={i}" for i in range(n_features)]
            model = build_model(
                names, rng.normal(size=(n_features, 2)), rng.normal(size=(3, 2))
            )
            lengths = [1, 1, 3, 3, *rng.integers(1, 7, size=4).tolist()]
            dataset = []
            for length in rng.permutation(lengths):
                features = []
                for _ in range(length):
                    count = int(rng.integers(0, n_features + 1))
                    known = rng.choice(n_features, size=count, replace=False)
                    unknown = [f"u={k}" for k in range(int(rng.integers(0, 3)))]
                    features.append(feats(*(names[i] for i in known), *unknown))
                labels = [T if rng.random() < 0.5 else O for _ in range(length)]
                dataset.append((features, labels))
            l2 = float(rng.uniform(0.0, 1.5))
            emission, transition = model.emission_weights, model.transition_weights

            value, grad_e, grad_t = regularized_log_likelihood_and_gradient(
                prepare_dataset(dataset, model.feature_index), emission, transition, l2
            )

            ref_value = -0.5 * l2 * ((emission**2).sum() + (transition**2).sum())
            ref_e, ref_t = -l2 * emission, -l2 * transition
            for features, labels in dataset:
                ids = [known_ids(model.feature_index, f) for f in features]
                scores = enumerate_scores(potentials(model, features))
                log_z = np.logaddexp.reduce(np.array(list(scores.values())))
                gold = tuple(0 if l is T else 1 for l in labels)
                ref_value += scores[gold] - log_z
                observed_e, observed_t = path_counts(ids, gold, n_features)
                ref_e += observed_e
                ref_t += observed_t
                for states, score in scores.items():
                    path_e, path_t = path_counts(ids, states, n_features)
                    ref_e -= math.exp(score - log_z) * path_e
                    ref_t -= math.exp(score - log_z) * path_t

            assert value == pytest.approx(ref_value, rel=1e-9)
            assert np.allclose(grad_e, ref_e, rtol=1e-9, atol=1e-9)
            assert np.allclose(grad_t, ref_t, rtol=1e-9, atol=1e-9)


def objective_at(model, dataset):
    return regularized_log_likelihood_and_gradient(
        prepare_dataset(dataset, model.feature_index),
        model.emission_weights,
        model.transition_weights,
        model.l2,
    )


def decodes(model, dataset):
    return [viterbi(model, features) for features, _ in dataset]


def co_occurrence_dataset(n=50):
    dataset = []
    for i in range(n):
        features = [feats("W0=uses"), feats("W0=hive"), feats(f"W0=x{i % 7}")]
        labels = [O, T, O]
        dataset.append((features, labels))
    return dataset


def concave_quadratic(rng, n=30):
    """A random strictly concave quadratic with eigenvalues 1e3..1e6
    (condition number 1e3), and its argmax. Its peak value is 0, so the stop
    rules, a rise of at most 1e-11 or a gradient norm of at most 1e-5, leave
    an iterate within about 1e-7 of the argmax."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * np.logspace(3, 6, n)) @ q.T
    peak = rng.uniform(-1.0, 1.0, size=n) / np.sqrt(n)

    def fun(x):
        gap = x - peak
        return -0.5 * float(gap @ a @ gap), -(a @ gap)

    return fun, peak


def crf_objective(prepared, n_features, l2):
    """The training objective over one flat weight vector."""

    def fun(x):
        emission, transition = x[: 2 * n_features].reshape(-1, 2), x[2 * n_features :]
        value, grad_e, grad_t = regularized_log_likelihood_and_gradient(
            prepared, emission, transition.reshape(3, 2), l2
        )
        return value, np.concatenate([grad_e.ravel(), grad_t.ravel()])

    return fun


class TestLbfgs:
    def test_finds_argmax_of_ill_conditioned_quadratic(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            fun, peak = concave_quadratic(rng)
            x = lbfgs_maximize(fun, np.zeros(len(peak)), 1000)
            assert np.max(np.abs(x - peak)) <= 1e-6

    def test_every_step_meets_the_armijo_condition(self):
        """Each accepted step rises by at least 1e-4 times the rise its
        gradient predicts, so the reported objective never falls."""
        rng = np.random.default_rng(21)
        problems = [(concave_quadratic(rng)[0], 30) for _ in range(3)]
        for _ in range(5):
            index, dataset = random_training_setup(
                rng, n_features=8, n_sequences=12, max_len=8
            )
            fun = crf_objective(prepare_dataset(dataset, index), len(index), 0.1)
            problems.append((fun, 2 * len(index) + 6))
        for fun, size in problems:
            points = [(np.zeros(size), *fun(np.zeros(size)))]
            lbfgs_maximize(
                fun, np.zeros(size), 100,
                lambda step, x, value, grad, evaluations: points.append(
                    (x.copy(), value, grad.copy())
                ),
            )
            assert len(points) > 2
            for (x, value, grad), (x_new, value_new, _) in zip(points, points[1:]):
                assert value_new >= value + 1e-4 * float(grad @ (x_new - x))
                assert value_new >= value

    def test_zero_curvature_pairs_are_skipped(self):
        # Minus the Huber loss is linear more than 1 from its peak: there a
        # step leaves the gradient unchanged, so its pair has y = 0.
        peak = np.array([0.5, -1.0, 2.0])

        def fun(x):
            gap = np.abs(x - peak)
            loss = np.where(gap <= 1.0, 0.5 * gap**2, gap - 0.5)
            return -float(loss.sum()), -np.clip(x - peak, -1.0, 1.0)

        x = lbfgs_maximize(fun, peak + 10.0, 1000)
        assert np.max(np.abs(x - peak)) <= 1e-6

    @pytest.mark.parametrize("offset", [40.0, -40.0, 100.0])
    def test_nearly_linear_stretch_reaches_the_peak(self, offset):
        # Far from its peak, minus log cosh has curvature ~4 exp(-2 |x|): a
        # pair there has a tiny y.s for its s.s, and keeping it would set a
        # step scale s.y / y.y that the halvings cannot undo.
        peak = np.array([0.5, -1.0, 2.0])

        def fun(x):
            gap = x - peak
            return -float((np.logaddexp(gap, -gap) - math.log(2)).sum()), -np.tanh(gap)

        x = lbfgs_maximize(fun, peak + offset, 1000)
        assert np.max(np.abs(x - peak)) <= 1e-6

    def test_matches_or_beats_gradient_ascent(self):
        rng = np.random.default_rng(22)
        cases = [co_occurrence_dataset()]
        for _ in range(20):
            cases.append(random_training_setup(rng, n_features=8, n_sequences=10, max_len=8)[1])
        for dataset in cases:
            model = train_crf(dataset, CrfConfig(feature_min_count=1))
            # Both sides train over the features that fire in the dataset.
            index = model.feature_index
            emission, transition = gradient_ascent_reference(
                prepare_dataset(dataset, index), len(index), model.l2
            )
            reference = build_model(index.strings(), emission, transition)
            # L-BFGS stops once a step rises by at most 1e-11 of the
            # objective; 100 fixed-rate steps can converge further on these
            # small problems, so the bound allows 1e-10 of it.
            reached = objective_at(reference, dataset)[0]
            assert objective_at(model, dataset)[0] >= reached - 1e-10 * abs(reached)
            assert decodes(model, dataset) == decodes(reference, dataset)


class TestTraining:
    def test_learns_co_occurring_feature(self):
        model = train_crf(co_occurrence_dataset(), CrfConfig(epochs=30, l2=1.0))
        idx = model.feature_index.lookup("W0=hive")
        assert idx is not None
        assert model.emission_weights[idx, 0] > model.emission_weights[idx, 1]

    def test_epochs_zero_gives_zero_model(self):
        model = train_crf(co_occurrence_dataset(), CrfConfig(epochs=0))
        assert np.all(model.emission_weights == 0.0)
        assert np.all(model.transition_weights == 0.0)

    def test_gradient_linearity_in_data(self):
        """Doubling the data and l2 doubles the objective and keeps its argmax.
        L-BFGS steps do not change when the objective is scaled, as the first
        is normalized by ||g|| and later ones by s.y / y.y, so both runs take
        the same steps and agree to 1e-9."""
        data = co_occurrence_dataset(10)
        a = train_crf(data, CrfConfig(l2=0.5, feature_min_count=1))
        b = train_crf(data * 2, CrfConfig(l2=1.0, feature_min_count=1))
        assert np.allclose(a.emission_weights, b.emission_weights, rtol=0, atol=1e-9)
        assert np.allclose(a.transition_weights, b.transition_weights, rtol=0, atol=1e-9)

    def test_deterministic(self):
        data = co_occurrence_dataset(20)
        cfg = CrfConfig(epochs=5)
        a = train_crf(data, cfg)
        b = train_crf(data, cfg)
        assert np.array_equal(a.emission_weights, b.emission_weights)
        assert np.array_equal(a.transition_weights, b.transition_weights)

    def test_nll_decreases(self):
        """The objective never falls from one step to the next, so every
        step's nll, which is at most minus its objective, stays below the nll
        at the zero initialization."""
        data = co_occurrence_dataset(30)
        history = []
        model = train_crf(
            data, CrfConfig(epochs=15, l2=0.1),
            callback=lambda e, m: history.append(m),
        )
        start = objective_at(build_model(model.feature_index.strings()), data)[0]
        objectives = [start] + [m["objective"] for m in history]
        assert len(history) >= 2
        assert all(after >= before for before, after in zip(objectives, objectives[1:]))
        assert all(m["nll"] < -start for m in history)

    def test_callback_reports_gradient_norm_at_the_weights(self):
        data = co_occurrence_dataset(30)
        for epochs in (1, 2, 3, 100):
            history = []
            model = train_crf(
                data, CrfConfig(epochs=epochs, l2=0.1),
                callback=lambda e, m: history.append((e, m)),
            )
            assert [e for e, _ in history] == list(range(len(history)))
            assert 1 <= len(history) <= epochs
            value, grad_e, grad_t = objective_at(model, data)
            last = history[-1][1]
            assert last["objective"] == value
            assert last["grad_norm"] == pytest.approx(
                math.hypot(np.linalg.norm(grad_e), np.linalg.norm(grad_t)), rel=1e-12
            )
            penalty = 0.05 * (
                (model.emission_weights**2).sum() + (model.transition_weights**2).sum()
            )
            assert last["nll"] == pytest.approx(-(value + penalty), rel=1e-12)
            evaluations = [m["evaluations"] for _, m in history]
            assert evaluations[0] >= 2
            assert all(b > a for a, b in zip(evaluations, evaluations[1:]))

    @pytest.mark.parametrize(
        "features", [FeatureConfig(0, 2, 1), FeatureConfig(5, 2, 1), FeatureConfig(2, 4, -3)]
    )
    def test_bad_feature_config_rejected(self, features):
        with pytest.raises(ConfigError):
            check(features)
        with pytest.raises(ConfigError):
            check(CrfConfig(feature_config=features))

    def test_edge_feature_configs_validate(self):
        for features in (FeatureConfig(1, 1, 0), FeatureConfig(3, 3, 1), *ORACLE_CONFIGS):
            check(CrfConfig(feature_config=features))

    def test_no_feature_at_min_count_trains_the_transitions(self):
        """A dataset in which no feature fires twice keeps no feature at the
        default min count, and trains the transitions alone."""
        dataset = [([feats("W0=a"), feats("W0=b")], [T, O]), ([feats("W0=c")], [T])]
        model = train_crf(dataset, CrfConfig(epochs=5))
        assert len(model.feature_index) == 0 and model.emission_weights.shape == (0, 2)
        assert model.transition_weights[0, 0] > model.transition_weights[0, 1]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train_crf([], CrfConfig())

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            train_crf([([feats("a=1")], [T, O])], CrfConfig(epochs=1))


class TestWalkKeepsTheFeatures:
    """The walk changes the order training adds in, never which features a
    model holds or fires."""

    @given(sentences=st.lists(words_strategy, min_size=1, max_size=5),
           config=st.sampled_from(ORACLE_CONFIGS), min_count=st.sampled_from([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_index_and_ids_equal_those_of_the_sets(self, sentences, config, min_count):
        labeled = [LabeledSentence.from_token_labels(make_sentence(words), [T] + [O] * (len(words) - 1))
                   for words in sentences]
        dataset = crf_dataset(labeled, config)
        sets = [sentence_features(make_sentence(words), config) for words in sentences]
        assert [[frozenset(fired) for fired in positions] for positions, _ in dataset] == sets
        assert all(len(fired) == len(set(fired)) for positions, _ in dataset for fired in positions)

        model = train_crf(dataset, CrfConfig(epochs=0, feature_min_count=min_count, feature_config=config))
        reference = FeatureIndex.build((fired for positions in sets for fired in positions), min_count)
        assert model.feature_index.strings() == reference.strings()
        prepared = prepare_dataset(dataset, model.feature_index)
        by_length = sorted(range(len(sets)), key=lambda k: len(sets[k]))
        expected = [known_ids(reference, fired) for k in by_length for fired in sets[k]]
        got = [sorted(prepared.feature_ids[prepared.tokens == t].tolist()) for t in range(len(expected))]
        assert got == expected


class TestSerialization:
    def test_round_trip_identical_decodes(self, tmp_path):
        rng = np.random.default_rng(11)
        _, dataset = random_training_setup(rng, n_features=8, n_sequences=10)
        model = train_crf(
            dataset, CrfConfig(epochs=5, feature_min_count=1)
        )
        path = tmp_path / "crf.bin"
        save_crf(model, path)
        loaded = load_crf(path)
        assert np.array_equal(loaded.emission_weights, model.emission_weights)
        assert np.array_equal(loaded.transition_weights, model.transition_weights)
        assert loaded.l2 == model.l2
        assert loaded.feature_config == model.feature_config
        for features, _ in dataset:
            assert viterbi(loaded, features) == viterbi(model, features)

    def test_first_seen_order_loads_to_the_same_potentials(self, tmp_path):
        """Older files hold their strings in first-seen order. Loading numbers
        them in sorted order and moves the emission rows with them, so one
        set of weights gives byte-equal potentials from either file, equal to
        summing its rows in sorted-string order."""
        rng = np.random.default_rng(13)
        names = [f"f={k}" for k in rng.permutation(40)]
        emission = rng.normal(size=(40, 2))
        transition = rng.normal(size=(3, 2))
        # save_crf writes the strings of strings(), in its order.
        old = CrfModel(SimpleNamespace(strings=lambda: names), emission, transition)
        order = sorted(range(40), key=names.__getitem__)
        new = build_model(sorted(names), emission[order], transition)
        save_crf(old, tmp_path / "old.bin")
        save_crf(new, tmp_path / "new.bin")
        assert (tmp_path / "old.bin").read_bytes() != (tmp_path / "new.bin").read_bytes()

        from_old, from_new = load_crf(tmp_path / "old.bin"), load_crf(tmp_path / "new.bin")
        assert from_old.feature_index.strings() == sorted(names)
        assert from_old.emission_weights.tobytes() == from_new.emission_weights.tobytes()
        for _ in range(30):
            sentence = [
                feats(*rng.choice(names, size=int(rng.integers(0, 12)), replace=False))
                for _ in range(int(rng.integers(1, 9)))
            ]
            start, steps = reference_potentials(new, sentence)
            for model in (from_old, from_new):
                table = potentials(model, sentence)
                assert table.start.tobytes() == start.tobytes()
                assert table.steps.tobytes() == steps.tobytes()
