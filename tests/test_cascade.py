import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from termex.cascade import (
    PipelineModels,
    PipelineStats,
    extract_from_document,
    extract_sentence,
    gate,
    spans_from_labels,
    stage1_logits,
    tag,
)
from termex.classifier import ClassifierModel, _forward, predict
from termex.corpus import Document, Sentence, SentenceLabel, Token, TokenLabel, split_document
from termex.crf import CrfModel, potentials, viterbi, viterbi_from_table
from termex.embeddings import EmbeddingModel, Vocabulary, embed_sentence
from termex.errors import LengthMismatchError, ModelMismatchError
from termex.features import FeatureIndex, sentence_features

T, O = TokenLabel.T, TokenLabel.O


def make_tokens(words):
    tokens = []
    at = 0
    for w in words:
        tokens.append(Token(w, at, at + len(w)))
        at += len(w) + 1
    return tuple(tokens)


class TestSpansFromLabels:
    def test_two_runs(self):
        spans = spans_from_labels(("a", "b", "c", "d", "e"), [O, T, T, O, T])
        assert [(s.start, s.end) for s in spans] == [(1, 2), (4, 4)]
        assert spans[0].text == "b c"

    def test_all_o(self):
        assert spans_from_labels(("a", "b"), [O, O]) == []

    def test_all_t(self):
        spans = spans_from_labels(("a", "b", "c"), [T, T, T])
        assert [(s.start, s.end) for s in spans] == [(0, 2)]
        assert spans[0].text == "a b c"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            spans_from_labels(("a",), [T, O])


class TestPipelineModels:
    def test_dimension_mismatch_rejected(self, small_run):
        models = small_run.models
        bad = ClassifierModel(np.zeros((2, models.embedding.dim + 1)), np.zeros(2))
        with pytest.raises(ModelMismatchError):
            PipelineModels(
                embedding=models.embedding, classifier=bad, crf=models.crf
            )

    def test_model_pairs_over_one_crf_decode_independently(self, small_run):
        """Each PipelineModels builds its own decoder: two over one CrfModel
        decode as the reference does, and each one's table holds only the
        texts that it decoded twice."""
        models = small_run.models
        first, second = (
            PipelineModels(models.embedding, models.classifier, models.crf) for _ in range(2)
        )
        texts = [(first, ["Teams", "deploy", "Kubernetes"]), (second, ["Vendors", "adopt", "Hive"])]
        for _ in range(2):
            for pair, words in texts:
                sentence = Sentence.from_tokens("d", 0, make_tokens(words))
                reference = viterbi(models.crf, sentence_features(sentence, models.crf.feature_config))
                assert tag(pair, sentence) == reference
        for pair, words in texts:
            assert set(pair.decoder.table) == pair.decoder.seen == set(words)


# Pseudo-words: letters, digits and joiners that no training sentence holds.
pseudo_words = st.text(alphabet="aeiouKkZzqx0129.-", min_size=1, max_size=12)


class TestTag:
    """cascade.tag, the numpy-free decode, against Viterbi over the reference
    potentials of sentence_features, with the small run's trained CRF."""

    @staticmethod
    def assert_matches_reference(models, words):
        sentence = Sentence.from_tokens("d", 0, make_tokens(words))
        fired = sentence_features(sentence, models.crf.feature_config)
        reference = viterbi_from_table(potentials(models.crf, fired))
        for _ in range(3):  # first sighting, admitted, then a table hit
            assert tag(models, sentence) == reference

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference(self, small_run, data):
        models = small_run.models
        known = st.sampled_from(models.embedding.vocab.words)
        word = known | known.map(str.capitalize) | pseudo_words
        words = data.draw(st.lists(word, min_size=1, max_size=60))
        self.assert_matches_reference(models, words)

    @pytest.mark.parametrize(
        "words",
        [["Kafka"], ["."], ["Zqxv"], ["deploy"]],
        ids=["term", "punctuation", "pseudo-word", "lowercase"],
    )
    def test_length_one_sentences(self, small_run, words):
        self.assert_matches_reference(small_run.models, words)

    def test_long_sentence(self, small_run):
        vocab = small_run.models.embedding.vocab.words
        words = [vocab[k % len(vocab)].capitalize() if k % 7 == 0 else vocab[(k * 13) % len(vocab)]
                 for k in range(400)]
        self.assert_matches_reference(small_run.models, words + ["Qzx-9", "Kafka", "."])


class TestExtraction:
    def test_qualitative_known_terms(self, small_run):
        doc = Document(
            id="demo",
            text="Researchers use TensorFlow daily. Developers prefer PyTorch today.",
        )
        extractions = extract_from_document(doc, small_run.models)
        texts = [s.text for e in extractions for s in e.term_spans]
        assert "TensorFlow" in texts
        assert "PyTorch" in texts

    def test_negative_sentences_skip_stage_two(self, small_run):
        doc = Document(
            id="none",
            text="Managers review the budget today. Analysts discuss the weather.",
        )
        stats = PipelineStats()
        extractions = extract_from_document(doc, small_run.models, stats)
        assert stats.sentences == 2
        assert all(not e.term_spans for e in extractions)
        positives = sum(e.sentence_positive for e in extractions)
        assert stats.stage2_invocations == positives

    def test_stage_two_invoked_exactly_on_positives(self, small_run):
        doc = Document(
            id="mixed",
            text=(
                "Teams deploy Kubernetes widely. Operators review the schedule. "
                "Vendors adopt Apache Hive for the roadmap."
            ),
        )
        stats = PipelineStats()
        extractions = extract_from_document(doc, small_run.models, stats)
        assert stats.sentences == 3
        assert stats.stage2_invocations == sum(e.sentence_positive for e in extractions)

    def test_span_text_matches_tokens(self, small_run):
        doc = Document(id="d", text="Engineers benchmark Apache Spark Streaming today.")
        sentences = split_document(doc)
        for extraction in extract_from_document(doc, small_run.models):
            sentence = sentences[extraction.sentence_index]
            for span in extraction.term_spans:
                expected = " ".join(
                    t.text for t in sentence.tokens[span.start : span.end + 1]
                )
                assert span.text == expected

    def test_document_equals_per_sentence_concatenation(self, small_run):
        doc = Document(
            id="cc",
            text="Students trial MLflow internally. Reporters audit the ledger.",
        )
        per_doc = extract_from_document(doc, small_run.models)
        from termex.cascade import extract_sentence

        per_sentence = [
            extract_sentence(small_run.models, s) for s in split_document(doc)
        ]
        assert per_doc == per_sentence


class TestZeroEvidence:
    @pytest.fixture
    def eager_models(self, small_run):
        """The small run's models behind a classifier whose bias calls every
        sentence positive."""
        dim = small_run.models.embedding.dim
        eager = ClassifierModel(np.zeros((2, dim)), np.array([5.0, -5.0]))
        return PipelineModels(
            embedding=small_run.models.embedding,
            classifier=eager,
            crf=small_run.models.crf,
        )

    @pytest.fixture
    def symbol_models(self, eager_models):
        """The eager models over a vocabulary of punctuation and SYM words."""
        words, dim = [".", ",", "node.js", "$"], eager_models.embedding.dim
        vectors = np.random.default_rng(4).normal(size=(len(words), dim))
        embedding = EmbeddingModel(Vocabulary(words), vectors)
        return PipelineModels(embedding, eager_models.classifier, eager_models.crf)

    @staticmethod
    def counts(stats):
        return (stats.sentences, stats.stage2_invocations, stats.zero_evidence,
                stats.punctuation_only, stats.tokens, stats.in_vocab_tokens)

    def assert_never_reaches_crf(self, models, monkeypatch, text):
        def no_crf(*args):
            raise AssertionError("stage II ran on a sentence without evidence")

        monkeypatch.setattr("termex.cascade.decode", no_crf)
        (sentence,) = split_document(Document(id="z", text=text))
        stats = PipelineStats()
        extraction = extract_sentence(models, sentence, stats)
        assert not extraction.sentence_positive
        assert extraction.term_spans == ()
        return sentence, stats

    @pytest.mark.parametrize("text", ["!!!", "Zqxv Wqpz Jxvk"])
    def test_no_in_vocabulary_token_never_reaches_crf(
        self, eager_models, monkeypatch, text
    ):
        sentence, stats = self.assert_never_reaches_crf(eager_models, monkeypatch, text)
        vocab = eager_models.embedding.vocab
        assert not any(word in vocab for word in sentence.folded_texts())
        assert self.counts(stats) == (1, 0, 1, 0, 3, 0)

    @pytest.mark.parametrize(
        "text, tokens, in_vocab_tokens",
        [(".", 1, 1), (". , .", 3, 2), ("Zqxv, wqpz.", 4, 1), ("Zqxv Wqpz Jxvk.", 4, 1)],
    )
    def test_punctuation_only_evidence_never_reaches_crf(
        self, eager_models, monkeypatch, text, tokens, in_vocab_tokens
    ):
        sentence, stats = self.assert_never_reaches_crf(eager_models, monkeypatch, text)
        vocab = eager_models.embedding.vocab
        in_vocab = {word for word in sentence.folded_texts() if word in vocab}
        assert in_vocab and in_vocab <= {".", ","}
        assert self.counts(stats) == (1, 0, 0, 1, tokens, in_vocab_tokens)

    def test_in_vocabulary_sentence_still_reaches_crf(self, eager_models):
        stats = PipelineStats()
        doc = Document(id="d", text="Teams deploy Kubernetes widely. Zqxv Wqpz Jxvk")
        extractions = extract_from_document(doc, eager_models, stats)
        assert [e.sentence_positive for e in extractions] == [True, False]
        assert self.counts(stats) == (2, 1, 1, 0, 8, 5)

    def test_punctuation_plus_one_word_reaches_crf(self, eager_models):
        stats = PipelineStats()
        doc = Document(id="d", text="Zqxv, wqpz. Zqxv, wqpz Kubernetes.")
        extractions = extract_from_document(doc, eager_models, stats)
        assert [e.sentence_positive for e in extractions] == [False, True]
        assert self.counts(stats) == (2, 1, 0, 1, 9, 3)

    def test_symbols_are_evidence(self, symbol_models):
        stats = PipelineStats()
        doc = Document(id="d", text="Zqxv node.js wqpz. Pay $ 5. Zqxv, wqpz.")
        extractions = extract_from_document(doc, symbol_models, stats)
        assert [e.sentence_positive for e in extractions] == [True, True, False]
        assert self.counts(stats) == (3, 2, 0, 1, 12, 6)

    @pytest.mark.parametrize("text", ["", "   \n\t  \n"])
    def test_empty_document_yields_nothing(self, small_run, text):
        stats = PipelineStats()
        doc = Document(id="e", text=text)
        assert extract_from_document(doc, small_run.models, stats) == []
        assert stats.sentences == 0



# Words for the gate oracle: PUNCT, SYM and LOWER, then the oracle's own.
GATE_WORDS = [".", ",", "$", "node.js"] + [f"w{i}" for i in range(6)]


def linear_classifier(output_weights, bias):
    return ClassifierModel(np.array(output_weights, float), np.array(bias, float))


def gate_models(vectors, classifier, words=GATE_WORDS):
    embedding = EmbeddingModel(Vocabulary(list(words)), np.asarray(vectors, float))
    crf = CrfModel(FeatureIndex(["W0=w0"]), np.zeros((1, 2)), np.zeros((3, 2)))
    return PipelineModels(embedding, classifier, crf)


def sentence_of(words):
    return Sentence.from_tokens("g", 0, make_tokens(words))


def in_vocab_rows(models, sentence):
    vocab = models.embedding.vocab
    return [vocab.index[w] for w in sentence.folded_texts() if w in vocab]


def reference_logits(models, sentence, rows):
    """classifier._forward on embed_sentence's mean vector, and each logit's
    tolerance: 1e-12 * (1 + the same sum taken over absolute values)."""
    c = models.classifier
    logits = _forward(c, embed_sentence(models.embedding, sentence).values[None, :])
    magnitude = np.abs(models.embedding.input_vectors[rows]).mean(axis=0)
    magnitude = magnitude @ np.abs(c.output_weights).T + np.abs(c.bias)
    return logits[0], 1e-12 * (1 + magnitude)


@st.composite
def gate_cases(draw):
    """Random vectors, a random classifier and a sentence of vocabulary words,
    repeats and OOV words."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    classifier = ClassifierModel(rng.normal(size=(2, d)), rng.normal(size=2))
    vectors = rng.normal(scale=scale, size=(len(GATE_WORDS), d))
    words = draw(st.lists(st.sampled_from(GATE_WORDS + ["zqxv", "W1", "NODE.JS"]), max_size=12))
    return gate_models(vectors, classifier), sentence_of(words)


def reference_positive(models, sentence):
    vector = embed_sentence(models.embedding, sentence)
    return predict(models.classifier, vector).label is SentenceLabel.CONTAINS_TECH


class TestGate:
    """cascade.gate against the vector-level reference: predict on
    embed_sentence, with the logits of classifier._forward."""

    @given(gate_cases())
    @settings(max_examples=300, deadline=None)
    def test_logits_and_decision_match_the_reference(self, case):
        models, sentence = case
        rows = in_vocab_rows(models, sentence)
        decision = gate(models, sentence)
        if not rows or models.embedding.vocab.punctuation.issuperset(rows):
            assert decision is False is reference_positive(models, sentence)
            return
        expected, tolerance = reference_logits(models, sentence, rows)
        logits = stage1_logits(models, rows)
        assert np.all(np.abs(np.array(logits) - expected) <= tolerance)
        if abs(expected[0] - expected[1]) > tolerance.sum():
            assert decision is reference_positive(models, sentence)

    def test_repeated_words_weigh_by_occurrence(self):
        # "the" leans NoTech and "x" ContainsTech; the mean counts repeats.
        classifier = linear_classifier(np.eye(2), [0.0, 0.0])
        models = gate_models([[0.0, 1.0], [1.5, 0.0]], classifier, words=["the", "x"])
        for words, expected in [(["the", "x"], True), (["the", "the", "the", "x"], False)]:
            sentence = sentence_of(words)
            assert gate(models, sentence) is expected is reference_positive(models, sentence)

    def test_exact_tie_is_no_tech(self):
        classifier = linear_classifier([[1.0, -2.0, 0.5], [1.0, -2.0, 0.5]], [0.25, 0.25])
        vectors = np.random.default_rng(1).normal(size=(len(GATE_WORDS), 3))
        models = gate_models(vectors, classifier)
        sentence = sentence_of(["w0", "w3", "w3"])
        t, o = stage1_logits(models, in_vocab_rows(models, sentence))
        assert t == o
        assert gate(models, sentence) is False is reference_positive(models, sentence)

    @pytest.mark.parametrize(
        "words, expected",
        [
            ([], False),
            (["zqxv", "wqpz"], False),
            (["."], False),
            ([".", ",", "zqxv", "."], False),
            (["$"], True),
            (["zqxv", "Node.js", "."], True),
            ([".", "w2"], True),
        ],
    )
    def test_evidence_rules(self, words, expected):
        # The bias calls every sentence with evidence positive.
        eager = linear_classifier(np.zeros((2, 2)), [3.0, -3.0])
        models = gate_models(np.ones((len(GATE_WORDS), 2)), eager)
        sentence = sentence_of(words)
        assert gate(models, sentence) is expected is reference_positive(models, sentence)
