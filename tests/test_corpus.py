import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termex.corpus import (
    Document,
    LabeledSentence,
    Sentence,
    SentenceLabel,
    Token,
    TokenLabel,
    annotate,
    balance,
    load_gazetteer,
    split_dataset,
    split_document,
    split_sentences,
    tokenize,
)
from termex.errors import (
    DegenerateDatasetError,
    EmptyGazetteerError,
    RatioError,
)


def texts(value):
    tokens = value.tokens if isinstance(value, Sentence) else value
    return [t.text for t in tokens]


def make_sentence(words, doc_id="d", index=0):
    tokens = []
    at = 0
    for w in words:
        width = len(w.encode("utf-8"))
        tokens.append(Token(w, at, at + width))
        at += width + 1
    return Sentence.from_tokens(doc_id, index, tokens)


def label_values(labeled):
    return [l.value for l in labeled.token_labels]


class TestTokenize:
    def test_trailing_period_splits(self):
        assert texts(tokenize("Google released TensorFlow.")) == [
            "Google", "released", "TensorFlow", ".",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_attached_comma(self):
        assert texts(tokenize("Apache Hive, fast.")) == [
            "Apache", "Hive", ",", "fast", ".",
        ]

    def test_internal_punctuation_kept(self):
        assert texts(tokenize("read theregister.co.uk today")) == [
            "read", "theregister.co.uk", "today",
        ]

    def test_leading_punctuation(self):
        assert texts(tokenize("(fast)")) == ["(", "fast", ")"]

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_offsets_slice_back(self, text):
        raw = text.encode("utf-8")
        prev_end = 0
        for tok in tokenize(text):
            assert tok.start < tok.end
            assert raw[tok.start : tok.end].decode("utf-8") == tok.text
            assert tok.start >= prev_end  # ordered and non-overlapping
            prev_end = tok.end

    @given(st.text(max_size=80))
    @settings(max_examples=100)
    def test_no_whitespace_inside_tokens(self, text):
        for tok in tokenize(text):
            assert not any(ch.isspace() for ch in tok.text)


def reference_split(text, doc_id=""):
    """split_sentences written as a per-character loop: every chunk's edges
    go through the category test, and every character is checked for a
    terminator. The splitter's fast paths must give the same sentences."""
    return [
        Sentence.from_tokens(doc_id, idx, tokens)
        for idx, tokens in enumerate(reference_tokens(text))
    ]


def reference_tokens(text):
    """reference_split's sentences as tuples of Token values, one per token."""
    def separable(ch):
        return unicodedata.category(ch)[0] in ("P", "S")

    chars = []
    for m in re.finditer(r"\S+", text):
        i, j = m.start(), m.end()
        while i < j and separable(text[i]):
            chars.append((text[i], i, i + 1))
            i += 1
        trail = []
        while j > i and separable(text[j - 1]):
            j -= 1
            trail.append((text[j], j, j + 1))
        if i < j:
            chars.append((text[i:j], i, j))
        chars.extend(reversed(trail))

    n, bounds = len(text), []
    for k, ch in enumerate(text):
        if ch not in ".!?":
            continue
        j = k + 1
        if j < n and not text[j].isspace():
            continue
        while j < n and text[j].isspace():
            j += 1
        if j < n and not text[j].isupper():
            continue
        if ch == ".":
            start = k
            while start > 0 and not text[start - 1].isspace():
                start -= 1
            chunk = text[start : k + 1]
            while chunk and separable(chunk[0]):  # less its peeled front
                chunk = chunk[1:]
            if chunk.casefold() in {"e.g.", "i.e.", "etc."}:
                continue
            if len(chunk) == 2 and chunk[0].isalpha() and chunk[0].isupper():
                continue
        bounds.append(k + 1)

    offsets = [len(text[:k].encode("utf-8")) for k in range(n + 1)]
    groups, current = [], []
    for tok in chars:
        if current and any(current[-1][1] < b <= tok[1] for b in bounds):
            groups.append(current)
            current = []
        current.append(tok)
    if current:
        groups.append(current)
    return [tuple(Token(t, offsets[a], offsets[b]) for t, a, b in group) for group in groups]


# Each of the splitter's named cases, and texts that mix them.
SPLIT_TEXTS = [
    "Use ETC. Next one.",
    "Tools, e.g. Hive. Then more.",
    "J. Smith wrote it. Nobody read it.",
    "Pi is 3.14 today. Yes.",
    "Wait... What? No!",
    '"PyTorch," he said. "Keras" too.',
    "Read theregister.co.uk daily. Or not.",
    "Straße über İstanbul. Émile naïve. 中文 测试。 Done.",
    "€5 (approx.) — «quoted» ¿Qué? ¡Sí! 2,019 items. 12%.",
    "",
    "   ",
    ". . .",
    # Abbreviations and initials after leading punctuation.
    'Tools (e.g. Hive) work. (J. Smith) wrote "etc. Next" and [i.e. Kafka] too.',
    # A terminator followed by a closing quote, then one inside quotes.
    'She said "Stop now." Then she left. "Go." Fine.',
    # Trailing whitespace at the end of the text.
    "It ends here. Really.  \n\t",
    # Chunks made only of terminators.
    "Really ?! What ... Next . Done !? ok",
]
# Words and gaps for texts that spell abbreviations, initials and
# terminators before capitals, which random characters almost never do.
SPLIT_WORDS = [
    "e.g.", "E.G.", "i.e.", "etc.", "ETC.", "J.", "j.", "(e.g.", '"etc.', "(J.", "[i.e.",
    "3.14", "v2.", "?!", "A?.", 'said."', "...", ".", "Next", "next", "Émile", "Kafka)",
]
SPLIT_GAPS = [" ", "\n", "\u00a0", "  "]
word_texts = st.lists(
    st.tuples(st.sampled_from(SPLIT_WORDS), st.sampled_from(SPLIT_GAPS)), max_size=14
).map(lambda pairs: "".join(word + gap for word, gap in pairs))
split_alphabet = st.sampled_from(
    list("aZ09 .!?,;:\"'()-+€$%«»…—¿¡") + ["ß", "É", "İ", "中", "٣", "²", "\n", "\u00a0"]
)


class TestSplitterFastPaths:
    @pytest.mark.parametrize("text", SPLIT_TEXTS)
    def test_named_texts(self, text):
        assert split_sentences(text, "d") == reference_split(text, "d")
        assert split_document(Document("d", text)) == reference_split(text, "d")

    @given(st.text(alphabet=split_alphabet, max_size=80) | st.text(max_size=60))
    @settings(max_examples=500)
    def test_equal_to_the_per_character_loop(self, text):
        assert split_sentences(text, "d") == reference_split(text, "d")

    @given(word_texts)
    @settings(max_examples=500)
    def test_equal_to_the_per_character_loop_on_words(self, text):
        for variant in (text, text.rstrip()):
            assert split_sentences(variant, "d") == reference_split(variant, "d")

    def test_no_alphanumeric_code_point_is_punctuation_or_symbol(self):
        """Why a chunk with alphanumeric edges is kept whole: the edges are
        never peeled, because no such character is in a P or S category."""
        both = [
            c for c in range(0x110000)
            if chr(c).isalnum() and unicodedata.category(chr(c))[0] in "PS"
        ]
        assert both == []


class TestColumnarSentences:
    """A Sentence stores each token's text and byte offsets as columns and
    builds its Token values only when they are read."""

    @staticmethod
    def assert_columns_match_the_reference(text):
        got = split_sentences(text, "d")
        expected = reference_tokens(text)
        assert [s.texts for s in got] == [tuple(t.text for t in ts) for ts in expected]
        assert [s.starts for s in got] == [tuple(t.start for t in ts) for ts in expected]
        assert [s.ends for s in got] == [tuple(t.end for t in ts) for ts in expected]
        assert [s.tokens for s in got] == expected
        for sentence in got:
            assert Sentence.from_tokens("d", sentence.index, sentence.tokens) == sentence

    @pytest.mark.parametrize("text", SPLIT_TEXTS)
    def test_named_texts(self, text):
        self.assert_columns_match_the_reference(text)

    @given(st.text(alphabet=split_alphabet, max_size=80) | st.text(max_size=60))
    @settings(max_examples=300)
    def test_ascii_and_non_ascii_text(self, text):
        self.assert_columns_match_the_reference(text)

    def test_non_ascii_offsets_are_bytes(self):
        (sentence,) = split_sentences("Straße über İstanbul.")
        assert sentence.texts == ("Straße", "über", "İstanbul", ".")
        assert sentence.starts == (0, 8, 14, 23)
        assert sentence.ends == (7, 13, 23, 24)

    def test_tokens_are_built_once(self):
        (sentence,) = split_sentences("Alpha beta.")
        assert sentence.tokens is sentence.tokens
        assert sentence.tokens == (Token("Alpha", 0, 5), Token("beta", 6, 10), Token(".", 10, 11))

    def test_extraction_builds_no_token(self, small_run, monkeypatch):
        """Splitting, labelling and extracting read the columns alone: with
        Token raising, a document extracts as it does without the patch."""
        from termex import corpus
        from termex.cascade import extract_from_document

        doc = Document(
            id="d",
            text="Teams deploy Kubernetes widely. Straße über İstanbul. "
                 "Vendors adopt Apache Hive for the roadmap. Zqxv, wqpz.",
        )
        expected = extract_from_document(doc, small_run.models)
        assert any(e.term_spans for e in expected)
        gazetteer = load_gazetteer(["Kubernetes"])

        def no_token(*args):
            raise AssertionError("a Token was built")

        monkeypatch.setattr(corpus, "Token", no_token)
        assert extract_from_document(doc, small_run.models) == expected
        sentence = split_document(doc)[0]
        assert sentence.token_texts() == ["Teams", "deploy", "Kubernetes", "widely", "."]
        assert label_values(annotate(sentence, gazetteer)) == ["O", "O", "T", "O", "O"]
        with pytest.raises(AssertionError, match="a Token was built"):
            sentence.tokens


class TestByteOffsets:
    """Non-ASCII text's columns hold UTF-8 byte offsets: those of the
    per-character reference, on code points of every encoded length."""

    alphabet = st.sampled_from(
        list("aZ9 .,(!") + ["é", "ß", "€", "—", "“", "”", "中", "\u3000", "\u00a0"]
        + ["\U0001f600", "\U0001d518", "\U00010348", "\n"]
    )

    @given(st.text(alphabet=alphabet, max_size=80))
    @settings(max_examples=300)
    def test_equal_to_the_per_character_reference(self, text):
        TestColumnarSentences.assert_columns_match_the_reference(text)

    @pytest.mark.parametrize("text", ["a \ud800 b", "\udfff.", "Next x\ud83d", "é \udc00"])
    def test_lone_surrogates_raise_as_encoding_does(self, text):
        with pytest.raises(UnicodeEncodeError):
            reference_tokens(text)
        with pytest.raises(UnicodeEncodeError):
            split_sentences(text)


class TestSplitSentences:
    def test_two_sentences(self):
        got = split_sentences("A works. B fails.")
        assert len(got) == 2
        assert texts(got[0]) == ["A", "works", "."]
        assert texts(got[1]) == ["B", "fails", "."]

    def test_abbreviation_suppression(self):
        assert len(split_sentences("Use e.g. Hive.")) == 1
        assert len(split_sentences("It is, i.e. was, fine. Next One.")) == 2

    def test_initial_suppression(self):
        assert len(split_sentences("J. Smith wrote it. Nobody read it.")) == 2

    @pytest.mark.parametrize("text", [
        "Tools (e.g. Hive) work.",
        "It was (J. Smith) again.",
        'A list "etc. Next" ends.',
        "Some [i.e. Kafka] tools.",
        "Tools «e.g. Hive» work.",
    ])
    def test_abbreviation_after_leading_punctuation(self, text):
        """Punctuation peeled off a chunk's front does not hide an
        abbreviation or an initial from the rule."""
        (sentence,) = split_sentences(text)
        assert sentence.token_texts() == texts(tokenize(text))

    def test_no_terminator(self):
        got = split_sentences("No terminator here")
        assert len(got) == 1
        assert texts(got[0]) == ["No", "terminator", "here"]

    def test_lowercase_continuation(self):
        assert len(split_sentences("released v2. it improved")) == 1

    def test_question_and_bang(self):
        assert len(split_sentences("Really? Yes! Good.")) == 3

    def test_indices_and_doc_id(self):
        got = split_sentences("One. Two.", doc_id="doc-7")
        assert [s.index for s in got] == [0, 1]
        assert {s.doc_id for s in got} == {"doc-7"}

    def test_offsets_refer_to_document(self):
        text = "Alpha beta. Gamma delta."
        raw = text.encode("utf-8")
        for sentence in split_sentences(text):
            for tok in sentence.tokens:
                assert raw[tok.start : tok.end].decode("utf-8") == tok.text

    @given(st.text(max_size=120))
    @settings(max_examples=100)
    def test_every_token_lands_in_one_sentence(self, text):
        flat = [t.text for s in split_sentences(text) for t in s.tokens]
        assert flat == texts(tokenize(text))


class TestGazetteer:
    def test_single_and_multi_word(self):
        g = load_gazetteer("Cortana\nApache Hive\nGoogle Cloud Natural Language API")
        assert sorted(len(e) for e in g.entries) == [1, 2, 5]

    def test_case_fold_collapses(self):
        g = load_gazetteer("Hive\nhive")
        assert len(g) == 1

    def test_comments_and_blanks(self):
        g = load_gazetteer("# comment\n\nRedis\n")
        assert len(g) == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyGazetteerError):
            load_gazetteer("# only a comment\n\n")


class TestAnnotate:
    def test_multiword_match(self):
        g = load_gazetteer("apache hive")
        s = make_sentence(["We", "use", "Apache", "Hive", "daily"])
        assert label_values(annotate(s, g)) == ["O", "O", "T", "T", "O"]

    def test_longest_match_wins(self):
        g = load_gazetteer("cloud\ngoogle cloud")
        s = make_sentence(["Google", "Cloud"])
        assert label_values(annotate(s, g)) == ["T", "T"]

    def test_no_match(self):
        g = load_gazetteer("redis")
        s = make_sentence(["nothing", "here"])
        labeled = annotate(s, g)
        assert label_values(labeled) == ["O", "O"]
        assert labeled.sentence_label is SentenceLabel.NO_TECH

    def test_no_mid_token_match(self):
        g = load_gazetteer("hive")
        s = make_sentence(["Hivemind"])
        assert label_values(annotate(s, g)) == ["O"]

    def test_resumes_after_match(self):
        g = load_gazetteer("a b\nb c")
        s = make_sentence(["a", "b", "c"])
        # "a b" consumes positions 0-1; scanning resumes at "c".
        assert label_values(annotate(s, g)) == ["T", "T", "O"]

    def test_idempotent_and_deterministic(self):
        g = load_gazetteer("spark\napache spark")
        s = make_sentence(["Try", "Apache", "Spark", "or", "spark"])
        first = annotate(s, g)
        again = annotate(first.sentence, g)
        assert first == again

    @given(st.data())
    @settings(max_examples=100)
    def test_t_runs_decompose_into_gazetteer_entries(self, data):
        # Adjacent matches merge into one run under the plain T/O scheme, so
        # a maximal run is a concatenation of entries, not always one entry.
        word = st.sampled_from(["alpha", "beta", "gamma", "delta", "hive", "spark"])
        entry_words = data.draw(
            st.lists(st.lists(word, min_size=1, max_size=3), min_size=1, max_size=4)
        )
        g = load_gazetteer("\n".join(" ".join(e) for e in entry_words))
        sent_words = data.draw(st.lists(word, min_size=1, max_size=8))
        labeled = annotate(make_sentence(sent_words), g)

        def decomposes(run: tuple) -> bool:
            if not run:
                return True
            return any(
                run[: len(e)] == e and decomposes(run[len(e):]) for e in g.entries
            )

        runs = []
        run = []
        for w, l in zip(sent_words, labeled.token_labels):
            if l is TokenLabel.T:
                run.append(w)
            elif run:
                runs.append(tuple(run))
                run = []
        if run:
            runs.append(tuple(run))
        for r in runs:
            assert decomposes(r)


def make_labeled(n_pos, n_neg):
    pos = LabeledSentence.from_token_labels(
        make_sentence(["uses", "hive"]), [TokenLabel.O, TokenLabel.T]
    )
    neg = LabeledSentence.from_token_labels(
        make_sentence(["uses", "nothing"]), [TokenLabel.O, TokenLabel.O]
    )
    return [pos] * n_pos + [neg] * n_neg


class TestBalance:
    def test_downsamples_majority(self):
        out = balance(make_labeled(10, 50), seed=3)
        pos = sum(1 for s in out if s.sentence_label is SentenceLabel.CONTAINS_TECH)
        assert pos == 10 and len(out) == 20

    def test_already_balanced_keeps_all(self):
        assert len(balance(make_labeled(5, 5), seed=0)) == 10

    def test_deterministic(self):
        data = make_labeled(8, 30)
        assert balance(data, seed=11) == balance(data, seed=11)

    def test_subset_of_input(self):
        data = make_labeled(4, 9)
        assert all(s in data for s in balance(data, seed=2))

    def test_degenerate(self):
        with pytest.raises(DegenerateDatasetError):
            balance(make_labeled(5, 0), seed=0)
        with pytest.raises(DegenerateDatasetError):
            balance(make_labeled(0, 5), seed=0)


class TestSplitDataset:
    def test_seventy_fifteen_fifteen_proportions(self):
        data = make_labeled(100, 100)
        split = split_dataset(data, (0.7, 0.15, 0.15), seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (140, 30, 30)

    def test_stratified_small(self):
        split = split_dataset(make_labeled(5, 5), (0.8, 0.1, 0.1), seed=1)
        train_pos = sum(
            1 for s in split.train if s.sentence_label is SentenceLabel.CONTAINS_TECH
        )
        assert train_pos == 4 and len(split.train) == 8

    def test_bad_ratios(self):
        with pytest.raises(RatioError):
            split_dataset(make_labeled(2, 2), (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(RatioError):
            split_dataset(make_labeled(2, 2), (0.7, 0.3, -0.0), seed=0)
        with pytest.raises(RatioError):
            split_dataset(make_labeled(2, 2), (float("nan"),) * 3, seed=0)

    def test_deterministic(self):
        data = make_labeled(20, 20)
        a = split_dataset(data, (0.7, 0.15, 0.15), seed=5)
        b = split_dataset(data, (0.7, 0.15, 0.15), seed=5)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60)
    def test_partition_properties(self, n_pos, n_neg, seed):
        data = make_labeled(n_pos, n_neg)
        split = split_dataset(data, (0.7, 0.15, 0.15), seed=seed)
        parts = [split.train, split.validation, split.test]
        assert sum(len(p) for p in parts) == len(data)
        for part, ratio in zip(parts, (0.7, 0.15, 0.15)):
            pos = sum(
                1 for s in part if s.sentence_label is SentenceLabel.CONTAINS_TECH
            )
            neg = len(part) - pos
            assert abs(pos - n_pos * ratio) <= 1
            assert abs(neg - n_neg * ratio) <= 1
