import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termex.corpus import LabeledSentence, Sentence, SentenceLabel, Token, TokenLabel
from termex.features import (
    DEFAULT_FEATURES,
    TEMPLATES,
    CoarsePosTag,
    FeatureConfig,
    FeatureIndex,
    _Strings,
    _tag_token,
    feature_lists,
    sentence_features,
    text_share,
    word_shape,
)
from termex.pipeline import crf_dataset


def char_ngrams(text, n_min=2, n_max=4):
    """All contiguous n-grams of the boundary-marked, lowercased token."""
    marked = "<" + text.lower() + ">"
    return {
        marked[at : at + n]
        for n in range(n_min, n_max + 1)
        for at in range(len(marked) - n + 1)
    }


def extract_features(sentence, i, config=DEFAULT_FEATURES):
    """The template set for token position i, written plainly: the
    reference that sentence_features must equal at every position.

    Output depends only on tokens within the context window of i plus the
    tags and shapes of the immediate neighbours."""
    words = sentence.folded_texts()
    n = len(words)
    if not 0 <= i < n:
        raise IndexError(f"position {i} out of range for {n} tokens")
    pos_tags = [_tag_token(t.text) for t in sentence.tokens]

    fired = {
        f"W0={words[i]}",
        f"W-1={words[i - 1] if i > 0 else '<BOS>'}",
        f"W+1={words[i + 1] if i + 1 < n else '<EOS>'}",
        f"P0={pos_tags[i].value}",
        f"SH0={word_shape(sentence.tokens[i].text)}",
    }
    fired.update(
        f"NG={g}"
        for g in char_ngrams(sentence.tokens[i].text, config.ngram_min, config.ngram_max)
    )

    tag_left = pos_tags[i - 1].value if i > 0 else "BOS"
    tag_right = pos_tags[i + 1].value if i + 1 < n else "EOS"
    fired.add(f"PSEQ={tag_left}_{pos_tags[i].value}_{tag_right}")

    shape_left = word_shape(sentence.tokens[i - 1].text) if i > 0 else "BOS"
    shape_right = word_shape(sentence.tokens[i + 1].text) if i + 1 < n else "EOS"
    fired.add(f"SHSEQ={shape_left}_{word_shape(sentence.tokens[i].text)}_{shape_right}")

    fired.update(f"LW={w}" for w in words[max(0, i - config.window) : i])
    fired.update(f"RW={w}" for w in words[i + 1 : i + 1 + config.window])
    return frozenset(fired)


def is_num_reference(text):
    """The NUM rule written plainly: some digit, and nothing but digits,
    commas and full stops."""
    return any(ch.isdigit() for ch in text) and all(
        ch.isdigit() or ch in ",." for ch in text
    )


def word_shape_reference(text):
    """word_shape as the per-character loop alone, with no fast path."""
    out = []
    for ch in text:
        cls = "X" if ch.isupper() else "x" if ch.islower() else "d" if ch.isdigit() else "s"
        if not out or out[-1] != cls:
            out.append(cls)
    return "".join(out)


def tag_reference(text):
    """_tag_token's rules in order, each checked on every character."""
    if text.replace(",", "").replace(".", "").isdigit():
        return CoarsePosTag.NUM
    if all(unicodedata.category(ch).startswith("P") for ch in text):
        return CoarsePosTag.PUNCT
    if text[0].isupper() and (len(text) == 1 or text[1:].islower() and text[1:].isalpha()):
        return CoarsePosTag.CAP
    if text.islower() and text.isalpha():
        return CoarsePosTag.LOWER
    if text.isalnum():
        return CoarsePosTag.MIXED
    return CoarsePosTag.SYM


# One to three letters of each case, then texts the fast paths must leave to
# the general rules: non-ASCII letters (uncased "中" passes str.islower next
# to "a"; title-case "ǅ" passes str.istitle), punctuation and numbers.
FAST_PATH_TEXTS = [
    "a", "A", "Ab", "AB", "aB", "abc", "ABC", "Abc", "aBc", "ABc", "abC",
    "ß", "İstanbul", "Straße", "中文", "中a", "ǅemal", "node.js", "C++", "2,019",
]


class TestFastPaths:
    @pytest.mark.parametrize("text", FAST_PATH_TEXTS)
    def test_named_texts(self, text):
        assert word_shape(text) == word_shape_reference(text)
        assert _tag_token(text) is tag_reference(text)

    @given(st.text(min_size=1, max_size=12)
           | st.text(alphabet="aAzZbBßǅ中.,+-1", min_size=1, max_size=6))
    @settings(max_examples=500)
    def test_equal_to_the_general_rules(self, text):
        assert word_shape(text) == word_shape_reference(text)
        assert _tag_token(text) is tag_reference(text)


def make_sentence(words):
    tokens = []
    at = 0
    for w in words:
        tokens.append(Token(w, at, at + len(w)))
        at += len(w) + 1
    return Sentence.from_tokens("d", 0, tokens)


class TestWordShape:
    @pytest.mark.parametrize(
        "text,shape",
        [
            ("TensorFlow", "XxXx"),
            ("2019", "d"),
            ("C3PO", "XdX"),
            ("hive", "x"),
            ("U.S.", "XsXs"),
            ("e-mail", "xsx"),
        ],
    )
    def test_examples(self, text, shape):
        assert word_shape(text) == shape

    @given(st.text(min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_alphabet_and_length(self, text):
        shape = word_shape(text)
        assert 1 <= len(shape) <= len(text)
        assert set(shape) <= set("Xxds")


class TestCharNgrams:
    def test_trigram_enumeration(self):
        assert char_ngrams("Hive", 3, 3) == {"<hi", "hiv", "ive", "ve>"}

    def test_single_char(self):
        assert char_ngrams("R", 2, 4) == {"<r", "r>", "<r>"}

    def test_count_identity(self):
        # distinct characters: no dedup, so count per n is L - n + 1
        text = "abcdef"
        marked_len = len(text) + 2
        for n in (2, 3, 4):
            assert len(char_ngrams(text, n, n)) == marked_len - n + 1

    def test_lowercases(self):
        assert char_ngrams("AB", 2, 2) == {"<a", "ab", "b>"}


class TestPosTag:
    def test_rule_application(self):
        tags = [_tag_token(t) for t in ["Google", "released", "2", "tools", "."]]
        assert tags == [
            CoarsePosTag.CAP,
            CoarsePosTag.LOWER,
            CoarsePosTag.NUM,
            CoarsePosTag.LOWER,
            CoarsePosTag.PUNCT,
        ]

    @pytest.mark.parametrize(
        "text,tag",
        [
            ("iPhone", CoarsePosTag.MIXED),
            ("€", CoarsePosTag.SYM),
            ("3.14", CoarsePosTag.NUM),
            ("2,019", CoarsePosTag.NUM),
            ("NASA", CoarsePosTag.MIXED),
            ("C3PO", CoarsePosTag.MIXED),
            ("U.S.", CoarsePosTag.SYM),
            (",", CoarsePosTag.PUNCT),
            ("G", CoarsePosTag.CAP),
        ],
    )
    def test_single_tokens(self, text, tag):
        assert _tag_token(text) is tag

    def test_num_rule_matches_reference_on_every_code_point(self):
        # Every other rule applies only when NUM does not, so the same NUM
        # decision means the same tag.
        texts = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
        assert len(texts) == 1_112_064
        mismatches = [
            t for t in texts if (_tag_token(t) is CoarsePosTag.NUM) != is_num_reference(t)
        ]
        assert mismatches == []

    @given(st.text(alphabet=st.sampled_from("0189,.²٣߀੧۵¹aZ-"), min_size=1, max_size=10))
    @settings(max_examples=500)
    def test_num_rule_matches_reference_on_digit_strings(self, text):
        assert (_tag_token(text) is CoarsePosTag.NUM) == is_num_reference(text)

    @given(st.text(min_size=1, max_size=12))
    @settings(max_examples=150)
    def test_total_function(self, text):
        if any(ch.isspace() for ch in text):
            return
        assert _tag_token(text) in CoarsePosTag


class TestExtractFeatures:
    def test_template_enumeration(self):
        s = make_sentence(["uses", "Apache", "Hive"])
        fired = extract_features(s, 1)
        assert {
            "W0=apache", "W-1=uses", "W+1=hive", "SH0=Xx", "LW=uses",
            "RW=hive", "P0=CAP",
        } <= fired

    def test_boundary_single_token(self):
        s = make_sentence(["Solo"])
        fired = extract_features(s, 0)
        assert "W-1=<BOS>" in fired and "W+1=<EOS>" in fired
        assert not any(f.startswith(("LW=", "RW=")) for f in fired)
        assert "PSEQ=BOS_CAP_EOS" in fired

    def test_window_clipping(self):
        s = make_sentence(["a", "b", "c", "d", "e", "f"])
        fired = extract_features(s, 0)
        right = {f for f in fired if f.startswith("RW=")}
        assert right == {"RW=b", "RW=c", "RW=d", "RW=e"}

    def test_window_presence_is_set_valued(self):
        s = make_sentence(["x", "x", "x", "x", "mid"])
        fired = extract_features(s, 4)
        assert {f for f in fired if f.startswith("LW=")} == {"LW=x"}

    def test_ngram_features_present(self):
        s = make_sentence(["Hive"])
        fired = extract_features(s, 0, FeatureConfig(3, 3, 4))
        assert {"NG=<hi", "NG=hiv", "NG=ive", "NG=ve>"} <= fired

    def test_position_out_of_range(self):
        s = make_sentence(["one"])
        with pytest.raises(IndexError):
            extract_features(s, 1)

    def test_locality(self):
        base = ["w0", "w1", "w2", "w3", "w4", "mid", "y0", "y1", "y2", "y3", "y4"]
        s1 = make_sentence(base)
        changed = base.copy()
        changed[0] = "changed"  # outside [i-4, i+4] for i=5
        changed[10] = "other"
        s2 = make_sentence(changed)
        i = 5
        assert extract_features(s1, i) == extract_features(s2, i)

    def test_neighbourhood_determines_sequences(self):
        s1 = make_sentence(["aaa", "Core", "bbb"])
        s2 = make_sentence(["aaa", "Core", "bbb", "extra", "words"])
        f1 = extract_features(s1, 1)
        f2 = extract_features(s2, 1)
        seq1 = {f for f in f1 if f.startswith(("PSEQ=", "SHSEQ="))}
        seq2 = {f for f in f2 if f.startswith(("PSEQ=", "SHSEQ="))}
        assert seq1 == seq2

    def test_all_values_case_folded(self):
        s = make_sentence(["USES", "Apache", "HIVE"])
        fired = extract_features(s, 1)
        assert "W0=apache" in fired and "W-1=uses" in fired and "W+1=hive" in fired

    def test_every_feature_parses_as_template_value(self):
        s = make_sentence(["Google", "released", "TensorFlow", "2.0", "."])
        for features in sentence_features(s):
            for f in features:
                template, _, value = f.partition("=")
                assert template and value


# Tokens as the splitter emits them: no whitespace, and never empty. The
# alphabet mixes cases, digits, punctuation and symbols, plus characters
# whose casefold() differs from lower() (ß, İ, ﬁ, ς).
token_text = st.text(
    alphabet=st.sampled_from("aZq09.,!?-€_ßİﬁςΣ'\""), min_size=1, max_size=8
)


class TestSentenceFeatures:
    @given(
        st.lists(token_text, min_size=1, max_size=12),
        st.integers(1, 3),
        st.integers(0, 2),
        st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_position_reference(self, words, ngram_min, ngram_span, window):
        s = make_sentence(words)
        config = FeatureConfig(ngram_min, ngram_min + ngram_span, window)
        expected = [extract_features(s, i, config) for i in range(len(words))]
        assert sentence_features(s, config) == expected

    @pytest.mark.parametrize(
        "words",
        [
            ["Solo"],
            ["!"],
            ["...", ",", "?!"],
            ["STRASSE", "Straße", "İstanbul", "ǅemal"],
        ],
    )
    def test_edge_sentences(self, words):
        s = make_sentence(words)
        assert sentence_features(s) == [
            extract_features(s, i) for i in range(len(words))
        ]

    def test_ngram_max_beyond_token_length(self):
        # A model file may declare any ngram_max; n-grams longer than the
        # marked token do not exist, so the bound must not cost time.
        s = make_sentence(["ab", "Cde"])
        assert sentence_features(s, FeatureConfig(2, 2**32 - 1, 4)) == (
            sentence_features(s, FeatureConfig(2, 5, 4))
        )

    def test_context_words_are_casefolded(self):
        s = make_sentence(["Straße", "x"])
        fired = sentence_features(s)[1]
        assert "LW=strasse" in fired and "W-1=strasse" in fired
        assert "NG=aße" in sentence_features(s)[0]  # n-grams use lower()


def labeled(words, tech):
    """A sentence whose tokens at the positions in tech are T."""
    labels = [TokenLabel.T if i in tech else TokenLabel.O for i in range(len(words))]
    return LabeledSentence.from_token_labels(make_sentence(words), labels)


class TestRepeatedTexts:
    """sentence_features keeps nothing between calls, and crf_dataset's
    per-call memo of token parts serves every sighting as the reference."""

    def test_every_sighting_matches_the_reference(self):
        # Case variants share a fold but not a tag or a shape, so a memo
        # keyed by anything but the exact text serves them wrong parts.
        s = make_sentence(["Hive", "HIVE", "hive", "uses", "2,019", "Hive"])
        expected = [extract_features(s, i) for i in range(6)]
        for _ in range(4):
            assert sentence_features(s) == expected

    def test_many_distinct_texts(self):
        texts = [f"tok{n}" for n in range(10_000)]
        for text in texts:
            sentence_features(make_sentence([text]))
            sentence_features(make_sentence([text]))
        s = make_sentence(texts[-3:])
        assert sentence_features(s) == [
            extract_features(s, i) for i in range(3)
        ]

    def test_empty_sentence(self):
        assert sentence_features(Sentence.from_tokens("d", 0, ())) == []
        empty, one, after = feature_lists([(), ("a",), ()], DEFAULT_FEATURES)
        assert empty == after == []
        assert [frozenset(fired) for fired in one] == sentence_features(make_sentence(["a"]))

    def test_configs_with_other_ngram_bounds_share_nothing(self):
        s = make_sentence(["Apache", "Hive"])
        configs = [FeatureConfig(2, 4, 4), FeatureConfig(3, 3, 4), FeatureConfig(1, 5, 2)]
        for _ in range(3):
            for config in configs:
                assert sentence_features(s, config) == [
                    extract_features(s, i, config) for i in range(2)
                ]

    def test_text_shares_are_immutable(self):
        lookups = {prefix: _Strings(prefix) for prefix in TEMPLATES}
        for text in ("Apache", "Hive", "2,019", "ab-CD"):
            share = text_share(text, DEFAULT_FEATURES, lookups)
            assert isinstance(share, tuple)
            assert all(isinstance(part, (str, tuple)) for part in share)
            hash(share)  # raises if any part, the own strings among them, is mutable

    def test_positions_share_no_lists(self):
        """A position's list is its own: changing one leaves every later
        sighting of the same texts as the reference."""
        s = make_sentence(["Apache", "Hive", "hive"])
        first, second = feature_lists([s.texts, s.texts], DEFAULT_FEATURES)
        for fired in first:
            fired.clear()
        assert [frozenset(fired) for fired in second] == [extract_features(s, i) for i in range(3)]

    def test_crf_dataset_matches_the_reference(self):
        first = [
            labeled(["Hive", "HIVE", "hive", "uses", "Hive"], {0, 1, 4}),
            labeled(["hive", "and", "HIVE", "."], {0, 2}),
            labeled(["nothing", "here"], set()),  # gold-negative: left out
            labeled(["Uses", "Hive", "hive"], {1, 2}),
        ]
        second = [
            labeled(["HIVE", "hive", "Uses"], {0, 1}),
            labeled(["Kafka", "uses", "kafka", "KAFKA"], {0, 2, 3}),
        ]
        for config in (FeatureConfig(2, 3, 2), DEFAULT_FEATURES):
            for sentences in (first, second, first):
                positives = [
                    s for s in sentences if s.sentence_label is SentenceLabel.CONTAINS_TECH
                ]
                assert [
                    ([frozenset(fired) for fired in positions], labels)
                    for positions, labels in crf_dataset(sentences, config)
                ] == [(sentence_features(s.sentence, config), list(s.token_labels)) for s in positives]


class TestFeatureIndex:
    def test_round_trip_of_training_features(self):
        data = [frozenset({"a=1", "b=2"}), frozenset({"a=1", "c=3"}), frozenset({"a=1", "b=2"})]
        index = FeatureIndex.build(data, min_count=2)
        assert len(index) == 2
        for f in ("a=1", "b=2"):
            assert index.lookup(f) is not None
        assert index.lookup("c=3") is None

    def test_dense_ids(self):
        index = FeatureIndex.build([frozenset({"a=1", "b=2", "c=3"})] * 2, min_count=2)
        assert sorted(map(index.lookup, ["c=3", "a=1", "b=2"])) == [0, 1, 2]

    def test_ids_in_sorted_string_order(self):
        # Strings arrive out of order, and the index numbers them in sorted
        # order, so the ids of a lookup follow the strings.
        index = FeatureIndex(["z=1", "a=2", "m=3", "b=4"])
        assert [index.lookup(f) for f in ("a=2", "b=4", "m=3", "z=1")] == [0, 1, 2, 3]
        assert [index.lookup(f, -1) for f in ("m=3", "unseen=0", "a=2")] == [2, -1, 0]

    def test_build_numbers_kept_features_in_sorted_order(self):
        rng = random.Random(0)
        names = [f"{k}={v}" for k in ("W0", "NG", "P0") for v in range(12)]
        data = [frozenset(rng.sample(names, 5)) for _ in range(40)]
        counts = {}
        for features in data:
            for f in features:
                counts[f] = counts.get(f, 0) + 1
        index = FeatureIndex.build(data, min_count=3)
        assert index.strings() == sorted(f for f, n in counts.items() if n >= 3)
        assert [index.lookup(f) for f in index.strings()] == list(range(len(index)))

    @given(
        st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=30, unique=True),
        st.data(),
    )
    @settings(max_examples=100)
    def test_ids_follow_string_order(self, strings, data):
        index = FeatureIndex(strings)
        fired = data.draw(st.sets(st.sampled_from(strings + ["unknown=", "zz"])))
        ids = [index.lookup(f) for f in sorted(fired) if f in index]
        assert ids == sorted(ids) == [index.lookup(f) for f in sorted(fired & set(strings))]

    def test_unknown_ids_are_dropped(self):
        index = FeatureIndex.build([frozenset({"a=1"})] * 2, min_count=2)
        assert "unseen=9" not in index
        assert index.lookup("unseen=9") is None and index.lookup("unseen=9", -1) == -1

    def test_strings_in_id_order(self):
        index = FeatureIndex(["z=1", "a=2", "m=3"])
        assert index.strings() == ["a=2", "m=3", "z=1"]
        rebuilt = FeatureIndex(index.strings())
        assert rebuilt.lookup("a=2") == index.lookup("a=2")
