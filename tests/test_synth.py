import pytest

from termex.corpus import SentenceLabel, annotate, load_gazetteer, split_document
from termex.errors import ConfigError
from termex.synth import SynthConfig, generate_corpus


def test_positive_rate_roughly_half(gazetteer):
    docs, gold = generate_corpus(gazetteer, SynthConfig(n_sentences=1000, seed=1))
    positives = sum(
        1 for s in gold if s.sentence_label is SentenceLabel.CONTAINS_TECH
    )
    assert 400 <= positives <= 600
    assert len(gold) == 1000


def test_deterministic(gazetteer):
    cfg = SynthConfig(n_sentences=200, seed=9)
    a_docs, a_gold = generate_corpus(gazetteer, cfg)
    b_docs, b_gold = generate_corpus(gazetteer, cfg)
    assert a_docs == b_docs
    assert a_gold == b_gold


def test_annotation_reproduces_gold(gazetteer):
    docs, gold = generate_corpus(gazetteer, SynthConfig(n_sentences=400, seed=3))
    sentences = [s for doc in docs for s in split_document(doc)]
    assert len(sentences) == len(gold)
    for sentence, labeled in zip(sentences, gold):
        assert annotate(sentence, gazetteer) == labeled


def test_every_t_run_is_a_gazetteer_entry(gazetteer):
    _, gold = generate_corpus(gazetteer, SynthConfig(n_sentences=300, seed=5))
    from termex.cascade import spans_from_labels

    for labeled in gold:
        for span in spans_from_labels(labeled.sentence.texts, labeled.token_labels):
            entry = tuple(
                t.text.casefold()
                for t in labeled.sentence.tokens[span.start : span.end + 1]
            )
            assert entry in gazetteer.entries


def test_sentence_offsets_map_into_documents(gazetteer):
    docs, _ = generate_corpus(gazetteer, SynthConfig(n_sentences=50, seed=7))
    for doc in docs:
        raw = doc.text.encode("utf-8")
        for sentence in split_document(doc):
            for tok in sentence.tokens:
                assert raw[tok.start : tok.end].decode("utf-8") == tok.text


def test_structural_collision_rejected():
    g = load_gazetteer("the\nredis")
    with pytest.raises(ConfigError):
        generate_corpus(g, SynthConfig(n_sentences=10, seed=0))


def test_bad_config(gazetteer):
    with pytest.raises(ConfigError):
        generate_corpus(gazetteer, SynthConfig(n_sentences=0))
    with pytest.raises(ConfigError):
        generate_corpus(gazetteer, SynthConfig(n_sentences=10, positive_rate=1.5))
