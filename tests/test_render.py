from termex.cascade import Extraction, extract_from_document
from termex.corpus import Document, annotate, split_document
from termex.render import render_ansi, render_html
from tests.conftest import strip_ansi, strip_html


def test_no_positives_ansi_is_identity():
    doc = Document(id="d", text="Managers review the budget. Analysts plan the agenda.")
    extractions = [
        Extraction(doc_id="d", sentence_index=i, sentence_positive=False, term_spans=())
        for i in range(2)
    ]
    assert render_ansi(doc, extractions) == doc.text


def test_ansi_round_trip(small_run):
    doc = Document(
        id="d",
        text="Teams deploy Kubernetes widely. Operators review the schedule.",
    )
    extractions = extract_from_document(doc, small_run.models)
    rendered = render_ansi(doc, extractions)
    assert strip_ansi(rendered) == doc.text


def test_html_round_trip(small_run, gazetteer):
    doc = Document(
        id="d",
        text="Vendors adopt Apache Hive today. Student's plan uses <angles> & ampersands.",
    )
    extractions = extract_from_document(doc, small_run.models)
    rendered = render_html(doc, extractions)
    assert strip_html(rendered) == doc.text


def test_highlight_marks_present(small_run):
    doc = Document(id="d", text="Researchers use TensorFlow daily.")
    extractions = extract_from_document(doc, small_run.models)
    assert any(e.sentence_positive for e in extractions)
    rendered = render_ansi(doc, extractions)
    assert "\x1b[32m" in rendered  # sentence highlight
    assert "\x1b[30;43m" in rendered  # term highlight


def test_missed_mark_requires_gold(small_run, gazetteer):
    doc = Document(id="d", text="Reporters audit the ledger daily.")
    gold = [annotate(s, gazetteer) for s in split_document(doc)]
    # Force a fake gold term so the decoder must miss it.
    from termex.corpus import LabeledSentence, TokenLabel

    sentence = gold[0].sentence
    labels = [TokenLabel.O] * len(sentence.tokens)
    labels[3] = TokenLabel.T  # "ledger" pretends to be a term
    gold = [LabeledSentence.from_token_labels(sentence, labels)]

    extractions = extract_from_document(doc, small_run.models)
    with_gold = render_ansi(doc, extractions, gold)
    without_gold = render_ansi(doc, extractions)
    assert "\x1b[37;41m" in with_gold
    assert "\x1b[37;41m" not in without_gold
    assert strip_ansi(with_gold) == doc.text


def test_html_escaping_inside_spans(small_run):
    doc = Document(id="d", text="Teams deploy Kubernetes & Redis widely.")
    extractions = extract_from_document(doc, small_run.models)
    rendered = render_html(doc, extractions)
    assert "&amp;" in rendered
    assert strip_html(rendered) == doc.text
