import pytest

from termex.corpus import (
    Document,
    LabeledSentence,
    Sentence,
    Token,
    TokenLabel,
)
from termex.errors import InputDataError
from termex.formats import (
    read_conll,
    read_corpus_jsonl,
    read_gazetteer,
    write_conll,
    write_corpus_jsonl,
)


def labeled(words, labels, doc_id="d", index=0):
    tokens = []
    at = 0
    for w in words:
        tokens.append(Token(w, at, at + len(w.encode("utf-8"))))
        at += len(w.encode("utf-8")) + 1
    sentence = Sentence.from_tokens(doc_id, index, tokens)
    return LabeledSentence.from_token_labels(
        sentence, [TokenLabel(l) for l in labels]
    )


class TestJsonl:
    def test_round_trip(self, tmp_path):
        docs = [Document("a", "First text."), Document("b", "Second text with é.")]
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(path, docs)
        assert read_corpus_jsonl(path) == docs

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(InputDataError, match="line 2"):
            read_corpus_jsonl(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n', encoding="utf-8")
        with pytest.raises(InputDataError, match="line 1"):
            read_corpus_jsonl(path)


class TestConll:
    def test_round_trip(self, tmp_path):
        data = [
            labeled(["Use", "Hive", "."], "OTO", doc_id="doc1", index=0),
            labeled(["Plain", "words", "."], "OOO", doc_id="doc1", index=1),
            labeled(["Try", "Apache", "Hive", "!"], "OTTO", doc_id="doc2", index=0),
        ]
        path = tmp_path / "data.tsv"
        write_conll(path, data)
        got = read_conll(path)
        assert [g.sentence.doc_id for g in got] == ["doc1", "doc1", "doc2"]
        assert [g.sentence.index for g in got] == [0, 1, 0]
        for a, b in zip(got, data):
            assert [t.text for t in a.sentence.tokens] == [
                t.text for t in b.sentence.tokens
            ]
            assert a.token_labels == b.token_labels

    def test_docstart_lines(self, tmp_path):
        path = tmp_path / "data.tsv"
        write_conll(path, [labeled(["x"], "O", doc_id="only")])
        text = path.read_text(encoding="utf-8")
        assert text.startswith("-DOCSTART- only\n")
        assert text.endswith("\n\n")

    def test_label_column_is_t_or_o(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("word\tX\n\n", encoding="utf-8")
        with pytest.raises(InputDataError, match="line 1"):
            read_conll(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("-DOCSTART- d\nword only\n\n", encoding="utf-8")
        with pytest.raises(InputDataError, match="line 2"):
            read_conll(path)

    def test_reconstructed_offsets_are_consistent(self, tmp_path):
        path = tmp_path / "data.tsv"
        write_conll(path, [labeled(["Caffé", "é", "ok"], "OOO")])
        got = read_conll(path)[0]
        text = " ".join(t.text for t in got.sentence.tokens).encode("utf-8")
        for tok in got.sentence.tokens:
            assert text[tok.start : tok.end].decode("utf-8") == tok.text


def test_read_gazetteer_file(tmp_path):
    path = tmp_path / "gazetteer.txt"
    path.write_text("# tools\nApache Hive\nRedis\n", encoding="utf-8")
    g = read_gazetteer(path)
    assert len(g) == 2


def with_bom(path):
    """A copy of path that starts with a UTF-8 byte order mark, as some
    editors write."""
    bom = path.with_name("bom-" + path.name)
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return bom


class TestByteOrderMark:
    def test_gazetteer(self, tmp_path):
        for text in ("TensorFlow\nApache Hive\n", "# tools\nTensorFlow\nApache Hive\n"):
            path = tmp_path / "gazetteer.txt"
            path.write_text(text, encoding="utf-8")
            plain, marked = read_gazetteer(path), read_gazetteer(with_bom(path))
            assert marked == plain
            assert marked.entries == {("tensorflow",), ("apache", "hive")}

    def test_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(path, [Document("a", "First text."), Document("b", "Second.")])
        assert read_corpus_jsonl(with_bom(path)) == read_corpus_jsonl(path)

    def test_conll(self, tmp_path):
        path = tmp_path / "data.tsv"
        write_conll(path, [labeled(["Use", "Hive", "."], "OTO", doc_id="doc1")])
        assert read_conll(with_bom(path)) == read_conll(path)
