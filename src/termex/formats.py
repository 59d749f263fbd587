"""Readers and writers for the on-disk interchange formats: gazetteer text,
JSON-lines corpora, CoNLL-style annotated TSV, and extraction JSONL."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import (
    Document,
    Gazetteer,
    LabeledSentence,
    Sentence,
    Token,
    TokenLabel,
    load_gazetteer,
)
from .errors import InputDataError

DOCSTART = "-DOCSTART-"


def read_gazetteer(path: str | Path) -> Gazetteer:
    return load_gazetteer(Path(path).read_text(encoding="utf-8-sig"))


def read_corpus_jsonl(path: str | Path) -> list[Document]:
    """Parse one {"id": ..., "text": ...} object per line."""
    docs: list[Document] = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputDataError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(obj, dict) or not isinstance(obj.get("id"), str) \
                    or not isinstance(obj.get("text"), str):
                raise InputDataError(
                    'expected an object with string "id" and "text" fields',
                    line=lineno,
                )
            docs.append(Document(id=obj["id"], text=obj["text"]))
    return docs


def write_corpus_jsonl(path: str | Path, docs: Iterable[Document]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps({"id": doc.id, "text": doc.text}) + "\n")


def write_conll(path: str | Path, sentences: Iterable[LabeledSentence]) -> None:
    """One "token<TAB>label" line per token, a blank line after every
    sentence, and a -DOCSTART- marker whenever the document changes."""
    with open(path, "w", encoding="utf-8") as fh:
        current_doc: str | None = None
        for labeled in sentences:
            doc_id = labeled.sentence.doc_id
            if doc_id != current_doc:
                fh.write(f"{DOCSTART} {doc_id}\n")
                current_doc = doc_id
            for text, label in zip(labeled.sentence.texts, labeled.token_labels):
                fh.write(f"{text}\t{label.value}\n")
            fh.write("\n")


def _rebuild_sentence(doc_id: str, index: int, texts: Sequence[str]) -> Sentence:
    """Reconstruct a sentence whose offsets refer to the tokens joined by
    single spaces (original offsets are not stored in the TSV)."""
    tokens = []
    at = 0
    for text in texts:
        width = len(text.encode("utf-8"))
        tokens.append(Token(text, at, at + width))
        at += width + 1
    return Sentence.from_tokens(doc_id, index, tokens)


def read_conll(path: str | Path) -> list[LabeledSentence]:
    sentences: list[LabeledSentence] = []
    doc_id = ""
    index = 0
    texts: list[str] = []
    labels: list[TokenLabel] = []

    def flush():
        nonlocal index, texts, labels
        if texts:
            sentence = _rebuild_sentence(doc_id, index, texts)
            sentences.append(LabeledSentence.from_token_labels(sentence, labels))
            index += 1
            texts, labels = [], []

    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.startswith(DOCSTART):
                flush()
                doc_id = line[len(DOCSTART):].strip()
                index = 0
                continue
            if not line.strip():
                flush()
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0]:
                raise InputDataError("expected 'token<TAB>label'", line=lineno)
            try:
                label = TokenLabel(parts[1])
            except ValueError:
                raise InputDataError(
                    f"label must be T or O, got {parts[1]!r}", line=lineno
                ) from None
            texts.append(parts[0])
            labels.append(label)
    flush()
    return sentences
