"""Dataset loading, vocabularies, label ordering, and batching.

The on-disk format is JSON lines: ``{"text": "...", "labels": ["a", "b"]}``.
Labels are mapped to integer ids by descending training-set frequency, which
is also the canonical emission order during training. The id space for the
decoder output is the L real labels plus one terminal class; a separate
start-of-sequence id exists only on the input side.
"""

from __future__ import annotations

import json
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import CorpusError, DataError
from .numerics import RngStream

PAD_ID = 0
UNK_ID = 1
LABEL_PAD = -1

_STRIP = string.punctuation


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation off token edges."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP)
        if tok:
            out.append(tok)
    return out


class Vocabulary:
    """Token <-> id map with reserved padding (0) and unknown (1) slots."""

    def __init__(self, tokens: list[str], freqs: list[int]):
        if len(tokens) != len(freqs):
            raise DataError("token and frequency lists differ in length")
        self._tokens = list(tokens)
        self._freqs = list(freqs)
        self._ids = {tok: i + 2 for i, tok in enumerate(tokens)}
        if len(self._ids) != len(tokens):
            raise DataError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self._tokens) + 2

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        if idx == PAD_ID:
            return "<pad>"
        if idx == UNK_ID:
            return "<unk>"
        return self._tokens[idx - 2]

    def to_text(self) -> str:
        return "".join(f"{tok}\t{freq}\n" for tok, freq in zip(self._tokens, self._freqs))

    @classmethod
    def from_text(cls, text: str) -> "Vocabulary":
        return cls(*_parse_tsv(text.splitlines()))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_text())

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        return cls(*_parse_tsv(_text_lines(path)))


# a tab splits a vocabulary line; str.splitlines also ends a line at each of the rest
_LABEL_BREAKERS = "\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class LabelVocabulary:
    """Label <-> id map ordered by descending frequency.

    Real labels get ids 0..L-1. The decoder's output space appends a terminal
    class at id L; the start marker used to prime the decoder sits at L+1 and
    never appears in outputs.
    """

    def __init__(self, labels: list[str], freqs: list[int]):
        if len(labels) != len(freqs):
            raise DataError("label and frequency lists differ in length")
        if not labels:
            raise DataError("label vocabulary is empty")
        for lab in labels:
            if any(ch in lab for ch in _LABEL_BREAKERS):
                raise DataError(f"label {lab!r} contains a tab or a line break")
        self._labels = list(labels)
        self._freqs = list(freqs)
        self._ids = {lab: i for i, lab in enumerate(labels)}
        if len(self._ids) != len(labels):
            raise DataError("duplicate label in vocabulary")

    def __len__(self) -> int:
        """Number of real labels."""
        return len(self._labels)

    @property
    def eos_id(self) -> int:
        return len(self._labels)

    @property
    def bos_id(self) -> int:
        return len(self._labels) + 1

    def id_of(self, label: str) -> int:
        if label not in self._ids:
            raise DataError(f"unknown label {label!r}")
        return self._ids[label]

    def label_of(self, idx: int) -> str:
        if not 0 <= idx < len(self._labels):
            raise DataError(f"label id {idx} out of range")
        return self._labels[idx]

    def freq_of(self, idx: int) -> int:
        return self._freqs[idx]

    def to_text(self) -> str:
        return "".join(f"{lab}\t{freq}\n" for lab, freq in zip(self._labels, self._freqs))

    @classmethod
    def from_text(cls, text: str) -> "LabelVocabulary":
        return cls(*_parse_tsv(text.splitlines()))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_text())

    @classmethod
    def load(cls, path: str) -> "LabelVocabulary":
        return cls(*_parse_tsv(_text_lines(path)))


def _text_lines(path: str):
    """The lines of a UTF-8 text file; a line with other bytes raises CorpusError."""
    # surrogateescape turns each undecodable byte into a lone surrogate, which
    # a strict encode then finds, so the error names the line it is on
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusError("invalid UTF-8", line=lineno) from None
            yield line


def _parse_tsv(lines) -> tuple[list[str], list[int]]:
    names, freqs = [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusError(f"expected 'name<TAB>count', got {line!r}", line=lineno)
        try:
            freq = int(parts[1])
        except ValueError:
            raise CorpusError(f"count {parts[1]!r} is not an integer", line=lineno) from None
        names.append(parts[0])
        freqs.append(freq)
    return names, freqs


@dataclass
class Example:
    """One encoded document: token ids plus real label ids (unsorted)."""

    token_ids: np.ndarray
    label_ids: list[int]


@dataclass
class Batch:
    token_ids: np.ndarray      # (B, T) int64, padded with PAD_ID
    lengths: np.ndarray        # (B,) true source lengths
    label_seqs: np.ndarray     # (B, S) framed target ids, padded with LABEL_PAD
    label_lengths: np.ndarray  # (B,) framed sequence lengths

    def __len__(self) -> int:
        return self.token_ids.shape[0]


def load_jsonl(path: str, require_labels: bool = True) -> list[dict]:
    """Parse a JSON-lines dataset, validating each record.

    Returns raw dicts with "text" and (when required) "labels" keys. Errors
    carry the 1-based line number of the offending record.
    """
    records = []
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusError(f"invalid JSON ({e.msg})", line=lineno) from None
        if not isinstance(rec, dict):
            raise CorpusError("record is not a JSON object", line=lineno)
        text = rec.get("text")
        if not isinstance(text, str) or not text.strip():
            raise CorpusError("missing or empty 'text' field", line=lineno)
        if require_labels:
            labels = rec.get("labels")
            if not isinstance(labels, list) or not labels:
                raise CorpusError("missing or empty 'labels' field", line=lineno)
            if not all(isinstance(lab, str) and lab for lab in labels):
                raise CorpusError("labels must be non-empty strings", line=lineno)
            if len(set(labels)) != len(labels):
                raise CorpusError("duplicate label in record", line=lineno)
        records.append(rec)
    if not records:
        raise CorpusError(f"no records in {path}")
    return records


def write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def build_vocab(records: list[dict], max_size: int = 50000) -> tuple[Vocabulary, LabelVocabulary]:
    """Count tokens and labels over training records and fix both id maps.

    Order is descending frequency; ties break by first appearance in the
    corpus so the result is reproducible from the file alone.
    """
    if max_size < 1:
        raise DataError(f"vocabulary size must be positive, got {max_size}")
    tok_counts: Counter[str] = Counter()
    tok_first: dict[str, int] = {}
    lab_counts: Counter[str] = Counter()
    lab_first: dict[str, int] = {}
    for rec in records:
        for tok in tokenize(rec["text"]):
            tok_counts[tok] += 1
            tok_first.setdefault(tok, len(tok_first))
        for lab in rec["labels"]:
            lab_counts[lab] += 1
            lab_first.setdefault(lab, len(lab_first))
    tokens = sorted(tok_counts, key=lambda t: (-tok_counts[t], tok_first[t]))[:max_size]
    labels = sorted(lab_counts, key=lambda l: (-lab_counts[l], lab_first[l]))
    return (
        Vocabulary(tokens, [tok_counts[t] for t in tokens]),
        LabelVocabulary(labels, [lab_counts[l] for l in labels]),
    )


def encode_text(text: str, vocab: Vocabulary, max_len: int = 500) -> np.ndarray:
    """Token ids for a document, unknowns mapped to UNK, truncated to max_len."""
    if max_len < 1:
        raise DataError(f"max_len must be positive, got {max_len}")
    toks = tokenize(text)
    if not toks:
        raise DataError("text has no tokens after normalization")
    ids = [vocab.id_of(t) for t in toks[:max_len]]
    return np.asarray(ids, dtype=np.int64)


def encode_examples(
    records: list[dict], vocab: Vocabulary, label_vocab: LabelVocabulary, max_len: int = 500
) -> list[Example]:
    out = []
    for i, rec in enumerate(records, start=1):
        try:
            token_ids = encode_text(rec["text"], vocab, max_len)
            label_ids = [label_vocab.id_of(lab) for lab in rec["labels"]]
        except DataError as e:
            raise CorpusError(str(e), line=i) from None
        out.append(Example(token_ids, label_ids))
    return out


def sort_labels(label_ids: list[int], label_vocab: LabelVocabulary) -> list[int]:
    """Order a label set by descending frequency, ties by ascending id."""
    return sorted(label_ids, key=lambda i: (-label_vocab.freq_of(i), i))


def shuffle_labels(label_ids: list[int], rng: RngStream) -> list[int]:
    """Uniformly random order, for the label-order ablation."""
    out = list(label_ids)
    rng.shuffle(out)
    return out


def frame_labels(label_ids: list[int], label_vocab: LabelVocabulary) -> list[int]:
    """Wrap an ordered label list as [start, y1..yn, terminal]."""
    if len(set(label_ids)) != len(label_ids):
        raise DataError(f"duplicate label id in {label_ids}")
    for i in label_ids:
        if not 0 <= i < len(label_vocab):
            raise DataError(f"label id {i} out of range")
    return [label_vocab.bos_id] + list(label_ids) + [label_vocab.eos_id]


def make_batches(
    framed: list[tuple[np.ndarray, list[int]]], batch_size: int, rng: RngStream | None = None
) -> list[Batch]:
    """Group (token_ids, framed_labels) pairs into padded batches.

    Shuffles example order when given an rng. Token rows pad with PAD_ID and
    label rows with LABEL_PAD; consumers must honor the recorded lengths, so
    the pad values themselves are never read.
    """
    if batch_size < 1:
        raise DataError(f"batch size must be positive, got {batch_size}")
    order = list(range(len(framed)))
    if rng is not None:
        rng.shuffle(order)
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = [framed[i] for i in order[start:start + batch_size]]
        max_t = max(len(tok) for tok, _ in chunk)
        max_s = max(len(seq) for _, seq in chunk)
        tok_mat = np.full((len(chunk), max_t), PAD_ID, dtype=np.int64)
        lab_mat = np.full((len(chunk), max_s), LABEL_PAD, dtype=np.int64)
        lengths = np.zeros(len(chunk), dtype=np.int64)
        lab_lengths = np.zeros(len(chunk), dtype=np.int64)
        for j, (tok, seq) in enumerate(chunk):
            tok_mat[j, :len(tok)] = tok
            lab_mat[j, :len(seq)] = seq
            lengths[j] = len(tok)
            lab_lengths[j] = len(seq)
        batches.append(Batch(tok_mat, lengths, lab_mat, lab_lengths))
    return batches

