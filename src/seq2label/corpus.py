"""Dataset loading, vocabularies, label ordering, and batching.

The on-disk format is JSON lines: ``{"text": "...", "labels": ["a", "b"]}``.
Labels are mapped to integer ids by descending training-set frequency, which
is also the canonical emission order during training. The id space for the
decoder output is the L real labels plus one terminal class; a separate
start-of-sequence id exists only on the input side.
"""

from __future__ import annotations

import json
import os
import re
import string
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from operator import itemgetter, ne

import numpy as np

from .errors import CorpusError, DataError
from .numerics import RngStream

PAD_ID = 0
UNK_ID = 1

_STRIP = string.punctuation


def is_stream(path: str) -> bool:
    """An existing path that is not a regular file, such as /dev/stdout: an
    output written directly, not replaced."""
    return os.path.exists(path) and not os.path.isfile(path)


@contextmanager
def atomic_output(path: str, binary: bool = False):
    """A file (UTF-8 text, or bytes with ``binary``) that appears at ``path``
    only when the block completes.

    It is written to a hidden file beside the target, named afresh for each
    call, and moved over it at the end, so a failure partway leaves no
    partial output (and an existing file as it was). A stream is written
    directly.
    """
    mode, encoding = ("b", None) if binary else ("", "utf-8")
    if is_stream(path):
        with open(path, "w" + mode, encoding=encoding) as f:
            yield f
        return
    folder, name = os.path.split(os.path.realpath(path))  # replace a symlink's target, not the link
    # a random name, so a file left by a killed run whose pid this run reuses cannot block it;
    # open's "x" keeps the umask's permissions where mkstemp would make it 0600
    tmp = os.path.join(folder, f".{name}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "x" + mode, encoding=encoding)
    try:
        with f:
            yield f
        os.replace(tmp, os.path.join(folder, name))
    except BaseException:
        os.unlink(tmp)
        raise


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation off token edges."""
    return list(filter(None, map(str.strip, text.lower().split(), repeat(_STRIP))))


# a tab splits a vocabulary line; str.splitlines also ends a line at each of the rest
_LINE_BREAK = re.compile(r"[\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


class _NameTable:
    """Distinct one-line names with their training-set counts, the names
    taking ids from ``first_id`` in list order, stored as ``name<TAB>count``
    lines."""

    kind: str  # "token" or "label", for error messages
    first_id = 0

    def __init__(self, names: list[str], freqs: list[int]):
        if len(names) != len(freqs):
            raise DataError(f"{self.kind} and frequency lists differ in length")
        # refuse a name that would not survive to_text then from_text
        if _LINE_BREAK.search("".join(names)):  # one scan over up to 50,000 tokens
            bad = next(name for name in names if _LINE_BREAK.search(name))
            raise DataError(f"{self.kind} {bad!r} contains a tab or a line break")
        self._names = list(names)
        self._freqs = list(freqs)
        self._ids = dict(zip(self._names, count(self.first_id)))
        if len(self._ids) != len(names):
            raise DataError(f"duplicate {self.kind} in vocabulary")

    def to_text(self) -> str:
        # names alternate with their "\t<count>\n" ends, each distinct count
        # printed once: 50,000 tokens hold a few hundred distinct counts
        ends = {freq: f"\t{freq}\n" for freq in set(self._freqs)}
        cells = [""] * (2 * len(self._names))
        cells[0::2] = self._names
        cells[1::2] = map(ends.__getitem__, self._freqs)
        return "".join(cells)

    @classmethod
    def from_text(cls, text: str):
        return cls(*_parse_tsv(text.splitlines()))

    def save(self, path: str) -> None:
        with atomic_output(path) as f:
            f.write(self.to_text())

    @classmethod
    def load(cls, path: str):
        return cls(*_parse_tsv(list(_text_lines(path))))


class Vocabulary(_NameTable):
    """Token <-> id map with reserved padding (0) and unknown (1) slots."""

    kind = "token"
    first_id = 2

    def __len__(self) -> int:
        return len(self._names) + 2

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        if idx == PAD_ID:
            return "<pad>"
        if idx == UNK_ID:
            return "<unk>"
        return self._names[idx - 2]


class LabelVocabulary(_NameTable):
    """Label <-> id map ordered by descending frequency.

    Real labels get ids 0..L-1. The decoder's output space appends a terminal
    class at id L; the start marker used to prime the decoder sits at L+1 and
    never appears in outputs.
    """

    kind = "label"

    def __init__(self, labels: list[str], freqs: list[int]):
        super().__init__(labels, freqs)
        if not labels:
            raise DataError("label vocabulary is empty")

    def __len__(self) -> int:
        """Number of real labels."""
        return len(self._names)

    @property
    def eos_id(self) -> int:
        return len(self._names)

    @property
    def bos_id(self) -> int:
        return len(self._names) + 1

    def id_of(self, label: str) -> int:
        if label not in self._ids:
            raise DataError(f"unknown label {label!r}")
        return self._ids[label]

    def label_of(self, idx: int) -> str:
        if not 0 <= idx < len(self._names):
            raise DataError(f"label id {idx} out of range")
        return self._names[idx]

    def freq_of(self, idx: int) -> int:
        return self._freqs[idx]


def _text_lines(path: str):
    """The lines of a UTF-8 text file, without their line ends; the line
    that holds other bytes raises CorpusError when it is reached."""
    # surrogateescape turns each undecodable byte into a lone surrogate, which
    # a strict encode then finds; the lines before it come out first
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        text = f.read()
    lines = text.split("\n")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as e:
        bad = text.count("\n", 0, e.start)
        yield from lines[:bad]
        raise CorpusError("invalid UTF-8", line=bad + 1) from None
    yield from lines


def _parse_tsv(lines: list[str]) -> tuple[list[str], list[int]]:
    """Names and counts from ``name<TAB>count`` lines, skipping blank ones.

    The lines are checked, split and converted a whole column at a time; the
    first bad line raises CorpusError with its 1-based number.
    """
    kept = list(filter(None, lines))

    def line_of(i: int) -> int:  # the 1-based number of kept[i]
        return next(islice(compress(count(1), lines), i, None))

    tabs = list(map(str.count, kept, repeat("\t")))
    shaped = len(kept)  # the lines before the first that does not hold exactly one tab
    if tabs.count(1) != len(kept):
        shaped = next(compress(count(), map(ne, tabs, repeat(1))))
    fields = "\t".join(kept[:shaped]).split("\t") if shaped else []
    names, counts = fields[0::2], fields[1::2]
    freqs: list[int] = []
    try:
        freqs.extend(map(int, counts))  # on a bad count, holds the counts before it
    except ValueError:
        i = len(freqs)
        raise CorpusError(f"count {counts[i]!r} is not an integer", line=line_of(i)) from None
    if shaped < len(kept):
        raise CorpusError(f"expected 'name<TAB>count', got {kept[shaped]!r}", line=line_of(shaped))
    return names, freqs


@dataclass
class Example:
    """One encoded document: token ids plus real label ids (unsorted)."""

    token_ids: np.ndarray
    label_ids: list[int]


@dataclass
class Batch:
    """Documents laid end to end, the layout ``lstm_sequence`` reads."""

    token_ids: np.ndarray      # (N,) int64, every document's ids in batch order
    lengths: np.ndarray        # (B,) int64 document lengths, summing to N
    targets: list[list[int]]   # framed target ids, one list per document

    def __len__(self) -> int:
        return len(self.lengths)


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
    with atomic_output(path) as f:
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
    lab_counts: Counter[str] = Counter()
    for rec in records:
        tok_counts.update(tokenize(rec["text"]))
        lab_counts.update(rec["labels"])
    # one stable sort on the count, so equal counts keep the order in which
    # Counter first saw them (most_common(n)'s heap ranks the same, slower)
    return (
        Vocabulary(*_columns(tok_counts.most_common()[:max_size])),
        LabelVocabulary(*_columns(lab_counts.most_common())),
    )


def _columns(ranked: list[tuple[str, int]]) -> tuple[list[str], list[int]]:
    return list(map(itemgetter(0), ranked)), list(map(itemgetter(1), ranked))


def encode_text(text: str, vocab: Vocabulary, max_len: int = 500) -> np.ndarray:
    """Token ids for a document, unknowns mapped to UNK, truncated to max_len."""
    if max_len < 1:
        raise DataError(f"max_len must be positive, got {max_len}")
    toks = tokenize(text)
    if not toks:
        raise DataError("text has no tokens after normalization")
    return np.array(list(map(vocab._ids.get, toks[:max_len], repeat(UNK_ID))), dtype=np.int64)


def encode_examples(
    records: list[dict], vocab: Vocabulary, label_vocab: LabelVocabulary, max_len: int = 500
) -> list[Example]:
    if max_len < 1:
        raise DataError(f"max_len must be positive, got {max_len}")
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
    """Group (token_ids, framed_labels) pairs into batches of ``batch_size``
    documents, shuffling example order when given an rng."""
    if batch_size < 1:
        raise DataError(f"batch size must be positive, got {batch_size}")
    order = list(range(len(framed)))
    if rng is not None:
        rng.shuffle(order)
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = [framed[i] for i in order[start:start + batch_size]]
        batches.append(Batch(
            np.concatenate([tok for tok, _ in chunk], dtype=np.int64),
            np.array([len(tok) for tok, _ in chunk], dtype=np.int64),
            [list(seq) for _, seq in chunk],
        ))
    return batches
