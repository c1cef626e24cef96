"""Dataset handling: vocabularies, label ordering, framing, batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seq2label import corpus
from seq2label.corpus import (
    LABEL_PAD,
    PAD_ID,
    UNK_ID,
    LabelVocabulary,
    Vocabulary,
    build_vocab,
    encode_text,
    frame_labels,
    load_jsonl,
    make_batches,
    shuffle_labels,
    sort_labels,
    tokenize,
)
from seq2label.errors import CorpusError, DataError
from seq2label.numerics import RngStream


class TestTokenize:
    def test_lowercases_and_strips_edge_punctuation(self):
        assert tokenize("Hello, World! (really)") == ["hello", "world", "really"]

    def test_keeps_interior_punctuation(self):
        assert tokenize("e.g. state-of-the-art u.s.") == ["e.g", "state-of-the-art", "u.s"]

    def test_drops_pure_punctuation_tokens(self):
        assert tokenize("a -- b ...") == ["a", "b"]


class TestVocabulary:
    def test_reserved_ids(self):
        v = Vocabulary(["the", "cat"], [10, 5])
        assert v.id_of("the") == 2 and v.id_of("cat") == 3
        assert v.id_of("dog") == UNK_ID
        assert v.token_of(PAD_ID) == "<pad>" and v.token_of(UNK_ID) == "<unk>"
        assert len(v) == 4

    def test_round_trip(self, tmp_path):
        v = Vocabulary(["a", "b"], [3, 1])
        path = tmp_path / "vocab.tsv"
        v.save(str(path))
        v2 = Vocabulary.load(str(path))
        assert v2.id_of("a") == v.id_of("a") and v2.id_of("b") == v.id_of("b")

    def test_rejects_duplicates(self):
        with pytest.raises(DataError):
            Vocabulary(["a", "a"], [1, 1])


class TestLabelVocabulary:
    def test_id_layout(self):
        lv = LabelVocabulary(["x", "y", "z"], [5, 3, 2])
        assert [lv.id_of(l) for l in "xyz"] == [0, 1, 2]
        assert lv.eos_id == 3 and lv.bos_id == 4
        assert len(lv) == 3

    def test_unknown_label_raises(self):
        lv = LabelVocabulary(["x"], [1])
        with pytest.raises(DataError, match="unknown label"):
            lv.id_of("nope")

    def test_rejects_tab_and_newline(self):
        with pytest.raises(DataError):
            LabelVocabulary(["a\tb"], [1])
        with pytest.raises(DataError):
            LabelVocabulary(["a\nb"], [1])

    def test_rejects_every_line_break(self):
        # any character str.splitlines ends a line at would break from_text/load
        breaks = [chr(i) for i in range(0x3000) if len(f"a{chr(i)}b".splitlines()) > 1]
        assert "\u2028" in breaks and "\r" in breaks
        for ch in breaks:
            with pytest.raises(DataError, match="line break"):
                LabelVocabulary(["ok", f"x{ch}y"], [2, 1])

    def test_text_round_trip(self):
        lv = LabelVocabulary(["x", "y"], [9, 2])
        lv2 = LabelVocabulary.from_text(lv.to_text())
        assert lv2.id_of("y") == 1 and lv2.freq_of(0) == 9


class TestBuildVocab:
    def test_frequency_order_with_first_seen_ties(self):
        records = [
            {"text": "b b c", "labels": ["B", "A"]},
            {"text": "a a c", "labels": ["A"]},
        ]
        vocab, lv = build_vocab(records)
        # all three tokens occur twice; first appearance breaks the ties
        assert vocab.id_of("b") == 2 and vocab.id_of("c") == 3 and vocab.id_of("a") == 4
        assert lv.id_of("A") == 0 and lv.id_of("B") == 1

    def test_max_size_truncates(self):
        records = [{"text": "a a a b b c", "labels": ["X"]}]
        vocab, _ = build_vocab(records, max_size=2)
        assert len(vocab) == 4  # two kept tokens plus pad/unk
        assert vocab.id_of("c") == UNK_ID


class TestLoadJsonl:
    def test_reports_one_based_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "ok", "labels": ["a"]}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_jsonl(str(path))

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"labels": ["a"]}\n')
        with pytest.raises(CorpusError, match="line 1.*text"):
            load_jsonl(str(path))
        path.write_text('{"text": "hi"}\n')
        with pytest.raises(CorpusError, match="labels"):
            load_jsonl(str(path))

    def test_duplicate_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "hi", "labels": ["a", "a"]}\n')
        with pytest.raises(CorpusError, match="duplicate"):
            load_jsonl(str(path))

    def test_labels_optional_for_prediction_input(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"text": "hi"}\n\n{"text": "there"}\n')
        records = load_jsonl(str(path), require_labels=False)
        assert len(records) == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CorpusError, match="no records"):
            load_jsonl(str(path))

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"text": "ok", "labels": ["a"]}\r\n{"text": "caf\xe9", "labels": ["a"]}\n')
        with pytest.raises(CorpusError, match="line 2: invalid UTF-8"):
            load_jsonl(str(path))

    @pytest.mark.parametrize("cls", [Vocabulary, LabelVocabulary])
    def test_undecodable_vocabulary_file(self, tmp_path, cls):
        path = tmp_path / "v.tsv"
        path.write_bytes(b"a\t3\n\xff\t1\n")
        with pytest.raises(CorpusError, match="line 2: invalid UTF-8"):
            cls.load(str(path))


class TestEncodeText:
    def test_unknown_tokens_map_to_unk(self):
        v = Vocabulary(["known"], [1])
        assert list(encode_text("known mystery", v)) == [2, UNK_ID]

    def test_truncation(self):
        v = Vocabulary(["a"], [1])
        assert len(encode_text("a " * 100, v, max_len=7)) == 7

    def test_empty_after_normalization_raises(self):
        v = Vocabulary(["a"], [1])
        with pytest.raises(DataError, match="no tokens"):
            encode_text("!!! ...", v)


class TestLabelOrdering:
    def test_sort_by_frequency_then_id(self):
        lv = LabelVocabulary(["A", "C", "B"], [10, 7, 5])
        ids = [lv.id_of(x) for x in ("B", "A", "C")]
        assert sort_labels(ids, lv) == [lv.id_of("A"), lv.id_of("C"), lv.id_of("B")]

    def test_sort_breaks_frequency_ties_by_id(self):
        lv = LabelVocabulary(["A", "B", "C"], [5, 5, 5])
        assert sort_labels([2, 0, 1], lv) == [0, 1, 2]

    def test_shuffle_is_roughly_uniform(self):
        rng = RngStream(0)
        flipped = sum(shuffle_labels([0, 1], rng) == [1, 0] for _ in range(10_000))
        assert 0.48 <= flipped / 10_000 <= 0.52

    def test_frame_adds_markers(self):
        lv = LabelVocabulary(["A", "B"], [2, 1])
        assert frame_labels([1, 0], lv) == [lv.bos_id, 1, 0, lv.eos_id]

    def test_frame_rejects_duplicates_and_bad_ids(self):
        lv = LabelVocabulary(["A", "B"], [2, 1])
        with pytest.raises(DataError, match="duplicate"):
            frame_labels([0, 0], lv)
        with pytest.raises(DataError, match="out of range"):
            frame_labels([5], lv)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_sort_is_order_insensitive(self, ids):
        lv = LabelVocabulary(list("pqrstu"), [9, 9, 7, 7, 3, 1])
        assert sort_labels(list(ids), lv) == sort_labels(sorted(ids), lv)


class TestBatches:
    def make_framed(self, sizes):
        return [
            (np.arange(1, n + 1, dtype=np.int64), [7] + list(range(n)) + [6])
            for n in sizes
        ]

    def test_padding_and_lengths(self):
        batches = make_batches(self.make_framed([3, 5]), batch_size=4)
        assert len(batches) == 1
        b = batches[0]
        assert b.token_ids.shape == (2, 5)
        assert list(b.lengths) == [3, 5]
        assert list(b.token_ids[0]) == [1, 2, 3, PAD_ID, PAD_ID]
        assert b.label_seqs[0, -1] == LABEL_PAD
        assert list(b.label_lengths) == [5, 7]

    def test_batch_count(self):
        batches = make_batches(self.make_framed([2] * 10), batch_size=4)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_shuffle_changes_order_but_not_content(self):
        framed = self.make_framed(range(2, 12))
        flat = make_batches(framed, batch_size=3)
        shuffled = make_batches(framed, batch_size=3, rng=RngStream(1))
        flat_lengths = sorted(int(x) for b in flat for x in b.lengths)
        shuf_lengths = sorted(int(x) for b in shuffled for x in b.lengths)
        assert flat_lengths == shuf_lengths
        assert [int(x) for b in flat for x in b.lengths] != [
            int(x) for b in shuffled for x in b.lengths
        ]

    def test_rejects_bad_batch_size(self):
        with pytest.raises(DataError):
            make_batches(self.make_framed([2]), batch_size=0)


class TestEncodeExamples:
    def test_line_numbers_on_failure(self):
        v = Vocabulary(["a"], [1])
        lv = LabelVocabulary(["X"], [1])
        records = [
            {"text": "a", "labels": ["X"]},
            {"text": "a", "labels": ["Y"]},
        ]
        with pytest.raises(CorpusError, match="line 2"):
            corpus.encode_examples(records, v, lv)
