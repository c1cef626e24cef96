"""Dataset handling: vocabularies, label ordering, framing, batching."""

import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seq2label import corpus
from seq2label.corpus import (
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


class TestNameTable:
    """The checks both vocabularies share."""

    @pytest.mark.parametrize("cls", [Vocabulary, LabelVocabulary])
    def test_rejects_duplicates(self, cls):
        with pytest.raises(DataError, match="duplicate"):
            cls(["a", "a"], [1, 1])

    @pytest.mark.parametrize("cls, kind", [(Vocabulary, "token"), (LabelVocabulary, "label")])
    @pytest.mark.parametrize("names, freqs", [(["a", "b"], [1]), (["a"], [1, 1]), ([], [1])])
    def test_rejects_lists_of_different_lengths(self, cls, kind, names, freqs):
        with pytest.raises(DataError, match=f"{kind} and frequency lists differ in length"):
            cls(names, freqs)


# one-line names: no tab and nothing str.splitlines ends a line at
NAMES = st.lists(
    st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"),
            min_size=1, max_size=6),
    unique=True, max_size=12,
)
# a vocabulary line that is not 'name<TAB>count': three fields, one field, or a count int() refuses
BAD_LINES = st.sampled_from(["x\ty\t3", "a\t1\t", "solo", " ", "x\tone", "x\t1.5", "x\t", "x\t0x1f"])


class TestNameTableText:
    """``to_text`` and ``from_text``/``load``, against the line-by-line format."""

    @given(names=NAMES, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_through_the_line_format(self, tmp_path_factory, names, data):
        freqs = data.draw(st.lists(st.integers(-10**20, 10**20), min_size=len(names), max_size=len(names)))
        for cls in (Vocabulary, LabelVocabulary) if names else (Vocabulary,):
            table = cls(names, freqs)
            text = table.to_text()
            assert text == "".join(f"{name}\t{freq}\n" for name, freq in zip(names, freqs))
            path = tmp_path_factory.mktemp("v") / "v.tsv"
            path.write_text(text, encoding="utf-8")
            for again in (cls.from_text(text), cls.load(str(path))):
                assert again._names == names and again._freqs == freqs
                assert again.to_text() == text

    @given(before=st.lists(st.booleans(), max_size=8), bad=BAD_LINES,
           after=st.lists(st.sampled_from(["z\t1", "", "y", "w\tx"]), max_size=3),
           ending=st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=100, deadline=None)
    @example(before=[False, True], bad="x\ty\t3", after=[], ending="\n")
    @example(before=[True, False], bad="solo", after=[], ending="\n")
    @example(before=[False, False, True], bad="x\tone", after=[], ending="\n")
    def test_first_bad_line_is_named(self, tmp_path_factory, before, bad, after, ending):
        # good lines where ``before`` is True, blank lines where it is False
        lines = [f"n{i}\t{i}" if good else "" for i, good in enumerate(before)] + [bad] + after
        text = ending.join(lines) + ending
        path = tmp_path_factory.mktemp("v") / "v.tsv"
        path.write_bytes(text.encode("utf-8"))
        for cls in (Vocabulary, LabelVocabulary):
            for read in (lambda: cls.from_text(text), lambda: cls.load(str(path))):
                with pytest.raises(CorpusError, match=f"^line {len(before) + 1}: "):
                    read()


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
        assert v2.to_text() == v.to_text() == "a\t3\nb\t1\n"

    def test_rejects_every_line_break(self):
        # a token str.splitlines breaks would not survive a checkpoint's from_text
        breaks = [chr(i) for i in range(0x3000) if len(f"a{chr(i)}b".splitlines()) > 1]
        for ch in ["\t"] + breaks:
            with pytest.raises(DataError, match="line break"):
                Vocabulary(["ok", f"x{ch}y"], [2, 1])


class TestLabelVocabulary:
    def test_id_layout(self):
        lv = LabelVocabulary(["x", "y", "z"], [5, 3, 2])
        assert [lv.id_of(l) for l in "xyz"] == [0, 1, 2]
        assert lv.eos_id == 3 and lv.bos_id == 4
        assert len(lv) == 3

    def test_rejects_empty(self):
        with pytest.raises(DataError, match="empty"):
            LabelVocabulary([], [])

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


class TestAtomicOutput:
    def test_temp_file_left_by_a_killed_run_does_not_block(self, tmp_path):
        # a killed run with this process's pid left its temp file behind
        stale = tmp_path / f".out.txt.{os.getpid()}.tmp"
        stale.write_text("partial")
        path = tmp_path / "out.txt"
        with corpus.atomic_output(str(path)) as f:
            f.write("whole")
        assert path.read_text() == "whole" and stale.read_text() == "partial"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "out.txt"]

    def test_output_has_the_umask_permissions(self, tmp_path):
        umask = os.umask(0o022)
        try:
            with corpus.atomic_output(str(tmp_path / "out.txt")) as f:
                f.write("whole")
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == 0o644


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

    @given(texts=st.lists(st.lists(st.sampled_from(["a", "b", "B", "c,", "(c)", "d", "e.f", "--", "g"]),
                                   max_size=8).map(" ".join), min_size=1, max_size=6),
           label_sets=st.lists(st.lists(st.sampled_from("PQRST"), min_size=1, max_size=3, unique=True),
                               min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    @example(texts=["z y z", "y x x w x"], label_sets=[["X"], ["X"]] * 3)
    def test_tie_straddling_max_size_keeps_first_seen(self, texts, label_sets):
        # corpora of a few words, so counts tie often. A cap cuts through a
        # tie too: equal counts keep their first-seen order on both sides of it
        records = [{"text": text, "labels": labels} for text, labels in zip(texts, label_sets)]

        def ranked(names):
            first, counts = {}, {}
            for name in names:
                first.setdefault(name, len(first))
                counts[name] = counts.get(name, 0) + 1
            return [f"{n}\t{counts[n]}" for n in sorted(counts, key=lambda n: (-counts[n], first[n]))]

        tokens = ranked(tok for text in texts for tok in tokenize(text))
        labels = ranked(lab for rec in records for lab in rec["labels"])
        for cap in range(1, len(tokens) + 2):
            vocab, label_vocab = build_vocab(records, max_size=cap)
            assert vocab.to_text().splitlines() == tokens[:cap], cap
            assert label_vocab.to_text().splitlines() == labels


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

    @given(words=st.lists(st.sampled_from(["a", "B", "c.", "(d)", "e-f", "zz", "?", "q"]), min_size=1, max_size=30),
           known=st.lists(st.sampled_from(["a", "b", "c", "d", "e-f", "x"]), unique=True),
           max_len=st.integers(1, 35))
    @settings(max_examples=150, deadline=None)
    def test_ids_match_a_lookup_per_token(self, words, known, max_len):
        vocab = Vocabulary(known, [1] * len(known))
        text = " ".join(words)
        toks = tokenize(text)
        if not toks:
            with pytest.raises(DataError, match="no tokens"):
                encode_text(text, vocab, max_len)
            return
        ids = encode_text(text, vocab, max_len)
        assert ids.dtype == np.int64 and ids.ndim == 1
        assert ids.tolist() == [vocab.id_of(tok) for tok in toks[:max_len]]

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
        # documents are laid end to end: no padding, lengths mark the boundaries
        batches = make_batches(self.make_framed([3, 5]), batch_size=4)
        assert len(batches) == 1
        b = batches[0]
        assert b.token_ids.shape == (8,)
        assert list(b.lengths) == [3, 5]
        assert list(b.token_ids) == [1, 2, 3, 1, 2, 3, 4, 5]
        assert PAD_ID not in b.token_ids
        assert [len(seq) for seq in b.targets] == [5, 7]

    @given(
        st.lists(st.integers(1, 9), min_size=1, max_size=12),
        st.integers(1, 5),
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    )
    @settings(max_examples=60, deadline=None)
    def test_documents_laid_end_to_end(self, sizes, batch_size, seed):
        # example i's ids are 10*i.. and its framed targets start with i
        framed = [
            (np.arange(10 * i, 10 * i + n, dtype=np.int64), [i] + list(range(n % 4)) + [99])
            for i, n in enumerate(sizes)
        ]
        batches = make_batches(framed, batch_size, None if seed is None else RngStream(seed))
        seen = []
        for b in batches:
            docs = [framed[seq[0]] for seq in b.targets]
            assert b.token_ids.dtype == np.int64 and b.lengths.dtype == np.int64
            assert np.array_equal(b.token_ids, np.concatenate([tok for tok, _ in docs]))
            assert b.lengths.tolist() == [len(tok) for tok, _ in docs]
            assert b.lengths.sum() == b.token_ids.size
            assert b.targets == [seq for _, seq in docs]
            assert len(b) == len(docs)
            seen += [seq[0] for seq in b.targets]
        assert sorted(seen) == list(range(len(framed)))
        assert [len(b) for b in batches[:-1]] == [batch_size] * (len(batches) - 1)

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

    @pytest.mark.parametrize("records", [[], [{"text": "a", "labels": ["X"]}]], ids=["none", "one"])
    def test_bad_max_len_names_no_record(self, records):
        v, lv = Vocabulary(["a"], [1]), LabelVocabulary(["X"], [1])
        with pytest.raises(DataError, match="max_len must be positive") as caught:
            corpus.encode_examples(records, v, lv, max_len=0)
        assert not isinstance(caught.value, CorpusError)
