"""Checkpoint format: bitwise round trips, deterministic bytes, corruption."""

import json

import numpy as np
import pytest

from seq2label.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from seq2label.corpus import LabelVocabulary, Vocabulary, build_vocab, encode_examples
from seq2label.errors import DataError
from seq2label.inference import greedy_decode
from seq2label.model import ModelConfig, Seq2LabelModel
from seq2label.numerics import RngStream, adam_step, clip_gradients
from seq2label.trainer import sequence_loss


def small_setup(seed=0, **cfg_overrides):
    records = [
        {"text": "the cafe door", "labels": ["food", "place"]},
        {"text": "loud music tonight", "labels": ["music"]},
        {"text": "cafe music", "labels": ["food", "music"]},
    ]
    vocab, lv = build_vocab(records, 100)
    examples = encode_examples(records, vocab, lv)
    cfg = ModelConfig(embed_size=4, encoder_hidden=3, decoder_hidden=4, **cfg_overrides)
    model = Seq2LabelModel(cfg, len(vocab), len(lv), RngStream(seed))
    return model, vocab, lv, examples


class TestRoundTrip:
    def test_tensors_and_metadata_survive(self, tmp_path):
        model, vocab, lv, _ = small_setup(ge_mode="gate")
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, vocab, lv, best_valid_f1=0.75, max_label_steps=4)
        ckpt = load_checkpoint(path)

        assert ckpt.model.config == model.config
        assert ckpt.best_valid_f1 == 0.75
        assert ckpt.max_label_steps == 4
        assert ckpt.model.params.names() == model.params.names()
        for name, t in model.params.items():
            assert np.array_equal(ckpt.model.params[name].data, t.data), name

    def test_vocabularies_survive(self, tmp_path):
        model, vocab, lv, _ = small_setup()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, vocab, lv)
        ckpt = load_checkpoint(path)
        assert ckpt.vocab.id_of("cafe") == vocab.id_of("cafe")
        assert ckpt.vocab.id_of("unseen-token") == vocab.id_of("unseen-token")
        assert [ckpt.label_vocab.label_of(i) for i in range(len(lv))] == \
               [lv.label_of(i) for i in range(len(lv))]
        assert ckpt.label_vocab.freq_of(lv.id_of("music")) == lv.freq_of(lv.id_of("music"))

    def test_decodes_identically_after_reload(self, tmp_path):
        model, vocab, lv, examples = small_setup(seed=3)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, vocab, lv)
        ckpt = load_checkpoint(path)
        for ex in examples:
            a = greedy_decode(model, ex.token_ids, len(lv) + 1)
            b = greedy_decode(ckpt.model, ex.token_ids, len(lv) + 1)
            assert a == b

    def test_save_is_byte_deterministic(self, tmp_path):
        model, vocab, lv, _ = small_setup()
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(p1, model, vocab, lv, best_valid_f1=0.5, max_label_steps=2)
        save_checkpoint(p2, model, vocab, lv, best_valid_f1=0.5, max_label_steps=2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_non_ascii_tokens(self, tmp_path):
        vocab = Vocabulary(["café", "naïve"], [3, 2])
        lv = LabelVocabulary(["größe"], [1])
        model = Seq2LabelModel(ModelConfig(embed_size=3, encoder_hidden=2, decoder_hidden=3),
                               len(vocab), len(lv), RngStream(0))
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, vocab, lv)
        ckpt = load_checkpoint(path)
        assert ckpt.vocab.id_of("café") == vocab.id_of("café")
        assert ckpt.label_vocab.label_of(0) == "größe"


def one_update(model, example, framed):
    loss = sequence_loss(model, example.token_ids, framed)
    model.params.zero_grads()
    loss.backward()
    clip_gradients(model.params, 10.0)
    adam_step(model.params, lr=0.01)


class TestOptimizerState:
    def test_adam_state_round_trip_continues_identically(self, tmp_path):
        from seq2label.corpus import frame_labels, sort_labels

        model, vocab, lv, examples = small_setup(seed=1)
        framed = frame_labels(sort_labels(examples[0].label_ids, lv), lv)
        for _ in range(3):
            one_update(model, examples[0], framed)

        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, vocab, lv, save_adam=True)
        resumed = load_checkpoint(path).model
        assert resumed.params.step_count == model.params.step_count

        one_update(model, examples[0], framed)
        one_update(resumed, examples[0], framed)
        for name, t in model.params.items():
            assert np.array_equal(resumed.params[name].data, t.data), name

    def test_without_adam_only_step_count_persists(self, tmp_path):
        model, vocab, lv, examples = small_setup(seed=1)
        from seq2label.corpus import frame_labels, sort_labels

        framed = frame_labels(sort_labels(examples[0].label_ids, lv), lv)
        one_update(model, examples[0], framed)
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, vocab, lv, save_adam=False)
        resumed = load_checkpoint(path).model
        assert resumed.params.step_count == 1
        state = resumed.params.adam_state()
        assert all(np.all(m == 0.0) for m in state["m"].values())


def tamper_header(path, mutate):
    blob = open(path, "rb").read()
    end = blob.find(b"\n", len(MAGIC))
    header = json.loads(blob[len(MAGIC):end])
    mutate(header)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
        f.write(b"\n")
        f.write(blob[end + 1:])


class TestCorruption:
    def make(self, tmp_path):
        model, vocab, lv, _ = small_setup()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, vocab, lv)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(b"not a checkpoint\n" + blob)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated_tensors(self, tmp_path):
        path = self.make(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-16])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = self.make(tmp_path)
        with open(path, "ab") as f:
            f.write(b"\x00" * 8)
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        path = self.make(tmp_path)
        blob = open(path, "rb").read()
        end = blob.find(b"\n", len(MAGIC))
        open(path, "wb").write(MAGIC + b"{broken" + blob[end:])
        with pytest.raises(DataError, match="header"):
            load_checkpoint(path)

    def test_manifest_rename_detected(self, tmp_path):
        path = self.make(tmp_path)
        tamper_header(path, lambda h: h["tensors"][0].__setitem__("name", "bogus"))
        with pytest.raises(DataError, match="manifest"):
            load_checkpoint(path)

    def test_transposed_shape_detected(self, tmp_path):
        path = self.make(tmp_path)

        def mutate(h):
            entry = next(m for m in h["tensors"] if len(m["shape"]) == 2
                         and m["shape"][0] != m["shape"][1])
            entry["shape"] = entry["shape"][::-1]

        tamper_header(path, mutate)
        with pytest.raises(DataError, match="shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate", [
        lambda h: h.update(vocab=h["vocab"] + "".join(f"extra{i}\t1\n" for i in range(30))),
        lambda h: h.update(label_vocab="".join(h["label_vocab"].splitlines(keepends=True)[:-1])),
        lambda h: h.update(vocab=5),
        lambda h: h.update(max_label_steps=0),
    ], ids=["more-tokens", "fewer-labels", "vocab-not-text", "no-steps"])
    def test_header_inconsistent_with_model(self, tmp_path, mutate):
        path = self.make(tmp_path)
        tamper_header(path, mutate)
        with pytest.raises(DataError, match="header"):
            load_checkpoint(path)
