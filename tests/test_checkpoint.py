"""Checkpoint format: bitwise round trips, deterministic bytes, corruption."""

import json
from dataclasses import asdict
from pathlib import Path

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
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

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


def reference_bytes(model, vocab, lv, best_valid_f1, max_label_steps, save_adam):
    """The format written out by hand: the magic line, the header line, each
    tensor's bytes, then, with Adam, every m and every v, in manifest order."""
    params = model.params
    header = {
        "model_config": asdict(model.config),
        "vocab_size": model.vocab_size,
        "num_labels": model.num_labels,
        "vocab": vocab.to_text(),
        "label_vocab": lv.to_text(),
        "best_valid_f1": float(best_valid_f1),
        "max_label_steps": int(max_label_steps),
        "tensors": [{"name": name, "shape": list(t.data.shape)} for name, t in params.items()],
        "adam": {"saved": save_adam, "step": params.step_count},
    }
    blob = MAGIC + json.dumps(header, ensure_ascii=False).encode("utf-8") + b"\n"
    blob += b"".join(t.data.astype("<f8").tobytes() for _, t in params.items())
    if save_adam:
        state = params.adam_state()
        blob += b"".join(state["m"][name].astype("<f8").tobytes() for name in params.names())
        blob += b"".join(state["v"][name].astype("<f8").tobytes() for name in params.names())
    return blob


def trained_setup(**cfg_overrides):
    """A model three Adam steps in, so that m, v and the step count are not zero."""
    from seq2label.corpus import frame_labels, sort_labels

    model, vocab, lv, examples = small_setup(seed=1, **cfg_overrides)
    for ex in examples:
        one_update(model, ex, frame_labels(sort_labels(ex.label_ids, lv), lv))
    return model, vocab, lv


class TestFormat:
    @pytest.mark.parametrize("save_adam", [False, True])
    @pytest.mark.parametrize("cfg", [{}, {"ge_mode": "gate", "encoder_layers": 2}], ids=["default", "gate-2-layers"])
    def test_bytes_match_the_reference_writer(self, tmp_path, save_adam, cfg):
        model, vocab, lv = trained_setup(**cfg)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model, vocab, lv, best_valid_f1=0.25, max_label_steps=3, save_adam=save_adam)
        assert path.read_bytes() == reference_bytes(model, vocab, lv, 0.25, 3, save_adam)

    @pytest.mark.parametrize("save_adam", [False, True])
    def test_loaded_arrays_are_native_and_their_own(self, tmp_path, save_adam):
        model, vocab, lv = trained_setup()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, vocab, lv, save_adam=save_adam)
        params = load_checkpoint(path).model.params
        m, v = params.moments()
        arrays = [t.data for _, t in params.items()] + [m[name] for name in params] + [v[name] for name in params]
        for a in arrays:
            assert a.dtype == np.float64 and a.dtype.isnative
            assert a.flags.c_contiguous and a.flags.aligned and a.flags.writeable
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:]), i
        if save_adam:
            saved_m, saved_v = model.params.moments()
            for name in params:
                assert np.array_equal(m[name], saved_m[name]) and np.array_equal(v[name], saved_v[name]), name

    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch):
        model, vocab, lv = trained_setup()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, vocab, lv, save_adam=True)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew initial values")

        monkeypatch.setattr(RngStream, "uniform", refuse)
        ckpt = load_checkpoint(path)
        for name, t in model.params.items():
            assert np.array_equal(ckpt.model.params[name].data, t.data), name


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
    with open(path, "rb") as f:
        blob = f.read()
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
        blob = Path(path).read_bytes()
        Path(path).write_bytes(b"not a checkpoint\n" + blob)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_truncated_tensors(self, tmp_path):
        path = self.make(tmp_path)
        with open(path, "rb") as f:
            blob = f.read()
        # out.w_logits, the last tensor, holds (3 labels + 1) x 4 values
        for cut, name in [(16, "out.w_logits"), (8 * (4 * 4 + 1), "out.w_context")]:
            with open(path, "wb") as f:
                f.write(blob[:-cut])
            with pytest.raises(DataError, match=rf"is truncated \(tensor {name}\)$"):
                load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = self.make(tmp_path)
        with open(path, "ab") as f:
            f.write(b"\x00" * 8)
        with pytest.raises(DataError, match="has 8 trailing bytes$"):
            load_checkpoint(path)

    def test_corrupt_header_json(self, tmp_path):
        path = self.make(tmp_path)
        blob = Path(path).read_bytes()
        end = blob.find(b"\n", len(MAGIC))
        Path(path).write_bytes(MAGIC + b"{broken" + blob[end:])
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

    @pytest.mark.parametrize("shape", [
        lambda s: s[:-1] + [s[-1] + 0.5],
        lambda s: [-d for d in s],
        lambda s: "ab",
        lambda s: [str(d) for d in s],
        lambda s: [s],
    ], ids=["float", "negative", "string", "digit-strings", "nested"])
    @pytest.mark.parametrize("entry", [0, -1])
    def test_malformed_shape_is_refused_before_reading(self, tmp_path, shape, entry):
        path = self.make(tmp_path)
        tamper_header(path, lambda h: h["tensors"][entry].__setitem__("shape", shape(h["tensors"][entry]["shape"])))
        with pytest.raises(DataError, match="has shape .*, expected"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("block, kind", [(0, "tensor"), (1, "Adam m of"), (2, "Adam v of")])
    def test_non_finite_value_names_its_tensor(self, tmp_path, value, block, kind):
        model, vocab, lv, _ = small_setup()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, vocab, lv, save_adam=True)
        blob = bytearray(Path(path).read_bytes())
        # the first value of out.w_logits in the chosen block
        names = model.params.names()
        sizes = [model.params[n].data.size for n in names]
        k = names.index("out.w_logits")
        at = blob.index(b"\n", len(MAGIC)) + 1 + 8 * (block * sum(sizes) + sum(sizes[:k]))
        blob[at:at + 8] = np.array([value], dtype="<f8").tobytes()
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(DataError, match=f"{kind} out.w_logits holds a non-finite value"):
            load_checkpoint(path)

    @pytest.mark.parametrize("mutate", [
        lambda h: h.update(vocab=h["vocab"] + "".join(f"extra{i}\t1\n" for i in range(30))),
        lambda h: h.update(label_vocab="".join(h["label_vocab"].splitlines(keepends=True)[:-1])),
        lambda h: h.update(vocab=5),
        lambda h: h.update(max_label_steps=0),
        lambda h: h.update(adam={"saved": False, "step": -1}),
    ], ids=["more-tokens", "fewer-labels", "vocab-not-text", "no-steps", "negative-adam-step"])
    def test_header_inconsistent_with_model(self, tmp_path, mutate):
        path = self.make(tmp_path)
        tamper_header(path, mutate)
        with pytest.raises(DataError, match="header"):
            load_checkpoint(path)
