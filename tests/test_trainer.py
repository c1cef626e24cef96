"""Training loop: loss values, teacher forcing, determinism, epoch selection."""

import math
import time

import numpy as np
import pytest

from reference import graph_sequence_loss
from seq2label import corpus, synthetic, trainer
from seq2label.corpus import LabelVocabulary, Vocabulary
from seq2label.errors import ConfigError, NumericError
from seq2label.model import ModelConfig, Seq2LabelModel
from seq2label.numerics import RngStream, Tensor, clip_gradients, params, pool
from seq2label.trainer import TrainConfig, decoder_losses, fit, sequence_loss, train_epoch


def zeroed_model(num_labels=3, vocab_size=6, **cfg):
    m = Seq2LabelModel(
        ModelConfig(embed_size=3, encoder_hidden=2, decoder_hidden=3, **cfg),
        vocab_size,
        num_labels,
        RngStream(0),
    )
    for name in m.params:
        m.params[name].data[:] = 0.0
    return m


def toy_data(n_labels=3):
    labels = [chr(ord("A") + i) for i in range(n_labels)]
    lv = LabelVocabulary(labels, list(range(n_labels, 0, -1)))
    return lv


class TestSequenceLoss:
    def test_zero_weights_give_uniform_chain(self):
        # three steps over 4, then 3, then 2 permitted classes
        m = zeroed_model(num_labels=3)
        lv = toy_data(3)
        framed = [lv.bos_id, 0, 1, lv.eos_id]
        loss = sequence_loss(m, np.array([2, 3]), framed)
        expect = math.log(4) + math.log(3) + math.log(2)
        assert math.isclose(loss.item(), expect, rel_tol=1e-12)

    def test_mask_follows_ground_truth_targets(self):
        m = zeroed_model(num_labels=3)
        lv = toy_data(3)
        # repeating a target is impossible once the first copy struck the mask
        with pytest.raises(NumericError, match="masked"):
            sequence_loss(m, np.array([2]), [lv.bos_id, 1, 1, lv.eos_id])

    def test_requires_at_least_one_target(self):
        m = zeroed_model()
        with pytest.raises(ConfigError):
            sequence_loss(m, np.array([2]), [4])

    def test_no_mask_chain_is_flat(self):
        m = zeroed_model(num_labels=3, use_mask=False)
        lv = toy_data(3)
        loss = sequence_loss(m, np.array([2, 3]), [lv.bos_id, 0, 1, lv.eos_id])
        assert math.isclose(loss.item(), 3 * math.log(4), rel_tol=1e-12)


    def test_trains_through_a_target_whose_probability_underflows(self, monkeypatch):
        # the target's logit sits ~1300 below the others: its probability is
        # exactly 0.0, but its loss, logsumexp minus its logit, is finite
        m = zeroed_model(num_labels=3)
        m.params["dec.l0.b"].data[6:9] = 3.0          # cell block: a nonzero decoder state
        m.params["out.w_state"].data[:] = np.eye(3)
        m.params["out.w_logits"].data[0] = -2000.0
        lv = toy_data(3)
        framed = [lv.bos_id, 0, lv.eos_id]
        batch = corpus.make_batches([(np.array([2, 3]), framed)], batch_size=1)[0]
        _, y, _ = m.decoder_step(m.init_state(), m.encode(np.array([2, 3])))
        assert y.data[0] == 0.0
        grads = {}
        monkeypatch.setattr(
            trainer, "adam_step", lambda store, *a: grads.update({n: t.grad.copy() for n, t in store.items()})
        )
        loss = train_epoch(m, [batch], TrainConfig(), RngStream(0))
        assert 1000.0 < loss < math.inf
        assert grads and all(np.all(np.isfinite(g)) for g in grads.values())
        # a target the mask has struck is still refused
        repeat = corpus.make_batches([(np.array([2, 3]), [lv.bos_id, 1, 1, lv.eos_id])], batch_size=1)
        with pytest.raises(NumericError, match="masked"):
            train_epoch(m, repeat, TrainConfig(), RngStream(0))


def build_corpus(records):
    vocab, lv = corpus.build_vocab(records, 100)
    return corpus.encode_examples(records, vocab, lv), vocab, lv


def test_full_model_gradients_on_small_toy():
    # every coordinate of every parameter, against central differences; the
    # step size keeps probe roundoff under the error metric's 1e-8 floor
    from seq2label.numerics import finite_difference_check

    m = Seq2LabelModel(
        ModelConfig(embed_size=4, encoder_hidden=3, decoder_hidden=3, ge_mode="gate"),
        vocab_size=6, num_labels=3, rng=RngStream(0),
    )
    tokens = np.array([1, 4])
    framed = [m.bos_class, 0, 2, m.eos_class]
    worst = finite_difference_check(
        lambda: sequence_loss(m, tokens, framed),
        m.params, eps=2e-3, samples_per_param=10**9,
    )
    assert worst < 1e-4


class TestTrainEpoch:
    def test_returns_mean_per_example_loss(self):
        records = synthetic.memorization_corpus(0)[:4]
        examples, vocab, lv = build_corpus(records)
        m = zeroed_model(num_labels=len(lv), vocab_size=len(vocab))
        framed = [
            (ex.token_ids, corpus.frame_labels(corpus.sort_labels(ex.label_ids, lv), lv))
            for ex in examples
        ]
        batches = corpus.make_batches(framed, batch_size=4)
        expected = np.mean(
            [sequence_loss(m, tok, fr).item() for tok, fr in framed]
        )
        got = train_epoch(m, batches, TrainConfig(epochs=1, learning_rate=1e-9), RngStream(0))
        assert math.isclose(got, expected, rel_tol=1e-9)

    def test_loss_decreases_with_training(self):
        records = synthetic.memorization_corpus(0)[:8]
        examples, vocab, lv = build_corpus(records)
        m = Seq2LabelModel(
            ModelConfig(embed_size=8, encoder_hidden=8, decoder_hidden=8),
            len(vocab), len(lv), RngStream(0),
        )
        tc = TrainConfig(epochs=15, batch_size=4, learning_rate=0.05, seed=0)
        report = fit(m, examples, None, tc, lv)
        assert report.train_loss[-1] < report.train_loss[0] * 0.5

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_loss_names_batch(self):
        records = synthetic.memorization_corpus(0)[:2]
        examples, vocab, lv = build_corpus(records)
        m = zeroed_model(num_labels=len(lv), vocab_size=len(vocab))
        m.params["attn.v"].data[:] = np.inf
        framed = [
            (ex.token_ids, corpus.frame_labels(corpus.sort_labels(ex.label_ids, lv), lv))
            for ex in examples
        ]
        batches = corpus.make_batches(framed, batch_size=2)
        with pytest.raises(NumericError, match="batch 0"):
            train_epoch(m, batches, TrainConfig(), RngStream(0))


    def test_overflow_in_a_pool_thread_names_the_batch(self, monkeypatch, sweeps_on_pool_threads):
        # a gradient of 10 on the token table's gathered rows in place of
        # clipping: at lr 1e308 its update overflows on the pool threads,
        # under the batch's errstate, and must raise there, not warn
        records = synthetic.memorization_corpus(0)[:2]
        examples, vocab, lv = build_corpus(records)
        m = Seq2LabelModel(ModelConfig(embed_size=64, encoder_hidden=4, decoder_hidden=4),
                           4 * 1024, len(lv), RngStream(0))

        def plant(store, max_norm):
            store["embed.tokens"].grad[batches[0].token_ids] = 10.0
            return 1.0

        monkeypatch.setattr(trainer, "clip_gradients", plant)
        framed = [
            (ex.token_ids, corpus.frame_labels(corpus.sort_labels(ex.label_ids, lv), lv))
            for ex in examples
        ]
        batches = corpus.make_batches(framed, batch_size=2)
        with pytest.raises(NumericError, match="overflow .* in batch 0"):
            train_epoch(m, batches, TrainConfig(learning_rate=1e308), RngStream(0))
        # the pool is free again: a fresh model's sweep runs
        monkeypatch.setattr(trainer, "clip_gradients", clip_gradients)
        m = Seq2LabelModel(m.config, m.vocab_size, m.num_labels, RngStream(0))
        assert math.isfinite(train_epoch(m, batches, TrainConfig(), RngStream(0)))


    @pytest.mark.parametrize("failure", ["loss", "backward", "adam"])
    def test_a_failing_batch_waits_for_its_early_update(self, monkeypatch, failure):
        # each early update sleeps first, so it is still running when the
        # batch fails; train_epoch must not raise before it has finished
        monkeypatch.setattr(pool, "workers", lambda: 2)
        early = []

        def slow_start(piece):
            early.append(pool.start(lambda: time.sleep(0.2) or piece()))
            return early[-1]

        monkeypatch.setattr(params, "start", slow_start)
        records = synthetic.memorization_corpus(0)[:2]
        examples, vocab, lv = build_corpus(records)
        m = Seq2LabelModel(ModelConfig(embed_size=64, encoder_hidden=4, decoder_hidden=4),
                           4 * 1024, len(lv), RngStream(0))
        framed = [
            (ex.token_ids, corpus.frame_labels(corpus.sort_labels(ex.label_ids, lv), lv))
            for ex in examples
        ]
        batches = corpus.make_batches(framed, batch_size=2)
        config = TrainConfig()
        if failure == "loss":
            m.params["attn.v"].data[:] = np.inf
        elif failure == "backward":
            monkeypatch.setattr(Tensor, "backward", lambda loss: np.float64(1e308) * 10.0)
        else:
            def plant(store, max_norm):
                store["embed.tokens"].grad[batches[0].token_ids] = 10.0
                return 1.0

            monkeypatch.setattr(trainer, "clip_gradients", plant)
            config = TrainConfig(learning_rate=1e308)
        with pytest.raises(NumericError, match="batch 0"):
            train_epoch(m, batches, config, RngStream(0))
        assert len(early) == 1 and early[0].done()


class TestPadding:
    def test_batched_rows_round_trip_exactly(self):
        records = synthetic.memorization_corpus(1)[:6]
        examples, vocab, lv = build_corpus(records)
        framed = [
            (ex.token_ids, corpus.frame_labels(corpus.sort_labels(ex.label_ids, lv), lv))
            for ex in examples
        ]
        batches = corpus.make_batches(framed, batch_size=4)
        recovered = [
            row
            for b in batches
            for row in zip(np.split(b.token_ids, np.cumsum(b.lengths)[:-1]), b.targets)
        ]
        assert len(recovered) == len(framed)
        for (tok_a, fr_a), (tok_b, fr_b) in zip(framed, recovered):
            assert np.array_equal(tok_a, tok_b)
            assert list(fr_a) == list(fr_b)


class Recorder:
    """An RngStream that keeps every uniform draw it hands out."""

    def __init__(self, seed):
        self.stream, self.draws = RngStream(seed), []

    def uniform(self, low, high, shape=()):
        out = self.stream.uniform(low, high, shape)
        self.draws.append(out)
        return out


class Replay:
    """Hands out given draws in order, checking each requested shape."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self, low, high, shape=()):
        out = self.draws.pop(0)
        assert out.shape == tuple(shape)
        return out


class TestBatchEncoding:
    """``train_epoch`` encodes a batch's documents together and decodes them
    together; its loss and gradients must equal those of one
    ``sequence_loss`` per row, and those of the per-step graph."""

    LENGTHS = [7, 1, 12, 3, 12, 5]

    @classmethod
    def batch(cls, m):
        rs = np.random.default_rng(4)
        framed = []
        for i, n in enumerate(cls.LENGTHS):
            labels = [int(v) for v in rs.permutation(m.num_labels)[: 1 + i % 3]]
            framed.append((rs.integers(2, m.vocab_size, size=n), [m.bos_class] + labels + [m.eos_class]))
        return framed, corpus.make_batches(framed, len(framed))[0]

    @staticmethod
    def model(layers, ge_mode, dropout):
        cfg = ModelConfig(
            embed_size=5, encoder_hidden=4, decoder_hidden=6, encoder_layers=layers,
            decoder_layers=layers, ge_mode=ge_mode, dropout=dropout,
        )
        return Seq2LabelModel(cfg, 40, 5, RngStream(2))

    @staticmethod
    def train_batch(m, batch, rng, monkeypatch):
        """(loss, gradients) of one train_epoch step, captured before Adam."""
        grads = {}
        monkeypatch.setattr(
            trainer, "adam_step", lambda store, *a: grads.update({n: t.grad.copy() for n, t in store.items()})
        )
        return train_epoch(m, [batch], TrainConfig(clip_norm=1e12), rng), grads

    @staticmethod
    def per_row(m, framed, rng, loss_of=None):
        """(mean loss, gradients) of one document at a time: ``sequence_loss``,
        or ``loss_of(tokens, framed, rng)``."""
        m.params.zero_grads()
        total = None
        for tokens, seq in framed:
            if loss_of is None:
                loss = sequence_loss(m, tokens, seq, train=True, rng=rng)
            else:
                loss = loss_of(tokens, seq, rng)
            total = loss if total is None else total + loss
        (total * (1.0 / len(framed))).backward()
        return total.item() / len(framed), {n: t.grad.copy() for n, t in m.params.items()}

    @staticmethod
    def per_step_graph(m):
        """The per-step graph reference of one document's loss."""
        return lambda tokens, seq, rng: graph_sequence_loss(m, m.encode(tokens, True, rng).states, seq, True, rng)

    @staticmethod
    def assert_close(got, want):
        (loss, grads), (ref_loss, ref_grads) = got, want
        assert abs(loss - ref_loss) <= 1e-12
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.max(np.abs(grads[name] - ref_grads[name])) <= 1e-12, name

    def test_loss_unaffected_by_batch_companions(self):
        # the same example scores identically whether read back from a batch
        # with a longer neighbor or alone
        records = [
            {"text": "a b", "labels": ["X"]},
            {"text": "c d e f g h", "labels": ["X", "Y"]},
        ]
        examples, vocab, lv = build_corpus(records)
        m = Seq2LabelModel(ModelConfig(embed_size=4, encoder_hidden=3, decoder_hidden=4),
                           len(vocab), len(lv), RngStream(3))
        framed = [
            (ex.token_ids, corpus.frame_labels(corpus.sort_labels(ex.label_ids, lv), lv))
            for ex in examples
        ]
        batch = corpus.make_batches(framed, batch_size=2)[0]
        solo = sequence_loss(m, framed[0][0], framed[0][1]).item()
        from_batch = sequence_loss(m, batch.token_ids[: batch.lengths[0]], batch.targets[0]).item()
        assert solo == from_batch

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("ge_mode", ["off", "gate", "lambda"])
    def test_matches_one_sequence_loss_per_row(self, layers, ge_mode, monkeypatch):
        m = self.model(layers, ge_mode, 0.0)
        framed, batch = self.batch(m)
        got = self.train_batch(m, batch, RngStream(0), monkeypatch)
        self.assert_close(got, self.per_row(m, framed, RngStream(0)))

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("ge_mode", ["off", "gate", "lambda"])
    def test_matches_the_per_step_graph(self, layers, ge_mode):
        # each document's loss, and the gradients of their mean, against one
        # graph of generic ops per document and step
        m = self.model(layers, ge_mode, 0.0)
        framed, batch = self.batch(m)
        enc = m.encode_batch(batch.token_ids, batch.lengths)
        losses = decoder_losses(m, enc, batch.targets)
        m.params.zero_grads()
        (losses.sum() * (1.0 / len(batch))).backward()
        grads = {n: t.grad.copy() for n, t in m.params.items()}
        graph = self.per_step_graph(m)
        ref = [graph(tokens, seq, None).item() for tokens, seq in framed]
        assert losses.data.shape == (len(framed),)
        assert np.max(np.abs(losses.data - ref)) <= 1e-12
        self.assert_close((losses.data.mean(), grads), self.per_row(m, framed, None, graph))

    @pytest.mark.parametrize("ge_mode", ["off", "gate"])
    def test_one_layer_dropout_draws_are_unchanged(self, ge_mode, monkeypatch):
        # one (N, k) draw hands out the same numbers as one draw per document
        m = self.model(1, ge_mode, 0.3)
        framed, batch = self.batch(m)
        batch_rng, row_rng = RngStream(6), RngStream(6)
        got = self.train_batch(m, batch, batch_rng, monkeypatch)
        self.assert_close(got, self.per_row(m, framed, row_rng))
        assert batch_rng.position == row_rng.position == sum(self.LENGTHS) * 5

    def test_two_layer_dropout_draw_order(self, monkeypatch):
        # the batch draws the embedding mask for all N rows, then the mask
        # between encoder layers for all N rows, then at each decoder step
        # one mask for the documents still running, longest label sequence
        # first (ties in batch order); replaying those draws one document at
        # a time through the per-step graph gives the same loss and gradients
        m = self.model(2, "gate", 0.3)
        framed, batch = self.batch(m)
        rec = Recorder(6)
        got = self.train_batch(m, batch, rec, monkeypatch)
        n = sum(self.LENGTHS)
        steps = [len(seq) - 1 for _, seq in framed]
        order = sorted(range(len(framed)), key=lambda d: -steps[d])
        running = [sum(k > t for k in steps) for t in range(max(steps))]
        assert [d.shape for d in rec.draws] == [(n, 5), (n, 8)] + [(b, 6) for b in running]
        embed, between, decoder = rec.draws[0], rec.draws[1], rec.draws[2:]
        per_doc, end = [], 0
        for d, length in enumerate(self.LENGTHS):
            rank = order.index(d)
            per_doc += [embed[end:end + length], between[end:end + length]]
            per_doc += [decoder[t][rank] for t in range(steps[d])]
            end += length
        self.assert_close(got, self.per_row(m, framed, Replay(per_doc), self.per_step_graph(m)))


class TestFit:
    def test_bit_reproducible_across_runs(self):
        records = synthetic.memorization_corpus(0)[:6]
        examples, vocab, lv = build_corpus(records)

        def run():
            m = Seq2LabelModel(
                ModelConfig(embed_size=6, encoder_hidden=4, decoder_hidden=6, dropout=0.2),
                len(vocab), len(lv), RngStream(5),
            )
            fit(m, examples, examples, TrainConfig(epochs=3, batch_size=4, seed=5), lv)
            return m.params.copy_values()

        a, b = run(), run()
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_seed_changes_trajectory(self):
        records = synthetic.memorization_corpus(0)[:6]
        examples, vocab, lv = build_corpus(records)

        def run(seed):
            m = Seq2LabelModel(
                ModelConfig(embed_size=6, encoder_hidden=4, decoder_hidden=6),
                len(vocab), len(lv), RngStream(seed),
            )
            fit(m, examples, None, TrainConfig(epochs=2, batch_size=4, seed=seed), lv)
            return m.params.copy_values()

        a, b = run(0), run(1)
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_restores_earliest_best_epoch(self):
        records = synthetic.memorization_corpus(2)[:5]
        examples, vocab, lv = build_corpus(records)

        def make_model():
            return Seq2LabelModel(
                ModelConfig(embed_size=8, encoder_hidden=6, decoder_hidden=8),
                len(vocab), len(lv), RngStream(1),
            )

        m = make_model()
        tc = TrainConfig(epochs=10, batch_size=4, learning_rate=0.05, seed=1)
        report = fit(m, examples, examples, tc, lv)
        k = report.selected_epoch
        assert report.best_valid_f1 == max(report.valid_f1)
        assert report.valid_f1[k - 1] == report.best_valid_f1
        assert all(v < report.best_valid_f1 for v in report.valid_f1[: k - 1])

        # rerunning for exactly k epochs must land on the same weights
        m2 = make_model()
        fit(m2, examples, examples, TrainConfig(epochs=k, batch_size=4, learning_rate=0.05, seed=1), lv)
        for name, arr in m.params.items():
            assert np.array_equal(arr.data, m2.params[name].data), name

    def test_shuffled_labels_deterministic_per_seed(self):
        records = synthetic.memorization_corpus(0)[:6]
        examples, vocab, lv = build_corpus(records)

        def run():
            m = Seq2LabelModel(
                ModelConfig(embed_size=6, encoder_hidden=4, decoder_hidden=6),
                len(vocab), len(lv), RngStream(2),
            )
            fit(m, examples, None, TrainConfig(epochs=2, batch_size=4, seed=2, shuffle_labels=True), lv)
            return m.params.copy_values()

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_empty_training_set_rejected(self):
        lv = toy_data()
        m = zeroed_model()
        with pytest.raises(ConfigError, match="no training"):
            fit(m, [], None, TrainConfig(), lv)
