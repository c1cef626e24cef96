"""Decoding: the search against reference loops, greedy/beam agreement,
masking during search, attention export."""

import math

import numpy as np
import pytest

from oracles import beam_oracle, exhaustive_decode, greedy_oracle
from seq2label.errors import ConfigError, NumericError
from seq2label.inference import (
    beam_search,
    decode,
    decode_with_trace,
    export_attention,
    extract_label_set,
    greedy_decode,
    predict_set,
)
from seq2label.model import ModelConfig, Seq2LabelModel
from seq2label.numerics import RngStream, Tensor


def random_model(seed, num_labels=None, use_mask=True):
    # small random models; vary shape and previous-label mode with the seed
    rng = np.random.default_rng(seed)
    num_labels = num_labels or int(rng.integers(2, 5))
    cfg = ModelConfig(
        embed_size=int(rng.integers(3, 6)),
        encoder_hidden=int(rng.integers(2, 5)),
        decoder_hidden=int(rng.integers(2, 5)),
        ge_mode=("off", "gate", "lambda")[seed % 3],
        use_mask=use_mask,
    )
    vocab_size = int(rng.integers(5, 12))
    model = Seq2LabelModel(cfg, vocab_size, num_labels, RngStream(seed))
    tokens = rng.integers(0, vocab_size, size=int(rng.integers(2, 7)))
    return model, tokens


class Prefixes(tuple):
    """Stacked state of ``ScriptedDecoder``: one emitted prefix per row."""

    def take(self, rows):
        return Prefixes(self[r] for r in rows)


class ScriptedDecoder:
    """Stands in for a model: the output distribution is looked up by the
    classes emitted so far (``default``, else the terminal class alone, for
    unlisted prefixes). Like the model, it steps one hypothesis (a bare
    prefix, as the oracles do) or a stack of them (``Prefixes``, one per
    row, as ``decode`` does), and counts its steps."""

    num_labels = 4
    eos_class = 4

    def __init__(self, table, default=None):
        self.table = {k: np.array(v) / sum(v) for k, v in table.items()}
        terminal = np.eye(self.num_labels + 1)[self.eos_class]
        self.default = terminal if default is None else np.array(default) / sum(default)
        self.steps = 0

    def encode(self, token_ids):
        return None

    def init_state(self, batch=None):
        return () if batch is None else Prefixes([()] * batch)

    def decoder_step(self, state, enc):
        self.steps += 1
        if isinstance(state, Prefixes):
            y = np.stack([self.table.get(prefix, self.default) for prefix in state])
            return state, Tensor(y), Tensor(np.ones((len(state), 1)))
        return state, Tensor(self.table.get(state, self.default)), Tensor(np.ones(1))

    def advance(self, state, cls):
        if isinstance(state, Prefixes):
            return Prefixes(prefix + (int(c),) for prefix, c in zip(state, cls))
        return state + (cls,)


class TestAgainstOracles:
    """Every decode path equals a plain loop that scores all classes, bit for bit."""

    BEAMS = (1, 2, 3, 5, 128)

    @staticmethod
    def models():
        # seed % 3 picks the previous-label mode, (seed // 3) % 2 the mask
        for seed in range(102):
            yield random_model(seed, use_mask=(seed // 3) % 2 == 0)

    def test_wrappers_and_search_equal_oracles(self):
        for model, tokens in self.models():
            eos = model.eos_class
            for max_steps in (1, 2, model.num_labels + 1, model.num_labels + 3):
                g_seq, g_lp, g_dists, g_attns = greedy_oracle(model, tokens, max_steps)
                assert greedy_decode(model, tokens, max_steps) == (g_seq, g_lp)
                seq, dists, attns = decode_with_trace(model, tokens, max_steps)
                assert seq == g_seq
                assert len(dists) == len(attns) == len(g_seq)
                assert all(np.array_equal(a, b) for a, b in zip(dists, g_dists))
                assert all(np.array_equal(a, b) for a, b in zip(attns, g_attns))
                for beam in self.BEAMS:
                    want = beam_oracle(model, tokens, beam, max_steps)
                    assert beam_search(model, tokens, beam, max_steps) == want
                    best = decode(model, tokens, beam, max_steps, close_out=True)
                    assert (list(best.sequence), best.log_prob) == want
                    set_seq, set_lp = (g_seq, g_lp) if beam == 1 else want
                    assert predict_set(model, tokens, beam, max_steps) == (
                        extract_label_set(set_seq, eos), set_lp
                    )

    def test_search_attention_equals_replay(self):
        for model, tokens in self.models():
            best = decode(model, tokens, 3, model.num_labels + 1, close_out=True)
            replay = export_attention(model, tokens, list(best.sequence))
            rows = best.attns[: len(replay.label_ids)]
            live = np.stack(rows) if rows else np.zeros((0, len(tokens)))
            assert np.array_equal(live, replay.weights)
            assert list(best.sequence[: len(rows)]) == replay.label_ids

    def test_full_pool_stops_the_search(self):
        # At beam 2 the pool fills with (T) and (0, T) after two steps while
        # (0, 1) is still live and better; the search stops there and closes
        # (0, 1) with the terminal class, although (0, 1, 2, T) would score
        # higher. Random models almost never reach this case.
        model = ScriptedDecoder({
            (): [0.99, 0.001, 0.001, 0.001, 0.007],
            (0,): [0.0, 0.98, 0.001, 0.001, 0.018],
            (0, 1): [0.0, 0.0, 0.998, 0.001, 0.001],
            (0, 1, 2): [0.0, 0.0, 0.0, 0.001, 0.999],
        })
        want = beam_oracle(model, None, 2, 5)
        assert want[0] == [0, 4]
        assert beam_search(model, None, 2, 5) == want
        assert predict_set(model, None, 2, 5) == ([0], want[1])

    def test_one_decoder_step_per_search_step(self):
        # past the first step the terminal class never ranks among the best
        # five children, so the pool never fills and the search runs all 8
        # steps and closes out: 9 steps, however many hypotheses each one
        # carries (a call per hypothesis would make 1 + 7 * 5 + 5 = 41)
        model = ScriptedDecoder({}, default=[1.0, 0.9, 0.8, 0.7, 1e-9])
        beam_search(model, None, 5, 8)
        assert model.steps == 9

    def test_step_record_covers_close_out(self):
        closed = 0
        for seed in range(10):
            model, tokens = random_model(seed)
            best = decode(model, tokens, 3, 1, close_out=True)
            # a real label at step 1 is closed by a recorded terminal step
            assert len(best.sequence) == len(best.dists) == len(best.attns)
            assert best.sequence[-1] == model.eos_class
            closed += len(best.sequence) == 2
            total = 0.0
            for dist, cls in zip(best.dists, best.sequence):
                total += math.log(dist[cls])
            assert best.log_prob == total
        assert closed


class TestGreedy:
    def test_sequence_ends_with_terminal_class(self):
        for seed in range(10):
            model, tokens = random_model(seed)
            seq, _ = greedy_decode(model, tokens, model.num_labels + 1)
            assert seq[-1] == model.eos_class
            assert len(seq) <= model.num_labels + 1

    def test_log_prob_matches_step_distributions(self):
        model, tokens = random_model(3)
        seq, logp = greedy_decode(model, tokens, model.num_labels + 1)
        _, dists, _ = decode_with_trace(model, tokens, model.num_labels + 1)
        recomputed = sum(math.log(d[c]) for d, c in zip(dists, seq))
        assert math.isclose(logp, recomputed, rel_tol=1e-12)

    def test_rejects_nonpositive_max_steps(self):
        model, tokens = random_model(0)
        with pytest.raises(ConfigError):
            greedy_decode(model, tokens, 0)


class TestMaskDuringSearch:
    def test_emitted_classes_drop_to_exact_zero(self):
        for seed in range(50):
            model, tokens = random_model(seed)
            seq, dists, _ = decode_with_trace(model, tokens, model.num_labels + 1)
            emitted = set()
            for dist, cls in zip(dists, seq):
                assert math.isclose(float(np.sum(dist)), 1.0, rel_tol=1e-9)
                for prev in emitted:
                    assert dist[prev] == 0.0
                assert dist[model.eos_class] > 0.0
                if cls != model.eos_class:
                    emitted.add(cls)
            real = [c for c in seq if c != model.eos_class]
            assert len(real) == len(set(real))

    def test_unmasked_model_keeps_all_classes_live(self):
        model, tokens = random_model(7, use_mask=False)
        _, dists, _ = decode_with_trace(model, tokens, model.num_labels + 1)
        for dist in dists:
            assert np.all(dist > 0.0)


class TestBeamSearch:
    def test_saturating_beam_equals_exhaustive(self):
        # a beam wide enough to hold every hypothesis must return the global best
        for seed in range(30):
            model, tokens = random_model(seed, num_labels=2 + seed % 3)
            for max_steps in (1, 2, model.num_labels + 1):
                want_seq, want_lp = exhaustive_decode(model, tokens, max_steps)
                got_seq, got_lp = beam_search(model, tokens, beam_size=128, max_steps=max_steps)
                assert got_seq == want_seq, (seed, max_steps)
                assert math.isclose(got_lp, want_lp, rel_tol=0, abs_tol=1e-9)

    def test_beam_one_equals_greedy(self):
        for seed in range(30):
            model, tokens = random_model(seed)
            g_seq, g_lp = greedy_decode(model, tokens, model.num_labels + 1)
            b_seq, b_lp = beam_search(model, tokens, beam_size=1)
            assert b_seq == g_seq
            assert math.isclose(b_lp, g_lp, rel_tol=0, abs_tol=1e-12)

    def test_truncated_beam_force_finishes_with_terminal(self):
        model, tokens = random_model(11)
        seq, logp = beam_search(model, tokens, beam_size=3, max_steps=1)
        assert seq[-1] == model.eos_class
        assert len(seq) <= 2
        assert math.isfinite(logp)

    def test_wider_beam_never_scores_worse(self):
        for seed in range(10):
            model, tokens = random_model(seed)
            _, lp1 = beam_search(model, tokens, beam_size=1)
            _, lp8 = beam_search(model, tokens, beam_size=8)
            assert lp8 >= lp1 - 1e-12

    def test_rejects_bad_sizes(self):
        model, tokens = random_model(0)
        with pytest.raises(ConfigError):
            beam_search(model, tokens, beam_size=0)
        with pytest.raises(ConfigError):
            beam_search(model, tokens, beam_size=2, max_steps=0)


class TestCloseOutWithoutTerminalProbability:
    """A hypothesis still live at the step limit whose terminal probability
    is 0.0 cannot be finished: it has no log-probability."""

    @staticmethod
    def model(starve):
        cfg = ModelConfig(embed_size=4, encoder_hidden=3, decoder_hidden=4)
        return starve(Seq2LabelModel(cfg, 8, 3, RngStream(0))), np.array([2, 5, 3])

    def test_the_terminal_probability_is_zero(self, starve_terminal):
        model, tokens = self.model(starve_terminal)
        _, y, _ = model.decoder_step(model.init_state(), model.encode(tokens))
        assert y.data[model.eos_class] == 0.0 and y.data[0] > 0.0

    def test_beam_search_raises_numeric_error(self, starve_terminal):
        model, tokens = self.model(starve_terminal)
        for search in (lambda: beam_search(model, tokens, beam_size=2, max_steps=1),
                       lambda: predict_set(model, tokens, 2, 1)):
            with pytest.raises(NumericError, match="terminal class's probability is 0.0"):
                search()

    def test_a_search_that_stops_without_close_out_is_unaffected(self, starve_terminal):
        model, tokens = self.model(starve_terminal)
        seq, logp = greedy_decode(model, tokens, max_steps=2)
        assert len(seq) == 2 and model.eos_class not in seq and math.isfinite(logp)


class TestLabelSets:
    def test_strips_terminal_and_preserves_order(self):
        assert extract_label_set([2, 0, 5], eos_class=5) == [2, 0]

    def test_duplicates_collapse_to_first_emission(self):
        assert extract_label_set([1, 1, 2, 1, 5], eos_class=5) == [1, 2]

    def test_terminal_only_is_empty(self):
        assert extract_label_set([5], eos_class=5) == []

    def test_predict_set_routes_beam_one_through_greedy(self):
        for seed in range(8):
            model, tokens = random_model(seed)
            labels, lp = predict_set(model, tokens, 1, model.num_labels + 1)
            g_seq, g_lp = greedy_decode(model, tokens, model.num_labels + 1)
            assert labels == extract_label_set(g_seq, model.eos_class)
            assert lp == g_lp


class TestAttentionExport:
    def test_rows_are_distributions_over_source(self):
        for seed in range(10):
            model, tokens = random_model(seed)
            seq, _ = greedy_decode(model, tokens, model.num_labels + 1)
            trace = export_attention(model, tokens, seq)
            n_real = len([c for c in seq if c != model.eos_class])
            assert trace.weights.shape == (n_real, len(tokens))
            assert trace.label_ids == [c for c in seq if c != model.eos_class]
            for row in trace.weights:
                assert math.isclose(float(np.sum(row)), 1.0, rel_tol=0, abs_tol=1e-9)
                assert np.all(row >= 0.0)

    def test_replay_matches_live_trace_for_greedy_sequence(self):
        model, tokens = random_model(4)
        seq, _, attns = decode_with_trace(model, tokens, model.num_labels + 1)
        trace = export_attention(model, tokens, seq)
        live = np.stack([a for a, c in zip(attns, seq) if c != model.eos_class]) \
            if len(seq) > 1 else np.zeros((0, len(tokens)))
        assert np.array_equal(trace.weights, live)

    def test_forced_sequence_need_not_be_greedy(self):
        model, tokens = random_model(9, num_labels=3)
        forced = [2, 0, model.eos_class]
        trace = export_attention(model, tokens, forced)
        assert trace.label_ids == [2, 0]
        assert trace.weights.shape == (2, len(tokens))

    def test_empty_sequence_gives_empty_trace(self):
        model, tokens = random_model(2)
        trace = export_attention(model, tokens, [model.eos_class])
        assert trace.weights.shape == (0, len(tokens))
        assert trace.label_ids == []
