"""Model forward passes against composed scalar oracles, mask semantics, and
the equivalences between the previous-label embedding modes."""

import numpy as np
import pytest

import oracles
import seq2label.model as model_mod
import seq2label.numerics.head as head_mod
from seq2label.errors import ConfigError, NumericError, ShapeError
from seq2label.model import DecoderState, ModelConfig, Seq2LabelModel, update_mask
from seq2label.numerics import RngStream, Tensor


def tiny_model(**overrides) -> Seq2LabelModel:
    cfg = dict(embed_size=3, encoder_hidden=2, decoder_hidden=3)
    cfg.update(overrides)
    seed = cfg.pop("seed", 0)
    num_labels = cfg.pop("num_labels", 3)
    vocab_size = cfg.pop("vocab_size", 7)
    return Seq2LabelModel(ModelConfig(**cfg), vocab_size, num_labels, RngStream(seed))


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ModelConfig(embed_size=0)
        with pytest.raises(ConfigError):
            ModelConfig(dropout=1.0)
        with pytest.raises(ConfigError):
            ModelConfig(ge_mode="sometimes")
        with pytest.raises(ConfigError):
            ModelConfig(ge_lambda=1.5)

    def test_gate_params_only_in_gate_mode(self):
        assert "ge.w_choice" not in tiny_model().params
        assert "ge.w_choice" in tiny_model(ge_mode="gate").params


class TestMask:
    def test_strike_is_a_copy(self):
        mask = np.zeros(4)
        out = update_mask(mask, 1, eos_class=3)
        assert np.isneginf(out[1]) and mask[1] == 0.0

    def test_eos_leaves_mask_unchanged(self):
        mask = np.array([0.0, -np.inf, 0.0, 0.0])
        out = update_mask(mask, 3, eos_class=3)
        assert np.array_equal(out, mask)

    def test_double_strike_raises(self):
        mask = update_mask(np.zeros(4), 1, eos_class=3)
        with pytest.raises(NumericError, match="already"):
            update_mask(mask, 1, eos_class=3)

    def test_out_of_range_raises(self):
        with pytest.raises(NumericError):
            update_mask(np.zeros(4), 9, eos_class=3)

    def test_matrix_strikes_one_class_per_row(self):
        mask = np.zeros((3, 4))
        out = update_mask(mask, np.array([1, 3, 0]), eos_class=3)
        assert np.array_equal(np.isneginf(out), [[0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
        assert not mask.any()
        with pytest.raises(NumericError, match="already"):
            update_mask(out, np.array([2, 2, 0]), eos_class=3)
        for bad in (np.array([1, 9, 0]), np.array([1, 2]), np.array([[1], [2], [0]])):
            with pytest.raises(NumericError):
                update_mask(out, bad, eos_class=3)

    def test_one_row_stack_strikes_like_the_vector(self):
        vector = np.array([0.0, -np.inf, 0.0, 0.0])
        for cls in (0, 2, 3):
            stack = update_mask(vector[None], np.array([cls]), eos_class=3)
            assert np.array_equal(stack, update_mask(vector, cls, eos_class=3)[None])


class TestEncoder:
    def test_shapes_and_length(self):
        m = tiny_model()
        enc = m.encode(np.array([2, 3, 4, 5, 6]))
        assert enc.states.data.shape == (5, 4)
        assert enc.proj.data.shape == (5, 3)
        assert enc.states.shape[0] == 5

    def test_palindrome_with_tied_directions(self):
        m = tiny_model()
        for name in ("wx", "wh", "b"):
            m.params[f"enc.l0.bwd.{name}"].data = m.params[f"enc.l0.fwd.{name}"].data.copy()
        tokens = np.array([2, 5, 3, 3, 5, 2])
        h = m.config.encoder_hidden
        states = m.encode(tokens).states.data
        for i in range(len(tokens)):
            j = len(tokens) - 1 - i
            assert np.allclose(states[i, :h], states[j, h:], atol=1e-12)

    def test_stacked_layers_change_width_correctly(self):
        m = tiny_model(encoder_layers=2)
        assert m.encode(np.array([2, 3])).states.data.shape == (2, 4)

    def test_dropout_only_in_train_mode(self):
        m = tiny_model(dropout=0.5)
        tokens = np.array([2, 3, 4])
        a = m.encode(tokens, train=True, rng=RngStream(1)).states.data
        b = m.encode(tokens, train=True, rng=RngStream(2)).states.data
        c = m.encode(tokens).states.data
        d = m.encode(tokens).states.data
        assert not np.array_equal(a, b)
        assert np.array_equal(c, d)


class TestEncodeBatch:
    def test_equals_one_encode_per_document(self):
        m = tiny_model(encoder_layers=2)
        docs = [np.array([2, 3, 4]), np.array([5]), np.array([6, 2, 2, 3, 4, 5, 6]), np.array([4, 4])]
        packed = m.encode_batch(np.concatenate(docs), [len(d) for d in docs])
        assert packed.lengths == [len(d) for d in docs]
        end = 0
        for doc in docs:
            alone = m.encode(doc)
            start, end = end, end + len(doc)
            assert alone.states.shape[0] == len(doc) and alone.lengths == [len(doc)]
            assert np.max(np.abs(packed.states.data[start:end] - alone.states.data)) <= 1e-12
            assert np.max(np.abs(packed.proj.data[start:end] - alone.proj.data)) <= 1e-12
        assert end == packed.states.shape[0]

    def test_rejects_no_document_and_an_empty_one(self):
        m = tiny_model()
        with pytest.raises(ConfigError, match="at least one document"):
            m.encode_batch(np.array([], dtype=np.int64), [])
        with pytest.raises(ConfigError, match="non-empty"):
            m.encode_batch(np.array([2, 3]), [2, 0])
        with pytest.raises(ConfigError, match="non-empty"):
            m.encode(np.array([[2, 3]]))


def params_as_lists(m: Seq2LabelModel, name: str):
    return m.params[name].data.tolist()


def oracle_encoder_states(m: Seq2LabelModel, tokens):
    embeds = [params_as_lists(m, "embed.tokens")[t] for t in tokens]
    hidden = m.config.encoder_hidden
    wx_f = params_as_lists(m, "enc.l0.fwd.wx")
    wh_f = params_as_lists(m, "enc.l0.fwd.wh")
    b_f = params_as_lists(m, "enc.l0.fwd.b")
    wx_b = params_as_lists(m, "enc.l0.bwd.wx")
    wh_b = params_as_lists(m, "enc.l0.bwd.wh")
    b_b = params_as_lists(m, "enc.l0.bwd.b")
    h, c = [0.0] * hidden, [0.0] * hidden
    fwd = []
    for x in embeds:
        h, c = oracles.lstm_step_oracle(x, h, c, wx_f, wh_f, b_f)
        fwd.append(h)
    h, c = [0.0] * hidden, [0.0] * hidden
    bwd = []
    for x in reversed(embeds):
        h, c = oracles.lstm_step_oracle(x, h, c, wx_b, wh_b, b_b)
        bwd.append(h)
    bwd.reverse()
    return [f + b for f, b in zip(fwd, bwd)]


class TestDecoderOracle:
    def test_two_steps_match_composed_oracle(self):
        m = tiny_model()
        tokens = np.array([2, 4, 6, 3])
        enc = m.encode(tokens)
        enc_ref = oracle_encoder_states(m, tokens)
        assert np.allclose(enc.states.data, enc_ref, atol=1e-12)

        w_enc = params_as_lists(m, "attn.w_enc")
        w_state = params_as_lists(m, "attn.w_state")
        v = params_as_lists(m, "attn.v")
        out_ws = params_as_lists(m, "out.w_state")
        out_wc = params_as_lists(m, "out.w_context")
        out_wl = params_as_lists(m, "out.w_logits")
        wx = params_as_lists(m, "dec.l0.wx")
        wh = params_as_lists(m, "dec.l0.wh")
        b = params_as_lists(m, "dec.l0.b")
        labels_table = params_as_lists(m, "embed.labels")

        # step 1: start-marker embedding, zero state and context
        state = m.init_state()
        state1, y1, alpha1 = m.decoder_step(state, enc)
        x = labels_table[m.bos_class] + [0.0] * 4
        h_ref, c_ref = oracles.lstm_step_oracle(x, [0.0] * 3, [0.0] * 3, wx, wh, b)
        alpha_ref, ctx_ref = oracles.attention_oracle(enc_ref, h_ref, w_enc, w_state, v)
        logits_ref = oracles.output_head_oracle(h_ref, ctx_ref, out_ws, out_wc, out_wl)
        y_ref = oracles.softmax_masked_oracle(logits_ref, [0.0] * 4)
        assert np.allclose(alpha1.data, alpha_ref, atol=1e-12)
        assert np.allclose(y1.data, y_ref, atol=1e-12)

        # step 2: committed class 1, which is now masked out
        state1 = m.advance(state1, 1)
        state2, y2, alpha2 = m.decoder_step(state1, enc)
        x2 = labels_table[1] + ctx_ref
        h2_ref, c2_ref = oracles.lstm_step_oracle(x2, h_ref, c_ref, wx, wh, b)
        alpha2_ref, ctx2_ref = oracles.attention_oracle(enc_ref, h2_ref, w_enc, w_state, v)
        logits2_ref = oracles.output_head_oracle(h2_ref, ctx2_ref, out_ws, out_wc, out_wl)
        y2_ref = oracles.softmax_masked_oracle(logits2_ref, [0.0, -np.inf, 0.0, 0.0])
        assert np.allclose(y2.data, y2_ref, atol=1e-12)
        assert y2.data[1] == 0.0


class TestDecoderInvariants:
    def test_distribution_sums_to_one_with_masked_zeros(self):
        m = tiny_model(num_labels=4)
        enc = m.encode(np.array([2, 3]))
        state = m.init_state()
        emitted = []
        for cls in (2, 0, 3):
            state, y, _ = m.decoder_step(state, enc)
            assert abs(float(y.data.sum()) - 1.0) < 1e-12
            for e in emitted:
                assert y.data[e] == 0.0
            state = m.advance(state, cls)
            emitted.append(cls)
        _, y, _ = m.decoder_step(state, enc)
        assert all(y.data[e] == 0.0 for e in emitted)
        assert y.data[m.eos_class] > 0.0

    def test_attention_rows_sum_to_one(self):
        m = tiny_model()
        enc = m.encode(np.array([2, 3, 4, 5, 6, 2, 3]))
        state = m.init_state()
        for _ in range(3):
            state, _, alpha = m.decoder_step(state, enc)
            assert alpha.data.shape == (7,)
            assert abs(float(alpha.data.sum()) - 1.0) < 1e-12
            assert np.all(alpha.data >= 0.0)
            state = m.advance(state, int(np.argmax(alpha.data)) % m.num_labels)
            break  # mask bookkeeping not under test here

    def test_mask_off_allows_repeats(self):
        m = tiny_model(use_mask=False)
        enc = m.encode(np.array([2, 3]))
        state = m.init_state()
        state, y, _ = m.decoder_step(state, enc)
        state = m.advance(state, 1)
        state = m.advance(state, 1)  # no error without the mask
        _, y2, _ = m.decoder_step(state, enc)
        assert y2.data[1] > 0.0

    @pytest.mark.parametrize("rows", [None, 2], ids=["lone", "rows"])
    def test_mask_off_still_range_checks_each_class(self, rows):
        # the next step reads the class's label embedding unchecked, so a
        # class outside the C output classes must stop at advance, mask or no
        m = tiny_model(use_mask=False)
        state = m.decoder_step(m.init_state(rows), m.encode(np.array([2, 3])))[0]
        classes = m.num_labels + 1
        for bad in (-1, classes + 2):
            with pytest.raises(NumericError, match="out of range"):
                m.advance(state, bad if rows is None else np.array([0, bad]))
        assert m.advance(state, classes - 1 if rows is None else np.array([0, classes - 1])).mask is not state.mask

    @pytest.mark.parametrize("use_mask", [True, False], ids=["mask", "no-mask"])
    @pytest.mark.parametrize("ge_mode", ["gate", "lambda"])
    def test_blend_modes_range_check_each_class(self, ge_mode, use_mask):
        # the blends gather the previous class's label row unchecked too
        m = tiny_model(ge_mode=ge_mode, use_mask=use_mask)
        state = m.decoder_step(m.init_state(2), m.encode(np.array([2, 3])))[0]
        with pytest.raises(NumericError, match="out of range"):
            m.advance(state, np.array([0, -1]))
        step = m.decoder_step(m.advance(state, np.array([0, 1])), m.encode(np.array([2, 3])))[1]
        assert np.all(np.isfinite(step.data))


class TestPreviousLabelModes:
    def drive(self, m: Seq2LabelModel, classes):
        enc = m.encode(np.array([2, 4, 3]))
        state = m.init_state()
        outs = []
        for cls in classes:
            state, y, _ = m.decoder_step(state, enc)
            outs.append(y.data.copy())
            state = m.advance(state, cls)
        return outs

    def test_lambda_zero_bitwise_equals_off(self):
        base = tiny_model(ge_mode="off")
        lam0 = tiny_model(ge_mode="lambda", ge_lambda=0.0)
        for a, b in zip(self.drive(base, [1, 0, 2]), self.drive(lam0, [1, 0, 2])):
            assert np.array_equal(a, b)

    def test_gate_forced_closed_bitwise_equals_off(self, monkeypatch):
        base = tiny_model(ge_mode="off")
        gated = tiny_model(ge_mode="gate")
        monkeypatch.setattr(
            model_mod, "sigmoid", lambda t: Tensor(np.zeros(t.data.shape))
        )
        for a, b in zip(self.drive(base, [2, 1]), self.drive(gated, [2, 1])):
            assert np.array_equal(a, b)

    def test_lambda_one_uses_pure_average(self):
        m = tiny_model(ge_mode="lambda", ge_lambda=1.0)
        table = m.params["embed.labels"].data
        y_prev = Tensor(np.array([0.5, 0.25, 0.25, 0.0]))
        g = m.fixed_lambda_embedding(y_prev, prev_class=0)
        expect = 0.5 * table[0] + 0.25 * table[1] + 0.25 * table[2]
        assert np.allclose(g.data, expect, atol=1e-15)

    def test_mix_excludes_terminal_mass(self):
        m = tiny_model(ge_mode="lambda", ge_lambda=1.0)
        table = m.params["embed.labels"].data
        y_prev = Tensor(np.array([0.5, 0.0, 0.0, 0.5]))  # half the mass on eos
        g = m.fixed_lambda_embedding(y_prev, prev_class=0)
        assert np.allclose(g.data, 0.5 * table[0], atol=1e-15)

    def test_first_step_identical_across_modes(self):
        outs = [
            self.drive(tiny_model(ge_mode=mode), [1])[0]
            for mode in ("off", "gate", "lambda")
        ]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_gate_mode_differs_after_first_step(self):
        a = self.drive(tiny_model(ge_mode="off"), [1, 0])
        b = self.drive(tiny_model(ge_mode="gate"), [1, 0])
        assert np.array_equal(a[0], b[0])
        assert not np.array_equal(a[1], b[1])


def _assert_rows_equal(stepped, y, alpha, lones):
    """Row i of a stacked step has the bits of lone step ``lones[i]``."""
    for row, (lone, ly, la) in enumerate(lones):
        assert np.array_equal(y.data[row], ly.data)
        assert np.array_equal(alpha.data[row], la.data)
        assert np.array_equal(stepped.context.data[row], lone.context.data)
        for (h, c), (lh, lc) in zip(stepped.layers, lone.layers):
            assert np.array_equal(h.data[row], lh.data)
            assert np.array_equal(c.data[row], lc.data)


class TestStackedHypotheses:
    """Hypotheses stacked as the rows of one state, over one document, step
    with exactly the bits of each hypothesis stepped alone."""

    @pytest.mark.parametrize("use_mask", [True, False], ids=["mask", "no-mask"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("ge_mode", ["off", "gate", "lambda"])
    def test_each_row_equals_its_lone_hypothesis(self, ge_mode, layers, use_mask):
        m = Seq2LabelModel(
            ModelConfig(embed_size=16, encoder_hidden=24, decoder_hidden=32, decoder_layers=layers,
                        ge_mode=ge_mode, use_mask=use_mask),
            vocab_size=30, num_labels=9, rng=RngStream(layers),
        )
        enc = m.encode(np.random.default_rng(0).integers(2, 30, size=23))
        rng = np.random.default_rng(1)
        stack, lones = m.init_state(1), [m.init_state()]
        # each step's parents by row: two children of one parent, then rows
        # whose masks and previous classes differ
        for parents in ([0, 0], [1, 0, 1], [2, 0, 1, 1, 2], [4, 3, 0]):
            stepped, y, alpha = m.decoder_step(stack, enc)
            lone_steps = [m.decoder_step(s, enc) for s in lones]
            _assert_rows_equal(stepped, y, alpha, lone_steps)
            classes = []
            for row in parents:
                allowed = np.flatnonzero(lone_steps[row][0].mask[:m.num_labels] == 0.0)
                classes.append(int(rng.choice([c for c in allowed if c not in classes] or allowed)))
            stack = m.advance(stepped.take(parents), np.array(classes))
            lones = [m.advance(lone_steps[row][0], c) for row, c in zip(parents, classes)]
        _assert_rows_equal(*m.decoder_step(stack, enc), [m.decoder_step(s, enc) for s in lones])

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("ge_mode", ["off", "gate", "lambda"])
    def test_batch_rows_step_like_their_lone_documents(self, ge_mode, layers):
        # the documents of a training batch multiply row by row too: at the
        # first teacher-forced step (which reads no encoder state) each
        # document's recurrence has the bits of its lone vector step
        m = Seq2LabelModel(
            ModelConfig(embed_size=16, encoder_hidden=24, decoder_hidden=32, decoder_layers=layers,
                        ge_mode=ge_mode),
            vocab_size=30, num_labels=9, rng=RngStream(layers),
        )
        gen = np.random.default_rng(3)
        docs = [gen.integers(2, 30, size=n) for n in (23, 11)]
        enc = m.encode_batch(np.concatenate(docs), [len(d) for d in docs])
        stepped = m.decoder_step(m.init_state(len(docs)), enc, targets=np.array([4, 0]))[0]
        for row, doc in enumerate(docs):
            lone = m.decoder_step(m.init_state(), m.encode(doc))[0]
            for (h, c), (lh, lc) in zip(stepped.layers, lone.layers):
                assert np.array_equal(h.data[row], lh.data)
                assert np.array_equal(c.data[row], lc.data)

    def test_take_gathers_rows_with_repeats(self):
        m = tiny_model(num_labels=4)
        state = m.advance(m.decoder_step(m.init_state(3), m.encode(np.array([2, 3])))[0], np.array([0, 1, 4]))
        taken = state.take([2, 2, 0])
        assert np.array_equal(taken.prev_class, [4, 4, 0])
        assert np.array_equal(taken.mask, state.mask[[2, 2, 0]])
        assert np.array_equal(taken.layers[0][0].data, state.layers[0][0].data[[2, 2, 0]])
        assert np.array_equal(taken.y_prev.data, state.y_prev.data[[2, 2, 0]])
        assert state.take([0, 1, 2]) is state and state.take(slice(3)) is state

    @pytest.mark.parametrize("rows", [[0, -1], [3], [1, 2, 3]], ids=["negative", "past-the-end", "last-past"])
    def test_take_rejects_rows_out_of_range(self, rows):
        m = tiny_model(num_labels=4)
        state = m.decoder_step(m.init_state(3), m.encode(np.array([2, 3])))[0]
        with pytest.raises(ShapeError, match="in range"):
            state.take(rows)

    def test_wide_stack_in_blocks_equals_one_block(self, monkeypatch):
        # 7 rows over a 23-row document, the tanh block held to two rows at a time
        m = Seq2LabelModel(ModelConfig(embed_size=8, encoder_hidden=8, decoder_hidden=8),
                           vocab_size=30, num_labels=9, rng=RngStream(3))
        enc = m.encode(np.random.default_rng(2).integers(2, 30, size=23))
        state = m.advance(m.decoder_step(m.init_state(7), enc)[0], np.arange(7))
        one_block = m.decoder_step(state, enc)
        monkeypatch.setattr(head_mod, "HEAD_BLOCK", 2 * enc.proj.data.size)
        assert len(head_mod._blocks(7, enc.proj.data.size)) == 4
        blocked = m.decoder_step(state, enc)
        for a, b in zip(one_block[1:], blocked[1:]):
            assert np.array_equal(a.data, b.data)
        assert np.array_equal(one_block[0].context.data, blocked[0].context.data)

    def test_blocks_hold_the_tanh_under_the_budget(self):
        # 1,000 hypotheses over a 500-token document at the default sizes
        per_row = 500 * 64
        blocks = head_mod._blocks(1000, per_row)
        assert all((b.stop - b.start) * per_row <= head_mod.HEAD_BLOCK for b in blocks)
        assert blocks[0].start == 0 and blocks[-1].stop >= 1000
        assert head_mod._blocks(3, 10 * head_mod.HEAD_BLOCK) == [slice(0, 1), slice(1, 2), slice(2, 3)]
