"""The fused LSTM ops against the scalar oracle, against the per-gate graph
they replace, and against finite differences; plus shape and init contracts."""

import numpy as np
import pytest

from oracles import lstm_step_oracle
from seq2label.errors import ShapeError
from seq2label import model as model_module
from seq2label.model import EncoderOutput, ModelConfig, Seq2LabelModel
from seq2label.numerics import (
    ParameterStore,
    RngStream,
    Tensor,
    add_lstm_params,
    concat,
    dropout,
    lstm_cell_step,
    lstm_sequence,
    sigmoid,
    tanh,
)
from seq2label.numerics.tensor import _accum, _node
from seq2label.trainer import sequence_loss


def graph_cell_step(x, state, wx, wh, b):
    """The cell as a graph of generic ops (about 15 nodes per step): the
    straightforward path the fused ops must reproduce."""
    h, c = state
    hidden = h.data.shape[0]
    pre = (x @ wx) + (h @ wh) + b
    i = sigmoid(pre[:hidden])
    f = sigmoid(pre[hidden:2 * hidden])
    g = tanh(pre[2 * hidden:3 * hidden])
    o = sigmoid(pre[3 * hidden:])
    c_new = (f * c) + (i * g)
    return o * tanh(c_new), c_new


def graph_sequence(rows, wx, wh, b, reverse=False):
    """Hidden states of ``graph_cell_step`` run over a list of row vectors,
    one per row, read last to first when ``reverse``."""
    hidden = wh.data.shape[0]
    state = (Tensor(np.zeros(hidden)), Tensor(np.zeros(hidden)))
    outs = []
    for row in reversed(rows) if reverse else rows:
        state = graph_cell_step(row, state, wx, wh, b)
        outs.append(state[0])
    return outs[::-1] if reverse else outs


def stack(rows):
    """Rows joined into a matrix, for comparing against a fused op's output."""

    def bw(g, rows=tuple(rows)):
        for r, gr in zip(rows, g):
            _accum(r, gr)

    return _node(np.stack([r.data for r in rows]), tuple(rows), bw)


def graph_encode(model, token_ids, train=False, rng=None):
    """The encoder as it was built before the fused op: per-token rows, one
    cell step per token and direction, per-row dropout between layers."""
    cfg = model.config
    mode = "train" if train else "eval"
    x = dropout(model.embed(token_ids), cfg.dropout, mode, rng)
    inputs = [x[t] for t in range(x.data.shape[0])]
    for layer in range(cfg.encoder_layers):
        halves = []
        for direction in ("fwd", "bwd"):
            weights = (model.params[f"enc.l{layer}.{direction}.{w}"] for w in ("wx", "wh", "b"))
            halves.append(graph_sequence(inputs, *weights, reverse=direction == "bwd"))
        inputs = [concat([f, bk]) for f, bk in zip(*halves)]
        if layer + 1 < cfg.encoder_layers:
            inputs = [dropout(h, cfg.dropout, mode, rng) for h in inputs]
    return stack(inputs)


def random_weights(rng, in_dim, hidden, scale=0.5):
    return (
        rng.normal(size=(in_dim, 4 * hidden)) * scale,
        rng.normal(size=(hidden, 4 * hidden)) * scale,
        rng.normal(size=4 * hidden) * scale,
    )


def numeric_grad(fn, arr, eps=1e-6):
    g = np.zeros_like(arr)
    flat, out = arr.reshape(-1), g.reshape(-1)
    for k in range(flat.size):
        saved = flat[k]
        flat[k] = saved + eps
        up = fn()
        flat[k] = saved - eps
        down = fn()
        flat[k] = saved
        out[k] = (up - down) / (2 * eps)
    return g


def check_grads(build, *arrays, tol=1e-7):
    """build(*tensors) -> scalar Tensor; every input's gradient against central differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    build(*tensors).backward()
    for k, (t, a) in enumerate(zip(tensors, arrays)):
        expect = numeric_grad(lambda: build(*[Tensor(v) for v in arrays]).item(), a)
        assert np.allclose(t.grad, expect, rtol=0, atol=tol), f"input {k}: {t.grad} vs {expect}"


def test_step_matches_oracle():
    rng = np.random.default_rng(0)
    in_dim, hidden = 3, 4
    x = rng.normal(size=in_dim)
    h = rng.normal(size=hidden)
    c = rng.normal(size=hidden)
    wx = rng.normal(size=(in_dim, 4 * hidden))
    wh = rng.normal(size=(hidden, 4 * hidden))
    b = rng.normal(size=4 * hidden)
    h2, c2 = lstm_cell_step(Tensor(x), (Tensor(h), Tensor(c)), Tensor(wx), Tensor(wh), Tensor(b))
    h_ref, c_ref = lstm_step_oracle(list(x), list(h), list(c), wx.tolist(), wh.tolist(), list(b))
    assert np.allclose(h2.data, h_ref, atol=1e-12)
    assert np.allclose(c2.data, c_ref, atol=1e-12)


def test_multi_step_matches_oracle():
    rng = np.random.default_rng(1)
    hidden = 3
    wx = rng.normal(size=(2, 4 * hidden)) * 0.5
    wh = rng.normal(size=(hidden, 4 * hidden)) * 0.5
    b = rng.normal(size=4 * hidden) * 0.5
    h = Tensor(np.zeros(hidden))
    c = Tensor(np.zeros(hidden))
    h_ref, c_ref = [0.0] * hidden, [0.0] * hidden
    for _ in range(5):
        x = rng.normal(size=2)
        h, c = lstm_cell_step(Tensor(x), (h, c), Tensor(wx), Tensor(wh), Tensor(b))
        h_ref, c_ref = lstm_step_oracle(list(x), h_ref, c_ref, wx.tolist(), wh.tolist(), list(b))
    assert np.allclose(h.data, h_ref, atol=1e-12)
    assert np.allclose(c.data, c_ref, atol=1e-12)


def test_gradients_flow_through_time():
    rng = np.random.default_rng(2)
    hidden = 2
    wx = Tensor(rng.normal(size=(2, 4 * hidden)) * 0.3, requires_grad=True)
    wh = Tensor(rng.normal(size=(hidden, 4 * hidden)) * 0.3, requires_grad=True)
    b = Tensor(rng.normal(size=4 * hidden) * 0.3, requires_grad=True)
    xs = [rng.normal(size=2) for _ in range(4)]

    def loss_value(wxa, wha, ba):
        h, c = Tensor(np.zeros(hidden)), Tensor(np.zeros(hidden))
        for x in xs:
            h, c = lstm_cell_step(Tensor(x), (h, c), wxa, wha, ba)
        return h.sum()

    loss_value(wx, wh, b).backward()
    eps = 1e-6
    for t in (wx, wh, b):
        flat_data = t.data.reshape(-1)
        flat_grad = t.grad.reshape(-1)
        for idx in (0, flat_data.size // 2, flat_data.size - 1):
            saved = flat_data[idx]
            flat_data[idx] = saved + eps
            up = loss_value(Tensor(wx.data), Tensor(wh.data), Tensor(b.data)).item()
            flat_data[idx] = saved - eps
            down = loss_value(Tensor(wx.data), Tensor(wh.data), Tensor(b.data)).item()
            flat_data[idx] = saved
            assert abs(flat_grad[idx] - (up - down) / (2 * eps)) < 1e-6


def test_shape_validation():
    hidden = 2
    x = Tensor(np.zeros(3))
    state = (Tensor(np.zeros(hidden)), Tensor(np.zeros(hidden)))
    good_wx = Tensor(np.zeros((3, 8)))
    good_wh = Tensor(np.zeros((2, 8)))
    good_b = Tensor(np.zeros(8))
    with pytest.raises(ShapeError, match="wx"):
        lstm_cell_step(x, state, Tensor(np.zeros((4, 8))), good_wh, good_b)
    with pytest.raises(ShapeError, match="wh"):
        lstm_cell_step(x, state, good_wx, Tensor(np.zeros((2, 4))), good_b)
    with pytest.raises(ShapeError, match="b shape"):
        lstm_cell_step(x, state, good_wx, good_wh, Tensor(np.zeros(4)))


def test_param_helper_sets_forget_bias():
    store = ParameterStore()
    wx, wh, b = add_lstm_params(store, "cell", 3, 4, RngStream(0))
    assert wx.data.shape == (3, 16) and wh.data.shape == (4, 16) and b.data.shape == (16,)
    assert np.all(b.data[4:8] == 1.0)
    assert np.all(np.abs(b.data[:4]) <= 0.1)
    assert set(store.names()) == {"cell.wx", "cell.wh", "cell.b"}


class TestSequence:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_oracle(self, reverse):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(5, 3))
        wx, wh, b = random_weights(rng, 3, 4)
        out = lstm_sequence(Tensor(xs), Tensor(wx), Tensor(wh), Tensor(b), reverse=reverse)
        assert out.data.shape == (5, 4)
        h, c = [0.0] * 4, [0.0] * 4
        for t in (range(4, -1, -1) if reverse else range(5)):
            h, c = lstm_step_oracle(list(xs[t]), h, c, wx.tolist(), wh.tolist(), list(b))
            assert np.allclose(out.data[t], h, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("steps", [1, 4])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_finite_differences(self, steps, reverse):
        rng = np.random.default_rng(4 + steps)
        xs = rng.normal(size=(steps, 3))
        wx, wh, b = random_weights(rng, 3, 2)
        weights = rng.normal(size=(steps, 2))  # every output row reaches the loss
        check_grads(
            lambda *t: (lstm_sequence(*t, reverse=reverse) * Tensor(weights)).sum(), xs, wx, wh, b
        )

    @pytest.mark.parametrize("steps", [1, 6])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_equals_the_per_gate_graph(self, steps, reverse):
        rng = np.random.default_rng(5 + steps)
        arrays = (rng.normal(size=(steps, 3)),) + random_weights(rng, 3, 4)
        weights = rng.normal(size=(steps, 4))
        fused = [Tensor(a, requires_grad=True) for a in arrays]
        graph = [Tensor(a, requires_grad=True) for a in arrays]
        out = lstm_sequence(*fused, reverse=reverse)
        (out * Tensor(weights)).sum().backward()
        xs, wx, wh, b = graph
        rows = graph_sequence([xs[t] for t in range(steps)], wx, wh, b, reverse=reverse)
        loss = None
        for t, h in enumerate(rows):
            term = (h * Tensor(weights[t])).sum()
            loss = term if loss is None else loss + term
        loss.backward()
        assert np.max(np.abs(out.data - np.stack([h.data for h in rows]))) <= 1e-12
        for name, f, g in zip(("xs", "wx", "wh", "b"), fused, graph):
            assert np.max(np.abs(f.grad - g.grad)) <= 1e-12, name

    def test_records_one_node(self):
        xs = Tensor(np.ones((7, 3)), requires_grad=True)
        wx, wh, b = (Tensor(a) for a in random_weights(np.random.default_rng(0), 3, 2))
        out = lstm_sequence(xs, wx, wh, b)
        assert out._parents == (xs,)

    def test_shape_validation(self):
        xs = Tensor(np.zeros((4, 3)))
        good_wx, good_wh, good_b = Tensor(np.zeros((3, 8))), Tensor(np.zeros((2, 8))), Tensor(np.zeros(8))
        with pytest.raises(ShapeError, match="wx"):
            lstm_sequence(xs, Tensor(np.zeros((4, 8))), good_wh, good_b)
        with pytest.raises(ShapeError, match="wh"):
            lstm_sequence(xs, good_wx, Tensor(np.zeros((2, 4))), good_b)
        with pytest.raises(ShapeError, match="wh"):
            lstm_sequence(xs, good_wx, Tensor(np.zeros(8)), good_b)
        with pytest.raises(ShapeError, match="b shape"):
            lstm_sequence(xs, good_wx, good_wh, Tensor(np.zeros(4)))
        with pytest.raises(ShapeError, match="matrix"):
            lstm_sequence(Tensor(np.zeros(3)), good_wx, good_wh, good_b)
        with pytest.raises(ShapeError, match="matrix"):
            lstm_sequence(Tensor(np.zeros((0, 3))), good_wx, good_wh, good_b)


class TestCell:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        x, h, c = rng.normal(size=3), rng.normal(size=2), rng.normal(size=2)
        wx, wh, b = random_weights(rng, 3, 2)
        rh, rc = rng.normal(size=2), rng.normal(size=2)

        def build(x, h, c, wx, wh, b):
            h1, c1 = lstm_cell_step(x, (h, c), wx, wh, b)
            h2, c2 = lstm_cell_step(x, (h1, c1), wx, wh, b)  # state fed through a second step
            return (h2 * Tensor(rh)).sum() + (c2 * Tensor(rc)).sum() + (h1 * Tensor(rc)).sum()

        check_grads(build, x, h, c, wx, wh, b)

    def test_equals_the_per_gate_graph(self):
        rng = np.random.default_rng(7)
        arrays = (rng.normal(size=3), rng.normal(size=4), rng.normal(size=4)) + random_weights(rng, 3, 4)
        rh, rc = rng.normal(size=4), rng.normal(size=4)
        results = []
        for step in (lstm_cell_step, graph_cell_step):
            x, h, c, wx, wh, b = ts = [Tensor(a, requires_grad=True) for a in arrays]
            state = (h, c)
            for _ in range(3):
                state = step(x, state, wx, wh, b)
            ((state[0] * Tensor(rh)).sum() + (state[1] * Tensor(rc)).sum()).backward()
            results.append((state, ts))
        (fused_state, fused), (graph_state, graph) = results
        for f, g in zip(fused_state, graph_state):
            assert np.max(np.abs(f.data - g.data)) <= 1e-12
        for name, f, g in zip(("x", "h", "c", "wx", "wh", "b"), fused, graph):
            assert np.max(np.abs(f.grad - g.grad)) <= 1e-12, name

    def test_records_three_nodes(self):
        # one cell node holding [h', c'], read out by one indexing node per half
        x = Tensor(np.ones(3), requires_grad=True)
        wx, wh, b = (Tensor(a) for a in random_weights(np.random.default_rng(0), 3, 2))
        h, c = lstm_cell_step(x, (Tensor(np.zeros(2)), Tensor(np.zeros(2))), wx, wh, b)
        (cell,) = h._parents
        assert c._parents == (cell,) and cell._parents == (x,)
        assert np.array_equal(cell.data, np.concatenate([h.data, c.data]))

    def test_step_from_zero_state_equals_one_row_sequence(self):
        # both ops run the same step kernel and the same step backward
        rng = np.random.default_rng(8)
        arrays = (rng.normal(size=(1, 3)),) + random_weights(rng, 3, 4)
        r = rng.normal(size=4)
        xs, wx, wh, b = seq = [Tensor(a, requires_grad=True) for a in arrays]
        out = lstm_sequence(xs, wx, wh, b)
        (out * Tensor(r[None])).sum().backward()
        x, cwx, cwh, cb = cell = [Tensor(a, requires_grad=True) for a in (arrays[0][0],) + arrays[1:]]
        h, _ = lstm_cell_step(x, (Tensor(np.zeros(4)), Tensor(np.zeros(4))), cwx, cwh, cb)
        (h * Tensor(r)).sum().backward()
        assert np.array_equal(out.data[0], h.data)
        assert np.array_equal(xs.grad[0], x.grad)
        for name, s, c in zip(("wx", "wh", "b"), seq[1:], cell[1:]):
            assert np.array_equal(s.grad, c.grad), name


class TestEncoder:
    @staticmethod
    def model(**kw):
        cfg = ModelConfig(embed_size=5, encoder_hidden=4, decoder_hidden=6, decoder_layers=2, **kw)
        return Seq2LabelModel(cfg, 30, 5, RngStream(11))

    def test_dropout_draw_order_unchanged(self):
        m = self.model(encoder_layers=2, dropout=0.4)
        tokens = np.array([3, 7, 7, 2, 19, 4, 11])
        fused_rng, graph_rng = RngStream(9), RngStream(9)
        fused = m.encode(tokens, train=True, rng=fused_rng).states
        graph = graph_encode(m, tokens, train=True, rng=graph_rng)
        assert fused_rng.position == graph_rng.position == 7 * 5 + 7 * 8
        assert np.max(np.abs(fused.data - graph.data)) <= 1e-12
        assert np.max(np.abs(fused.data - m.encode(tokens).states.data)) > 1e-3  # dropout acted

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("ge_mode", ["off", "gate", "lambda"])
    def test_sequence_loss_equals_the_per_gate_graph(self, layers, ge_mode, monkeypatch):
        tokens = np.array([5, 9, 2, 27, 13, 13, 8, 3, 21])
        results = []
        for path in ("fused", "graph"):
            m = self.model(encoder_layers=layers, ge_mode=ge_mode, dropout=0.25)
            if path == "graph":
                def encode(token_ids, train=False, rng=None, m=m):
                    states = graph_encode(m, token_ids, train, rng)
                    return EncoderOutput(states, states @ m.params["attn.w_enc"], states.data.shape[0])

                monkeypatch.setattr(m, "encode", encode)
                monkeypatch.setattr(model_module, "lstm_cell_step", graph_cell_step)
            loss = sequence_loss(m, tokens, [m.bos_class, 2, 0, 3, m.eos_class], train=True, rng=RngStream(4))
            loss.backward()
            results.append((loss.item(), {n: t.grad for n, t in m.params.items()}))
        (fused_loss, fused), (graph_loss, graph) = results
        assert abs(fused_loss - graph_loss) <= 1e-12
        for name in fused:
            assert np.max(np.abs(fused[name] - graph[name])) <= 1e-12, name
