"""The fused LSTM ops against the scalar oracle, against the per-gate graph
they replace, and against finite differences; plus shape and init contracts."""

import numpy as np
import pytest

from oracles import lstm_step_oracle
from reference import graph_cell_step, graph_encode, graph_sequence, graph_sequence_loss
from seq2label.errors import ShapeError
from seq2label.model import ModelConfig, Seq2LabelModel
from seq2label.numerics import (
    ParameterStore,
    RngStream,
    Tensor,
    add_lstm_params,
    bilstm_sequence,
    concat,
    lstm_cell_step,
    lstm_sequence,
)
from seq2label.numerics import lstm, pool
from seq2label.numerics.lstm import _by_direction
from seq2label.trainer import sequence_loss


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


class TestPacked:
    """Several documents laid end to end through one ``lstm_sequence`` call."""

    LENGTHS = [3, 1, 5, 2, 5]  # unsorted, uneven, a one-row document, a tie

    @staticmethod
    def arrays(lengths, seed, in_dim=3, hidden=2):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(sum(lengths), in_dim)),) + random_weights(rng, in_dim, hidden)

    @pytest.mark.parametrize("lengths", [LENGTHS, [4]])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_finite_differences(self, lengths, reverse):
        arrays = self.arrays(lengths, 20 + len(lengths))
        weights = np.random.default_rng(1).normal(size=(sum(lengths), 2))
        check_grads(
            lambda *t: (lstm_sequence(*t, reverse=reverse, lengths=lengths) * Tensor(weights)).sum(), *arrays
        )

    @pytest.mark.parametrize("reverse", [False, True])
    def test_equals_one_call_per_document(self, reverse):
        lengths = self.LENGTHS
        arrays = self.arrays(lengths, 30, in_dim=4, hidden=3)
        weights = np.random.default_rng(2).normal(size=(sum(lengths), 3))
        packed = [Tensor(a, requires_grad=True) for a in arrays]
        out = lstm_sequence(*packed, reverse=reverse, lengths=np.array(lengths))
        (out * Tensor(weights)).sum().backward()
        single = [Tensor(a, requires_grad=True) for a in arrays]
        xs, wx, wh, b = single
        ends = np.cumsum(lengths)
        loss = None
        for m, end in zip(lengths, ends):
            doc = lstm_sequence(xs[end - m:end], wx, wh, b, reverse=reverse)
            assert np.max(np.abs(out.data[end - m:end] - doc.data)) <= 1e-12
            term = (doc * Tensor(weights[end - m:end])).sum()
            loss = term if loss is None else loss + term
        loss.backward()
        for name, p, s in zip(("xs", "wx", "wh", "b"), packed, single):
            assert np.max(np.abs(p.grad - s.grad)) <= 1e-12, name

    def test_one_document_is_the_default(self):
        arrays = [Tensor(a) for a in self.arrays([6], 40)]
        for reverse in (False, True):
            assert np.array_equal(
                lstm_sequence(*arrays, reverse=reverse).data,
                lstm_sequence(*arrays, reverse=reverse, lengths=[6]).data,
            )

    @pytest.mark.parametrize(
        "lengths",
        [
            [[2, 3]],        # not a vector
            [],              # no documents
            [2.0, 3.0],      # not integers
            [True, True, True, True, True],
            [5, 0],          # an empty document
            [6, -1],
            [2, 2],          # rows left over
            [3, 3],          # rows missing
        ],
    )
    def test_bad_lengths(self, lengths):
        xs, wx, wh, b = (Tensor(a) for a in self.arrays([5], 50))
        with pytest.raises(ShapeError, match="lengths"):
            lstm_sequence(xs, wx, wh, b, lengths=lengths)


class TestBidirectional:
    """Both directions of a layer stepped by one loop, as one node."""

    @staticmethod
    def arrays(lengths, seed, hidden, in_dim=5):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(sum(lengths), in_dim)),) + random_weights(rng, in_dim, hidden) \
            + random_weights(rng, in_dim, hidden)

    @pytest.mark.parametrize("hidden", [8, 64])
    @pytest.mark.parametrize("lengths", [[1], [5], [40], [3, 1, 7, 1, 2], [1, 1], [9, 1, 40, 6, 6, 1, 17]],
                             ids=["1", "5", "40", "packed", "ones", "packed-long"])
    def test_equals_two_directions_joined(self, lengths, hidden):
        arrays = self.arrays(lengths, sum(lengths) + hidden, hidden)
        weights = Tensor(np.random.default_rng(hidden).normal(size=(sum(lengths), 2 * hidden)))
        one = [Tensor(a, requires_grad=True) for a in arrays]
        out = bilstm_sequence(one[0], one[1:4], one[4:], lengths)
        (out * weights).sum().backward()
        two = [Tensor(a, requires_grad=True) for a in arrays]
        joined = concat([lstm_sequence(two[0], *two[1:4], lengths=lengths),
                         lstm_sequence(two[0], *two[4:], reverse=True, lengths=lengths)])
        (joined * weights).sum().backward()
        assert np.array_equal(out.data, joined.data)
        for name, a, b in zip(("xs", "fwd.wx", "fwd.wh", "fwd.b", "bwd.wx", "bwd.wh", "bwd.b"), one, two):
            assert np.array_equal(a.grad, b.grad), name

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("lengths", [[40], [9, 1, 40, 6, 6, 1, 17], [160, 150, 170, 140]],
                             ids=["40", "packed-long", "batch-of-160"])
    def test_gradients_do_not_depend_on_the_worker_count(self, lengths, count, monkeypatch, fresh_pool):
        # the two directions' gradient products run at once from two workers
        # up: a batch of 620 rows splits as it is, shorter ones with SPLIT_MIN at 0
        monkeypatch.setattr(pool, "workers", lambda: count)
        if sum(lengths) < 620:
            monkeypatch.setattr(pool, "SPLIT_MIN", 0)
        calls = []
        monkeypatch.setattr(lstm, "run", lambda pieces: calls.append(len(pieces)) or pool.run(pieces))
        self.test_equals_two_directions_joined(lengths, 64)
        assert calls == ([2] if count > 1 else [])

    @pytest.mark.parametrize("lengths", [[4], [3, 1, 4, 1]], ids=["lone", "packed"])
    def test_gradients_match_finite_differences(self, lengths):
        arrays = self.arrays(lengths, 60 + len(lengths), hidden=2, in_dim=3)
        weights = np.random.default_rng(3).normal(size=(sum(lengths), 4))
        check_grads(lambda xs, *w: (bilstm_sequence(xs, w[:3], w[3:], lengths) * Tensor(weights)).sum(), *arrays)

    def test_records_one_node(self):
        xs = Tensor(np.ones((6, 5)), requires_grad=True)
        weights = [Tensor(a) for a in self.arrays([6], 0, 2)[1:4]]
        out = bilstm_sequence(xs, weights, weights, [2, 4])
        assert out.data.shape == (6, 4) and out._parents == (xs,)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_encoder_records_one_node_per_layer(self, layers):
        cfg = ModelConfig(embed_size=5, encoder_hidden=4, decoder_hidden=6, encoder_layers=layers, dropout=0.3)
        m = Seq2LabelModel(cfg, 30, 5, RngStream(1))
        enc = m.encode_batch(np.array([3, 7, 7, 2, 19, 4, 11]), [4, 1, 2], train=True, rng=RngStream(2))
        weights = {id(m.params[f"enc.l{k}.{d}.{w}"]) for k in range(layers) for d in ("fwd", "bwd")
                   for w in ("wx", "wh", "b")}
        seen, stack, lstm_nodes = set(), [enc.states, enc.proj], []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if any(id(p) in weights for p in node._parents):
                lstm_nodes.append(node)
            stack.extend(node._parents)
        assert len(lstm_nodes) == layers
        assert all(len(node._parents) == 7 for node in lstm_nodes)  # the layer's input and six weights


class TestStackedDirectionProducts:
    # bilstm_sequence equals two lstm_sequence calls bit for bit only because
    # numpy's stacked matmul over the directions runs each direction's gemm
    # (or, for one row, gemv) on its strided view with the bits of that
    # product taken alone on contiguous operands. A numpy or BLAS upgrade
    # that changes matmul's dispatch fails here first.
    ASSUMPTION = ("numpy assumption broken: a product stacked over the directions no longer equals "
                  "each direction's own gemm or gemv bit for bit, so bilstm_sequence would drift "
                  "from two lstm_sequence calls")

    def test_stacked_forms_equal_per_direction_products_at_model_shapes(self):
        rng = np.random.default_rng(12)
        for hidden in (8, 64):
            wh = [rng.normal(size=(hidden, 4 * hidden)) for _ in range(2)]
            stacked = np.stack(wh)
            for rows in range(1, 17):
                # a step's block inside the packed (N, D, ·) arrays, as the loop
                # reads it: one row is an int index, a (D, ·) block of vectors
                at = 3 if rows == 1 else slice(3, 3 + rows)
                hs, d_pre = rng.normal(size=(40, 2, hidden)), rng.normal(size=(40, 2, 4 * hidden))
                h, d = hs[at], d_pre[at]
                rec, back = _by_direction(h, stacked), _by_direction(d, stacked.swapaxes(1, 2))
                for k in range(2):
                    # each direction's product on contiguous operands, as one direction steps
                    h_k, d_k = np.ascontiguousarray(h[..., k, :]), np.ascontiguousarray(d[..., k, :])
                    assert np.array_equal(rec[..., k, :], h_k @ wh[k]), (self.ASSUMPTION, "forward", hidden, rows)
                    assert np.array_equal(back[..., k, :], d_k @ wh[k].T), (self.ASSUMPTION, "backward", hidden, rows)


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

    def test_batched_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        x, h, c = rng.normal(size=(3, 3)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        wx, wh, b = random_weights(rng, 3, 2)
        rh, rc = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))

        def build(x, h, c, wx, wh, b):
            h1, c1 = lstm_cell_step(x, (h, c), wx, wh, b)
            h2, c2 = lstm_cell_step(x, (h1, c1), wx, wh, b)
            return (h2 * Tensor(rh)).sum() + (c2 * Tensor(rc)).sum() + (h1 * Tensor(rc)).sum()

        check_grads(build, x, h, c, wx, wh, b)

    def test_batched_equals_the_per_gate_graph_per_row(self):
        # one (B, ·) step against one graph step per row, each row its own document
        rng = np.random.default_rng(10)
        arrays = tuple(rng.normal(size=(4, n)) for n in (3, 5, 5)) + random_weights(rng, 3, 5)
        rh, rc = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        x, h, c, wx, wh, b = batched = [Tensor(a, requires_grad=True) for a in arrays]
        state = (h, c)
        for _ in range(3):
            state = lstm_cell_step(x, state, wx, wh, b)
        ((state[0] * Tensor(rh)).sum() + (state[1] * Tensor(rc)).sum()).backward()
        gx, gh, gc, gwx, gwh, gb = graph = [Tensor(a, requires_grad=True) for a in arrays]
        loss = None
        for r in range(4):
            row_state = (gh[r], gc[r])
            for _ in range(3):
                row_state = graph_cell_step(gx[r], row_state, gwx, gwh, gb)
            assert np.max(np.abs(state[0].data[r] - row_state[0].data)) <= 1e-12
            assert np.max(np.abs(state[1].data[r] - row_state[1].data)) <= 1e-12
            term = (row_state[0] * Tensor(rh[r])).sum() + (row_state[1] * Tensor(rc[r])).sum()
            loss = term if loss is None else loss + term
        loss.backward()
        for name, f, g in zip(("x", "h", "c", "wx", "wh", "b"), batched, graph):
            assert np.max(np.abs(f.grad - g.grad)) <= 1e-12, name

    def test_rejects_mismatched_rows(self):
        wx, wh, b = (Tensor(a) for a in random_weights(np.random.default_rng(0), 3, 2))
        with pytest.raises(ShapeError, match="row count"):
            lstm_cell_step(Tensor(np.zeros((2, 3))), (Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2)))), wx, wh, b)
        with pytest.raises(ShapeError, match="row count"):
            lstm_cell_step(Tensor(np.zeros(3)), (Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2)))), wx, wh, b)

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
    def test_sequence_loss_equals_the_per_gate_graph(self, layers, ge_mode):
        # the whole model against its per-token, per-step, per-gate graph
        tokens = np.array([5, 9, 2, 27, 13, 13, 8, 3, 21])
        framed = [5 + 1, 2, 0, 3, 5]  # start marker, three labels, terminal class
        results = []
        for path in ("fused", "graph"):
            m = self.model(encoder_layers=layers, ge_mode=ge_mode, dropout=0.25)
            assert framed[0] == m.bos_class and framed[-1] == m.eos_class
            rng = RngStream(4)
            if path == "fused":
                loss = sequence_loss(m, tokens, framed, train=True, rng=rng)
            else:
                states = graph_encode(m, tokens, True, rng)
                loss = graph_sequence_loss(m, states, framed, True, rng, cell_step=graph_cell_step)
            loss.backward()
            results.append((loss.item(), {n: t.grad for n, t in m.params.items()}))
        (fused_loss, fused), (graph_loss, graph) = results
        assert abs(fused_loss - graph_loss) <= 1e-12
        for name in fused:
            assert np.max(np.abs(fused[name] - graph[name])) <= 1e-12, name
