"""Autodiff core: values against frozen constants, gradients against finite
differences, and the error contract of every operation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import softmax_masked_oracle
from seq2label.errors import ConfigError, NumericError, ShapeError
from seq2label.numerics import (
    RngStream,
    Tensor,
    attention_head,
    concat,
    dropout,
    masked_softmax,
    matvec,
    no_grad,
    sigmoid,
    tanh,
    vecmat,
)
from seq2label.numerics.head import _softmax
from seq2label.numerics.tensor import _matvec, _vecmat


def numeric_grad(fn, arr, eps=1e-6):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        saved = arr[idx]
        arr[idx] = saved + eps
        up = fn()
        arr[idx] = saved - eps
        down = fn()
        arr[idx] = saved
        g[idx] = (up - down) / (2 * eps)
    return g


def check_grads(build, *arrays, tol=1e-6):
    """build(*tensors) -> scalar Tensor; compares backward against differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    for t, a in zip(tensors, arrays):
        expect = numeric_grad(lambda: build(*[Tensor(x) for x in arrays]).item(), a)
        got = t.grad if t.grad is not None else np.zeros_like(a)
        assert np.allclose(got, expect, atol=tol), f"grad mismatch: {got} vs {expect}"


def head_arrays(rng, rows=None, doc=4, hidden=3, width=4, attn=3, proj=3, classes=4, scale=1.0):
    """Random inputs of ``attention_head``: s, states, proj, w_query, v,
    w_out_state, w_out_context, w_logits (one document per row of s)."""
    shapes = [(hidden,) if rows is None else (rows, hidden), (doc * (rows or 1), width),
              (doc * (rows or 1), attn), (hidden, attn), (attn,), (proj, hidden), (proj, width), (classes, proj)]
    return [rng.normal(size=shape) * scale for shape in shapes]


def head_loss(mask, target, weights=None):
    """build(*tensors) -> scalar: the head's loss for ``target``, plus its
    context and distribution weighted by ``weights`` when given."""

    def build(*tensors):
        out, _ = attention_head(*tensors, mask, targets=target)
        loss = out[..., out.data.shape[-1] - 1]
        return loss if weights is None else loss + (out[..., :out.data.shape[-1] - 1] * Tensor(weights)).sum()

    return build


class TestValues:
    def test_matvec_frozen(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([1.0, 1.0])
        assert np.array_equal(out.data, [3.0, 7.0])

    def test_masked_softmax_frozen(self):
        out = masked_softmax(np.array([1.0, 2.0, 3.0]), np.array([0.0, -np.inf, 0.0]))
        assert out[1] == 0.0
        assert np.allclose(out, [0.119203, 0.0, 0.880797], atol=1e-6)
        assert math.isclose(out.sum(), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_uniform_cross_entropy(self):
        # zero output weights: four equally likely classes
        arrays = head_arrays(np.random.default_rng(0))
        arrays[-1][:] = 0.0
        out, _ = attention_head(*(Tensor(a) for a in arrays), np.zeros(4), targets=2)
        assert np.array_equal(out.data[4:8], [0.25] * 4)
        assert math.isclose(out.data[-1], math.log(4.0), rel_tol=1e-12)

    def test_half_probability_cross_entropy(self):
        # two of the four classes masked: each of the others has probability 1/2
        arrays = head_arrays(np.random.default_rng(1), rows=2)
        arrays[-1][:] = 0.0
        mask = np.array([[0.0, -np.inf, 0.0, -np.inf], [-np.inf, 0.0, -np.inf, 0.0]])
        out, _ = attention_head(*(Tensor(a) for a in arrays), mask, lengths=[4, 4], targets=[0, 3])
        assert np.allclose(out.data[:, -1], math.log(2.0), rtol=1e-12, atol=0)

    def test_scalar_loss_is_zero_dim(self):
        assert Tensor(np.float64(3.0)).shape == ()
        assert (Tensor([1.0, 2.0]) @ Tensor([3.0, 4.0])).shape == ()

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=6),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_masked_softmax_matches_oracle(self, logits, data):
        n = len(logits)
        mask_bits = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda bits: any(bits))
        )
        mask = np.where(mask_bits, 0.0, -np.inf)
        out = masked_softmax(np.array(logits), mask)
        expect = softmax_masked_oracle(logits, list(mask))
        assert np.allclose(out, expect, atol=1e-12)
        for i, keep in enumerate(mask_bits):
            if not keep:
                assert out[i] == 0.0


class TestGradients:
    def test_add_mul_sub(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=4), rng.normal(size=4)
        check_grads(lambda x, y: ((x + y) * y - x).sum(), a, b)

    def test_broadcast_add(self):
        rng = np.random.default_rng(1)
        check_grads(lambda m, v: (m + v).sum(), rng.normal(size=(3, 4)), rng.normal(size=4))

    def test_scalar_scale_and_neg(self):
        check_grads(lambda x: (-x * 2.5).sum(), np.arange(3.0))

    def test_matmul_all_ranks(self):
        rng = np.random.default_rng(2)
        m, n = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        v4, v3 = rng.normal(size=4), rng.normal(size=3)
        check_grads(lambda a, b: (a @ b).sum(), m, n)
        check_grads(lambda a, b: (a @ b).sum(), m, v4)
        check_grads(lambda a, b: (a @ b).sum(), v3, m)
        check_grads(lambda a, b: a @ b, v4, v4.copy())

    def test_row_products(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 3))
        for x in (rng.normal(size=4), rng.normal(size=(5, 4))):
            check_grads(lambda a, b: tanh(vecmat(a, b)).sum(), x, w)
            check_grads(lambda a, b: tanh(matvec(b, a)).sum(), x[..., :3].copy(), w)

    def test_nonlinearities(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5)
        check_grads(lambda t: tanh(t).sum(), x)
        check_grads(lambda t: sigmoid(t).sum(), x)
        check_grads(lambda t: sigmoid(t * 30.0).sum(), x)  # saturation stays finite

    def test_shape_surgery(self):
        rng = np.random.default_rng(4)
        x, m = rng.normal(size=6), rng.normal(size=(4, 3))
        check_grads(lambda t: t[1:4].sum(), x)
        check_grads(lambda t: t[2].sum(), m)
        check_grads(lambda t: t[1:3].sum(), m)
        check_grads(lambda a, b: concat([a, b]).sum(), x, x.copy())
        check_grads(lambda a, b: (concat([a, b]) @ Tensor([1.0, -1.0, 2.0])).sum(), m[:, :1].copy(), m[:, 1:].copy())

    def test_take_rows_accumulates_duplicates(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        table[[1, 1, 2]].sum().backward()
        assert np.array_equal(table.grad, [[0, 0], [2, 2], [1, 1]])

    def test_take_rows_scatter_matches_dense_gradient(self):
        # the gradient lands in a buffer an earlier use of the table already
        # holds; the result must equal adding a dense scatter matrix to it
        rng = np.random.default_rng(6)
        for idx in (np.array([4, 0, 4, 6, 4, 0]), 4, slice(1, 5)):
            table = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
            w, v = rng.normal(size=table.data[idx].shape), rng.normal(size=(7, 3))
            ((table[idx] * Tensor(w)).sum() + (table * Tensor(v)).sum()).backward()
            dense = np.zeros((7, 3))
            np.add.at(dense, idx, w)
            assert np.max(np.abs(table.grad - (v + dense))) <= 1e-12, idx

    def test_concat_rejects_mixed_shapes(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))])
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros(2)), Tensor(np.zeros((1, 2)))])
        with pytest.raises(ShapeError):
            concat([])

    def test_masked_softmax_cross_entropy_grad(self):
        rng = np.random.default_rng(5)
        mask = np.array([0.0, -np.inf, 0.0, 0.0, -np.inf])
        check_grads(head_loss(mask, 2), *head_arrays(rng, classes=5))

    def test_softmax_cross_entropy_grad(self):
        # every output of the node reaches the loss: context, distribution, loss
        rng = np.random.default_rng(6)
        check_grads(head_loss(np.zeros(4), 1, rng.normal(size=8)), *head_arrays(rng))

    @given(st.lists(st.floats(-700, 700), min_size=1, max_size=8), st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_bitwise_masked_softmax_with_nothing_masked(self, logits, target):
        # attention's softmax and the output's masked one share one kernel
        z = np.array(logits)
        assert _softmax(z)[0].tobytes() == masked_softmax(z, np.zeros(len(logits))).tobytes()
        p, top, total = _softmax(z)
        if p[target % len(logits)] >= np.finfo(float).tiny:  # a subnormal has lost digits
            log_p = float(np.log(p[target % len(logits)]))
            log_space = -float(np.log(total[0]) - (z[target % len(logits)] - top[0]))
            assert math.isclose(log_p, log_space, rel_tol=1e-12, abs_tol=1e-12)

    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        (x + x).sum().backward()
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0
        y.sum().backward()
        assert np.array_equal(x.grad, [1.0, 1.0])


class TestRowByRowProducts:
    # The stacked hypotheses of a search reproduce each lone hypothesis bit
    # for bit only because numpy's stacked matmul forms run one gemv per row
    # and row-wise reductions equal the 1-D ones. A numpy or BLAS upgrade that
    # changes matmul's dispatch fails here first.
    ASSUMPTION = ("numpy assumption broken: a stacked product no longer equals the lone "
                  "vector products bit for bit, so stacked beam hypotheses would drift from lone ones")

    def test_stacked_forms_equal_lone_products_at_model_shapes(self):
        rng = np.random.default_rng(8)
        # (inner, outer) of the default model's products: decoder input and
        # recurrence of either layer, attention query, output layer, logits
        # and label averages at 55 and 104 classes, and the 2E context
        shapes = [(192, 256), (64, 256), (64, 64), (128, 64), (64, 55), (64, 104), (54, 64), (103, 64)]
        for k in (1, 2, 5, 8):
            for inner, outer in shapes:
                x, w = rng.normal(size=(k, inner)), rng.normal(size=(inner, outer))
                assert np.array_equal(_vecmat(x, w), np.stack([r @ w for r in x])), (self.ASSUMPTION, k, inner, outer)
                assert np.array_equal(_matvec(w.T.copy(), x), np.stack([w.T.copy() @ r for r in x])), \
                    (self.ASSUMPTION, k, outer, inner)
            for m in (1, 7, 40, 161, 500):
                th, v, states = rng.normal(size=(k, m, 64)), rng.normal(size=64), rng.normal(size=(m, 128))
                alpha = rng.random(size=(k, m))
                assert np.array_equal(th @ v, np.stack([t @ v for t in th])), (self.ASSUMPTION, k, m)
                assert np.array_equal(_vecmat(alpha, states), np.stack([a @ states for a in alpha])), \
                    (self.ASSUMPTION, k, m)
                assert np.array_equal(_softmax(alpha)[0], np.stack([_softmax(a)[0] for a in alpha])), \
                    (self.ASSUMPTION, k, m)
        x, w = rng.normal(size=192), rng.normal(size=(192, 256))
        assert np.array_equal(_vecmat(x, w), x @ w) and np.array_equal(_matvec(w.T.copy(), x), w.T.copy() @ x), \
            self.ASSUMPTION


class TestIndexing:
    CASES = [3, slice(1, 4), np.array([4, 0, 4, 2]), np.array([2, 0, 4, 1, 3])]

    @pytest.mark.parametrize("shape", [(5,), (5, 3)])
    @pytest.mark.parametrize("index", CASES, ids=["int", "slice", "vector", "permutation"])
    def test_values_and_gradients(self, shape, index):
        rng = np.random.default_rng(7)
        data = rng.normal(size=shape)
        assert np.array_equal(Tensor(data)[index].data, data[index])
        w = rng.normal(size=data[index].shape)
        check_grads(lambda t: (t[index] * Tensor(w)).sum(), data)

    @pytest.mark.parametrize("shape", [(5,), (5, 3)])
    @pytest.mark.parametrize("index", [(..., 2), (..., slice(1, 3))], ids=["int", "slice"])
    def test_last_axis_values_and_gradients(self, shape, index):
        rng = np.random.default_rng(8)
        data = rng.normal(size=shape)
        assert np.array_equal(Tensor(data)[index].data, data[index])
        w = rng.normal(size=data[index].shape)
        check_grads(lambda t: (t[index] * Tensor(w)).sum(), data)

    def test_rejects_bad_last_axis_indices(self):
        t = Tensor(np.zeros((5, 3)))
        for index in ((..., 3), (..., -1), (..., np.array([0])), (0, 1), (..., 0, 1)):
            with pytest.raises(ShapeError):
                t[index]

    @pytest.mark.parametrize("shape", [(5,), (5, 3)])
    def test_rejects_bad_indices(self, shape):
        t = Tensor(np.zeros(shape))
        bad = (5, -1, np.array([0, 5]), np.array([-1]), np.array([[0, 1]]), [1.5], np.array([True, False]))
        for index in bad:
            with pytest.raises(ShapeError):
                t[index]
        with pytest.raises(ShapeError, match="vector or matrix"):
            Tensor(1.0)[0]
        with pytest.raises(TypeError):
            list(t)

    def test_value_is_not_a_view(self):
        param = Tensor(np.arange(15.0).reshape(5, 3), requires_grad=True)
        for index in self.CASES:
            out = param[index]
            assert not np.shares_memory(out.data, param.data)
            out.data[...] = -1.0
        assert np.array_equal(param.data, np.arange(15.0).reshape(5, 3))


class TestGraphControl:
    def test_no_grad_skips_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert not y.requires_grad and y._backward is None

    def test_no_grad_restores_on_exit(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        assert (x * x).sum().requires_grad

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NumericError, match="scalar"):
            (x * x).backward()

    def test_constant_parents_get_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        (x * c).sum().backward()
        assert c.grad is None


class TestErrors:
    def test_shape_mismatches(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) * Tensor([1.0, 2.0, 3.0])
        with pytest.raises(ShapeError, match="matvec"):
            Tensor([[1.0, 2.0]]) @ Tensor([1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            Tensor([[1.0], [2.0]]) @ Tensor([[1.0, 2.0], [3.0, 4.0]])

    def test_masked_softmax_rejects_all_masked(self):
        with pytest.raises(NumericError, match="no unmasked label"):
            masked_softmax(np.array([1.0, 2.0]), np.array([-np.inf, -np.inf]))
        arrays = [Tensor(a) for a in head_arrays(np.random.default_rng(0), rows=2)]
        mask = np.zeros((2, 4))
        mask[1] = -np.inf
        with pytest.raises(NumericError, match="no unmasked label"):
            attention_head(*arrays, mask, lengths=[4, 4])

    def test_masked_softmax_rejects_bad_mask_values(self):
        with pytest.raises(NumericError):
            masked_softmax(np.array([1.0, 2.0]), np.array([0.0, 0.5]))
        arrays = [Tensor(a) for a in head_arrays(np.random.default_rng(0))]
        with pytest.raises(NumericError, match="0 or -inf"):
            attention_head(*arrays, np.array([0.0, 0.5, 0.0, 0.0]))
        with pytest.raises(ShapeError, match="mask"):
            attention_head(*arrays, np.zeros(3))

    def test_cross_entropy_rejects_masked_target(self):
        arrays = [Tensor(a) for a in head_arrays(np.random.default_rng(0), rows=2)]
        mask = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, -np.inf, 0.0, 0.0]])
        with pytest.raises(NumericError, match="masked"):
            attention_head(*arrays, mask, lengths=[4, 4], targets=[1, 1])

    def test_cross_entropy_rejects_bad_target(self):
        arrays = [Tensor(a) for a in head_arrays(np.random.default_rng(0))]
        with pytest.raises(ShapeError):
            attention_head(*arrays, np.zeros(4), targets=7)
        with pytest.raises(ShapeError):
            attention_head(*arrays, np.zeros(4), targets=[1])


class TestDropout:
    def test_mean_preserved_at_half_rate(self):
        rng = RngStream(0)
        out = dropout(Tensor(np.ones(1_000_000)), 0.5, "train", rng)
        assert 0.99 <= out.data.mean() <= 1.01

    def test_eval_and_zero_rate_are_identity(self):
        x = Tensor(np.arange(5.0))
        assert dropout(x, 0.5, "eval", None) is x
        assert dropout(x, 0.0, "train", RngStream(0)) is x

    def test_grad_masks_match_forward(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        out = dropout(x, 0.3, "train", RngStream(1))
        out.sum().backward()
        assert np.array_equal(x.grad, out.data)

    def test_rejects_bad_rate_and_mode(self):
        with pytest.raises(ConfigError):
            dropout(Tensor([1.0]), 1.0, "train", RngStream(0))
        with pytest.raises(ConfigError):
            dropout(Tensor([1.0]), -0.1, "train", RngStream(0))
        with pytest.raises(ConfigError):
            dropout(Tensor([1.0]), 0.5, "test", RngStream(0))
        with pytest.raises(ConfigError):
            dropout(Tensor([1.0]), 0.5, "train", None)
