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
    concat,
    cross_entropy,
    dropout,
    no_grad,
    sigmoid,
    softmax,
    softmax_masked,
    take_rows,
    tanh,
)


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


class TestValues:
    def test_matvec_frozen(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([1.0, 1.0])
        assert np.array_equal(out.data, [3.0, 7.0])

    def test_masked_softmax_frozen(self):
        out = softmax_masked(Tensor([1.0, 2.0, 3.0]), np.array([0.0, -np.inf, 0.0]))
        assert out.data[1] == 0.0
        assert np.allclose(out.data, [0.119203, 0.0, 0.880797], atol=1e-6)
        assert math.isclose(out.data.sum(), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_uniform_cross_entropy(self):
        probs = softmax_masked(Tensor(np.zeros(4)), np.zeros(4))
        assert math.isclose(cross_entropy(probs, 2).item(), math.log(4.0), rel_tol=1e-12)

    def test_half_probability_cross_entropy(self):
        loss = cross_entropy(Tensor([0.5, 0.5]), 0)
        assert math.isclose(loss.item(), math.log(2.0), rel_tol=1e-12)

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
        out = softmax_masked(Tensor(logits), mask)
        expect = softmax_masked_oracle(logits, list(mask))
        assert np.allclose(out.data, expect, atol=1e-12)
        for i, keep in enumerate(mask_bits):
            if not keep:
                assert out.data[i] == 0.0


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

    def test_nonlinearities(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5)
        check_grads(lambda t: tanh(t).sum(), x)
        check_grads(lambda t: sigmoid(t).sum(), x)
        check_grads(lambda t: sigmoid(t * 30.0).sum(), x)  # saturation stays finite

    def test_shape_surgery(self):
        rng = np.random.default_rng(4)
        x, m = rng.normal(size=6), rng.normal(size=(4, 3))
        check_grads(lambda t: t.slice(1, 4).sum(), x)
        check_grads(lambda t: t.row(2).sum(), m)
        check_grads(lambda t: t.rows(1, 3).sum(), m)
        check_grads(lambda a, b: concat([a, b]).sum(), x, x.copy())
        check_grads(lambda a, b: (concat([a, b]) @ Tensor([1.0, -1.0, 2.0])).sum(), m[:, :1].copy(), m[:, 1:].copy())

    def test_take_rows_accumulates_duplicates(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        take_rows(table, [1, 1, 2]).sum().backward()
        assert np.array_equal(table.grad, [[0, 0], [2, 2], [1, 1]])

    def test_take_rows_scatter_matches_dense_gradient(self):
        # the gradient lands in a buffer an earlier use of the table already
        # holds; the result must equal adding a dense scatter matrix to it
        rng = np.random.default_rng(6)
        table = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        idx = np.array([4, 0, 4, 6, 4, 0])
        w, v = rng.normal(size=(6, 3)), rng.normal(size=(7, 3))
        ((take_rows(table, idx) * Tensor(w)).sum() + (table * Tensor(v)).sum()).backward()
        dense = np.zeros((7, 3))
        np.add.at(dense, idx, w)
        assert np.max(np.abs(table.grad - (v + dense))) <= 1e-12

    def test_concat_rejects_mixed_shapes(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))])
        with pytest.raises(ShapeError):
            concat([Tensor(np.zeros(2)), Tensor(np.zeros((1, 2)))])
        with pytest.raises(ShapeError):
            concat([])

    def test_masked_softmax_cross_entropy_grad(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=5)
        mask = np.array([0.0, -np.inf, 0.0, 0.0, -np.inf])
        check_grads(lambda t: cross_entropy(softmax_masked(t, mask), 2), x)

    def test_softmax_cross_entropy_grad(self):
        x = np.random.default_rng(6).normal(size=4)
        check_grads(lambda t: cross_entropy(softmax(t), 1), x)

    @given(st.lists(st.floats(-700, 700), min_size=1, max_size=8), st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_bitwise_masked_softmax_with_nothing_masked(self, logits, target):
        target %= len(logits)
        a, b = Tensor(logits, requires_grad=True), Tensor(logits, requires_grad=True)
        pa, pb = softmax(a), softmax_masked(b, np.zeros(len(logits)))
        assert pa.data.tobytes() == pb.data.tobytes()
        if pa.data[target] > 0.0:
            cross_entropy(pa, target).backward()
            cross_entropy(pb, target).backward()
            assert a.grad.tobytes() == b.grad.tobytes()

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
            softmax_masked(Tensor([1.0, 2.0]), np.array([-np.inf, -np.inf]))

    def test_masked_softmax_rejects_bad_mask_values(self):
        with pytest.raises(NumericError):
            softmax_masked(Tensor([1.0, 2.0]), np.array([0.0, 0.5]))

    def test_cross_entropy_rejects_masked_target(self):
        probs = softmax_masked(Tensor([1.0, 2.0, 3.0]), np.array([0.0, -np.inf, 0.0]))
        with pytest.raises(NumericError, match="masked or zero"):
            cross_entropy(probs, 1)

    def test_cross_entropy_rejects_unnormalized(self):
        with pytest.raises(NumericError, match="sum"):
            cross_entropy(Tensor([0.5, 0.2]), 0)

    def test_cross_entropy_rejects_bad_target(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor([0.5, 0.5]), 7)


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
