"""LSTM recurrence: a fused whole-sequence op, a single cell step, and the
parameter initializer.

Weight layout: wx is (input_dim, 4H), wh is (H, 4H), b is (4H,), with the four
gate blocks ordered input, forget, cell, output. Both ops share one step
kernel (the logistic function over all 4H pre-activations, tanh on the cell
block, then the state update) and one step backward, derived by hand from
the saved gate values.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .params import ParameterStore
from .tensor import Tensor, _accum, _node, logistic


def _check_weights(input_dim: int, hidden: int, wx: Tensor, wh: Tensor, b: Tensor) -> None:
    if wh.data.shape != (hidden, 4 * hidden):
        raise ShapeError(f"wh shape {wh.data.shape} does not match hidden {hidden}")
    if wx.data.shape != (input_dim, 4 * hidden):
        raise ShapeError(
            f"wx shape {wx.data.shape} does not match input dim {input_dim} and hidden {hidden}"
        )
    if b.data.shape != (4 * hidden,):
        raise ShapeError(f"b shape {b.data.shape} does not match hidden {hidden}")


def _step(pre: np.ndarray, c: np.ndarray, hd: int):
    """One cell update from the (4H,) pre-activations and the previous cell
    state; returns (gate activations [i, f, g, o], c', tanh(c'), h')."""
    a = logistic(pre)
    a[2 * hd:3 * hd] = np.tanh(pre[2 * hd:3 * hd])
    c_new = (a[hd:2 * hd] * c) + (a[:hd] * a[2 * hd:3 * hd])
    tanh_c = np.tanh(c_new)
    return a, c_new, tanh_c, a[3 * hd:] * tanh_c


def _gate_slopes(act: np.ndarray, hd: int) -> np.ndarray:
    """d act / d pre, elementwise, from saved activations of shape (..., 4H)."""
    slopes = act * (1.0 - act)
    g = act[..., 2 * hd:3 * hd]
    slopes[..., 2 * hd:3 * hd] = 1.0 - g * g
    return slopes


def _step_back(dh, dc, a, slopes, c_prev, tanh_c, dtanh_c, d_act):
    """Backward of one ``_step`` from the gradients reaching h' and c'; returns
    (d pre-activations, d c_prev). ``slopes`` is ``_gate_slopes`` of ``a`` and
    ``d_act`` a (4H,) scratch buffer."""
    hd = dh.shape[0]
    dc = dc + (dh * a[3 * hd:]) * dtanh_c
    d_act[:hd] = dc * a[2 * hd:3 * hd]
    d_act[hd:2 * hd] = dc * c_prev
    d_act[2 * hd:3 * hd] = dc * a[:hd]
    d_act[3 * hd:] = dh * tanh_c
    return d_act * slopes, dc * a[hd:2 * hd]


def _previous(states: np.ndarray, reverse: bool) -> np.ndarray:
    """Row t: the state step t started from (zeros for the first row read)."""
    prev = np.zeros_like(states)
    if reverse:
        prev[:-1] = states[1:]
    else:
        prev[1:] = states[:-1]
    return prev


def lstm_sequence(xs: Tensor, wx: Tensor, wh: Tensor, b: Tensor, reverse: bool = False) -> Tensor:
    """Run an LSTM from a zero state over the rows of ``xs`` as one graph node.

    ``xs`` is (T, D); the result is (T, H), row t holding the hidden state
    after reading row t. With ``reverse`` the rows are read last to first, so
    row t then summarizes rows t..T-1. The input projection ``xs @ wx`` is one
    matmul for all steps; backward runs backpropagation through time inside
    the node and ends in one matmul per weight and one for the inputs.
    """
    x = xs.data
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShapeError(f"lstm_sequence expects a non-empty (T, D) matrix, got shape {x.shape}")
    n, hd = x.shape[0], (wh.data.shape[0] if wh.data.ndim == 2 else 0)
    _check_weights(x.shape[1], hd, wx, wh, b)
    order = range(n - 1, -1, -1) if reverse else range(n)
    proj = x @ wx.data
    acts = np.empty((n, 4 * hd))
    cells = np.empty((n, hd))
    out = np.empty((n, hd))
    h, c = np.zeros(hd), np.zeros(hd)
    w_h, bias = wh.data, b.data
    for t in order:
        a, c, _, h = _step(proj[t] + (h @ w_h) + bias, c, hd)
        acts[t], cells[t], out[t] = a, c, h

    def bw(g, xs=xs, wx=wx, wh=wh, b=b):
        tanh_c = np.tanh(cells)
        dtanh_c = 1.0 - tanh_c * tanh_c
        slopes = _gate_slopes(acts, hd)
        c_prev = _previous(cells, reverse)
        d_pre = np.empty((n, 4 * hd))
        d_act = np.empty(4 * hd)
        dh, dc = np.zeros(hd), np.zeros(hd)
        for t in reversed(order):
            dh = g[t] + dh
            d_pre[t], dc = _step_back(dh, dc, acts[t], slopes[t], c_prev[t], tanh_c[t], dtanh_c[t], d_act)
            dh = w_h @ d_pre[t]
        _accum(xs, d_pre @ wx.data.T)
        _accum(wx, x.T @ d_pre)
        _accum(wh, _previous(out, reverse).T @ d_pre)
        _accum(b, d_pre.sum(axis=0))

    return _node(out, (xs, wx, wh, b), bw)


def lstm_cell_step(
    x: Tensor,
    state: tuple[Tensor, Tensor],
    wx: Tensor,
    wh: Tensor,
    b: Tensor,
) -> tuple[Tensor, Tensor]:
    """Advance an LSTM cell one step; returns (h', c').

    Records one graph node holding the joined [h', c'], and one indexing node
    reading out each half.
    """
    h, c = state
    hd = h.data.shape[0]
    _check_weights(x.data.shape[0] if x.data.ndim == 1 else -1, hd, wx, wh, b)
    act, c_val, tanh_c, h_val = _step((x.data @ wx.data) + (h.data @ wh.data) + b.data, c.data, hd)

    def bw(g, x=x, h=h, c=c, wx=wx, wh=wh, b=b):
        d_pre, dc_prev = _step_back(
            g[:hd], g[hd:], act, _gate_slopes(act, hd), c.data, tanh_c, 1.0 - tanh_c * tanh_c, np.empty(4 * hd)
        )
        _accum(x, wx.data @ d_pre)
        _accum(h, wh.data @ d_pre)
        _accum(wx, np.outer(x.data, d_pre))
        _accum(wh, np.outer(h.data, d_pre))
        _accum(b, d_pre)
        _accum(c, dc_prev)

    cell = _node(np.concatenate([h_val, c_val]), (x, h, c, wx, wh, b), bw)
    return cell[:hd], cell[hd:]


def add_lstm_params(
    store: ParameterStore, prefix: str, input_dim: int, hidden: int, rng, scale: float = 0.1
) -> tuple[Tensor, Tensor, Tensor]:
    """Register wx/wh/b for one cell; forget-gate bias starts at 1.0."""
    wx = store.add(f"{prefix}.wx", (input_dim, 4 * hidden), rng, scale)
    wh = store.add(f"{prefix}.wh", (hidden, 4 * hidden), rng, scale)
    b = store.add(f"{prefix}.b", (4 * hidden,), rng, scale)
    b.data[hidden:2 * hidden] = 1.0
    return wx, wh, b
