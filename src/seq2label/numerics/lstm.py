"""LSTM recurrence: a fused op over whole sequences (one document, or a
batch of documents packed time-major), a single cell step (a vector, or
a block of rows, documents or hypotheses, each stepped on its own), and
the parameter initializer.

Weight layout: wx is (input_dim, 4H), wh is (H, 4H), b is (4H,), with the four
gate blocks ordered input, forget, cell, output. Both ops share one step
kernel (the logistic function over all 4H pre-activations, tanh on the cell
block, then the state update), run on a (4H,) vector or on a (B, 4H) block
of documents, and one step backward, derived by hand from the saved gate
values.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .params import ParameterStore
from .tensor import Tensor, _accum, _node, _vecmat, logistic


def _check_weights(input_dim: int, hidden: int, wx: Tensor, wh: Tensor, b: Tensor) -> None:
    if wh.data.shape != (hidden, 4 * hidden):
        raise ShapeError(f"wh shape {wh.data.shape} does not match hidden {hidden}")
    if wx.data.shape != (input_dim, 4 * hidden):
        raise ShapeError(
            f"wx shape {wx.data.shape} does not match input dim {input_dim} and hidden {hidden}"
        )
    if b.data.shape != (4 * hidden,):
        raise ShapeError(f"b shape {b.data.shape} does not match hidden {hidden}")


def _step(pre: np.ndarray, c: np.ndarray, a: np.ndarray, c_new: np.ndarray, tanh_c: np.ndarray, h: np.ndarray) -> None:
    """One cell update of (..., 4H) pre-activations from the previous cell
    state, written into ``a`` (gate activations [i, f, g, o]), ``c_new``,
    ``tanh_c`` (tanh of c') and ``h`` (h')."""
    hd = c.shape[-1]
    logistic(pre, out=a)
    g = a[..., 2 * hd:3 * hd]
    np.tanh(pre[..., 2 * hd:3 * hd], out=g)
    np.multiply(a[..., hd:2 * hd], c, out=c_new)
    c_new += a[..., :hd] * g
    np.tanh(c_new, out=tanh_c)
    np.multiply(a[..., 3 * hd:], tanh_c, out=h)


def _gate_slopes(act: np.ndarray, hd: int) -> np.ndarray:
    """d act / d pre, elementwise, from saved activations of shape (..., 4H)."""
    slopes = act * (1.0 - act)
    g = act[..., 2 * hd:3 * hd]
    slopes[..., 2 * hd:3 * hd] = 1.0 - g * g
    return slopes


def _step_back(dh, dc, a, slopes, c_prev, tanh_c, dtanh_c, d_act, d_pre) -> None:
    """Backward of one ``_step`` from the gradients reaching h' and c' (``dc``
    is updated in place to the gradient reaching c_prev); writes the gradient
    of the pre-activations into ``d_pre``, which may be ``slopes`` itself.
    ``slopes`` is ``_gate_slopes`` of ``a`` and ``d_act`` a scratch buffer of
    ``a``'s shape."""
    hd = dh.shape[-1]
    dc += (dh * a[..., 3 * hd:]) * dtanh_c
    np.multiply(dc, a[..., 2 * hd:3 * hd], out=d_act[..., :hd])
    np.multiply(dc, c_prev, out=d_act[..., hd:2 * hd])
    np.multiply(dc, a[..., :hd], out=d_act[..., 2 * hd:3 * hd])
    np.multiply(dh, tanh_c, out=d_act[..., 3 * hd:])
    np.multiply(d_act, slopes, out=d_pre)
    dc *= a[..., hd:2 * hd]


def _pack(lengths, n: int, reverse: bool) -> tuple[np.ndarray | slice, list[int]]:
    """Time-major, longest-first order of documents laid end to end.

    Returns ``(rows, sizes)``: ``sizes[t]`` documents are still running at
    step t, and step t fills the next ``sizes[t]`` packed positions, longest
    document first, so each step's documents are a prefix of the previous
    step's. ``rows[p]`` is the input row read at packed position p: a
    document's own first token at step 0, or its own last one with
    ``reverse``. For one document ``rows`` is a slice, so packing is a view.
    """
    lens = np.asarray(lengths)
    if lens.ndim != 1 or lens.size == 0 or lens.dtype.kind not in "iu" or lens.min() < 1 or lens.sum() != n:
        raise ShapeError(f"lengths must be a non-empty vector of positive integers summing to {n}, got {lengths!r}")
    if lens.size == 1:
        return slice(None, None, -1 if reverse else 1), [1] * n
    order = np.argsort(-lens, kind="stable")
    starts = (np.cumsum(lens) - lens)[order]
    lens = lens[order]
    steps = np.arange(lens[0])
    running = (lens[:, None] > steps).T
    offsets = (lens[:, None] - 1 - steps) if reverse else steps
    return (starts[:, None] + offsets).T[running], running.sum(axis=1).tolist()


def _unpack(packed: np.ndarray, rows) -> np.ndarray:
    """The rows of a packed array back in input order."""
    if isinstance(rows, slice):
        return packed[rows]  # a slice from _pack is its own inverse
    out = np.empty_like(packed)
    out[rows] = packed
    return out


def _rows(first: int, size: int):
    """``size`` packed rows from ``first``: an int for one row, so that a lone
    document steps on vectors, else a slice."""
    return first if size == 1 else slice(first, first + size)


def _step_rows(sizes: list[int]) -> list[tuple]:
    """For each step, (its packed rows, the same documents' rows one step
    earlier or None at step 0, their places among the step's documents)."""
    steps, start, prev = [], 0, None
    for size in sizes:
        steps.append((_rows(start, size), None if prev is None else _rows(prev, size), _rows(0, size)))
        prev, start = start, start + size
    return steps


def lstm_sequence(
    xs: Tensor, wx: Tensor, wh: Tensor, b: Tensor, reverse: bool = False, lengths=None
) -> Tensor:
    """Run an LSTM from a zero state over each document in ``xs`` as one graph node.

    ``xs`` is (N, D): documents of ``lengths`` rows laid end to end (one
    document of N rows by default). The result is (N, H), row t holding the
    hidden state after reading row t of its document. With ``reverse`` each
    document is read last row to first, so row t then summarizes the rest of
    its document from t on. Inside, the rows are packed time-major, longest
    document first (``_pack``): step t reads one contiguous block of the
    documents still running, with no padding. The input projection
    ``xs @ wx`` is one matmul for all rows; backward runs backpropagation
    through time inside the node and ends in one matmul per weight and one for
    the inputs.
    """
    x = xs.data
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShapeError(f"lstm_sequence expects a non-empty (N, D) matrix, got shape {x.shape}")
    n, hd = x.shape[0], (wh.data.shape[0] if wh.data.ndim == 2 else 0)
    _check_weights(x.shape[1], hd, wx, wh, b)
    rows, sizes = _pack([n] if lengths is None else lengths, n, reverse)
    proj = (x @ wx.data)[rows]
    # packed per-step results, kept for backward
    acts, cells, hs = np.empty((n, 4 * hd)), np.empty((n, hd)), np.empty((n, hd))
    tanh_step = np.empty((sizes[0], hd))
    w_h, bias = wh.data, b.data
    steps = _step_rows(sizes)
    for now, prev, mine in steps:
        h, c = (hs[prev], cells[prev]) if prev is not None else (np.zeros(hs[now].shape),) * 2
        _step(proj[now] + (h @ w_h) + bias, c, acts[now], cells[now], tanh_step[mine], hs[now])
    out = _unpack(hs, rows)

    def bw(g, xs=xs, wx=wx, wh=wh, b=b):
        gp = g[rows]
        tanh_c = np.tanh(cells)
        dtanh_c = 1.0 - tanh_c * tanh_c
        d_pre = _gate_slopes(acts, hd)  # each step overwrites its slopes with its d_pre
        d_act = np.empty((sizes[0], 4 * hd))
        dh, dc = np.zeros((sizes[0], hd)), np.zeros((sizes[0], hd))
        for now, prev, mine in reversed(steps):
            dh_t = dh[mine]
            dh_t += gp[now]
            c_prev = cells[prev] if prev is not None else np.zeros(dh_t.shape)
            _step_back(dh_t, dc[mine], acts[now], d_pre[now], c_prev,
                       tanh_c[now], dtanh_c[now], d_act[mine], d_pre[now])
            dh[mine] = d_pre[now] @ w_h.T
        # h_prev of every packed position after step 0: the same document's
        # previous step, sizes[t - 1] positions back
        after = sizes[0]
        h_prev = hs[np.arange(after, n) - np.repeat(np.array(sizes[:-1], dtype=np.int64), sizes[1:])]
        _accum(wh, h_prev.T @ d_pre[after:])
        _accum(wx, x[rows].T @ d_pre)
        _accum(b, d_pre.sum(axis=0))
        _accum(xs, _unpack(d_pre @ wx.data.T, rows))

    return _node(out, (xs, wx, wh, b), bw)


def lstm_cell_step(
    x: Tensor,
    state: tuple[Tensor, Tensor],
    wx: Tensor,
    wh: Tensor,
    b: Tensor,
) -> tuple[Tensor, Tensor]:
    """Advance an LSTM cell one step; returns (h', c').

    ``x``, ``h`` and ``c`` are vectors, or (B, ·) matrices with one row per
    document or hypothesis. Each row's products are taken on their own
    (``_vecmat``), so a row steps with exactly the bits of that row stepped
    as a vector. Records one graph node holding h' and c' joined along the
    first axis, and one indexing node reading out each half.
    """
    h, c = state
    xd, hd = x.data, h.data
    if xd.ndim not in (1, 2) or hd.ndim != xd.ndim or hd.shape[:-1] != xd.shape[:-1] or c.data.shape != hd.shape:
        raise ShapeError(f"lstm_cell_step expects x, h and c of one rank and row count, got "
                         f"{xd.shape}, {hd.shape}, {c.data.shape}")
    _check_weights(xd.shape[-1], hd.shape[-1], wx, wh, b)
    n, hidden = hd.shape[0], hd.shape[-1]
    act, tanh_c = np.empty(hd.shape[:-1] + (4 * hidden,)), np.empty(hd.shape)
    cell = np.empty((2 * n,) + hd.shape[1:])
    pre = _vecmat(xd, wx.data) + _vecmat(hd, wh.data)
    _step(pre + b.data, c.data, act, cell[n:], tanh_c, cell[:n])

    def bw(g, x=x, h=h, c=c, wx=wx, wh=wh, b=b):
        d_pre, dc = np.empty(act.shape), g[n:].copy()
        _step_back(g[:n], dc, act, _gate_slopes(act, hidden), c.data, tanh_c, 1.0 - tanh_c * tanh_c,
                   np.empty(act.shape), d_pre)
        # one document is one row of the (B, ·) forms
        x2, h2, d2 = (a.reshape(-1, a.shape[-1]) for a in (x.data, h.data, d_pre))
        _accum(x, (d2 @ wx.data.T).reshape(x.data.shape))
        _accum(h, (d2 @ wh.data.T).reshape(h.data.shape))
        _accum(wx, x2.T @ d2)
        _accum(wh, h2.T @ d2)
        _accum(b, d2.sum(axis=0))
        _accum(c, dc)

    cell = _node(cell, (x, h, c, wx, wh, b), bw)
    return cell[:n], cell[n:]


def add_lstm_params(
    store: ParameterStore, prefix: str, input_dim: int, hidden: int, rng, scale: float = 0.1
) -> tuple[Tensor, Tensor, Tensor]:
    """Register wx/wh/b for one cell; forget-gate bias starts at 1.0."""
    wx = store.add(f"{prefix}.wx", (input_dim, 4 * hidden), rng, scale)
    wh = store.add(f"{prefix}.wh", (hidden, 4 * hidden), rng, scale)
    b = store.add(f"{prefix}.b", (4 * hidden,), rng, scale)
    b.data[hidden:2 * hidden] = 1.0
    return wx, wh, b
