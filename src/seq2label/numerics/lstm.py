"""LSTM recurrence: a fused op over whole sequences (one document, or a
batch of documents packed time-major) in one direction or in both of a
bidirectional layer, a single cell step (a vector, or a block of rows,
documents or hypotheses, each stepped on its own), and the parameter
initializer.

Weight layout: wx is (input_dim, 4H), wh is (H, 4H), b is (4H,), with the four
gate blocks ordered input, forget, cell, output. Both ops share one step
kernel, run on a (4H,) vector or on a block of rows, and one step backward,
derived by hand from the saved gate values. The kernel takes all four gates
with one tanh: the logistic function is 0.5 * tanh(0.5 * x) + 0.5, so a
(4H,) scale and shift, built once per width, give the input, forget and
output gates and, with scale 1 and no shift, the cell gate's tanh. The
kernel then updates the state. It runs in place on the step's block of
saved gate values, which already holds that step's pre-activations.

The sequence op keeps its packed arrays as (N, D, ·), a direction axis
inside the packed axis, so one step loop runs the kernel once per step on
the (B_t, D, 4H) block of every direction, forward and in backpropagation
through time. The biases are added into the input projection once per
call, and each step writes its recurrent product straight into its block
and adds the projection there, so a step makes no temporaries.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from ..errors import ShapeError
from .params import ParameterStore
from .pool import run, split
from .tensor import Tensor, _accum, _gather, _node, _vecmat


def _check_weights(input_dim: int, hidden: int, wx: Tensor, wh: Tensor, b: Tensor) -> None:
    if wh.data.shape != (hidden, 4 * hidden):
        raise ShapeError(f"wh shape {wh.data.shape} does not match hidden {hidden}")
    if wx.data.shape != (input_dim, 4 * hidden):
        raise ShapeError(
            f"wx shape {wx.data.shape} does not match input dim {input_dim} and hidden {hidden}"
        )
    if b.data.shape != (4 * hidden,):
        raise ShapeError(f"b shape {b.data.shape} does not match hidden {hidden}")


@lru_cache(maxsize=16)
def _gate_affine(hd: int) -> tuple[np.ndarray, np.ndarray]:
    """(4H,) scale and shift that turn one tanh into the four gates:
    ``tanh(pre * scale) * scale + shift`` is 0.5 * tanh(0.5 * x) + 0.5, the
    logistic function as ``tensor.logistic`` computes it, on the i, f and o
    blocks, and tanh(x) on the g block, whose shift -0.0 leaves every value,
    -0.0 too, as it is."""
    scale, shift = np.full(4 * hd, 0.5), np.full(4 * hd, 0.5)
    scale[2 * hd:3 * hd], shift[2 * hd:3 * hd] = 1.0, -0.0
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _step(pre: np.ndarray, c: np.ndarray, a: np.ndarray, c_new: np.ndarray, tanh_c: np.ndarray, h: np.ndarray) -> None:
    """One cell update of (..., 4H) pre-activations from the previous cell
    state, written into ``a`` (gate activations [i, f, g, o]; it may be
    ``pre`` itself), ``c_new``, ``tanh_c`` (tanh of c') and ``h`` (h')."""
    hd = c.shape[-1]
    scale, shift = _gate_affine(hd)
    np.multiply(pre, scale, out=a)
    np.tanh(a, out=a)
    a *= scale
    a += shift
    np.multiply(a[..., hd:2 * hd], c, out=c_new)
    np.multiply(a[..., :hd], a[..., 2 * hd:3 * hd], out=tanh_c)  # i * g, before tanh_c takes tanh(c')
    c_new += tanh_c
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
    document steps on (D, ·) blocks of one vector per direction, else a slice."""
    return first if size == 1 else slice(first, first + size)


def _step_rows(sizes: list[int]) -> list[tuple]:
    """For each step, (its packed rows, the same documents' rows one step
    earlier or None at step 0, their places among the step's documents)."""
    steps, start, prev = [], 0, None
    for size in sizes:
        steps.append((_rows(start, size), None if prev is None else _rows(prev, size), _rows(0, size)))
        prev, start = start, start + size
    return steps


def _by_direction(block: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each direction's rows of a (B, D, K) block, or its vector of a (D, K)
    one, times that direction's (K, M) matrix in ``w`` (D, K, M), written
    into ``out`` (a block of the result's shape) if given. numpy's stacked
    matmul runs one product per direction, on the strided (D, B, K) view (a
    gemm) or on (D, 1, K) (a gemv), with the bits of that direction's
    product taken alone, into ``out``'s matching view as into a fresh
    array."""
    if block.ndim == 2:
        return np.matmul(block[:, None, :], w, out=None if out is None else out[:, None, :])[:, 0]
    return np.matmul(block.swapaxes(0, 1), w, out=None if out is None else out.swapaxes(0, 1)).swapaxes(0, 1)


def _directions(xs: Tensor, dirs: list[tuple[Tensor, Tensor, Tensor, bool]], lengths) -> Tensor:
    """LSTMs of equal width, one per ``(wx, wh, b, reverse)`` in ``dirs``,
    each from a zero state over every document in ``xs``, as one graph node
    holding their (N, H) states side by side.

    Every direction packs the documents with the same ``sizes`` (``_pack``),
    so one loop steps them all: the packed arrays are (N, D, ·), each step's
    block ``[now]`` is contiguous, and its recurrence is one stacked matmul
    (``_by_direction``) against the directions' ``wh`` stacked once per call,
    written into the step's block of ``acts``. The step then adds the packed
    input projection (biases included) there, and the kernel turns the block
    into the gate values in place.
    """
    x = xs.data
    if x.ndim != 2 or x.shape[0] == 0:
        raise ShapeError(f"lstm_sequence expects a non-empty (N, D) matrix, got shape {x.shape}")
    n, hd = x.shape[0], (dirs[0][1].data.shape[0] if dirs[0][1].data.ndim == 2 else 0)
    for wx, wh, b, _ in dirs:
        _check_weights(x.shape[1], hd, wx, wh, b)
    packs = [_pack([n] if lengths is None else lengths, n, reverse) for *_, reverse in dirs]
    rows, sizes = [r for r, _ in packs], packs[0][1]
    nd = len(dirs)
    proj = np.empty((n, nd, 4 * hd))
    for d, (wx, _, b, _) in enumerate(dirs):
        xw = x @ wx.data
        xw += b.data
        proj[:, d] = xw[rows[d]]
    w_h = np.stack([wh.data for _, wh, _, _ in dirs])
    # packed per-step results, kept for backward
    acts, cells, hs = np.empty((n, nd, 4 * hd)), np.empty((n, nd, hd)), np.empty((n, nd, hd))
    tanh_step = np.empty((sizes[0], nd, hd))
    steps = _step_rows(sizes)
    for now, prev, mine in steps:
        a = acts[now]
        if prev is None:  # from the zero state: the projection alone
            _step(proj[now], np.zeros(a.shape[:-1] + (hd,)), a, cells[now], tanh_step[mine], hs[now])
            continue
        _by_direction(hs[prev], w_h, out=a)
        a += proj[now]
        _step(a, cells[prev], a, cells[now], tanh_step[mine], hs[now])
    out = np.concatenate([_unpack(hs[:, d], rows[d]) for d in range(nd)], axis=1)

    def bw(g, xs=xs, dirs=dirs):
        gp = np.stack([g[rows[d], d * hd:(d + 1) * hd] for d in range(nd)], axis=1)
        tanh_c = np.tanh(cells)
        dtanh_c = 1.0 - tanh_c * tanh_c
        d_pre = _gate_slopes(acts, hd)  # each step overwrites its slopes with its d_pre
        d_act = np.empty((sizes[0], nd, 4 * hd))
        dh, dc = np.zeros((sizes[0], nd, hd)), np.zeros((sizes[0], nd, hd))
        w_ht = w_h.swapaxes(1, 2)
        for now, prev, mine in reversed(steps):
            dh_t = dh[mine]
            dh_t += gp[now]
            c_prev = cells[prev] if prev is not None else np.zeros(dh_t.shape)
            _step_back(dh_t, dc[mine], acts[now], d_pre[now], c_prev,
                       tanh_c[now], dtanh_c[now], d_act[mine], d_pre[now])
            _by_direction(d_pre[now], w_ht, out=dh[mine])
        # h_prev of every packed position after step 0: the same document's
        # previous step, sizes[t - 1] positions back
        after = sizes[0]
        back = np.arange(after, n) - np.repeat(np.array(sizes[:-1], dtype=np.int64), sizes[1:])

        def products(d: int, wx: Tensor) -> tuple[np.ndarray, ...]:
            # contiguous, as one direction alone holds it, so the products keep its bits
            d_pre_d = np.ascontiguousarray(d_pre[:, d])
            return (hs[back, d].T @ d_pre_d[after:], x[rows[d]].T @ d_pre_d, d_pre_d.sum(axis=0),
                    _unpack(d_pre_d @ wx.data.T, rows[d]))

        # the directions' products at once (``pool``), added in direction order
        pieces = [partial(products, d, wx) for d, (wx, *_) in enumerate(dirs)]
        grads = run(pieces) if split(n * 4 * hd, nd) > 1 else [piece() for piece in pieces]
        for (wx, wh, b, _), (g_wh, g_wx, g_b, g_x) in zip(dirs, grads):
            _accum(wh, g_wh)
            _accum(wx, g_wx)
            _accum(b, g_b)
            _accum(xs, g_x)

    return _node(out, (xs,) + tuple(t for cell in dirs for t in cell[:3]), bw)


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
    return _directions(xs, [(wx, wh, b, reverse)], lengths)


def bilstm_sequence(xs: Tensor, fwd, bwd, lengths=None) -> Tensor:
    """A forward and a reverse ``lstm_sequence`` over ``xs`` in one step
    loop, as one graph node: ``fwd`` and ``bwd`` are each ``(wx, wh, b)``,
    and the (N, 2H) result holds the forward states, then the reverse ones,
    each with the bits of its own ``lstm_sequence``."""
    return _directions(xs, [(*fwd, False), (*bwd, True)], lengths)


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
    tanh_c, cell = np.empty(hd.shape), np.empty((2 * n,) + hd.shape[1:])
    # the pre-activations, turned into the gate values in place
    act = _vecmat(xd, wx.data)
    act += _vecmat(hd, wh.data)
    act += b.data
    _step(act, c.data, act, cell[n:], tanh_c, cell[:n])

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
    return _gather(cell, slice(None, n)), _gather(cell, slice(n, None))


def add_lstm_params(
    store: ParameterStore, prefix: str, input_dim: int, hidden: int, rng, scale: float = 0.1
) -> tuple[Tensor, Tensor, Tensor]:
    """Register wx/wh/b for one cell; forget-gate bias starts at 1.0."""
    wx = store.add(f"{prefix}.wx", (input_dim, 4 * hidden), rng, scale)
    wh = store.add(f"{prefix}.wh", (hidden, 4 * hidden), rng, scale)
    b = store.add(f"{prefix}.b", (4 * hidden,), rng, scale)
    b.data[hidden:2 * hidden] = 1.0
    return wx, wh, b
