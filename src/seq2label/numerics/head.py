"""The decoder's read-out as one graph node: additive attention over the
encoder states, the output layer, the masked softmax and the training loss.

For a top decoder state s the node computes

    alpha   = softmax(tanh(proj + s @ w_query) @ v)      over s's own document
    context = alpha @ states
    hidden  = tanh(w_out_state @ s + w_out_context @ context)
    y       = softmax(w_logits @ hidden + mask)
    loss    = logsumexp(w_logits @ hidden + mask) - logit[target]

The loss is taken in log space, so a legal target whose probability
underflows to 0.0 in ``y`` still has a finite loss and gradient. ``s`` is a
vector (the expressions above, in this order) or a matrix of rows, each
row's own products (query, output layer, logits) one gemv per row
(``_vecmat``/``_matvec``) with the bits of that row given alone. Only the
attention depends on the layout: rows over one document (a search's
hypotheses) each take the expressions above, while row b of a batch
attends over document b of the documents laid end to end in ``states``.
Backward is written by hand.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericError, ShapeError
from .tensor import Tensor, _accum, _matvec, _node, _vecmat

# The attention of rows over one shared document holds a (rows, m, A) tanh
# block; it is built this many elements at a time (2 MiB), so a wide beam
# over a long document does not grow it without bound.
HEAD_BLOCK = 262_144


def _softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax along the last axis, with the max and the normalizer (both
    kept as a trailing axis of length 1). -inf entries come out exactly 0."""
    top = z.max(axis=-1, keepdims=True)
    e = np.exp(z - top)
    total = e.sum(axis=-1, keepdims=True)
    return e / total, top, total


def _segments(lens) -> tuple[np.ndarray, np.ndarray]:
    """For B documents of ``lens`` rows laid end to end, m rows in all: each
    row's document, and the (B, m) 0/1 matrix whose entry [b, i] is 1 where
    row i is of document b."""
    owner = np.repeat(np.arange(len(lens)), lens)
    seg = np.zeros((len(lens), owner.size))
    seg[owner, np.arange(owner.size)] = 1.0
    return owner, seg


def masked_softmax(logits: np.ndarray, mask: np.ndarray, targets=None):
    """Probabilities along the last axis of ``logits``, masked positions exactly 0.

    ``mask`` holds 0.0 at allowed positions and -inf at forbidden ones; it is
    added to the logits before a max-subtracted exponentiation, so finite
    logits never overflow. Given ``targets`` (one class per row), returns
    ``(probabilities, loss)`` with each row's loss taken in log space:
    logsumexp of the masked logits minus the target's logit.
    """
    logits, mask = np.asarray(logits, dtype=np.float64), np.asarray(mask, dtype=np.float64)
    if mask.shape != logits.shape:
        raise ShapeError(f"logits shape {logits.shape} and mask shape {mask.shape} must be equal")
    allowed = mask == 0.0
    if not np.all(allowed | (mask == -np.inf)):
        raise NumericError("mask entries must be 0 or -inf")
    if not allowed.any(axis=-1).all():
        raise NumericError("no unmasked label")
    z = logits + mask
    y, top, total = _softmax(z)
    if targets is None:
        return y
    tgt = np.asarray(targets)
    classes = logits.shape[-1]
    if tgt.shape != logits.shape[:-1] or tgt.dtype.kind not in "iu" or tgt.min() < 0 or tgt.max() >= classes:
        raise ShapeError(f"targets {targets!r} must be one class in [0, {classes}) per row")
    if not np.take_along_axis(allowed, tgt[..., None], -1).all():
        raise NumericError("target label masked")
    return y, (np.log(total) - (np.take_along_axis(z, tgt[..., None], -1) - top))[..., 0]


def _blocks(rows: int, per_row: int) -> list[slice]:
    """Consecutive row ranges covering ``rows`` rows of ``per_row`` elements
    each, at most ``HEAD_BLOCK`` elements per range (one row at least)."""
    step = max(1, HEAD_BLOCK // per_row)
    return [slice(i, i + step) for i in range(0, rows, step)]


def attention_head(
    s: Tensor,
    states: Tensor,
    proj: Tensor,
    w_query: Tensor,
    v: Tensor,
    w_out_state: Tensor,
    w_out_context: Tensor,
    w_logits: Tensor,
    mask: np.ndarray,
    lengths=None,
    targets=None,
) -> tuple[Tensor, np.ndarray]:
    """Attention, output layer, masked softmax and loss for each row of ``s``.

    ``states`` (N, 2E) and ``proj`` (N, A) hold documents of ``lengths`` rows
    laid end to end (one document of N rows by default). When they hold one
    document, every row of ``s`` attends over it, each row with exactly the
    arithmetic of that row given alone as a vector (the hypotheses of a
    search); otherwise row b of ``s`` attends over document b, and
    documents past the last row of ``s`` are not read. ``mask`` has one row
    of 0/-inf entries per row of ``s``, over the C output classes.
    ``targets`` (an int per row) adds the loss.

    Returns ``(out, alpha)``: ``out`` joins [context (2E), y (C), loss (1,
    with targets only)] along its last axis, one row per row of ``s``, and
    is read out by indexing; ``alpha`` holds the attention weights (a row
    per row of ``s`` over the one document, else each document's weights
    end to end) and carries no gradient.
    """
    sd, st, pj = s.data, states.data, proj.data
    if sd.ndim not in (1, 2) or sd.shape[0] == 0 or st.ndim != 2 or pj.ndim != 2 or pj.shape[0] != st.shape[0]:
        raise ShapeError(f"attention_head expects s (H,) or (B, H) and (N, ·) states and projections, "
                         f"got {sd.shape}, {st.shape}, {pj.shape}")
    rows = 1 if sd.ndim == 1 else sd.shape[0]
    shared = sd.ndim == 1 or lengths is None or len(lengths) == 1
    lens = [st.shape[0] if lengths is None else lengths[0]] if shared else lengths[:rows]
    m = sum(lens)
    if (not shared and len(lens) != rows) or min(lens) < 1 or m > st.shape[0]:
        raise ShapeError(f"lengths {lengths!r} do not cover {rows} documents of the {st.shape[0]} state rows")
    st, pj = st[:m], pj[:m]
    # every product of a row's own values is one gemv per row
    # (``_vecmat``/``_matvec``): for a vector these are the plain expressions
    q = _vecmat(sd, w_query.data)
    if shared:
        # ``th @ v`` is one gemv per row too
        blocks = _blocks(rows, pj.size)
        if len(blocks) == 1:
            alpha = _softmax(np.tanh(pj + q[..., None, :]) @ v.data)[0]
        else:
            alpha = np.concatenate([_softmax(np.tanh(pj + q[b, None, :]) @ v.data)[0] for b in blocks])
        ctx = _vecmat(alpha, st)
    else:
        starts = np.cumsum(lens) - lens
        owner, seg = _segments(lens)
        th = np.tanh(pj + q[owner])
        scores = th @ v.data
        e = np.exp(scores - np.maximum.reduceat(scores, starts)[owner])
        alpha = e / np.add.reduceat(e, starts)[owner]
        ctx = (seg * alpha) @ st
    hidden = np.tanh(_matvec(w_out_state.data, sd) + _matvec(w_out_context.data, ctx))
    logits = _matvec(w_logits.data, hidden)
    tgt = None if targets is None else np.asarray(targets)
    if tgt is None:
        y = masked_softmax(logits, mask)
        parts = [ctx, y]
    else:
        y, loss = masked_softmax(logits, mask, tgt)
        parts = [ctx, y, loss[..., None]]
    classes = y.shape[-1]

    def bw(g, s=s, states=states, proj=proj, w_query=w_query, v=v,
           w_out_state=w_out_state, w_out_context=w_out_context, w_logits=w_logits):
        # a vector is the one-row case
        g = g.reshape(rows, -1)
        s2, ctx2, hid2, y2 = (a.reshape(rows, -1) for a in (sd, ctx, hidden, y))
        width = ctx2.shape[1]
        g_ctx, g_y = g[:, :width], g[:, width:width + classes]
        dz = y2 * (g_y - (g_y * y2).sum(axis=1, keepdims=True))
        if tgt is not None:
            g_loss = g[:, -1]
            dz += g_loss[:, None] * y2
            dz[np.arange(rows), tgt.reshape(rows)] -= g_loss
        _accum(w_logits, dz.T @ hid2)
        du = (dz @ w_logits.data) * (1.0 - hid2 * hid2)
        _accum(w_out_state, du.T @ s2)
        _accum(w_out_context, du.T @ ctx2)
        d_ctx = g_ctx + du @ w_out_context.data
        if shared:
            a2 = alpha.reshape(rows, m)
            _accum(states, a2.T @ d_ctx, slice(0, m))
            d_alpha = d_ctx @ st.T
            d_scores = a2 * (d_alpha - (a2 * d_alpha).sum(axis=1, keepdims=True))
            q2 = q.reshape(rows, -1)
            d_query, g_v, g_proj = np.empty(q2.shape), np.zeros(v.data.shape), np.zeros(pj.shape)
            for block in blocks:
                t = np.tanh(pj + q2[block, None, :])
                g_v += np.tensordot(d_scores[block], t, axes=2)
                d_pre = d_scores[block, :, None] * v.data * (1.0 - t * t)
                g_proj += d_pre.sum(axis=0)
                d_query[block] = d_pre.sum(axis=1)
        else:
            _accum(states, (seg * alpha).T @ d_ctx, slice(0, m))
            d_alpha = (d_ctx @ st.T)[owner, np.arange(m)]
            d_scores = alpha * (d_alpha - (seg @ (alpha * d_alpha))[owner])
            g_v = th.T @ d_scores
            g_proj = np.outer(d_scores, v.data) * (1.0 - th * th)
            d_query = seg @ g_proj
        _accum(v, g_v)
        _accum(proj, g_proj, slice(0, m))
        _accum(w_query, s2.T @ d_query)
        _accum(s, ((du @ w_out_state.data) + (d_query @ w_query.data.T)).reshape(sd.shape))

    parents = (s, states, proj, w_query, v, w_out_state, w_out_context, w_logits)
    out = _node(np.concatenate(parts, axis=-1), parents, bw)
    return out, alpha
