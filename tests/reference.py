"""The model's straightforward per-step graph paths, built from generic ops:
the references the fused and batched ops must reproduce.

An LSTM cell of about 15 nodes per step, the encoder as one such step per
token and direction, and the decoder as it was composed before its read-out
was fused: per document and step, attention, softmax, output layer, masked
softmax and cross-entropy, each its own graph node.
"""

import numpy as np

from seq2label.errors import ConfigError, NumericError
from seq2label.model import DecoderState
from seq2label.numerics import Tensor, concat, dropout, lstm_cell_step, sigmoid, tanh
from seq2label.numerics.tensor import _accum, _node


def graph_cell_step(x, state, wx, wh, b):
    """The cell as a graph of generic ops (about 15 nodes per step)."""
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


def graph_softmax(logits, mask=None):
    """Probability vector of a logit vector, masked positions (-inf in
    ``mask``) exactly 0, as one node."""
    z = logits.data if mask is None else logits.data + mask
    e = np.exp(z - z.max())
    p = e / e.sum()

    def bw(g, t=logits, p=p):
        _accum(t, p * (g - float(g @ p)))

    return _node(p, (logits,), bw)


def graph_cross_entropy(probs, target):
    """Negative log-probability of ``target`` under a probability vector."""
    pt = float(probs.data[target])
    if pt <= 0.0:
        raise NumericError("target label masked or zero-probability")

    def bw(g, t=probs):
        full = np.zeros(t.data.shape)
        full[target] = -float(g) / pt
        _accum(t, full)

    return _node(np.float64(-np.log(pt)), (probs,), bw)


def graph_decoder_step(model, state, states, proj, train=False, rng=None, cell_step=lstm_cell_step):
    """One decoder step of one document on vectors, every op its own node;
    returns (next_state, y)."""
    cfg, p = model.config, model.params
    mode = "train" if train else "eval"
    x = concat([model.input_embedding(state), state.context])
    layers = []
    for layer in range(cfg.decoder_layers):
        weights = (p[f"dec.l{layer}.{w}"] for w in ("wx", "wh", "b"))
        h, c = cell_step(x, state.layers[layer], *weights)
        layers.append((h, c))
        x = dropout(h, cfg.dropout, mode, rng) if layer + 1 < cfg.decoder_layers else h
    s_top = layers[-1][0]
    alpha = graph_softmax(tanh(proj + (s_top @ p["attn.w_state"])) @ p["attn.v"])
    context = alpha @ states
    hidden = tanh((p["out.w_state"] @ s_top) + (p["out.w_context"] @ context))
    y = graph_softmax(p["out.w_logits"] @ hidden, state.mask)
    return DecoderState(layers, context, y, state.prev_class, state.mask), y


def graph_sequence_loss(model, states, framed, train=False, rng=None, cell_step=lstm_cell_step):
    """Teacher-forced loss of one encoded document (states (m, 2E)), a sum
    of per-step cross-entropies in step order."""
    if len(framed) < 2:
        raise ConfigError(f"framed sequence needs at least one target, got {framed}")
    proj = states @ model.params["attn.w_enc"]
    state = model.init_state()
    loss = None
    for target in framed[1:]:
        state, y = graph_decoder_step(model, state, states, proj, train, rng, cell_step)
        step = graph_cross_entropy(y, int(target))
        loss = step if loss is None else loss + step
        state = model.advance(state, int(target))
    return loss
