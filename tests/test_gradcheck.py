"""The finite-difference checker must bless correct gradients and flag wrong ones."""

import numpy as np
import pytest

from seq2label.errors import NumericError
from seq2label.model import ModelConfig, Seq2LabelModel
from seq2label.numerics import (
    ParameterStore,
    RngStream,
    Tensor,
    attention_head,
    finite_difference_check,
    sigmoid,
    tanh,
)
from seq2label.numerics import head
from seq2label.numerics.tensor import _node
from seq2label.trainer import decoder_losses


def test_accepts_correct_gradients():
    store = ParameterStore()
    w = store.add("w", (4, 3), RngStream(0))
    v = store.add("v", (3,), RngStream(1))
    x = np.linspace(-1, 1, 4)

    def loss():
        return (tanh(Tensor(x) @ w) * sigmoid(v)).sum()

    worst = finite_difference_check(loss, store, samples_per_param=6)
    assert worst < 1e-6


def test_flags_wrong_backward():
    store = ParameterStore()
    v = store.add("v", (3,), RngStream(0))

    def broken_square(t):
        # d/dt should be 2t; report t instead
        def bw(g, t=t):
            if t.grad is None:
                t.grad = np.zeros(t.data.shape)
            t.grad += g * t.data

        return _node(t.data * t.data, (t,), bw)

    def loss():
        return broken_square(v).sum()

    worst = finite_difference_check(loss, store, samples_per_param=3)
    assert worst > 0.1


def test_raises_on_nonfinite_probe():
    store = ParameterStore()
    v = store.add("v", (1,), RngStream(0))
    v.data[0] = 1e-6  # probing v - eps goes negative, where log is undefined

    def loss():
        with np.errstate(invalid="ignore"):
            out = np.log(v.data[0])

        def bw(g, v=v):
            if v.grad is None:
                v.grad = np.zeros(1)
            v.grad += g / v.data

        return _node(np.float64(out), (v,), bw)

    with pytest.raises(NumericError, match="v"):
        finite_difference_check(loss, store, eps=1e-5)


def test_deterministic_given_rng_seed():
    store = ParameterStore()
    w = store.add("w", (5, 5), RngStream(2))

    def loss():
        return tanh(w).sum()

    a = finite_difference_check(loss, store, rng=RngStream(7))
    b = finite_difference_check(loss, store, rng=RngStream(7))
    assert a == b


@pytest.mark.parametrize(
    "rows, lengths, block",
    [(None, None, None), (3, None, None), (3, None, 1), (3, [2, 5, 3], None)],
    ids=["one-document", "hypotheses", "hypotheses-in-blocks", "batch"],
)
def test_attention_head_gradients(rows, lengths, block, monkeypatch):
    # a vector state over one document; three hypotheses over one document,
    # together or a row at a time; or one row per document of a batch whose
    # states hold a further, finished document the rows do not read
    if block is not None:
        monkeypatch.setattr(head, "HEAD_BLOCK", block)
    n = 4 if lengths is None else sum(lengths) + 2
    hidden, width, attn, proj, classes = 3, 4, 3, 3, 5
    shapes = {
        "s": (hidden,) if rows is None else (rows, hidden), "states": (n, width), "proj": (n, attn),
        "w_query": (hidden, attn), "v": (attn,), "w_out_state": (proj, hidden),
        "w_out_context": (proj, width), "w_logits": (classes, proj),
    }
    store = ParameterStore()
    tensors = [store.add(name, shape, RngStream(i)) for i, (name, shape) in enumerate(shapes.items())]
    for i, t in enumerate(tensors):
        t.data = RngStream(i).uniform(-1.0, 1.0, t.data.shape)
    mask = np.zeros(shapes["s"][:-1] + (classes,))
    mask[..., 1] = -np.inf
    targets = 3 if rows is None else np.array([0, 4, 2])
    weights = np.random.default_rng(0).normal(size=shapes["s"][:-1] + (width + classes + 1,))

    def loss():
        out, _ = attention_head(*tensors, mask, lengths, targets)
        return (out * Tensor(weights)).sum()

    assert finite_difference_check(loss, store, samples_per_param=10**9) < 1e-6
    if lengths is not None:
        assert not store["states"].grad[-2:].any() and not store["proj"].grad[-2:].any()


@pytest.mark.parametrize("ge_mode", ["off", "gate", "lambda"])
def test_batched_decoder_gradients(ge_mode):
    # every coordinate of the model through one batch of three documents with
    # label sequences of three lengths, two decoder layers
    m = Seq2LabelModel(
        ModelConfig(embed_size=3, encoder_hidden=2, decoder_hidden=3, decoder_layers=2, ge_mode=ge_mode),
        vocab_size=6, num_labels=4, rng=RngStream(1),
    )
    tokens, lengths = np.array([2, 5, 3, 4, 4, 1]), [3, 1, 2]
    targets = [[m.bos_class, 2, m.eos_class], [m.bos_class, 1, 0, 3, m.eos_class], [m.bos_class, m.eos_class]]

    def loss():
        return decoder_losses(m, m.encode_batch(tokens, lengths), targets).sum()

    assert finite_difference_check(loss, m.params, eps=2e-3, samples_per_param=10**9) < 1e-4
