"""Autodiff tensors, RNG, parameters, optimizer, LSTM ops, the attention head, gradient checks, the sweeps' thread pool."""

from .gradcheck import finite_difference_check
from .head import attention_head, masked_softmax
from .lstm import add_lstm_params, bilstm_sequence, lstm_cell_step, lstm_sequence
from .params import ParameterStore, adam_step, clip_gradients, early_adam_step
from .rng import RngStream
from .tensor import (
    Tensor,
    concat,
    dropout,
    matvec,
    no_grad,
    sigmoid,
    tanh,
    vecmat,
)

__all__ = [
    "Tensor",
    "ParameterStore",
    "RngStream",
    "adam_step",
    "add_lstm_params",
    "attention_head",
    "bilstm_sequence",
    "clip_gradients",
    "concat",
    "dropout",
    "early_adam_step",
    "finite_difference_check",
    "lstm_cell_step",
    "lstm_sequence",
    "masked_softmax",
    "matvec",
    "no_grad",
    "sigmoid",
    "tanh",
    "vecmat",
]
