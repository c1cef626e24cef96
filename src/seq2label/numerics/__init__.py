"""Autodiff tensors, RNG, parameters, optimizer, LSTM ops, gradient checks."""

from .gradcheck import finite_difference_check
from .lstm import add_lstm_params, lstm_cell_step, lstm_sequence
from .params import ParameterStore, adam_step, clip_gradients
from .rng import RngStream
from .tensor import (
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

__all__ = [
    "Tensor",
    "ParameterStore",
    "RngStream",
    "adam_step",
    "add_lstm_params",
    "clip_gradients",
    "concat",
    "cross_entropy",
    "dropout",
    "finite_difference_check",
    "lstm_cell_step",
    "lstm_sequence",
    "no_grad",
    "sigmoid",
    "softmax",
    "softmax_masked",
    "take_rows",
    "tanh",
]
