"""Encoder-decoder model that emits a label sequence for a token sequence.

A bidirectional LSTM reads the tokens; a unidirectional LSTM decoder emits one
label id per step, attending over the encoder states. The decoder's softmax is
masked so that a real label can be produced at most once per document, while
the terminal class stays available at every step. The decoder input at step t
is built from the previous prediction, optionally blending the chosen label's
embedding with the probability-weighted average of all label embeddings
(``global_embedding``/``fixed_lambda_embedding``), which softens the damage of
a wrong greedy choice earlier in the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericError
from .numerics import (
    ParameterStore,
    RngStream,
    Tensor,
    add_lstm_params,
    concat,
    dropout,
    lstm_cell_step,
    lstm_sequence,
    sigmoid,
    softmax,
    softmax_masked,
    tanh,
)

GE_MODES = ("off", "gate", "lambda")


@dataclass
class ModelConfig:
    embed_size: int = 64
    encoder_hidden: int = 64
    decoder_hidden: int = 64
    encoder_layers: int = 1
    decoder_layers: int = 1
    dropout: float = 0.0
    ge_mode: str = "off"
    ge_lambda: float = 0.5
    use_mask: bool = True

    def __post_init__(self):
        for name in ("embed_size", "encoder_hidden", "decoder_hidden", "encoder_layers", "decoder_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.ge_mode not in GE_MODES:
            raise ConfigError(f"ge_mode must be one of {GE_MODES}, got {self.ge_mode!r}")
        if not 0.0 <= self.ge_lambda <= 1.0:
            raise ConfigError(f"ge_lambda must be in [0, 1], got {self.ge_lambda}")


@dataclass
class EncoderOutput:
    states: Tensor        # (m, 2 * encoder_hidden)
    proj: Tensor          # (m, attn_dim), states already projected for scoring
    length: int


@dataclass
class DecoderState:
    """Everything one decoding hypothesis carries between steps.

    ``y_prev`` is the full output distribution of the previous step (None
    before the first step); ``prev_class`` is the class actually chosen from
    it. ``context`` is the attention context that produced ``y_prev``; the
    next step feeds it into the recurrence before computing a fresh one.
    """

    layers: list[tuple[Tensor, Tensor]]
    context: Tensor
    y_prev: Tensor | None
    prev_class: int
    mask: np.ndarray = field(repr=False)


def update_mask(mask: np.ndarray, emitted: int, eos_class: int) -> np.ndarray:
    """Return a copy of ``mask`` with ``emitted`` struck out.

    Emitting the terminal class changes nothing. Striking an entry twice means
    the caller ignored the mask, so that is an error rather than a no-op.
    """
    out = mask.copy()
    if emitted == eos_class:
        return out
    if not 0 <= emitted < mask.shape[0]:
        raise NumericError(f"emitted class {emitted} out of range for mask of {mask.shape[0]}")
    if np.isneginf(mask[emitted]):
        raise NumericError(f"class {emitted} was already emitted")
    out[emitted] = -np.inf
    return out


class Seq2LabelModel:
    """Holds the parameter store and the forward computations.

    Output classes are 0..L-1 for real labels plus ``eos_class`` (= L) as the
    stop signal. The label embedding table has two extra rows: one for the
    terminal class and one for the start marker that primes the first step.
    """

    def __init__(self, config: ModelConfig, vocab_size: int, num_labels: int, rng: RngStream):
        if vocab_size < 3:
            raise ConfigError(f"vocab_size must cover pad/unk plus tokens, got {vocab_size}")
        if num_labels < 1:
            raise ConfigError(f"num_labels must be at least 1, got {num_labels}")
        self.config = config
        self.vocab_size = vocab_size
        self.num_labels = num_labels
        self.eos_class = num_labels
        self.bos_class = num_labels + 1
        self.params = ParameterStore()

        cfg = config
        k = cfg.embed_size
        enc2 = 2 * cfg.encoder_hidden
        p = self.params
        p.add("embed.tokens", (vocab_size, k), rng)
        p.add("embed.labels", (num_labels + 2, k), rng)
        for layer in range(cfg.encoder_layers):
            in_dim = k if layer == 0 else enc2
            for direction in ("fwd", "bwd"):
                add_lstm_params(p, f"enc.l{layer}.{direction}", in_dim, cfg.encoder_hidden, rng)
        for layer in range(cfg.decoder_layers):
            in_dim = (k + enc2) if layer == 0 else cfg.decoder_hidden
            add_lstm_params(p, f"dec.l{layer}", in_dim, cfg.decoder_hidden, rng)
        attn_dim = cfg.decoder_hidden
        p.add("attn.w_enc", (enc2, attn_dim), rng)
        p.add("attn.w_state", (cfg.decoder_hidden, attn_dim), rng)
        p.add("attn.v", (attn_dim,), rng)
        proj_dim = cfg.decoder_hidden
        p.add("out.w_state", (proj_dim, cfg.decoder_hidden), rng)
        p.add("out.w_context", (proj_dim, enc2), rng)
        p.add("out.w_logits", (num_labels + 1, proj_dim), rng)
        if cfg.ge_mode == "gate":
            p.add("ge.w_choice", (k, k), rng)
            p.add("ge.w_average", (k, k), rng)

    # -- encoder ------------------------------------------------------------

    def embed(self, token_ids: np.ndarray) -> Tensor:
        """Token embedding rows for one document, shape (m, embed_size)."""
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.ndim != 1 or ids.size == 0:
            raise ConfigError(f"token_ids must be a non-empty vector, got shape {ids.shape}")
        return self.params["embed.tokens"][ids]

    def encode(self, token_ids: np.ndarray, train: bool = False, rng: RngStream | None = None) -> EncoderOutput:
        """Run the bidirectional encoder; states concatenate fwd and bwd halves."""
        cfg = self.config
        mode = "train" if train else "eval"
        x = dropout(self.embed(token_ids), cfg.dropout, mode, rng)
        for layer in range(cfg.encoder_layers):
            if layer:
                x = dropout(x, cfg.dropout, mode, rng)
            fwd = self._run_direction(f"enc.l{layer}.fwd", x)
            bwd = self._run_direction(f"enc.l{layer}.bwd", x, reverse=True)
            x = concat([fwd, bwd])
        proj = x @ self.params["attn.w_enc"]
        return EncoderOutput(states=x, proj=proj, length=x.data.shape[0])

    def _run_direction(self, prefix: str, x: Tensor, reverse: bool = False) -> Tensor:
        p = self.params
        return lstm_sequence(x, p[f"{prefix}.wx"], p[f"{prefix}.wh"], p[f"{prefix}.b"], reverse)

    # -- decoder ------------------------------------------------------------

    def init_state(self) -> DecoderState:
        cfg = self.config
        layers = [
            (Tensor(np.zeros(cfg.decoder_hidden)), Tensor(np.zeros(cfg.decoder_hidden)))
            for _ in range(cfg.decoder_layers)
        ]
        return DecoderState(
            layers=layers,
            context=Tensor(np.zeros(2 * cfg.encoder_hidden)),
            y_prev=None,
            prev_class=self.bos_class,
            mask=np.zeros(self.num_labels + 1),
        )

    def attend(self, state_vec: Tensor, enc: EncoderOutput) -> tuple[Tensor, Tensor]:
        """Additive attention over encoder states; returns (weights, context)."""
        scores = tanh(enc.proj + (state_vec @ self.params["attn.w_state"])) @ self.params["attn.v"]
        alpha = softmax(scores)
        return alpha, alpha @ enc.states

    def input_embedding(self, state: DecoderState) -> Tensor:
        """Embedding of the previous prediction, per the configured mix mode."""
        table = self.params["embed.labels"]
        if state.y_prev is None:
            return table[self.bos_class]
        if self.config.ge_mode == "off":
            return table[state.prev_class]
        if self.config.ge_mode == "gate":
            return self.global_embedding(state.y_prev, state.prev_class)
        return self.fixed_lambda_embedding(state.y_prev, state.prev_class)

    def global_embedding(self, y_prev: Tensor, prev_class: int) -> Tensor:
        """Gated blend of the chosen label's embedding with the expected one.

        The expected embedding averages real-label rows under the previous
        output distribution (the terminal class carries no embedding mass).
        """
        table = self.params["embed.labels"]
        e = table[prev_class]
        avg = y_prev[:self.num_labels] @ table[:self.num_labels]
        gate = sigmoid((self.params["ge.w_choice"] @ e) + (self.params["ge.w_average"] @ avg))
        one = Tensor(np.ones(self.config.embed_size))
        return ((one - gate) * e) + (gate * avg)

    def fixed_lambda_embedding(self, y_prev: Tensor, prev_class: int) -> Tensor:
        """Like global_embedding but with a constant blend weight.

        At lambda 0 the chosen embedding is returned as-is, bypassing the
        blend arithmetic, so results match ge_mode "off" bit for bit.
        """
        table = self.params["embed.labels"]
        e = table[prev_class]
        lam = self.config.ge_lambda
        if lam == 0.0:
            return e
        avg = y_prev[:self.num_labels] @ table[:self.num_labels]
        return (e * (1.0 - lam)) + (avg * lam)

    def decoder_step(
        self,
        state: DecoderState,
        enc: EncoderOutput,
        train: bool = False,
        rng: RngStream | None = None,
    ) -> tuple[DecoderState, Tensor, Tensor]:
        """One decoder step: returns (next_state, output_probs, attn_weights).

        The recurrence consumes the previous step's attention context; a fresh
        context is computed from the new top state and feeds the output layer.
        The caller picks a class from the probabilities and commits it with
        ``advance`` before stepping again.
        """
        cfg = self.config
        mode = "train" if train else "eval"
        x = concat([self.input_embedding(state), state.context])
        new_layers = []
        for layer in range(cfg.decoder_layers):
            h, c = state.layers[layer]
            wx = self.params[f"dec.l{layer}.wx"]
            wh = self.params[f"dec.l{layer}.wh"]
            b = self.params[f"dec.l{layer}.b"]
            h, c = lstm_cell_step(x, (h, c), wx, wh, b)
            new_layers.append((h, c))
            x = dropout(h, cfg.dropout, mode, rng) if layer + 1 < cfg.decoder_layers else h
        s_top = new_layers[-1][0]
        alpha, context = self.attend(s_top, enc)
        hidden = tanh(
            (self.params["out.w_state"] @ s_top) + (self.params["out.w_context"] @ context)
        )
        logits = self.params["out.w_logits"] @ hidden
        y = softmax_masked(logits, state.mask)
        next_state = DecoderState(
            layers=new_layers,
            context=context,
            y_prev=y,
            prev_class=state.prev_class,
            mask=state.mask,
        )
        return next_state, y, alpha

    def advance(self, state: DecoderState, emitted: int) -> DecoderState:
        """Commit a chosen class: record it and strike it from the mask."""
        mask = update_mask(state.mask, emitted, self.eos_class) if self.config.use_mask else state.mask.copy()
        return replace(state, prev_class=emitted, mask=mask)
