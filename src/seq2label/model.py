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
    attention_head,
    concat,
    dropout,
    lstm_cell_step,
    lstm_sequence,
    matvec,
    sigmoid,
    vecmat,
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
    """Encoder states of documents of ``lengths`` rows laid end to end."""

    states: Tensor        # (N, 2 * encoder_hidden)
    proj: Tensor          # (N, attn_dim), states already projected for scoring
    lengths: list[int]

    def take(self, order) -> EncoderOutput:
        """The documents at positions ``order``, laid end to end in that order."""
        if list(order) == list(range(len(self.lengths))):
            return self
        lens = np.asarray(self.lengths)
        starts = np.cumsum(lens) - lens
        rows = np.concatenate([np.arange(starts[d], starts[d] + lens[d]) for d in order])
        return EncoderOutput(self.states[rows], self.proj[rows], lens[order].tolist())


@dataclass
class DecoderState:
    """Everything one decoding hypothesis, the hypotheses of a search, or a
    batch of documents decoded together carries between steps.

    For one hypothesis every tensor is a vector, ``prev_class`` an int and
    ``mask`` a vector; otherwise each holds one row per hypothesis or
    document (a (B, ·) matrix, a (B,) class array, a (B, C) mask), each
    row multiplied on its own (see ``decoder_step``).
    ``y_prev`` is the full output distribution of the previous step (None
    before the first step); ``prev_class`` is the class actually chosen from
    it. ``context`` is the attention context that produced ``y_prev``; the
    next step feeds it into the recurrence before computing a fresh one.
    ``loss`` is that step's loss of the targets it was given (None without).
    """

    layers: list[tuple[Tensor, Tensor]]
    context: Tensor
    y_prev: Tensor | None
    prev_class: int | np.ndarray
    mask: np.ndarray = field(repr=False)
    loss: Tensor | None = None

    def take(self, rows) -> DecoderState:
        """The state of the rows at ``rows``, a slice or row indices. Indices
        may repeat: two children of one hypothesis share its stepped row."""
        n = len(self.mask)
        if list(range(n)[rows] if isinstance(rows, slice) else rows) == list(range(n)):
            return self
        return DecoderState(
            layers=[(h[rows], c[rows]) for h, c in self.layers],
            context=self.context[rows],
            y_prev=None if self.y_prev is None else self.y_prev[rows],
            prev_class=self.prev_class[rows],
            mask=self.mask[rows],
        )


def update_mask(mask: np.ndarray, emitted, eos_class: int) -> np.ndarray:
    """Return a copy of ``mask`` with ``emitted`` struck out: one class for a
    vector mask, one class per row of a matrix.

    Emitting the terminal class changes nothing. Striking an entry twice means
    the caller ignored the mask, so that is an error rather than a no-op.
    """
    out = mask.copy()
    if mask.ndim == 1:
        if emitted == eos_class:
            return out
        if not 0 <= emitted < mask.shape[0]:
            raise NumericError(f"emitted class {emitted} out of range for mask of {mask.shape[0]}")
        if mask[emitted] == -np.inf:
            raise NumericError(f"class {emitted} was already emitted")
        out[emitted] = -np.inf
        return out
    cls = np.asarray(emitted)
    if cls.shape != mask.shape[:1] or np.any((cls < 0) | (cls >= mask.shape[1])):
        raise NumericError(f"emitted classes {emitted} do not fit a mask of shape {mask.shape}")
    rows = np.nonzero(cls != eos_class)[0]
    if np.any(out[rows, cls[rows]] == -np.inf):
        raise NumericError(f"a class of {emitted} was already emitted")
    out[rows, cls[rows]] = -np.inf
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
        """Token embedding rows, shape (len(token_ids), embed_size)."""
        return self.params["embed.tokens"][np.asarray(token_ids, dtype=np.int64)]

    def encode(self, token_ids: np.ndarray, train: bool = False, rng: RngStream | None = None) -> EncoderOutput:
        """Run the bidirectional encoder over one document."""
        return self.encode_batch(token_ids, [np.size(token_ids)], train, rng)

    def encode_batch(
        self, token_ids: np.ndarray, lengths, train: bool = False, rng: RngStream | None = None
    ) -> EncoderOutput:
        """Run the bidirectional encoder over documents of ``lengths`` ids
        laid end to end in ``token_ids``.

        One embedding lookup, one dropout draw per layer, one ``lstm_sequence``
        per direction and layer and one attention projection cover every
        document; states concatenate the fwd and bwd halves.
        """
        ids = np.asarray(token_ids, dtype=np.int64)
        if len(lengths) == 0:
            raise ConfigError("encode_batch needs at least one document")
        if ids.ndim != 1 or min(lengths) < 1:
            raise ConfigError(
                f"token_ids must be a vector of non-empty documents, got shape {ids.shape}, lengths {lengths}"
            )
        cfg = self.config
        mode = "train" if train else "eval"
        x = dropout(self.embed(ids), cfg.dropout, mode, rng)
        for layer in range(cfg.encoder_layers):
            if layer:
                x = dropout(x, cfg.dropout, mode, rng)
            fwd = self._run_direction(f"enc.l{layer}.fwd", x, lengths)
            bwd = self._run_direction(f"enc.l{layer}.bwd", x, lengths, reverse=True)
            x = concat([fwd, bwd])
        return EncoderOutput(states=x, proj=x @ self.params["attn.w_enc"], lengths=[int(n) for n in lengths])

    def _run_direction(self, prefix: str, x: Tensor, lengths, reverse: bool = False) -> Tensor:
        p = self.params
        return lstm_sequence(x, p[f"{prefix}.wx"], p[f"{prefix}.wh"], p[f"{prefix}.b"], reverse, lengths)

    # -- decoder ------------------------------------------------------------

    def init_state(self, batch: int | None = None) -> DecoderState:
        """The state before the first step: of one hypothesis (vectors), or
        of ``batch`` rows (hypotheses or documents) stepped together."""
        cfg = self.config
        rows = () if batch is None else (batch,)
        layers = [
            (Tensor(np.zeros(rows + (cfg.decoder_hidden,))), Tensor(np.zeros(rows + (cfg.decoder_hidden,))))
            for _ in range(cfg.decoder_layers)
        ]
        return DecoderState(
            layers=layers,
            context=Tensor(np.zeros(rows + (2 * cfg.encoder_hidden,))),
            y_prev=None,
            prev_class=self.bos_class if batch is None else np.full(batch, self.bos_class),
            mask=np.zeros(rows + (self.num_labels + 1,)),
        )

    def attend(self, s_top: Tensor, enc: EncoderOutput, mask: np.ndarray, targets=None) -> tuple[Tensor, np.ndarray]:
        """Attention of the top decoder state over the encoder states, with
        the output layer, masked softmax and loss on top: one
        ``attention_head`` node. Every row reads the document of an ``enc``
        holding one, row by row; otherwise row b reads document b of
        ``enc``. Returns (out, alpha): ``out`` joins [context, y, loss]."""
        p = self.params
        return attention_head(
            s_top, enc.states, enc.proj, p["attn.w_state"], p["attn.v"],
            p["out.w_state"], p["out.w_context"], p["out.w_logits"], mask, enc.lengths, targets,
        )

    def input_embedding(self, state: DecoderState) -> Tensor:
        """Embedding of the previous prediction, per the configured mix mode
        (of the start marker before the first step)."""
        if state.y_prev is None or self.config.ge_mode == "off":
            return self.params["embed.labels"][state.prev_class]
        if self.config.ge_mode == "gate":
            return self.global_embedding(state.y_prev, state.prev_class)
        return self.fixed_lambda_embedding(state.y_prev, state.prev_class)

    def _average_embedding(self, y_prev: Tensor) -> Tensor:
        """Real-label embedding rows averaged under the previous output
        distribution (the terminal class carries no embedding mass)."""
        return vecmat(y_prev[..., :self.num_labels], self.params["embed.labels"][:self.num_labels])

    def global_embedding(self, y_prev: Tensor, prev_class) -> Tensor:
        """Gated blend of the chosen label's embedding with the expected one.

        Each row of a matrix ``y_prev`` blends on its own, with the bits of
        that row given alone as a vector.
        """
        e = self.params["embed.labels"][prev_class]
        avg = self._average_embedding(y_prev)
        gate = sigmoid(matvec(self.params["ge.w_choice"], e) + matvec(self.params["ge.w_average"], avg))
        one = Tensor(np.ones(e.data.shape))
        return ((one - gate) * e) + (gate * avg)

    def fixed_lambda_embedding(self, y_prev: Tensor, prev_class) -> Tensor:
        """Like global_embedding but with a constant blend weight.

        At lambda 0 the chosen embedding is returned as-is, bypassing the
        blend arithmetic, so results match ge_mode "off" bit for bit.
        """
        e = self.params["embed.labels"][prev_class]
        lam = self.config.ge_lambda
        if lam == 0.0:
            return e
        return (e * (1.0 - lam)) + (self._average_embedding(y_prev) * lam)

    def decoder_step(
        self,
        state: DecoderState,
        enc: EncoderOutput,
        train: bool = False,
        rng: RngStream | None = None,
        targets=None,
    ) -> tuple[DecoderState, Tensor, Tensor]:
        """One decoder step: returns (next_state, output_probs, attn_weights).

        The recurrence consumes the previous step's attention context; a fresh
        context is computed from the new top state and feeds the output layer.
        The caller picks a class from the probabilities and commits it with
        ``advance`` before stepping again. A state of B rows steps them
        together, every product of the blend, the recurrence and the output
        layer taken row by row, with the bits of that row stepped alone as
        vectors. Only the attention depends on ``enc``: when it holds one
        document, the rows are hypotheses over it (a search's live ones),
        each attending as it would alone; otherwise row b is document b of
        ``enc`` (the attention weights are then each document's, end to
        end). Given ``targets`` (one class per row), ``next_state.loss``
        holds each row's loss.
        """
        cfg = self.config
        p = self.params
        mode = "train" if train else "eval"
        x = concat([self.input_embedding(state), state.context])
        new_layers = []
        for layer in range(cfg.decoder_layers):
            weights = (p[f"dec.l{layer}.{w}"] for w in ("wx", "wh", "b"))
            h, c = lstm_cell_step(x, state.layers[layer], *weights)
            new_layers.append((h, c))
            x = dropout(h, cfg.dropout, mode, rng) if layer + 1 < cfg.decoder_layers else h
        out, alpha = self.attend(new_layers[-1][0], enc, state.mask, targets)
        width, classes = 2 * cfg.encoder_hidden, self.num_labels + 1
        y = out[..., width:width + classes]
        next_state = DecoderState(
            layers=new_layers,
            context=out[..., :width],
            y_prev=y,
            prev_class=state.prev_class,
            mask=state.mask,
            loss=None if targets is None else out[..., width + classes],
        )
        return next_state, y, Tensor(alpha)

    def advance(self, state: DecoderState, emitted) -> DecoderState:
        """Commit a chosen class (one per row): record it and strike it from
        the mask."""
        mask = update_mask(state.mask, emitted, self.eos_class) if self.config.use_mask else state.mask.copy()
        return replace(state, prev_class=emitted, mask=mask)
