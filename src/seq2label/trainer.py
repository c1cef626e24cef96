"""Teacher-forced training loop with Adam, clipping, and best-epoch selection."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import corpus, inference, metrics
from .corpus import Batch, Example, LabelVocabulary
from .errors import ConfigError, NumericError
from .model import EncoderOutput, Seq2LabelModel
from .numerics import RngStream, Tensor, adam_step, clip_gradients, concat, early_adam_step


@dataclass
class TrainConfig:
    """Adam takes ``learning_rate``; its β1, β2 and ε are ``adam_step``'s
    defaults (0.9, 0.999 and 1e-8)."""

    epochs: int = 10
    batch_size: int = 8
    learning_rate: float = 0.001
    clip_norm: float = 10.0  # inf never clips
    seed: int = 0
    shuffle_labels: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainReport:
    train_loss: list[float] = field(default_factory=list)
    valid_f1: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    selected_epoch: int = 0
    best_valid_f1: float = 0.0
    max_label_steps: int = 1


def sequence_loss(
    model: Seq2LabelModel,
    token_ids: np.ndarray,
    framed: list[int],
    train: bool = False,
    rng: RngStream | None = None,
) -> Tensor:
    """Teacher-forced loss of one document: a batch of one.

    ``framed`` starts with the start marker and ends with the terminal class.
    The loss sums, over the steps, the log-space cross-entropy of the step's
    target, logsumexp of the masked logits minus the target's logit.
    """
    return decoder_losses(model, model.encode(token_ids, train, rng), [framed], train, rng)[0]


def decoder_losses(
    model: Seq2LabelModel,
    enc: EncoderOutput,
    targets: list[list[int]],
    train: bool = False,
    rng: RngStream | None = None,
) -> Tensor:
    """Each document's teacher-forced loss, shape (B,), for the documents
    encoded together in ``enc`` with their framed ``targets``.

    Each step's chosen class is the ground-truth target, while the blended
    input embedding still sees the model's own previous distribution. The
    documents run together, longest label sequence first, so the ones still
    running at a step are the first rows of the previous step's: one
    ``decoder_step`` per step covers them all.
    """
    steps = [len(framed) - 1 for framed in targets]
    if min(steps) < 1:
        raise ConfigError(f"framed sequence needs at least one target, got {targets[steps.index(min(steps))]}")
    order = sorted(range(len(targets)), key=lambda d: -steps[d])
    enc = enc.take(order)
    state = model.init_state(len(order))
    losses, owners = [], []
    for t in range(steps[order[0]]):
        running = [d for d in order if steps[d] > t]
        classes = np.array([targets[d][t + 1] for d in running], dtype=np.int64)
        state, _, _ = model.decoder_step(state.take(slice(len(running))), enc, train, rng, classes)
        losses.append(state.loss)
        owners += running
        state = model.advance(state, classes)
    # a 0/1 matrix sums each document's step losses
    owned = np.zeros((len(targets), len(owners)))
    owned[owners, np.arange(len(owners))] = 1.0
    return Tensor(owned) @ concat(losses)


def _backward_batch(model: Seq2LabelModel, batch: Batch, bi: int, rng: RngStream) -> float:
    """Forward and backward of one batch; returns its summed loss.

    The batch's documents are encoded together by ``encode_batch`` and
    decoded together under teacher forcing by ``decoder_losses``. The graph,
    with its saved activations and intermediate gradients, is released on
    return, before the optimizer sweeps the parameters.
    """
    enc = model.encode_batch(batch.token_ids, batch.lengths, train=True, rng=rng)
    total = decoder_losses(model, enc, batch.targets, True, rng).sum()
    mean = total * (1.0 / len(batch))
    if not np.isfinite(mean.data):
        raise NumericError(f"non-finite loss in batch {bi}")
    mean.backward()
    return total.item()


def train_epoch(
    model: Seq2LabelModel, batches: list[Batch], config: TrainConfig, rng: RngStream
) -> float:
    """One pass over the batches; returns the mean per-example loss.

    A batch gathers only its ``token_ids`` rows of the token table, so every
    other row's gradient is +0.0: Adam's step of the blocks that hold none
    of them runs first, beside the forward and backward passes when it can
    (``early_adam_step``), with the bits of the dense update.

    A floating-point overflow or invalid operation anywhere in a batch's
    forward, backward, clipping or Adam update is a diverging run: it raises
    NumericError naming the batch (``clip_gradients`` keeps its own
    deliberate overflow of a sum of squares). A batch that raises leaves the
    store part of the way through its step: at any CPU count the token
    table's unreached blocks hold the step's new values and moments unless
    their update raised, its gradients may be clipped, and some of Adam's
    other blocks may hold the step too, so the store matches no whole step.
    Nothing of the batch is still running when it raises.
    """
    total = 0.0
    count = 0
    for bi, batch in enumerate(batches):
        model.params.zero_grads()
        try:
            with (
                np.errstate(over="raise", invalid="raise"),
                early_adam_step(model.params, "embed.tokens", batch.token_ids, config.learning_rate),
            ):
                total += _backward_batch(model, batch, bi, rng)
                clip_gradients(model.params, config.clip_norm)
                adam_step(model.params, config.learning_rate)
        except FloatingPointError as e:
            raise NumericError(f"{e} in batch {bi}") from None
        count += len(batch)
    return total / count


def _ordered_targets(
    examples: list[Example], label_vocab: LabelVocabulary, shuffle: bool, rng: RngStream
) -> list[tuple[np.ndarray, list[int]]]:
    framed = []
    for ex in examples:
        if shuffle:
            ordered = corpus.shuffle_labels(ex.label_ids, rng)
        else:
            ordered = corpus.sort_labels(ex.label_ids, label_vocab)
        framed.append((ex.token_ids, corpus.frame_labels(ordered, label_vocab)))
    return framed


def label_set_pairs(
    model: Seq2LabelModel, examples: list[Example], beam_size: int, max_steps: int
) -> list[tuple[set[int], set[int]]]:
    """(reference label set, predicted label set) for each example."""
    return [
        (set(ex.label_ids), set(inference.predict_set(model, ex.token_ids, beam_size, max_steps)[0]))
        for ex in examples
    ]


def evaluate_greedy(
    model: Seq2LabelModel, examples: list[Example], max_steps: int
) -> float:
    """Micro-F1 of greedy decoding against the reference label sets."""
    return metrics.micro_prf(label_set_pairs(model, examples, 1, max_steps))[2]


def fit(
    model: Seq2LabelModel,
    train_examples: list[Example],
    valid_examples: list[Example] | None,
    config: TrainConfig,
    label_vocab: LabelVocabulary,
) -> TrainReport:
    """Train for ``config.epochs`` epochs and keep the best-validation weights.

    One seeded stream drives label shuffling, batch order, and dropout, so a
    (seed, config, corpus) triple pins down every float of the run. The best
    epoch is the earliest one with the strictly highest validation micro-F1
    (the last epoch when there is no validation set).
    """
    if not train_examples:
        raise ConfigError("no training examples")
    rng = RngStream(config.seed)
    framed = _ordered_targets(train_examples, label_vocab, config.shuffle_labels, rng)
    report = TrainReport(max_label_steps=max(len(ex.label_ids) for ex in train_examples) + 1)
    best_values = None
    for epoch in range(1, config.epochs + 1):
        start = time.perf_counter()
        batches = corpus.make_batches(framed, config.batch_size, rng)
        report.train_loss.append(train_epoch(model, batches, config, rng))
        if valid_examples:
            f1 = evaluate_greedy(model, valid_examples, report.max_label_steps)
            report.valid_f1.append(f1)
            if f1 > report.best_valid_f1 or best_values is None:
                report.best_valid_f1 = f1
                report.selected_epoch = epoch
                best_values = model.params.copy_values()
        report.epoch_seconds.append(time.perf_counter() - start)
    if valid_examples:
        model.params.load_values(best_values)
    else:
        report.selected_epoch = config.epochs
    return report
