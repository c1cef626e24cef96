"""Decoding: one beam search, the wrappers built on it, and attention replay.

``decode`` is the only search. Scores are plain sums of log-probabilities with
no length normalization; the mask guarantees no duplicate real labels, and a
hypothesis ends when it emits the terminal class. Every step keeps the
``beam_size`` best children across all live hypotheses, so a beam of one is
greedy decoding. The returned ``Hypothesis`` carries the output distribution
and attention row of each of its steps, which is where ``decode_with_trace``
and the command line's attention export read them from.

The public wrappers differ only in beam width and in what happens when
``max_steps`` runs out: ``greedy_decode``, ``decode_with_trace`` and
``predict_set`` at beam 1 return the cut-off sequence as it stands, while
``beam_search`` (at any width) and ``predict_set`` at wider beams close each
leftover hypothesis with the terminal class one step later.
``export_attention`` replays a sequence the caller supplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import Seq2LabelModel
from .numerics import no_grad


@dataclass
class Hypothesis:
    """One path of the search.

    ``dists`` and ``attns`` hold, for each entry of ``sequence``, the output
    distribution it was chosen from and the attention row of that step:
    views of the rows the decoder returned, not copies.
    """

    sequence: tuple[int, ...]     # emitted classes, terminal id included once finished
    log_prob: float
    dists: tuple[np.ndarray, ...] = ()
    attns: tuple[np.ndarray, ...] = ()

    def child(self, cls: int, y: np.ndarray, alpha: np.ndarray) -> Hypothesis:
        return Hypothesis(
            self.sequence + (cls,),
            self.log_prob + math.log(y[cls]),
            self.dists + (y,),
            self.attns + (alpha,),
        )


@dataclass
class AttentionTrace:
    token_ids: np.ndarray
    label_ids: list[int]          # real labels only, in emission order
    weights: np.ndarray           # (len(label_ids), source length), rows sum to 1


def _sort_key(h: Hypothesis):
    # deterministic: best log-prob first, then shorter, then lexicographic
    return (-h.log_prob, len(h.sequence), h.sequence)


def _rows(t, n: int) -> np.ndarray:
    """A step's output with one row per hypothesis (a vector is one row)."""
    return t.data.reshape(n, -1)


def decode(
    model: Seq2LabelModel, token_ids: np.ndarray, beam_size: int, max_steps: int, *, close_out: bool
) -> Hypothesis:
    """Best hypothesis under beam search.

    Each step expands every live hypothesis into its ``beam_size`` most
    probable classes with nonzero probability (no other class of it can rank
    among the best ``beam_size`` children), keeps the ``beam_size`` best
    children overall by ``_sort_key`` and moves the ones that chose the
    terminal class into the finished pool. The search stops once the pool
    holds ``beam_size`` sequences, nothing is left to expand or ``max_steps``
    steps are done. Hypotheses still live then are finished with the terminal
    class one step later when ``close_out`` is set, and compete as they stand
    otherwise. A hypothesis whose terminal probability there is 0.0 cannot be
    finished and is dropped, as the search drops every child of probability
    0.0; NumericError if that leaves no finished hypothesis.

    Two classes of one hypothesis whose probabilities differ but whose scores
    round to the same float go to the more probable class, the one the
    argmax of a greedy step picks.

    The live hypotheses are the rows of one decoder state, so each step
    (and the close-out) is one ``decoder_step`` over all of them; each row
    carries exactly the bits of its hypothesis stepped alone. Two children
    of one hypothesis continue from copies of its row.
    """
    if beam_size < 1:
        raise ConfigError(f"beam_size must be positive, got {beam_size}")
    if max_steps < 1:
        raise ConfigError(f"max_steps must be positive, got {max_steps}")
    eos = model.eos_class
    with no_grad():
        enc = model.encode(token_ids)
        live = [Hypothesis(sequence=(), log_prob=0.0)]
        # row i of the state is live[i]; greedy's lone hypothesis is a vector state
        lone = beam_size == 1
        state = model.init_state(None if lone else 1)
        finished: list[Hypothesis] = []
        for _ in range(max_steps):
            stepped, y, alpha = model.decoder_step(state, enc)
            probs, attns = _rows(y, len(live)), _rows(alpha, len(live))
            if lone:
                top = probs.argmax(axis=1)[:, None]
            else:
                top = (-probs).argsort(axis=1, kind="stable")[:, :beam_size]
            chosen = probs[np.arange(len(live))[:, None], top]
            # (the child's _sort_key, its parent's row): only kept children are built
            children = []
            for row, (hyp, classes, ps) in enumerate(zip(live, top.tolist(), chosen.tolist())):
                for c, p in zip(classes, ps):
                    if p != 0.0:
                        seq = hyp.sequence + (c,)
                        children.append(((-(hyp.log_prob + math.log(p)), len(seq), seq), row))
            children.sort(key=lambda child: child[0])
            parents, live, rows = live, [], []
            for (_, _, seq), row in children[:beam_size]:
                child = parents[row].child(seq[-1], probs[row], attns[row])
                if seq[-1] == eos:
                    finished.append(child)
                else:
                    live.append(child)
                    rows.append(row)
            if live and lone:
                state = model.advance(stepped, live[0].sequence[-1])
            elif live:
                state = model.advance(stepped.take(rows), np.array([h.sequence[-1] for h in live]))
            if len(finished) >= beam_size or not live:
                break
        if live and close_out:
            _, y, alpha = model.decoder_step(state, enc)
            live = [hyp.child(eos, p, a) for hyp, p, a in zip(live, _rows(y, len(live)), _rows(alpha, len(live)))
                    if p[eos] != 0.0]
        finished.extend(live)
    if not finished:
        raise NumericError("no hypothesis could be finished: the terminal class's probability is 0.0 for each")
    return min(finished, key=_sort_key)


def greedy_decode(
    model: Seq2LabelModel, token_ids: np.ndarray, max_steps: int
) -> tuple[list[int], float]:
    """Follow the argmax at every step; ties go to the lowest class id.

    Returns (sequence, log_prob). The sequence includes the terminal class
    when it was emitted within ``max_steps``.
    """
    best = decode(model, token_ids, 1, max_steps, close_out=False)
    return list(best.sequence), best.log_prob


def beam_search(
    model: Seq2LabelModel, token_ids: np.ndarray, beam_size: int = 5, max_steps: int | None = None
) -> tuple[list[int], float]:
    """Best label sequence under beam search; returns (sequence, log_prob).

    Hypotheses still live at ``max_steps`` (default: one step per label plus
    the terminal one) are force-finished by charging them the terminal
    class's log-probability one step later, so the sequence always ends with
    the terminal class.
    """
    if max_steps is None:
        max_steps = model.num_labels + 1
    best = decode(model, token_ids, beam_size, max_steps, close_out=True)
    return list(best.sequence), best.log_prob


def decode_with_trace(
    model: Seq2LabelModel, token_ids: np.ndarray, max_steps: int
) -> tuple[list[int], list[np.ndarray], list[np.ndarray]]:
    """Greedy decode that also returns per-step distributions and attention."""
    best = decode(model, token_ids, 1, max_steps, close_out=False)
    return list(best.sequence), list(best.dists), list(best.attns)


def extract_label_set(sequence: list[int], eos_class: int) -> list[int]:
    """Real labels from a decoded sequence, first-emission order, no repeats."""
    out: list[int] = []
    seen = set()
    for cls in sequence:
        if cls == eos_class:
            break
        if cls not in seen:
            seen.add(cls)
            out.append(cls)
    return out


def export_attention(
    model: Seq2LabelModel, token_ids: np.ndarray, sequence: list[int]
) -> AttentionTrace:
    """Attention rows behind each real-label emission of ``sequence``.

    Replays the decoder with the given classes forced, so ``sequence`` need
    not come from a search. One row per real label; the terminal step, if
    present, is dropped.
    """
    with no_grad():
        enc = model.encode(token_ids)
        state = model.init_state()
        labels = []
        rows = []
        for cls in sequence:
            state, _, alpha = model.decoder_step(state, enc)
            if cls == model.eos_class:
                break
            labels.append(cls)
            rows.append(alpha.data)
            state = model.advance(state, cls)
    weights = np.stack(rows) if rows else np.zeros((0, len(token_ids)))
    return AttentionTrace(token_ids=np.asarray(token_ids), label_ids=labels, weights=weights)


def predict_set(
    model: Seq2LabelModel,
    token_ids: np.ndarray,
    beam_size: int,
    max_steps: int,
) -> tuple[list[int], float]:
    """Decode and reduce to a label set; beam 1 is greedy decoding."""
    best = decode(model, token_ids, beam_size, max_steps, close_out=beam_size > 1)
    return extract_label_set(best.sequence, model.eos_class), best.log_prob
