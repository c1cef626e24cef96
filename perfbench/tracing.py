"""Spans around calls into seq2label, recorded from outside the library.

``instrument`` swaps each traced public function for a wrapper that records a
span, and puts the original back on exit, so an untraced run executes the
library exactly as shipped. Spans stay in memory until the run ends, when the
benchmark reduces them to per-layer figures.

``metrics``, ``cli`` and ``synthetic`` are not traced: each is called about
once per run, or only wraps the layers traced here.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 for a root
    op: int          # index of the root span of the operation this span serves


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.tape_nodes: list[int] = []     # one entry per backward call
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, parent, self.spans[parent].op if parent >= 0 else idx)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def count_tape_nodes(loss) -> int:
    """Recorded operations reachable from ``loss``: the nodes backward replays."""
    seen = {id(loss)}
    stack = [loss]
    nodes = 0
    while stack:
        node = stack.pop()
        if node._backward is not None:
            nodes += 1
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return nodes


def targets():
    """(owner, attribute, span name) for every traced public function.

    Functions the library imports by name are patched where they are looked
    up: ``lstm_cell_step`` in ``model``, ``adam_step``/``clip_gradients`` and
    ``sequence_loss`` in ``trainer``.
    """
    from seq2label import checkpoint, corpus, inference, model, trainer
    from seq2label.model import Seq2LabelModel

    return [
        (corpus, "build_vocab", "corpus.build_vocab"),
        (corpus, "encode_examples", "corpus.encode_examples"),
        (corpus, "make_batches", "corpus.make_batches"),
        (checkpoint, "save_checkpoint", "checkpoint.save"),
        (checkpoint, "load_checkpoint", "checkpoint.load"),
        (Seq2LabelModel, "embed", "model.embed"),
        (Seq2LabelModel, "encode", "model.encode"),
        (Seq2LabelModel, "decoder_step", "model.decoder_step"),
        (Seq2LabelModel, "attend", "model.attend"),
        (Seq2LabelModel, "advance", "model.advance"),
        (model, "lstm_cell_step", "numerics.lstm_cell_step"),
        (trainer, "adam_step", "numerics.adam"),
        (trainer, "clip_gradients", "numerics.clip"),
        (trainer, "train_epoch", "trainer.train_epoch"),
        (trainer, "sequence_loss", "trainer.sequence_loss"),
        (inference, "greedy_decode", "inference.greedy"),
        (inference, "beam_search", "inference.beam5"),
    ]


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every traced call, and ``Tensor.backward``, through ``tracer``."""
    from seq2label.numerics import Tensor

    backward = Tensor.backward

    def traced_backward(loss):
        tracer.call("bench.count_tape", lambda: tracer.tape_nodes.append(count_tape_nodes(loss)))
        return tracer.call("numerics.backward", backward, loss)

    saved = [(Tensor, "backward", backward)]
    try:
        Tensor.backward = traced_backward
        for owner, attr, name in targets():
            fn = getattr(owner, attr, None)
            if fn is None:
                continue  # the library no longer has this function; its layer metrics read 0
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
