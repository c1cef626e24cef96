"""Set-up, timed loops, output checks and metric reduction for one workload.

A training operation is one ``trainer.train_epoch`` call over one batch of 8;
a decode operation is one document decoded greedily, with beam 5, or with
beam 1 as a check against greedy. Work is done in rounds: a training round
restores the loaded weights and Adam state and trains the same few batches,
a decode round decodes every held-out document greedily and with beam 5.
Every round repeats the same arithmetic, so its outputs must repeat bit for
bit. The named throughputs are work over the time spent in operations and
latencies are medians over operations. The result line instead reads each
operation at its fastest over all rounds (every training batch carries the
same work, so there the fastest batch): on a shared host the fastest run is
the one least slowed by other tenants, so it moves with the program rather
than with its neighbours.
"""

from __future__ import annotations

import copy
import math
import os
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from seq2label import checkpoint, corpus, inference, trainer
from seq2label.checkpoint import Checkpoint
from seq2label.model import ModelConfig, Seq2LabelModel
from seq2label.numerics import RngStream

from tracing import Tracer, self_times
from workloads import Spec

BATCH_SIZE = 8
ROUND_BATCHES = 2  # batches per training round; the second one's loss follows an Adam step
BEAM = 5
SETUP_REPEATS = 9  # setup_s is their median
# Weights from this init seed almost never rank the terminal class first within
# 8 steps, so every decoded document costs the same number of decoder steps
# (with some other seeds the terminal class wins early and decoding does less
# work). The workload seed picks the records only.
MODEL_SEED = 0


@dataclass
class Prepared:
    loaded: Checkpoint
    batches: list            # the batches one training round trains on
    docs: list               # encoded held-out documents to decode
    ckpt_bytes: bytes


@dataclass
class Tally:
    """Operations attempted and failed."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def set_up(spec: Spec, records: list[dict], held_out: list[dict], workdir: str) -> Prepared:
    """Everything ``setup_s`` times: vocabularies, encoding, model, checkpoint round trip."""
    vocab, label_vocab = corpus.build_vocab(records, spec.vocab_size)
    examples = corpus.encode_examples(records, vocab, label_vocab)
    model = Seq2LabelModel(ModelConfig(), len(vocab), len(label_vocab), RngStream(MODEL_SEED))
    batches, docs = [], []
    if spec.kind == "train":
        framed = [
            (ex.token_ids, corpus.frame_labels(corpus.sort_labels(ex.label_ids, label_vocab), label_vocab))
            for ex in examples
        ]
        batches = corpus.make_batches(framed, BATCH_SIZE)[:ROUND_BATCHES]
    path = os.path.join(workdir, "model.ckpt")
    checkpoint.save_checkpoint(path, model, vocab, label_vocab)
    loaded = checkpoint.load_checkpoint(path)
    if spec.kind == "decode":
        docs = [corpus.encode_text(rec["text"], loaded.vocab) for rec in held_out]
    with open(path, "rb") as f:
        ckpt_bytes = f.read()
    return Prepared(loaded, batches, docs, ckpt_bytes)


def resave_matches(prep: Prepared, workdir: str) -> bool:
    """Saving the loaded checkpoint again must reproduce its bytes."""
    path = os.path.join(workdir, "resaved.ckpt")
    ck = prep.loaded
    checkpoint.save_checkpoint(path, ck.model, ck.vocab, ck.label_vocab)
    with open(path, "rb") as f:
        return f.read() == prep.ckpt_bytes


def _attempt(call, name: str, fn, *args):
    """Run one operation; a raised exception is reported and yields None."""
    try:
        return fn(*args) if call is None else call(name, fn, *args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


class TrainLoop:
    def __init__(self, prep: Prepared):
        self.prep = prep
        self.config = trainer.TrainConfig(batch_size=BATCH_SIZE)
        params = prep.loaded.model.params
        self.start_values = params.copy_values()
        self.start_adam = params.adam_state()

    def round(self, call=None) -> tuple[list[float], list]:
        """One round; returns (per-batch seconds, per-batch mean loss)."""
        model = self.prep.loaded.model
        # the store adopts the arrays it is given and updates them in place
        model.params.load_values({k: v.copy() for k, v in self.start_values.items()})
        model.params.load_adam_state(copy.deepcopy(self.start_adam))
        rng = RngStream(0)  # feeds dropout only, which the default config turns off
        seconds, losses = [], []
        for batch in self.prep.batches:
            t0 = perf_counter()
            loss = _attempt(call, "bench.train_batch", trainer.train_epoch, model, [batch], self.config, rng)
            seconds.append(perf_counter() - t0)
            losses.append(loss)
        return seconds, losses

    def check(self, rounds, reference, tally: Tally) -> None:
        for _, losses in rounds:
            for i, loss in enumerate(losses):
                ok = loss is not None and math.isfinite(loss) and loss == reference[1][i]
                tally.op(ok, f"batch {i}: loss {loss!r}, first round {reference[1][i]!r}")

    @staticmethod
    def busy_seconds(rounds) -> float:
        return sum(sum(secs) for secs, _ in rounds)

    def metrics(self, rounds) -> dict:
        batch_s = [s for secs, _ in rounds for s in secs]
        tokens = sum(int(b.lengths.sum()) for b in self.prep.batches) * len(rounds)
        best = min(batch_s)  # every batch carries the same token and label counts
        losses = rounds[0][1]
        return {
            "train.examples_per_s": (BATCH_SIZE * len(batch_s) / sum(batch_s), "1/s"),
            "train.tokens_per_s": (tokens / sum(batch_s), "1/s"),
            "train.batch_ms_p50": (1000 * statistics.median(batch_s), "ms"),
            "train.final_loss": (sum(losses) / len(losses), "nats"),
            # one measurement: best_op_ms is 1000 * BATCH_SIZE / best_docs_per_s
            "best_docs_per_s": (BATCH_SIZE / best, "1/s"),
            "best_op_ms": (1000 * best, "ms"),
        }


class DecodeLoop:
    MODES = ("greedy", "beam5")

    def __init__(self, prep: Prepared, spec: Spec):
        self.prep = prep
        self.max_steps = spec.max_steps

    def round(self, call=None) -> dict:
        """Greedy, then beam 5, over every document; mode -> (seconds, outputs)."""
        model = self.prep.loaded.model
        out = {}
        for mode, fn, extra in (
            ("greedy", inference.greedy_decode, (self.max_steps,)),
            ("beam5", inference.beam_search, (BEAM, self.max_steps)),
        ):
            seconds, results = [], []
            for doc in self.prep.docs:
                t0 = perf_counter()
                results.append(_attempt(call, f"bench.{mode}_doc", fn, model, doc, *extra))
                seconds.append(perf_counter() - t0)
            out[mode] = (seconds, results)
        return out

    def check(self, rounds, reference, tally: Tally) -> None:
        eos = self.prep.loaded.model.eos_class
        for r in rounds:
            for mode in self.MODES:
                for i, res in enumerate(r[mode][1]):
                    ok = res is not None and res == reference[mode][1][i] and _distinct(res[0], eos)
                    tally.op(ok, f"{mode} doc {i}: {res!r}, first round {reference[mode][1][i]!r}")

    def check_beam_one(self, reference, tally: Tally) -> None:
        eos = self.prep.loaded.model.eos_class
        for i, doc in enumerate(self.prep.docs):
            one = _attempt(None, "", inference.beam_search, self.prep.loaded.model, doc, 1, self.max_steps)
            greedy = reference["greedy"][1][i]
            tally.op(one is not None and _beam_one_is_greedy(one, greedy, eos), f"beam 1 on doc {i}: {one!r}, greedy {greedy!r}")

    @classmethod
    def busy_seconds(cls, rounds) -> float:
        return sum(sum(r[m][0]) for r in rounds for m in cls.MODES)

    def metrics(self, rounds) -> dict:
        docs = len(self.prep.docs) * len(rounds)
        greedy_s = sum(s for r in rounds for s in r["greedy"][0])
        beam_ms = [1000 * s for r in rounds for s in r["beam5"][0]]
        beam_tail, n = tail(beam_ms)
        per_round = len(self.prep.docs)
        return {
            "decode.greedy_docs_per_s": (docs / greedy_s, "1/s"),
            "decode.beam5_docs_per_s": (1000 * docs / sum(beam_ms), "1/s"),
            "decode.beam5_ms_p50": (statistics.median(beam_ms), "ms"),
            "decode.beam5_ms_tail": (beam_tail, "ms"),
            "decode.beam5_tail_samples": (n, "count"),
            "decode.beam5_nll": (-sum(lp for _, lp in rounds[0]["beam5"][1]) / per_round, "nats"),
            "best_docs_per_s": (per_round / _fastest_round([r["greedy"][0] for r in rounds]), "1/s"),
            "best_op_ms": (1000 * _fastest_round([r["beam5"][0] for r in rounds]) / per_round, "ms"),
        }

    @staticmethod
    def returned_steps(rounds) -> int:
        """Decoder steps on the sequences beam search returned."""
        return sum(len(seq) for r in rounds for seq, _ in r["beam5"][1])


def _beam_one_is_greedy(one, greedy, eos: int) -> bool:
    (b_seq, b_lp), (g_seq, g_lp) = one, greedy
    if g_seq[-1] == eos:
        return one == greedy
    # greedy stopped at the step limit; beam search closes such a hypothesis
    # by charging it the terminal class one step later
    return b_seq == g_seq + [eos] and b_lp < g_lp


def _distinct(seq: list[int], eos: int) -> bool:
    labels = [c for c in seq if c != eos]
    return len(set(labels)) == len(labels) and eos not in seq[:-1]


def run_rounds(loop, seconds: float | None = None, rounds: int | None = None, call=None) -> list:
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds`` of them."""
    done = []
    t0 = perf_counter()
    while True:
        done.append(loop.round(call))
        if len(done) == rounds or (rounds is None and perf_counter() - t0 >= seconds):
            return done


def _fastest_round(seconds: list[list[float]]) -> float:
    """A round's time with each of its operations at its fastest over all rounds."""
    return sum(min(column) for column in zip(*seconds))


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it, and the sample count."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)], len(ordered)


# -- per-layer metrics from a traced run ---------------------------------------------


def layer_metrics(tracer: Tracer, prep: Prepared, returned_steps: int, setups: int) -> dict:
    """Per-layer figures from the spans of a traced run."""
    spans = tracer.spans
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, self_s in zip(spans, self_times(spans)):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        own[s.name] = own.get(s.name, 0.0) + self_s
        calls[s.name] = calls.get(s.name, 0) + 1

    def ms(name: str, per: int | None = None, table=total, scale: float = 1000.0) -> float:
        n = calls.get(name, 0) if per is None else per
        return scale * table.get(name, 0.0) / n if n else 0.0

    def ratio(a: float, b: int) -> float:
        return a / b if b else 0.0

    batches = calls.get("bench.train_batch", 0)
    examples = BATCH_SIZE * batches
    beam_docs = calls.get("bench.beam5_doc", 0)
    docs = examples + calls.get("bench.greedy_doc", 0) + beam_docs
    beam_ops = {i for i, s in enumerate(spans) if s.name == "bench.beam5_doc"}
    beam_steps = sum(1 for s in spans if s.name == "model.decoder_step" and s.op in beam_ops)
    return {
        "model.encode_ms_per_doc": (ms("model.encode", docs), "ms"),
        "model.embed_ms_per_doc": (ms("model.embed", docs), "ms"),
        "numerics.lstm_cell_step_us": (ms("numerics.lstm_cell_step", scale=1e6), "us"),
        "numerics.lstm_calls_per_doc": (ratio(calls.get("numerics.lstm_cell_step", 0), docs), "count"),
        "numerics.backward_ms_per_batch": (ms("numerics.backward", batches), "ms"),
        "numerics.tape_nodes_per_example": (ratio(sum(tracer.tape_nodes), examples), "count"),
        "numerics.adam_ms_per_batch": (ms("numerics.adam", batches), "ms"),
        "numerics.clip_ms_per_batch": (ms("numerics.clip", batches), "ms"),
        "trainer.sequence_loss_ms_per_example": (ms("trainer.sequence_loss", examples), "ms"),
        "trainer.batch_self_ms": (ms("trainer.train_epoch", batches, own), "ms"),
        "model.decoder_step_ms": (ms("model.decoder_step"), "ms"),
        "model.attend_ms": (ms("model.attend"), "ms"),
        "model.advance_ms": (ms("model.advance"), "ms"),
        "model.decoder_steps_per_doc": (ratio(calls.get("model.decoder_step", 0), docs), "count"),
        "inference.greedy_ms_per_doc": (ms("inference.greedy"), "ms"),
        "inference.beam5_ms_per_doc": (ms("inference.beam5", beam_docs), "ms"),
        "inference.beam5_self_ms_per_doc": (ms("inference.beam5", beam_docs, own), "ms"),
        "inference.beam5_useful_step_ratio": (ratio(returned_steps, beam_steps), "ratio"),
        "corpus.build_vocab_s": (ms("corpus.build_vocab", setups, scale=1.0), "s"),
        "corpus.encode_examples_s": (ms("corpus.encode_examples", setups, scale=1.0), "s"),
        "corpus.make_batches_ms": (ms("corpus.make_batches", setups), "ms"),
        "checkpoint.save_s": (ms("checkpoint.save", scale=1.0), "s"),
        "checkpoint.load_s": (ms("checkpoint.load", scale=1.0), "s"),
        "checkpoint.bytes": (float(len(prep.ckpt_bytes)), "bytes"),
    }
