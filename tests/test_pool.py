"""The sweeps' thread pool: order, errors, the caller's errstate, when it
starts, and training's bits at one CPU and two."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from seq2label.numerics import pool

CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


def overflow():
    return np.float64(1e308) * 10.0


class TestRun:
    def test_results_come_back_in_piece_order(self):
        pieces = [lambda k=k: (time.sleep(0.01 * (5 - k)), k)[1] for k in range(5)]
        assert pool.run(pieces) == list(range(5))

    def test_errstate_reaches_the_pool_threads(self):
        # the second piece always runs on a pool thread; without the caller's
        # context it would only warn
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                pool.run([lambda: 0.0, overflow])
        with np.errstate(over="ignore"):
            assert pool.run([lambda: 0.0, overflow]) == [0.0, np.inf]

    def test_first_exception_in_piece_order_is_raised(self):
        def fail(error):
            raise error

        with pytest.raises(ValueError, match="second"):
            pool.run([lambda: 0, lambda: fail(ValueError("second")), lambda: fail(KeyError("third"))])

    def test_every_piece_has_finished_when_the_caller_raises(self):
        done = threading.Event()

        def slow():
            time.sleep(0.05)
            done.set()

        def fail():
            raise ValueError("first")

        with pytest.raises(ValueError, match="first"):
            pool.run([fail, slow])
        assert done.is_set()

    def test_a_started_piece_leaves_run_its_threads(self, monkeypatch):
        # a fresh pool at two CPUs: while a started piece blocks, run's
        # second piece must still find a pool thread
        monkeypatch.setattr(pool, "workers", lambda: 2)
        monkeypatch.setattr(pool, "_pool", None)
        monkeypatch.setattr(pool, "_pool_threads", 0)
        release = threading.Event()
        started = pool.start(release.wait)
        try:
            done = []
            caller = threading.Thread(target=lambda: done.append(pool.run([lambda: 1, lambda: 2])))
            caller.start()
            caller.join(timeout=30)
            assert not caller.is_alive() and done == [[1, 2]] and not started.done()
        finally:
            release.set()
        assert started.result(timeout=30) is True

    def test_split_follows_the_size_and_the_cpus(self, monkeypatch):
        monkeypatch.setattr(pool, "workers", lambda: 3)
        assert pool.split(pool.SPLIT_MIN - 1, 8) == 1
        assert pool.split(pool.SPLIT_MIN, 8) == 3
        assert pool.split(pool.SPLIT_MIN, 2) == 2
        monkeypatch.setattr(pool, "workers", lambda: 1)
        assert pool.split(10 ** 9, 8) == 1


def child(code: str, cpus: int | None = None):
    """The JSON that ``code`` prints last in a fresh interpreter, confined to
    ``cpus`` of this process's CPUs as ``taskset -c`` would, or to all."""
    preexec = None
    if cpus is not None:
        mine = sorted(os.sched_getaffinity(0))[:cpus]
        preexec = lambda: os.sched_setaffinity(0, mine)  # noqa: E731
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV,
                          preexec_fn=preexec, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sweep_threads(code: str, one_cpu: bool) -> list[str]:
    """The names of the pool threads alive after ``code`` runs in a fresh
    interpreter, optionally confined to one CPU."""
    return child("import threading\n" + code + "\nimport json\nprint(json.dumps("
                 "[t.name for t in threading.enumerate() if t.name.startswith('seq2label-sweep')]))",
                 1 if one_cpu else None)


ADAM_ON_A_TABLE = """
import numpy as np
from seq2label.numerics import ParameterStore, RngStream, adam_step
store = ParameterStore()
table = store.add("table", (5000, 64), RngStream(0))
table.grad = np.ones((5000, 64))
adam_step(store)
"""

# a batch of two documents that reaches 1 of the token table's 16 blocks
TRAIN_A_BATCH = """
import numpy as np
from seq2label.corpus import Batch
from seq2label.model import ModelConfig, Seq2LabelModel
from seq2label.numerics import RngStream
from seq2label.trainer import TrainConfig, train_epoch
model = Seq2LabelModel(ModelConfig(), 8192, 4, RngStream(0))
batch = Batch(np.arange(40, dtype=np.int64), np.array([25, 15]), [[model.bos_class, 0, model.eos_class]] * 2)
train_epoch(model, [batch], TrainConfig(), RngStream(0))
"""


def test_importing_starts_no_thread():
    assert sweep_threads("import seq2label, seq2label.cli, seq2label.numerics", one_cpu=False) == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_one_cpu_sweeps_on_the_calling_thread():
    for code in (ADAM_ON_A_TABLE, TRAIN_A_BATCH):
        assert sweep_threads(code, one_cpu=True) == []
        if len(os.sched_getaffinity(0)) > 1:
            assert sweep_threads(code, one_cpu=False) != []


# Checkpoints, Adam's state included, after ``fit`` with the early update of
# the token table's unreached blocks and with plain ``adam_step``.
FIT_BOTH_WAYS = """
import contextlib, hashlib, json, os, tempfile
import numpy as np
from seq2label import checkpoint, corpus, trainer
from seq2label.model import ModelConfig, Seq2LabelModel
from seq2label.numerics import RngStream, params

rng = np.random.default_rng(11)
# words mostly seen once, so a document's words take neighbouring ids and a
# batch of four leaves most of the token table's 8 blocks unreached
records = [{"text": " ".join(f"w{w}" for w in rng.integers(0, 10**6, 40)),
            "labels": [f"l{k}" for k in rng.choice(6, int(rng.integers(1, 4)), replace=False)]} for _ in range(96)]
vocab, label_vocab = corpus.build_vocab(records)
examples = corpus.encode_examples(records, vocab, label_vocab)
starts, factors = [], []
start, clip, early = params.start, trainer.clip_gradients, trainer.early_adam_step
params.start = lambda piece: starts.append(piece) or start(piece)
trainer.clip_gradients = lambda store, max_norm: factors.append(clip(store, max_norm)) or factors[-1]
out = {}
for name, model_config, clip_norm in [
    ("default", ModelConfig(), 10.0),
    ("gate", ModelConfig(encoder_layers=2, ge_mode="gate", dropout=0.25), 10.0),
    ("clipped", ModelConfig(), 0.5),
]:
    factors.clear()
    for way in ("early", "plain"):
        trainer.early_adam_step = early if way == "early" else lambda *args: contextlib.nullcontext()
        model = Seq2LabelModel(model_config, len(vocab), len(label_vocab), RngStream(1))
        trainer.fit(model, examples, None, trainer.TrainConfig(epochs=2, batch_size=4, clip_norm=clip_norm),
                    label_vocab)
        with tempfile.TemporaryDirectory() as tmp:
            checkpoint.save_checkpoint(os.path.join(tmp, "model.ckpt"), model, vocab, label_vocab, save_adam=True)
            with open(os.path.join(tmp, "model.ckpt"), "rb") as f:
                out[f"{name} {way}"] = hashlib.sha256(f.read()).hexdigest()
    out[f"{name} clips"] = min(factors) < 1.0
out["early starts"] = len(starts)
out["vocab"] = len(vocab)
print(json.dumps(out))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_early_update_keeps_the_checkpoint_bytes():
    runs = {cpus: child(FIT_BOTH_WAYS, cpus) for cpus in (1, 2) if cpus <= len(os.sched_getaffinity(0))}
    for cpus, out in runs.items():
        assert out.pop("clipped clips") and not out.pop("default clips")
        assert (out.pop("early starts") > 0) == (cpus > 1)
        for name in ("default", "gate", "clipped"):
            assert out[f"{name} early"] == out[f"{name} plain"], (cpus, name)
    assert runs[1] == runs.get(2, runs[1])
