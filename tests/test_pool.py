"""The sweeps' thread pool: order, errors, the caller's errstate, and when it starts."""

import contextvars
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

    def test_errstate_reaches_the_pool_threads_without_the_context(self, monkeypatch):
        # numpy 1.x keeps errstate per thread, not in the context: a pool
        # thread given an empty context must still raise
        monkeypatch.setattr(pool.contextvars, "copy_context", contextvars.Context)
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

    def test_split_follows_the_size_and_the_cpus(self, monkeypatch):
        monkeypatch.setattr(pool, "workers", lambda: 3)
        assert pool.split(pool.SPLIT_MIN - 1, 8) == 1
        assert pool.split(pool.SPLIT_MIN, 8) == 3
        assert pool.split(pool.SPLIT_MIN, 2) == 2
        monkeypatch.setattr(pool, "workers", lambda: 1)
        assert pool.split(10 ** 9, 8) == 1


def sweep_threads(code: str, one_cpu: bool) -> list[str]:
    """The names of the pool threads alive after ``code`` runs in a fresh
    interpreter, optionally confined to one CPU as ``taskset -c`` would."""
    script = ("import threading\n" + code +
              "\nimport json\nprint(json.dumps([t.name for t in threading.enumerate() if t.name.startswith('seq2label-sweep')]))")
    cpu = min(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    preexec = (lambda: os.sched_setaffinity(0, {cpu})) if one_cpu else None
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV,
                          preexec_fn=preexec, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


ADAM_ON_A_TABLE = """
import numpy as np
from seq2label.numerics import ParameterStore, RngStream, adam_step
store = ParameterStore()
table = store.add("table", (5000, 64), RngStream(0))
table.grad = np.ones((5000, 64))
adam_step(store)
"""


def test_importing_starts_no_thread():
    assert sweep_threads("import seq2label, seq2label.cli, seq2label.numerics", one_cpu=False) == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_one_cpu_sweeps_on_the_calling_thread():
    assert sweep_threads(ADAM_ON_A_TABLE, one_cpu=True) == []
    if len(os.sched_getaffinity(0)) > 1:
        assert sweep_threads(ADAM_ON_A_TABLE, one_cpu=False) != []
