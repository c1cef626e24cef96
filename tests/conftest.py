import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool yet: the test's first sweep that splits makes one with room
    for the ``workers()`` the test sets. It is shut down when the test ends,
    and the pool from before comes back."""
    from seq2label.numerics import pool

    monkeypatch.setattr(pool, "_pool", None)
    yield
    if pool._pool is not None:
        pool._pool.shutdown(wait=True)


@pytest.fixture
def sweeps_on_pool_threads(monkeypatch, fresh_pool):
    """Two workers, and every piece of a split optimizer sweep on a pool
    thread: the calling thread takes an empty first piece."""
    from seq2label.numerics import params, pool

    monkeypatch.setattr(pool, "workers", lambda: 2)
    monkeypatch.setattr(params, "run", lambda pieces: pool.run([lambda: None, *pieces])[1:])
