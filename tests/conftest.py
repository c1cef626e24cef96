import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def sweeps_on_pool_threads(monkeypatch):
    """Two workers, and every piece of a split optimizer sweep on a pool
    thread: the calling thread takes an empty first piece."""
    from seq2label.numerics import params, pool

    monkeypatch.setattr(pool, "workers", lambda: 2)
    monkeypatch.setattr(params, "run", lambda pieces: pool.run([lambda: None, *pieces])[1:])
