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


@pytest.fixture
def starve_terminal():
    """Sets a model's weights so that the terminal class's probability is
    exactly 0.0 at every decoder step, whatever the document: the decoder's
    gates and cell input all saturate at 1, so its state is positive, every
    output-layer unit then reads a positive sum, and each real label's logit
    is 1e7 times the sum of those units while the terminal one's is 0."""

    def starve(model):
        p = model.params
        for layer in range(model.config.decoder_layers):
            p[f"dec.l{layer}.wx"].data[:] = 0.0
            p[f"dec.l{layer}.wh"].data[:] = 0.0
            p[f"dec.l{layer}.b"].data[:] = 50.0
        p["out.w_context"].data[:] = 0.0
        p["out.w_state"].data[:] = 1.0
        p["out.w_logits"].data[:model.num_labels] = 1e7
        p["out.w_logits"].data[model.num_labels] = 0.0
        return model

    return starve
