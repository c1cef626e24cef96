"""Finite-difference verification of the reverse-mode gradients."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError
from .params import ParameterStore
from .rng import RngStream


def finite_difference_check(
    loss_fn,
    store: ParameterStore,
    eps: float = 1e-5,
    samples_per_param: int = 4,
    rng: RngStream | None = None,
) -> float:
    """Compare analytic gradients against central differences; return the max
    relative error over all probed coordinates.

    ``loss_fn`` must be a deterministic closure over ``store`` returning a
    scalar Tensor. Each parameter of ``size`` elements gets
    ``min(samples_per_param, size)`` coordinates, drawn at random with
    replacement from ``rng`` (``RngStream(0)`` if None). The relative error
    is |analytic - numeric| / max(1e-8, |analytic|).
    """
    rng = rng or RngStream(0)
    store.zero_grads()
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros(t.data.shape))
        for name, t in store.items()
    }

    coords: list[tuple[str, tuple[int, ...]]] = []
    for name in store.names():
        size = store[name].data.size
        for _ in range(min(samples_per_param, size)):
            flat = int(rng.integers(0, size))
            coords.append((name, np.unravel_index(flat, store[name].data.shape)))

    worst = 0.0
    for name, idx in coords:
        data = store[name].data
        saved = data[idx]
        data[idx] = saved + eps
        up = loss_fn().item()
        data[idx] = saved - eps
        down = loss_fn().item()
        data[idx] = saved
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError(f"non-finite loss while probing {name}{list(idx)}")
        numeric = (up - down) / (2.0 * eps)
        a = float(analytic[name][idx])
        rel = abs(a - numeric) / max(1e-8, abs(a))
        worst = max(worst, rel)
    return worst
