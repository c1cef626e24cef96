"""Named trainable parameters plus the Adam update and gradient clipping."""

from __future__ import annotations

import math
import threading
from functools import partial

import numpy as np

from ..errors import ConfigError, NumericError, ShapeError
from .pool import run, split
from .tensor import Tensor

# Adam sweeps each parameter in blocks of this many elements (512 rows of a
# 64-wide embedding table): a block and two block-sized scratch arrays
# (256 KiB each) stay in cache through all of the update's elementwise steps.
ADAM_BLOCK = 32_768


class ParameterStore:
    """Ordered name -> Tensor map that also owns the optimizer state.

    Insertion order is the canonical parameter order everywhere: gradient
    norms, checkpoint layout, and finite-difference sampling all walk it.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self.step_count = 0
        self._buffers = [np.empty(0)]  # scratch for grad_norm and adam_step, see _scratch()

    def add(self, name: str, shape: tuple[int, ...], rng, scale: float = 0.1) -> Tensor:
        """Create a parameter with uniform [-scale, scale] entries."""
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        t = Tensor(rng.uniform(-scale, scale, shape), requires_grad=True)
        self._params[name] = t
        self._adam_m[name] = np.zeros(shape)
        self._adam_v[name] = np.zeros(shape)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def _scratch(self, size: int, count: int = 1) -> list[np.ndarray]:
        """``size`` elements of each of ``count`` float64 buffers the store
        reuses, one for each piece of a sweep that runs at once.

        Each grows to the largest request, ``2 * ADAM_BLOCK`` once Adam has
        run, and none is shrunk or dropped, so the optimizer's sweeps
        allocate nothing after their first call at a given worker count.
        """
        while len(self._buffers) < count:
            self._buffers.append(np.empty(0))
        for i in range(count):
            if self._buffers[i].size < size:
                self._buffers[i] = np.empty(size)
        return [buf[:size] for buf in self._buffers[:count]]

    @property
    def _buffer(self) -> np.ndarray:
        """The first scratch buffer, the one the calling thread sweeps with."""
        return self._buffers[0]

    def grad_norm(self, scale: float = 1.0) -> float:
        """Global L2 norm of the gradients divided by ``scale``.

        Each gradient's squares sum to the same bits as ``(g * g).sum()``
        (see ``_sum_squares``). A sum of squares that overflows gives ``inf``
        without a warning.
        """
        total = 0.0
        with np.errstate(over="ignore"):
            for name, t in self._params.items():
                if t.grad is None:
                    continue
                _check_grad_shape(name, t)
                total += self._sum_squares(t.grad.reshape(-1), scale)
        return float(np.sqrt(total))

    def _sum_squares(self, g: np.ndarray, scale: float) -> float:
        """``((g / scale) ** 2).sum()`` of a flat array, squared at most
        ``ADAM_BLOCK`` elements at a time into the first reused buffer.

        numpy sums pairwise, splitting n elements at
        ``n//2 - (n//2) % 8``; splitting at the same points makes each
        piece's sum one subtree of the whole array's, so the bits agree.
        """
        n = g.size
        if n > ADAM_BLOCK:
            half = n // 2 - (n // 2) % 8
            return self._sum_squares(g[:half], scale) + self._sum_squares(g[half:], scale)
        buf = self._scratch(n)[0]
        if scale != 1.0:
            g = np.divide(g, scale, out=buf)
        return float(np.multiply(g, g, out=buf).sum())

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        if set(values) != set(self._params):
            missing = set(self._params) - set(values)
            extra = set(values) - set(self._params)
            raise ConfigError(f"parameter name mismatch: missing={sorted(missing)}, extra={sorted(extra)}")
        for name, arr in values.items():
            t = self._params[name]
            if arr.shape != t.data.shape:
                raise ConfigError(f"shape mismatch for {name!r}: {arr.shape} vs {t.data.shape}")
            t.data = np.ascontiguousarray(arr, dtype=np.float64)

    def adam_state(self) -> dict:
        return {
            "step": self.step_count,
            "m": {k: v.copy() for k, v in self._adam_m.items()},
            "v": {k: v.copy() for k, v in self._adam_v.items()},
        }

    def load_adam_state(self, state: dict) -> None:
        self.step_count = int(state["step"])
        for k in self._params:
            self._adam_m[k] = np.ascontiguousarray(state["m"][k], dtype=np.float64)
            self._adam_v[k] = np.ascontiguousarray(state["v"][k], dtype=np.float64)


def _check_grad_shape(name: str, t: Tensor) -> None:
    if t.grad.shape != t.data.shape:
        raise ShapeError(f"gradient of parameter {name!r} has shape {t.grad.shape}, expected {t.data.shape}")


def clip_gradients(store: ParameterStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the applied factor. A no-op (factor 1.0) when already within the
    bound; the small tolerance keeps a second clip from rescaling a result
    that sits on the boundary only because of rounding. A non-finite gradient
    raises NumericError naming its parameter before anything is scaled.
    """
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    norm = store.grad_norm()
    scale = 1.0
    if not math.isfinite(norm):
        grads = [(name, t.grad) for name, t in store.items() if t.grad is not None]
        for name, g in grads:
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient in parameter {name!r}")
        # every gradient is finite, so only the sum of squares overflowed:
        # measure the gradients relative to the largest magnitude instead
        scale = max(max(float(g.max()), -float(g.min())) for _, g in grads)
        norm = store.grad_norm(scale)
    if norm * scale <= max_norm * (1.0 + 1e-12):
        return 1.0
    factor = max_norm / norm / scale
    for t in store._params.values():
        if t.grad is not None:
            t.grad *= factor
    return factor


def adam_step(
    store: ParameterStore,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update over every parameter with a gradient.

    A parameter whose gradient is None has no gradient this batch and is
    skipped: its value and moments stay as they are. A zero gradient is
    an update like any other, so the moments decay and a nonzero first
    moment still moves the value.

    The update runs in place, ``ADAM_BLOCK`` elements at a time, each block
    through two block-sized halves of a scratch buffer of the store. Every
    step is elementwise and in the order of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + ((1-b2)*g)*g``, ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``,
    so the result has the same bits as that whole-array expression, whichever
    thread updates a block. A large enough sweep runs on every CPU (see
    ``pool``): each thread takes the next block not yet taken, so a thread
    slowed by other work takes fewer, and sweeps through its own buffer.
    """
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
        raise ConfigError(f"betas must be in [0, 1), got {beta1}, {beta2}")
    live = [(name, p) for name, p in store.items() if p.grad is not None]
    for name, p in live:
        _check_grad_shape(name, p)
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    flats = [(p.data.reshape(-1), p.grad.reshape(-1), store._adam_m[name].reshape(-1),
              store._adam_v[name].reshape(-1)) for name, p in live]
    blocks = [(flat, slice(lo, lo + ADAM_BLOCK)) for flat in flats for lo in range(0, flat[0].size, ADAM_BLOCK)]
    todo, lock = iter(blocks), threading.Lock()

    def sweep(scratch: np.ndarray) -> None:
        while True:
            with lock:
                flat, block = next(todo, (None, None))
            if flat is None:
                return
            pb, g, m, v = (a[block] for a in flat)
            a, b = scratch[: pb.size], scratch[ADAM_BLOCK : ADAM_BLOCK + pb.size]
            m *= beta1
            m += np.multiply(1.0 - beta1, g, out=a)
            v *= beta2
            v += np.multiply(np.multiply(1.0 - beta2, g, out=a), g, out=a)
            np.multiply(lr, np.divide(m, bc1, out=a), out=a)
            np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), eps, out=b)
            pb -= np.divide(a, b, out=a)

    count = split(sum(p.data.size for _, p in live), len(blocks))
    run([partial(sweep, scratch) for scratch in store._scratch(2 * ADAM_BLOCK, count)])
