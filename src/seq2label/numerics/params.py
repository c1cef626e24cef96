"""Named trainable parameters plus the Adam update and gradient clipping."""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from concurrent.futures import wait
from contextlib import contextmanager
from functools import partial

import numpy as np

from ..errors import ConfigError, NumericError, ShapeError
from .pool import run, split, start
from .tensor import Tensor

# Adam sweeps each parameter in blocks of this many elements (512 rows of a
# 64-wide embedding table): a block and two block-sized scratch arrays
# (256 KiB each) stay in cache through all of the update's elementwise steps.
ADAM_BLOCK = 32_768

# The early update (``early_adam_step``) steps runs of up to this many
# consecutive unreached blocks per numpy call. Fewer, longer calls take the
# interpreter lock from the calling thread's forward pass less often. On a
# 2-vCPU host, pinned train_longdoc ran 124 docs/s with one block per call
# against 137 with four (4 of 4 pairs); two and eight ran as fast as four,
# and two keeps the update's scratch buffer at 1 MiB.
EARLY_RUN = 2


_local = threading.local()


def _scratch(size: int) -> np.ndarray:
    """``size`` elements of the calling thread's own float64 buffer, which
    grows to the thread's largest request and is kept, so a thread's sweeps
    allocate nothing after its first."""
    buf = getattr(_local, "buffer", None)
    if buf is None or buf.size < size:
        buf = _local.buffer = np.empty(size)
    return buf[:size]


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
        self._reach: _Reach | None = None  # set by early_adam_step for one step

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

    def grad_norm(self, scale: float = 1.0) -> float:
        """Global L2 norm of the gradients divided by ``scale``.

        Each gradient's squares sum to the same bits as ``(g * g).sum()``
        (see ``_sum_squares``); inside ``early_adam_step`` the table's
        subtrees that hold no reached row are not squared. A sum of squares
        that overflows gives ``inf`` without a warning.
        """
        total = 0.0
        with np.errstate(over="ignore"):
            for name, t in self._params.items():
                if t.grad is None:
                    continue
                _check_grad_shape(name, t)
                reach = self._reach if self._reach is not None and self._reach.name == name else None
                total += self._sum_squares(t.grad.reshape(-1), scale, 0, reach)
        return float(np.sqrt(total))

    def _sum_squares(self, g: np.ndarray, scale: float, lo: int = 0, reach: _Reach | None = None) -> float:
        """``((g / scale) ** 2).sum()`` of a flat array, squared at most
        ``ADAM_BLOCK`` elements at a time into the calling thread's scratch
        buffer.

        numpy sums pairwise, splitting n elements at
        ``n//2 - (n//2) % 8``; splitting at the same points makes each
        piece's sum one subtree of the whole array's, so the bits agree.
        ``g`` starts at element ``lo`` of the gradient ``reach`` describes:
        a subtree that holds none of its rows is 0.0 without a pass, which
        is exact, since squares are never negative and ``x + 0.0 == x``.
        """
        n = g.size
        if reach is not None and not reach.reaches(lo, lo + n):
            return 0.0
        if n > ADAM_BLOCK:
            half = n // 2 - (n // 2) % 8
            return self._sum_squares(g[:half], scale, lo, reach) + self._sum_squares(g[half:], scale, lo + half, reach)
        buf = _scratch(n)
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

    def moments(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Adam's first and second moments by name: the store's own arrays,
        for a caller that only reads them (``adam_state`` returns copies)."""
        return self._adam_m, self._adam_v

    def load_adam_state(self, state: dict) -> None:
        self.step_count = int(state["step"])
        for k in self._params:
            self._adam_m[k] = np.ascontiguousarray(state["m"][k], dtype=np.float64)
            self._adam_v[k] = np.ascontiguousarray(state["v"][k], dtype=np.float64)


def _check_grad_shape(name: str, t: Tensor) -> None:
    if t.grad.shape != t.data.shape:
        raise ShapeError(f"gradient of parameter {name!r} has shape {t.grad.shape}, expected {t.data.shape}")


class _Reach:
    """The rows of table ``name`` that one step's gradient reaches; every
    other row's gradient is +0.0. ``hit[k]`` says whether Adam's block k of
    the flat table holds a reached row; ``runs`` are the other blocks, up to
    ``EARLY_RUN`` consecutive ones each. ``early`` is their update running
    on a pool thread (a future), or None once it has run on the calling
    thread."""

    def __init__(self, name: str, table: np.ndarray, rows, rule: tuple):
        self.name, self.rule, self.early = name, rule, None
        self.rows = np.unique(np.asarray(rows, dtype=np.int64)).tolist()
        if self.rows and not 0 <= self.rows[0] <= self.rows[-1] < table.shape[0]:
            raise ShapeError(f"rows of {name!r} must be within range for shape {table.shape}")
        self.width = table.size // table.shape[0]
        self.hit = [self.reaches(lo, lo + ADAM_BLOCK) for lo in range(0, table.size, ADAM_BLOCK)]
        self.runs = []
        for k, hit in enumerate(self.hit):
            lo = k * ADAM_BLOCK
            if hit:
                continue
            if self.runs and self.runs[-1].stop == lo and lo - self.runs[-1].start < EARLY_RUN * ADAM_BLOCK:
                self.runs[-1] = slice(self.runs[-1].start, lo + ADAM_BLOCK)
            else:
                self.runs.append(slice(lo, lo + ADAM_BLOCK))

    def reaches(self, lo: int, hi: int) -> bool:
        """Whether elements ``lo:hi`` of the flat table hold a reached row."""
        i = bisect_left(self.rows, lo // self.width)
        return i < len(self.rows) and self.rows[i] * self.width < hi

    def update(self, p: np.ndarray, m: np.ndarray, v: np.ndarray) -> None:
        """The zero-gradient rule of ``_update`` over ``runs`` of the flat
        table ``p`` and its moments ``m`` and ``v``, a run per numpy call."""
        scratch = _scratch(2 * EARLY_RUN * ADAM_BLOCK)
        for span in self.runs:
            _update(p[span], None, m[span], v[span], scratch, *self.rule)


def clip_gradients(store: ParameterStore, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the applied factor. A no-op (factor 1.0) when already within the
    bound; the small tolerance keeps a second clip from rescaling a result
    that sits on the boundary only because of rounding. A non-finite gradient
    raises NumericError naming its parameter before anything is scaled.
    Inside ``early_adam_step`` the table's blocks that hold no reached row
    stay +0.0 without a pass.
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
    reach = store._reach
    for name, t in store.items():
        if t.grad is None:
            continue
        if reach is None or reach.name != name:
            t.grad *= factor
            continue
        flat = t.grad.reshape(-1)
        for k, hit in enumerate(reach.hit):
            if hit:
                flat[k * ADAM_BLOCK : (k + 1) * ADAM_BLOCK] *= factor
    return factor


def _rule(t: int, lr: float, beta1: float, beta2: float, eps: float) -> tuple[float, ...]:
    """Adam's constants at step ``t``, the trailing arguments of ``_update``."""
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
        raise ConfigError(f"betas must be in [0, 1), got {beta1}, {beta2}")
    return lr, beta1, beta2, eps, 1.0 - beta1 ** t, 1.0 - beta2 ** t


def _update(p, g, m, v, scratch, lr, beta1, beta2, eps, bc1, bc2) -> None:
    """Adam's update of one run of elements in place, through the first
    ``2 * p.size`` elements of ``scratch``.

    Every step is elementwise and in the order of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + ((1-b2)*g)*g``, ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``,
    so the result has the bits of that whole-array expression. ``g`` None
    is a gradient of +0.0, whose rule has the same bits in ten of the
    fourteen passes: ``m = b1*m + 0.0`` (the add turns -0.0 into +0.0, as
    adding ``(1-b1)*0.0`` does) and ``v = b2*v`` (``v`` is a sum of squares
    from +0.0, never negative or -0.0, so adding +0.0 changes no bit).
    """
    a, b = scratch[: p.size], scratch[p.size : 2 * p.size]
    m *= beta1
    if g is None:
        m += 0.0
        v *= beta2
    else:
        m += np.multiply(1.0 - beta1, g, out=a)
        v *= beta2
        v += np.multiply(np.multiply(1.0 - beta2, g, out=a), g, out=a)
    np.multiply(lr, np.divide(m, bc1, out=a), out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), eps, out=b)
    p -= np.divide(a, b, out=a)


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
    through two block-sized halves of the sweeping thread's scratch buffer
    (see ``_update``), so the result has the same bits as the whole-array
    expression, whichever thread updates a block. A large enough sweep runs
    on every CPU (see ``pool``): each thread takes the next block not yet
    taken, so a thread slowed by other work takes fewer. Inside
    ``early_adam_step``, which must have been given the same
    hyperparameters, this first waits for the early update of the table's
    unreached blocks and raises its error, then sweeps only the table's
    reached blocks.
    """
    live = [(name, p) for name, p in store.items() if p.grad is not None]
    rule = _rule(store.step_count + 1, lr, beta1, beta2, eps)
    for name, p in live:
        _check_grad_shape(name, p)
    reach, store._reach = store._reach, None
    if reach is not None and reach.rule != rule:
        raise ConfigError(f"adam_step at step {store.step_count + 1} got {rule[:4]}, its early step {reach.rule[:4]}")
    store.step_count += 1
    if reach is not None and reach.early is not None:
        reach.early.result()
    blocks, size = [], 0
    for name, p in live:
        flat = (p.data.reshape(-1), p.grad.reshape(-1), store._adam_m[name].reshape(-1),
                store._adam_v[name].reshape(-1))
        n = flat[0].size
        for k, lo in enumerate(range(0, n, ADAM_BLOCK)):
            if reach is None or reach.name != name or reach.hit[k]:
                blocks.append((flat, slice(lo, lo + ADAM_BLOCK)))
                size += min(n - lo, ADAM_BLOCK)
    todo, lock = iter(blocks), threading.Lock()

    def sweep() -> None:
        scratch = _scratch(2 * ADAM_BLOCK)
        while True:
            with lock:
                flat, block = next(todo, (None, None))
            if flat is None:
                return
            _update(*(a[block] for a in flat), scratch, *rule)

    run([sweep] * split(size, len(blocks)))


@contextmanager
def early_adam_step(
    store: ParameterStore,
    name: str,
    rows,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """Within this block, the next step's gradient of the table ``name`` is
    +0.0 in every row not in ``rows``; start that step's update of those rows.

    The table's blocks of ``ADAM_BLOCK`` elements that hold none of ``rows``
    take the zero-gradient rule of ``_update`` at step
    ``store.step_count + 1``, with these hyperparameters, which the
    ``adam_step`` inside the block must be given too. When they add up to
    ``SPLIT_MIN`` elements or more and the process may use more than one
    CPU, a pool thread updates them, ``EARLY_RUN`` blocks per numpy call,
    while the caller computes the gradient: it touches only those blocks'
    values and moments, which a forward and backward that gather ``rows``
    never read. Otherwise the calling thread updates them here, before the
    block's body runs. ``adam_step`` updates the other blocks, and
    ``grad_norm`` and ``clip_gradients`` skip these. Every bit is that of
    the dense update given the +0.0 gradient; a gradient that is not +0.0
    outside ``rows`` is updated as if it were.

    The block exits only once the early update has finished. A block left
    by an error before ``adam_step`` leaves those blocks one step ahead of
    the rest of the store, at any CPU count.
    """
    table = store[name].data
    reach = _Reach(name, table, rows, _rule(store.step_count + 1, lr, beta1, beta2, eps))
    update = partial(reach.update, *(a.reshape(-1) for a in (table, store._adam_m[name], store._adam_v[name])))
    if split(sum(min(span.stop, table.size) - span.start for span in reach.runs), 2) > 1:
        reach.early = start(update)
    else:
        update()
    store._reach = reach
    try:
        yield
    finally:
        store._reach = None
        if reach.early is not None:
            wait([reach.early])
