"""Dense float64 tensors with reverse-mode gradients.

Values are C-order (row-major) float64 numpy arrays; supported ranks are
scalar (shape ``()``), vector, and matrix. Every operation records a backward
closure when any input participates in gradient computation, and calling
``backward()`` on a scalar loss replays the closures in reverse topological
order. Inference code wraps itself in ``no_grad()`` to skip graph recording.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigError, NumericError, ShapeError

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


class Tensor:
    """A float64 array plus an optional gradient buffer and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would also promote 0-d to 1-d, so gate it
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph ---------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate dloss/dx into ``.grad`` of every ancestor, loss = self.

        Only defined for scalar nodes; raises NumericError otherwise.
        """
        if self.data.shape != ():
            raise NumericError(
                f"backward() requires a scalar loss node, got shape {self.data.shape}"
            )
        order: list[Tensor] = []
        seen = {id(self)}
        stack: list[tuple[Tensor, Iterable[Tensor]]] = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            pushed = False
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    pushed = True
                    break
            if not pushed:
                order.append(node)
                stack.pop()
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        """Equal shapes, or a matrix plus a vector added to each of its rows."""
        a, b = self.data, other.data
        if a.shape != b.shape and not (a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]):
            raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}")

        def bw(g, x=self, y=other):
            _accum(x, g)
            _accum(y, g if g.shape == y.data.shape else g.sum(axis=0))

        return _node(a + b, (self, other), bw)

    def __sub__(self, other: "Tensor") -> "Tensor":
        a, b = self.data, other.data
        if a.shape != b.shape:
            raise ShapeError(f"cannot subtract shapes {a.shape} and {b.shape}")

        def bw(g, a=self, b=other):
            _accum(a, g)
            _accum(b, -g)

        return _node(a - b, (self, other), bw)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)

            def bw(g, a=self, c=c):
                _accum(a, g * c)

            return _node(self.data * c, (self,), bw)
        a, b = self.data, other.data
        if a.shape != b.shape:
            raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")

        def bw(g, x=self, y=other, a=a, b=b):
            _accum(x, g * b)
            _accum(y, g * a)

        return _node(a * b, (self, other), bw)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __matmul__(self, other: "Tensor") -> "Tensor":
        a, b = self.data, other.data
        if a.ndim not in (1, 2) or b.ndim not in (1, 2):
            raise ShapeError(f"unsupported matmul ranks: {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[0]:
            kind = {(2, 1): "matvec", (1, 2): "vecmat", (2, 2): "matmul", (1, 1): "dot"}[a.ndim, b.ndim]
            raise ShapeError(f"{kind} shape mismatch: {a.shape} vs {b.shape}")

        def bw(g, x=self, y=other, a=a, b=b):
            # a vector is a one-row left operand or a one-column right operand
            a2, b2 = a.reshape(-1, a.shape[-1]), b.reshape(b.shape[0], -1)
            g2 = np.reshape(g, (a2.shape[0], b2.shape[1]))
            _accum(x, (g2 @ b2.T).reshape(a.shape))
            _accum(y, (a2.T @ g2).reshape(b.shape))

        return _node(a @ b, (self, other), bw)

    # -- indexing --------------------------------------------------------------

    __iter__ = None  # indexing must not make a tensor iterable: loops would end in ShapeError

    def __getitem__(self, index) -> "Tensor":
        """Entries along the first axis of a vector or matrix: an int, a slice,
        or an index vector (repeated indices accumulate gradient). With a
        leading Ellipsis, ``t[..., i]``, an int or a slice picks entries along
        the last axis instead: of a vector, or of each row of a matrix."""
        shape = self.data.shape
        if len(shape) not in (1, 2):
            raise ShapeError(f"indexing expects a vector or matrix, got shape {shape}")
        axis, key = shape[0], index
        if isinstance(index, tuple):
            if len(index) != 2 or index[0] is not Ellipsis or not isinstance(index[1], (int, np.integer, slice)):
                raise ShapeError(f"a tuple index must be (..., int or slice), got {index!r}")
            axis, key = shape[-1], index[1]
        if isinstance(key, (int, np.integer)):
            if not 0 <= key < axis:
                raise ShapeError(f"index {index} out of range for shape {shape}")
        elif not isinstance(key, slice):
            idx = np.asarray(key)
            bad = idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= shape[0])
            if idx.ndim != 1 or bad:
                raise ShapeError(f"index array must be an integer vector within range for shape {shape}")
            index = idx.astype(np.int64, copy=False)
        return _gather(self, index)

    def sum(self) -> "Tensor":
        def bw(g, x=self):
            _accum(x, np.full(x.data.shape, float(g)))

        return _node(self.data.sum(), (self,), bw)


def _gather(x: Tensor, index) -> Tensor:
    """``x[index]`` as a graph node, for an index already known to be valid:
    an in-range int, a slice, an ``(..., int or slice)`` tuple, or an int64
    index vector within range (``Tensor.__getitem__`` checks; callers that
    built the index themselves skip the checks)."""

    def bw(g, x=x, index=index):
        # add into the gradient buffer itself: no table-sized temporary
        if x.grad is None:
            x.grad = np.zeros(x.data.shape)
        if not isinstance(index, np.ndarray):
            x.grad[index] += g
        elif index.size == x.data.shape[0] and index.size and np.bincount(index, minlength=index.size).max() == 1:
            # a permutation of every row: its gradient is a gather, not a scatter-add
            x.grad += g[np.argsort(index)]
        else:
            np.add.at(x.grad, index, g)

    out = x.data[index]
    # an index array gathers a fresh array; ints and slices give views
    return _node(out if isinstance(index, np.ndarray) else out.copy(), (x,), bw)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], bw) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = bw
    return out


def _accum(t: Tensor, g: np.ndarray, at=...) -> None:
    """Add ``g`` into the gradient of ``t``, or into its entries ``at``."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros(t.data.shape)
        t.grad[at] += g


# -- row-by-row products ---------------------------------------------------------
#
# numpy's stacked matmul, (k, 1, D) @ (D, O) or (O, D) @ (k, D, 1), runs one
# vector-matrix product per row, so each row's result has exactly the bits of
# that row multiplied on its own. A (k, D) @ (D, O) gemm does not: its rows
# can differ from the lone products in the last bits.


def _vecmat(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a vector ``x``, or for each row of a matrix ``x`` alone."""
    return x @ w if x.ndim == 1 else np.matmul(x[:, None, :], w)[:, 0, :]


def _matvec(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x`` for a vector ``x``, or for each row of a matrix ``x`` alone."""
    return w @ x if x.ndim == 1 else np.matmul(w, x[:, :, None])[:, :, 0]


def _check_rows(x: Tensor, w: Tensor, dim: int, what: str) -> None:
    if x.data.ndim not in (1, 2) or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[dim]:
        raise ShapeError(f"{what} expects a vector or matrix and a matching matrix, "
                         f"got {x.data.shape} and {w.data.shape}")


def vecmat(x: Tensor, w: Tensor) -> Tensor:
    """``x @ w`` with each row of ``x`` multiplied on its own (a vector is one row)."""
    _check_rows(x, w, 0, "vecmat")

    def bw(g, x=x, w=w):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.reshape(-1, x.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return _node(_vecmat(x.data, w.data), (x, w), bw)


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """``w`` applied to each row of ``x`` on its own (a vector is one row)."""
    _check_rows(x, w, 1, "matvec")

    def bw(g, x=x, w=w):
        _accum(x, g @ w.data)
        _accum(w, g.reshape(-1, g.shape[-1]).T @ x.data.reshape(-1, x.data.shape[-1]))

    return _node(_matvec(w.data, x.data), (x, w), bw)


# -- elementwise nonlinearities ------------------------------------------------


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)

    def bw(g, x=t, out=out):
        _accum(x, g * (1.0 - out * out))

    return _node(out, (t,), bw)


def logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of an array, written into ``out`` if given (which
    may be ``x`` itself).

    It is 0.5 * tanh(0.5 * x) + 0.5: one tanh, which cannot overflow, so
    -inf and +inf give exactly 0 and 1 and NaN stays NaN. The LSTM step
    kernel (``numerics.lstm``) computes its input, forget and output gates
    with these same operations, so the two agree bit for bit.
    """
    if out is None:
        out = np.empty(np.shape(x))
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def sigmoid(t: Tensor) -> Tensor:
    out = logistic(t.data)

    def bw(g, t=t, out=out):
        _accum(t, g * out * (1.0 - out))

    return _node(out, (t,), bw)


# -- structural ops --------------------------------------------------------------


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join vectors end to end, or matrices with equal row counts side by side."""
    if not parts:
        raise ShapeError("concat needs at least one part")
    shapes = [p.data.shape for p in parts]
    first = shapes[0]
    if len(first) not in (1, 2) or any(len(s) != len(first) or s[:-1] != first[:-1] for s in shapes):
        raise ShapeError(f"concat expects vectors or matrices with equal row counts, got shapes {shapes}")
    sizes = [s[-1] for s in shapes]

    def bw(g, parts=tuple(parts), sizes=tuple(sizes)):
        off = 0
        for p, n in zip(parts, sizes):
            _accum(p, g[..., off:off + n])
            off += n

    return _node(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), bw)


def dropout(x: Tensor, rate: float, mode: str = "eval", rng=None) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate`` and rescale survivors.

    Identity in eval mode and at rate 0.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in train mode needs an RngStream")
    keep = (rng.uniform(0.0, 1.0, x.data.shape) >= rate) / (1.0 - rate)

    def bw(g, x=x, keep=keep):
        _accum(x, g * keep)

    return _node(x.data * keep, (x,), bw)
