"""Reverse-mode automatic differentiation over numpy arrays.

A global tape records operations in creation order, which is already a
topological order of the computation graph. ``backward`` walks the recorded
nodes in reverse, accumulating gradients into a per-node table and finally
into the ``.grad`` field of every leaf tensor created with
``requires_grad=True``. Tapes are single use: ``backward`` releases the tape
it consumed, and the next recorded operation starts a fresh one.

Broadcasting in arithmetic ops follows numpy for scalars, missing leading
axes, and size-1 axes; anything else should be made explicit with ``reshape``
before the op.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "no_grad",
    "released_on_error",
    "tensor",
    "parameter",
    "backward",
    "zero_grads",
    "add",
    "sub",
    "mul",
    "neg",
    "relu",
    "absval",
    "matmul",
    "reshape",
    "transpose",
    "flip",
    "sum_",
    "mean_",
    "loss",
    "finite_diff_grad",
]


class Tape:
    """Ordered record of one forward computation."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def release(self, start: int = 0) -> None:
        """Drop the nodes from index ``start`` on, and their references."""
        for node in self.nodes[start:]:
            node.parents = ()
            node.pull = None
        del self.nodes[start:]


class TapeNode:
    __slots__ = ("op", "parents", "pull", "idx", "tape")

    def __init__(self, op: str, parents: tuple, pull: Callable, idx: int, tape: Tape):
        self.op = op
        self.parents = parents
        self.pull = pull
        self.idx = idx
        self.tape = tape


_ACTIVE_TAPE: Tape | None = None
_GRAD_ENABLED: bool = True


def _active_tape() -> Tape:
    global _ACTIVE_TAPE
    if _ACTIVE_TAPE is None:
        _ACTIVE_TAPE = Tape()
    return _ACTIVE_TAPE


class no_grad:
    """Context manager that disables recording (for eval and probing)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class released_on_error:
    """Context manager that drops the nodes recorded inside it if it raises.

    A forward pass that raises would otherwise leave its nodes, and the
    arrays they hold, on the active tape for the next forward to append to.
    """

    def __enter__(self):
        self._tape = _ACTIVE_TAPE
        self._start = len(_ACTIVE_TAPE.nodes) if _ACTIVE_TAPE is not None else 0
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None and _ACTIVE_TAPE is not None:
            _ACTIVE_TAPE.release(self._start if _ACTIVE_TAPE is self._tape else 0)
        return False


class Tensor:
    """A numpy array plus an optional handle into the recording tape."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: TapeNode | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _lift(other, self.dtype))

    def __rsub__(self, other):
        return sub(_lift(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other, self.dtype))


def _lift(x, dtype) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


def record(op: str, out_data: np.ndarray, parents: Sequence[Tensor], pull) -> Tensor:
    """Create the output tensor of an op, recording it when grads are live."""
    out = Tensor(out_data)
    if _GRAD_ENABLED and any(p.node is not None or p.requires_grad for p in parents):
        tape = _active_tape()
        node = TapeNode(op, tuple(parents), pull, len(tape.nodes), tape)
        tape.nodes.append(node)
        out.node = node
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> tuple:
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")

    def pull(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record("add", a.data + b.data, (a, b), pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")

    def pull(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return record("sub", a.data - b.data, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    ad, bd = a.data, b.data

    def pull(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return record("mul", ad * bd, (a, b), pull)


def neg(a: Tensor) -> Tensor:
    return record("neg", -a.data, (a,), lambda g: (-g,))


def relu(a: Tensor) -> Tensor:
    """``max(a, 0)``; NaN stays NaN, and the gradient at exactly 0 is 0."""
    out = np.maximum(a.data, 0)

    def pull(g):
        return (g * (out > 0),)

    return record("relu", out, (a,), pull)


def absval(a: Tensor) -> Tensor:
    sgn = np.sign(a.data)  # subgradient 0 at 0

    def pull(g):
        return (g * sgn,)

    return record("abs", np.abs(a.data), (a,), pull)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have at least 2 axes")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner sizes {a.shape} @ {b.shape} disagree")
    ad, bd = a.data, b.data

    def pull(g):
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), a.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, b.shape)
        return ga, gb

    return record("matmul", ad @ bd, (a, b), pull)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    orig = a.shape

    def pull(g):
        return (g.reshape(orig),)

    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {orig} to {shape}")
    return record("reshape", out, (a,), pull)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation of {a.ndim} axes")
    inv = tuple(np.argsort(axes))

    def pull(g):
        return (g.transpose(inv),)

    return record("transpose", a.data.transpose(axes), (a,), pull)


def flip(a: Tensor, axes) -> Tensor:
    axes = tuple(int(x) for x in axes)

    def pull(g):
        return (np.flip(g, axes),)

    return record("flip", np.flip(a.data, axes).copy(), (a,), pull)


# ---------------------------------------------------------------------------
# reductions


def _norm_axes(axes, ndim) -> tuple:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(sorted(int(a) % ndim for a in axes))
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axes}")
    return axes


def sum_(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axes, a.ndim)
    shape = a.shape

    def pull(g):
        gk = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gk, shape).copy(),)

    return record("sum", a.data.sum(axis=axes, keepdims=keepdims), (a,), pull)


def mean_(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axes, a.ndim)
    shape = a.shape
    count = int(np.prod([shape[ax] for ax in axes])) if axes else 1

    def pull(g):
        gk = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gk / count, shape),)  # a read-only view

    return record("mean", a.data.mean(axis=axes, keepdims=keepdims), (a,), pull)


def loss(kind: str, pred: Tensor, target: Tensor) -> Tensor:
    """Scalar training loss: ``mse`` or ``l1`` over all elements."""
    if pred.shape != target.shape:
        raise ShapeError(f"loss: prediction {pred.shape} vs target {target.shape}")
    diff = sub(pred, target)
    if kind == "mse":
        return mean_(mul(diff, diff))
    if kind == "l1":
        return mean_(absval(diff))
    raise ContractError(f"unknown loss kind {kind!r}")


# ---------------------------------------------------------------------------
# backward


def backward(out: Tensor, params: Iterable[Tensor] | None = None) -> None:
    """Accumulate d(out)/d(leaf) into ``.grad`` of every reachable leaf.

    ``out`` must be scalar. Consumes and releases the tape that recorded
    ``out``; call once per forward pass. Leaves listed in ``params`` that the
    graph never touched get a zero gradient rather than None.
    """
    global _ACTIVE_TAPE
    if out.size != 1:
        raise ContractError(f"backward needs a scalar, got shape {out.shape}")
    params = list(params) if params is not None else []

    if out.node is None:
        if out.requires_grad:
            g = np.ones_like(out.data)
            out.grad = g if out.grad is None else out.grad + g
    else:
        tape = out.node.tape
        table: dict[int, np.ndarray] = {out.node.idx: np.ones_like(out.data)}
        for node in reversed(tape.nodes[: out.node.idx + 1]):
            g = table.pop(node.idx, None)
            if g is None:
                continue
            for parent, pg in zip(node.parents, node.pull(g)):
                if pg is None:
                    continue
                if parent.node is not None:
                    idx = parent.node.idx
                    if idx in table:
                        table[idx] = table[idx] + pg
                    else:
                        table[idx] = pg
                elif parent.requires_grad:
                    pg = pg.astype(parent.dtype, copy=False)
                    parent.grad = pg if parent.grad is None else parent.grad + pg
        if tape is _ACTIVE_TAPE:
            _ACTIVE_TAPE = None
        tape.release()

    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# numerical oracle


def finite_diff_grad(f, theta: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``f`` with respect to ``theta``.

    ``f`` is called with no arguments and must read ``theta.data`` afresh on
    every call, returning a scalar Tensor or float. Used as the independent
    oracle for ``backward``; deliberately avoids the tape.
    """
    base = theta.data.copy()
    grad = np.zeros_like(base, dtype=np.float64)
    flat = theta.data.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            hi = hi.item() if isinstance(hi, Tensor) else float(hi)
            lo = lo.item() if isinstance(lo, Tensor) else float(lo)
            grad.reshape(-1)[i] = (hi - lo) / (2.0 * eps)
    theta.data[...] = base
    return grad
