"""Reverse-mode automatic differentiation over numpy arrays.

A global tape records operations in creation order, which is already a
topological order of the computation graph. ``backward`` walks the recorded
nodes in reverse, accumulating gradients into a per-node table and finally
into the ``.grad`` field of every leaf tensor created with
``requires_grad=True``. Tapes are single use: ``backward`` releases the tape
it consumed, and the next recorded operation starts a fresh one.

The tape keeps only what backward reads. A node refers to each parent by
its ``TapeNode``, or by the leaf ``Tensor`` when that leaf requires a
gradient, and never holds an interior ``Tensor``; a ``pull`` closure keeps
the arrays and shapes its gradient rule uses and nothing else. So an op's
input array lives on only if the op's pull reads it (a conv's input, a
product's factors), and ``backward`` drops each node's parents and pull as
soon as that node has pulled, or is passed over for want of a gradient. A
pull runs once, so it may also drop an array at its last read, before the
rest of its work (``conv_nd`` frees its kernel once the input gradient is
out).

A pull owns its incoming ``g`` when ``g`` is writeable, and may then write
the gradient it returns into it (``relu`` masks in place). ``backward``
hands on a read-only view of any gradient whose memory another output of
the same pull shares, such as the one ``g`` that an ``add`` passes to both
inputs or to a leaf's ``.grad`` as well; a pull's view of a read-only ``g``
stays read-only, and ``mean`` pulls a read-only broadcast view.

Broadcasting in arithmetic ops follows numpy for scalars, missing leading
axes, and size-1 axes; anything else should be made explicit with ``reshape``
before the op.
"""

from __future__ import annotations

from itertools import combinations
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
    """Ordered record of one forward computation.

    It holds its nodes until ``backward`` or ``release`` drops them; a node's
    saved arrays go as soon as ``backward`` has walked past it.
    """

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
    """One recorded op.

    ``parents`` holds, per input, the input's ``TapeNode``, the input itself
    if it is a leaf that requires a gradient, or None. ``pull`` maps the
    output's gradient to one gradient (or None) per input, from the arrays
    it closed over. ``backward`` sets both to ``()`` and None once the node
    is walked, and ``Tape.release`` does the same for the nodes it drops.
    """

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


def recording(parents: Sequence[Tensor]) -> bool:
    """Whether ``record`` puts an op on ``parents`` on the tape: grads are
    live and some parent is on the tape or requires a gradient."""
    return _GRAD_ENABLED and any(p.node is not None or p.requires_grad for p in parents)


def _ref(p: Tensor):
    """What a node keeps of parent ``p``: its node, the leaf itself if it
    takes a gradient, else None. A node that was already walked or released
    is None too: its tape is gone, so ``p`` is a constant here."""
    if p.node is not None:
        return p.node if p.node.pull is not None else None
    return p if p.requires_grad else None


def record(op: str, out_data: np.ndarray, parents: Sequence[Tensor], pull) -> Tensor:
    """Create the output tensor of an op, recording it when grads are live.

    The node keeps no interior tensor (see ``TapeNode``), so ``pull`` must
    close over arrays and shapes, never a ``Tensor``.
    """
    out = Tensor(out_data)
    if recording(parents):
        tape = _active_tape()
        node = TapeNode(op, tuple(map(_ref, parents)), pull, len(tape.nodes), tape)
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
    sa, sb = a.shape, b.shape

    def pull(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return record("add", a.data + b.data, (a, b), pull)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    sa, sb = a.shape, b.shape

    def pull(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return record("sub", a.data - b.data, (a, b), pull)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    ad, bd = a.data, b.data

    def pull(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return record("mul", ad * bd, (a, b), pull)


def neg(a: Tensor) -> Tensor:
    return record("neg", -a.data, (a,), lambda g: (-g,))


def relu(a: Tensor) -> Tensor:
    """``max(a, 0)``; NaN stays NaN, and the gradient at exactly 0 is 0."""
    out = np.maximum(a.data, 0)

    def pull(g):
        if g.flags.writeable:  # this pull owns g (see ``backward``)
            return (np.multiply(g, out > 0, out=g),)
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
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
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
    ``out``, each node as soon as it has pulled, and the whole tape even if
    a pull raises; call once per forward pass. A second call on the same
    ``out`` is a ``ContractError``. Leaves listed in ``params`` that the
    graph never touched get a zero gradient rather than None.
    """
    global _ACTIVE_TAPE
    if out.size != 1:
        raise ContractError(f"backward needs a scalar, got shape {out.shape}")
    if out.node is not None and out.node.pull is None:
        raise ContractError(f"backward: the tape of this {out.node.op} is already consumed")
    params = list(params) if params is not None else []

    if out.node is None:
        if out.requires_grad:
            g = np.ones_like(out.data)
            out.grad = g if out.grad is None else out.grad + g
    else:
        tape = out.node.tape
        table: dict[int, np.ndarray] = {out.node.idx: np.ones_like(out.data)}
        try:
            for node in reversed(tape.nodes[: out.node.idx + 1]):
                g = table.pop(node.idx, None)
                if g is not None:
                    grads = node.pull(g)
                    # an array that two inputs, or an input and a leaf's .grad,
                    # receive (an add's g) is owned by neither
                    shared = len(grads) > 1 and any(
                        np.may_share_memory(a, b) for a, b in combinations(grads, 2))
                    for ref, pg in zip(node.parents, grads):
                        if pg is None or ref is None:
                            continue
                        if type(ref) is TapeNode:
                            if shared and pg.flags.writeable:
                                pg = pg.view()
                                pg.flags.writeable = False
                            idx = ref.idx
                            table[idx] = table[idx] + pg if idx in table else pg
                        else:
                            pg = pg.astype(ref.dtype, copy=False)
                            ref.grad = pg if ref.grad is None else ref.grad + pg
                    grads = pg = None  # free what was summed or not sent before the next pull
                node.parents = ()
                node.pull = None
        finally:
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
