"""Grid convolution primitives and index-gather ops on the autodiff tape.

Spatial convention: feature arrays are laid out ``[batch, channel, *spatial]``
with 2 or 3 trailing spatial axes. Kernels are centered and odd-sized, and
``conv_nd`` computes cross-correlation: ``out(x) = sum_o k(o) in(x + o)`` with
offsets ``o`` in ``[-(S-1)/2, (S-1)/2]^d``. Padding is ``circular`` (periodic
wrap, the default everywhere in this package) or ``zero``.

Inner loops, by kernel shape:

- dense and grouped convs run one batched matmul per chunk of
  ``c = min(T, max(1, C_out // C_in))`` of the ``T`` kernel offsets (taps):
  the chunk's input windows are copied into one stack with rows
  ``(ci, tap)``, which from two taps on never holds more values than the
  output, and meet the matching ``[C_out, C_in c]`` slice of the kernel.
  A lifting conv (``C_in = 1``) is one GEMM; where ``C_out < 2 C_in`` it is
  one window per tap. The kernel gradient runs the same chunks;
- depthwise convs (one input and one output channel per group, as in the
  separable layer's spatial stage) run a broadcast multiply-add per offset;
- ``stuffed_conv_nd`` (the stride-2 transposed conv) runs one sub-pixel GEMM
  per group (Shi et al., CVPR 2016): the ``2^d`` one-voxel shifts
  of the input are stacked along K, the 3-stencil's taps are scattered into
  a ``[2^d Ci, Co 2^d]`` kernel that maps them to the ``2^d`` output phases,
  and the result's two last-axis phases of a voxel are written as one float
  pair. Its backward reads ``g`` once per phase and runs the two transposed
  GEMMs.

The last two read flat windows: the padded input is flattened over its
spatial axes, so the input at offset ``o`` from every output voxel is one
contiguous slice, read in place (depthwise) or copied once into the stack
(sub-pixel). Its junk columns (voxels past the edge) are dropped when the
output is written. A conv whose input is data (no tape node and no
``requires_grad``) pulls no input gradient.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record, reshape
from .errors import ConfigError, ShapeError

__all__ = [
    "conv_nd",
    "conv_transpose_nd",
    "stuffed_conv_nd",
    "zero_stuff",
    "take_last",
    "transform_group_kernel",
]


def _pad_spatial(arr: np.ndarray, pads, padding: str) -> np.ndarray:
    """Pad the trailing ``len(pads)`` axes by their ``(low, high)`` pairs."""
    pads = [(0, 0)] * (arr.ndim - len(pads)) + list(pads)
    if padding == "circular":
        return np.pad(arr, pads, mode="wrap")
    if padding == "zero":
        return np.pad(arr, pads, mode="constant")
    raise ConfigError(f"unknown padding {padding!r}")


def _flat_windows(padded, D, offsets) -> tuple[list[int], int]:
    """Flat offsets of the spatial ``offsets`` in a row-major volume of
    extents ``padded``, and the window length ``n`` that covers ``D``.

    Voxel ``v + o`` lies ``flat(o)`` entries after voxel ``v``, so for all
    output voxels ``v < D`` at once the values at ``v + o`` are the slice
    ``[flat(o), flat(o) + n)`` of the flattened volume. The window also holds
    junk columns (some ``v_a >= D_a``), which ``_interior`` drops.
    """
    strides = np.cumprod((1,) + tuple(padded[:0:-1]))[::-1]
    flat = [int(np.dot(o, strides)) for o in offsets]
    return flat, int(np.dot(np.subtract(D, 1), strides)) + 1


def _interior(flat: np.ndarray, padded, D) -> np.ndarray:
    """``[..., prod(padded)]`` viewed as ``[..., *padded]``, cut to its low
    corner of extents ``D`` (a strided view)."""
    vol = flat.reshape(flat.shape[:-1] + tuple(padded))
    return vol[(Ellipsis,) + tuple(slice(0, n) for n in D)]


def _wants_grad(t: Tensor) -> bool:
    return t.node is not None or t.requires_grad


def _check_conv_args(x_shape, k_shape, groups: int) -> tuple:
    d = len(k_shape) - 2
    if d not in (2, 3):
        raise ShapeError(f"kernels must have 2 or 3 spatial axes, got {d}")
    if len(x_shape) != d + 2:
        raise ShapeError(f"input rank {len(x_shape)} does not match kernel rank")
    S = k_shape[2:]
    if len(set(S)) != 1 or S[0] % 2 == 0:
        raise ShapeError(f"kernel spatial extent must be square/cubic and odd: {S}")
    if k_shape[0] % groups:
        raise ShapeError("output channels not divisible by groups")
    if x_shape[1] != groups * k_shape[1]:
        raise ShapeError(
            f"input channels {x_shape[1]} != groups {groups} * kernel in {k_shape[1]}"
        )
    if any(dd < S[0] for dd in x_shape[2:]):
        raise ShapeError(f"spatial size {x_shape[2:]} smaller than kernel {S}")
    return d, S


def _is_depthwise(k_shape, groups: int) -> bool:
    return k_shape[0] == groups and k_shape[1] == 1


def _depthwise_windows(x: np.ndarray, S, padding: str):
    """``x`` padded and laid out channel-major as ``[G, B * P]``, with the
    flat tap offsets and the window length. Item ``b + 1`` starts ``P``
    entries after item ``b``, so one window per tap covers the whole batch.
    """
    xp = _pad_spatial(x.swapaxes(0, 1), [((s - 1) // 2,) * 2 for s in S], padding)
    padded = xp.shape[2:]
    offsets, n = _flat_windows(padded, x.shape[2:], np.ndindex(*S))
    n += (x.shape[0] - 1) * int(np.prod(padded))
    return xp.reshape(x.shape[1], -1), padded, offsets, n


def _depthwise_fwd(x: np.ndarray, k: np.ndarray, padding: str) -> np.ndarray:
    # one stencil per channel: a broadcast multiply-add per tap
    B, G, D = x.shape[0], x.shape[1], x.shape[2:]
    xf, padded, offsets, n = _depthwise_windows(x, k.shape[2:], padding)
    taps = k.reshape(G, -1)
    out = np.empty(xf.shape, dtype=np.result_type(x, k))
    acc, tmp = out[:, :n], np.empty((G, n), dtype=out.dtype)
    for t, off in enumerate(offsets):
        np.multiply(xf[:, off : off + n], taps[:, t, None], out=acc if t == 0 else tmp)
        if t:
            acc += tmp
    out = _interior(out.reshape((G, B, -1)), padded, D)
    return np.ascontiguousarray(out.swapaxes(0, 1))


def _depthwise_bwd_kernel(
    g: np.ndarray, x: np.ndarray, k_shape, padding: str
) -> np.ndarray:
    B, G = x.shape[:2]
    xf, padded, offsets, n = _depthwise_windows(x, k_shape[2:], padding)
    # g in the same layout, zero on the junk columns
    gp = np.zeros(xf.shape, dtype=g.dtype)
    _interior(gp.reshape((G, B, -1)), padded, x.shape[2:])[...] = g.swapaxes(0, 1)
    gp = gp[:, :n]
    gk = np.empty((G, len(offsets)), dtype=np.result_type(g, x))
    for t, off in enumerate(offsets):
        gk[:, t] = np.einsum("gn,gn->g", gp, xf[:, off : off + n])
    return gk.reshape(k_shape)


def _tap_chunks(x: np.ndarray, k_shape, padding: str, groups: int):
    """Yield ``(t0, t1, stack)`` for each chunk of taps ``[t0, t1)``: the
    chunk's input windows as ``[B, G, Ci * (t1 - t0), vol]``, rows
    ``(ci, tap)``, matching ``k.reshape(G, Co, Ci, T)[..., t0:t1]``.

    A chunk holds ``c = min(T, max(1, Co // Ci))`` taps: at ``c = 1`` the
    stack is one window, and above it never holds more values than the
    conv's output. The stack is one buffer, reused; a partial last chunk
    gets its own.
    """
    B, D, S = x.shape[0], x.shape[2:], k_shape[2:]
    Ci, Co = k_shape[1], k_shape[0] // groups
    halos = [(s - 1) // 2 for s in S]
    xp = _pad_spatial(x, [(h, h) for h in halos], padding).reshape(
        (B, groups, Ci) + tuple(n + 2 * h for n, h in zip(D, halos))
    )
    wins = [
        xp[(Ellipsis,) + tuple(slice(o, o + n) for o, n in zip(off, D))]
        for off in np.ndindex(*S)
    ]
    T, vol = len(wins), int(np.prod(D))
    c = min(T, max(1, Co // Ci))
    for t0 in range(0, T, c):
        n = min(c, T - t0)
        if t0 == 0 or n < c:
            buf = np.empty((B, groups, Ci, n) + tuple(D), dtype=x.dtype)
            rows = [buf[:, :, :, j] for j in range(n)]
            stack = buf.reshape(B, groups, Ci * n, vol)
        for j in range(n):
            rows[j][...] = wins[t0 + j]
        yield t0, t0 + n, stack


def _conv_fwd(x: np.ndarray, k: np.ndarray, padding: str, groups: int) -> np.ndarray:
    if _is_depthwise(k.shape, groups):
        return _depthwise_fwd(x, k, padding)
    B, D, G = x.shape[0], x.shape[2:], groups
    Co = k.shape[0] // G
    kk = k.reshape(G, Co, k.shape[1], -1)
    out = np.empty((B, G, Co, int(np.prod(D))), dtype=np.result_type(x, k))
    tmp = None
    for t0, t1, stack in _tap_chunks(x, k.shape, padding, G):
        # one tap: a basic index, cheaper than a reshape in a small per-tap loop
        kc = kk[..., t0] if t1 == t0 + 1 else kk[..., t0:t1].reshape(G, Co, -1)
        if t0 == 0:
            np.matmul(kc, stack, out=out)
        else:
            tmp = np.matmul(kc, stack, out=tmp)
            out += tmp
    return out.reshape((B, G * Co) + tuple(D))


def _conv_bwd_kernel(
    g: np.ndarray, x: np.ndarray, k_shape, padding: str, groups: int
) -> np.ndarray:
    if _is_depthwise(k_shape, groups):
        return _depthwise_bwd_kernel(g, x, k_shape, padding)
    B, G = x.shape[0], groups
    Ci, Co = k_shape[1], k_shape[0] // G
    gr = g.reshape(B, G, Co, -1)
    gk = np.empty((G, Co, Ci, int(np.prod(k_shape[2:]))), dtype=np.result_type(g, x))
    for t0, t1, stack in _tap_chunks(x, k_shape, padding, G):
        gc = (gr @ stack.swapaxes(-1, -2)).sum(axis=0)
        gk[..., t0:t1] = gc.reshape(G, Co, Ci, t1 - t0)
    return gk.reshape(k_shape)


def _swap_flip_kernel(k: np.ndarray, groups: int) -> np.ndarray:
    d = k.ndim - 2
    G = groups
    kg = k.reshape((G, k.shape[0] // G, k.shape[1]) + k.shape[2:])
    kg = kg.swapaxes(1, 2)
    kg = np.flip(kg, axis=tuple(range(3, 3 + d)))
    return kg.reshape((G * k.shape[1], k.shape[0] // G) + k.shape[2:])


def conv_nd(x: Tensor, kernel: Tensor, padding: str = "circular", groups: int = 1) -> Tensor:
    """Centered cross-correlation, stride 1, output size equal to input size.

    ``x`` is ``[B, groups * C_in, *D]`` and ``kernel`` is
    ``[groups * C_out, C_in, *S]``; the default ``groups=1`` gives the plain
    ``[B, C_in, *D] x [C_out, C_in, *S] -> [B, C_out, *D]`` map.
    """
    _check_conv_args(x.shape, kernel.shape, groups)
    xd, kd = x.data, kernel.data
    want_gx = _wants_grad(x)

    def pull(g):
        gx = None
        if want_gx:
            gx = _conv_fwd(g, _swap_flip_kernel(kd, groups), padding, groups)
        return gx, _conv_bwd_kernel(g, xd, kd.shape, padding, groups)

    return record("conv_nd", _conv_fwd(xd, kd, padding, groups), (x, kernel), pull)


def zero_stuff(x: Tensor, factor: int = 2) -> Tensor:
    """Insert ``factor - 1`` zeros between samples along every spatial axis."""
    if factor < 1:
        raise ConfigError(f"stuffing factor must be positive, got {factor}")
    d = x.ndim - 2
    if d not in (2, 3):
        raise ShapeError(f"expected [B, C, *spatial] input, got shape {x.shape}")
    out_shape = x.shape[:2] + tuple(s * factor for s in x.shape[2:])
    sl = (slice(None), slice(None)) + (slice(None, None, factor),) * d

    def pull(g):
        return (g[sl].copy(),)

    out = np.zeros(out_shape, dtype=x.dtype)
    out[sl] = x.data
    return record("zero_stuff", out, (x,), pull)


def _phase_table(d: int) -> np.ndarray:
    """Flat stencil tap of each (output phase, input shift) pair, or -1.

    Correlating a 2x zero-stuffed signal with an S=3 stencil, output voxel
    ``2v + p`` (per axis) meets nonzero stuffed samples only at taps of
    matching parity: phase 0 reads ``x[v]`` at tap 1, phase 1 reads ``x[v]``
    at tap 0 and ``x[v + 1]`` at tap 2. Row ``phi``, column ``s`` (both
    row-major over ``{0, 1}^d``) holds the tap that joins output phase
    ``phi`` to the input shifted by ``s``; every tap appears exactly once.
    """
    per_axis = np.array([[1, -1], [0, 2]])  # [phase][shift] -> tap on one axis
    bits = np.array(list(np.ndindex(*(2,) * d)))
    taps = per_axis[bits[:, None], bits[None, :]]  # [phi, s, axis]
    flat = taps @ 3 ** np.arange(d - 1, -1, -1)
    return np.where((taps >= 0).all(axis=-1), flat, -1)


def _subpixel_kernel(k: np.ndarray, groups: int) -> np.ndarray:
    """``[G, 2^d * Ci, Co * 2^d]`` GEMM kernel: rows ``(shift, ci)``, columns
    ``(co, phase)``, tap ``_phase_table[phase, shift]`` and zero where the
    pair meets no tap."""
    d = k.ndim - 2
    kg = k.reshape(groups, k.shape[0] // groups, k.shape[1], -1)
    # an appended zero tap: the table's -1 entries read it
    kg = np.concatenate([kg, np.zeros(kg.shape[:3] + (1,), kg.dtype)], axis=-1)
    w = kg[..., _phase_table(d)].transpose(0, 4, 2, 1, 3)  # [G, s, Ci, Co, phi]
    return np.ascontiguousarray(w).reshape(groups, 2**d * k.shape[1], -1)


def _subpixel_kernel_grad(gw: np.ndarray, k_shape) -> np.ndarray:
    """The kernel gradient: the valid blocks of a ``_subpixel_kernel``
    gradient, one per tap."""
    d, G = len(k_shape) - 2, gw.shape[0]
    Ci, Co = k_shape[1], k_shape[0] // G
    gw = gw.reshape(G, 2**d, Ci, Co, 2**d).transpose(0, 3, 2, 4, 1)  # [G, Co, Ci, phi, s]
    table = _phase_table(d)
    gk = np.empty(gw.shape[:3] + (3**d,), dtype=gw.dtype)
    gk[..., table[table >= 0]] = gw[..., table >= 0]
    return gk.reshape(k_shape)


class _Subpixel:
    """Shared set-up of the sub-pixel forward and backward.

    ``xf`` is ``x`` padded once, circularly, by one voxel on the high side of
    each axis and laid out ``[G, Ci, B * P]``: item ``b + 1`` starts ``P``
    entries after item ``b``, so shift ``s`` of the whole batch is the flat
    window ``[off[s], off[s] + m)``. Its junk columns (voxels past the edge)
    are dropped by ``interior``. ``w`` is the ``_subpixel_kernel``. The batch
    is folded into the GEMM rows, and each group runs its own GEMM.
    """

    def __init__(self, x: np.ndarray, k: np.ndarray, groups: int):
        d = x.ndim - 2
        xp = _pad_spatial(x.swapaxes(0, 1), [(0, 1)] * d, "circular")
        self.B, self.D, self.d, self.padded = x.shape[0], x.shape[2:], d, xp.shape[2:]
        offsets, n = _flat_windows(self.padded, self.D, np.ndindex(*(2,) * d))
        self.P = int(np.prod(self.padded))
        self.offsets, self.m = offsets, (self.B - 1) * self.P + n
        self.xf = xp.reshape(groups, x.shape[1] // groups, -1)
        self.w = _subpixel_kernel(k, groups)
        self.Ci, self.Co = self.w.shape[1] >> d, self.w.shape[2] >> d

    def stacks(self, dtype):
        """Yield ``(g, stack)`` per group: the ``2^d`` windows of group ``g``
        stacked along K, ``[K, m]`` with rows ``(shift, ci)``. ``stack`` is
        one buffer, reused."""
        G, K, _ = self.w.shape
        stack = np.empty((2**self.d, self.Ci, self.m), dtype=dtype)
        for g in range(G):
            for j, off in enumerate(self.offsets):
                stack[j] = self.xf[g, :, off : off + self.m]
            yield g, stack.reshape(K, self.m)

    def interior(self, a: np.ndarray) -> np.ndarray:
        """``[..., B * P]`` viewed as ``[..., B, *D]``."""
        return _interior(a.reshape(a.shape[:-1] + (self.B, self.P)), self.padded, self.D)


def _pair(dtype) -> np.dtype:
    """A complex type that moves two floats of ``dtype`` as one value."""
    return np.dtype(f"c{2 * np.dtype(dtype).itemsize}")


def _stuffed_fwd(x: np.ndarray, k: np.ndarray, groups: int) -> np.ndarray:
    sp = _Subpixel(x, k, groups)
    B, D, d, w, m = sp.B, sp.D, sp.d, sp.w, sp.m
    G, _, N = w.shape
    out = np.empty((B, G, sp.Co) + tuple(2 * n for n in D), dtype=np.result_type(x, k))
    # out as float pairs along the last axis, each axis split into (v, phase):
    # [B, G, Co, D0, 2, ..., D_{d-1}]
    pairs = out.view(_pair(out.dtype)).reshape(
        (B, G, sp.Co) + sum(((n, 2) for n in D[:-1]), ()) + D[-1:]
    )
    # GEMM rows are padded voxels, columns (co, phase), so the two phases of
    # the last axis sit side by side; [co, p_0 .. p_{d-2}, b, *v] moves to
    # the order of ``pairs``
    order = [d, 0] + sum(([d + 1 + a, 1 + a] for a in range(d - 1)), []) + [2 * d]
    r = np.empty((B * sp.P, N), dtype=out.dtype)
    for g, stack in sp.stacks(x.dtype):
        np.matmul(stack.T, w[g], out=r[:m])
        rp = r.view(_pair(r.dtype)).reshape((B * sp.P, sp.Co) + (2,) * (d - 1))
        pairs[:, g] = sp.interior(np.moveaxis(rp, 0, -1)).transpose(order)
    return out.reshape((B, G * sp.Co) + out.shape[3:])


def _stuffed_bwd(
    g: np.ndarray, x: np.ndarray, k: np.ndarray, groups: int, want_gx: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    sp = _Subpixel(x, k, groups)
    B, D, d, w, m = sp.B, sp.D, sp.d, sp.w, sp.m
    G, _, N = w.shape
    # g split per axis into (v, phase): [B, G, Co, D0, 2, ..., D_{d-1}, 2]
    gv = g.reshape((B, G, sp.Co) + sum(((n, 2) for n in D), ()))
    gw = np.empty(w.shape, dtype=np.result_type(g, x))
    if want_gx:
        gxp = np.zeros(sp.xf.shape, dtype=np.result_type(g, k))
    # g of one group phase-major in the padded layout, [(co, phase), B * P],
    # zero on the junk columns: a strided read per phase, which runs faster
    # than writing GEMM rows of pairs
    gr = np.zeros((N, B * sp.P), dtype=g.dtype)
    dst = sp.interior(gr.reshape(sp.Co, 2**d, -1))
    for gi, stack in sp.stacks(np.result_type(x, k, g)):
        for i, phi in enumerate(np.ndindex(*(2,) * d)):
            src = gv[(slice(None), gi, slice(None)) + sum(((slice(None), p) for p in phi), ())]
            dst[:, i] = np.moveaxis(src, 0, 1)
        np.matmul(stack, gr[:, :m].T, out=gw[gi])
        if want_gx:
            gst = np.matmul(w[gi], gr[:, :m], out=stack)
            gst = gst.reshape(2**d, sp.Ci, m)
            for j, off in enumerate(sp.offsets):
                gxp[gi, :, off : off + m] += gst[j]
    gk = _subpixel_kernel_grad(gw, k.shape)
    if not want_gx:
        return None, gk
    # fold the wrapped high halo back onto the voxels it copies
    v = gxp.reshape((G, sp.Ci, B) + sp.padded)
    for a, n in enumerate(D):
        ax = (slice(None),) * (3 + a)
        v[ax + (slice(0, 1),)] += v[ax + (slice(n, n + 1),)]
        v = v[ax + (slice(0, n),)]
    gx = np.moveaxis(v, 2, 0).reshape(x.shape)
    if not np.isfinite(gx).all():
        # a non-finite g meets the GEMM kernel's zero blocks (0 * inf = nan):
        # recompute as the composition does, a full conv taken at the samples
        gx = _conv_fwd(g, _swap_flip_kernel(k, groups), "circular", groups)
        gx = np.ascontiguousarray(gx[(Ellipsis,) + (slice(None, None, 2),) * d])
    return gx, gk


def stuffed_conv_nd(
    x: Tensor, kernel: Tensor, padding: str = "circular", groups: int = 1
) -> Tensor:
    """Correlate a 2x zero-stuffed input: equals
    ``conv_nd(zero_stuff(x, 2), kernel, padding, groups)``, so every spatial
    extent doubles.

    A finite ``x`` with circular padding and a 3-stencil takes the sub-pixel
    route: one GEMM of the ``2^d`` stacked input shifts by a
    ``[2^d Ci, Co 2^d]`` kernel writes all ``2^d`` output phases. In 3D that
    is 64 blocks per input voxel, 27 of them taps and the rest zero, against
    the composition's 8 x 27. Anything else falls back to the composition.

    Non-finite values land where the composition puts them. A non-finite
    ``x`` takes the composition route. An input gradient that comes out
    non-finite (a non-finite ``g`` times a zero block gives NaN) is
    recomputed as the composition's. The kernel gradient sums each tap over
    the input samples it meets only, so there, unlike in the composition, a
    non-finite ``g`` never meets a stuffed zero.
    """
    _check_conv_args(
        x.shape[:2] + tuple(2 * n for n in x.shape[2:]), kernel.shape, groups
    )
    xd, kd = x.data, kernel.data
    if padding != "circular" or kernel.shape[2] != 3 or not np.isfinite(xd).all():
        return conv_nd(zero_stuff(x, 2), kernel, padding=padding, groups=groups)
    want_gx = _wants_grad(x)

    def pull(g):
        return _stuffed_bwd(g, xd, kd, groups, want_gx)

    return record(
        "stuffed_conv_nd", _stuffed_fwd(xd, kd, groups), (x, kernel), pull
    )


def conv_transpose_nd(x: Tensor, kernel: Tensor, padding: str = "circular") -> Tensor:
    """Stride-2 transposed convolution: doubles every spatial extent.

    ``x`` is ``[B, C_in, *D]``, ``kernel`` is ``[C_in, C_out, *S]`` (odd S).
    Realized as zero stuffing followed by correlation with the spatially
    flipped, channel-swapped kernel, so it is the exact adjoint of the
    corresponding stride-2 strided correlation.
    """
    from .autodiff import flip, transpose

    d = kernel.ndim - 2
    if x.ndim != d + 2:
        raise ShapeError(f"input rank {x.ndim} does not match kernel rank")
    if x.shape[1] != kernel.shape[0]:
        raise ShapeError(
            f"input channels {x.shape[1]} != kernel in channels {kernel.shape[0]}"
        )
    kt = transpose(kernel, (1, 0) + tuple(range(2, 2 + d)))
    kt = flip(kt, tuple(range(2, 2 + d)))
    return stuffed_conv_nd(x, kt, padding=padding)


# ---------------------------------------------------------------------------
# permutation gathers


def _as_index(idx) -> np.ndarray:
    a = np.asarray(idx, dtype=np.int64)
    if a.ndim != 2:
        raise ShapeError(f"index table must be 2D [n_elements, n], got {a.shape}")
    return a


def take_last(x: Tensor, idx, inv) -> Tensor:
    """Gather the last axis by each row of ``idx``, stacking rows in front.

    ``x`` has shape ``[..., K]`` and ``idx`` is ``[H, K]`` with permutation
    rows, and ``inv`` holds their inverses; the result is ``[H, ..., K]``
    with ``out[h, ..., t] = x[..., idx[h, t]]``. This one primitive covers
    kernel rotation (``idx = pi``), group-axis permutation (``idx = sigma``)
    and both at once (``transform_group_kernel``).
    """
    idx, inv = _as_index(idx), _as_index(inv)
    if idx.shape[1] != x.shape[-1]:
        raise ShapeError(f"index width {idx.shape[1]} != last axis {x.shape[-1]}")
    rows = np.arange(len(inv))[:, None]

    def pull(g):
        # rows are permutations, so the adjoint is the inverse gather; the
        # indexed axes move to the front, giving [H, K, M]
        back = g.reshape(len(inv), -1, inv.shape[1])[rows, :, inv].sum(axis=0)
        return (back.T.reshape(x.shape),)

    out = np.moveaxis(x.data[..., idx], -2, 0)
    return record("take_last", np.ascontiguousarray(out), (x,), pull)


def transform_group_kernel(x: Tensor, cache) -> Tensor:
    """Joint gather of the trailing ``[..., H', K]`` axes of a group kernel.

    ``out[h, ..., j, t] = x[..., sigma[h, j], pi[h, t]]`` with the index
    tables of the :class:`GridActionCache` ``cache``: row ``h`` holds the
    kernel as seen by output group element ``h``. This is ``take_last`` over
    the flattened ``(H', K)`` axes, by ``cache.kernel_gather``.
    """
    Hp, K = x.shape[-2:]
    if (Hp, K) != (cache.sigma.shape[1], cache.pi.shape[1]):
        raise ShapeError(
            f"kernel trailing axes {x.shape[-2:]} do not match index tables"
        )
    idx, inv = cache.kernel_gather
    flat = take_last(reshape(x, x.shape[:-2] + (Hp * K,)), idx, inv)
    return reshape(flat, (len(idx),) + x.shape)
