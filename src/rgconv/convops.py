"""Grid convolution primitives and index-gather ops on the autodiff tape.

Spatial convention: feature arrays are laid out ``[batch, channel, *spatial]``
with 2 or 3 trailing spatial axes. Kernels are centered and odd-sized, and
``conv_nd`` computes cross-correlation: ``out(x) = sum_o k(o) in(x + o)`` with
offsets ``o`` in ``[-(S-1)/2, (S-1)/2]^d``. Padding is ``circular`` (periodic
wrap, the default everywhere in this package) or ``zero``.

Inner loops, by kernel shape:

- dense and grouped convs run one batched matmul per kernel offset, on a
  copy of the input window at that offset;
- depthwise convs (one input and one output channel per group, as in the
  separable layer's spatial stage) run a broadcast multiply-add per offset;
- ``stuffed_conv_nd`` runs one batched matmul per (output phase, tap).

The last two read flat windows: the padded input is flattened over its
spatial axes, so the input at offset ``o`` from every output voxel is one
contiguous slice, read in place. Its junk columns (voxels past the edge) are
dropped when the output is written. A conv whose input is data (no tape node
and no ``requires_grad``) pulls no input gradient.
"""

from __future__ import annotations

import itertools

import numpy as np

from .autodiff import Tensor, record
from .errors import ConfigError, ShapeError

__all__ = [
    "conv_nd",
    "conv_transpose_nd",
    "stuffed_conv_nd",
    "zero_stuff",
    "take_last",
    "transform_group_kernel",
    "upsample_linear",
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


def _conv_fwd(x: np.ndarray, k: np.ndarray, padding: str, groups: int) -> np.ndarray:
    if _is_depthwise(k.shape, groups):
        return _depthwise_fwd(x, k, padding)
    d = k.ndim - 2
    B, D, S = x.shape[0], x.shape[2:], k.shape[2:]
    G = groups
    Ci, Co = k.shape[1], k.shape[0] // groups
    halos = [(s - 1) // 2 for s in S]
    xp = _pad_spatial(x, [(h, h) for h in halos], padding).reshape(
        (B, G, Ci) + tuple(D[i] + 2 * halos[i] for i in range(d))
    )
    kk = k.reshape(G, Co, Ci, -1)
    vol = int(np.prod(D))
    out = np.zeros((B, G, Co, vol), dtype=np.result_type(x, k))
    for t, off in enumerate(np.ndindex(*S)):
        sl = tuple(slice(o, o + D[i]) for i, o in enumerate(off))
        v = xp[(slice(None),) * 3 + sl].reshape(B, G, Ci, vol)
        out += kk[..., t] @ v
    return out.reshape((B, G * Co) + tuple(D))


def _conv_bwd_kernel(
    g: np.ndarray, x: np.ndarray, k_shape, padding: str, groups: int
) -> np.ndarray:
    if _is_depthwise(k_shape, groups):
        return _depthwise_bwd_kernel(g, x, k_shape, padding)
    d = len(k_shape) - 2
    B, D, S = x.shape[0], x.shape[2:], k_shape[2:]
    G = groups
    Ci, Co = k_shape[1], k_shape[0] // groups
    halos = [(s - 1) // 2 for s in S]
    xp = _pad_spatial(x, [(h, h) for h in halos], padding).reshape(
        (B, G, Ci) + tuple(D[i] + 2 * halos[i] for i in range(d))
    )
    vol = int(np.prod(D))
    gr = g.reshape(B, G, Co, vol)
    gk = np.zeros((G, Co, Ci, int(np.prod(S))), dtype=np.result_type(g, x))
    for t, off in enumerate(np.ndindex(*S)):
        sl = tuple(slice(o, o + D[i]) for i, o in enumerate(off))
        v = xp[(slice(None),) * 3 + sl].reshape(B, G, Ci, vol)
        gk[..., t] = (gr @ v.swapaxes(-1, -2)).sum(axis=0)
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


def _phase_taps(d: int):
    """Tap bookkeeping for correlating a 2x zero-stuffed signal with an
    S=3 stencil: output parity class ``phi`` only ever meets the stuffed
    signal's nonzero samples at stencil offsets of matching parity, so each
    (phase, tap) pair reduces to a pointwise product with the unstuffed
    input shifted by 0 or 1 per axis. Yields the phase's slice of the output
    and its ``(flat tap, shift)`` pairs.
    """
    strides = [3 ** (d - 1 - a) for a in range(d)]
    for phi in np.ndindex(*(2,) * d):
        taps = []
        for combo in itertools.product(*[(1,) if p == 0 else (0, 2) for p in phi]):
            flat = sum(c * s for c, s in zip(combo, strides))
            shift = tuple((c - 1 + p) // 2 for c, p in zip(combo, phi))
            taps.append((flat, shift))
        yield (Ellipsis,) + tuple(slice(p, None, 2) for p in phi), taps


def _stuffed_windows(x: np.ndarray, k: np.ndarray, groups: int):
    """``x`` padded once, circularly, by one voxel on the high side of each
    axis and flattened to ``[B, G, C_in, P]``: shift ``s`` of the input
    (``x[v + s]``, wrapping) is then the flat window ``[off[s], off[s] + n)``,
    which ``matmul`` reads in place. Kernel taps come first: ``[T, G, Co, Ci]``.
    """
    d = x.ndim - 2
    xp = _pad_spatial(x, [(0, 1)] * d, "circular")
    shifts = list(np.ndindex(*(2,) * d))
    offsets, n = _flat_windows(xp.shape[2:], x.shape[2:], shifts)
    xf = xp.reshape((x.shape[0], groups, k.shape[1], -1))
    kt = np.moveaxis(k.reshape(groups, k.shape[0] // groups, k.shape[1], -1), -1, 0)
    return xf, xp.shape[2:], dict(zip(shifts, offsets)), n, np.ascontiguousarray(kt)


def _stuffed_fwd(x: np.ndarray, k: np.ndarray, groups: int) -> np.ndarray:
    xf, padded, off, n, kt = _stuffed_windows(x, k, groups)
    B, D, (_, G, Co, _) = x.shape[0], x.shape[2:], kt.shape
    up = tuple(2 * m for m in D)
    dtype = np.result_type(x, k)
    out = np.empty((B, G, Co) + up, dtype=dtype)
    acc = np.empty((B, G, Co, xf.shape[-1]), dtype=dtype)
    head, tmp = acc[..., :n], np.empty((B, G, Co, n), dtype=dtype)
    for sl, taps in _phase_taps(len(D)):
        for i, (t, s) in enumerate(taps):
            np.matmul(kt[t], xf[..., off[s] : off[s] + n], out=tmp if i else head)
            if i:
                head += tmp
        out[sl] = _interior(acc, padded, D)  # this phase's voxels, once
    return out.reshape((B, G * Co) + up)


def _stuffed_bwd(
    g: np.ndarray, x: np.ndarray, k: np.ndarray, groups: int, want_gx: bool
) -> tuple[np.ndarray | None, np.ndarray]:
    xf, padded, off, n, kt = _stuffed_windows(x, k, groups)
    B, D, (_, G, Co, Ci) = x.shape[0], x.shape[2:], kt.shape
    gr = g.reshape((B, G, Co) + tuple(2 * m for m in D))
    # one phase of g at a time in the padded layout, zero on the junk columns
    gp = np.zeros((B, G, Co, xf.shape[-1]), dtype=g.dtype)
    g_in, gn = _interior(gp, padded, D), gp[..., :n]
    gk = np.zeros(kt.shape, dtype=np.result_type(g, x))
    if want_gx:
        ktt = np.ascontiguousarray(kt.swapaxes(-1, -2))
        dtype = np.result_type(g, k)
        gxp = np.zeros((B, G, Ci, xf.shape[-1]), dtype=dtype)
        tmp = np.empty((B, G, Ci, n), dtype=dtype)
    for sl, taps in _phase_taps(len(D)):
        g_in[...] = gr[sl]
        for t, s in taps:
            gk[t] += (gn @ xf[..., off[s] : off[s] + n].swapaxes(-1, -2)).sum(axis=0)
            if want_gx:
                np.matmul(ktt[t], gn, out=tmp)
                gxp[..., off[s] : off[s] + n] += tmp
    gk = np.moveaxis(gk, 0, -1).reshape(k.shape)
    if not want_gx:
        return None, gk
    # fold the wrapped high halo back onto the voxels it copies
    v = gxp.reshape((B, G, Ci) + padded)
    for a, m in enumerate(D):
        ax = (slice(None),) * (3 + a)
        v[ax + (slice(0, 1),)] += v[ax + (slice(m, m + 1),)]
        v = v[ax + (slice(0, m),)]
    return v.reshape(x.shape), gk


def stuffed_conv_nd(
    x: Tensor, kernel: Tensor, padding: str = "circular", groups: int = 1
) -> Tensor:
    """Correlate a 2x zero-stuffed input: equals
    ``conv_nd(zero_stuff(x, 2), kernel, padding, groups)`` with the zero
    terms skipped, so every spatial extent doubles at an eighth (3D) of the
    dense cost. Circular 3-stencils take the fast path; anything else falls
    back to the literal composition.
    """
    _check_conv_args(
        x.shape[:2] + tuple(2 * n for n in x.shape[2:]), kernel.shape, groups
    )
    if padding != "circular" or kernel.shape[2] != 3:
        return conv_nd(zero_stuff(x, 2), kernel, padding=padding, groups=groups)
    xd, kd = x.data, kernel.data
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


def take_last(x: Tensor, idx, inv=None) -> Tensor:
    """Gather the last axis by each row of ``idx``, stacking rows in front.

    ``x`` has shape ``[..., K]`` and ``idx`` is ``[H, K]`` with permutation
    rows; the result is ``[H, ..., K]`` with ``out[h, ..., t] =
    x[..., idx[h, t]]``. This one primitive covers both kernel rotation
    (``idx = pi``) and group-axis permutation (``idx = sigma``).
    """
    idx = _as_index(idx)
    if idx.shape[1] != x.shape[-1]:
        raise ShapeError(f"index width {idx.shape[1]} != last axis {x.shape[-1]}")
    inv = np.argsort(idx, axis=1) if inv is None else _as_index(inv)

    def pull(g):
        # rows are permutations, so the adjoint is the inverse gather
        expand = (slice(None),) + (None,) * (g.ndim - 2) + (slice(None),)
        back = np.take_along_axis(g, np.broadcast_to(inv[expand], g.shape), axis=-1)
        return (back.sum(axis=0),)

    out = np.moveaxis(x.data[..., idx], -2, 0)
    return record("take_last", np.ascontiguousarray(out), (x,), pull)


def transform_group_kernel(x: Tensor, sigma, pi, sigma_inv=None, pi_inv=None) -> Tensor:
    """Joint gather of the trailing ``[..., H', K]`` axes of a group kernel.

    ``out[h, ..., j, t] = x[..., sigma[h, j], pi[h, t]]``: row ``h`` holds the
    kernel as seen by output group element ``h``.
    """
    sigma, pi = _as_index(sigma), _as_index(pi)
    if x.shape[-2] != sigma.shape[1] or x.shape[-1] != pi.shape[1]:
        raise ShapeError(
            f"kernel trailing axes {x.shape[-2:]} do not match index tables"
        )
    sigma_inv = np.argsort(sigma, axis=1) if sigma_inv is None else _as_index(sigma_inv)
    pi_inv = np.argsort(pi, axis=1) if pi_inv is None else _as_index(pi_inv)
    H = sigma.shape[0]
    mid_shape = x.shape[:-2]

    def pull(g):
        gr = g.reshape(H, -1, sigma.shape[1], pi.shape[1])
        h_ix = np.arange(H)[:, None, None]
        # advanced indices sit at axes (0, 2, 3); the indexed block moves to
        # the front, giving [H, H', K, M]
        gathered = gr[h_ix, :, sigma_inv[:, :, None], pi_inv[:, None, :]]
        back = gathered.sum(axis=0)  # [H', K, M]
        back = np.moveaxis(back, -1, 0)
        return (back.reshape(x.shape),)

    out = x.data[..., sigma[:, :, None], pi[:, None, :]]  # [..., H, H', K]
    out = np.moveaxis(out, -3, 0)
    return record("transform_group_kernel", np.ascontiguousarray(out), (x,), pull)


# ---------------------------------------------------------------------------
# interpolation


def _axis_interp(x: Tensor, axis: int, i0, i1, w) -> Tensor:
    shape = [1] * x.ndim
    shape[axis] = len(w)
    wb = w.reshape(shape)
    x0 = x.data.take(i0, axis=axis)
    x1 = x.data.take(i1, axis=axis)

    def pull(g):
        gx = np.zeros_like(x.data)
        g0 = g * (1.0 - wb)
        g1 = g * wb
        idx0 = tuple(i0 if ax == axis else slice(None) for ax in range(x.ndim))
        np.add.at(gx, idx0, g0.astype(x.dtype, copy=False))
        idx1 = tuple(i1 if ax == axis else slice(None) for ax in range(x.ndim))
        np.add.at(gx, idx1, g1.astype(x.dtype, copy=False))
        return (gx,)

    # x0 + w * (x1 - x0): keeps constant inputs exactly constant
    out = x0 + wb * (x1 - x0)
    return record("axis_interp", out, (x,), pull)


def upsample_linear(x: Tensor, factor: int) -> Tensor:
    """Separable linear upsampling of every spatial axis by ``factor``.

    Endpoints map to endpoints (align-corners convention), so constant fields
    stay exactly constant and linear ramps stay linear.
    """
    if factor < 1:
        raise ConfigError(f"upsampling factor must be positive, got {factor}")
    d = x.ndim - 2
    if d not in (2, 3):
        raise ShapeError(f"expected [B, C, *spatial] input, got shape {x.shape}")
    out = x
    for ax in range(2, 2 + d):
        n = out.shape[ax]
        m = n * factor
        if n == 1:
            pos = np.zeros(m)
        else:
            pos = np.arange(m) * (n - 1) / (m - 1)
        i0 = np.floor(pos).astype(np.int64)
        i1 = np.minimum(i0 + 1, n - 1)
        w = (pos - i0).astype(x.dtype)
        out = _axis_interp(out, ax, i0, i1, w)
    return out
