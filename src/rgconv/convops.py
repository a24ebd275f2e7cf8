"""Grid convolution primitives and index-gather ops on the autodiff tape.

Spatial convention: feature arrays are laid out ``[batch, channel, *spatial]``
with 2 or 3 trailing spatial axes. Kernels are centered and odd-sized, and
``conv_nd`` computes cross-correlation: ``out(x) = sum_o k(o) in(x + o)`` with
offsets ``o`` in ``[-(S-1)/2, (S-1)/2]^d``. Padding is circular (periodic
wrap) only.

Inner loops, by kernel shape. Each loop's tile is sized from the shapes so
that its working set stays within ``CACHE_BYTES`` (1 MiB, half the per-core
L2 of the machine they were tuned on) and the input is read few times:

- dense and grouped convs with ``T C_out <= C_in`` (a head that maps many
  channels to few, as the pooled discovery head) take *output-side taps*:
  one GEMM ``[T C_out, C_in] @ x_padded`` over the flat padded input, read
  once, then the ``T`` outputs' flat windows are summed. The kernel
  gradient is one GEMM of the padded input against ``T`` shifted copies of
  the padded ``g``;
- dense convs whose tap window (``B C_in vol`` values) is over the budget,
  and where one output plane's windows of all ``T`` taps fit in the buffer
  the tap chunks below would use (``C_in c vol`` values), take *all-tap
  plane slabs*: per tile of batch items and whole output planes (along the
  first spatial axis), as many as fit in the budget, all ``T`` windows are
  copied into one stack and meet the whole ``[C_out, C_in T]`` kernel in
  one GEMM (Chellapilla et al., 2006). The kernel gradient runs the same
  tiles and sums them;
- all other dense convs run one batched matmul per chunk of
  ``c = min(T, max(1, C_out // C_in))`` of the ``T`` kernel offsets (taps):
  the chunk's input windows are copied into one stack with rows
  ``(ci, tap)``, which from two taps on never holds more values than the
  output, and meet the matching ``[C_out, C_in c]`` slice of the kernel.
  A lifting conv (``C_in = 1``) is one GEMM; where ``C_out < 2 C_in`` it is
  one window per tap. The kernel gradient runs the same chunks;
- depthwise convs (one input and one output channel per group, as in the
  separable layer's spatial stage) run a broadcast multiply-add per offset,
  over blocks of channel rows sized to the budget;
- ``stuffed_conv_nd`` (the stride-2 transposed conv) runs one sub-pixel GEMM
  per group for every odd S (Shi et al., CVPR 2016): the ``(h + 1)^d``
  shifts of the input, ``h = (S - 1) / 2``, are stacked along K, the
  stencil's taps are scattered into a ``[(h + 1)^d Ci, Co 2^d]`` kernel
  that maps them to the ``2^d`` output phases, and the result's two
  last-axis phases of a voxel are written as one float pair. Its backward
  reads ``g`` once per phase and runs the two transposed GEMMs. A
  non-finite value is never dropped, but it also meets the kernel's zero
  blocks (``0 * inf`` is NaN): a non-finite ``x`` makes ``y`` non-finite,
  and a non-finite ``g`` both gradients, on other entries than in a conv
  of the stuffed input.

All but the tap chunks read flat windows: the padded input is flattened
over its spatial axes (over each plane's, for the slabs), so the input at
offset ``o`` from every output voxel is one contiguous slice, read in place
(depthwise, output-side taps) or copied once into the stack (slabs,
sub-pixel). Its junk columns (voxels past the edge) are dropped when the
output is written, and meet zeros in the kernel gradients. A conv whose
input is data (no tape node and no ``requires_grad``) pulls no input
gradient.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, flip, record, reshape, transpose
from .errors import ShapeError

# Bytes a conv loop's tile should keep its working set within: half the
# 2 MiB per-core L2 of the machine the loops were tuned on.
CACHE_BYTES = 1 << 20

__all__ = [
    "conv_nd",
    "conv_transpose_nd",
    "stuffed_conv_nd",
    "take_last",
    "transform_group_kernel",
]


def _pad_spatial(arr: np.ndarray, pads) -> np.ndarray:
    """Pad the trailing ``len(pads)`` axes circularly by their ``(low,
    high)`` pairs, each at most the axis extent."""
    # the interior, then per axis the two halos as copies of its far ends,
    # over the padded extent of the axes before it and the interior of those
    # after it; cheaper than np.pad(mode="wrap") on small arrays
    lead, D = arr.shape[: arr.ndim - len(pads)], arr.shape[arr.ndim - len(pads) :]
    out = np.empty(lead + tuple(n + lo + hi for n, (lo, hi) in zip(D, pads)), arr.dtype)
    inner = [slice(lo, lo + n) for n, (lo, _) in zip(D, pads)]
    out[(Ellipsis,) + tuple(inner)] = arr
    for a, (n, (lo, hi)) in enumerate(zip(D, pads)):
        before = (Ellipsis,) + (slice(None),) * a
        after = tuple(inner[a + 1 :])
        out[before + (slice(0, lo),) + after] = out[before + (slice(n, n + lo),) + after]
        out[before + (slice(lo + n, lo + n + hi),) + after] = out[
            before + (slice(lo, lo + hi),) + after
        ]
    return out


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


def _depthwise_windows(x: np.ndarray, S):
    """``x`` padded and laid out channel-major as ``[G, B * P]``, with the
    flat tap offsets and the window length. Item ``b + 1`` starts ``P``
    entries after item ``b``, so one window per tap covers the whole batch.
    """
    xp = _pad_spatial(x.swapaxes(0, 1), [((s - 1) // 2,) * 2 for s in S])
    padded = xp.shape[2:]
    offsets, n = _flat_windows(padded, x.shape[2:], np.ndindex(*S))
    n += (x.shape[0] - 1) * int(np.prod(padded))
    return xp.reshape(x.shape[1], -1), padded, offsets, n


def _row_blocks(rows: int, row_bytes: int):
    """Slices of at most ``CACHE_BYTES // row_bytes`` rows (at least one),
    where ``row_bytes`` is what one row adds to the loop's working set."""
    r = max(1, CACHE_BYTES // row_bytes)
    return [slice(r0, min(rows, r0 + r)) for r0 in range(0, rows, r)]


def _depthwise_fwd(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    # one stencil per channel: a broadcast multiply-add per tap, over blocks
    # of channel rows that stay in cache across the taps
    B, G, D = x.shape[0], x.shape[1], x.shape[2:]
    xf, padded, offsets, n = _depthwise_windows(x, k.shape[2:])
    taps = k.reshape(G, -1)
    out = np.empty(xf.shape, dtype=np.result_type(x, k))
    # working set: the block's input, output and product rows
    blocks = _row_blocks(G, 3 * xf.shape[1] * out.itemsize)
    tmp = np.empty((blocks[0].stop, n), dtype=out.dtype)
    for rows in blocks:
        acc, tb = out[rows, :n], tmp[: rows.stop - rows.start]
        for t, off in enumerate(offsets):
            np.multiply(xf[rows, off : off + n], taps[rows, t, None], out=acc if t == 0 else tb)
            if t:
                acc += tb
    out = _interior(out.reshape((G, B, -1)), padded, D)
    return np.ascontiguousarray(out.swapaxes(0, 1))


def _depthwise_bwd_kernel(g: np.ndarray, x: np.ndarray, k_shape) -> np.ndarray:
    B, G = x.shape[:2]
    xf, padded, offsets, n = _depthwise_windows(x, k_shape[2:])
    # g in the same layout, zero on the junk columns
    gp = np.zeros(xf.shape, dtype=g.dtype)
    _interior(gp.reshape((G, B, -1)), padded, x.shape[2:])[...] = g.swapaxes(0, 1)
    gp = gp[:, :n]
    gk = np.empty((G, len(offsets)), dtype=np.result_type(g, x))
    for rows in _row_blocks(G, 2 * xf.shape[1] * xf.itemsize):  # x and g rows
        for t, off in enumerate(offsets):
            gk[rows, t] = np.einsum("gn,gn->g", gp[rows], xf[rows, off : off + n])
    return gk.reshape(k_shape)


def _dense_route(x_shape, k_shape, groups: int, itemsize: int) -> str:
    """The loop a dense conv of these shapes runs: ``"outputs"``
    (``_out_taps_fwd``), ``"slabs"`` (``_plane_slabs``) or ``"chunks"``
    (``_tap_chunks``)."""
    Ci, Co = k_shape[1], k_shape[0] // groups
    T, D, S = int(np.prod(k_shape[2:])), x_shape[2:], k_shape[2:]
    if T * Co <= Ci:
        return "outputs"
    # a slab of one plane (L columns) must fit in the c-tap chunk's buffer
    c = min(T, max(1, Co // Ci))
    L = D[1] * int(np.prod([n + s - 1 for n, s in zip(D[2:], S[2:])]))
    if int(np.prod(x_shape)) * itemsize > CACHE_BYTES and T * L <= c * int(np.prod(D)):
        return "slabs"
    return "chunks"


def _padded(x: np.ndarray, S, groups: int) -> np.ndarray:
    """``x`` padded by the kernel's halo, as ``[B, G, Ci, *padded]``."""
    halos = [(s - 1) // 2 for s in S]
    xp = _pad_spatial(x, [(h, h) for h in halos])
    return xp.reshape((x.shape[0], groups, -1) + xp.shape[2:])


def _tap_chunks(x: np.ndarray, k_shape, groups: int):
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
    xp = _padded(x, S, groups)
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


def _plane_slabs(x: np.ndarray, k_shape, groups: int):
    """Yield ``(items, z0, z1, stack)`` for each tile of batch ``items`` (a
    slice) and output planes ``[z0, z1)`` (along the first spatial axis):
    all ``T`` input windows of the tile as
    ``[len(items), G, Ci * T, (z1 - z0) * L]``, rows ``(ci, tap)``, matching
    ``k.reshape(G, Co, Ci * T)``.

    Each plane takes ``L`` columns: the padded plane cut to ``D[1]`` along
    its first axis, so in 3D every line of the last axis carries ``S - 1``
    junk columns, and a plane's window for one ``(ci, tap)`` is one
    contiguous run of the padded input. The junk columns past the run are
    zero. A tile takes as many items, then planes, as fit in
    ``CACHE_BYTES``, at least one of each. Each tile shape has one buffer,
    reused.
    """
    B, D, S = x.shape[0], x.shape[2:], tuple(k_shape[2:])
    Ci, T = k_shape[1], int(np.prod(S))
    xp = _padded(x, S, groups)
    P, st = xp.shape[3:], xp.strides
    L = D[1] * int(np.prod(P[2:]))
    m = L - (P[-1] - D[-1]) if len(D) == 3 else L
    plane = groups * Ci * T * L * x.itemsize  # one item's plane
    nb = max(1, min(B, CACHE_BYTES // plane))
    p = max(1, CACHE_BYTES // (nb * plane))
    bufs = {}
    for b0 in range(0, B, nb):
        for z0 in range(0, D[0], p):
            shape = (min(nb, B - b0), groups, Ci) + S + (min(p, D[0] - z0), L)
            if shape not in bufs:
                bufs[shape] = np.zeros(shape, dtype=x.dtype)
            buf = bufs[shape]
            # tap o of plane z, (ci, tap) row: the run of m values from
            # padded voxel (z + o[0], o[1], ...); it stays inside the volume
            buf[..., :m] = np.lib.stride_tricks.as_strided(
                xp[b0 : b0 + shape[0], :, :, z0], shape[:-1] + (m,),
                st[:3] + st[3:] + (st[3], x.itemsize), writeable=False,
            )
            items, n = slice(b0, b0 + shape[0]), shape[-2]
            yield items, z0, z0 + n, buf.reshape(shape[0], groups, Ci * T, n * L)


def _slab_planes(a: np.ndarray, D, S) -> np.ndarray:
    """``[..., n * L]`` columns of a ``_plane_slabs`` tile as
    ``[..., n, *D[1:]]``, junk cut (a strided view)."""
    lines = tuple(n + s - 1 for n, s in zip(D[2:], S[2:]))
    a = a.reshape(a.shape[:-1] + (-1, D[1]) + lines)
    return a[(Ellipsis,) + tuple(slice(0, n) for n in D[2:])]


def _flat_padded(x: np.ndarray, S, groups: int):
    """``x`` padded and flattened over its spatial axes as ``[B, G, Ci, P]``,
    with the padded extents, the flat tap offsets and the window length."""
    xp = _padded(x, S, groups)
    offsets, n = _flat_windows(xp.shape[3:], x.shape[2:], np.ndindex(*S))
    return xp.reshape(xp.shape[:3] + (-1,)), xp.shape[3:], offsets, n


def _out_taps_fwd(x: np.ndarray, k: np.ndarray, groups: int) -> np.ndarray:
    """A conv with ``T Co <= Ci`` (a head that maps many channels to few):
    one GEMM ``[T Co, Ci] @ x_padded`` over the flat padded input, read
    once, then the ``T`` outputs' flat windows summed."""
    B, D, G = x.shape[0], x.shape[2:], groups
    Co, Ci = k.shape[0] // G, k.shape[1]
    xf, padded, offsets, n = _flat_padded(x, k.shape[2:], G)
    kt = k.reshape(G, Co, Ci, -1).transpose(0, 3, 1, 2).reshape(G, -1, Ci)
    y = np.matmul(kt, xf).reshape(B, G, len(offsets), Co, -1)
    out = np.empty((B, G, Co, y.shape[-1]), dtype=y.dtype)
    acc = out[..., :n]
    acc[...] = y[:, :, 0, :, offsets[0] : offsets[0] + n]
    for t, off in enumerate(offsets[1:], 1):
        acc += y[:, :, t, :, off : off + n]
    return np.ascontiguousarray(_interior(out, padded, D)).reshape((B, G * Co) + D)


def _out_taps_bwd_kernel(g: np.ndarray, x: np.ndarray, k_shape, groups: int) -> np.ndarray:
    """The kernel gradient of ``_out_taps_fwd``: one GEMM of the ``T``
    shifted copies of ``g``, in the flat padded layout with zero junk
    columns, against the padded input."""
    B, D, G = x.shape[0], x.shape[2:], groups
    Co, Ci = k_shape[0] // G, k_shape[1]
    xf, padded, offsets, n = _flat_padded(x, k_shape[2:], G)
    P, T = xf.shape[-1], len(offsets)
    gp = np.zeros((B, G, Co, P), dtype=g.dtype)
    _interior(gp, padded, D)[...] = g.reshape((B, G, Co) + D)
    gs = np.zeros((B, G, T, Co, P), dtype=g.dtype)
    for t, off in enumerate(offsets):
        gs[:, :, t, :, off : off + n] = gp[..., :n]
    gk = np.matmul(gs.reshape(B, G, T * Co, P), xf.swapaxes(-1, -2))
    gk = gk.sum(axis=0).reshape(G, T, Co, Ci).transpose(0, 2, 3, 1)
    return np.ascontiguousarray(gk).reshape(k_shape)


def _conv_fwd(x: np.ndarray, k: np.ndarray, groups: int) -> np.ndarray:
    if _is_depthwise(k.shape, groups):
        return _depthwise_fwd(x, k)
    route = _dense_route(x.shape, k.shape, groups, x.itemsize)
    if route == "outputs":
        return _out_taps_fwd(x, k, groups)
    B, D, G = x.shape[0], x.shape[2:], groups
    Co = k.shape[0] // G
    kk = k.reshape(G, Co, k.shape[1], -1)
    out = np.empty((B, G, Co, int(np.prod(D))), dtype=np.result_type(x, k))
    if route == "slabs":
        kk, out = kk.reshape(G, Co, -1), out.reshape((B, G, Co) + D)
        for items, z0, z1, stack in _plane_slabs(x, k.shape, G):
            out[items, :, :, z0:z1] = _slab_planes(np.matmul(kk, stack), D, k.shape[2:])
        return out.reshape((B, G * Co) + D)
    tmp = None
    for t0, t1, stack in _tap_chunks(x, k.shape, G):
        # one tap: a basic index, cheaper than a reshape in a small per-tap loop
        kc = kk[..., t0] if t1 == t0 + 1 else kk[..., t0:t1].reshape(G, Co, -1)
        if t0 == 0:
            np.matmul(kc, stack, out=out)
        else:
            tmp = np.matmul(kc, stack, out=tmp)
            out += tmp
    return out.reshape((B, G * Co) + tuple(D))


def _conv_bwd_kernel(g: np.ndarray, x: np.ndarray, k_shape, groups: int) -> np.ndarray:
    if _is_depthwise(k_shape, groups):
        return _depthwise_bwd_kernel(g, x, k_shape)
    route = _dense_route(x.shape, k_shape, groups, x.itemsize)
    if route == "outputs":
        return _out_taps_bwd_kernel(g, x, k_shape, groups)
    B, G = x.shape[0], groups
    Ci, Co = k_shape[1], k_shape[0] // G
    gr = g.reshape(B, G, Co, -1)
    gk = np.empty((G, Co, Ci, int(np.prod(k_shape[2:]))), dtype=np.result_type(g, x))
    if route == "slabs":
        D, gv, gs = x.shape[2:], g.reshape((B, G, Co) + x.shape[2:]), gk.reshape(G, Co, -1)
        gs[...] = 0
        for items, z0, z1, stack in _plane_slabs(x, k_shape, G):
            # the tile of g in the stack's columns, zero on the junk ones
            gp = np.zeros(stack.shape[:2] + (Co, stack.shape[-1]), dtype=g.dtype)
            _slab_planes(gp, D, k_shape[2:])[...] = gv[items, :, :, z0:z1]
            gs += (gp @ stack.swapaxes(-1, -2)).sum(axis=0)
        return gk.reshape(k_shape)
    for t0, t1, stack in _tap_chunks(x, k_shape, G):
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


def conv_nd(x: Tensor, kernel: Tensor, groups: int = 1) -> Tensor:
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
            gx = _conv_fwd(g, _swap_flip_kernel(kd, groups), groups)
        return gx, _conv_bwd_kernel(g, xd, kd.shape, groups)

    return record("conv_nd", _conv_fwd(xd, kd, groups), (x, kernel), pull)


def _phase_table(d: int, S: int) -> np.ndarray:
    """Flat stencil tap of each (output phase, input shift) pair, or -1.

    Correlating a 2x zero-stuffed signal with a stencil of half-width
    ``h = (S - 1) / 2``, output voxel ``2v + p`` (per axis) meets nonzero
    stuffed samples only at taps of matching parity: phase ``p`` reads
    ``x[v + s]`` at tap ``2s - p + h``, for the ``h + 1`` shifts ``s`` from
    ``-floor(h / 2)`` to ``ceil(h / 2)`` whose tap lies in ``[0, S)``. At
    S = 3, phase 0 reads ``x[v]`` at tap 1, and phase 1 reads ``x[v]`` at
    tap 0 and ``x[v + 1]`` at tap 2. Row ``phi`` (row-major over
    ``{0, 1}^d``), column ``s`` (row-major over the shifts) holds the tap
    that joins output phase ``phi`` to the input shifted by ``s``; every
    tap appears exactly once.
    """
    h = (S - 1) // 2
    shifts = np.arange(-(h // 2), (h + 1) // 2 + 1)
    per_axis = 2 * shifts - np.arange(2)[:, None] + h  # [phase][shift] -> tap
    phases = np.array(list(np.ndindex(*(2,) * d)))
    cols = np.array(list(np.ndindex(*(h + 1,) * d)))
    taps = per_axis[phases[:, None], cols[None, :]]  # [phi, s, axis]
    flat = taps @ S ** np.arange(d - 1, -1, -1)
    return np.where(((taps >= 0) & (taps < S)).all(axis=-1), flat, -1)


def _subpixel_kernel(k: np.ndarray, groups: int) -> np.ndarray:
    """``[G, (h + 1)^d Ci, Co 2^d]`` GEMM kernel: rows ``(shift, ci)``, columns
    ``(co, phase)``, tap ``_phase_table[phase, shift]`` and zero where the
    pair meets no tap."""
    table = _phase_table(k.ndim - 2, k.shape[2])
    kg = k.reshape(groups, k.shape[0] // groups, k.shape[1], -1)
    # an appended zero tap: the table's -1 entries read it
    kg = np.concatenate([kg, np.zeros(kg.shape[:3] + (1,), kg.dtype)], axis=-1)
    w = kg[..., table].transpose(0, 4, 2, 1, 3)  # [G, s, Ci, Co, phi]
    return np.ascontiguousarray(w).reshape(groups, table.shape[1] * k.shape[1], -1)


def _subpixel_kernel_grad(gw: np.ndarray, k_shape) -> np.ndarray:
    """The kernel gradient: the valid blocks of a ``_subpixel_kernel``
    gradient, one per tap."""
    G, Ci, Co = gw.shape[0], k_shape[1], k_shape[0] // gw.shape[0]
    table = _phase_table(len(k_shape) - 2, k_shape[2])
    gw = gw.reshape(G, table.shape[1], Ci, Co, table.shape[0])
    gw = gw.transpose(0, 3, 2, 4, 1)  # [G, Co, Ci, phi, s]
    gk = np.empty(gw.shape[:3] + (int(np.prod(k_shape[2:])),), dtype=gw.dtype)
    gk[..., table[table >= 0]] = gw[..., table >= 0]
    return gk.reshape(k_shape)


class _Subpixel:
    """Shared set-up of the sub-pixel forward and backward.

    ``xf`` is ``x`` padded once, circularly, by ``lo = floor(h / 2)`` voxels
    on the low and ``ceil(h / 2)`` on the high side of each axis (``(0, 1)``
    at S = 3), and laid out ``[G, Ci, B * P]``: item ``b + 1`` starts ``P``
    entries after item ``b``, so shift ``s`` of the whole batch is the flat
    window ``[off[s], off[s] + m)``. Its junk columns (voxels past the edge)
    are dropped by ``interior``. ``w`` is the ``_subpixel_kernel``. The batch
    is folded into the GEMM rows, and each group runs its own GEMM.
    """

    def __init__(self, x: np.ndarray, k: np.ndarray, groups: int):
        d, h = x.ndim - 2, (k.shape[2] - 1) // 2
        self.lo = h // 2
        xp = _pad_spatial(x.swapaxes(0, 1), [(self.lo, h - self.lo)] * d)
        self.B, self.D, self.d, self.padded = x.shape[0], x.shape[2:], d, xp.shape[2:]
        offsets, n = _flat_windows(self.padded, self.D, np.ndindex(*(h + 1,) * d))
        self.P = int(np.prod(self.padded))
        self.offsets, self.m = offsets, (self.B - 1) * self.P + n
        self.Ci, self.Co = x.shape[1] // groups, k.shape[0] // groups
        self.xf = xp.reshape(groups, self.Ci, -1)
        self.w = _subpixel_kernel(k, groups)

    def stacks(self, dtype):
        """Yield ``(g, stack)`` per group: the ``(h + 1)^d`` windows of group
        ``g`` stacked along K, ``[K, m]`` with rows ``(shift, ci)``. ``stack``
        is one buffer, reused."""
        G, K, _ = self.w.shape
        stack = np.empty((len(self.offsets), self.Ci, self.m), dtype=dtype)
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
            gst = gst.reshape(len(sp.offsets), sp.Ci, m)
            for j, off in enumerate(sp.offsets):
                gxp[gi, :, off : off + m] += gst[j]
    gk = _subpixel_kernel_grad(gw, k.shape)
    if not want_gx:
        return None, gk
    # fold the wrapped halos back onto the voxels they copy
    v, lo = gxp.reshape((G, sp.Ci, B) + sp.padded), sp.lo
    for a, n in enumerate(D):
        ax = (slice(None),) * (3 + a)
        v[ax + (slice(n, n + lo),)] += v[ax + (slice(0, lo),)]
        v[ax + (slice(lo, sp.padded[a] - n),)] += v[ax + (slice(lo + n, None),)]
        v = v[ax + (slice(lo, lo + n),)]
    return np.moveaxis(v, 2, 0).reshape(x.shape), gk


def stuffed_conv_nd(x: Tensor, kernel: Tensor, groups: int = 1) -> Tensor:
    """Correlate the 2x zero-stuffed input (one zero after every sample
    along each spatial axis), so every spatial extent doubles.

    One sub-pixel GEMM per group writes all ``2^d`` output phases, through a
    kernel that holds each tap in one block and zeros elsewhere: in 3D at
    S = 3, 64 blocks per input voxel, 27 of them taps, against the 8 x 27 of
    a conv of the stuffed input. The module docstring gives where non-finite
    values land.
    """
    _check_conv_args(
        x.shape[:2] + tuple(2 * n for n in x.shape[2:]), kernel.shape, groups
    )
    xd, kd = x.data, kernel.data
    want_gx = _wants_grad(x)

    def pull(g):
        return _stuffed_bwd(g, xd, kd, groups, want_gx)

    return record(
        "stuffed_conv_nd", _stuffed_fwd(xd, kd, groups), (x, kernel), pull
    )


def conv_transpose_nd(x: Tensor, kernel: Tensor) -> Tensor:
    """Stride-2 transposed convolution: doubles every spatial extent.

    ``x`` is ``[B, C_in, *D]``, ``kernel`` is ``[C_in, C_out, *S]`` (odd S).
    Realized as zero stuffing followed by correlation with the spatially
    flipped, channel-swapped kernel, so it is the exact adjoint of the
    corresponding stride-2 strided correlation.
    """
    d = kernel.ndim - 2
    if x.ndim != d + 2:
        raise ShapeError(f"input rank {x.ndim} does not match kernel rank")
    if x.shape[1] != kernel.shape[0]:
        raise ShapeError(
            f"input channels {x.shape[1]} != kernel in channels {kernel.shape[0]}"
        )
    kt = transpose(kernel, (1, 0) + tuple(range(2, 2 + d)))
    kt = flip(kt, tuple(range(2, 2 + d)))
    return stuffed_conv_nd(x, kt)


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
