"""Grid convolution primitives and index-gather ops on the autodiff tape.

Spatial convention: feature arrays are laid out ``[batch, channel, *spatial]``
with 2 or 3 trailing spatial axes. Kernels are centered and odd-sized, and
``conv_nd`` computes cross-correlation: ``out(x) = sum_o k(o) in(x + o)`` with
offsets ``o`` in ``[-(S-1)/2, (S-1)/2]^d``. Padding is circular (periodic
wrap) only.

Three loops run ``conv_nd``, chosen by kernel shape alone (``_dense_route``;
``T`` kernel offsets, or taps, and ``C_in``, ``C_out`` per group), and one
runs ``stuffed_conv_nd``. Each loop's tile is sized from the shapes so
that its working set stays within ``CACHE_BYTES`` (1 MiB, half the per-core
L2 of the machine they were tuned on) and the input is read few times:

- *output-side taps* where ``T C_out <= C_in`` (a head that maps many
  channels to few: the pooled discovery heads): one GEMM
  ``[T C_out, C_in] @ x`` over the unpadded input, read once, pads only its
  ``T C_out`` product rows (the few-channel side), and sums the ``T``
  outputs' flat windows of them. The kernel gradient,
  ``gk[co, ci, o] = sum_u x[ci, u] g[co, u - o]``, is one GEMM of the
  unpadded input against the ``T`` circular shifts of ``g``, cut from the
  padded ``g``;
- *tap chunks* in two forms. Where ``T C_in <= C_out`` (the O48 and C4
  lifting convs, and the pooled heads' input gradient), all ``T`` input
  windows are copied into one stack with rows ``(ci, tap)``, no larger than
  the output, and meet the ``[C_out, C_in T]`` kernel in one GEMM. Else,
  where one tap's GEMM is deep (``C_in >= 32``: the group nets' hidden
  layers), each tap's window is copied in turn and meets its
  ``[C_out, C_in]`` slice. The kernel gradient runs the same chunks, each
  writing its block in place into a chunk-major buffer;
- *all-tap plane slabs* for every other conv (the separable layer's
  depthwise stage, the O24 lifting conv and the super-resolution heads, and
  every conv of the plain-conv baseline): per tile of batch items and whole
  output planes (along the first spatial axis), as many as fit in the
  budget, all ``T`` windows are copied into one stack and meet the whole
  contiguous ``[C_out, C_in T]`` kernel in one GEMM (Chellapilla et al.,
  2006). The kernel gradient runs the same tiles and sums them;
- ``stuffed_conv_nd`` (the stride-2 transposed conv) runs sub-pixel GEMMs
  for every odd S (Shi et al., CVPR 2016): the ``(h + 1)^d`` shifts of the
  input, ``h = (S - 1) / 2``, are stacked along K, and the stencil's taps
  are scattered into a ``[(h + 1)^d Ci, Co 2^d]`` kernel per group that
  maps them to the ``2^d`` output phases. One loop runs over tiles of whole
  output planes (along the first spatial axis, from one or more batch
  items) sized to the budget, and over every group inside each tile. A
  tile pads only its own box of input planes and writes only its own box
  of the output (a voxel's two last-axis phases as one float pair) or, in
  the backward, lays out its box of ``g`` and folds its box of ``gx``,
  halos included, into the unpadded ``gx``. The pooled form (``pool=True``,
  the group mean of the ReLU of the output, for the super-resolution head)
  sums the groups' ReLUs per tile, so the ``|H|`` times larger unpooled
  output is never stored; its tape keeps one ReLU mask bit per
  pre-activation (nothing under ``no_grad``). A non-finite value is never
  dropped, but it also meets the kernel's zero blocks (``0 * inf`` is
  NaN): a non-finite ``x`` makes ``y`` non-finite, and a non-finite ``g``
  both gradients, on other entries than in a conv of the stuffed input.

All but the tap chunks read flat windows: the padded input (the padded
product rows, for the output-side taps) is flattened over its spatial axes
(over each plane's, for the slabs), so the value at offset ``o`` from every
output voxel is one contiguous slice, read in place (output-side taps) or
copied once into the stack (slabs, sub-pixel). Its junk columns
(voxels past the edge) are dropped when the output is written, and meet
zeros in the kernel gradients. A conv whose input is data (no tape node
and no ``requires_grad``) pulls no input gradient.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .autodiff import Tensor, flip, record, recording, transpose
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
    lead, D = arr.shape[: arr.ndim - len(pads)], arr.shape[arr.ndim - len(pads) :]
    out = np.empty(lead + tuple(n + lo + hi for n, (lo, hi) in zip(D, pads)), arr.dtype)
    out[(Ellipsis,) + tuple(slice(lo, lo + n) for n, (lo, _) in zip(D, pads))] = arr
    return _wrap_halos(out, D, pads)


def _wrap_halos(out: np.ndarray, D, pads) -> np.ndarray:
    """Fill the halos of ``out``, padded by ``pads`` around an interior of
    extents ``D`` on its trailing axes, from that interior, in place."""
    # per axis the two halos as copies of its far ends, over the padded
    # extent of the axes before it and the interior of those after it;
    # cheaper than np.pad(mode="wrap") on small arrays
    inner = [slice(lo, lo + n) for n, (lo, _) in zip(D, pads)]
    for a, (n, (lo, hi)) in enumerate(zip(D, pads)):
        before, after = (Ellipsis,) + (slice(None),) * a, tuple(inner[a + 1 :])
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


def _dense_route(k_shape, groups: int) -> str:
    """The loop a conv of this kernel runs: ``"outputs"`` (``_out_taps_fwd``)
    where ``T C_out <= C_in``, else ``"chunks"`` (``_tap_chunks``) where one
    chunk of all ``T`` taps is no larger than the output (``T C_in <=
    C_out``) or one tap's GEMM is deep (``C_in >= 32``), else ``"slabs"``
    (``_plane_slabs``)."""
    Ci, Co, T = k_shape[1], k_shape[0] // groups, int(np.prod(k_shape[2:]))
    if T * Co <= Ci:
        return "outputs"
    return "chunks" if T * Ci <= Co or Ci >= 32 else "slabs"


def _padded(x: np.ndarray, S, groups: int) -> np.ndarray:
    """``x`` padded by the kernel's halo, as ``[B, G, Ci, *padded]``."""
    xp = _pad_spatial(x, [((s - 1) // 2,) * 2 for s in S])
    return xp.reshape((x.shape[0], groups, -1) + xp.shape[2:])


def _tap_chunks(x: np.ndarray, k_shape, groups: int):
    """Yield ``(t0, t1, stack)`` for each chunk of taps ``[t0, t1)``: the
    chunk's input windows as ``[B, G, Ci * (t1 - t0), vol]``, rows
    ``(ci, tap)``, matching ``k.reshape(G, Co, Ci, T)[..., t0:t1]``.

    ``_dense_route`` sends a conv here in two forms: one chunk of all ``T``
    taps where that stack is no larger than the output (``T Ci <= Co``),
    else one tap per chunk (``Ci >= 32``). The stack is one buffer, reused.
    """
    B, D, S = x.shape[0], x.shape[2:], k_shape[2:]
    Ci, Co = k_shape[1], k_shape[0] // groups
    xp = _padded(x, S, groups)
    wins = [
        xp[(Ellipsis,) + tuple(slice(o, o + n) for o, n in zip(off, D))]
        for off in np.ndindex(*S)
    ]
    T = len(wins)
    c = T if T * Ci <= Co else 1
    buf = np.empty((B, groups, Ci, c) + tuple(D), dtype=x.dtype)
    rows, stack = [buf[:, :, :, j] for j in range(c)], buf.reshape(B, groups, Ci * c, -1)
    for t0 in range(0, T, c):
        for j in range(c):
            rows[j][...] = wins[t0 + j]
        yield t0, t0 + c, stack


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
    one GEMM ``[T Co, Ci] @ x`` over the unpadded input, read once, then
    the ``T Co`` rows, padded, summed over the ``T`` outputs' flat
    windows."""
    B, D, G, S = x.shape[0], x.shape[2:], groups, k.shape[2:]
    Co, Ci = k.shape[0] // G, k.shape[1]
    kt = k.reshape(G, Co, Ci, -1).transpose(0, 3, 1, 2).reshape(G, -1, Ci)
    y = np.matmul(kt, x.reshape(B, G, Ci, -1)).reshape((B, -1) + D)
    y, padded, offsets, n = _flat_padded(y, S, G)
    y = y.reshape(B, G, len(offsets), Co, -1)
    out = np.empty((B, G, Co, y.shape[-1]), dtype=y.dtype)
    acc = out[..., :n]
    acc[...] = y[:, :, 0, :, offsets[0] : offsets[0] + n]
    for t, off in enumerate(offsets[1:], 1):
        acc += y[:, :, t, :, off : off + n]
    return np.ascontiguousarray(_interior(out, padded, D)).reshape((B, G * Co) + D)


def _out_taps_bwd_kernel(g: np.ndarray, x: np.ndarray, k_shape, groups: int) -> np.ndarray:
    """The kernel gradient of ``_out_taps_fwd``,
    ``gk[co, ci, o] = sum_u x[ci, u] g[co, u - o]``: one GEMM of the ``T``
    circular shifts of ``g``, cut from the padded ``g``, against the
    unpadded input."""
    B, D, G, S = x.shape[0], x.shape[2:], groups, k_shape[2:]
    Co, Ci = k_shape[0] // G, k_shape[1]
    gp, T = _padded(g, S, G), int(np.prod(S))
    gs = np.empty((B, G, T, Co) + D, dtype=g.dtype)
    for t, o in enumerate(np.ndindex(*S)):
        # tap o reads g[u - o + h], which the padded g holds at u + S - 1 - o
        box = tuple(slice(s - 1 - a, s - 1 - a + n) for a, s, n in zip(o, S, D))
        gs[:, :, t] = gp[(Ellipsis,) + box]
    gk = np.matmul(gs.reshape(B, G, T * Co, -1), x.reshape(B, G, Ci, -1).swapaxes(-1, -2))
    gk = gk.sum(axis=0).reshape(G, T, Co, Ci).transpose(0, 2, 3, 1)
    return np.ascontiguousarray(gk).reshape(k_shape)


def _conv_fwd(x: np.ndarray, k: np.ndarray, groups: int) -> np.ndarray:
    route = _dense_route(k.shape, groups)
    if route == "outputs":
        return _out_taps_fwd(x, k, groups)
    B, D, G = x.shape[0], x.shape[2:], groups
    Co = k.shape[0] // G
    kk = k.reshape(G, Co, k.shape[1], -1)
    out = np.empty((B, G, Co, int(np.prod(D))), dtype=np.result_type(x, k))
    if route == "slabs":
        # contiguous: the input gradient's flipped kernel would take the
        # shallow GEMMs off BLAS
        kk = np.ascontiguousarray(kk.reshape(G, Co, -1))
        out = out.reshape((B, G, Co) + D)
        for items, z0, z1, stack in _plane_slabs(x, k.shape, G):
            out[items, :, :, z0:z1] = _slab_planes(np.matmul(kk, stack), D, k.shape[2:])
        return out.reshape((B, G * Co) + D)
    tmp = None
    for t0, t1, stack in _tap_chunks(x, k.shape, G):
        # one tap: a basic index, cheaper than a reshape in a small per-tap loop
        kc = kk[..., t0] if t1 == t0 + 1 else kk.reshape(G, Co, -1)
        if t0 == 0:
            np.matmul(kc, stack, out=out)
        else:
            tmp = np.matmul(kc, stack, out=tmp)
            out += tmp
    return out.reshape((B, G * Co) + tuple(D))


def _conv_bwd_kernel(g: np.ndarray, x: np.ndarray, k_shape, groups: int) -> np.ndarray:
    route = _dense_route(k_shape, groups)
    if route == "outputs":
        return _out_taps_bwd_kernel(g, x, k_shape, groups)
    B, G, T = x.shape[0], groups, int(np.prod(k_shape[2:]))
    Ci, Co = k_shape[1], k_shape[0] // G
    gr, dtype = g.reshape(B, G, Co, -1), np.result_type(g, x)
    if route == "slabs":
        D, gk = x.shape[2:], np.zeros((G, Co, Ci * T), dtype)
        gv = g.reshape((B, G, Co) + D)
        for items, z0, z1, stack in _plane_slabs(x, k_shape, G):
            # the tile of g in the stack's columns, zero on the junk ones
            gp = np.zeros(stack.shape[:2] + (Co, stack.shape[-1]), dtype=g.dtype)
            _slab_planes(gp, D, k_shape[2:])[...] = gv[items, :, :, z0:z1]
            gk += (gp @ stack.swapaxes(-1, -2)).sum(axis=0)
        return gk.reshape(k_shape)
    # each chunk writes its block in place into a chunk-major buffer: one
    # block of all T taps, or one per tap
    for t0, t1, stack in _tap_chunks(x, k_shape, G):
        if t0 == 0:
            buf = np.empty((T // (t1 - t0), G, Co, stack.shape[2]), dtype)
        if B == 1:
            np.matmul(gr[0], stack[0].swapaxes(-1, -2), out=buf[t0])
        else:
            np.sum(gr @ stack.swapaxes(-1, -2), axis=0, out=buf[t0])
    return np.moveaxis(buf, 0, -1).reshape(k_shape)


def _swap_flip_kernel(k: np.ndarray, groups: int) -> np.ndarray:
    G, Co = groups, k.shape[0] // groups
    kg = k.reshape((G, Co, k.shape[1]) + k.shape[2:]).swapaxes(1, 2)
    kg = np.flip(kg, axis=tuple(range(3, k.ndim + 1)))
    return kg.reshape((G * k.shape[1], Co) + k.shape[2:])


def conv_nd(x: Tensor, kernel: Tensor, groups: int = 1) -> Tensor:
    """Centered cross-correlation, stride 1, output size equal to input size.

    ``x`` is ``[B, groups * C_in, *D]`` and ``kernel`` is
    ``[groups * C_out, C_in, *S]``; the default ``groups=1`` gives the plain
    ``[B, C_in, *D] x [C_out, C_in, *S] -> [B, C_out, *D]`` map.
    """
    _check_conv_args(x.shape, kernel.shape, groups)
    xd, kd = x.data, kernel.data
    k_shape, want_gx = kd.shape, _wants_grad(x)

    def pull(g):
        nonlocal kd  # pulls run once: free a transformed kernel before gk is made
        gx = _conv_fwd(g, _swap_flip_kernel(kd, groups), groups) if want_gx else None
        kd = None
        return gx, _conv_bwd_kernel(g, xd, k_shape, groups)

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


_Tile = namedtuple("_Tile", "pieces planes m byte")


def _plane_runs(start: int, count: int, n: int):
    """``(i, z, run)``: box planes ``[i, i + run)`` are item planes ``[z, z +
    run)``, box plane ``i`` being item plane ``(start + i) mod n``."""
    i = 0
    while i < count:
        z = (start + i) % n
        yield i, z, min(count - i, n - z)
        i += min(count - i, n - z)


class _Subpixel:
    """Shared set-up of the sub-pixel forward and backward: ``w`` is the
    ``_subpixel_kernel``, and ``plan`` holds a ``_Tile`` per tile of whole
    output planes. Its ``pieces`` are ``(b, n, z0, z1, q)``: planes ``[z0,
    z1)`` of items ``[b, b + n)``, whose box starts at plane ``q``; it
    computes ``m`` GEMM rows, and a group's mask bits start at ``byte``.

    A tile's box holds, per item, its ``z1 - z0`` planes and the ``h`` more
    their windows reach, padded circularly by ``lo = floor(h / 2)`` voxels
    low and ``ceil(h / 2)`` high on each axis (``(0, 1)`` at S = 3), end to
    end: ``planes`` in all. A GEMM row is a voxel of the box, shift ``s`` of
    rows ``[0, m)`` is the flat window ``[off[s], off[s] + m)``, and the
    junk rows (voxels past the edge) are dropped by ``_pair_rows``. The
    budget is the rows whose stack (``K`` values a row) and two ``[rows,
    N]`` blocks fit in ``CACHE_BYTES``, times ``4 // G`` below 4 groups so
    that a tile's own set-up (pad, layout, fold) stays a small share of its
    GEMMs; the ``B D0`` planes split evenly into the whole number of
    budgets nearest to them.
    """

    def __init__(self, x: np.ndarray, k: np.ndarray, groups: int):
        d, h = x.ndim - 2, (k.shape[2] - 1) // 2
        self.B, self.D, self.d, self.h, self.lo = x.shape[0], x.shape[2:], d, h, h // 2
        self.padded = tuple(n + h for n in self.D)
        self.Ci, self.Co = x.shape[1] // groups, k.shape[0] // groups
        self.x = np.moveaxis(x.reshape((self.B, groups, self.Ci) + self.D), 0, 2)
        self.w = _subpixel_kernel(k, groups)
        self.shifts = (h + 1,) * d
        self.offsets, n = _flat_windows(self.padded, self.D, np.ndindex(*self.shifts))
        self.Pp = int(np.prod(self.padded[1:]))  # rows a padded plane
        tail = n - (self.D[0] - 1) * self.Pp  # rows of an item's last plane
        K, N = self.w.shape[1:]
        rows = CACHE_BYTES * max(1, 4 // groups) // ((K + 2 * N) * np.result_type(x, k).itemsize)
        total, D0 = self.B * self.D[0], self.D[0]
        per = -(-total // max(1, round(total * self.Pp / max(self.Pp, rows))))
        self.plan, byte = [], 0
        for f0 in range(0, total, per):
            f1, pieces, q = min(total, f0 + per), [], 0
            b, z0 = divmod(f0, D0)
            while b * D0 + z0 < f1:  # part of an item, or a run of whole ones
                n = max(1, (f1 - b * D0) // D0) if z0 == 0 else 1
                z1 = min(D0, f1 - b * D0)
                pieces.append((b, n, z0, z1, q))
                b, z0, q = b + n, 0, q + n * (z1 - z0 + h)
            self.plan.append(_Tile(pieces, q, (q - h - 1) * self.Pp + tail, byte))
            byte -= -self.plan[-1].m * N // 8
        self.mask_bytes, self.rows = byte, max(t.planes for t in self.plan) * self.Pp

    def items(self, a: np.ndarray, piece, ax: int = 2) -> np.ndarray:
        """A piece's planes of a box (on axis 2) or of rows viewed as planes
        (axis 0), split into ``(item, plane)``."""
        _, n, z0, z1, q = piece
        a = a[(slice(None),) * ax + (slice(q, q + n * (z1 - z0 + self.h)),)]
        return a.reshape(a.shape[:ax] + (n, -1) + a.shape[ax + 1 :])

    def tiles(self, dtype):
        """Yield ``(tile, g, stack, box)`` for each tile and, inside it, each
        group: the ``(h + 1)^d`` windows of group ``g`` stacked along K,
        ``[K, m]`` with rows ``(shift, ci)``, and the box ``[G, Ci, planes,
        *padded[1:]]``, whose part ``g`` is free once its stack is yielded.
        ``stack`` and ``box`` are one buffer each, reused."""
        G, K, _ = self.w.shape
        Ci, h, lo, D = self.Ci, self.h, self.lo, self.D
        inner = tuple(slice(lo, lo + n) for n in D[1:])
        xbuf = np.empty(G * Ci * self.rows, dtype)
        sbuf = np.empty(K * max(t.m for t in self.plan), dtype)
        # shift s starts s . strides(padded) entries in, so all windows of a
        # tile are one strided view of its box, copied at once
        steps = tuple(np.cumprod((1,) + self.padded[:0:-1])[::-1] * xbuf.itemsize)
        for t in self.plan:
            box = xbuf[: G * Ci * t.planes * self.Pp].reshape((G, Ci, t.planes) + self.padded[1:])
            for p in t.pieces:
                dst, src = self.items(box, p), self.x[:, :, p[0] : p[0] + p[1]]
                for i, z, run in _plane_runs(p[2] - lo, p[3] - p[2] + h, D[0]):
                    dst[(Ellipsis, slice(i, i + run)) + inner] = src[:, :, :, z : z + run]
            _wrap_halos(box, D[1:], [(lo, h - lo)] * (self.d - 1))
            flat = box.reshape(G, Ci, -1)
            wins = np.lib.stride_tricks.as_strided(
                flat, (G,) + self.shifts + (Ci, t.m),
                flat.strides[:1] + steps + flat.strides[1:], writeable=False,
            )
            stack = sbuf[: K * t.m].reshape(self.shifts + (Ci, t.m))
            for g in range(G):
                stack[...] = wins[g]
                yield t, g, stack.reshape(K, t.m), box

    def fold(self, box: np.ndarray, t: _Tile, gx: np.ndarray) -> None:
        """Add a tile's box of input gradient into ``gx`` ``[B, G, Ci, *D]``,
        each halo onto the voxel it wraps to."""
        lo, h, D, v, gx = self.lo, self.h, self.D, box, np.moveaxis(gx, 0, 2)
        for a, n in enumerate(D[1:], 1):
            ax = (slice(None),) * (2 + a)
            v[ax + (slice(n, n + lo),)] += v[ax + (slice(0, lo),)]
            v[ax + (slice(lo, self.padded[a] - n),)] += v[ax + (slice(lo + n, None),)]
            v = v[ax + (slice(lo, lo + n),)]
        for p in t.pieces:
            (b, n, z0, z1, _), src = p, self.items(v, p)
            # box planes [c0, c1) are item planes no other tile reaches: copied
            c0, c1 = (h, z1 - z0) if z1 - z0 > h else (0, 0)
            gx[:, :, b : b + n, z0 - lo + c0 : z0 - lo + c1] = src[:, :, :, c0:c1]
            for i0, i1 in ((0, c0), (c1, z1 - z0 + h)):
                for i, z, run in _plane_runs(z0 - lo + i0, i1 - i0, D[0]):
                    gx[:, :, b : b + n, z : z + run] += src[:, :, :, i0 + i : i0 + i + run]


def _pair(dtype) -> np.dtype:
    """A complex type that moves two floats of ``dtype`` as one value."""
    return np.dtype(f"c{2 * np.dtype(dtype).itemsize}")


def _pair_rows(sp: _Subpixel, r: np.ndarray, piece) -> np.ndarray:
    """A piece's planes of a tile's GEMM rows ``[rows, (co, phase)]`` as
    float pairs (a voxel's two last-axis phases side by side), junk cut, in
    the order ``[n, Co, z1 - z0, 2, D1, 2, ..., D_{d-1}]`` of ``_pair_blocks``."""
    d, (_, _, z0, z1, _) = sp.d, piece
    rp = r.view(_pair(r.dtype)).reshape((-1,) + sp.padded[1:] + (sp.Co,) + (2,) * (d - 1))
    rp = sp.items(rp, piece, 0)[(slice(None), slice(z1 - z0)) + tuple(map(slice, sp.D[1:]))]
    return rp.transpose([0, d + 1] + sum(([1 + a, d + 2 + a] for a in range(d - 1)), []) + [d])


def _pair_blocks(sp: _Subpixel, a: np.ndarray) -> np.ndarray:
    """A contiguous ``[B, C, *2D]`` output or gradient as float pairs along
    the last axis, each axis split into ``(v, phase)`` and ``C`` into blocks
    of ``Co``: ``[B, C / Co, Co, D0, 2, ..., D_{d-1}]``."""
    split = sum(((n, 2) for n in sp.D[:-1]), ()) + sp.D[-1:]
    return a.view(_pair(a.dtype)).reshape((sp.B, -1, sp.Co) + split)


def _stuffed_fwd(
    x: np.ndarray, k: np.ndarray, groups: int, pool: bool = False, keep_masks: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """``y`` as ``[B, G Co, *2D]``, or with ``pool`` the group mean of
    ``relu(y)`` as ``[B, Co, *2D]``; with ``keep_masks`` also each group's
    ReLU mask over each tile's GEMM rows ``[m, N]``, packed to bits."""
    sp = _Subpixel(x, k, groups)
    w = sp.w
    G, _, N = w.shape
    out = np.empty(
        (sp.B, (1 if pool else G) * sp.Co) + tuple(2 * n for n in sp.D), np.result_type(x, k)
    )
    blocks = _pair_blocks(sp, out)
    masks = np.empty((G, sp.mask_bytes), dtype=np.uint8) if keep_masks else None
    # a group's GEMM rows; with pool the first group's take the ReLUs' sum
    r = np.empty((sp.rows, N), out.dtype)
    acc = np.empty_like(r) if pool else r
    for t, g, stack, _ in sp.tiles(x.dtype):
        if g == 0:  # each piece's view of the rows, in the order of y's box
            views = [(p, _pair_rows(sp, acc, p)) for p in t.pieces]
        rt = np.matmul(stack.T, w[g], out=(acc if g == 0 else r)[: t.m])
        if pool:
            np.maximum(rt, 0, out=rt)  # NaN stays NaN
            if keep_masks:
                masks[g, t.byte : t.byte - (-t.m * N // 8)] = np.packbits(rt > 0)
            if g:
                acc[: t.m] += rt
        if not pool or g == G - 1:  # the tile's box of y
            for (b, n, z0, z1, _), view in views:
                blocks[b : b + n, 0 if pool else g, :, z0:z1] = view
    if pool:
        out /= G
    return out, masks


def _stuffed_bwd(
    g: np.ndarray, x: np.ndarray, k: np.ndarray, groups: int, want_gx: bool,
    masks: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of ``_stuffed_fwd``; ``masks`` given means the pooled form,
    with ``g`` of shape ``[B, Co, *2D]``."""
    sp = _Subpixel(x, k, groups)
    w = sp.w
    G, K, N = w.shape
    blocks = _pair_blocks(sp, np.ascontiguousarray(g))
    # each tile lays its box of g out in the forward's rows, zero on the junk
    # rows: the pooled g once a tile, divided by |H| as the mean's gradient
    # is and masked per group with its ReLU, the unpooled g per group
    rows = np.empty((sp.rows, N), dtype=g.dtype)
    rplanes = rows.reshape((-1,) + sp.padded[1:] + (N,))  # the rows as padded planes
    gm = np.empty_like(rows) if masks is not None else None
    gw = np.zeros(w.shape, dtype=np.result_type(g, x))
    gwt = np.empty((K, N), dtype=gw.dtype)
    gx = np.zeros((sp.B, G, sp.Ci) + sp.D, dtype=np.result_type(g, k)) if want_gx else None
    for t, gi, stack, box in sp.tiles(np.result_type(x, k, g)):
        m = t.m
        if gi == 0:  # the junk rows: past each plane's edge, and the halo planes
            for a, n in enumerate(sp.D[1:], 1):
                rplanes[(slice(None),) * a + (slice(n, None),)] = 0
            for p in t.pieces:
                sp.items(rplanes, p, 0)[:, p[3] - p[2] :] = 0
            views = [(p, _pair_rows(sp, rows, p)) for p in t.pieces]
        if gi == 0 or masks is None:
            for (b, n, z0, z1, _), view in views:
                view[...] = blocks[b : b + n, gi if masks is None else 0, :, z0:z1]
        if masks is None:
            gt = rows[:m]
        else:
            if gi == 0:
                rows[:m] /= G
            mask = np.unpackbits(masks[gi, t.byte :], count=m * N).view(bool).reshape(m, N)
            gt = np.multiply(rows[:m], mask, out=gm[:m])
        gw[gi] += np.matmul(stack, gt, out=gwt)
        if want_gx:
            # the group's part of the box, free now, takes its gx
            gst = np.matmul(w[gi], gt.T, out=stack).reshape(len(sp.offsets), sp.Ci, m)
            gb = box[gi].reshape(sp.Ci, -1)
            gb[:, :m], gb[:, m:] = gst[0], 0  # shift 0 is offset 0
            for j, off in enumerate(sp.offsets[1:], 1):
                gb[:, off : off + m] += gst[j]
            if gi == G - 1:
                sp.fold(box, t, gx)
    return (None if gx is None else gx.reshape(x.shape)), _subpixel_kernel_grad(gw, k.shape)


def stuffed_conv_nd(
    x: Tensor, kernel: Tensor, groups: int = 1, *, pool: bool = False
) -> Tensor:
    """Correlate the 2x zero-stuffed input (one zero after every sample
    along each spatial axis), so every spatial extent doubles.

    Sub-pixel GEMMs write all ``2^d`` output phases, through a kernel that
    holds each tap in one block and zeros elsewhere: in 3D at S = 3, 64
    blocks per input voxel, 27 of them taps, against the 8 x 27 of a conv
    of the stuffed input. They run per tile of whole planes sized to
    ``CACHE_BYTES``, every group per tile, so beyond ``y`` (or ``gx``) the
    forward and backward hold only tile-sized buffers. With ``pool=True``
    the result is the mean over the ``groups`` of the ReLU of that output,
    ``[B, C_out, *2D]``. The module docstring gives where non-finite values
    land.
    """
    _check_conv_args(
        x.shape[:2] + tuple(2 * n for n in x.shape[2:]), kernel.shape, groups
    )
    xd, kd = x.data, kernel.data
    want_gx = _wants_grad(x)
    y, masks = _stuffed_fwd(xd, kd, groups, pool, pool and recording((x, kernel)))

    def pull(g):
        return _stuffed_bwd(g, xd, kd, groups, want_gx, masks)

    return record("stuffed_conv_nd", y, (x, kernel), pull)


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
    with ``out[h, ..., t] = x[..., idx[h, t]]``: kernel rotation
    (``idx = pi``) or group-axis permutation (``idx = sigma``) for the
    separable and upsampling layers.
    """
    idx, inv = _as_index(idx), _as_index(inv)
    if idx.shape[1] != x.shape[-1]:
        raise ShapeError(f"index width {idx.shape[1]} != last axis {x.shape[-1]}")
    rows = np.arange(len(inv))[:, None]
    shape = x.shape

    def pull(g):
        # rows are permutations, so the adjoint is the inverse gather; the
        # indexed axes move to the front, giving [H, K, M]
        back = g.reshape(len(inv), -1, inv.shape[1])[rows, :, inv].sum(axis=0)
        return (back.T.reshape(shape),)

    out = np.moveaxis(x.data[..., idx], -2, 0)
    return record("take_last", np.ascontiguousarray(out), (x,), pull)


def transform_group_kernel(kernels: Tensor, w: Tensor, idx, inv) -> Tensor:
    """A group layer's conv kernel: each bank transformed per group element
    and the banks summed with the relaxed weights.

    ``kernels`` is ``[L, C_out, C, K]``, ``w`` is ``[L, H]`` and ``idx`` is
    ``[H, K]`` with permutation rows (``inv`` their inverses); the result is
    ``[C_out, H, C, K]`` with
    ``out[co, h, c, t] = sum_l w[l, h] kernels[l, co, c, idx[h, t]]``. Rows
    ``(co, h)`` make a conv with it write ``[B, C_out, H, *D]``. Its pull
    keeps the operands and index tables, never the ``H`` times larger result.
    """
    idx, inv = _as_index(idx), _as_index(inv)
    L, Co, C, K = kernels.shape
    H = len(idx)
    if idx.shape[1] != K or w.shape != (L, H):
        raise ShapeError(f"kernels {kernels.shape} and w {w.shape} do not fit {idx.shape}")
    kd, wd, want_w = kernels.data, w.data, _wants_grad(w)
    flat = kd.reshape(L, Co, C * K)
    # cols[h, c K + t] = c K + idx[h, t]: one take per bank gathers its
    # transformed rows straight into (co, h) order
    cols = (np.arange(0, C * K, K)[:, None] + idx[:, None, :]).reshape(H, C * K)
    out = np.take(flat[0], cols, axis=1)
    out *= wd[0, :, None]
    for l in range(1, L):
        out += np.take(flat[l], cols, axis=1) * wd[l, :, None]

    def pull(g):
        # rows are permutations, so the adjoint is the inverse gather; one
        # gather serves both operands: gi[h, s, co, c] = g[co, h, c, inv[h, s]]
        gi = g.reshape(Co, H, C, K)[:, np.arange(H)[:, None], :, inv].reshape(H, -1)
        gk = (wd @ gi).reshape(L, K, Co, C).transpose(0, 2, 3, 1)
        gw = np.moveaxis(kd, 3, 1).reshape(L, -1) @ gi.T if want_w else None
        return np.ascontiguousarray(gk), gw

    return record("transform_group_kernel", out.reshape(Co, H, C, K), (kernels, w), pull)
