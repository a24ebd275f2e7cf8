"""Independent oracles for the benchmark's correctness checks.

Everything here is plain NumPy and is derived from the group matrices alone:
no function of ``rgconv`` is used, so a fault in the program's own index
tables, stabilizer search or convolution paths cannot hide itself.

Conventions (the ones the program documents):

- grids are odd-sized and transform about their center voxel ``c``:
  ``(T_g f)(p) = f(g^-1 (p - c) + c)``;
- a kernel over centered offsets transforms the same way,
  ``(pi_g k)(o) = k(g^-1 o)``;
- a stride-2 transposed convolution scatters every input sample through the
  kernel: ``out[co, 2p + o] += k[ci, co, o] * x[ci, p]``, with periodic wrap.
"""

from __future__ import annotations

import itertools

import numpy as np


def centered_offsets(size: int, d: int) -> np.ndarray:
    """Offsets of an odd ``size``^d grid from its center, row-major, (N, d)."""
    if size % 2 == 0:
        raise ValueError(f"grid extent must be odd, got {size}")
    axes = [np.arange(size) - size // 2] * d
    return np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)


def inverse_matrix(mat) -> np.ndarray:
    """Exact inverse of an integer signed permutation matrix."""
    m = np.asarray(mat)
    inv = np.rint(np.linalg.inv(m.astype(np.float64))).astype(np.int64)
    if not np.array_equal(inv @ m, np.eye(len(m), dtype=np.int64)):
        raise ValueError("matrix is not invertible over the integers")
    return inv


def transform_grid(mat, arr) -> np.ndarray:
    """``(T_g f)(p) = f(g^-1 (p - c) + c)`` on the trailing ``d`` axes."""
    m = np.asarray(mat)
    d = m.shape[0]
    a = np.asarray(arr)
    size = a.shape[-1]
    if a.shape[-d:] != (size,) * d:
        raise ValueError(f"trailing {d} axes must be equal, got {a.shape}")
    offs = centered_offsets(size, d)
    src = offs @ inverse_matrix(m).T + size // 2
    flat_src = np.ravel_multi_index(tuple(src.T), (size,) * d)
    lead = a.shape[: a.ndim - d]
    return a.reshape(lead + (size**d,))[..., flat_src].reshape(a.shape)


def stabilizer(mats, arr, rtol: float = 1e-9) -> frozenset:
    """Ids of the matrices whose grid action leaves ``arr`` unchanged."""
    a = np.asarray(arr, dtype=np.float64)
    tol = rtol * max(float(np.max(np.abs(a))), 1e-300)
    return frozenset(
        g for g, m in enumerate(mats)
        if float(np.max(np.abs(transform_grid(m, a) - a))) <= tol
    )


def is_subgroup(mats, ids) -> bool:
    """Closure of a set of element ids under matrix products and inverses."""
    keys = {np.asarray(mats[g]).tobytes(): g for g in range(len(mats))}
    chosen = [np.asarray(mats[g]) for g in ids]
    for a in chosen:
        if keys.get(inverse_matrix(a).tobytes()) not in ids:
            return False
        for b in chosen:
            if keys.get((a @ b).tobytes()) not in ids:
                return False
    return True


def directional_fd(f, x0: np.ndarray, v: np.ndarray, eps: float) -> float:
    """Central difference ``(f(x0 + eps v) - f(x0 - eps v)) / (2 eps)``."""
    return (float(f(x0 + eps * v)) - float(f(x0 - eps * v))) / (2.0 * eps)


def transposed_conv(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Stride-2 periodic transposed convolution as an offset sum.

    ``x`` is ``[B, Ci, *D]`` and ``k`` is ``[Ci, Co, *S]`` (odd S). The input
    is zero-stuffed to ``2D`` and every kernel offset contributes the stuffed
    signal rolled by that offset.
    """
    d = k.ndim - 2
    B, Ci = x.shape[:2]
    Co, S = k.shape[1], k.shape[2]
    D2 = tuple(2 * n for n in x.shape[2:])
    xs = np.zeros((B, Ci) + D2, dtype=np.float64)
    xs[(slice(None), slice(None)) + (slice(None, None, 2),) * d] = x
    out = np.zeros((B, Co) + D2, dtype=np.float64)
    axes = tuple(range(2, 2 + d))
    h = S // 2
    for tap in itertools.product(range(S), repeat=d):
        shift = tuple(t - h for t in tap)
        rolled = np.roll(xs, shift, axis=axes)
        kt = k[(slice(None), slice(None)) + tap]  # [Ci, Co]
        out += np.einsum("bi...,io->bo...", rolled, kt)
    return out


def group_upsample(mats, x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Oracle for a per-slice upsampling layer.

    ``x`` is ``[B, Ci, |H|, *D]``, ``kernel`` is ``[Co, Ci, *S]``; slice ``h``
    is transposed-convolved with the kernel rotated by ``h``.
    """
    outs = []
    for h, m in enumerate(mats):
        kh = transform_grid(m, kernel)  # (pi_h k)(o) = k(h^-1 o), [Co, Ci, *S]
        outs.append(transposed_conv(x[:, :, h], np.swapaxes(kh, 0, 1)))
    return np.stack(outs, axis=2)
