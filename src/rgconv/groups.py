"""Finite point groups acting on square and cubic grids.

Every supported group is represented by d x d signed permutation matrices
(d = 2 or 3), so group actions on square and cubic grids of any extent are
exact index permutations and no interpolation is ever involved.

Conventions used throughout the package:

- element 0 is the identity; the remaining elements are sorted
  lexicographically by their flattened integer matrix
- ``pi`` index tables realize kernel transforms over centered offsets:
  ``(pi_g k)(o) = k(g^-1 o)``
- ``sigma`` index tables realize the group-axis left action:
  ``(sigma_g v)[j] = v[index(g^-1 * elements[j])]``
- grids of every extent ``D`` transform about their centre
  ``c = (D - 1) / 2``, which is a voxel centre or a voxel corner
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, ConsistencyError, ContractError, DataError, ShapeError

__all__ = [
    "GroupElement",
    "FiniteGroup",
    "GridActionCache",
    "Irrep",
    "CharacterTable",
    "build_group",
    "compose",
    "inverse",
    "act_on_offset",
    "build_action_cache",
    "transform_grid",
    "stabilizer_of_grid",
    "closure",
    "character_table",
]


@dataclass(frozen=True, eq=False)
class GroupElement:
    """One group element: an integer signed permutation matrix plus its id."""

    id: int
    matrix: np.ndarray  # (d, d) int64, entries in {-1, 0, 1}
    name: str


@dataclass(eq=False)
class FiniteGroup:
    """A finite matrix group with precomputed composition tables.

    Immutable after construction. ``cayley[a, b]`` is the id of the product
    ``elements[a] @ elements[b]``; ``inverse[a]`` the id of the inverse.
    """

    kind: str
    dim: int
    order: int
    elements: tuple[GroupElement, ...]
    cayley: np.ndarray  # (n, n) int64
    inverse: np.ndarray  # (n,) int64
    identity_id: int = 0
    _grid_caches: dict = field(default_factory=dict, repr=False)
    _char_table: object = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.order

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.elements)

    @property
    def matrices(self) -> np.ndarray:
        """All element matrices stacked to shape (n, d, d)."""
        return np.stack([e.matrix for e in self.elements])

    def element_id(self, name: str) -> int:
        for e in self.elements:
            if e.name == name:
                return e.id
        raise KeyError(f"no element named {name!r} in {self.kind}")

    def grid_cache(self, size: int) -> "GridActionCache":
        """Memoized action cache for grid/kernel extent ``size``."""
        if size not in self._grid_caches:
            self._grid_caches[size] = build_action_cache(self, size)
        return self._grid_caches[size]


@dataclass(eq=False)
class GridActionCache:
    """Index tables for one group acting on one cubic/square extent.

    ``pi[g]`` permutes flattened kernel positions: gathering a flat kernel
    with ``pi[g]`` yields the kernel rotated by ``g``. ``sigma[g]`` permutes
    the group axis of a group feature map. ``pi_inv`` / ``sigma_inv`` are the
    corresponding inverse permutations (used by gradient scatter).
    """

    group: FiniteGroup
    size: int
    pi: np.ndarray  # (n, size**d) int64
    sigma: np.ndarray  # (n, n) int64
    pi_inv: np.ndarray
    sigma_inv: np.ndarray

    @cached_property
    def kernel_gather(self) -> tuple[np.ndarray, np.ndarray]:
        """Joint permutations of a group kernel's flattened ``(H', K)`` axes:
        ``idx[h, j K + t] = sigma[h, j] K + pi[h, t]`` and its inverse
        ``inv[h, a K + b] = sigma_inv[h, a] K + pi_inv[h, b]``. Built once,
        so a training step allocates no index tables."""
        K = self.pi.shape[1]

        def joint(rows, cols):
            return (rows[:, :, None] * K + cols[:, None, :]).reshape(len(rows), -1)

        return joint(self.sigma, self.pi), joint(self.sigma_inv, self.pi_inv)


@dataclass(frozen=True)
class Irrep:
    name: str
    dim: int
    chi: np.ndarray  # (n_classes,) complex characters


@dataclass(eq=False)
class CharacterTable:
    """Conjugacy classes plus the full complex character table of a group."""

    group: FiniteGroup
    class_of: np.ndarray  # (n,) class index per element
    class_sizes: np.ndarray  # (n_classes,)
    irreps: tuple[Irrep, ...]


# ---------------------------------------------------------------------------
# construction

_CYCLIC_RE = re.compile(r"^cyclic_2d\((\d+)\)$")

# 90 degree planar rotation; generates cyclic_2d(4). Offsets transform as
# column vectors o' = M @ o over (axis0, axis1) coordinates.
_ROT90_2D = np.array([[0, 1], [-1, 0]], dtype=np.int64)


def _signed_permutations(dim: int) -> list[np.ndarray]:
    mats = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((-1, 1), repeat=dim):
            m = np.zeros((dim, dim), dtype=np.int64)
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = s
            mats.append(m)
    return mats


def _axis_string(a: np.ndarray) -> str:
    letters = "xyz"
    out = []
    for comp, letter in zip(a, letters):
        if comp == 1:
            out.append(letter)
        elif comp == -1:
            out.append("-" + letter)
    return "".join(out)


def _canonical_axis(v: np.ndarray) -> tuple[np.ndarray, int]:
    """Scale an integer axis vector to entries in {-1,0,1} with the first
    nonzero component positive. Returns (axis, sign_flip)."""
    nz = v[v != 0]
    a = v // np.gcd.reduce(np.abs(nz))
    flip = 1
    for comp in a:
        if comp != 0:
            if comp < 0:
                a = -a
                flip = -1
            break
    return a, flip


def _rotation_name(m: np.ndarray) -> str:
    tr = int(np.trace(m))
    if tr == 3:
        return "e"
    if tr == -1:  # 180 degrees, axis from the projector (m + I) / 2
        p = m + np.eye(3, dtype=np.int64)
        col = next(p[:, j] for j in range(3) if np.any(p[:, j]))
        axis, _ = _canonical_axis(col)
        return f"R{_axis_string(axis)}180"
    # 90 or 120 degrees (plus their inverses); axis and sense from skew part
    base = 90 if tr == 1 else 120
    v = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]])
    axis, flip = _canonical_axis(v)
    angle = base if flip == 1 else 360 - base
    return f"R{_axis_string(axis)}{angle}"


def _element_name_3d(m: np.ndarray) -> str:
    if round(float(np.linalg.det(m))) == 1:
        return _rotation_name(m)
    mm = -m  # improper = inversion composed with a proper rotation
    rot = _rotation_name(mm)
    if rot == "e":
        return "inv"
    if rot.endswith("180"):  # a mirror; name it by its plane when coordinate
        axis = rot[1:-3]
        plane = {"x": "YZ", "y": "XZ", "z": "XY"}.get(axis)
        return f"refl{plane}" if plane else f"reflN_{axis}"
    return "-" + rot  # rotoinversion such as -Rz90


def _cyclic_names(mats: list[np.ndarray], gen: np.ndarray, n: int) -> dict[bytes, str]:
    names = {}
    m = np.eye(len(gen), dtype=np.int64)
    for p in range(n):
        label = "e" if p == 0 else ("g" if p == 1 else f"g{p}")
        names[m.tobytes()] = label
        m = gen @ m
    return names


@lru_cache(maxsize=None)
def build_group(kind: str) -> FiniteGroup:
    """Build one of the supported groups by kind string.

    Supported kinds: ``octahedral_24`` (proper cube rotations),
    ``octahedral_48`` (full cube symmetry including reflections),
    ``cyclic_2d(2)`` and ``cyclic_2d(4)`` (planar rotations).
    """
    cyc = _CYCLIC_RE.match(kind)
    if cyc:
        n = int(cyc.group(1))
        if n not in (2, 4):
            raise ConfigError(f"cyclic_2d order must be 2 or 4, got {n}")
        gen = _ROT90_2D if n == 4 else -np.eye(2, dtype=np.int64)
        mats, m = [], np.eye(2, dtype=np.int64)
        for _ in range(n):
            mats.append(m)
            m = gen @ m
        name_of = _cyclic_names(mats, gen, n)
        dim = 2
    elif kind in ("octahedral_24", "octahedral_48"):
        mats = _signed_permutations(3)
        if kind == "octahedral_24":
            mats = [m for m in mats if round(float(np.linalg.det(m))) == 1]
        name_of = None
        dim = 3
    else:
        raise ConfigError(f"unknown group kind {kind!r}")

    ident = np.eye(dim, dtype=np.int64)
    rest = sorted(
        (m for m in mats if not np.array_equal(m, ident)),
        key=lambda m: tuple(m.ravel()),
    )
    ordered = [ident] + rest
    n = len(ordered)

    id_of = {m.tobytes(): i for i, m in enumerate(ordered)}
    if len(id_of) != n:
        raise ConsistencyError("duplicate element matrices")

    cayley = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            prod = (ordered[a] @ ordered[b]).tobytes()
            if prod not in id_of:
                raise ConsistencyError("set of matrices is not closed")
            cayley[a, b] = id_of[prod]
    inv = np.array([id_of[m.T.copy().tobytes()] for m in ordered], dtype=np.int64)

    # group axioms, checked once per construction
    if not np.array_equal(cayley[0], np.arange(n)) or not np.array_equal(
        cayley[:, 0], np.arange(n)
    ):
        raise ConsistencyError("element 0 is not the identity")
    if not (np.array_equal(cayley[np.arange(n), inv], np.zeros(n, dtype=np.int64))):
        raise ConsistencyError("inverse table is wrong")
    if not np.array_equal(cayley[cayley], cayley[:, cayley]):
        raise ConsistencyError("composition is not associative")

    elements = []
    for i, m in enumerate(ordered):
        nm = name_of[m.tobytes()] if name_of else _element_name_3d(m)
        elements.append(GroupElement(id=i, matrix=m, name=nm))

    return FiniteGroup(
        kind=kind,
        dim=dim,
        order=n,
        elements=tuple(elements),
        cayley=cayley,
        inverse=inv,
    )


# ---------------------------------------------------------------------------
# elementary operations


def compose(group: FiniteGroup, a: int, b: int) -> int:
    """Id of the product a * b."""
    n = group.order
    if not (0 <= a < n and 0 <= b < n):
        raise IndexError(f"element id out of range for group of order {n}")
    return int(group.cayley[a, b])


def inverse(group: FiniteGroup, a: int) -> int:
    if not 0 <= a < group.order:
        raise IndexError(f"element id out of range for group of order {group.order}")
    return int(group.inverse[a])


def act_on_offset(group: FiniteGroup, g: int, offset) -> tuple[int, ...]:
    """Apply element ``g`` to an integer offset vector."""
    off = np.asarray(offset, dtype=np.int64)
    if off.shape != (group.dim,):
        raise ShapeError(f"offset must have shape ({group.dim},), got {off.shape}")
    return tuple(int(v) for v in group.elements[g].matrix @ off)


def build_action_cache(group: FiniteGroup, size: int) -> GridActionCache:
    """Precompute index permutations for extent ``size`` about its centre.

    Doubled offsets ``2 i - (size - 1)`` are integers on every extent, so
    ``target = ((2 i - (size - 1)) M^-T + size - 1) / 2`` is exact; where
    ``size - 1`` is even it is the voxel-centred ``(i - c) M^-T + c``.
    """
    if size < 1:
        raise ConfigError(f"grid/kernel extent must be positive, got {size}")
    d, n = group.dim, group.order
    grid = np.indices((size,) * d).reshape(d, -1).T  # (K, d) multi-indices
    doubled = 2 * grid - (size - 1)
    strides = np.array([size ** (d - 1 - k) for k in range(d)], dtype=np.int64)

    pi = np.empty((n, size ** d), dtype=np.int64)
    for g in range(n):
        m_inv = group.elements[int(group.inverse[g])].matrix
        target = (doubled @ m_inv.T + size - 1) // 2  # g^-1 applied to each offset
        pi[g] = target @ strides
    sigma = group.cayley[group.inverse]  # sigma[g, j] = id(g^-1 * e_j)

    pi_inv = np.argsort(pi, axis=1)
    sigma_inv = np.argsort(sigma, axis=1)
    if not np.array_equal(pi[0], np.arange(size ** d)):
        raise ConsistencyError("identity does not act trivially on the grid")
    return GridActionCache(
        group=group, size=size, pi=pi, sigma=sigma, pi_inv=pi_inv, sigma_inv=sigma_inv
    )


def _as_array(x) -> np.ndarray:
    return np.asarray(getattr(x, "data", x))


def _check_spatial(group: FiniteGroup, arr: np.ndarray) -> tuple[int, int]:
    d = group.dim
    if arr.ndim < d:
        raise ShapeError(f"need at least {d} spatial axes, got shape {arr.shape}")
    sizes = set(arr.shape[-d:])
    if len(sizes) != 1:
        raise ShapeError(f"spatial axes must be equal, got {arr.shape[-d:]}")
    return sizes.pop(), d


def transform_grid(group: FiniteGroup, g: int, arr) -> np.ndarray:
    """Rotate/reflect a grid about its centre: out(x) = in(g^-1 (x - c) + c).

    Leading axes (batch, channel) are carried along unchanged; the trailing
    ``group.dim`` axes are the spatial ones, of any equal extent.
    """
    a = _as_array(arr)
    size, d = _check_spatial(group, a)
    flat = a.reshape(a.shape[: a.ndim - d] + (size ** d,))
    return flat[..., group.grid_cache(size).pi[g]].reshape(a.shape)


def stabilizer_of_grid(
    group: FiniteGroup, grid, tol: float = 1e-9
) -> tuple[frozenset, bool]:
    """Brute-force stabilizer of a (multi-channel) scalar grid.

    Channels transform as scalars: every leading axis is compared pointwise
    after the spatial permutation. Returns the set of element ids whose action
    leaves the grid fixed to within ``tol`` (max abs deviation), plus a flag
    reporting whether that set passed the closure check. A NaN or infinite
    entry raises :class:`DataError` naming the first one.
    """
    a = _as_array(grid).astype(np.float64, copy=False)
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        at = tuple(int(i) for i in bad[0])
        raise DataError(f"grid has a non-finite entry {a[at]} at index {at}")
    stab = frozenset(
        g for g in range(group.order)
        if np.max(np.abs(transform_grid(group, g, a) - a)) <= tol
    )
    _, was_closed = closure(group, stab)
    return stab, was_closed


def closure(group: FiniteGroup, subset) -> tuple[frozenset, bool]:
    """Smallest subgroup containing ``subset``; flags if it was already closed.

    The flag is True exactly when the input set was itself a subgroup
    (contains the identity, all inverses, and all pairwise products).
    """
    initial = set(int(g) for g in subset)
    if not initial:
        raise ContractError("closure of an empty set is undefined")
    for g in initial:
        if not 0 <= g < group.order:
            raise IndexError(f"element id {g} out of range")
    current = set(initial)
    current.add(group.identity_id)
    current.update(int(group.inverse[g]) for g in list(current))
    while True:
        new = {int(group.cayley[a, b]) for a in current for b in current}
        if new <= current:
            break
        current |= new
    result = frozenset(current)
    return result, result == frozenset(initial)


# ---------------------------------------------------------------------------
# character tables

# octahedral class signatures in canonical column order: (size, trace, det)
_O24_CLASSES = [(1, 3, 1), (6, 1, 1), (3, -1, 1), (8, 0, 1), (6, -1, 1)]
_O48_CLASSES = _O24_CLASSES + [(1, -3, -1), (6, -1, -1), (3, 1, -1), (8, 0, -1), (6, 1, -1)]

_O24_TABLE = {
    "A1": (1, [1, 1, 1, 1, 1]),
    "A2": (1, [1, -1, 1, 1, -1]),
    "E": (2, [2, 0, 2, -1, 0]),
    "T1": (3, [3, 1, -1, 0, -1]),
    "T2": (3, [3, -1, -1, 0, 1]),
}


def _brute_classes(group: FiniteGroup) -> list[frozenset]:
    seen, classes = set(), []
    for a in range(group.order):
        if a in seen:
            continue
        orbit = {
            int(group.cayley[group.cayley[g, a], group.inverse[g]])
            for g in range(group.order)
        }
        seen |= orbit
        classes.append(frozenset(orbit))
    return classes


def _cyclic_char_table(group: FiniteGroup, n: int) -> CharacterTable:
    gen = group.element_id("g") if n > 1 else 0
    power_of = np.empty(n, dtype=np.int64)
    cur = group.identity_id
    for p in range(n):
        power_of[cur] = p
        cur = int(group.cayley[gen, cur])
    class_of = power_of  # abelian: one class per element, ordered by power
    omega = np.exp(2j * np.pi / n)
    irreps = []
    freq_names = {0: "trivial", n // 2: "sign"}
    for k in range(n):
        chi = omega ** (k * np.arange(n))
        irreps.append(Irrep(freq_names.get(k, f"freq{k}"), 1, chi))
    return CharacterTable(
        group=group,
        class_of=class_of,
        class_sizes=np.ones(n, dtype=np.int64),
        irreps=tuple(irreps),
    )


def _octahedral_char_table(group: FiniteGroup) -> CharacterTable:
    full = group.order == 48
    canon = _O48_CLASSES if full else _O24_CLASSES
    classes = _brute_classes(group)
    sig_to_col = {sig: i for i, sig in enumerate(canon)}
    class_of = np.empty(group.order, dtype=np.int64)
    seen_cols = set()
    for cls in classes:
        rep = next(iter(cls))
        m = group.elements[rep].matrix
        sig = (len(cls), int(np.trace(m)), round(float(np.linalg.det(m))))
        if sig not in sig_to_col:
            raise ConsistencyError(f"unexpected conjugacy class signature {sig}")
        col = sig_to_col[sig]
        seen_cols.add(col)
        for g in cls:
            class_of[g] = col
    if len(seen_cols) != len(canon):
        raise ConsistencyError("conjugacy class count mismatch")

    irreps = []
    if full:
        for name, (dim, chi) in _O24_TABLE.items():
            chi = np.asarray(chi, dtype=np.complex128)
            irreps.append(Irrep(name + "g", dim, np.concatenate([chi, chi])))
        for name, (dim, chi) in _O24_TABLE.items():
            chi = np.asarray(chi, dtype=np.complex128)
            irreps.append(Irrep(name + "u", dim, np.concatenate([chi, -chi])))
    else:
        for name, (dim, chi) in _O24_TABLE.items():
            irreps.append(Irrep(name, dim, np.asarray(chi, dtype=np.complex128)))
    sizes = np.array([c[0] for c in canon], dtype=np.int64)
    return CharacterTable(
        group=group, class_of=class_of, class_sizes=sizes, irreps=tuple(irreps)
    )


def character_table(group: FiniteGroup) -> CharacterTable:
    """Conjugacy classes and irreducible characters, verified at load."""
    if group._char_table is not None:
        return group._char_table
    cyc = _CYCLIC_RE.match(group.kind)
    if cyc:
        table = _cyclic_char_table(group, int(cyc.group(1)))
    else:
        table = _octahedral_char_table(group)

    n = group.order
    sizes = table.class_sizes.astype(np.float64)
    if int(sum(ir.dim ** 2 for ir in table.irreps)) != n:
        raise ConsistencyError("sum of squared irrep dimensions != group order")
    for i, ir_a in enumerate(table.irreps):
        for j, ir_b in enumerate(table.irreps):
            inner = np.sum(sizes * ir_a.chi * np.conj(ir_b.chi))
            expect = n if i == j else 0.0
            if abs(inner - expect) > 1e-10 * n:
                raise ConsistencyError(
                    f"character orthogonality failed for {ir_a.name}, {ir_b.name}"
                )
    counts = np.bincount(table.class_of, minlength=len(sizes))
    if not np.array_equal(counts, table.class_sizes):
        raise ConsistencyError("class sizes do not match class assignment")
    group._char_table = table
    return table
