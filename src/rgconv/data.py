"""Synthetic data generators with known ground-truth symmetry.

Three families:

- 2D shape-to-shape tasks on a small grid (square, rectangle, L-blob targets
  whose stabilizers under the planar 4-fold rotations are 4, 2, 1 elements).
- A perovskite-style voxel scene: one cubic cell with A-site corners, B-site
  center, O face centers, rasterized by periodic Gaussian splats. The
  tetragonal phase displaces the B atom along +z, the orthorhombic phase
  along the (0,1,1) diagonal, shrinking the octahedral stabilizer to 8 and 4
  elements respectively.
- Divergence-free synthetic velocity fields from random solenoidal Fourier
  modes under a fixed linear phase evolution, in an isotropic and a
  channel-like anisotropic flavor, for the super-resolution task.

Every generator is pure given its seed/arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ConsistencyError, ShapeError
from .groups import build_group, stabilizer_of_grid

__all__ = [
    "Atom",
    "VoxelScene",
    "Dataset",
    "SHAPE2D_TASKS",
    "gen_shape2d",
    "gen_perovskite",
    "rasterize",
    "gen_flow_dataset",
    "downsample_mean",
]

SHAPE2D_TASKS = ("square_to_square", "square_to_rectangle", "square_to_asymmetric")
_SHAPE2D_STABILIZER_ORDER = {
    "square_to_square": 4,
    "square_to_rectangle": 2,
    "square_to_asymmetric": 1,
}

# single-channel species encoding: distinct amplitudes per species
_SPECIES = ("A", "B", "O")
_SPECIES_WEIGHT = {"A": 1.0, "B": 2.0, "O": 0.5}


# ---------------------------------------------------------------------------
# 2D shape tasks


def _odd(n: int) -> int:
    n = max(1, int(n))
    return n if n % 2 == 1 else n - 1


def _scaled(n15: int, size: int) -> int:
    return _odd(round(n15 * size / 15))


def gen_shape2d(task: str, size: int = 15) -> tuple[np.ndarray, np.ndarray]:
    """One (input, target) image pair, both [1, size, size].

    The input is a centered filled square. Targets: a larger centered square
    (full rotational symmetry), an axis-aligned rectangle with distinct side
    lengths (half the symmetry), or an L-shaped blob (no symmetry). The
    stabilizers are verified against the brute-force oracle at generation.
    """
    if task not in SHAPE2D_TASKS:
        raise ConfigError(f"task must be one of {SHAPE2D_TASKS}, got {task!r}")
    if size % 2 == 0 or size < 9:
        raise ConfigError(f"size must be odd and >= 9, got {size}")
    c = size // 2

    def square(side: int) -> np.ndarray:
        img = np.zeros((size, size))
        h = (side - 1) // 2
        img[c - h : c + h + 1, c - h : c + h + 1] = 1.0
        return img

    x = square(_scaled(7, size))

    if task == "square_to_square":
        y = square(_scaled(11, size))
    elif task == "square_to_rectangle":
        ha = (_scaled(11, size) - 1) // 2
        hb = (_scaled(5, size) - 1) // 2
        if ha == hb:
            raise ConsistencyError(f"degenerate rectangle at size {size}")
        y = np.zeros((size, size))
        y[c - ha : c + ha + 1, c - hb : c + hb + 1] = 1.0
    else:
        e = (_scaled(9, size) - 1) // 2
        wd = max(2, round(3 * size / 15))
        y = np.zeros((size, size))
        y[c - e : c + e + 1, c - e : c - e + wd] = 1.0  # vertical arm
        y[c + e - wd + 1 : c + e + 1, c - e : c + e + 1] = 1.0  # horizontal arm

    group = build_group("cyclic_2d(4)")
    want = _SHAPE2D_STABILIZER_ORDER[task]
    stab_x, _ = stabilizer_of_grid(group, x)
    stab_y, _ = stabilizer_of_grid(group, y)
    if len(stab_x) != 4 or len(stab_y) != want:
        raise ConsistencyError(
            f"stabilizer mismatch for {task} at size {size}: "
            f"input {len(stab_x)} (want 4), target {len(stab_y)} (want {want})"
        )
    return x[None], y[None]


# ---------------------------------------------------------------------------
# perovskite voxel scenes


@dataclass(frozen=True)
class Atom:
    species: str
    frac: tuple  # fractional position in [0, 1)^3
    amplitude: float = 1.0
    sigma: float = 1.5  # Gaussian width in voxels


@dataclass
class VoxelScene:
    size: int  # odd grid extent per axis
    atoms: list = field(default_factory=list)


def gen_perovskite(
    phase: str, delta: float = 0.8, grid: int = 17, sigma: float = 1.5
) -> VoxelScene:
    """One unit cell: A at the corner, B at the center, O at face centers.

    ``delta`` is the B-site displacement in voxels: along +z for the
    tetragonal phase, along the (0,1,1) diagonal (delta/sqrt(2) on each of
    +y and +z) for the orthorhombic phase; ignored for cubic.
    """
    if phase not in ("cubic", "tetragonal", "orthorhombic"):
        raise ConfigError(f"unknown phase {phase!r}")
    if grid % 2 == 0 or grid < 5:
        raise ConfigError(f"grid must be odd and >= 5, got {grid}")
    if phase != "cubic" and not 0 < delta < 2:
        raise ConfigError(f"delta must be in (0, 2) voxels, got {delta}")

    b = np.array([0.5, 0.5, 0.5])
    if phase == "tetragonal":
        b = b + np.array([0.0, 0.0, delta / grid])
    elif phase == "orthorhombic":
        step = delta / np.sqrt(2.0) / grid
        b = b + np.array([0.0, step, step])

    atoms = [
        Atom("A", (0.0, 0.0, 0.0), sigma=sigma),
        Atom("B", tuple(float(v) for v in b), sigma=sigma),
        Atom("O", (0.5, 0.5, 0.0), sigma=sigma),
        Atom("O", (0.5, 0.0, 0.5), sigma=sigma),
        Atom("O", (0.0, 0.5, 0.5), sigma=sigma),
    ]
    return VoxelScene(size=grid, atoms=atoms)


def rasterize(scene: VoxelScene, channels: int = 3) -> np.ndarray:
    """Deposit periodic Gaussians at atom sites onto a [C, D, D, D] grid.

    With 3 channels each species gets its own channel at its stored
    amplitude; with 1 channel the species are encoded as distinct amplitude
    weights (A 1.0, B 2.0, O 0.5) times the stored amplitude. Distances use
    the nearest periodic image, so symmetric scenes rasterize to grids that
    are exactly invariant under their stabilizer.
    """
    if channels not in (1, 3):
        raise ConfigError(f"channels must be 1 or 3, got {channels}")
    D = scene.size
    c = D // 2
    idx = np.arange(D, dtype=np.float64)
    out = np.zeros((channels, D, D, D))
    for a in scene.atoms:
        if a.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {a.sigma}")
        f = np.asarray(a.frac, dtype=np.float64)
        if np.any(f < 0) or np.any(f >= 1):
            raise ConfigError(f"fractional position out of [0,1): {a.frac}")
        p = (f - 0.5) * D + c
        d2 = []
        for ax in range(3):
            d = np.mod(idx - p[ax] + D / 2.0, D) - D / 2.0
            d2.append(d * d)
        r2 = d2[0][:, None, None] + d2[1][None, :, None] + d2[2][None, None, :]
        blob = np.exp(-r2 / (2.0 * a.sigma**2))
        if channels == 3:
            out[_SPECIES.index(a.species)] += a.amplitude * blob
        else:
            out[0] += a.amplitude * _SPECIES_WEIGHT[a.species] * blob
    return out


# ---------------------------------------------------------------------------
# synthetic flow fields


@dataclass
class Dataset:
    """Time-ordered samples split 80/10/10 by index order."""

    samples: list  # (input, target) pairs

    def _bounds(self) -> tuple[int, int]:
        n = len(self.samples)
        return int(n * 0.8), int(n * 0.9)

    @property
    def train(self) -> list:
        return self.samples[: self._bounds()[0]]

    @property
    def val(self) -> list:
        a, b = self._bounds()
        return self.samples[a:b]

    @property
    def test(self) -> list:
        return self.samples[self._bounds()[1] :]


def _spectrum(rng: np.random.Generator, D: int, anisotropy: str, n_max: int):
    """Random solenoidal Fourier coefficients and per-mode phase speeds."""
    n1 = np.fft.fftfreq(D, 1.0 / D)  # integer wavenumbers as floats
    nx, ny, nz = np.meshgrid(n1, n1, n1, indexing="ij")
    nvec = np.stack([nx, ny, nz], axis=-1)  # [D,D,D,3]
    n2 = np.sum(nvec * nvec, axis=-1)
    nmag = np.sqrt(n2)

    amp = np.zeros((D, D, D))
    act = (nmag >= 1.0) & (nmag <= n_max)
    amp[act] = nmag[act] ** (-11.0 / 6.0)
    if anisotropy == "channel":
        # damp structure in the wall-normal (y) wavenumber; spectral damping
        # keeps the field exactly solenoidal where a physical near-wall
        # envelope would not
        amp = amp * np.exp(-((np.abs(ny) / 1.5) ** 2))

    xi = rng.normal(size=(D, D, D, 3)) + 1j * rng.normal(size=(D, D, D, 3))
    safe = np.where(n2 == 0.0, 1.0, n2)
    coef = xi - nvec * (np.sum(nvec * xi, axis=-1, keepdims=True) / safe[..., None])
    coef = amp[..., None] * coef
    coef[0, 0, 0, :] = 0.0
    omega = 0.4 * nmag
    return coef, omega


def _field_at(coef: np.ndarray, omega: np.ndarray, t: float) -> np.ndarray:
    ph = np.exp(-1j * omega * t)
    return np.stack(
        [np.real(np.fft.ifftn(coef[..., j] * ph)) for j in range(3)]
    )  # [3, D, D, D]


def _trajectory(seed: int, D: int, n_steps: int, anisotropy: str) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    coef, omega = _spectrum(rng, D, anisotropy, n_max=5)
    u0 = _field_at(coef, omega, 0.0)
    rms = float(np.sqrt(np.mean(u0 * u0)))
    coef = coef * (0.5 / rms)
    frames = []
    shear = np.sin(2.0 * np.pi * np.arange(D) / D)[None, :, None]
    for t in range(n_steps):
        u = _field_at(coef, omega, float(t))
        if anisotropy == "channel":
            u[0] += shear
        frames.append(u)
    return frames


def _check_flow_args(size, anisotropy: str) -> int:
    if anisotropy not in ("isotropic", "channel"):
        raise ConfigError(f"anisotropy must be isotropic or channel, got {anisotropy!r}")
    size = tuple(size)
    if len(size) != 3 or len(set(size)) != 1:
        raise ConfigError(f"size must be (D, D, D), got {size}")
    D = int(size[0])
    if D < 4 or D % 4 != 0:
        raise ConfigError(f"grid extent must be positive and divisible by 4, got {D}")
    return D


def _window(frames: list[np.ndarray], i: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.concatenate([downsample_mean(frames[i + s], 4) for s in range(steps)])
    return x, frames[i + steps].copy()


def gen_flow_dataset(
    seed: int,
    n_samples: int,
    size=(32, 32, 32),
    steps: int = 3,
    anisotropy: str = "isotropic",
) -> Dataset:
    """Sliding windows over one trajectory, time-ordered. Sample ``i`` holds
    ``steps`` consecutive velocity fields block-averaged 4x as input channels
    ``[3*steps, D/4, D/4, D/4]`` and the next field at full resolution
    ``[3, D, D, D]`` as the target.
    """
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    D = _check_flow_args(size, anisotropy)
    frames = _trajectory(seed, D, n_samples + steps, anisotropy)
    return Dataset(samples=[_window(frames, i, steps) for i in range(n_samples)])


# ---------------------------------------------------------------------------
# downsampling


def downsample_mean(x: np.ndarray, factor: int = 4) -> np.ndarray:
    """Non-overlapping block mean over the trailing three axes.

    ``factor`` must be a power of two: the mean is taken by repeated pairwise
    halving, which keeps constant regions exactly constant. Preserves the
    input float dtype; factor 1 returns the input as is.
    """
    a = np.asarray(x)
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
    factor = int(factor)
    if factor < 1 or factor & (factor - 1):
        raise ConfigError(f"factor must be a power of two, got {factor}")
    if a.ndim < 3:
        raise ShapeError(f"cannot take 3 spatial axes from shape {a.shape}")
    axes = range(a.ndim - 3, a.ndim)
    for ax in axes:
        if a.shape[ax] % factor != 0:
            raise ShapeError(
                f"axis {ax} extent {a.shape[ax]} not divisible by factor {factor}"
            )
    out = a
    for _ in range(factor.bit_length() - 1):
        for ax in axes:
            head = (slice(None),) * ax
            lo, hi = head + (slice(0, None, 2),), head + (slice(1, None, 2),)
            out = 0.5 * (out[lo] + out[hi])
    return out
