"""Task data generators: 2D shapes, perovskite voxels, and flow fields.

Stabilizer expectations are re-derived here from the element matrices
(which integer matrices fix the displacement direction), independently of
stabilizer_of_grid's brute-force route.
"""

import numpy as np
import pytest

from rgconv import (
    Atom,
    ConfigError,
    ShapeError,
    VoxelScene,
    build_group,
    downsample_mean,
    gen_flow_dataset,
    gen_perovskite,
    gen_shape2d,
    rasterize,
    stabilizer_of_grid,
    transform_grid,
)
from rgconv.data import Dataset

C4 = build_group("cyclic_2d(4)")
O24 = build_group("octahedral_24")
O48 = build_group("octahedral_48")


def transform_scene(group, g, scene):
    """Oracle: map every atom position by the group element, about the cell
    center, before rasterizing."""
    m = group.elements[g].matrix.astype(np.float64)
    atoms = []
    for a in scene.atoms:
        f = (m @ (np.asarray(a.frac) - 0.5) + 0.5) % 1.0
        atoms.append(Atom(a.species, tuple(float(v) for v in f), a.amplitude, a.sigma))
    return VoxelScene(size=scene.size, atoms=atoms)


def spectral_divergence_max(u):
    """Oracle: max modulus of the spectral divergence of a [3, D, D, D] field."""
    D = u.shape[1]
    k1 = 2.0j * np.pi * np.fft.fftfreq(D, 1.0 / D) / D
    div = (
        np.fft.fftn(u[0]) * k1[:, None, None]
        + np.fft.fftn(u[1]) * k1[None, :, None]
        + np.fft.fftn(u[2]) * k1[None, None, :]
    )
    return float(np.max(np.abs(div)))


def names_of(group, ids):
    return sorted(group.names[g] for g in ids)


def matrix_stabilizer(group, direction):
    """Elements whose matrix fixes ``direction`` (integer vector)."""
    d = np.asarray(direction)
    return frozenset(
        g for g in range(group.order)
        if np.array_equal(group.elements[g].matrix @ d, d)
    )


# ---------------------------------------------------------------------------
# 2D shapes


@pytest.mark.parametrize("task,stab_names", [
    ("square_to_square", ["e", "g", "g2", "g3"]),
    ("square_to_rectangle", ["e", "g2"]),
    ("square_to_asymmetric", ["e"]),
])
def test_shape2d_joint_stabilizers(task, stab_names):
    x, y = gen_shape2d(task)
    assert x.shape == (1, 15, 15) and y.shape == (1, 15, 15)
    sx, _ = stabilizer_of_grid(C4, x)
    sy, _ = stabilizer_of_grid(C4, y)
    assert names_of(C4, sx & sy) == sorted(stab_names)


def test_shape2d_input_always_square_symmetric():
    for task in ("square_to_square", "square_to_rectangle", "square_to_asymmetric"):
        x, _ = gen_shape2d(task)
        sx, closed = stabilizer_of_grid(C4, x)
        assert len(sx) == 4 and closed


@pytest.mark.parametrize("size", [15, 21, 27])
def test_shape2d_scales_and_stays_binary(size):
    for task in ("square_to_square", "square_to_rectangle", "square_to_asymmetric"):
        x, y = gen_shape2d(task, size)
        assert x.shape == (1, size, size)
        assert set(np.unique(x)) <= {0.0, 1.0}
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert y.any()


def test_shape2d_deterministic():
    a = gen_shape2d("square_to_rectangle")
    b = gen_shape2d("square_to_rectangle")
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_shape2d_rejects_bad_args():
    with pytest.raises(ConfigError):
        gen_shape2d("square_to_blob")
    with pytest.raises(ConfigError):
        gen_shape2d("square_to_square", 14)
    with pytest.raises(ConfigError):
        gen_shape2d("square_to_square", 5)


# ---------------------------------------------------------------------------
# perovskite voxels


def test_perovskite_phase_stabilizers_match_matrix_oracle():
    cubic = rasterize(gen_perovskite("cubic"), channels=1)
    s, closed = stabilizer_of_grid(O48, cubic)
    assert len(s) == 48 and closed

    tetra = rasterize(gen_perovskite("tetragonal"), channels=1)
    s, closed = stabilizer_of_grid(O48, tetra)
    assert closed and s == matrix_stabilizer(O48, [0, 0, 1])
    assert len(s) == 8

    ortho = rasterize(gen_perovskite("orthorhombic"), channels=1)
    s, closed = stabilizer_of_grid(O48, ortho)
    assert closed and s == matrix_stabilizer(O48, [0, 1, 1])
    assert len(s) == 4


def test_perovskite_three_channel_default_same_stabilizers():
    vol = rasterize(gen_perovskite("tetragonal"))
    assert vol.shape == (3, 17, 17, 17)
    s, _ = stabilizer_of_grid(O48, vol)
    assert len(s) == 8


def test_perovskite_rejects_bad_args():
    with pytest.raises(ConfigError):
        gen_perovskite("hexagonal")
    with pytest.raises(ConfigError):
        gen_perovskite("cubic", grid=16)
    with pytest.raises(ConfigError):
        gen_perovskite("tetragonal", delta=0.0)
    with pytest.raises(ConfigError):
        gen_perovskite("tetragonal", delta=2.5)


def test_rasterize_centered_atom_peak_equals_amplitude():
    scene = VoxelScene(size=17, atoms=[Atom("B", (0.5, 0.5, 0.5), amplitude=2.0)])
    vol = rasterize(scene)  # 3-channel: plain amplitude per species channel
    c = 8
    assert vol[1, c, c, c] == pytest.approx(2.0, rel=1e-12)
    assert vol[1].max() == vol[1, c, c, c]
    assert not vol[0].any() and not vol[2].any()


def test_rasterize_single_channel_separates_species_by_amplitude():
    at = [Atom("A", (0.5, 0.5, 0.5))]
    bt = [Atom("B", (0.5, 0.5, 0.5))]
    a = rasterize(VoxelScene(size=9, atoms=at), channels=1)
    b = rasterize(VoxelScene(size=9, atoms=bt), channels=1)
    c = 4
    assert a[0, c, c, c] != b[0, c, c, c]
    assert b[0, c, c, c] / a[0, c, c, c] == pytest.approx(2.0, rel=1e-12)


def test_rasterize_mass_matches_gaussian_integral():
    # discrete sum vs (2 pi sigma^2)^{3/2}, within 1% for sigma >= 1.5
    for sigma in (1.5, 2.0):
        scene = VoxelScene(size=17, atoms=[Atom("A", (0.5, 0.5, 0.5), sigma=sigma)])
        mass = float(rasterize(scene, channels=1).sum())
        expect = (2.0 * np.pi * sigma**2) ** 1.5
        assert abs(mass - expect) / expect < 0.01


def test_rasterize_empty_scene_is_zero():
    vol = rasterize(VoxelScene(size=9, atoms=[]), channels=1)
    assert vol.shape == (1, 9, 9, 9) and not vol.any()


def test_rasterize_periodic_wrap():
    # a frac-(0,0,0) atom sits half a voxel outside voxel (0,0,0); with wrap,
    # all eight grid corners are nearest-image equidistant at r^2 = 3/4
    scene = VoxelScene(size=9, atoms=[Atom("A", (0.0, 0.0, 0.0))])
    vol = rasterize(scene, channels=1)[0]
    corners = [vol[i, j, k] for i in (0, -1) for j in (0, -1) for k in (0, -1)]
    want = np.exp(-0.75 / (2.0 * 1.5**2))
    assert all(v == pytest.approx(want, rel=1e-12) for v in corners)
    assert vol.max() == pytest.approx(want, rel=1e-12)


def test_rasterize_commutes_with_scene_transform():
    scene = gen_perovskite("orthorhombic")
    for g in range(0, O48.order, 7):
        via_scene = rasterize(transform_scene(O48, g, scene), channels=3)
        via_grid = transform_grid(O48, g, rasterize(scene, channels=3))
        assert np.max(np.abs(via_scene - via_grid)) < 1e-9


def test_transform_scene_identity_and_composition():
    scene = gen_perovskite("tetragonal")
    same = transform_scene(O48, 0, scene)
    assert all(
        np.allclose(a.frac, b.frac) and a.species == b.species
        for a, b in zip(scene.atoms, same.atoms)
    )


# ---------------------------------------------------------------------------
# flow fields


def test_flow_shapes_and_divergence():
    x, y = gen_flow_dataset(0, 1, size=(32, 32, 32)).samples[0]
    assert x.shape == (9, 8, 8, 8)
    assert y.shape == (3, 32, 32, 32)
    assert spectral_divergence_max(y) < 1e-10


def test_flow_channel_mode_divergence_free_too():
    _, y = gen_flow_dataset(1, 1, size=(16, 16, 16), anisotropy="channel").samples[0]
    assert spectral_divergence_max(y) < 1e-10


def test_flow_deterministic_and_modes_differ():
    def first(seed, anisotropy="isotropic"):
        return gen_flow_dataset(seed, 1, size=(16, 16, 16), anisotropy=anisotropy).samples[0]

    a, b = first(3), first(3)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], first(3, "channel")[1])
    assert not np.array_equal(a[1], first(4)[1])


def test_flow_dataset_windows_share_frames():
    ds = gen_flow_dataset(0, 4, size=(16, 16, 16))
    x0, y0 = ds.samples[0]
    x1, y1 = ds.samples[1]
    # window i+1 starts one frame later
    assert np.array_equal(x0[3:9], x1[0:6])
    assert np.array_equal(downsample_mean(y0, 4), x1[6:9])


def test_flow_dataset_split_sizes():
    ds = gen_flow_dataset(0, 16, size=(16, 16, 16))
    assert (len(ds.train), len(ds.val), len(ds.test)) == (12, 2, 2)
    ds = gen_flow_dataset(0, 10, size=(16, 16, 16))
    assert (len(ds.train), len(ds.val), len(ds.test)) == (8, 1, 1)
    assert ds.train[0] is ds.samples[0] and ds.test[-1] is ds.samples[-1]


def test_flow_rejects_bad_args():
    with pytest.raises(ConfigError):
        gen_flow_dataset(0, 1, size=(30, 30, 30))  # not divisible by 4
    with pytest.raises(ConfigError):
        gen_flow_dataset(0, 1, size=(16, 16, 8))  # not cubic
    with pytest.raises(ConfigError):
        gen_flow_dataset(0, 1, size=(16, 16, 16), anisotropy="spanwise")
    with pytest.raises(ConfigError):
        gen_flow_dataset(0, 0, size=(16, 16, 16))


def test_spectral_divergence_flags_non_solenoidal():
    # the divergence oracle is not vacuous
    rng = np.random.default_rng(0)
    u = rng.normal(size=(3, 8, 8, 8))
    assert spectral_divergence_max(u) > 1e-2


# ---------------------------------------------------------------------------
# block-mean downsampling


def test_downsample_constant_is_exact():
    for v in (0.1, np.pi / 3.0, -1.7):
        out = downsample_mean(np.full((1, 8, 8, 8), v), 4)
        assert out.shape == (1, 2, 2, 2)
        assert np.all(out == v)


def test_downsample_single_hot_block():
    x = np.zeros((1, 4, 4, 4))
    x[0, 1, 2, 3] = 1.0
    out = downsample_mean(x, 4)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 1.0 / 64.0


def test_downsample_64_to_16():
    x = np.zeros((3, 64, 64, 64), dtype=np.float32)
    out = downsample_mean(x, 4)
    assert out.shape == (3, 16, 16, 16) and out.dtype == np.float32


def test_downsample_rejects_non_power_of_two_factor():
    for factor in (0, 3, 6):
        with pytest.raises(ConfigError, match="power of two"):
            downsample_mean(np.zeros((1, 12, 12, 12)), factor)


def test_downsample_rejects_indivisible():
    with pytest.raises(ShapeError):
        downsample_mean(np.zeros((1, 6, 6, 6)), 4)


def apply_signed_perm(mat, vol, d):
    """Independent centered action: permute axes, flip negated ones.

    Works for any extent: index reversal is the flip about the grid centre
    for both parities.
    """
    lead = vol.ndim - d
    perm = list(range(lead))
    flips = []
    for j in range(d):
        i = int(np.argmax(np.abs(mat[j])))
        perm.append(lead + i)
        if mat[j, i] < 0:
            flips.append(lead + j)
    out = np.transpose(vol, perm)
    return np.flip(out, flips) if flips else out.copy()


def test_signed_perm_action_matches_transform_grid_on_odd_grids():
    rng = np.random.default_rng(5)
    vol = rng.normal(size=(2, 9, 9, 9))
    for g in range(0, O48.order, 5):
        mine = apply_signed_perm(O48.elements[g].matrix, vol, 3)
        assert np.array_equal(mine, transform_grid(O48, g, vol))


def test_downsample_commutes_with_octahedral_transforms():
    rng = np.random.default_rng(6)
    vol = rng.normal(size=(3, 8, 8, 8))
    small = downsample_mean(vol, 4)
    for g in range(O48.order):
        m = O48.elements[g].matrix
        lhs = downsample_mean(apply_signed_perm(m, vol, 3), 4)
        rhs = apply_signed_perm(m, small, 3)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_signed_perm_action_matches_transform_grid_on_even_grids():
    rng = np.random.default_rng(7)
    vol = rng.normal(size=(2, 8, 8, 8))
    for g in range(O48.order):
        mine = apply_signed_perm(O48.elements[g].matrix, vol, 3)
        assert np.array_equal(mine, transform_grid(O48, g, vol))


def test_downsample_commutes_with_transform_grid():
    # coarse centre 3.5 pairs with fine centre 15.5 = 4 * 3.5 + 1.5, the
    # block mean's own pairing
    rng = np.random.default_rng(8)
    y = rng.normal(size=(3, 32, 32, 32))
    small = downsample_mean(y, 4)
    for g in range(O24.order):
        lhs = downsample_mean(transform_grid(O24, g, y), 4)
        assert np.max(np.abs(lhs - transform_grid(O24, g, small))) <= 1e-15
