"""Known-answer tests for the benchmark's own oracles.

Run with ``PYTHONPATH=src python3 -m pytest bench -q`` from the repository
root. The group matrices are built here, independently of rgconv, so only
the task data comes from the program.
"""

import itertools
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

ROT90 = np.array([[0, -1], [1, 0]])


def c4_matrices():
    return [np.linalg.matrix_power(ROT90, k) for k in range(4)]


def o48_matrices():
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = np.zeros((3, 3), dtype=np.int64)
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = s
            mats.append(m)
    return mats


def test_transform_grid_is_a_quarter_turn():
    a = np.arange(25.0).reshape(5, 5)
    assert np.array_equal(oracles.transform_grid(ROT90, a), np.rot90(a))
    # leading axes ride along
    b = np.stack([a, -a])
    assert np.array_equal(oracles.transform_grid(ROT90, b)[1], -np.rot90(a))


def test_transform_grid_is_an_action():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5, 5))
    mats = o48_matrices()
    for g, h in [(3, 17), (29, 40), (7, 7)]:
        gh = mats[g] @ mats[h]
        twice = oracles.transform_grid(mats[g], oracles.transform_grid(mats[h], a))
        assert np.array_equal(twice, oracles.transform_grid(gh, a))


@pytest.mark.parametrize(
    "task, size",
    [("square_to_square", 4), ("square_to_rectangle", 2), ("square_to_asymmetric", 1)],
)
def test_planar_stabilizers(task, size):
    from rgconv.data import gen_shape2d

    x, y = gen_shape2d(task, 15)
    mats = c4_matrices()
    stab = oracles.stabilizer(mats, x) & oracles.stabilizer(mats, y)
    assert len(stab) == size
    assert oracles.is_subgroup(mats, stab)


@pytest.mark.parametrize("phase, size", [("tetragonal", 8), ("orthorhombic", 4)])
def test_voxel_stabilizers(phase, size):
    from rgconv.data import gen_perovskite, rasterize

    x = rasterize(gen_perovskite("cubic", grid=11), channels=1)
    y = rasterize(gen_perovskite(phase, delta=0.8, grid=11), channels=1)
    mats = o48_matrices()
    assert len(oracles.stabilizer(mats, x)) == 48
    stab = oracles.stabilizer(mats, x) & oracles.stabilizer(mats, y)
    assert len(stab) == size
    assert oracles.is_subgroup(mats, stab)


def test_is_subgroup():
    mats = c4_matrices()
    assert oracles.is_subgroup(mats, {0, 2})
    assert not oracles.is_subgroup(mats, {0, 1})


def test_directional_fd_matches_closed_form():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(4, 3))
    v = rng.normal(size=(4, 3))

    def f(x):
        return np.sum(np.sin(x)) + np.sum(x * x) ** 2

    exact = np.sum((np.cos(x0) + 4.0 * np.sum(x0 * x0) * x0) * v)
    fd = oracles.directional_fd(f, x0, v, 1e-5)
    assert abs(fd - exact) <= 1e-8 * abs(exact)


def test_transposed_conv_scatters_through_the_kernel():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 4, 4))
    k = rng.normal(size=(3, 5, 3, 3))
    want = np.zeros((2, 5, 8, 8))
    for b, ci, i, j in itertools.product(range(2), range(3), range(4), range(4)):
        for di, dj in itertools.product((-1, 0, 1), repeat=2):
            want[b, :, (2 * i + di) % 8, (2 * j + dj) % 8] += k[ci, :, di + 1, dj + 1] * x[b, ci, i, j]
    assert np.allclose(oracles.transposed_conv(x, k), want, rtol=0, atol=1e-12)


def test_group_upsample_rotates_each_slice():
    rng = np.random.default_rng(3)
    mats = c4_matrices()
    x = rng.normal(size=(1, 2, 4, 3, 3))
    k = rng.normal(size=(3, 2, 3, 3))
    out = oracles.group_upsample(mats, x, k)
    for h, m in enumerate(mats):
        kh = np.rot90(k, h, axes=(2, 3))
        want = oracles.transposed_conv(x[:, :, h], kh.swapaxes(0, 1))
        assert np.allclose(out[:, :, h], want, rtol=0, atol=1e-12)
