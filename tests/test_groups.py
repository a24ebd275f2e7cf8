"""Group construction, action caches, stabilizers, and character tables.

Oracles here re-derive facts directly from the element matrices (matrix
products, brute-force grid comparisons) instead of trusting the cached
tables, so the two routes stay independent.
"""

import numpy as np
import pytest

from rgconv import (
    ConfigError,
    DataError,
    act_on_offset,
    build_action_cache,
    build_group,
    character_table,
    closure,
    compose,
    inverse,
    stabilizer_of_grid,
    transform_grid,
)

from group_features import transform_group_feature

ALL_KINDS = ["cyclic_2d(2)", "cyclic_2d(4)", "octahedral_24", "octahedral_48"]


@pytest.mark.parametrize("kind,order", [
    ("cyclic_2d(2)", 2),
    ("cyclic_2d(4)", 4),
    ("octahedral_24", 24),
    ("octahedral_48", 48),
])
def test_group_orders_and_identity(kind, order):
    G = build_group(kind)
    assert G.order == order and len(G) == order
    assert np.array_equal(G.elements[0].matrix, np.eye(G.dim, dtype=np.int64))
    assert G.names[0] == "e"
    # matrices are signed permutations: one nonzero of magnitude 1 per row/col
    for e in G.elements:
        assert np.array_equal(np.abs(e.matrix).sum(axis=0), np.ones(G.dim))
        assert np.array_equal(np.abs(e.matrix).sum(axis=1), np.ones(G.dim))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cayley_matches_matrix_products(kind):
    G = build_group(kind)
    mats = G.matrices
    lookup = {m.tobytes(): i for i, m in enumerate(mats)}
    for a in range(G.order):
        for b in range(G.order):
            expect = lookup[(mats[a] @ mats[b]).tobytes()]
            assert compose(G, a, b) == expect
    for a in range(G.order):
        assert np.array_equal(
            mats[a] @ mats[inverse(G, a)], np.eye(G.dim, dtype=np.int64)
        )


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_group_axioms(kind):
    G = build_group(kind)
    c = G.cayley
    n = G.order
    assert np.array_equal(c[0], np.arange(n)) and np.array_equal(c[:, 0], np.arange(n))
    assert np.array_equal(c[c], c[:, c])  # associativity, both sides [i,j,k]
    assert sorted(c[np.arange(n), G.inverse]) == [0] * n
    # each row and column is a permutation
    for i in range(n):
        assert sorted(c[i]) == list(range(n))
        assert sorted(c[:, i]) == list(range(n))


def test_remaining_elements_sorted_lexicographically():
    for kind in ALL_KINDS:
        G = build_group(kind)
        keys = [tuple(e.matrix.ravel()) for e in G.elements[1:]]
        assert keys == sorted(keys)


def test_octahedral_element_names_and_actions():
    G = build_group("octahedral_48")
    rz = G.element_id("Rz90")
    assert act_on_offset(G, rz, (1, 0, 0)) == (0, 1, 0)
    assert compose(G, rz, rz) == G.element_id("Rz180")
    assert G.names[inverse(G, rz)] == "Rz270"
    assert act_on_offset(G, G.element_id("reflXY"), (0, 0, 1)) == (0, 0, -1)
    assert act_on_offset(G, G.element_id("inv"), (1, 2, -1)) == (-1, -2, 1)
    assert len(set(G.names)) == 48
    # proper subgroup carries the same names for shared elements
    G24 = build_group("octahedral_24")
    assert set(G24.names) < set(G.names)
    assert all(not n.startswith(("refl", "-", "inv")) for n in G24.names[1:] if n != "e")


def test_act_on_offset_is_a_homomorphism():
    G = build_group("octahedral_24")
    rng = np.random.default_rng(0)
    offs = rng.integers(-3, 4, size=(5, 3))
    for a in [1, 7, 13]:
        for b in [2, 9, 23]:
            ab = compose(G, a, b)
            for off in offs:
                assert act_on_offset(G, ab, off) == act_on_offset(
                    G, a, act_on_offset(G, b, off)
                )


@pytest.mark.parametrize("kind,size", [("cyclic_2d(4)", 3), ("cyclic_2d(4)", 5),
                                       ("octahedral_48", 3), ("octahedral_24", 5)])
def test_action_cache_permutations_compose(kind, size):
    G = build_group(kind)
    cache = build_action_cache(G, size)
    n, vol = G.order, cache.size ** G.dim
    assert np.array_equal(cache.pi[0], np.arange(vol))
    assert np.array_equal(cache.sigma[0], np.arange(n))
    for g in range(n):
        assert sorted(cache.pi[g]) == list(range(vol))
        assert sorted(cache.sigma[g]) == list(range(n))
        assert np.array_equal(cache.pi[g][cache.pi_inv[g]], np.arange(vol))
        assert np.array_equal(cache.sigma[g][cache.sigma_inv[g]], np.arange(n))
    # operator composition: gathering by pi[g] after pi[h] equals pi[gh]
    for g in range(0, n, max(1, n // 7)):
        for h in range(0, n, max(1, n // 5)):
            gh = compose(G, g, h)
            assert np.array_equal(cache.pi[gh], cache.pi[h][cache.pi[g]])
            assert np.array_equal(cache.sigma[gh], cache.sigma[h][cache.sigma[g]])


def test_kernel_transform_matches_offset_oracle():
    # gather semantics: (pi_g k)(o) = k(g^-1 o), checked offset by offset
    G = build_group("octahedral_24")
    S = 3
    cache = build_action_cache(G, S)
    c = (S - 1) // 2
    rng = np.random.default_rng(1)
    k = rng.normal(size=S ** 3)
    for g in [0, 3, 11, 20]:
        kt = k[cache.pi[g]]
        ginv = inverse(G, g)
        for flat in range(S ** 3):
            o = np.array(np.unravel_index(flat, (S,) * 3)) - c
            src = np.array(act_on_offset(G, ginv, o)) + c
            src_flat = int(np.ravel_multi_index(tuple(src), (S,) * 3))
            assert kt[flat] == k[src_flat]


def test_planar_rotation_corner_example():
    # 3x3 kernel, 90 degree rotation: position (1,1) receives value from (-1,1)
    C4 = build_group("cyclic_2d(4)")
    cache = C4.grid_cache(3)
    g = C4.element_id("g")
    corner = np.ravel_multi_index((2, 2), (3, 3))  # offset (1,1)
    source = np.ravel_multi_index((0, 2), (3, 3))  # offset (-1,1)
    assert cache.pi[g][corner] == source


def test_transform_grid_homomorphism_and_identity():
    G = build_group("octahedral_48")
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 5, 5, 5))
    assert np.array_equal(transform_grid(G, 0, x), x)
    for g, h in [(1, 2), (17, 40), (33, 5)]:
        lhs = transform_grid(G, g, transform_grid(G, h, x))
        rhs = transform_grid(G, compose(G, g, h), x)
        assert np.array_equal(lhs, rhs)


def test_transform_group_feature_homomorphism():
    G = build_group("cyclic_2d(4)")
    rng = np.random.default_rng(3)
    f = rng.normal(size=(2, 3, 4, 7, 7))  # [batch, channel, group, y, x]
    assert np.array_equal(transform_group_feature(G, 0, f), f)
    for g, h in [(1, 2), (3, 3), (2, 1)]:
        lhs = transform_group_feature(G, g, transform_group_feature(G, h, f))
        rhs = transform_group_feature(G, compose(G, g, h), f)
        assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("size", [1, 3, 5, 11])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_odd_tables_equal_the_voxel_centred_formula(kind, size):
    # the tables as built before every extent was allowed: offsets about the
    # centre voxel c, rotated, shifted back
    G = build_group(kind)
    d, c = G.dim, (size - 1) // 2
    offsets = np.indices((size,) * d).reshape(d, -1).T - c
    strides = np.array([size ** (d - 1 - k) for k in range(d)], dtype=np.int64)
    pi = np.stack([
        (offsets @ G.elements[int(G.inverse[g])].matrix.T + c) @ strides
        for g in range(G.order)
    ])
    sigma = G.cayley[G.inverse]
    cache = build_action_cache(G, size)
    want = (pi, sigma, np.argsort(pi, axis=1), np.argsort(sigma, axis=1))
    got = (cache.pi, cache.sigma, cache.pi_inv, cache.sigma_inv)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("kind,size", [("cyclic_2d(4)", 4), ("cyclic_2d(4)", 8),
                                       ("octahedral_24", 4), ("octahedral_24", 8),
                                       ("octahedral_48", 4), ("octahedral_48", 8)])
def test_transforms_are_homomorphisms_on_even_grids(kind, size):
    G = build_group(kind)
    rng = np.random.default_rng(size)
    x = rng.normal(size=(2,) + (size,) * G.dim)
    f = rng.normal(size=(2, G.order) + (size,) * G.dim)
    assert np.array_equal(transform_grid(G, 0, x), x)
    assert np.array_equal(transform_group_feature(G, 0, f), f)
    for g in range(G.order):
        for h in range(0, G.order, max(1, G.order // 6)):
            gh = compose(G, g, h)
            assert np.array_equal(
                transform_grid(G, g, transform_grid(G, h, x)), transform_grid(G, gh, x)
            )
            assert np.array_equal(
                transform_group_feature(G, g, transform_group_feature(G, h, f)),
                transform_group_feature(G, gh, f),
            )


def test_stabilizer_of_rectangle_and_square():
    C4 = build_group("cyclic_2d(4)")
    rect = np.zeros((15, 15))
    rect[5:10, 2:13] = 1.0
    stab, ok = stabilizer_of_grid(C4, rect)
    assert ok and {C4.names[i] for i in stab} == {"e", "g2"}

    square = np.zeros((15, 15))
    square[4:11, 4:11] = 1.0
    stab, ok = stabilizer_of_grid(C4, square)
    assert ok and stab == frozenset(range(4))

    blob = np.zeros((15, 15))
    blob[2:13, 6:9] = 1.0
    blob[6:9, 2:9] = 1.0  # one-sided arm kills every rotation
    stab, ok = stabilizer_of_grid(C4, blob)
    assert ok and stab == frozenset({0})


def test_stabilizer_centered_ball_is_whole_octahedral_group():
    G = build_group("octahedral_48")
    idx = np.indices((9, 9, 9)) - 4
    r2 = (idx ** 2).sum(axis=0)
    ball = np.exp(-r2 / 4.0)
    stab, ok = stabilizer_of_grid(G, ball)
    assert ok and len(stab) == 48

    shifted = np.exp(-((idx[0]) ** 2 + idx[1] ** 2 + (idx[2] - 2) ** 2) / 4.0)
    stab, ok = stabilizer_of_grid(G, shifted)
    assert ok and len(stab) == 8  # rotations about z plus mirrors through it
    for g in stab:
        assert act_on_offset(G, g, (0, 0, 1)) == (0, 0, 1)


def test_stabilizer_tolerance_boundary():
    C4 = build_group("cyclic_2d(4)")
    img = np.zeros((5, 5))
    img[0, 0] = 1.0
    img[0, 4] = 1.0 + 5e-10  # within default tolerance of the rotated copy
    img[4, 4] = 1.0
    img[4, 0] = 1.0
    stab, ok = stabilizer_of_grid(C4, img)
    assert stab == frozenset(range(4))
    stab, _ = stabilizer_of_grid(C4, img, tol=1e-12)
    assert stab != frozenset(range(4))


@pytest.mark.parametrize("kind,shape,at,bad", [
    ("cyclic_2d(4)", (9, 9), (3, 5), np.nan),
    ("octahedral_24", (2, 5, 5, 5), (1, 0, 4, 2), -np.inf),
])
def test_stabilizer_of_non_finite_grid_is_a_data_error(kind, shape, at, bad):
    grid = np.ones(shape)
    grid[at] = bad
    grid[-1, -1] = np.nan  # a later entry; the first one is named
    with pytest.raises(DataError, match=rf"{bad} at index \({', '.join(map(str, at))}\)"):
        stabilizer_of_grid(build_group(kind), grid)


def test_closure():
    C4 = build_group("cyclic_2d(4)")
    g = C4.element_id("g")
    full, was_closed = closure(C4, {g})
    assert full == frozenset(range(4)) and not was_closed
    sub, was_closed = closure(C4, {0, C4.element_id("g2")})
    assert sub == frozenset({0, C4.element_id("g2")}) and was_closed

    G = build_group("octahedral_24")
    four, _ = closure(G, {G.element_id("Rz90")})
    assert len(four) == 4
    alls, _ = closure(G, {G.element_id("Rz90"), G.element_id("Rx90")})
    assert len(alls) == 24


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_character_table_orthogonality_and_dimensions(kind):
    G = build_group(kind)
    tab = character_table(G)
    n = G.order
    assert sum(ir.dim ** 2 for ir in tab.irreps) == n
    assert int(tab.class_sizes.sum()) == n
    sizes = tab.class_sizes.astype(float)
    for i, a in enumerate(tab.irreps):
        for j, b in enumerate(tab.irreps):
            inner = np.sum(sizes * a.chi * np.conj(b.chi)) / n
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-12
    # character of the identity class equals the irrep dimension
    for ir in tab.irreps:
        assert abs(ir.chi[tab.class_of[0]] - ir.dim) < 1e-12


def test_character_values_match_matrix_traces():
    # the vector irrep of the rotation group is realized by the matrices
    G = build_group("octahedral_24")
    tab = character_table(G)
    t1 = next(ir for ir in tab.irreps if ir.name == "T1")
    for e in G.elements:
        assert abs(t1.chi[tab.class_of[e.id]] - np.trace(e.matrix)) < 1e-12
    # and for the full group the polar-vector irrep T1u does the same
    G48 = build_group("octahedral_48")
    tab48 = character_table(G48)
    t1u = next(ir for ir in tab48.irreps if ir.name == "T1u")
    for e in G48.elements:
        assert abs(t1u.chi[tab48.class_of[e.id]] - np.trace(e.matrix)) < 1e-12


def test_octahedral_class_sizes():
    tab = character_table(build_group("octahedral_24"))
    assert sorted(tab.class_sizes.tolist()) == [1, 3, 6, 6, 8]
    tab48 = character_table(build_group("octahedral_48"))
    assert sorted(tab48.class_sizes.tolist()) == [1, 1, 3, 3, 6, 6, 6, 6, 8, 8]
    assert len(tab48.irreps) == 10


def test_cyclic4_table_values():
    C4 = build_group("cyclic_2d(4)")
    tab = character_table(C4)
    names = [ir.name for ir in tab.irreps]
    assert names == ["trivial", "freq1", "sign", "freq3"]
    chi = {ir.name: ir.chi for ir in tab.irreps}
    assert np.allclose(chi["trivial"], [1, 1, 1, 1])
    assert np.allclose(chi["freq1"], [1, 1j, -1, -1j])
    assert np.allclose(chi["sign"], [1, -1, 1, -1])
    assert np.allclose(chi["freq3"], [1, -1j, -1, 1j])
    # class order is by rotation power: e, g, g2, g3
    assert tab.class_of[C4.element_id("e")] == 0
    assert tab.class_of[C4.element_id("g")] == 1
    assert tab.class_of[C4.element_id("g2")] == 2
    assert tab.class_of[C4.element_id("g3")] == 3


def test_build_errors():
    with pytest.raises(ConfigError):
        build_group("icosahedral_60")
    with pytest.raises(ConfigError):
        build_group("cyclic_2d(3)")
    with pytest.raises(ConfigError):
        build_action_cache(build_group("cyclic_2d(4)"), 0)
    with pytest.raises(IndexError):
        compose(build_group("cyclic_2d(4)"), 0, 7)

