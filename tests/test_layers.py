"""Layer semantics: equivariance at unit weights, reductions, factored forms."""

import numpy as np
import pytest

from rgconv.autodiff import (
    Tensor,
    backward,
    finite_diff_grad,
    mul,
    no_grad,
    relu,
    sum_,
    tensor,
    zero_grads,
)
from rgconv import convops
from rgconv.convops import conv_nd, conv_transpose_nd
from rgconv.errors import ConfigError, ShapeError
from rgconv.groups import build_group, transform_grid
from rgconv.layers import (
    ConvLayer,
    ConvTransposeLayer,
    GroupUpsampleConv,
    LiftingLayer,
    RelaxedGConvLayer,
    SeparableRelaxedGConvLayer,
    group_pool,
)

from group_features import transform_group_feature

C4 = build_group("cyclic_2d(4)")
O24 = build_group("octahedral_24")
O48 = build_group("octahedral_48")


def lifted_equivariance_error(layer, G, x):
    with no_grad():
        y = layer(tensor(x)).data
        errs = []
        for g in range(G.order):
            yt = layer(tensor(transform_grid(G, g, x))).data
            expect = transform_group_feature(G, g, y)
            errs.append(float(np.max(np.abs(yt - expect))))
    return max(errs)


def gfeature_equivariance_error(layer, G, f):
    with no_grad():
        y = layer(tensor(f)).data
        errs = []
        for g in range(G.order):
            yt = layer(tensor(transform_group_feature(G, g, f))).data
            expect = transform_group_feature(G, g, y)
            errs.append(float(np.max(np.abs(yt - expect))))
    return max(errs)


def test_lifting_delta_input_stamps_rotated_kernels():
    layer = LiftingLayer(C4, 1, 1, banks=1, kernel_size=3)
    layer.init(np.random.default_rng(0))
    k = np.arange(9.0).reshape(3, 3)  # asymmetric stamp
    layer.kernels.data[0, 0, 0] = k.ravel()
    x = np.zeros((1, 1, 7, 7))
    x[0, 0, 3, 3] = 1.0
    with no_grad():
        out = layer(tensor(x)).data[0, 0]  # [|H|, 7, 7]
    cache = C4.grid_cache(3)
    for h in range(4):
        # correlation with a centered delta paints the kernel mirrored about
        # the center; the stamp for element h is the pi_h-rotated kernel
        stamp = out[h, 2:5, 2:5]
        rotated = k.ravel()[cache.pi[h]].reshape(3, 3)
        assert np.array_equal(stamp, rotated[::-1, ::-1])
        outside = out[h].copy()
        outside[2:5, 2:5] = 0
        assert np.all(outside == 0)


@pytest.mark.parametrize("G,shape", [(C4, (2, 2, 9, 9)), (O48, (1, 2, 5, 5, 5))])
def test_lifting_equivariance_at_unit_weights(G, shape):
    rng = np.random.default_rng(0)
    layer = LiftingLayer(G, shape[1], 3, banks=2, kernel_size=3)
    layer.init(np.random.default_rng(1))
    x = rng.normal(size=shape)
    assert lifted_equivariance_error(layer, G, x) < 1e-10


@pytest.mark.parametrize("G,spatial", [(C4, (9, 9)), (O24, (5, 5, 5))])
def test_gconv_equivariance_at_unit_weights(G, spatial):
    rng = np.random.default_rng(1)
    layer = RelaxedGConvLayer(G, 2, 2, banks=2, kernel_size=3, relaxed=False)
    layer.init(np.random.default_rng(2))
    f = rng.normal(size=(1, 2, G.order) + spatial)
    assert gfeature_equivariance_error(layer, G, f) < 1e-10


@pytest.mark.parametrize("G,spatial", [(C4, (9, 9)), (O48, (5, 5, 5))])
def test_separable_equivariance_at_unit_weights(G, spatial):
    rng = np.random.default_rng(2)
    layer = SeparableRelaxedGConvLayer(G, 2, 3, banks=2, kernel_size=3)
    layer.init(np.random.default_rng(3))
    f = rng.normal(size=(1, 2, G.order) + spatial)
    assert gfeature_equivariance_error(layer, G, f) < 1e-10


def test_nonuniform_weights_break_equivariance():
    rng = np.random.default_rng(3)
    layer = RelaxedGConvLayer(C4, 2, 2, banks=2, kernel_size=3, relaxed=True)
    layer.init(np.random.default_rng(4))
    layer.w.data[...] = rng.normal(loc=1.0, scale=0.5, size=layer.w.shape)
    f = rng.normal(size=(1, 2, 4, 9, 9))
    assert gfeature_equivariance_error(layer, C4, f) > 1e-3


def test_relaxed_flag_does_not_change_values_at_unit_weights():
    rng = np.random.default_rng(4)
    frozen = RelaxedGConvLayer(O24, 2, 2, banks=2, relaxed=False)
    relaxed = RelaxedGConvLayer(O24, 2, 2, banks=2, relaxed=True)
    frozen.init(np.random.default_rng(5))
    relaxed.init(np.random.default_rng(5))
    assert np.array_equal(frozen.kernels.data, relaxed.kernels.data)
    f = rng.normal(size=(1, 2, 24, 5, 5, 5))
    with no_grad():
        a = frozen(tensor(f)).data
        b = relaxed(tensor(f)).data
    assert np.array_equal(a, b)  # bitwise: same code path, same numbers
    assert frozen.params() == [frozen.kernels]
    assert relaxed.params() == [relaxed.kernels, relaxed.w]


def test_separable_matches_full_kernel_outer_product():
    rng = np.random.default_rng(5)
    sep = SeparableRelaxedGConvLayer(C4, 2, 3, banks=2, kernel_size=3)
    sep.init(np.random.default_rng(6))
    sep.w.data[...] = rng.normal(1.0, 0.3, size=sep.w.shape)

    full = RelaxedGConvLayer(C4, 2, 3, banks=2, kernel_size=3)
    full.kernels.data[...] = (  # the rank-1 kernels, [L, Co, Ci, |H|, S^d]
        sep.psi_o.data[..., None] * sep.psi_t.data[:, None, None, None, :]
    )
    full.w.data[...] = sep.w.data

    f = rng.normal(size=(2, 2, 4, 7, 7))
    with no_grad():
        a = sep(tensor(f)).data
        b = full(tensor(f)).data
    assert np.allclose(a, b, atol=1e-12)


def test_separable_parameter_reduction():
    full = RelaxedGConvLayer(O24, 4, 4, banks=2, kernel_size=3)
    sep = SeparableRelaxedGConvLayer(O24, 4, 4, banks=2, kernel_size=3)
    n_full = sum(p.size for p in full.params())
    n_sep = sum(p.size for p in sep.params())
    L, Co, Ci, H, K = 2, 4, 4, 24, 27
    assert n_full == L * Co * Ci * H * K + L * H  # kernels + relaxed weights
    assert n_sep == L * (Co * Ci * H + K) + L * H
    assert n_sep < n_full / 20


def test_init_determinism_and_unit_weights():
    a = LiftingLayer(O48, 2, 3, banks=2)
    b = LiftingLayer(O48, 2, 3, banks=2)
    a.init(np.random.default_rng(123))
    b.init(np.random.default_rng(123))
    assert np.array_equal(a.kernels.data, b.kernels.data)
    assert np.all(a.w.data == 1.0)
    bound = 1.0 / np.sqrt(2 * 27)
    assert np.max(np.abs(a.kernels.data)) <= bound
    c = LiftingLayer(O48, 2, 3, banks=2)
    c.init(np.random.default_rng(124))
    assert not np.array_equal(a.kernels.data, c.kernels.data)


def grad_check_layer(layer, x, params, atol=1e-7):
    w = tensor(np.random.default_rng(99).normal(size=layer(tensor(x)).shape))

    def f():
        return sum_(mul(layer(tensor(x)), w))

    for p in params:
        zero_grads([p])
        backward(f(), params=[p])
        numeric = finite_diff_grad(f, p)
        assert np.allclose(p.grad, numeric, atol=atol, rtol=1e-4), (
            f"{type(layer).__name__} grad mismatch "
            f"{np.max(np.abs(p.grad - numeric))}"
        )


def test_lifting_gradients():
    rng = np.random.default_rng(7)
    layer = LiftingLayer(C4, 1, 2, banks=2, kernel_size=3, relaxed=True)
    layer.init(np.random.default_rng(8))
    x = rng.normal(size=(1, 1, 5, 5))
    grad_check_layer(layer, x, [layer.kernels, layer.w])


def test_gconv_gradients():
    rng = np.random.default_rng(8)
    layer = RelaxedGConvLayer(C4, 1, 1, banks=2, kernel_size=3, relaxed=True)
    layer.init(np.random.default_rng(9))
    f = rng.normal(size=(1, 1, 4, 5, 5))
    grad_check_layer(layer, f, [layer.kernels, layer.w])


@pytest.mark.parametrize("G,spatial", [(C4, (5, 6)), (O24, (4, 3, 5)), (O48, (3, 4, 3))])
@pytest.mark.parametrize("banks", [1, 2])
def test_pooled_gconv_equals_group_pool_of_the_layer(G, spatial, banks):
    # the pooled head folds w and the group mean into one kernel; the
    # unpooled layer then group_pool is the reference, forward and backward
    rng = np.random.default_rng(20)
    plain = RelaxedGConvLayer(G, 2, 3, banks=banks, kernel_size=3)
    plain.init(np.random.default_rng(21))
    plain.w.data[...] = rng.uniform(0.5, 1.5, size=plain.w.shape)
    pooled = RelaxedGConvLayer(G, 2, 3, banks=banks, kernel_size=3, pool=True)
    pooled.kernels.data[...] = plain.kernels.data
    pooled.w.data[...] = plain.w.data
    f = rng.normal(size=(2, 2, G.order) + spatial)
    r = tensor(rng.normal(size=(2, 3) + spatial))
    results = []
    for layer, head in ((plain, group_pool), (pooled, lambda y: y)):
        x = Tensor(f.copy(), requires_grad=True)
        ps = [layer.kernels, layer.w, x]
        zero_grads(ps)
        y = head(layer(x))
        backward(sum_(mul(y, r)), params=ps)
        results.append([y.data] + [p.grad for p in ps])
    for want, got in zip(*results):
        assert want.shape == got.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def banked_definition(layer, x, kernels, w):
    """``y_h = sum_l w[l, h] conv(x, pi_h K_l)``, one bank and one group
    element at a time, with each transformed kernel gathered by plain
    indexing (jointly over the input group axis for the full layer); the
    group mean of it for a pooled layer."""
    cache, H, d = layer.cache, layer.group.order, layer.dim
    B, D = x.shape[0], x.shape[-d:]
    lifting = isinstance(layer, LiftingLayer)
    xf = tensor(x if lifting else x.reshape((B, -1) + D))
    y = np.zeros((B, layer.out_channels, H) + D)
    for l, k in enumerate(kernels):
        for h in range(H):
            kh = k[..., cache.pi[h]] if lifting else k[:, :, cache.sigma[h]][..., cache.pi[h]]
            kh = kh.reshape((layer.out_channels, -1) + (layer.kernel_size,) * d)
            with no_grad():
                y[:, :, h] += w[l, h] * conv_nd(xf, tensor(kh)).data
    return y.mean(axis=2) if getattr(layer, "pool", False) else y


def basis_grad(f, a, r):
    """``d sum(f(a) r) / da`` for ``f`` linear in ``a``: exact, one basis
    vector at a time."""
    g = np.zeros_like(a)
    for i in np.ndindex(a.shape):
        e = np.zeros_like(a)
        e[i] = 1.0
        g[i] = np.sum(f(e) * r)
    return g


@pytest.mark.parametrize("kind,ops", [
    ("lifting", ["transform_group_kernel", "reshape", "conv_nd", "reshape"]),
    ("full", ["reshape", "reshape", "transform_group_kernel", "reshape", "conv_nd",
              "reshape"]),
    ("pooled", ["reshape", "reshape", "transform_group_kernel", "mean", "reshape",
                "conv_nd"]),
], ids=["lifting", "full", "pooled"])
def test_group_layers_match_the_banked_definition(kind, ops):
    # two banks and non-unit weights: the layer folds w and the bank sum
    # into one kernel and runs one conv; forward and every gradient match
    # the definition bank by bank
    rng = np.random.default_rng(30)
    if kind == "lifting":
        layer = LiftingLayer(C4, 2, 2, banks=2, relaxed=True)
        x = rng.normal(size=(2, 2, 4, 5))
    else:
        layer = RelaxedGConvLayer(C4, 2, 2, banks=2, pool=kind == "pooled")
        x = rng.normal(size=(2, 2, 4, 4, 5))
    layer.init(np.random.default_rng(31))
    layer.w.data[...] = rng.uniform(0.5, 1.5, size=layer.w.shape)
    k, w = layer.kernels.data.copy(), layer.w.data.copy()
    xt = Tensor(x.copy(), requires_grad=True)
    ps = [layer.kernels, layer.w, xt]
    zero_grads(ps)
    y = layer(xt)
    assert [node.op for node in y.node.tape.nodes] == ops
    r = rng.normal(size=y.shape)
    backward(sum_(mul(y, tensor(r))), params=ps)
    linear_in = [
        lambda e: banked_definition(layer, x, e, w),
        lambda e: banked_definition(layer, x, k, e),
        lambda e: banked_definition(layer, e, k, w),
    ]
    want = banked_definition(layer, x, k, w)
    pairs = [(y.data, want)] + [
        (p.grad, basis_grad(f, p.data, r)) for p, f in zip(ps, linear_in)
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_separable_gradients():
    rng = np.random.default_rng(9)
    layer = SeparableRelaxedGConvLayer(C4, 2, 2, banks=2, kernel_size=3)
    layer.init(np.random.default_rng(10))
    f = rng.normal(size=(1, 2, 4, 5, 5))
    grad_check_layer(layer, f, [layer.psi_o, layer.psi_t, layer.w])


def test_group_upsample_shapes_and_slice_consistency():
    rng = np.random.default_rng(10)
    for S in (3, 5):
        up = GroupUpsampleConv(C4, 2, 3, kernel_size=S)
        up.init(np.random.default_rng(11))
        f = rng.normal(size=(2, 2, 4, 5, 5))
        with no_grad():
            y = up(tensor(f)).data
        assert y.shape == (2, 3, 4, 10, 10)
        # slice h equals a plain transposed conv with the pi_h-rotated kernel
        cache = C4.grid_cache(S)
        for h in range(4):
            k_rot = up.kernel.data[:, :, cache.pi[h]].reshape(3, 2, S, S)
            with no_grad():
                ref = conv_transpose_nd(
                    tensor(f[:, :, h]), tensor(k_rot.transpose(1, 0, 2, 3))
                ).data
            assert np.allclose(y[:, :, h], ref, atol=1e-12)


def test_group_upsample_gradients():
    rng = np.random.default_rng(11)
    up = GroupUpsampleConv(C4, 1, 1, kernel_size=3)
    up.init(np.random.default_rng(12))
    f = rng.normal(size=(1, 1, 4, 3, 3))
    grad_check_layer(up, f, [up.kernel])


def _pooled_and_composed(G, S, dtype, f, C_out=2):
    """The fused head ``GroupUpsampleConv(pool=True)`` and the composition it
    replaces, ``group_pool(relu(GroupUpsampleConv(x)))``, on one kernel."""
    fused = GroupUpsampleConv(G, f.shape[1], C_out, kernel_size=S, pool=True, dtype=dtype)
    fused.init(np.random.default_rng(31))
    plain = GroupUpsampleConv(G, f.shape[1], C_out, kernel_size=S, dtype=dtype)
    plain.kernel.data[...] = fused.kernel.data
    return (fused, lambda y: y), (plain, lambda y: group_pool(relu(y)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("S", [3, 5])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("G,spatial,C_out,tiled", [
    pytest.param(C4, (5, 6), 2, False, id="G0-spatial0"),
    pytest.param(O24, (5, 4, 5), 2, False, id="G1-spatial1"),
    # the fused head under a CACHE_BYTES cut to the fewest tiles, from 3,
    # of which the last is ragged (fewer output planes than the first).
    # With an odd C_out in 2D a row holds 12 mask bits, so some tile's bits
    # end off a byte boundary
    pytest.param(C4, (5, 7), 3, True, id="C4-odd-C_out-row-tiles"),
    pytest.param(O24, (5, 4, 3), 2, True, id="O24-row-tiles"),
])
def test_pooled_upsample_matches_composition(monkeypatch, G, spatial, C_out, tiled, B, S, dtype):
    rng = np.random.default_rng(30)
    f = rng.normal(size=(B, 3, G.order) + spatial).astype(dtype)
    r = tensor(rng.normal(size=(B, C_out) + tuple(2 * n for n in spatial)).astype(dtype))
    k = np.zeros((G.order * C_out, 3) + (S,) * len(spatial), dtype)

    def plan(count):
        # CACHE_BYTES for a budget of 1 / count of the batch's rows (a tile
        # takes 4 // |H| budgets at fewer than 4 elements)
        sp = convops._Subpixel(f.reshape(B, -1, *spatial), k, G.order)
        K, N = sp.w.shape[1:]
        rows = -(-B * spatial[0] * sp.Pp // count)
        cache = rows * (K + 2 * N) * k.itemsize // max(1, 4 // G.order)
        monkeypatch.setattr(convops, "CACHE_BYTES", cache)
        return convops._Subpixel(f.reshape(B, -1, *spatial), k, G.order).plan

    def planes(tile):
        return sum(n * (z1 - z0) for _, n, z0, z1, _ in tile.pieces)

    results = []
    for (layer, head), fused in zip(_pooled_and_composed(G, S, dtype, f, C_out), (True, False)):
        if tiled and fused:
            tiles = next(t for c in range(3, 9) if planes((t := plan(c))[-1]) < planes(t[0]))
            assert len(tiles) >= 3
            if C_out % 2 and len(spatial) == 2:
                assert any(t.m * C_out * 4 % 8 for t in tiles)
        else:
            monkeypatch.undo()
        x = Tensor(f.copy(), requires_grad=True)
        zero_grads([x, layer.kernel])
        y = head(layer(x))
        backward(sum_(mul(y, r)), params=[x, layer.kernel])
        results.append((y.data, x.grad, layer.kernel.grad))
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    for got, want in zip(*results):
        assert got.shape == want.shape and got.dtype == want.dtype == dtype
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))
    assert results[0][0].shape == (B, C_out) + tuple(2 * n for n in spatial)


def test_pooled_upsample_no_grad_records_nothing(monkeypatch):
    import rgconv.autodiff
    import rgconv.convops

    f = np.random.default_rng(32).normal(size=(2, 3, 24, 4, 4, 4))
    (fused, _), (plain, head) = _pooled_and_composed(O24, 3, np.float64, f)
    kept = []
    stuffed_fwd = rgconv.convops._stuffed_fwd

    def spy(*args):
        y, masks = stuffed_fwd(*args)
        kept.append(masks)
        return y, masks

    monkeypatch.setattr(rgconv.convops, "_stuffed_fwd", spy)
    x = Tensor(f, requires_grad=True)
    with no_grad():
        got, want = fused(x), head(plain(x))
    assert got.node is None and rgconv.autodiff._ACTIVE_TAPE is None
    assert kept[0] is None  # no ReLU masks held
    assert np.array_equal(got.data, want.data)
    # with the tape live it keeps the masks, under one byte per entry of y
    y = fused(x)
    assert y.node is not None and kept[-1].nbytes < got.size * O24.order
    backward(sum_(y))


def test_pooled_upsample_nan_input_gives_nan():
    f = np.random.default_rng(33).normal(size=(1, 3, 4, 5, 5))
    f[0, 1, 2, 3, 1] = np.nan
    (fused, _), (plain, head) = _pooled_and_composed(C4, 3, np.float64, f)
    with no_grad():
        got, want = fused(tensor(f)).data, head(plain(tensor(f))).data
    assert np.isnan(want).any()
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got, want, equal_nan=True)


def test_group_pool_commutes_with_group_action():
    rng = np.random.default_rng(12)
    f = rng.normal(size=(2, 3, 24, 5, 5, 5))
    with no_grad():
        pooled = group_pool(tensor(f)).data
    for g in [1, 7, 20]:
        with no_grad():
            lhs = group_pool(tensor(transform_group_feature(O24, g, f))).data
        rhs = transform_grid(O24, g, pooled)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_plain_conv_layers():
    rng = np.random.default_rng(13)
    conv = ConvLayer(2, 3, 4)
    conv.init(np.random.default_rng(14))
    x = rng.normal(size=(2, 3, 6, 6))
    with no_grad():
        assert conv(tensor(x)).shape == (2, 4, 6, 6)
    upc = ConvTransposeLayer(3, 2, 3)
    upc.init(np.random.default_rng(15))
    x3 = rng.normal(size=(1, 2, 4, 4, 4))
    with no_grad():
        assert upc(tensor(x3)).shape == (1, 3, 8, 8, 8)


def test_layer_construction_errors():
    with pytest.raises(ConfigError):
        LiftingLayer(C4, 0, 2)
    with pytest.raises(ConfigError):
        LiftingLayer(C4, 1, 2, kernel_size=4)
    with pytest.raises(ConfigError):
        RelaxedGConvLayer(C4, 1, 2, banks=0)
    with pytest.raises(ConfigError):
        ConvLayer(4, 1, 2)  # only 2D and 3D grids
    with pytest.raises(ConfigError):
        ConvLayer(2, 1, 2, relaxed=True)  # plain layers carry no relaxed weights
    with pytest.raises(ConfigError):
        GroupUpsampleConv(C4, 1, 2, banks=2)
    layer = RelaxedGConvLayer(C4, 2, 2)
    with pytest.raises(ShapeError):
        layer(tensor(np.zeros((1, 2, 3, 9, 9))))  # wrong group axis
    with pytest.raises(ShapeError):
        LiftingLayer(C4, 2, 2)(tensor(np.zeros((1, 3, 9, 9))))
    with pytest.raises(ShapeError):
        group_pool(tensor(np.zeros((4, 9, 9))))
