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
from rgconv.convops import conv_transpose_nd
from rgconv.errors import ConfigError, ShapeError
from rgconv.groups import build_group, transform_grid, transform_group_feature
from rgconv.layers import (
    ConvLayer,
    ConvTransposeLayer,
    GroupUpsampleConv,
    LiftingLayer,
    RelaxedGConvLayer,
    SeparableRelaxedGConvLayer,
    group_pool,
)

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
    full.kernels.data[...] = sep.full_kernels()
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
