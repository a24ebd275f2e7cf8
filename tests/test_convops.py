"""Convolution and gather primitives against brute-force reference loops."""

import numpy as np
import pytest

from rgconv.autodiff import (
    Tensor,
    backward,
    finite_diff_grad,
    mul,
    parameter,
    sum_,
    tensor,
    zero_grads,
)
from rgconv.convops import (
    conv_nd,
    conv_transpose_nd,
    stuffed_conv_nd,
    take_last,
    transform_group_kernel,
    upsample_linear,
    zero_stuff,
)
from rgconv.errors import ShapeError
from rgconv.groups import build_group


def conv_ref(x, k, padding):
    """Direct sextuple-loop cross-correlation; the independent oracle."""
    B, Ci = x.shape[:2]
    Co = k.shape[0]
    D = x.shape[2:]
    S = k.shape[2]
    h = (S - 1) // 2
    d = len(D)
    out = np.zeros((B, Co) + D)
    for b in range(B):
        for co in range(Co):
            for pos in np.ndindex(*D):
                acc = 0.0
                for ci in range(Ci):
                    for off in np.ndindex(*(S,) * d):
                        src = [pos[i] + off[i] - h for i in range(d)]
                        if padding == "circular":
                            src = [s % D[i] for i, s in enumerate(src)]
                        elif any(not 0 <= s < D[i] for i, s in enumerate(src)):
                            continue
                        acc += k[(co, ci) + tuple(off)] * x[(b, ci) + tuple(src)]
                out[(b, co) + pos] = acc
    return out


def check_grad(make_loss, theta, atol=1e-8, rtol=1e-5):
    zero_grads([theta])
    backward(make_loss(), params=[theta])
    numeric = finite_diff_grad(make_loss, theta)
    assert np.allclose(theta.grad, numeric, atol=atol, rtol=rtol)


@pytest.mark.parametrize("padding", ["circular", "zero"])
def test_conv2d_matches_reference(padding):
    rng = np.random.default_rng(0)
    x = tensor(rng.normal(size=(2, 2, 5, 5)))
    k = tensor(rng.normal(size=(3, 2, 3, 3)))
    out = conv_nd(x, k, padding=padding)
    assert out.shape == (2, 3, 5, 5)
    assert np.allclose(out.data, conv_ref(x.data, k.data, padding), atol=1e-12)


@pytest.mark.parametrize("padding", ["circular", "zero"])
def test_conv3d_matches_reference(padding):
    rng = np.random.default_rng(1)
    x = tensor(rng.normal(size=(1, 2, 4, 4, 4)))
    k = tensor(rng.normal(size=(2, 2, 3, 3, 3)))
    out = conv_nd(x, k, padding=padding)
    assert np.allclose(out.data, conv_ref(x.data, k.data, padding), atol=1e-12)


def test_conv_delta_kernel_is_identity():
    rng = np.random.default_rng(2)
    x = tensor(rng.normal(size=(1, 1, 7, 7)))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    out = conv_nd(x, tensor(k))
    assert np.array_equal(out.data, x.data)
    # an off-center delta shifts the (circular) image
    k2 = np.zeros((1, 1, 3, 3))
    k2[0, 0, 1, 2] = 1.0  # offset (0, +1): out(x) = in(x + e1)
    out2 = conv_nd(x, tensor(k2))
    assert np.array_equal(out2.data, np.roll(x.data, -1, axis=3))


def test_circular_conv_translation_equivariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 6, 6))
    k = tensor(rng.normal(size=(2, 2, 3, 3)))
    rolled = conv_nd(tensor(np.roll(x, (2, 1), axis=(2, 3))), k).data
    base = conv_nd(tensor(x), k).data
    assert np.allclose(rolled, np.roll(base, (2, 1), axis=(2, 3)), atol=1e-12)


def test_grouped_conv_matches_per_group_reference():
    rng = np.random.default_rng(4)
    G, Ci, Co = 3, 2, 2
    x = rng.normal(size=(2, G * Ci, 5, 5))
    k = rng.normal(size=(G * Co, Ci, 3, 3))
    out = conv_nd(tensor(x), tensor(k), groups=G).data
    for g in range(G):
        ref = conv_ref(
            x[:, g * Ci : (g + 1) * Ci], k[g * Co : (g + 1) * Co], "circular"
        )
        assert np.allclose(out[:, g * Co : (g + 1) * Co], ref, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("padding", ["circular", "zero"])
@pytest.mark.parametrize("S", [3, 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_depthwise_conv_matches_per_group_reference(d, padding, S, dtype):
    # one input and one output channel per group: the broadcast path
    rng = np.random.default_rng(15)
    G = 3
    x = rng.normal(size=(2, G) + (5, 6, 5)[:d]).astype(dtype)
    k = rng.normal(size=(G, 1) + (S,) * d).astype(dtype)
    out = conv_nd(tensor(x), tensor(k), padding=padding, groups=G)
    assert out.shape == x.shape and out.dtype == dtype
    tol = dict(rtol=1e-5, atol=1e-4) if dtype == np.float32 else dict(atol=1e-12)
    for g in range(G):
        ref = conv_ref(x[:, g : g + 1], k[g : g + 1], padding)
        assert np.allclose(out.data[:, g : g + 1], ref, **tol)


@pytest.mark.parametrize("xshape,S", [((2, 3, 5, 6), 5), ((2, 3, 4, 5, 3), 3)])
@pytest.mark.parametrize("padding", ["circular", "zero"])
def test_depthwise_conv_gradients(xshape, S, padding):
    rng = np.random.default_rng(16)
    G, d = xshape[1], len(xshape) - 2
    x = parameter(rng.normal(size=xshape))
    k = parameter(rng.normal(size=(G, 1) + (S,) * d))
    w = tensor(rng.normal(size=xshape))
    check_grad(lambda: sum_(mul(conv_nd(x, k, padding=padding, groups=G), w)), x)
    check_grad(lambda: sum_(mul(conv_nd(x, k, padding=padding, groups=G), w)), k)


@pytest.mark.parametrize("padding", ["circular", "zero"])
def test_conv_gradients(padding):
    rng = np.random.default_rng(5)
    x = parameter(rng.normal(size=(2, 2, 4, 4)))
    k = parameter(rng.normal(size=(2, 2, 3, 3)))
    w = tensor(rng.normal(size=(2, 2, 4, 4)))
    check_grad(lambda: sum_(mul(conv_nd(x, k, padding=padding), w)), x)
    check_grad(lambda: sum_(mul(conv_nd(x, k, padding=padding), w)), k)


def test_conv3d_grouped_gradients():
    rng = np.random.default_rng(6)
    x = parameter(rng.normal(size=(1, 4, 3, 3, 3)))
    k = parameter(rng.normal(size=(4, 2, 3, 3, 3)))
    w = tensor(rng.normal(size=(1, 4, 3, 3, 3)))
    check_grad(lambda: sum_(mul(conv_nd(x, k, groups=2), w)), x)
    check_grad(lambda: sum_(mul(conv_nd(x, k, groups=2), w)), k)


def test_conv_shape_errors():
    x = tensor(np.zeros((1, 2, 5, 5)))
    with pytest.raises(ShapeError):
        conv_nd(x, tensor(np.zeros((2, 3, 3, 3))))  # channel mismatch
    with pytest.raises(ShapeError):
        conv_nd(x, tensor(np.zeros((2, 2, 4, 4))))  # even kernel
    with pytest.raises(ShapeError):
        conv_nd(x, tensor(np.zeros((2, 2, 3, 5))))  # non-square kernel
    with pytest.raises(ShapeError):
        conv_nd(tensor(np.zeros((1, 2, 2, 2))), tensor(np.zeros((2, 2, 3, 3))))
    with pytest.raises(ShapeError):
        conv_nd(x, tensor(np.zeros((3, 2, 3, 3))), groups=2)


def test_zero_stuff_placement():
    x = tensor(np.arange(4.0).reshape(1, 1, 2, 2))
    out = zero_stuff(x, 2)
    assert out.shape == (1, 1, 4, 4)
    expect = np.zeros((4, 4))
    expect[::2, ::2] = x.data[0, 0]
    assert np.array_equal(out.data[0, 0], expect)
    assert out.data.sum() == x.data.sum()


def test_stuffed_conv_matches_composition():
    rng = np.random.default_rng(12)
    cases = [
        ((2, 3, 4, 5), (2, 3, 3, 3), 1, np.float64),
        ((1, 4, 3, 4), (6, 2, 3, 3), 2, np.float64),
        ((2, 2, 3, 4, 3), (4, 2, 3, 3, 3), 1, np.float64),
        ((1, 6, 3, 3, 3), (3, 2, 3, 3, 3), 3, np.float64),
        # extent-2 axes, where half the voxels read the wrapped halo
        ((2, 3, 2, 5), (2, 3, 3, 3), 1, np.float64),
        ((1, 4, 2, 3, 2), (4, 2, 3, 3, 3), 2, np.float64),
        ((2, 8, 4, 3, 5), (8, 4, 3, 3, 3), 2, np.float32),
    ]
    for xshape, kshape, groups, dtype in cases:
        x = tensor(rng.normal(size=xshape).astype(dtype))
        k = tensor(rng.normal(size=kshape).astype(dtype))
        fast = stuffed_conv_nd(x, k, groups=groups)
        ref = conv_nd(zero_stuff(x, 2), k, groups=groups)
        assert fast.shape == ref.shape and fast.dtype == dtype
        atol = 1e-5 if dtype == np.float32 else 1e-12
        assert np.allclose(fast.data, ref.data, atol=atol)


def test_stuffed_conv_rejects_extent_one_like_composition():
    # a stuffed extent of 2 is below the stencil extent 3 on both routes
    x = tensor(np.ones((1, 2, 1, 4)))
    k = tensor(np.ones((2, 2, 3, 3)))
    with pytest.raises(ShapeError):
        stuffed_conv_nd(x, k)
    with pytest.raises(ShapeError):
        conv_nd(zero_stuff(x, 2), k)


def test_stuffed_conv_gradients_match_composition():
    rng = np.random.default_rng(13)
    cases = [
        ((1, 4, 3, 4, 3), np.float64),
        ((1, 4, 2, 3, 2), np.float64),  # extent 2
        ((2, 4, 3, 2, 4), np.float32),
    ]
    for xshape, dtype in cases:
        x = parameter(rng.normal(size=xshape).astype(dtype))
        k = parameter(rng.normal(size=(4, 2, 3, 3, 3)).astype(dtype))
        wshape = xshape[:2] + tuple(2 * n for n in xshape[2:])
        w = tensor(rng.normal(size=wshape).astype(dtype))
        zero_grads([x, k])
        backward(sum_(mul(stuffed_conv_nd(x, k, groups=2), w)), params=[x, k])
        gx, gk = x.grad.copy(), k.grad.copy()
        zero_grads([x, k])
        backward(sum_(mul(conv_nd(zero_stuff(x, 2), k, groups=2), w)), params=[x, k])
        assert gx.dtype == gk.dtype == dtype
        atol = 1e-4 if dtype == np.float32 else 1e-12
        assert np.allclose(gx, x.grad, atol=atol)
        assert np.allclose(gk, k.grad, atol=atol)
        if dtype == np.float64:
            # finite differences as a second, route-independent check
            check_grad(lambda: sum_(mul(stuffed_conv_nd(x, k, groups=2), w)), x)
            check_grad(lambda: sum_(mul(stuffed_conv_nd(x, k, groups=2), w)), k)


@pytest.mark.parametrize("route", ["conv", "depthwise", "stuffed"])
def test_constant_input_gets_no_gradient(route):
    # the input of a net is data: its conv node pulls no input gradient,
    # and the kernel gradient is the same as with a live input
    rng = np.random.default_rng(17)
    op, kshape = {
        "conv": (conv_nd, (4, 2, 3, 3, 3)),
        "depthwise": (conv_nd, (4, 1, 3, 3, 3)),
        "stuffed": (stuffed_conv_nd, (4, 2, 3, 3, 3)),
    }[route]
    groups = 4 // kshape[1]
    xd = rng.normal(size=(2, 4, 3, 4, 3))
    kd = rng.normal(size=kshape)
    const = op(tensor(xd), parameter(kd), groups=groups)
    live = op(parameter(xd), parameter(kd), groups=groups)
    g = rng.normal(size=const.shape)
    gx, gk = const.node.pull(g)
    gx_live, gk_live = live.node.pull(g)
    const.node.tape.release()
    assert gx is None and gx_live.shape == xd.shape
    assert np.array_equal(gk, gk_live)


def test_stuffed_conv_fallback_routes():
    # extent 5 and zero padding leave the fast path; results must not change
    rng = np.random.default_rng(14)
    x = tensor(rng.normal(size=(1, 2, 4, 4)))
    k5 = tensor(rng.normal(size=(2, 2, 5, 5)))
    assert np.allclose(
        stuffed_conv_nd(x, k5).data,
        conv_nd(zero_stuff(x, 2), k5).data,
        atol=1e-12,
    )
    k3 = tensor(rng.normal(size=(2, 2, 3, 3)))
    assert np.allclose(
        stuffed_conv_nd(x, k3, padding="zero").data,
        conv_nd(zero_stuff(x, 2), k3, padding="zero").data,
        atol=1e-12,
    )


def test_conv_transpose_doubles_and_is_adjoint():
    rng = np.random.default_rng(7)
    C1, C2, D = 2, 3, 3
    x = tensor(rng.normal(size=(1, C1, D, D)))
    k = tensor(rng.normal(size=(C1, C2, 3, 3)))
    up = conv_transpose_nd(x, k)
    assert up.shape == (1, C2, 2 * D, 2 * D)
    # adjoint identity: <T x, u> == <x, stride-2 correlation of u>
    u = rng.normal(size=(1, C2, 2 * D, 2 * D))
    lhs = float((up.data * u).sum())
    down = conv_nd(tensor(u), k).data[:, :, ::2, ::2]  # kernel read as [C1,C2,S]
    rhs = float((x.data * down).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_conv_transpose_gradients_3d():
    rng = np.random.default_rng(8)
    x = parameter(rng.normal(size=(1, 2, 2, 2, 2)))
    k = parameter(rng.normal(size=(2, 1, 3, 3, 3)))
    w = tensor(rng.normal(size=(1, 1, 4, 4, 4)))
    check_grad(lambda: sum_(mul(conv_transpose_nd(x, k), w)), x)
    check_grad(lambda: sum_(mul(conv_transpose_nd(x, k), w)), k)


def test_take_last_semantics_and_grad():
    G = build_group("cyclic_2d(4)")
    cache = G.grid_cache(3)
    rng = np.random.default_rng(9)
    k = parameter(rng.normal(size=(2, 9)))
    out = take_last(k, cache.pi)
    assert out.shape == (4, 2, 9)
    for h in range(4):
        for t in range(9):
            assert out.data[h, :, t] == pytest.approx(k.data[:, cache.pi[h, t]])
    w = tensor(rng.normal(size=(4, 2, 9)))
    check_grad(lambda: sum_(mul(take_last(k, cache.pi, cache.pi_inv), w)), k)


def test_transform_group_kernel_semantics_and_grad():
    G = build_group("cyclic_2d(4)")
    cache = G.grid_cache(3)
    rng = np.random.default_rng(10)
    k = parameter(rng.normal(size=(2, 3, 4, 9)))  # [Co, Ci, H, K]
    out = transform_group_kernel(k, cache.sigma, cache.pi)
    assert out.shape == (4, 2, 3, 4, 9)
    for h in range(4):
        for j in range(4):
            for t in range(9):
                assert np.allclose(
                    out.data[h, :, :, j, t],
                    k.data[:, :, cache.sigma[h, j], cache.pi[h, t]],
                )
    w = tensor(rng.normal(size=(4, 2, 3, 4, 9)))
    check_grad(
        lambda: sum_(mul(transform_group_kernel(k, cache.sigma, cache.pi), w)), k
    )


def test_upsample_linear_exactness():
    const = tensor(np.full((1, 2, 3, 3), 7.25))
    up = upsample_linear(const, 4)
    assert up.shape == (1, 2, 12, 12)
    assert np.array_equal(up.data, np.full((1, 2, 12, 12), 7.25))

    ramp = tensor(np.arange(5.0)[None, None, :, None] * np.ones((1, 1, 5, 5)))
    up2 = upsample_linear(ramp, 2)
    # endpoints preserved, interior linear in the continuous coordinate
    got = up2.data[0, 0, :, 0]
    expect = np.arange(10) * 4.0 / 9.0
    assert np.allclose(got, expect, atol=1e-12)


def test_upsample_linear_grad_3d():
    rng = np.random.default_rng(11)
    x = parameter(rng.normal(size=(1, 1, 2, 2, 2)))
    w = tensor(rng.normal(size=(1, 1, 4, 4, 4)))
    check_grad(lambda: sum_(mul(upsample_linear(x, 2), w)), x)
