"""Convolution and gather primitives against brute-force reference loops."""

import numpy as np
import pytest

from rgconv.autodiff import (
    Tensor,
    backward,
    finite_diff_grad,
    mul,
    parameter,
    record,
    sum_,
    tensor,
    zero_grads,
)
from rgconv import convops
from rgconv.convops import (
    _dense_route,
    _plane_slabs,
    _tap_chunks,
    conv_nd,
    conv_transpose_nd,
    stuffed_conv_nd,
    take_last,
    transform_group_kernel,
)
from rgconv.errors import ShapeError
from rgconv.groups import build_group


def conv_ref(x, k):
    """Direct sextuple-loop circular cross-correlation; the independent
    oracle."""
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
                        src = [(pos[i] + off[i] - h) % D[i] for i in range(d)]
                        acc += k[(co, ci) + tuple(off)] * x[(b, ci) + tuple(src)]
                out[(b, co) + pos] = acc
    return out


def zero_stuff(x):
    """One zero after every sample along each spatial axis, on the tape; a
    dense conv of it is the oracle of ``stuffed_conv_nd``."""
    d = x.ndim - 2
    sl = (slice(None), slice(None)) + (slice(None, None, 2),) * d
    out = np.zeros(x.shape[:2] + tuple(2 * n for n in x.shape[2:]), dtype=x.dtype)
    out[sl] = x.data
    return record("zero_stuff", out, (x,), lambda g: (g[sl].copy(),))


# Padding is circular only. The one-value parameter keeps each case under the
# id it had when a zero-padded twin ran beside it.
circular_only = pytest.mark.parametrize("padding", ["circular"])


def check_grad(make_loss, theta, atol=1e-8, rtol=1e-5):
    zero_grads([theta])
    backward(make_loss(), params=[theta])
    numeric = finite_diff_grad(make_loss, theta)
    assert np.allclose(theta.grad, numeric, atol=atol, rtol=rtol)


@circular_only
def test_conv2d_matches_reference(padding):
    rng = np.random.default_rng(0)
    x = tensor(rng.normal(size=(2, 2, 5, 5)))
    k = tensor(rng.normal(size=(3, 2, 3, 3)))
    out = conv_nd(x, k)
    assert out.shape == (2, 3, 5, 5)
    assert np.allclose(out.data, conv_ref(x.data, k.data), atol=1e-12)


@circular_only
def test_conv3d_matches_reference(padding):
    rng = np.random.default_rng(1)
    x = tensor(rng.normal(size=(1, 2, 4, 4, 4)))
    k = tensor(rng.normal(size=(2, 2, 3, 3, 3)))
    out = conv_nd(x, k)
    assert np.allclose(out.data, conv_ref(x.data, k.data), atol=1e-12)


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
        ref = conv_ref(x[:, g * Ci : (g + 1) * Ci], k[g * Co : (g + 1) * Co])
        assert np.allclose(out[:, g * Co : (g + 1) * Co], ref, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
@circular_only
@pytest.mark.parametrize("S", [3, 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_depthwise_conv_matches_per_group_reference(d, padding, S, dtype):
    # one input and one output channel per group: the broadcast path
    rng = np.random.default_rng(15)
    G = 3
    x = rng.normal(size=(2, G) + (5, 6, 5)[:d]).astype(dtype)
    k = rng.normal(size=(G, 1) + (S,) * d).astype(dtype)
    out = conv_nd(tensor(x), tensor(k), groups=G)
    assert out.shape == x.shape and out.dtype == dtype
    tol = dict(rtol=1e-5, atol=1e-4) if dtype == np.float32 else dict(atol=1e-12)
    for g in range(G):
        ref = conv_ref(x[:, g : g + 1], k[g : g + 1])
        assert np.allclose(out.data[:, g : g + 1], ref, **tol)


@pytest.mark.parametrize("xshape,S", [((2, 3, 5, 6), 5), ((2, 3, 4, 5, 3), 3)])
@circular_only
def test_depthwise_conv_gradients(xshape, S, padding):
    rng = np.random.default_rng(16)
    G, d = xshape[1], len(xshape) - 2
    x = parameter(rng.normal(size=xshape))
    k = parameter(rng.normal(size=(G, 1) + (S,) * d))
    w = tensor(rng.normal(size=xshape))
    check_grad(lambda: sum_(mul(conv_nd(x, k, groups=G), w)), x)
    check_grad(lambda: sum_(mul(conv_nd(x, k, groups=G), w)), k)


@circular_only
def test_conv_gradients(padding):
    rng = np.random.default_rng(5)
    x = parameter(rng.normal(size=(2, 2, 4, 4)))
    k = parameter(rng.normal(size=(2, 2, 3, 3)))
    w = tensor(rng.normal(size=(2, 2, 4, 4)))
    check_grad(lambda: sum_(mul(conv_nd(x, k), w)), x)
    check_grad(lambda: sum_(mul(conv_nd(x, k), w)), k)


def test_conv3d_grouped_gradients():
    rng = np.random.default_rng(6)
    x = parameter(rng.normal(size=(1, 4, 3, 3, 3)))
    k = parameter(rng.normal(size=(4, 2, 3, 3, 3)))
    w = tensor(rng.normal(size=(1, 4, 3, 3, 3)))
    check_grad(lambda: sum_(mul(conv_nd(x, k, groups=2), w)), x)
    check_grad(lambda: sum_(mul(conv_nd(x, k, groups=2), w)), k)


# (spatial, groups, C_in, C_out, S) per group, and the tap-chunk widths that
# c = min(T, max(1, C_out // C_in)) gives
TAP_CHUNK_CASES = [
    ((5, 6), 1, 3, 2, 3, [1] * 9),  # c = 1, the per-tap loop
    ((5, 6), 2, 1, 12, 3, [9]),  # c = T: the lifting shape, one GEMM
    ((4, 5, 3), 1, 2, 20, 3, [10, 10, 7]),  # a partial last chunk
    ((4, 3, 5), 2, 1, 5, 3, [5] * 5 + [2]),
    ((6, 5), 3, 2, 5, 5, [2] * 12 + [1]),
]


@pytest.mark.parametrize("D,G,Ci,Co,S,widths", TAP_CHUNK_CASES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tap_chunks_match_per_group_reference(D, G, Ci, Co, S, widths, dtype):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2, G * Ci) + D).astype(dtype)
    k = rng.normal(size=(G * Co, Ci) + (S,) * len(D)).astype(dtype)
    chunks = _tap_chunks(x, k.shape, G)
    assert [t1 - t0 for t0, t1, _ in chunks] == widths
    out = conv_nd(tensor(x), tensor(k), groups=G)
    assert out.shape == (2, G * Co) + D and out.dtype == dtype
    tol = dict(rtol=1e-5, atol=1e-4) if dtype == np.float32 else dict(atol=1e-12)
    for g in range(G):
        ref = conv_ref(x[:, g * Ci : (g + 1) * Ci], k[g * Co : (g + 1) * Co])
        assert np.allclose(out.data[:, g * Co : (g + 1) * Co], ref, **tol)


@pytest.mark.parametrize("D,G,Ci,Co,S,widths", TAP_CHUNK_CASES[1:4])
@circular_only
def test_tap_chunk_gradients(D, G, Ci, Co, S, widths, padding):
    rng = np.random.default_rng(18)
    x = parameter(rng.normal(size=(1, G * Ci) + D))
    k = parameter(rng.normal(size=(G * Co, Ci) + (S,) * len(D)))
    w = tensor(rng.normal(size=(1, G * Co) + D))
    check_grad(lambda: sum_(mul(conv_nd(x, k, groups=G), w)), x)
    check_grad(lambda: sum_(mul(conv_nd(x, k, groups=G), w)), k)


# (route, spatial, groups, C_in, C_out, S) per group, a CACHE_BYTES at f64
# (halved at f32) that sends these small shapes, at batch 3, down the
# cache-sized routes, and the route's blocks: (items, planes) per slab tile,
# channel rows per depthwise forward block
ROUTE_CASES = [
    ("slabs", (21, 4), 1, 2, 3, 3, 3500, [(3, 2)] * 10 + [(3, 1)]),  # partial planes
    ("slabs", (21, 4), 1, 2, 3, 3, 1200, [(2, 1)] * 21 + [(1, 1)] * 21),  # items
    ("slabs", (6, 3, 4), 1, 2, 14, 3, 2000, [(1, 1)] * 18),
    ("outputs", (5, 6), 2, 9, 1, 3, 2000, None),
    ("outputs", (3, 3, 3), 1, 28, 1, 3, 2000, None),
    ("outputs", (5, 6), 1, 3, 2, 1, 2000, None),  # one tap
    ("depthwise", (5, 6), 5, 1, 1, 3, 9000, [2, 2, 1]),
    ("depthwise", (4, 3, 5), 5, 1, 1, 3, 9000, [1] * 5),
]
ROUTE_IDS = [f"{c[0]}-{len(c[1])}d-S{c[5]}-{c[6]}" for c in ROUTE_CASES]


def route_conv(monkeypatch, case, dtype):
    route, D, G, Ci, Co, S, budget, _ = case
    monkeypatch.setattr(convops, "CACHE_BYTES", budget * np.dtype(dtype).itemsize // 8)
    rng = np.random.default_rng(19)
    x = rng.normal(size=(3, G * Ci) + D).astype(dtype)
    k = rng.normal(size=(G * Co, Ci) + (S,) * len(D)).astype(dtype)
    if route == "depthwise":
        assert Ci == 1 and Co == 1
    else:
        assert _dense_route(x.shape, k.shape, G, x.itemsize) == route
    return x, k


@pytest.mark.parametrize("case", ROUTE_CASES, ids=ROUTE_IDS)
@circular_only
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cache_sized_routes_match_per_group_reference(monkeypatch, case, padding, dtype):
    route, D, G, Ci, Co, S, budget, blocks = case
    x, k = route_conv(monkeypatch, case, dtype)
    seen = []
    if route == "slabs":
        seen = [(b.stop - b.start, z1 - z0) for b, z0, z1, _ in _plane_slabs(x, k.shape, G)]
    elif route == "depthwise":
        real = convops._row_blocks
        monkeypatch.setattr(convops, "_row_blocks", lambda *a: seen.append(real(*a)) or seen[-1])
    out = conv_nd(tensor(x), tensor(k), groups=G)
    if route == "depthwise":
        seen = [s.stop - s.start for s in seen[0]]
    assert seen == (blocks or [])
    assert out.shape == (3, G * Co) + D and out.dtype == dtype
    tol = dict(rtol=1e-5, atol=1e-4) if dtype == np.float32 else dict(atol=1e-12)
    for g in range(G):
        ref = conv_ref(x[:, g * Ci : (g + 1) * Ci], k[g * Co : (g + 1) * Co])
        assert np.allclose(out.data[:, g * Co : (g + 1) * Co], ref, **tol)


@pytest.mark.parametrize("case", ROUTE_CASES, ids=ROUTE_IDS)
@circular_only
def test_cache_sized_route_gradients(monkeypatch, case, padding):
    x, k = route_conv(monkeypatch, case, np.float64)
    G = case[2]
    x, k = parameter(x), parameter(k)
    w = tensor(np.random.default_rng(20).normal(size=(x.shape[0], k.shape[0]) + x.shape[2:]))
    check_grad(lambda: sum_(mul(conv_nd(x, k, groups=G), w)), x)
    check_grad(lambda: sum_(mul(conv_nd(x, k, groups=G), w)), k)


@pytest.mark.parametrize("case,shape,kshape,groups,dtype,routes", [
    ("super-resolution output conv", (4, 4, 32, 32, 32), (3, 4, 3, 3, 3), 1,
     np.float32, ["slabs"] * 3),
    ("its B = 1 inference", (1, 4, 32, 32, 32), (3, 4, 3, 3, 3), 1,
     np.float32, ["chunks"] * 3),
    ("O48 pooled head", (1, 192, 11, 11, 11), (1, 192, 3, 3, 3), 1,
     np.float64, ["outputs", "chunks", "outputs"]),
    ("C4 pooled head", (1, 32, 15, 15), (1, 32, 3, 3), 1,
     np.float64, ["outputs", "chunks", "outputs"]),
    # a window over the budget, but one plane's all-tap stack does not fit
    ("O48 hidden layer", (1, 192, 11, 11, 11), (192, 192, 3, 3, 3), 1,
     np.float64, ["chunks"] * 3),
    ("separable spatial stage", (4, 96, 8, 8, 8), (96, 1, 3, 3, 3), 96,
     np.float32, ["depthwise"] * 3),
])
def test_dense_conv_route(monkeypatch, case, shape, kshape, groups, dtype, routes):
    # forward, input gradient and kernel gradient, in the order they run;
    # the input gradient is a forward conv by the swapped, flipped kernel
    calls = []
    for name, route in [("_plane_slabs", "slabs"), ("_tap_chunks", "chunks"),
                        ("_out_taps_fwd", "outputs"), ("_out_taps_bwd_kernel", "outputs"),
                        ("_depthwise_fwd", "depthwise"),
                        ("_depthwise_bwd_kernel", "depthwise")]:
        def spy(*a, real=getattr(convops, name), route=route):
            calls.append(route)
            return real(*a)

        monkeypatch.setattr(convops, name, spy)
    rng = np.random.default_rng(21)
    x = parameter(rng.normal(size=shape).astype(dtype))
    k = parameter(rng.normal(size=kshape).astype(dtype))
    backward(sum_(conv_nd(x, k, groups=groups)), params=[x, k])
    assert calls == routes


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
    out = zero_stuff(x)
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
        # S = 1: one shift, and phase 1 meets no tap
        ((2, 4, 3, 4), (6, 2, 1, 1), 2, np.float64),
        ((1, 4, 2, 3, 2), (4, 2, 1, 1, 1), 2, np.float64),
        ((2, 6, 3, 2, 4), (9, 2, 1, 1, 1), 3, np.float32),
        # S = 5 and 7: halos on both sides; extent h + 1 is the smallest
        # that fits, so some voxels wrap on both
        ((2, 4, 3, 5), (6, 2, 5, 5), 2, np.float64),
        ((1, 6, 3, 4, 3), (3, 2, 5, 5, 5), 3, np.float64),
        ((2, 4, 3, 4, 3), (4, 2, 5, 5, 5), 2, np.float32),
        ((1, 4, 4, 5), (4, 2, 7, 7), 2, np.float64),
        ((1, 4, 4, 4, 5), (2, 2, 7, 7, 7), 2, np.float64),
        ((2, 4, 5, 4), (6, 2, 7, 7), 2, np.float32),
    ]
    for xshape, kshape, groups, dtype in cases:
        x = tensor(rng.normal(size=xshape).astype(dtype))
        k = tensor(rng.normal(size=kshape).astype(dtype))
        fast = stuffed_conv_nd(x, k, groups=groups)
        ref = conv_nd(zero_stuff(x), k, groups=groups)
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
        conv_nd(zero_stuff(x), k)


def test_stuffed_conv_gradients_match_composition():
    rng = np.random.default_rng(13)
    cases = [  # input shape, S, dtype; kernel [4, 2, S^d], groups 2
        ((1, 4, 3, 4, 3), 3, np.float64),
        ((1, 4, 2, 3, 2), 3, np.float64),  # extent 2
        ((2, 4, 3, 2, 4), 3, np.float32),
        ((2, 4, 3, 4), 1, np.float64),
        ((1, 4, 2, 3, 2), 1, np.float64),
        ((2, 4, 3, 2, 4), 1, np.float32),
        ((2, 4, 3, 5), 5, np.float64),
        ((1, 4, 3, 4, 3), 5, np.float64),
        ((2, 4, 3, 3, 4), 5, np.float32),
        ((1, 4, 4, 5), 7, np.float64),
        ((1, 4, 4, 4, 5), 7, np.float64),
        ((2, 4, 5, 4), 7, np.float32),
    ]
    for xshape, S, dtype in cases:
        x = parameter(rng.normal(size=xshape).astype(dtype))
        k = parameter(rng.normal(size=(4, 2) + (S,) * (len(xshape) - 2)).astype(dtype))
        wshape = xshape[:2] + tuple(2 * n for n in xshape[2:])
        w = tensor(rng.normal(size=wshape).astype(dtype))
        zero_grads([x, k])
        backward(sum_(mul(stuffed_conv_nd(x, k, groups=2), w)), params=[x, k])
        gx, gk = x.grad.copy(), k.grad.copy()
        zero_grads([x, k])
        backward(sum_(mul(conv_nd(zero_stuff(x), k, groups=2), w)), params=[x, k])
        assert gx.dtype == gk.dtype == dtype
        atol = 1e-4 if dtype == np.float32 else 1e-12
        assert np.allclose(gx, x.grad, atol=atol)
        assert np.allclose(gk, k.grad, atol=atol)
        if dtype == np.float64 and S <= 5:
            # finite differences as a second, route-independent check
            # (over the 7^d kernels it takes seconds)
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
    # the stencils that once left the sub-pixel route for a dense conv of a
    # zero-stuffed copy now stay on it; results must not change
    rng = np.random.default_rng(14)
    x = tensor(rng.normal(size=(1, 2, 4, 4)))
    for S in (1, 5, 7):
        k = tensor(rng.normal(size=(2, 2, S, S)))
        assert np.allclose(
            stuffed_conv_nd(x, k).data,
            conv_nd(zero_stuff(x), k).data,
            atol=1e-12,
        )


def stuffed_grads(op, x, k, g, groups):
    """``y``, ``gx`` and ``gk`` of ``op`` with upstream gradient ``g``."""
    xt, kt = parameter(x), parameter(k)
    y = op(xt, kt, groups=groups)
    backward(sum_(mul(y, tensor(g))), params=[xt, kt])
    return y.data, xt.grad, kt.grad


def stuffed_kernel_grad_ref(g, x, k_shape, groups):
    """Kernel gradient summed per (output phase, tap) over the input samples
    that tap meets: along an axis, tap ``t`` of a stencil of half-width
    ``h`` joins phase ``p = (h - t) mod 2`` to ``x[v + (t + p - h) / 2]``."""
    B, d = x.shape[0], x.ndim - 2
    Co, Ci = k_shape[0] // groups, k_shape[1]
    h = (k_shape[2] - 1) // 2
    gk = np.zeros(k_shape)
    for tap in np.ndindex(*k_shape[2:]):
        phases = [(h - t) % 2 for t in tap]
        shifts = [(t + p - h) // 2 for t, p in zip(tap, phases)]
        shifted = np.roll(x, [-s for s in shifts], axis=tuple(range(2, 2 + d)))
        gp = g[(Ellipsis,) + tuple(slice(p, None, 2) for p in phases)]
        gp = gp.reshape(B, groups, Co, -1)
        xs = shifted.reshape(B, groups, Ci, -1)
        gk[(Ellipsis,) + tap] = np.einsum("bgov,bgiv->goi", gp, xs).reshape(-1, Ci)
    return gk


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 in the GEMMs
@pytest.mark.parametrize("where", ["x", "g"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("xshape,kshape,at", [
    ((2, 4, 3, 4), (6, 2, 3, 3), (1, 3, 2, 1)),
    ((2, 4, 3, 2, 3), (4, 2, 3, 3, 3), (0, 2, 1, 1, 2)),
    ((2, 4, 3, 4, 3), (4, 2, 5, 5, 5), (1, 0, 2, 0, 1)),
])
def test_stuffed_conv_non_finite_lands_like_composition(xshape, kshape, at, bad, where):
    # the contract the training loop relies on to raise TrainingDiverged: a
    # non-finite x makes y non-finite, a non-finite g makes gx and gk
    # non-finite, on every entry where a conv of the stuffed input puts it
    rng = np.random.default_rng(15)
    groups = 2
    x = rng.normal(size=xshape)
    k = rng.normal(size=kshape)
    g = rng.normal(size=xshape[:1] + (kshape[0],) + tuple(2 * n for n in xshape[2:]))
    if where == "x":
        x[at] = bad
    else:
        # phase 0 on every axis: its GEMM column has the most zero blocks
        g[at[:2] + tuple(2 * i for i in at[2:])] = bad
    fast = stuffed_grads(stuffed_conv_nd, x, k, g, groups)
    comp = stuffed_grads(
        lambda a, b, groups: conv_nd(zero_stuff(a), b, groups=groups),
        x, k, g, groups,
    )
    # a bad x reaches y and not gx, a bad g reaches gx and not y; the
    # composition's gk meets a bad g at every tap, so gk is held to the sum
    # of each tap over the input samples it meets only
    live = 0 if where == "x" else 1
    assert np.isfinite(fast[1 - live]).all()
    want = (comp[live], stuffed_kernel_grad_ref(g, x, kshape, groups))
    for got, ref in zip((fast[live], fast[2]), want):
        assert not np.isfinite(ref).all()
        assert (~np.isfinite(got) >= ~np.isfinite(ref)).all()


def test_stuffed_conv_pull_takes_non_contiguous_gradient():
    rng = np.random.default_rng(16)
    x = parameter(rng.normal(size=(2, 4, 3, 4, 3)))
    k = parameter(rng.normal(size=(4, 2, 3, 3, 3)))
    y = stuffed_conv_nd(x, k, groups=2)
    g = rng.normal(size=y.shape)
    g_strided = np.ascontiguousarray(g.swapaxes(-1, -2)).swapaxes(-1, -2)
    assert not g_strided.flags.c_contiguous
    gx, gk = y.node.pull(g)
    gx_s, gk_s = y.node.pull(g_strided)
    y.node.tape.release()
    assert np.array_equal(gx, gx_s) and np.array_equal(gk, gk_s)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the sum
@pytest.mark.parametrize("case,stuffs", [
    ("finite circular S=3", False),
    ("non-finite input", True),
    ("S=5", True),
    ("S=1", True),
    ("S=7", True),
])
def test_stuffed_conv_route(monkeypatch, case, stuffs):
    # one sub-pixel route: no stencil size and no input value sends the
    # forward or the backward through a dense conv. ``stuffs`` marks the
    # cases that took a dense conv of a zero-stuffed copy before the route
    # covered every odd stencil; test_stuffed_conv_fallback_routes holds
    # their values to that composition
    calls = []
    for name in ("conv_nd", "_conv_fwd", "_conv_bwd_kernel"):
        def spy(*a, real=getattr(convops, name), name=name, **kw):
            calls.append(name)
            return real(*a, **kw)

        monkeypatch.setattr(convops, name, spy)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(2, 4, 5, 5))
    S = 3 if case == "non-finite input" else int(case[-1])
    if case == "non-finite input":
        x[0, 1, 2, 3] = np.inf
    xt, kt = parameter(x), parameter(rng.normal(size=(4, 2, S, S)))
    y = stuffed_conv_nd(xt, kt, groups=2)
    backward(sum_(y), params=[xt, kt])
    assert calls == []


def test_conv_transpose_doubles_and_is_adjoint():
    rng = np.random.default_rng(7)
    C1, C2, D = 2, 3, 3
    for S in (3, 5):
        x = tensor(rng.normal(size=(1, C1, D, D)))
        k = tensor(rng.normal(size=(C1, C2, S, S)))
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
    out = take_last(k, cache.pi, cache.pi_inv)
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
    out = transform_group_kernel(k, cache)
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
        lambda: sum_(mul(transform_group_kernel(k, cache), w)), k
    )
