"""Convolution and gather primitives against brute-force reference loops."""

import tracemalloc

import numpy as np
import pytest

from rgconv.autodiff import (
    Tensor,
    backward,
    finite_diff_grad,
    mean_,
    mul,
    parameter,
    record,
    relu,
    reshape,
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


def per_tap_conv(D, B, G, dtype, Ci=32, Co=5, seed=22):
    """``x``, ``g`` and the kernel shape of a conv on the tap loop with one
    tap per chunk (``c = 1``, ``K = C_in >= 32``)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(B, G * Ci) + D).astype(dtype)
    g = rng.normal(size=(B, G * Co) + D).astype(dtype)
    k_shape = (G * Co, Ci) + (3,) * len(D)
    assert _dense_route(k_shape, G) == "chunks"
    return x, g, k_shape


@pytest.mark.parametrize("D", [(5, 6), (4, 3, 5)])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("G", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_per_tap_kernel_gradient_matches_sum_and_scatter(D, B, G, dtype):
    # each tap writes its [G, Co, Ci] block in place; bitwise what the
    # batched GEMM, its sum over the batch and a scatter into gk[..., t] give
    x, g, k_shape = per_tap_conv(D, B, G, dtype)
    Co, Ci = k_shape[0] // G, k_shape[1]
    want = np.empty((G, Co, Ci, 3 ** len(D)), dtype=dtype)
    for t0, t1, stack in _tap_chunks(x, k_shape, G):
        gc = (g.reshape(B, G, Co, -1) @ stack.swapaxes(-1, -2)).sum(axis=0)
        want[..., t0:t1] = gc.reshape(G, Co, Ci, t1 - t0)
    got = convops._conv_bwd_kernel(g, x, k_shape, G)
    assert got.shape == k_shape and got.dtype == dtype
    assert np.array_equal(got, want.reshape(k_shape))


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("G", [1, 2])
def test_per_tap_kernel_gradient_workspace(B, G):
    # beyond what is held when it starts, the per-tap kernel gradient holds
    # the kernel, the padded input and one tap's window; at B > 1 also the
    # batched GEMM's [B, G, Co, Ci] product before its batch sum. No tap
    # makes a temporary block of its own (which the bound's slack of half a
    # block leaves no room for)
    n, Ci, Co = 6, 64, 64
    x, g, k_shape = per_tap_conv((n, n, n), B, G, np.float64, Ci, Co)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        gk = convops._conv_bwd_kernel(g, x, k_shape, G)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    padded = x.nbytes * (n + 2) ** 3 // n**3  # the halo of S = 3: one voxel each side
    block = G * Co * Ci * x.itemsize  # one tap's gradient
    batched = B * block if B > 1 else 0
    assert gk.shape == k_shape
    assert peak < gk.nbytes + padded + x.nbytes + batched + block // 2


# (route, spatial, groups, C_in, C_out, S) per group, a CACHE_BYTES at f64
# (halved at f32) that splits these small shapes, at batch 3, into several
# tiles, and the route's blocks: (items, planes) per slab tile, channel rows
# per depthwise forward block
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
        assert _dense_route(k.shape, G) == route
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
     np.float32, ["slabs"] * 3),
    ("O48 pooled head", (1, 192, 11, 11, 11), (1, 192, 3, 3, 3), 1,
     np.float64, ["outputs", "chunks", "outputs"]),
    ("C4 pooled head", (1, 32, 15, 15), (1, 32, 3, 3), 1,
     np.float64, ["outputs", "chunks", "outputs"]),
    ("O48 hidden layer", (1, 192, 11, 11, 11), (192, 192, 3, 3, 3), 1,
     np.float64, ["chunks"] * 3),
    ("separable spatial stage", (4, 96, 8, 8, 8), (96, 1, 3, 3, 3), 96,
     np.float32, ["depthwise"] * 3),
    # shallow chunk GEMMs (K = C_in c < 32) take the slabs, whatever the size
    ("conv-baseline trunk", (4, 4, 8, 8, 8), (4, 4, 3, 3, 3), 1,
     np.float32, ["slabs"] * 3),
    ("conv-baseline lifting conv", (4, 9, 8, 8, 8), (4, 9, 3, 3, 3), 1,
     np.float32, ["slabs"] * 3),
    # a chunk over all T taps keeps the tap loop; so does a deep chunk GEMM
    ("O48 lifting conv", (1, 1, 11, 11, 11), (192, 1, 3, 3, 3), 1,
     np.float64, ["chunks", "outputs", "chunks"]),
    ("O24 lifting conv, K = 90", (4, 9, 8, 8, 8), (96, 9, 3, 3, 3), 1,
     np.float32, ["chunks"] * 3),
    ("C4 hidden layer, K = 32", (1, 32, 15, 15), (32, 32, 3, 3), 1,
     np.float64, ["chunks"] * 3),
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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("pool", [False, True])
@pytest.mark.parametrize("xshape,kshape,groups", [
    ((2, 6, 5, 7), (9, 2, 3, 3), 3),  # odd C_out in 2D: 12 mask bits a row
    ((1, 4, 5, 4, 5), (4, 2, 3, 3, 3), 2),
    ((2, 4, 5, 4, 3), (4, 2, 5, 5, 5), 2),
    ((2, 3, 5, 6), (2, 3, 3, 3), 1),  # the form of ConvTransposeLayer
    ((2, 4, 4, 6, 4), (4, 2, 3, 3, 3), 2),  # even extents
    ((2, 4, 4, 6), (4, 2, 5, 5), 2),
    ((3, 4, 5, 4, 6), (4, 2, 3, 3, 3), 2),  # tiles split and span items
])
def test_stuffed_conv_row_tiles_match_composition(monkeypatch, xshape, kshape, groups, pool, dtype):
    # with CACHE_BYTES cut to the fewest tiles, from 3, of which the last
    # is ragged (fewer output planes than the first), y, gx and gk must
    # match the composition with the zero-stuffed input, computed in one piece
    rng = np.random.default_rng(19)
    x = parameter(rng.normal(size=xshape).astype(dtype))
    k = parameter(rng.normal(size=kshape).astype(dtype))
    B, G, Co = xshape[0], groups, kshape[0] // groups
    up = tuple(2 * n for n in xshape[2:])
    w = tensor(rng.normal(size=(B, Co if pool else G * Co) + up).astype(dtype))

    def composed(a, b, groups):
        y = conv_nd(zero_stuff(a), b, groups=groups)
        return mean_(relu(reshape(y, (B, G, Co) + up)), axes=(1,)) if pool else y

    def plan(count):
        # CACHE_BYTES for a budget of 1 / count of the batch's rows (a tile
        # takes 4 // groups budgets at fewer than 4 groups)
        sp = convops._Subpixel(x.data, k.data, groups)
        K, N = sp.w.shape[1:]
        rows = -(-B * xshape[2] * sp.Pp // count)
        cache = rows * (K + 2 * N) * sp.w.itemsize // max(1, 4 // groups)
        monkeypatch.setattr(convops, "CACHE_BYTES", cache)
        return convops._Subpixel(x.data, k.data, groups).plan

    def planes(tile):
        return sum(n * (z1 - z0) for _, n, z0, z1, _ in tile.pieces)

    tiles = next(t for c in range(3, 9) if planes((t := plan(c))[-1]) < planes(t[0]))
    assert len(tiles) >= 3
    if B == 3:
        assert any(z1 - z0 < xshape[2] for t in tiles for _, _, z0, z1, _ in t.pieces)
        assert any(sum(n for _, n, _, _, _ in t.pieces) > 1 for t in tiles)
    if Co % 2 and len(xshape) == 4:  # some tile's mask bits end inside a byte
        assert any(t.m * Co * 4 % 8 for t in tiles)
    results = []
    for op in (stuffed_conv_nd, composed):
        if op is composed:
            monkeypatch.undo()
        zero_grads([x, k])
        y = op(x, k, groups=groups, **({} if op is composed else {"pool": pool}))
        backward(sum_(mul(y, w)), params=[x, k])
        results.append((y.data, x.grad.copy(), k.grad.copy()))
    atol = 1e-4 if dtype == np.float32 else 1e-12
    for got, want in zip(*results):
        assert got.shape == want.shape and got.dtype == want.dtype == dtype
        assert np.allclose(got, want, atol=atol)


def traced_peak(fn):
    """``fn()`` and the ``tracemalloc`` peak it reaches above what is held
    when it starts."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_pooled_stuffed_backward_workspace():
    # the pooled O24 head at the super-resolution bench shape, f32: beyond
    # what is held when it starts, its backward holds gx and tile-sized
    # buffers (the tile's padded box, g rows, stack), no batch-long layout
    rng = np.random.default_rng(20)
    B, G, Ci, Co, n = 4, 24, 4, 4, 16
    x = parameter(rng.normal(size=(B, G * Ci, n, n, n)).astype(np.float32))
    k = parameter(rng.normal(size=(G * Co, Ci, 3, 3, 3)).astype(np.float32))
    y = stuffed_conv_nd(x, k, groups=G, pool=True)
    g = rng.normal(size=y.shape).astype(np.float32)
    try:
        (gx, gk), peak = traced_peak(lambda: y.node.pull(g))
    finally:
        y.node.tape.release()
    assert gx.shape == x.shape and gk.shape == k.shape
    assert peak < x.data.nbytes + 3 * convops.CACHE_BYTES


@pytest.mark.parametrize("pool,direction", [(True, "fwd"), (False, "fwd"), (False, "bwd")])
def test_stuffed_workspace(pool, direction):
    # the bench shapes, f32: the pooled head [4, 96, 16^3] and the first
    # upsampling stage [4, 96, 8^3], 24 groups; beyond its result (y and the
    # masks, or gx) a call holds only tile-sized buffers
    rng = np.random.default_rng(21)
    B, G, Ci, Co, n = 4, 24, 4, 4, 16 if pool else 8
    x = rng.normal(size=(B, G * Ci, n, n, n)).astype(np.float32)
    k = rng.normal(size=(G * Co, Ci, 3, 3, 3)).astype(np.float32)
    if direction == "fwd":
        (y, masks), peak = traced_peak(lambda: convops._stuffed_fwd(x, k, G, pool, pool))
        result = y.nbytes + (masks.nbytes if pool else 0)
    else:
        g = rng.normal(size=(B, G * Co, 2 * n, 2 * n, 2 * n)).astype(np.float32)
        (gx, _), peak = traced_peak(lambda: convops._stuffed_bwd(g, x, k, G, True))
        result = gx.nbytes
    assert peak < result + 3 * convops.CACHE_BYTES


def test_conv_pull_frees_its_kernel_before_the_kernel_gradient():
    # the O48 hidden layer, f64: its [192, 192, 3^3] transformed kernel is a
    # tape intermediate that only the conv's node holds, as in
    # RelaxedGConvLayer, traced from its making. Once gx is out the pull
    # drops it, so the kernel gradient pass (gk, the padded input, a window
    # and gx: 14.7 MiB) runs in its room; the gx pass (9.1 MiB) is the peak
    rng = np.random.default_rng(23)
    x = parameter(rng.normal(size=(1, 192, 11, 11, 11)))
    k = parameter(rng.normal(size=(192, 192, 3, 3, 3)))
    g = rng.normal(size=x.shape)
    tracemalloc.start()
    try:
        y = conv_nd(x, mul(k, tensor(1.0)))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        gx, gk = y.node.pull(g)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    y.node.tape.release()
    assert gx.shape == x.shape and gk.shape == k.shape
    assert peak < k.data.nbytes + 2 * x.data.nbytes


# (spatial, groups, C_in, C_out, S) per group, with T C_out well below C_in
OUT_TAP_CASES = [((6, 7), 2, 96, 2, 3), ((3, 4, 5), 2, 60, 1, 3)]


def kernel_grad_ref(g, x, k_shape, groups):
    """``gk[co, ci, o] = sum_{b, v} g[b, co, v] x[b, ci, v + o]``, circular,
    per group, from rolled copies of ``x``; the oracle of a kernel gradient."""
    Co, Ci, S = k_shape[0] // groups, k_shape[1], k_shape[2:]
    axes = tuple(range(2, x.ndim))
    gk = np.zeros(k_shape)
    for off in np.ndindex(*S):
        xs = np.roll(x, [(s - 1) // 2 - o for o, s in zip(off, S)], axis=axes)
        for gi in range(groups):
            gg, xg = g[:, gi * Co : (gi + 1) * Co], xs[:, gi * Ci : (gi + 1) * Ci]
            gk[(slice(gi * Co, (gi + 1) * Co), slice(None)) + off] = np.einsum(
                "bov,biv->oi", gg.reshape(len(g), Co, -1), xg.reshape(len(x), Ci, -1))
    return gk


@pytest.mark.parametrize("D,G,Ci,Co,S", OUT_TAP_CASES, ids=["2d", "3d"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_output_taps_match_reference_within_few_channel_workspace(D, G, Ci, Co, S, dtype):
    # the GEMM reads x unpadded and only the T Co product rows (or the Co
    # channels of g) are padded: beyond its result, the forward holds the
    # product rows unpadded and padded and the padded output, and the kernel
    # gradient the padded g, its T shifts and the batched GEMM's product and
    # its batch sum; a padded copy of the C_in input channels fits neither
    rng = np.random.default_rng(24)
    B, T = 2, S ** len(D)
    x = rng.normal(size=(B, G * Ci) + D).astype(dtype)
    k = rng.normal(size=(G * Co, Ci) + (S,) * len(D)).astype(dtype)
    g = rng.normal(size=(B, G * Co) + D).astype(dtype)
    assert _dense_route(k.shape, G) == "outputs"
    y, fwd_peak = traced_peak(lambda: convops._out_taps_fwd(x, k, G))
    gk, bwd_peak = traced_peak(lambda: convops._out_taps_bwd_kernel(g, x, k.shape, G))
    assert y.shape == g.shape and gk.shape == k.shape and y.dtype == gk.dtype == dtype
    tol = dict(rtol=1e-4, atol=1e-4) if dtype == np.float32 else dict(atol=1e-12)
    for gi in range(G):
        ref = conv_ref(x[:, gi * Ci : (gi + 1) * Ci], k[gi * Co : (gi + 1) * Co])
        assert np.allclose(y[:, gi * Co : (gi + 1) * Co], ref, **tol)
    assert np.allclose(gk, kernel_grad_ref(g, x, k.shape, G), **tol)
    V, P = np.prod(D), np.prod([n + S - 1 for n in D])
    rows = B * G * x.itemsize  # bytes of one value per item and group
    slack = 16 << 10  # index tables and array headers
    assert fwd_peak < y.nbytes + k.nbytes + (T * Co * (V + P) + Co * P) * rows + slack
    assert bwd_peak < (Co * P + T * Co * V) * rows + (B + 1) * gk.nbytes + slack


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
