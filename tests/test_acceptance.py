"""Shipping gate: nine end-to-end checks at their stated tolerances.

Each test prints a single verdict line (live, bypassing capture) and then
asserts it, so a full run reads as nine PASS/FAIL rows. Expectations come
from oracles independent of the code paths under test: brute-force sums
over group elements and stencil offsets, central finite differences,
exhaustive grid stabilizers, and hand-frozen golden bytes.
"""

from __future__ import annotations

import struct
import time
from dataclasses import replace

import numpy as np
import pytest

from rgconv import (
    ConvLayer,
    ConvTransposeLayer,
    ExperimentConfig,
    GroupPool,
    GroupUpsampleConv,
    LiftingLayer,
    Network,
    ReLULayer,
    RelaxedGConvLayer,
    SeparableRelaxedGConvLayer,
    act_on_offset,
    build_discovery_net,
    build_group,
    build_model,
    compose,
    discovery_pair,
    equivariance_error,
    eval_l1,
    gen_shape2d,
    gradient_symmetry_check,
    inverse,
    load_flow_dataset,
    param_count,
    read_rgt1,
    stabilizer_of_grid,
    train,
    transform_grid,
    trilinear_upsample,
    write_pgm,
    write_rgt1,
)
from rgconv.autodiff import backward, mul, sum_, tensor, zero_grads
from rgconv.errors import SymmetryCheckFailed
from rgconv.probe import SymmetryReport, write_report_csv

from fixtures import DISCOVERY_FIXTURES, SUPERRES_ACCEPTANCE, SUPERRES_SEEDS

GROUP_KINDS = ("cyclic_2d(2)", "cyclic_2d(4)", "octahedral_24", "octahedral_48")


def _verdict(capsys, num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. group algebra


def _check_group_algebra(kind: str) -> None:
    g = build_group(kind)
    n = g.order
    A = g.cayley
    e = g.identity_id
    ar = np.arange(n)

    # identity, closure, associativity, inverses
    assert np.array_equal(A[e], ar) and np.array_equal(A[:, e], ar)
    assert all(set(A[i]) == set(range(n)) for i in range(n))
    assert all(set(A[:, j]) == set(range(n)) for j in range(n))
    assert np.array_equal(A[A], A[:, A])  # (ab)c == a(bc) on ids
    inv = g.inverse
    assert np.all(A[ar, inv] == e) and np.all(A[inv, ar] == e)

    # faithful homomorphism onto signed permutation matrices
    mats = g.matrices
    prod = np.einsum("aij,bjk->abik", mats, mats)
    assert np.array_equal(mats[A], prod)
    assert len({m.tobytes() for m in mats}) == n
    absm = np.abs(mats)
    assert np.all(np.isin(mats, (-1, 0, 1)))
    assert np.all(absm.sum(axis=1) == 1) and np.all(absm.sum(axis=2) == 1)
    assert len(set(g.names)) == n and g.names[e] == "e"

    # offset action agrees with the matrices
    rng = np.random.default_rng(7)
    offs = rng.integers(-3, 4, size=(4, g.dim))
    for gid in range(n):
        for off in offs:
            assert act_on_offset(g, gid, off) == tuple(mats[gid] @ off)

    # grid action caches: permutation rows, identity row, anti-homomorphism
    # composition (applying a then b equals applying ba), consistent inverses
    for size in (3, 5):
        cache = g.grid_cache(size)
        for tab, tab_inv in ((cache.pi, cache.pi_inv), (cache.sigma, cache.sigma_inv)):
            k = tab.shape[1]
            assert np.array_equal(tab[e], np.arange(k))
            assert all(set(row) == set(range(k)) for row in tab)
            assert np.array_equal(
                np.take_along_axis(tab, tab_inv, axis=1),
                np.tile(np.arange(k), (n, 1)),
            )
            assert np.array_equal(tab[A], np.transpose(tab[:, tab], (1, 0, 2)))

        x = rng.standard_normal((size,) * g.dim)
        for gid in range(n):
            back = transform_grid(g, int(inv[gid]), transform_grid(g, gid, x))
            assert np.array_equal(back, x)


def test_criterion_1_group_algebra(capsys):
    t0 = time.perf_counter()
    for kind in GROUP_KINDS:
        _check_group_algebra(kind)
    dt = time.perf_counter() - t0
    _verdict(
        capsys, 1,
        "group axioms, matrix homomorphism and action caches (C2, C4, O24, O48)",
        dt < 10.0, f"{dt:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 2. equivariance at initialization


def test_criterion_2_equivariance_at_init(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0

    c4 = build_group("cyclic_2d(4)")
    net2 = build_discovery_net(c4, channels=6).init(11)
    for _ in range(3):
        err = equivariance_error(net2, c4, rng.standard_normal((1, 15, 15)))
        worst = max(worst, err.max_error)

    o48 = build_group("octahedral_48")
    net3 = build_discovery_net(o48, channels=2).init(12)
    for _ in range(3):
        err = equivariance_error(net3, o48, rng.standard_normal((1, 9, 9, 9)))
        worst = max(worst, err.max_error)

    dt = time.perf_counter() - t0
    _verdict(
        capsys, 2,
        "fresh relaxed nets are equivariant (C4 on 15*15, O48 on 9^3, 3 inputs each)",
        worst < 1e-10 and dt < 120.0, f"max err {worst:.2e} < 1e-10, {dt:.0f}s < 120s",
    )


# ---------------------------------------------------------------------------
# 3. reduction to strict group convolution, and separability


def _offsets(size: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    grid = np.indices((size,) * dim).reshape(dim, -1).T
    strides = np.array([size ** (dim - 1 - k) for k in range(dim)], dtype=np.int64)
    return grid - size // 2, strides


def _roll_all(x: np.ndarray, offsets: np.ndarray, dim: int) -> list[np.ndarray]:
    axes = tuple(range(x.ndim - dim, x.ndim))
    return [np.roll(x, tuple(-o for o in off), axis=axes) for off in offsets]


def _lift_oracle(group, kernels: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """Direct sum over offsets: out[b,c,h,p] = sum_j K[...,h^-1 j] x[b,:,p+j]."""
    offsets, strides = _offsets(size, group.dim)
    rolled = _roll_all(x, offsets, group.dim)
    c = size // 2
    B, Co = x.shape[0], kernels.shape[1]
    out = np.zeros((B, Co, group.order) + x.shape[2:])
    for h in range(group.order):
        hinv = inverse(group, h)
        for j, off in enumerate(offsets):
            kidx = int((np.array(act_on_offset(group, hinv, off)) + c) @ strides)
            out[:, :, h] += np.einsum("lci,bi...->bc...", kernels[:, :, :, kidx], rolled[j])
    return out


def _gconv_oracle(group, kernels: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """out[b,c,h,p] = sum_{h',j} K[...,h^-1 h',h^-1 j] x[b,:,h',p+j]."""
    offsets, strides = _offsets(size, group.dim)
    rolled = _roll_all(x, offsets, group.dim)
    c = size // 2
    B, Co, H = x.shape[0], kernels.shape[1], group.order
    out = np.zeros((B, Co, H) + x.shape[3:])
    for h in range(H):
        hinv = inverse(group, h)
        sig = [compose(group, hinv, hp) for hp in range(H)]
        for j, off in enumerate(offsets):
            kidx = int((np.array(act_on_offset(group, hinv, off)) + c) @ strides)
            ksl = kernels[:, :, :, sig, kidx]  # [L, Co, Ci, H']
            out[:, :, h] += np.einsum("lcih,bih...->bc...", ksl, rolled[j])
    return out


def test_criterion_3_strict_reduction_and_separability(capsys):
    rng = np.random.default_rng(3)
    worst_strict = 0.0
    worst_sep = 0.0

    for kind, grid in (("cyclic_2d(4)", 9), ("octahedral_24", 5)):
        g = build_group(kind)
        shape = (2, 1) + (grid,) * g.dim

        lift = LiftingLayer(g, 1, 3, banks=2, relaxed=False)
        lift.init(rng)
        x = rng.standard_normal(shape)
        got = lift(tensor(x)).data
        want = _lift_oracle(g, lift.kernels.data, x, lift.kernel_size)
        worst_strict = max(worst_strict, float(np.max(np.abs(got - want))))

        gc = RelaxedGConvLayer(g, 2, 2, banks=1, relaxed=False)
        gc.init(rng)
        xg = rng.standard_normal((2, 2, g.order) + (grid,) * g.dim)
        got = gc(tensor(xg)).data
        want = _gconv_oracle(g, gc.kernels.data, xg, gc.kernel_size)
        worst_strict = max(worst_strict, float(np.max(np.abs(got - want))))

        # a separable layer with trained (non-constant) weights must agree
        # with the full layer holding its materialized rank-1 kernels
        sep = SeparableRelaxedGConvLayer(g, 2, 2, banks=2, relaxed=True)
        sep.init(rng)
        sep.w.data[...] = rng.uniform(0.5, 1.5, size=sep.w.shape)
        full = RelaxedGConvLayer(g, 2, 2, banks=2, relaxed=True)
        full.kernels.data[...] = (  # the rank-1 kernels, [L, Co, Ci, |H|, S^d]
            sep.psi_o.data[..., None] * sep.psi_t.data[:, None, None, None, :]
        )
        full.w.data[...] = sep.w.data
        a = sep(tensor(xg)).data
        b = full(tensor(xg)).data
        worst_sep = max(worst_sep, float(np.max(np.abs(a - b)) / np.max(np.abs(b))))

    _verdict(
        capsys, 3,
        "unit-weight layers equal the offset-sum oracle; separable equals full",
        worst_strict < 1e-12 and worst_sep < 1e-12,
        f"strict {worst_strict:.2e}, separable rel {worst_sep:.2e}, both < 1e-12",
    )


# ---------------------------------------------------------------------------
# 4. finite-difference gradient audit


def _fd_audit(module, x: np.ndarray, rng) -> float:
    """Worst relative gap between backprop and central differences."""
    out0 = module(tensor(x)).data
    proj = rng.standard_normal(out0.shape)

    params = module.params()
    zero_grads(params)
    backward(sum_(mul(module(tensor(x)), tensor(proj))), params=params)
    analytic = [p.grad.copy() for p in params]

    def value() -> float:
        return float(np.sum(module(tensor(x)).data * proj))

    worst = 0.0
    h = 1e-6
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = value()
            flat[i] = keep - h
            dn = value()
            flat[i] = keep
            fd[i] = (up - dn) / (2 * h)
        fd = fd.reshape(p.data.shape)
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(a - fd))) / scale)
    return worst


def test_criterion_4_gradient_audit(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    c4 = build_group("cyclic_2d(4)")
    o24 = build_group("octahedral_24")
    worst = 0.0

    # every parameterized layer kind inside nonlinear compositions, so the
    # audit exercises backprop through the whole chain, not layers alone
    discovery = build_discovery_net(c4, banks=2, channels=2).init(40)
    worst = max(worst, _fd_audit(discovery, rng.standard_normal((1, 1, 7, 7)), rng))

    upsampler = Network(
        [
            LiftingLayer(c4, 1, 2, banks=1, relaxed=True),
            ReLULayer(),
            SeparableRelaxedGConvLayer(c4, 2, 2, banks=2, relaxed=True),
            ReLULayer(),
            GroupUpsampleConv(c4, 2, 2),
            GroupPool(),
            ConvLayer(2, 2, 1),
        ],
        group=c4,
    ).init(41)
    worst = max(worst, _fd_audit(upsampler, rng.standard_normal((1, 1, 5, 5)), rng))

    volumetric = Network(
        [
            ConvLayer(3, 1, 2),
            ReLULayer(),
            ConvTransposeLayer(3, 2, 1),
        ],
    ).init(42)
    worst = max(worst, _fd_audit(volumetric, rng.standard_normal((1, 1, 3, 3, 3)), rng))

    lifted3d = Network(
        [
            LiftingLayer(o24, 1, 1, banks=1, relaxed=True),
            ReLULayer(),
            GroupUpsampleConv(o24, 1, 1),
            GroupPool(),
        ],
        group=o24,
    ).init(43)
    worst = max(worst, _fd_audit(lifted3d, rng.standard_normal((1, 1, 3, 3, 3)), rng))

    dt = time.perf_counter() - t0
    _verdict(
        capsys, 4,
        "backprop matches central finite differences for every layer kind",
        worst < 1e-5 and dt < 300.0, f"worst rel {worst:.2e} < 1e-5, {dt:.0f}s < 300s",
    )


# ---------------------------------------------------------------------------
# 5. gradient-equality classes at equivariant initialization


def test_criterion_5_gradient_classes_match_stabilizers(capsys):
    c4 = build_group("cyclic_2d(4)")
    o48 = build_group("octahedral_48")
    outcomes = []

    def check(label, net, x, y, want) -> None:
        # the check itself raises if any bank's identity class strays from
        # the brute-force stabilizer oracle; the expected sizes re-pin the
        # oracle against the task geometry
        try:
            res = gradient_symmetry_check(net, x, y, tol=1e-10)
        except SymmetryCheckFailed:
            outcomes.append((label, False, "class != oracle"))
            return
        got = res.identity_class
        if isinstance(want, frozenset):
            outcomes.append((label, got == want, str(len(got))))
        else:
            outcomes.append((label, len(got) == want, str(len(got))))

    net = build_discovery_net(c4, channels=4).init(5)
    x, y = gen_shape2d("square_to_rectangle", 15)
    expect = frozenset({c4.element_id("e"), c4.element_id("g2")})
    check("square_to_rectangle", net, x, y, expect)

    for task, want_size, seed in (
        ("cubic_to_tetragonal", 8, 50),
        ("cubic_to_orthorhombic", 4, 51),
    ):
        cfg = ExperimentConfig(
            task=task, group="octahedral_48", channels=2, grid_size=9
        ).validate()
        x, y = discovery_pair(cfg)
        net = build_discovery_net(o48, channels=2).init(seed)
        check(task, net, x, y, want_size)

    ok = all(good for _, good, _ in outcomes)
    sizes = ", ".join(f"{t}:{d}" for t, _, d in outcomes)
    _verdict(
        capsys, 5,
        "gradient classes at init equal Stab(input) & Stab(target) (want 2, 8, 4)",
        ok, sizes,
    )


# ---------------------------------------------------------------------------
# 6. planar discovery: preserved sets, coset structure, irrep spectra


def _aggregate_fractions(report: SymmetryReport) -> dict[str, float]:
    total: dict[str, float] = {}
    for powers in report.irrep_powers:
        for name, p in powers.items():
            total[name] = total.get(name, 0.0) + p
    s = sum(total.values())
    return {name: p / s for name, p in total.items()}


def test_criterion_6_planar_discovery_patterns(capsys):
    t0 = time.perf_counter()
    reports = {}
    for task in ("square_to_square", "square_to_rectangle", "square_to_asymmetric"):
        _, stats = train(ExperimentConfig(**DISCOVERY_FIXTURES[task]).validate())
        reports[task] = stats.report
    dt = time.perf_counter() - t0

    c4 = reports["square_to_square"].group
    e, g, g2, g3 = (c4.element_id(n) for n in ("e", "g", "g2", "g3"))

    r1 = reports["square_to_square"]
    f1 = _aggregate_fractions(r1)
    max_w = max(float(np.max(np.abs(w))) for w in r1.weights)
    ok1 = (
        r1.preserved == frozenset({e, g, g2, g3})
        and float(np.max(r1.deviations)) < 1e-3 * max_w
        and 1.0 - f1["trivial"] < 1e-3
    )

    r2 = reports["square_to_rectangle"]
    f2 = _aggregate_fractions(r2)
    coset_ok = True
    for w in r2.weights:
        for row in w:
            gap = abs(row[e] - row[g])
            coset_ok = coset_ok and abs(row[e] - row[g2]) < 0.1 * gap
            coset_ok = coset_ok and abs(row[g] - row[g3]) < 0.1 * gap
    ok2 = (
        r2.preserved == frozenset({e, g2})
        and coset_ok
        and f2["freq1"] + f2["freq3"] < 1e-3
    )

    r3 = reports["square_to_asymmetric"]
    f3 = _aggregate_fractions(r3)
    ok3 = r3.preserved == frozenset({e}) and all(v > 1e-3 for v in f3.values())

    _verdict(
        capsys, 6,
        "trained planar nets: full/half/no symmetry kept, spectra localized",
        ok1 and ok2 and ok3 and dt < 600.0,
        f"preserved sizes {len(r1.preserved)},{len(r2.preserved)},{len(r3.preserved)}"
        f"; {dt:.0f}s < 600s",
    )


# ---------------------------------------------------------------------------
# 7. voxel discovery recovers the crystal stabilizers


@pytest.mark.slow
def test_criterion_7_voxel_discovery_recovers_stabilizers(capsys):
    t0 = time.perf_counter()
    got = {}
    for task, want_size in (("cubic_to_tetragonal", 8), ("cubic_to_orthorhombic", 4)):
        cfg = ExperimentConfig(**DISCOVERY_FIXTURES[task]).validate()
        model, stats = train(cfg)
        x, y = discovery_pair(cfg)
        sx, _ = stabilizer_of_grid(model.group, x)
        sy, _ = stabilizer_of_grid(model.group, y)
        oracle = frozenset(sx & sy)
        got[task] = (stats.report, oracle, want_size)
    dt = time.perf_counter() - t0

    ok = all(
        rep.preserved == oracle and len(oracle) == want and rep.preserved_is_subgroup
        for rep, oracle, want in got.values()
    )
    sizes = ", ".join(f"{t}:{len(rep.preserved)}" for t, (rep, _, _) in got.items())
    _verdict(
        capsys, 7,
        "trained voxel nets keep exactly the 8- and 4-element stabilizers",
        ok and dt < 1800.0, f"{sizes}; {dt:.0f}s < 1800s",
    )


# ---------------------------------------------------------------------------
# 8. super-resolution orderings across model families


@pytest.mark.slow
def test_criterion_8_superres_orderings(capsys):
    t0 = time.perf_counter()
    finals: dict[tuple[str, str], list[float]] = {}
    mean_dev: dict[str, list[float]] = {}
    beats_baseline = []

    for task in ("flow_channel", "flow_isotropic"):
        for seed in SUPERRES_SEEDS:
            base = ExperimentConfig(
                task=task, layer_kind="relaxed_equiv", seed=seed, **SUPERRES_ACCEPTANCE
            ).validate()
            data = load_flow_dataset(base)
            trilinear = eval_l1(
                lambda s: trilinear_upsample(s[-3:], 4), data.val, np.float32
            )
            target = param_count(build_model(base))
            for kind in ("conv", "equiv", "relaxed_equiv"):
                cfg = replace(
                    base,
                    layer_kind=kind,
                    match_params=target if kind == "conv" else 0,
                )
                _, stats = train(cfg)
                val = stats.val_losses[-1]
                finals.setdefault((task, kind), []).append(val)
                beats_baseline.append(val <= 0.8 * trilinear)
                if kind == "relaxed_equiv":
                    mean_dev.setdefault(task, []).append(
                        float(np.mean(stats.report.deviations[1:]))
                    )
    dt = time.perf_counter() - t0

    mean = lambda key: float(np.mean(finals[key]))
    ok_baseline = all(beats_baseline)
    ok_channel = mean(("flow_channel", "relaxed_equiv")) <= mean(("flow_channel", "equiv"))
    ok_iso = mean(("flow_isotropic", "equiv")) <= mean(("flow_isotropic", "conv"))
    ratio = float(np.mean(mean_dev["flow_channel"]) / np.mean(mean_dev["flow_isotropic"]))

    _verdict(
        capsys, 8,
        "all nets beat trilinear by 20%; relaxed<=equiv on channel, equiv<=conv "
        "on isotropic; weight deviations concentrate on channel flow",
        ok_baseline and ok_channel and ok_iso and ratio > 2.0 and dt < 10800.0,
        f"deviation ratio {ratio:.1f} > 2; {dt:.0f}s < 3h",
    )


# ---------------------------------------------------------------------------
# 9. serialization golden fixtures


def test_criterion_9_format_goldens(capsys, tmp_path):
    ok = True

    # tensor container round-trip, bit for bit
    rng = np.random.default_rng(9)
    blobs = [
        ("kernels", rng.standard_normal((2, 3, 9))),
        ("w", rng.standard_normal((2, 4)).astype(np.float32)),
        ("empty", np.zeros((0, 5))),
        ("scalar", np.array(np.pi)),
    ]
    path = str(tmp_path / "ck.rgt1")
    write_rgt1(path, blobs)
    back = read_rgt1(path)
    ok = ok and list(back) == [n for n, _ in blobs]
    for name, arr in blobs:
        got = back[name]
        ok = ok and got.dtype == arr.dtype and got.shape == arr.shape
        ok = ok and got.tobytes() == arr.tobytes()

    # the scalar record's exact byte layout
    write_rgt1(str(tmp_path / "one.rgt1"), [("x", np.array(1.5))])
    raw = (tmp_path / "one.rgt1").read_bytes()
    ok = ok and raw[:4] == b"RGT1" and len(raw) == 21
    ok = ok and struct.unpack("<I", raw[4:8])[0] == 1
    ok = ok and struct.unpack("<H", raw[8:10])[0] == 1 and raw[10:11] == b"x"
    ok = ok and raw[11] == 0 and raw[12] == 0  # f64, rank 0
    ok = ok and struct.unpack("<d", raw[13:21])[0] == 1.5

    # symmetry report CSVs against hand-frozen bytes
    c4 = build_group("cyclic_2d(4)")
    rep = SymmetryReport(
        group=c4,
        layer_names=["layer0_RelaxedGConvLayer"],
        weights=[np.array([[1.0, 1.0, 0.5, 0.5]])],
        deviations=np.array([0.0, 0.0, 0.5, 0.5]),
        tau=0.025,
        preserved=frozenset({0, 1}),
        preserved_is_subgroup=True,
        subgroup=frozenset({0, 1}),
        irrep_powers=[{"trivial": 2.25, "freq1": 0.0, "sign": 0.25, "freq3": 0.0}],
    )
    write_report_csv(rep, str(tmp_path))
    ok = ok and (tmp_path / "weights.csv").read_bytes() == (
        b"layer,l,element_id,element_name,weight,deviation\r\n"
        b"layer0_RelaxedGConvLayer,0,0,e,1,0\r\n"
        b"layer0_RelaxedGConvLayer,0,1,g2,1,0\r\n"
        b"layer0_RelaxedGConvLayer,0,2,g3,0.5,0.5\r\n"
        b"layer0_RelaxedGConvLayer,0,3,g,0.5,0.5\r\n"
    )
    ok = ok and (tmp_path / "irreps.csv").read_bytes() == (
        b"layer,irrep_name,power,power_fraction\r\n"
        b"layer0_RelaxedGConvLayer,trivial,2.25,0.9\r\n"
        b"layer0_RelaxedGConvLayer,freq1,0,0\r\n"
        b"layer0_RelaxedGConvLayer,sign,0.25,0.1\r\n"
        b"layer0_RelaxedGConvLayer,freq3,0,0\r\n"
    )
    ok = ok and (tmp_path / "summary.csv").read_bytes() == (
        b"tau,preserved,preserved_is_subgroup,subgroup\r\n"
        b'0.025,"e,g2",True,"e,g2"\r\n'
    )

    # grayscale image golden bytes
    img = str(tmp_path / "w.pgm")
    write_pgm(img, np.array([[0.0, 1.0], [1.0, 0.0]]))
    ok = ok and open(img, "rb").read() == b"P5\n2 2\n255\n\x00\xff\xff\x00"

    _verdict(
        capsys, 9,
        "tensor container bit-exact; CSV and PGM match golden bytes",
        ok,
    )
