"""Symmetry probes: equivariance measurement, isotypic decomposition,
relaxed-weight reports, and the gradient symmetry check.

The gradient fixtures compare against stabilizers re-derived from element
matrices, never against the layer code under test.
"""

import csv
import os

import numpy as np
import pytest

from rgconv import (
    ConfigError,
    ContractError,
    DataError,
    Network,
    ShapeError,
    SymmetryCheckFailed,
    build_discovery_net,
    build_group,
    character_table,
    equivariance_error,
    gen_perovskite,
    gen_shape2d,
    gradient_symmetry_check,
    irrep_power,
    irrep_project,
    rasterize,
    transform_grid,
    weight_report,
    write_report_csv,
)
from rgconv.layers import ConvLayer

C4 = build_group("cyclic_2d(4)")
O48 = build_group("octahedral_48")
ALL_KINDS = ["cyclic_2d(2)", "cyclic_2d(4)", "octahedral_24", "octahedral_48"]


def fresh_net(group, seed=0, channels=4, banks=1):
    return build_discovery_net(group, banks=banks, channels=channels).init(seed)


# ---------------------------------------------------------------------------
# equivariance measurement


def test_identity_error_is_exactly_zero():
    net = fresh_net(C4)
    x = np.random.default_rng(0).normal(size=(1, 15, 15))
    err = equivariance_error(net, C4, x)
    assert err.errors[0] == 0.0


def test_fresh_c4_net_is_equivariant():
    net = fresh_net(C4, channels=6)
    for seed in range(3):
        x = np.random.default_rng(seed).normal(size=(1, 15, 15))
        err = equivariance_error(net, C4, x)
        assert err.ok(1e-10), str(err)


def test_fresh_octahedral_net_is_equivariant():
    net = fresh_net(O48, channels=2)
    x = np.random.default_rng(1).normal(size=(1, 9, 9, 9))
    err = equivariance_error(net, O48, x)
    assert err.ok(1e-10), str(err)


def test_pooled_output_invariant_under_input_transforms():
    # the discovery net ends in a group pool, so equivariance means the
    # two routes agree after the inverse transform; check plain invariance too
    net = fresh_net(C4)
    x = np.random.default_rng(2).normal(size=(1, 15, 15))[None]
    from rgconv.autodiff import tensor

    base = net(tensor(x)).data
    for g in range(C4.order):
        out = net(tensor(transform_grid(C4, g, x))).data
        assert np.max(np.abs(transform_grid(C4, int(C4.inverse[g]), out) - base)) < 1e-10


def test_nonuniform_weights_break_equivariance():
    net = fresh_net(C4)
    for ly in net.weight_layers():
        ly.w.data[:, 1] += 0.5
    x = np.random.default_rng(3).normal(size=(1, 15, 15))
    err = equivariance_error(net, C4, x)
    assert err.max_error > 1e-3
    assert not err.ok()


def test_equivariance_error_str_and_validation():
    net = fresh_net(C4)
    err = equivariance_error(net, C4, np.zeros((1, 15, 15)), description="zeros")
    assert "zeros" in str(err) and "e" in str(err)
    with pytest.raises(ShapeError):
        equivariance_error(net, C4, np.zeros((15, 15)))
    with pytest.raises(ShapeError):
        equivariance_error(net, C4, np.zeros((1, 15, 13)))


# ---------------------------------------------------------------------------
# isotypic decomposition


def test_constant_function_is_purely_trivial():
    t = character_table(C4)
    p = irrep_power(np.ones(4), t)
    assert list(p) == ["trivial", "freq1", "sign", "freq3"]
    assert p["trivial"] == pytest.approx(4.0, abs=1e-12)
    assert p["freq1"] < 1e-12 and p["sign"] < 1e-12 and p["freq3"] < 1e-12


def test_delta_spreads_power_evenly():
    t = character_table(C4)
    d = np.zeros(4)
    d[0] = 1.0  # identity element
    p = irrep_power(d, t)
    for v in p.values():
        assert v == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_parseval_and_completeness(kind):
    G = build_group(kind)
    t = character_table(G)
    w = np.random.default_rng(7).normal(size=G.order)
    comps = irrep_project(w, t)
    total = sum(c for c in comps.values())
    assert np.max(np.abs(total - w)) < 1e-10
    powers = irrep_power(w, t)
    assert sum(powers.values()) == pytest.approx(float(w @ w), abs=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_projections_idempotent_and_orthogonal(kind):
    G = build_group(kind)
    t = character_table(G)
    w = np.random.default_rng(8).normal(size=G.order)
    comps = irrep_project(w, t)
    for name, comp in comps.items():
        again = irrep_project(comp, t)
        for other, v in again.items():
            target = comp if other == name else 0.0
            assert np.max(np.abs(v - target)) < 1e-9, (name, other)


def test_subgroup_constant_function_has_no_sign_power():
    # constant on {e, g2}-cosets: invariant under right shift by g2, so only
    # irreps trivial on g2 (trivial, sign have chi(g2) = 1... sign(g2) = +1;
    # freq1/freq3 have chi(g2) = -1 and must vanish)
    ids = {name: i for i, name in enumerate(C4.names)}
    w = np.zeros(4)
    w[ids["e"]] = w[ids["g2"]] = 2.0
    w[ids["g"]] = w[ids["g3"]] = -1.0
    p = irrep_power(w, character_table(C4))
    assert p["freq1"] < 1e-12 and p["freq3"] < 1e-12
    assert p["trivial"] > 0 and p["sign"] > 0


def test_irrep_project_rejects_wrong_length():
    with pytest.raises(ShapeError):
        irrep_project(np.ones(5), character_table(C4))


# ---------------------------------------------------------------------------
# weight reports


def test_fresh_net_reports_full_group():
    net = fresh_net(C4)
    rep = weight_report(net.weight_layers())
    assert rep.tau == pytest.approx(1e-6)
    assert rep.preserved == frozenset(range(4))
    assert rep.preserved_is_subgroup and rep.subgroup == rep.preserved
    assert rep.preserved_names == ("e", "g2", "g3", "g")


def test_hand_set_weights_report_half_turn_subgroup():
    ids = {name: i for i, name in enumerate(C4.names)}
    net = fresh_net(C4)
    for ly in net.weight_layers():
        ly.w.data[:, ids["g"]] = 0.3
        ly.w.data[:, ids["g3"]] = 0.25
    rep = weight_report(net.weight_layers())
    assert set(rep.preserved_names) == {"e", "g2"}
    assert rep.preserved_is_subgroup
    assert rep.tau == pytest.approx(0.05 * 0.75)


def test_non_closed_preserved_set_falls_back_to_closure():
    ids = {name: i for i, name in enumerate(C4.names)}
    net = fresh_net(C4)
    for ly in net.weight_layers():
        ly.w.data[:, ids["g"]] = 5.0  # only g deviates strongly
    rep = weight_report(net.weight_layers())
    # {e, g2, g3} survives the threshold but is not closed: g3*g3 = g2, fine,
    # but g2*g3 = g is missing, so the subgroup drops to {e, g2}
    assert set(rep.preserved_names) == {"e", "g2", "g3"}
    assert not rep.preserved_is_subgroup
    assert set(rep.subgroup_names) == {"e", "g2"}


def test_weight_report_respects_explicit_tau():
    net = fresh_net(C4)
    for ly in net.weight_layers():
        ly.w.data[:, 1:] += 1e-4
    rep_tight = weight_report(net.weight_layers(), tau=1e-5)
    rep_loose = weight_report(net.weight_layers(), tau=1e-3)
    assert rep_tight.preserved_names == ("e",)
    assert len(rep_loose.preserved) == 4


def test_weight_report_csv_output(tmp_path):
    ids = {name: i for i, name in enumerate(C4.names)}
    net = fresh_net(C4)
    for ly in net.weight_layers():
        ly.w.data[:, ids["g"]] = 0.0
        ly.w.data[:, ids["g3"]] = 0.0
    out = str(tmp_path)
    rep = weight_report(net.weight_layers())
    write_report_csv(rep, out)
    for fname in ("weights.csv", "irreps.csv", "summary.csv"):
        assert os.path.exists(os.path.join(out, fname))

    rows = list(csv.DictReader(open(os.path.join(out, "summary.csv"))))
    assert rows[0]["preserved"] == "e,g2"
    assert rows[0]["preserved_is_subgroup"] == "True"

    wrows = list(csv.DictReader(open(os.path.join(out, "weights.csv"))))
    assert {r["element_name"] for r in wrows} == set(C4.names)
    first = [r for r in wrows if r["layer"] == rep.layer_names[0] and r["l"] == "0"]
    got = {r["element_name"]: float(r["weight"]) for r in first}
    want = {name: float(v) for name, v in zip(C4.names, rep.weights[0][0])}
    assert got == pytest.approx(want)

    irows = list(csv.DictReader(open(os.path.join(out, "irreps.csv"))))
    by_layer = {}
    for r in irows:
        by_layer.setdefault(r["layer"], 0.0)
        by_layer[r["layer"]] += float(r["power"])
    # Parseval per layer, read back through the CSV
    for name, w, total in zip(rep.layer_names, rep.weights, by_layer.values()):
        assert total == pytest.approx(float(np.sum(np.asarray(w) ** 2)), rel=1e-9)
    fr = [float(r["power_fraction"]) for r in irows if r["layer"] == rep.layer_names[0]]
    assert sum(fr) == pytest.approx(1.0, abs=1e-9)


def test_report_csv_golden_bytes(tmp_path):
    # hand-built report with exactly representable numbers, frozen byte-level
    from rgconv.probe import SymmetryReport

    rep = SymmetryReport(
        group=C4,
        layer_names=["layer0_RelaxedGConvLayer"],
        weights=[np.array([[1.0, 1.0, 0.5, 0.5]])],
        deviations=np.array([0.0, 0.0, 0.5, 0.5]),
        tau=0.025,
        preserved=frozenset({0, 1}),
        preserved_is_subgroup=True,
        subgroup=frozenset({0, 1}),
        irrep_powers=[{"trivial": 2.25, "freq1": 0.0, "sign": 0.25, "freq3": 0.0}],
    )
    out = str(tmp_path)
    write_report_csv(rep, out)
    got = {f: open(os.path.join(out, f), "rb").read()
           for f in ("weights.csv", "irreps.csv", "summary.csv")}
    assert got["weights.csv"] == (
        b"layer,l,element_id,element_name,weight,deviation\r\n"
        b"layer0_RelaxedGConvLayer,0,0,e,1,0\r\n"
        b"layer0_RelaxedGConvLayer,0,1,g2,1,0\r\n"
        b"layer0_RelaxedGConvLayer,0,2,g3,0.5,0.5\r\n"
        b"layer0_RelaxedGConvLayer,0,3,g,0.5,0.5\r\n"
    )
    assert got["irreps.csv"] == (
        b"layer,irrep_name,power,power_fraction\r\n"
        b"layer0_RelaxedGConvLayer,trivial,2.25,0.9\r\n"
        b"layer0_RelaxedGConvLayer,freq1,0,0\r\n"
        b"layer0_RelaxedGConvLayer,sign,0.25,0.1\r\n"
        b"layer0_RelaxedGConvLayer,freq3,0,0\r\n"
    )
    assert got["summary.csv"] == (
        b"tau,preserved,preserved_is_subgroup,subgroup\r\n"
        b'0.025,"e,g2",True,"e,g2"\r\n'
    )


def test_weight_report_rejects_bad_layer_sets():
    with pytest.raises(ConfigError):
        weight_report([])
    c2net = fresh_net(build_group("cyclic_2d(2)"))
    c4net = fresh_net(C4)
    with pytest.raises(ConfigError):
        weight_report(c2net.weight_layers() + c4net.weight_layers())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weight_report_rejects_non_finite_weights(bad):
    # a NaN deviation compares False against tau, so it used to read as
    # preserved; an Inf made tau infinite and everything else preserved
    net = fresh_net(C4)
    layer = net.weight_layers()[1]
    layer.w.data[0, 3] = bad
    name = f"layer1_{type(layer).__name__}"
    with pytest.raises(DataError, match=f"{name} .* element {C4.names[3]}"):
        weight_report(net.weight_layers())


# ---------------------------------------------------------------------------
# gradient symmetry


@pytest.mark.parametrize("task,want", [
    ("square_to_square", {"e", "g", "g2", "g3"}),
    ("square_to_rectangle", {"e", "g2"}),
    ("square_to_asymmetric", {"e"}),
])
def test_gradient_classes_match_planar_stabilizers(task, want):
    net = fresh_net(C4, seed=1)
    x, y = gen_shape2d(task)
    res = gradient_symmetry_check(net, x, y)
    assert {C4.names[g] for g in res.identity_class} == want
    assert {C4.names[g] for g in res.oracle} == want


def test_gradient_partition_is_the_coset_partition():
    # with equal weights the gradient is constant on Stab-cosets, so the
    # rectangle task must split C4 into exactly {e,g2} and {g,g3}
    net = fresh_net(C4, seed=2)
    x, y = gen_shape2d("square_to_rectangle")
    res = gradient_symmetry_check(net, x, y)
    ids = {name: i for i, name in enumerate(C4.names)}
    want = {frozenset({ids["e"], ids["g2"]}), frozenset({ids["g"], ids["g3"]})}
    for layer, l, classes in res.partitions:
        assert set(classes) == want, (layer, l)


def matrix_stabilizer(group, direction):
    d = np.asarray(direction)
    return frozenset(
        g for g in range(group.order)
        if np.array_equal(group.elements[g].matrix @ d, d)
    )


@pytest.mark.parametrize("phase,axis,size", [
    ("tetragonal", [0, 0, 1], 8),
    ("orthorhombic", [0, 1, 1], 4),
])
def test_gradient_classes_match_voxel_stabilizers(phase, axis, size):
    net = fresh_net(O48, seed=3, channels=2)
    x = rasterize(gen_perovskite("cubic", grid=9), channels=1)
    y = rasterize(gen_perovskite(phase, grid=9), channels=1)
    res = gradient_symmetry_check(net, x, y)
    want = matrix_stabilizer(O48, axis)
    assert len(want) == size
    assert res.identity_class == want
    assert res.oracle == want


def test_gradient_check_uses_every_relaxed_layer_and_bank():
    net = fresh_net(C4, seed=4, banks=2)
    x, y = gen_shape2d("square_to_rectangle")
    res = gradient_symmetry_check(net, x, y)
    seen = {(layer, l) for layer, l, _ in res.partitions}
    assert len(seen) == 3 * 2  # three relaxed layers, two banks each


def test_gradient_check_demands_equal_weights():
    net = fresh_net(C4)
    net.weight_layers()[0].w.data[0, 1] += 1e-3
    x, y = gen_shape2d("square_to_rectangle")
    with pytest.raises(ContractError):
        gradient_symmetry_check(net, x, y)


def test_gradient_check_zero_tolerance_trips_failure():
    # fp noise splits the classes when the grouping tolerance is zero
    net = fresh_net(C4, seed=5)
    x, y = gen_shape2d("square_to_rectangle")
    with pytest.raises(SymmetryCheckFailed):
        gradient_symmetry_check(net, x, y, tol=0.0)


def test_gradient_check_on_a_plain_conv_net_is_a_config_error():
    net = Network([ConvLayer(2, 1, 1, 3)]).init(0)
    x, y = gen_shape2d("square_to_rectangle", 9)
    with pytest.raises(ConfigError, match="group"):
        gradient_symmetry_check(net, x, y)


def test_gradient_result_str():
    net = fresh_net(C4, seed=6)
    x, y = gen_shape2d("square_to_rectangle")
    res = gradient_symmetry_check(net, x, y)
    assert str(res) == "identity gradient class (2 elements): e,g2"
