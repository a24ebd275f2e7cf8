"""Model assembly: discovery and super-resolution networks, residual blocks,
parameter bookkeeping, and conv-baseline width matching."""

import numpy as np
import pytest

from rgconv import (
    ConfigError,
    ExperimentConfig,
    GroupPool,
    Network,
    ResidualBlock,
    build_discovery_net,
    build_group,
    build_superres_net,
    equivariance_error,
    gen_flow_dataset,
    load_checkpoint,
    matched_conv_channels,
    param_count,
    save_checkpoint,
    transform_grid,
)
from rgconv import autodiff
from rgconv.autodiff import Tensor, TapeNode, backward, sum_, tensor, zero_grads
from rgconv.layers import (
    ConvLayer,
    GroupUpsampleConv,
    LiftingLayer,
    ReLULayer,
    RelaxedGConvLayer,
    SeparableRelaxedGConvLayer,
)

from group_features import transform_group_feature

C4 = build_group("cyclic_2d(4)")
O24 = build_group("octahedral_24")


def test_discovery_net_structure():
    net = build_discovery_net(C4, banks=1, channels=8)
    wl = net.weight_layers()
    assert len(wl) == 3  # lifting + two group convs
    for ly in wl:
        assert ly.relaxed
        assert ly.w.shape == (1, 4)
    assert net.group is C4


def test_discovery_net_forward_shape_and_equivariance():
    net = build_discovery_net(O24, banks=2, channels=2).init(0)
    x = np.random.default_rng(0).normal(size=(1, 1, 9, 9, 9))
    out = net(tensor(x))
    assert out.shape == (1, 1, 9, 9, 9)
    err = equivariance_error(net, O24, x[0])
    assert err.ok(1e-10), str(err)


def test_flow_net_trunk_is_equivariant_on_the_data_grid():
    # lifting plus residual blocks on an 8^3 flow sample, turned about the
    # grid centre (3.5): regular output, and scalar after the group pool
    net = build_superres_net("equiv", O24, channels=2, blocks=2).init(0)
    trunk = Network(net.modules[:4], group=O24)
    x, _ = gen_flow_dataset(0, 1, size=(32, 32, 32)).samples[0]
    assert x.shape == (9, 8, 8, 8)
    with autodiff.no_grad():
        base = trunk(tensor(x[None])).data
        worst = max(
            float(np.max(np.abs(trunk(tensor(transform_grid(O24, g, x[None]))).data
                                - transform_group_feature(O24, g, base))))
            for g in range(O24.order)
        )
    assert worst < 1e-10, worst
    err = equivariance_error(Network(net.modules[:4] + [GroupPool()], group=O24), O24, x)
    assert err.ok(1e-10), str(err)


def test_discovery_net_named_params_stable():
    a = build_discovery_net(C4, banks=1, channels=4).init(0)
    b = build_discovery_net(C4, banks=1, channels=4).init(0)
    na, nb = a.named_params(), b.named_params()
    assert [n for n, _ in na] == [n for n, _ in nb]
    assert len({n for n, _ in na}) == len(na)
    for (_, pa), (_, pb) in zip(na, nb):
        assert np.array_equal(pa.data, pb.data)


def test_discovery_net_names_and_earlier_checkpoints(tmp_path):
    # the net pools inside its last layer; a checkpoint of the same net with
    # an unpooled last layer and a trailing GroupPool loads with equal outputs
    config = ExperimentConfig(task="square_to_rectangle", channels=3, banks=2)
    names = [n for n, _ in build_discovery_net(C4, banks=2, channels=3).named_params()]
    assert names == [f"layer{i}.{a}" for i in (0, 2, 4) for a in ("kernels", "w")]
    common = dict(banks=2, relaxed=True)
    earlier = Network(
        [
            LiftingLayer(C4, 1, 3, **common),
            ReLULayer(),
            RelaxedGConvLayer(C4, 3, 3, **common),
            ReLULayer(),
            RelaxedGConvLayer(C4, 3, 1, **common),
            GroupPool(),
        ],
        group=C4,
    ).init(4)
    rng = np.random.default_rng(5)
    for ly in earlier.weight_layers():
        ly.w.data[...] = rng.uniform(0.5, 1.5, size=ly.w.shape)
    save_checkpoint(str(tmp_path), earlier, config)
    loaded, _, _ = load_checkpoint(str(tmp_path))
    x = tensor(rng.normal(size=(2, 1, 7, 6)))
    want, got = earlier(x).data, loaded(x).data
    assert got.shape == want.shape == (2, 1, 7, 6)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _unfused_superres_net(layer_kind, group, c, blocks, kernel_size=3):
    # build_superres_net as it was before the last upsampling stage took its
    # ReLU and the group pool inside (pool=True)
    common = dict(banks=1, kernel_size=kernel_size, relaxed=layer_kind == "relaxed_equiv")
    mods = [LiftingLayer(group, 9, c, **common), ReLULayer()]
    for _ in range(blocks):
        mods.append(ResidualBlock(SeparableRelaxedGConvLayer(group, c, c, **common),
                                  SeparableRelaxedGConvLayer(group, c, c, **common)))
    for _ in range(2):
        mods += [GroupUpsampleConv(group, c, c, kernel_size), ReLULayer()]
    mods += [GroupPool(), ConvLayer(3, c, 3, kernel_size)]
    return Network(mods, group=group)


@pytest.mark.parametrize("layer_kind", ["equiv", "relaxed_equiv"])
def test_superres_net_names_and_earlier_checkpoints(tmp_path, layer_kind):
    # the last upsampling layer pools inside; every layerN.attr name stays as
    # with its ReLU and a GroupPool after it, and a checkpoint of that net
    # loads with equal outputs
    config = ExperimentConfig(task="flow_isotropic", group="octahedral_24",
                              layer_kind=layer_kind, channels=2, blocks=2, banks=1,
                              flow_size=12)
    earlier = _unfused_superres_net(layer_kind, O24, 2, 2).init(8)
    rng = np.random.default_rng(9)
    for ly in earlier.weight_layers():
        if ly.relaxed:  # frozen weights are not in the checkpoint
            ly.w.data[...] = rng.uniform(0.5, 1.5, size=ly.w.shape)
    names = [n for n, _ in build_superres_net(
        layer_kind, O24, channels=2, blocks=2, banks=1).named_params()]
    assert names == [n for n, _ in earlier.named_params()]
    assert names[-3:] == ["layer6.kernel", "layer8.kernel", "layer11.kernel"]
    save_checkpoint(str(tmp_path), earlier, config)
    loaded, _, _ = load_checkpoint(str(tmp_path))
    assert loaded.layers[-2].pool and not any(
        isinstance(ly, GroupPool) for ly in loaded.layers)
    x = tensor(rng.normal(size=(2, 9, 3, 3, 3)))
    want, got = earlier(x).data, loaded(x).data
    assert got.shape == want.shape == (2, 3, 12, 12, 12)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class _Raises:
    def params(self):
        return []

    def __call__(self, x):
        raise RuntimeError("module failed")


def test_raising_forward_releases_its_tape():
    net = build_discovery_net(C4, channels=3).init(6)
    x = tensor(np.random.default_rng(7).normal(size=(1, 1, 7, 7)))
    params = net.params()

    def step_grads(y):
        zero_grads(params)
        backward(sum_(y), params=params)
        return [p.grad.copy() for p in params]

    fresh = step_grads(net(x))
    failing = Network(net.modules + [_Raises()], group=C4)
    with pytest.raises(RuntimeError):
        failing(x)
    tape = autodiff._ACTIVE_TAPE
    assert tape is None or not tape.nodes
    for a, b in zip(fresh, step_grads(net(x))):
        assert np.array_equal(a, b)
    # nodes recorded before the failing forward stay for their backward
    y = net(x)
    kept = len(autodiff._ACTIVE_TAPE.nodes)
    with pytest.raises(RuntimeError):
        failing(x)
    assert len(autodiff._ACTIVE_TAPE.nodes) == kept
    for a, b in zip(fresh, step_grads(y)):
        assert np.array_equal(a, b)


def small_net(kind, rng):
    """A net of ``kind`` (a superres layer kind, or ``discovery_c4``) and an
    input for it."""
    if kind == "discovery_c4":
        return build_discovery_net(C4, channels=2).init(0), rng.normal(size=(1, 1, 7, 7))
    net = build_superres_net(kind, group=None if kind == "conv" else O24,
                             channels=2, blocks=1, banks=1).init(0)
    return net, rng.normal(size=(1, 9, 3, 3, 3))


@pytest.mark.parametrize("kind", ["conv", "equiv", "relaxed_equiv", "discovery_c4"])
def test_tape_holds_no_interior_tensor(kind):
    # the tape keeps a node per interior input and the arrays its pulls
    # read; a pull that closes over a Tensor would keep that Tensor's array
    # alive until backward ends
    net, x = small_net(kind, np.random.default_rng(11))
    out = sum_(net(tensor(x)))
    params = net.params()
    nodes = out.node.tape.nodes
    assert nodes[-1] is out.node
    for node in nodes:
        for ref in node.parents:
            assert ref is None or type(ref) is TapeNode or (
                isinstance(ref, Tensor) and ref.node is None
                and any(ref is p for p in params)), node.op
        for cell in node.pull.__closure__ or ():
            assert not isinstance(cell.cell_contents, Tensor), node.op
    backward(out, params=params)


@pytest.mark.parametrize("kind", ["conv", "relaxed_equiv", "discovery_c4"])
def test_owned_gradients_are_bitwise_those_of_copying_pulls(kind):
    # backward lets a pull that owns its g (a ReLU's) write it in place;
    # handing every pull a read-only g instead, so that all of them copy,
    # gives the same gradients bit for bit
    rng = np.random.default_rng(12)
    net, x = small_net(kind, rng)
    params, grads, owned = net.params(), [], []
    for copying in (False, True):
        out = sum_(net(tensor(x)))
        for node in out.node.tape.nodes:
            def pull(g, real=node.pull, op=node.op):
                if copying:
                    g = g.view()
                    g.flags.writeable = False
                owned.append((copying, op, g.flags.writeable))
                return real(g)

            node.pull = pull
        zero_grads(params)
        backward(out, params=params)
        grads.append([p.grad.copy() for p in params])
    assert (False, "relu", True) in owned and not any(c and w for c, _, w in owned)
    for a, b in zip(*grads):
        assert np.array_equal(a, b)


def test_init_seed_changes_weights():
    a = build_discovery_net(C4, channels=4).init(0)
    b = build_discovery_net(C4, channels=4).init(1)
    pa, pb = a.named_params(), b.named_params()
    assert any(not np.array_equal(x.data, y.data) for (_, x), (_, y) in zip(pa, pb))


def test_param_count_matches_sum():
    net = build_discovery_net(C4, banks=1, channels=4).init(0)
    assert param_count(net) == sum(p.size for p in net.params())


def test_group_pool_is_mean_over_group_axis():
    pool = GroupPool()
    x = np.random.default_rng(1).normal(size=(2, 3, 4, 5, 5))
    out = pool(tensor(x))
    assert np.allclose(out.data, x.mean(axis=2))


def test_residual_block_forward():
    rng = np.random.default_rng(2)
    conv1 = ConvLayer(2, 3, 3, kernel_size=3)
    conv2 = ConvLayer(2, 3, 3, kernel_size=3)
    block = ResidualBlock(conv1, conv2)
    for ly in (conv1, conv2):
        ly.init(rng)
    x = rng.normal(size=(1, 3, 7, 7))
    out = block(tensor(x)).data
    h = np.maximum(conv1(tensor(x)).data, 0.0)
    want = np.maximum(x + conv2(tensor(h)).data, 0.0)
    assert np.allclose(out, want)
    assert len(block.params()) == 2


def test_superres_group_net_shapes():
    for kind in ("equiv", "relaxed_equiv"):
        net = build_superres_net(kind, group=O24, channels=2, blocks=1,
                                 banks=1, dtype=np.float32).init(0)
        x = np.random.default_rng(3).normal(size=(1, 9, 4, 4, 4)).astype(np.float32)
        out = net(tensor(x))
        assert out.shape == (1, 3, 16, 16, 16)
        assert out.dtype == np.float32


def test_superres_conv_net_shape():
    net = build_superres_net("conv", channels=6, blocks=2).init(0)
    x = np.random.default_rng(4).normal(size=(1, 9, 4, 4, 4))
    assert net(tensor(x)).shape == (1, 3, 16, 16, 16)


def test_equiv_and_relaxed_identical_at_init():
    a = build_superres_net("equiv", group=O24, channels=2, blocks=1, banks=2).init(7)
    b = build_superres_net("relaxed_equiv", group=O24, channels=2, blocks=1,
                           banks=2).init(7)
    x = np.random.default_rng(5).normal(size=(1, 9, 4, 4, 4))
    ya, yb = a(tensor(x)).data, b(tensor(x)).data
    assert np.max(np.abs(ya - yb)) < 1e-12


def test_relaxed_trains_w_equiv_freezes_it():
    eq = build_superres_net("equiv", group=O24, channels=2, blocks=1, banks=2).init(0)
    rx = build_superres_net("relaxed_equiv", group=O24, channels=2, blocks=1,
                            banks=2).init(0)
    assert param_count(rx) > param_count(eq)
    diff = param_count(rx) - param_count(eq)
    n_w = sum(ly.w.size for ly in rx.weight_layers())
    assert diff == n_w


def test_matched_conv_channels_is_argmin():
    target = 50_000

    def cost(c):
        return abs(param_count(build_superres_net("conv", channels=c, blocks=2)
                                ) - target)

    c = matched_conv_channels(target, blocks=2)
    assert cost(c) <= cost(c - 1) and cost(c) <= cost(c + 1)


def test_match_params_builds_conv_near_target():
    group_net = build_superres_net("relaxed_equiv", group=O24, channels=4, blocks=2)
    target = param_count(group_net)
    conv_net = build_superres_net("conv", channels=8, blocks=2, match_params=target)
    got = param_count(conv_net)
    # within one channel increment of the target
    assert abs(got - target) / target < 0.35


def test_conv_at_group_total_width_has_more_params():
    # a group net with C channels carries C*|H| scalar fields; a plain conv
    # given that full width always costs more parameters than the separable
    # factorization
    c = 4
    group_net = build_superres_net("relaxed_equiv", group=O24, channels=c, blocks=2)
    conv_net = build_superres_net("conv", channels=c * O24.order, blocks=2)
    assert param_count(conv_net) > param_count(group_net)


def test_build_rejects_bad_args():
    with pytest.raises(ConfigError):
        build_superres_net("dense", group=O24)
    with pytest.raises(ConfigError):
        build_superres_net("equiv", group=None)
    with pytest.raises(ConfigError):
        build_superres_net("conv", blocks=0)
    with pytest.raises(ConfigError):
        build_superres_net("equiv", group=O24, match_params=1000)
    with pytest.raises(ConfigError):
        build_discovery_net(C4, banks=0)


def test_network_flattens_nested_children():
    net = build_superres_net("conv", channels=4, blocks=2)
    flat = net.layers
    assert sum(isinstance(m, ConvLayer) for m in flat) >= 2 * 2 + 2
    assert all(not isinstance(m, (ResidualBlock, Network)) for m in flat)
