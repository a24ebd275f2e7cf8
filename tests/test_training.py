"""Training loops, checkpointing, and the experiment config surface."""

import dataclasses
import json
import os

import numpy as np
import pytest

from rgconv import (
    ConfigError,
    ExperimentConfig,
    ShapeError,
    TrainingDiverged,
    build_model,
    load_checkpoint,
    param_count,
    save_checkpoint,
    train,
    write_rgt1,
)
from rgconv.training import (
    discovery_pair,
    eval_l1,
    load_flow_dataset,
    model_predictor,
    trilinear_upsample,
)

SMALL_FLOW = dict(
    task="flow_isotropic", group="octahedral_24", channels=2, blocks=1,
    banks=1, epochs=2, batch_size=2, n_samples=6, flow_size=16,
    precision="f32",
)


def cfg(**kw):
    return ExperimentConfig(**kw).validate()


# ---------------------------------------------------------------------------
# config surface


def test_config_defaults_validate():
    c = cfg(task="square_to_rectangle")
    assert c.group == "cyclic_2d(4)" and c.layer_kind == "relaxed_equiv"


def test_config_rejects_bad_values():
    bad = [
        dict(task="square_to_circle"),
        dict(task="square_to_square", layer_kind="conv"),
        dict(task="square_to_square", layer_kind="dense"),
        dict(task="flow_isotropic", layer_kind="equiv", group="cyclic_2d(4)"),
        dict(task="square_to_square", kernel_size=4),
        dict(task="square_to_square", banks=0),
        dict(task="square_to_square", epochs=-1),
        dict(task="square_to_square", lr=0.0),
        dict(task="square_to_square", lr=1e300, precision="f32"),  # beyond f32
        dict(task="square_to_square", optimizer="rmsprop"),
        dict(task="square_to_square", precision="f16"),
        dict(task="square_to_square", grid_size=14),
        dict(task="flow_isotropic", group="octahedral_24", flow_size=30),
        dict(task="square_to_square", match_params=100),
        # a kernel larger than the grid its first conv runs on
        dict(task="square_to_square", kernel_size=17),
        dict(task="cubic_to_tetragonal", group="octahedral_48", grid_size=9,
             kernel_size=11),
        dict(task="flow_isotropic", group="octahedral_24", flow_size=16,
             kernel_size=5),
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            cfg(**kw)
    # a loaded dataset's grid comes from the file, so the conv checks it
    cfg(task="flow_isotropic", group="octahedral_24", flow_size=16, kernel_size=5,
        data_path="flow.rgt1")


def test_config_json_round_trip(tmp_path):
    c = cfg(task="cubic_to_tetragonal", group="octahedral_48", epochs=7)
    p = os.path.join(str(tmp_path), "c.json")
    with open(p, "w") as fh:
        json.dump(dataclasses.asdict(c), fh)
    again = ExperimentConfig.from_json(p)
    assert again == c


def test_config_rejects_unknown_keys_and_bad_json(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"task": "square_to_square", "warmup": 5})
    p = os.path.join(str(tmp_path), "bad.json")
    open(p, "w").write("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(p)


# ---------------------------------------------------------------------------
# training loops


def test_discovery_training_is_bitwise_deterministic():
    c = cfg(task="square_to_rectangle", epochs=8)
    m1, s1 = train(c)
    m2, s2 = train(c)
    assert s1.train_losses == s2.train_losses
    for (n1, p1), (n2, p2) in zip(m1.named_params(), m2.named_params()):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)


def test_superres_training_is_bitwise_deterministic():
    c = cfg(**SMALL_FLOW)
    _, s1 = train(c)
    _, s2 = train(c)
    assert s1.train_losses == s2.train_losses
    assert s1.val_losses == s2.val_losses
    assert s1.test_mae == s2.test_mae


from fixtures import DISCOVERY_FIXTURES


@pytest.mark.parametrize("name", sorted(DISCOVERY_FIXTURES))
def test_loss_finite_with_no_net_increase_first_epochs(name):
    # smoke property on the acceptance fixtures: first 10 epochs never blow
    # up, and the loss ends the window at or below where it started
    kw = dict(DISCOVERY_FIXTURES[name], epochs=10)
    _, stats = train(cfg(**kw))
    losses = stats.train_losses
    assert len(losses) == 10
    assert all(np.isfinite(v) for v in losses)
    assert losses[-1] <= losses[0]


def test_superres_loss_finite_and_decreasing():
    _, stats = train(cfg(**dict(SMALL_FLOW, epochs=10)))
    assert all(np.isfinite(v) for v in stats.train_losses)
    assert stats.train_losses[-1] < stats.train_losses[0]
    assert all(np.isfinite(v) for v in stats.val_losses)


def test_superres_trains_at_kernel_size_5():
    # the stride-2 upsampling convs take the sub-pixel route at every S
    _, stats = train(cfg(**dict(SMALL_FLOW, kernel_size=5, flow_size=24)))
    assert len(stats.train_losses) == 2
    assert all(np.isfinite(v) for v in stats.train_losses + stats.val_losses)


def test_superres_epoch_loss_weights_batches_by_size():
    # 6 training samples in batches of 4 and 2; at a negligible lr the
    # weights do not move, so the epoch loss is the training-set L1
    c = cfg(**dict(SMALL_FLOW, n_samples=8, batch_size=4, epochs=1,
                   optimizer="sgd", lr=1e-30, precision="f64"))
    model, stats = train(c)
    train_set = load_flow_dataset(c).train
    assert len(train_set) == 6
    want = eval_l1(model_predictor(model), train_set)
    assert stats.train_losses[0] == pytest.approx(want, rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_epoch():
    c = cfg(task="square_to_rectangle", epochs=50, optimizer="sgd", lr=1e12)
    with pytest.raises(TrainingDiverged) as ei:
        train(c)
    assert ei.value.epoch < 50


def test_divergence_in_the_weights_raises_at_that_step(tmp_path, monkeypatch):
    # the one step's loss is finite, but its update makes a weight infinite;
    # training stops there and writes no checkpoint
    import rgconv.training as training

    real_step = training.optimizer_step

    def overflowing_step(state, params):
        real_step(state, params)
        params[0].data.flat[0] = np.inf

    monkeypatch.setattr(training, "optimizer_step", overflowing_step)
    c = cfg(task="square_to_rectangle", epochs=1, optimizer="sgd",
            precision="f32", out_dir=str(tmp_path))
    with pytest.raises(TrainingDiverged) as ei:
        train(c)
    assert ei.value.epoch == 0
    assert not os.path.exists(os.path.join(str(tmp_path), "checkpoint.rgt1"))


def test_superres_stats_fields():
    model, stats = train(cfg(**SMALL_FLOW))
    assert len(stats.train_losses) == 2
    assert len(stats.val_losses) == 2
    assert stats.test_mae is not None and np.isfinite(stats.test_mae)
    assert stats.wall_time > 0
    assert stats.report is not None  # relaxed model carries weight layers
    assert model.group is not None


def test_conv_superres_has_no_report():
    c = cfg(**dict(SMALL_FLOW, layer_kind="conv", group="", match_params=3000))
    model, stats = train(c)
    assert stats.report is None
    assert model.group is None
    assert abs(param_count(model) - 3000) / 3000 < 0.5


def test_zero_epochs_keeps_init(tmp_path):
    c = cfg(task="square_to_rectangle", epochs=0, out_dir=str(tmp_path))
    model, stats = train(c)
    assert stats.train_losses == []
    assert os.path.exists(os.path.join(str(tmp_path), "checkpoint.rgt1"))


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bitwise(tmp_path):
    c = cfg(task="square_to_rectangle", epochs=3, out_dir=str(tmp_path))
    model, _ = train(c)
    again, c2, stats2 = load_checkpoint(str(tmp_path))
    assert c2 == c
    for (n1, p1), (n2, p2) in zip(model.named_params(), again.named_params()):
        assert n1 == n2 and np.array_equal(p1.data, p2.data)
    assert len(stats2["train_losses"]) == 3


def test_checkpoint_accepts_file_or_dir(tmp_path):
    c = cfg(task="square_to_rectangle", epochs=1, out_dir=str(tmp_path))
    train(c)
    a, _, _ = load_checkpoint(str(tmp_path))
    b, _, _ = load_checkpoint(os.path.join(str(tmp_path), "checkpoint.rgt1"))
    for (_, p1), (_, p2) in zip(a.named_params(), b.named_params()):
        assert np.array_equal(p1.data, p2.data)


def test_checkpoint_missing_manifest(tmp_path):
    p = os.path.join(str(tmp_path), "checkpoint.rgt1")
    write_rgt1(p, {"layer0.w": np.ones((1, 4))})
    with pytest.raises(ConfigError):
        load_checkpoint(str(tmp_path))


def test_checkpoint_name_mismatch(tmp_path):
    c = cfg(task="square_to_rectangle", epochs=1, out_dir=str(tmp_path))
    model, stats = train(c)
    names = dict(model.named_params())
    wrong = {("x_" + n): p.data for n, p in names.items()}
    write_rgt1(os.path.join(str(tmp_path), "checkpoint.rgt1"), wrong)
    with pytest.raises(ShapeError, match="missing"):
        load_checkpoint(str(tmp_path))


def test_checkpoint_shape_mismatch(tmp_path):
    c = cfg(task="square_to_rectangle", epochs=1, out_dir=str(tmp_path))
    model, _ = train(c)
    tensors = {n: p.data for n, p in model.named_params()}
    first = next(iter(tensors))
    tensors[first] = np.zeros(3)
    write_rgt1(os.path.join(str(tmp_path), "checkpoint.rgt1"), tensors)
    with pytest.raises(ShapeError):
        load_checkpoint(str(tmp_path))


def test_save_checkpoint_standalone(tmp_path):
    c = cfg(task="square_to_rectangle", epochs=1)
    model, stats = train(c)
    out = os.path.join(str(tmp_path), "snap")
    save_checkpoint(out, model, c, stats)
    again, c2, _ = load_checkpoint(out)
    assert c2 == c


# ---------------------------------------------------------------------------
# helpers


def test_discovery_pair_shapes():
    x, y = discovery_pair(cfg(task="cubic_to_tetragonal", group="octahedral_48",
                              grid_size=9))
    assert x.shape == (1, 9, 9, 9) and y.shape == (1, 9, 9, 9)
    x, y = discovery_pair(cfg(task="square_to_square", grid_size=21))
    assert x.shape == (1, 21, 21)


def test_trilinear_upsample_shape_and_constant():
    x = np.full((3, 4, 4, 4), 2.5, dtype=np.float32)
    up = trilinear_upsample(x, 4)
    assert up.shape == (3, 16, 16, 16)
    assert np.allclose(up, 2.5)


def test_trilinear_upsample_exactness():
    const = np.full((2, 3, 3), 7.25)
    up = trilinear_upsample(const, 4)
    assert up.shape == (2, 12, 12)
    assert np.array_equal(up, np.full((2, 12, 12), 7.25))

    ramp = np.arange(5.0)[None, :, None] * np.ones((1, 5, 5))
    up2 = trilinear_upsample(ramp, 2)
    # endpoints preserved, interior linear in the continuous coordinate
    assert np.allclose(up2[0, :, 0], np.arange(10) * 4.0 / 9.0, atol=1e-12)


def test_eval_l1_hand_value():
    samples = [(None, np.zeros((1, 2))), (None, np.full((1, 2), 2.0))]
    out = eval_l1(lambda x: np.ones((1, 2)), samples)
    assert out == pytest.approx(1.0)


def test_load_flow_dataset_from_rgt1(tmp_path):
    p = os.path.join(str(tmp_path), "flow.rgt1")
    rng = np.random.default_rng(0)
    tensors = []
    for i in range(3):
        tensors.append((f"x_{i:03d}", rng.normal(size=(9, 2, 2, 2))))
        tensors.append((f"y_{i:03d}", rng.normal(size=(3, 8, 8, 8))))
    write_rgt1(p, tensors)
    c = cfg(**dict(SMALL_FLOW, data_path=p, n_samples=3))
    ds = load_flow_dataset(c)
    assert len(ds.samples) == 3
    assert ds.samples[1][0].shape == (9, 2, 2, 2)
