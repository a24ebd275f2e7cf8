"""The training loop, model assembly from configs, and checkpointing.

Both task families train through one shuffled minibatch loop: discovery
tasks on their single (input, target) pair with MSE, so every step is
full-batch, and super-resolution on the flow splits with L1. Training is
deterministic given the config seed. Checkpoints are an RGT1 container of
named parameters plus a JSON manifest; both are written atomically.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, backward, loss, no_grad, tensor, zero_grads
from .config import DISCOVERY_TASKS, SUPERRES_TASKS, ExperimentConfig
from .data import Dataset, gen_flow_dataset, gen_perovskite, gen_shape2d, rasterize
from .errors import ConfigError, DataError, ShapeError, TrainingDiverged
from .groups import build_group
from .models import Network, build_discovery_net, build_superres_net, param_count
from .optim import make_optimizer, optimizer_step
from .probe import SymmetryReport, weight_report, write_report_csv
from .tensorio import read_rgt1, write_rgt1

__all__ = [
    "TrainStats",
    "build_model",
    "discovery_pair",
    "load_flow_dataset",
    "trilinear_upsample",
    "eval_l1",
    "model_predictor",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass
class TrainStats:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    test_mae: float | None = None
    wall_time: float = 0.0
    final_epoch: int = 0
    report: SymmetryReport | None = None


def _dtype_of(config: ExperimentConfig):
    return np.float64 if config.precision == "f64" else np.float32


def build_model(config: ExperimentConfig) -> Network:
    """Assemble the network a config describes (uninitialized weights)."""
    config.validate()
    dtype = _dtype_of(config)
    if config.task in DISCOVERY_TASKS:
        group = build_group(config.group)
        want_dim = 2 if config.task.startswith("square") else 3
        if group.dim != want_dim:
            raise ConfigError(
                f"task {config.task!r} needs a {want_dim}D group, "
                f"got {config.group!r}"
            )
        return build_discovery_net(
            group,
            banks=config.banks,
            channels=config.channels,
            kernel_size=config.kernel_size,
            dtype=dtype,
        )
    group = None if config.layer_kind == "conv" else build_group(config.group)
    if group is not None and group.dim != 3:
        raise ConfigError(f"flow tasks need a 3D group, got {config.group!r}")
    return build_superres_net(
        config.layer_kind,
        group=group,
        channels=config.channels,
        blocks=config.blocks,
        banks=config.banks,
        kernel_size=config.kernel_size,
        dtype=dtype,
        match_params=config.match_params or None,
    )


def discovery_pair(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The single (input, target) grid pair for a discovery task."""
    if config.task.startswith("square"):
        return gen_shape2d(config.task, config.grid_size)
    phase = config.task.split("_to_")[1]
    x = rasterize(gen_perovskite("cubic", grid=config.grid_size), channels=1)
    y = rasterize(
        gen_perovskite(phase, delta=config.delta, grid=config.grid_size), channels=1
    )
    return x, y


def _check_flow_samples(samples) -> None:
    """Raise ``ShapeError`` or ``DataError``, naming the tensor, unless
    ``x_000`` is ``[C, *D]`` over a 3D grid and ``y_000`` ``[C', *4D]``, every
    ``x_NNN`` and ``y_NNN`` has the shape of its ``_000``, and every value
    is finite."""
    x0, y0 = samples[0]
    if x0.ndim != 4 or y0.shape[1:] != tuple(4 * n for n in x0.shape[1:]):
        raise ShapeError(
            f"dataset tensors x_000 {x0.shape} and y_000 {y0.shape} are not [C, *D] "
            "and [C', *4D] over a 3D grid"
        )
    for i, pair in enumerate(samples):
        for kind, a, first in zip("xy", pair, samples[0]):
            name = f"{kind}_{i:03d}"
            if a.shape != first.shape:
                raise ShapeError(f"dataset tensor {name} {a.shape} differs from {kind}_000")
            if not np.isfinite(a).all():
                raise DataError(f"dataset tensor {name} holds non-finite values")


def load_flow_dataset(config: ExperimentConfig) -> Dataset:
    """Generate the flow dataset, or load one from config.data_path."""
    if config.data_path:
        blobs = read_rgt1(config.data_path)
        samples = []
        i = 0
        while f"x_{i:03d}" in blobs:
            if f"y_{i:03d}" not in blobs:
                raise ShapeError(f"dataset tensor y_{i:03d} is missing")
            samples.append((blobs[f"x_{i:03d}"], blobs[f"y_{i:03d}"]))
            i += 1
        if not samples:
            raise ShapeError(f"no x_NNN/y_NNN tensors in {config.data_path}")
        _check_flow_samples(samples)
        return Dataset(samples=samples)
    anisotropy = config.task.split("_")[1]
    return gen_flow_dataset(
        config.seed,
        config.n_samples,
        size=(config.flow_size,) * 3,
        anisotropy=anisotropy,
    )


def trilinear_upsample(x: np.ndarray, factor: int = 4) -> np.ndarray:
    """Separable linear upsampling of the spatial axes of ``[C, *D]`` by
    ``factor``. Endpoints map to endpoints (align-corners convention), so
    constant fields stay exactly constant and linear ramps stay linear.
    """
    out = np.asarray(x)
    if out.dtype not in (np.float32, np.float64):
        out = out.astype(np.float64)
    if factor < 1:
        raise ConfigError(f"upsampling factor must be positive, got {factor}")
    if out.ndim not in (3, 4):
        raise ShapeError(f"expected [C, *spatial] input, got shape {out.shape}")
    for ax in range(1, out.ndim):
        n = out.shape[ax]
        m = n * factor
        pos = np.zeros(m) if n == 1 else np.arange(m) * (n - 1) / (m - 1)
        i0 = np.floor(pos).astype(np.int64)
        i1 = np.minimum(i0 + 1, n - 1)
        w = (pos - i0).astype(out.dtype).reshape((-1,) + (1,) * (out.ndim - 1 - ax))
        x0, x1 = out.take(i0, axis=ax), out.take(i1, axis=ax)
        out = x0 + w * (x1 - x0)  # keeps constant inputs exactly constant
    return out


def eval_l1(predict, samples, dtype=np.float64) -> float:
    """Mean absolute error of ``predict`` over (input, target) samples."""
    if not samples:
        raise ConfigError("cannot evaluate on an empty sample list")
    errs = []
    for x, y in samples:
        pred = predict(np.asarray(x, dtype=dtype))
        errs.append(float(np.mean(np.abs(pred - np.asarray(y, dtype=dtype)))))
    return float(np.mean(errs))


def model_predictor(model: Network):
    """Wrap a model as a single-sample numpy predictor."""

    def predict(x: np.ndarray) -> np.ndarray:
        with no_grad():
            return model(tensor(x[None])).data[0]

    return predict


def _check_finite(value: float, epoch: int) -> float:
    if not np.isfinite(value):
        raise TrainingDiverged(epoch)
    return value


def _batch(samples, idx, dtype) -> tuple[Tensor, Tensor]:
    xs = np.stack([np.asarray(samples[i][0], dtype=dtype) for i in idx])
    ys = np.stack([np.asarray(samples[i][1], dtype=dtype) for i in idx])
    return tensor(xs), tensor(ys)


def _fit(config: ExperimentConfig, model: Network, train_set, val_set, test_set,
         loss_kind: str) -> TrainStats:
    """Shuffled minibatch training; a NaN or Inf in a step's loss or in any
    parameter after its update raises :class:`TrainingDiverged` at once."""
    if not train_set:
        raise ConfigError("no training samples")
    dtype = _dtype_of(config)
    params = model.params()
    opt = make_optimizer(config.optimizer, config.lr)
    rng = np.random.default_rng(config.seed)
    stats = TrainStats()
    predict = model_predictor(model)
    t0 = time.perf_counter()
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        loss_sum = 0.0  # batch means weighted by batch size
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            xb, yb = _batch(train_set, idx, dtype)
            zero_grads(params)
            value = loss(loss_kind, model(xb), yb)
            backward(value, params=params)
            optimizer_step(opt, params)
            step_loss = _check_finite(float(value.data), epoch)
            if not all(np.isfinite(p.data).all() for p in params):
                raise TrainingDiverged(epoch)
            loss_sum += step_loss * len(idx)
        stats.train_losses.append(loss_sum / len(order))
        if val_set:
            stats.val_losses.append(
                _check_finite(eval_l1(predict, val_set, dtype), epoch)
            )
        stats.final_epoch = epoch
    stats.wall_time = time.perf_counter() - t0
    if test_set:
        stats.test_mae = eval_l1(predict, test_set, dtype)
    if model.weight_layers():
        stats.report = weight_report(model.weight_layers())
    return stats


def train(config: ExperimentConfig) -> tuple[Network, TrainStats]:
    """Run one experiment end to end; returns the trained model and stats."""
    config.validate()
    if config.out_dir:  # fail before training, not in save_checkpoint after it
        try:
            os.makedirs(config.out_dir, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"out_dir {config.out_dir!r} is not a usable directory: {e}") from e
    model = build_model(config).init(config.seed)
    if config.task in SUPERRES_TASKS:
        data = load_flow_dataset(config)
        stats = _fit(config, model, data.train, data.val, data.test, "l1")
    else:
        stats = _fit(config, model, [discovery_pair(config)], [], [], "mse")
    if config.out_dir:
        save_checkpoint(config.out_dir, model, config, stats)
    return model, stats


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(out_dir, model: Network, config: ExperimentConfig,
                    stats: TrainStats | None = None) -> str:
    """Write checkpoint.rgt1 + checkpoint.json (and report CSVs) atomically."""
    os.makedirs(out_dir, exist_ok=True)
    ck_path = os.path.join(out_dir, "checkpoint.rgt1")
    write_rgt1(ck_path, [(name, t.data) for name, t in model.named_params()])
    manifest = {
        "config": config.to_dict(),
        "param_count": param_count(model),
    }
    if stats is not None:
        manifest["train_losses"] = stats.train_losses
        manifest["val_losses"] = stats.val_losses
        manifest["test_mae"] = stats.test_mae
        manifest["wall_time"] = stats.wall_time
        manifest["final_epoch"] = stats.final_epoch
    tmp = os.path.join(out_dir, "checkpoint.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, os.path.join(out_dir, "checkpoint.json"))
    if stats is not None and stats.report is not None:
        write_report_csv(stats.report, out_dir)
    return ck_path


def load_checkpoint(path) -> tuple[Network, ExperimentConfig, dict]:
    """Rebuild a model from checkpoint.rgt1 + checkpoint.json.

    ``path`` may be the checkpoint file or its directory.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        path = os.path.join(path, "checkpoint.rgt1")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no checkpoint at {path}")
    manifest_path = os.path.splitext(path)[0] + ".json"
    if not os.path.exists(manifest_path):
        raise ConfigError(f"missing checkpoint manifest {manifest_path}")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as e:  # malformed JSON, or bytes that are not text
            raise DataError(f"manifest {manifest_path} is not valid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {manifest_path} must hold a JSON object")
    if "config" not in manifest:
        raise ConfigError(f"manifest {manifest_path} lacks a config block")
    if not isinstance(manifest["config"], dict):
        raise ConfigError(f"manifest {manifest_path} config must be a JSON object")
    config = ExperimentConfig.from_dict(manifest["config"])
    model = build_model(config).init(config.seed)
    blobs = read_rgt1(path)
    named = dict(model.named_params())
    if set(blobs) != set(named):
        missing = sorted(set(named) - set(blobs))
        extra = sorted(set(blobs) - set(named))
        raise ShapeError(
            f"checkpoint/model parameter mismatch: missing {missing}, extra {extra}"
        )
    for name, arr in blobs.items():
        t = named[name]
        if arr.shape != t.shape:
            raise ShapeError(
                f"parameter {name!r} has shape {arr.shape}, model wants {t.shape}"
            )
        t.data[...] = arr.astype(t.dtype, copy=False)
    return model, config, manifest
