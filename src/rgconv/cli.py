"""Command line interface.

Subcommands: gen, train, analyze, check-equiv, check-grad, superres.
Exit codes: 0 success, 1 usage or configuration error, 2 data, file format or
filesystem error, 3 check failure or diverged training.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .autodiff import finite_diff_grad, loss, tensor, zero_grads, backward
from .config import ALL_TASKS, DISCOVERY_TASKS, SUPERRES_TASKS, ExperimentConfig
from .data import gen_flow_dataset
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    Rgt1Error,
    ShapeError,
    SymmetryCheckFailed,
    TrainingDiverged,
)
from .models import param_count
from .probe import (
    equivariance_error,
    gradient_symmetry_check,
    weight_report,
    write_report_csv,
)
from .tensorio import write_pgm, write_rgt1
from .training import (
    build_model,
    discovery_pair,
    eval_l1,
    load_checkpoint,
    load_flow_dataset,
    model_predictor,
    train,
    trilinear_upsample,
)

_BASELINES = ("trilinear", "conv", "equiv", "relaxed")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rgconv",
        description="Generate data, train, and probe relaxed group-convolution models.",
    )
    sub = p.add_subparsers(dest="cmd")

    g = sub.add_parser("gen", help="generate a task dataset as an RGT1 file")
    g.add_argument("--task", required=True, choices=ALL_TASKS)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--size", type=int, default=0,
                   help="grid extent (default: 15 for 2D, 17 for 3D, 32 for flow)")
    g.add_argument("--delta", type=float, default=0.8,
                   help="perovskite displacement in voxels")
    g.add_argument("--samples", type=int, default=16,
                   help="number of flow samples")

    t = sub.add_parser("train", help="train a model from a JSON config")
    t.add_argument("--config", required=True)

    a = sub.add_parser("analyze", help="write symmetry reports for a checkpoint")
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--out", required=True)

    ce = sub.add_parser("check-equiv", help="measure model equivariance error")
    ce.add_argument("--checkpoint", required=True)
    ce.add_argument("--tol", type=float, default=1e-10)
    ce.add_argument("--inputs", type=int, default=3)

    cg = sub.add_parser("check-grad", help="gradient symmetry and finite-diff audit")
    cg.add_argument("--config", required=True)

    s = sub.add_parser("superres", help="train or evaluate a super-resolution model")
    s.add_argument("--config", required=True)
    s.add_argument("--baseline", required=True, choices=_BASELINES)
    return p


def _cmd_gen(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.task in SUPERRES_TASKS:
        size = args.size or 32
        data = gen_flow_dataset(
            args.seed, args.samples, size=(size,) * 3,
            anisotropy=args.task.split("_")[1],
        )
        tensors = []
        for i, (x, y) in enumerate(data.samples):
            tensors.append((f"x_{i:03d}", x))
            tensors.append((f"y_{i:03d}", y))
        write_rgt1(args.out, tensors)
        print(f"wrote {len(data.samples)} flow samples to {args.out}")
        return 0
    size = args.size or (15 if args.task.startswith("square") else 17)
    x, y = discovery_pair(
        ExperimentConfig(task=args.task, grid_size=size, delta=args.delta)
    )
    write_rgt1(args.out, [("x", x), ("y", y)])
    print(f"wrote input {x.shape} and target {y.shape} to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    model, stats = train(config)
    print(f"trained {config.task} ({config.layer_kind}) "
          f"for {len(stats.train_losses)} epochs in {stats.wall_time:.1f}s, "
          f"{param_count(model)} parameters")
    if stats.train_losses:
        print(f"final train loss {stats.train_losses[-1]:.6e}")
    if stats.val_losses:
        print(f"final val loss {stats.val_losses[-1]:.6e}")
    if stats.test_mae is not None:
        print(f"test MAE {stats.test_mae:.6e}")
    if stats.report is not None:
        print(stats.report)
    if config.out_dir:
        print(f"checkpoint saved under {config.out_dir}")
    return 0


def _cmd_analyze(args) -> int:
    model, config, _ = load_checkpoint(args.checkpoint)
    layers = model.weight_layers()
    if not layers:
        raise ConfigError("checkpoint holds a plain conv model; nothing to analyze")
    report = weight_report(layers)
    write_report_csv(report, args.out)
    for name, w in zip(report.layer_names, report.weights):
        write_pgm(os.path.join(args.out, f"{name}_w.pgm"), w)
    write_pgm(os.path.join(args.out, "deviations.pgm"), report.deviations[None])
    print(report)
    print(f"reports written to {args.out}")
    return 0


def _cmd_check_equiv(args) -> int:
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
    if args.inputs < 1:
        raise ConfigError(f"--inputs must be >= 1, got {args.inputs}")
    model, config, _ = load_checkpoint(args.checkpoint)
    if model.group is None:
        raise ConfigError("check-equiv needs a group model checkpoint")
    if config.task not in DISCOVERY_TASKS:
        raise ConfigError("check-equiv checks scalar channels, so it applies to "
                          "discovery checkpoints; flow velocities are vectors")
    shape = (1,) + (config.grid_size,) * model.group.dim
    worst = 0.0
    for i in range(args.inputs):
        rng = np.random.default_rng(1000 + config.seed + i)
        err = equivariance_error(model, model.group, rng.normal(size=shape),
                                 description=f"random input {i}")
        worst = max(worst, err.max_error)
    print(f"max equivariance error over {args.inputs} inputs: {worst:.3e}")
    if worst >= args.tol:
        print(f"FAIL: above tolerance {args.tol:.1e}", file=sys.stderr)
        return 3
    print(f"OK: below tolerance {args.tol:.1e}")
    return 0


def _cmd_check_grad(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if config.task not in DISCOVERY_TASKS:
        raise ConfigError("check-grad runs on discovery task configs")
    # the audit's tolerances are f64 ones, whatever precision trains
    config = dataclasses.replace(config, precision="f64")
    model = build_model(config).init(config.seed)
    x, y = discovery_pair(config)
    dtype = np.float64
    result = gradient_symmetry_check(model, x.astype(dtype), y.astype(dtype))
    print(result)
    print(f"matches the {len(result.oracle)}-element stabilizer oracle")

    xb, yb = tensor(x.astype(dtype)[None]), tensor(y.astype(dtype)[None])

    def run():
        return loss("mse", model(xb), yb)

    worst = 0.0
    params = model.params()
    for ly in model.layers:
        w = getattr(ly, "w", None)
        if w is None or not w.requires_grad:
            continue
        zero_grads(params)
        backward(run(), params=params)
        numeric = finite_diff_grad(run, w)
        scale = max(float(np.max(np.abs(numeric))), 1e-12)
        worst = max(worst, float(np.max(np.abs(w.grad - numeric))) / scale)
    print(f"finite-difference audit of relaxed weights: max rel error {worst:.3e}")
    if worst >= 1e-5:
        print("FAIL: analytic gradients disagree with finite differences",
              file=sys.stderr)
        return 3
    return 0


def _cmd_superres(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if config.task not in SUPERRES_TASKS:
        raise ConfigError("superres needs a flow task config")
    if args.baseline == "trilinear":
        data = load_flow_dataset(config)
        steps_back = 3
        predict = lambda x: trilinear_upsample(x[-steps_back:], 4)
        val = eval_l1(predict, data.val) if data.val else float("nan")
        test = eval_l1(predict, data.test) if data.test else float("nan")
        print(f"trilinear baseline: val L1 {val:.6e}, test L1 {test:.6e}")
        return 0
    kind = {"conv": "conv", "equiv": "equiv", "relaxed": "relaxed_equiv"}[args.baseline]
    overrides = {"layer_kind": kind}
    if kind == "conv" and not config.match_params:
        # match the relaxed model that the same config builds
        relaxed = dataclasses.replace(
            config, layer_kind="relaxed_equiv", match_params=0
        )
        overrides["match_params"] = param_count(build_model(relaxed))
    run_cfg = dataclasses.replace(config, **overrides).validate()
    model, stats = train(run_cfg)
    val = stats.val_losses[-1] if stats.val_losses else float("nan")
    print(f"{args.baseline}: {param_count(model)} parameters, "
          f"val L1 {val:.6e}, test L1 {stats.test_mae:.6e}")
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "analyze": _cmd_analyze,
    "check-equiv": _cmd_check_equiv,
    "check-grad": _cmd_check_grad,
    "superres": _cmd_superres,
}


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _DISPATCH[args.cmd](args)
    except (ConfigError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (Rgt1Error, DataError, ShapeError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (SymmetryCheckFailed, TrainingDiverged) as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(cli())
