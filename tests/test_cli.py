"""Command-line interface: subcommands, exit codes, and the end-to-end
generate/train/analyze loop."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rgconv
from rgconv import read_rgt1, write_rgt1
from rgconv.cli import cli


def write_cfg(tmp_path, name="cfg.json", **kw):
    p = os.path.join(str(tmp_path), name)
    with open(p, "w") as fh:
        json.dump(kw, fh)
    return p


def test_no_arguments_is_usage_error(capsys):
    assert cli([]) == 1


def test_unknown_subcommand_is_usage_error():
    assert cli(["shrink"]) == 1


def test_missing_required_flag_is_usage_error():
    assert cli(["gen", "--out", "x.rgt1"]) == 1


def test_gen_discovery_writes_pair(tmp_path, capsys):
    out = os.path.join(str(tmp_path), "rect.rgt1")
    assert cli(["gen", "--task", "square_to_rectangle", "--out", out]) == 0
    tensors = read_rgt1(out)
    assert list(tensors) == ["x", "y"]
    assert tensors["x"].shape == (1, 15, 15)


def test_gen_voxel_task_honors_size_and_delta(tmp_path):
    out = os.path.join(str(tmp_path), "tetra.rgt1")
    rc = cli(["gen", "--task", "cubic_to_tetragonal", "--out", out,
              "--size", "9", "--delta", "0.5"])
    assert rc == 0
    tensors = read_rgt1(out)
    assert tensors["x"].shape == (1, 9, 9, 9)
    assert not np.array_equal(tensors["x"], tensors["y"])


@pytest.mark.parametrize("task,size", [("square_to_square", 11),
                                       ("cubic_to_orthorhombic", 9)])
def test_gen_writes_the_discovery_pair(tmp_path, task, size):
    out = os.path.join(str(tmp_path), "pair.rgt1")
    assert cli(["gen", "--task", task, "--out", out, "--size", str(size),
                "--delta", "0.6"]) == 0
    tensors = read_rgt1(out)
    x, y = rgconv.discovery_pair(
        rgconv.ExperimentConfig(task=task, grid_size=size, delta=0.6))
    assert np.array_equal(tensors["x"], x) and np.array_equal(tensors["y"], y)


def test_gen_flow_writes_samples(tmp_path):
    out = os.path.join(str(tmp_path), "flow.rgt1")
    rc = cli(["gen", "--task", "flow_channel", "--out", out,
              "--size", "16", "--samples", "3"])
    assert rc == 0
    tensors = read_rgt1(out)
    assert list(tensors) == [
        "x_000", "y_000", "x_001", "y_001", "x_002", "y_002"]
    assert tensors["y_002"].shape == (3, 16, 16, 16)


def test_train_missing_config_is_data_error(tmp_path):
    assert cli(["train", "--config", os.path.join(str(tmp_path), "no.json")]) == 2


@pytest.mark.parametrize("case", ["train-config-is-a-dir", "gen-out-is-a-dir",
                                  "analyze-out-is-a-file"])
def test_filesystem_error_is_one_line_data_error(tmp_path, capsys, case):
    run = os.path.join(str(tmp_path), "run")
    taken = write_cfg(tmp_path, name="taken.json")
    if case == "analyze-out-is-a-file":
        p = write_cfg(tmp_path, task="square_to_rectangle", epochs=0, out_dir=run)
        assert cli(["train", "--config", p]) == 0
        capsys.readouterr()
    argv = {
        "train-config-is-a-dir": ["train", "--config", str(tmp_path)],
        "gen-out-is-a-dir": ["gen", "--task", "square_to_rectangle", "--out", str(tmp_path)],
        "analyze-out-is-a-file": ["analyze", "--checkpoint", run, "--out", taken],
    }[case]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


def test_train_out_dir_naming_a_file_fails_before_training(tmp_path, capsys, monkeypatch):
    import rgconv.training as training

    monkeypatch.setattr(training, "_fit", lambda *a: pytest.fail("trained"))
    taken = write_cfg(tmp_path, name="taken.json")
    p = write_cfg(tmp_path, task="square_to_rectangle", epochs=5, out_dir=taken)
    assert cli(["train", "--config", p]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out_dir ") and err.count("\n") == 1


def test_train_malformed_json_is_usage_error(tmp_path):
    p = os.path.join(str(tmp_path), "bad.json")
    open(p, "w").write("{broken")
    assert cli(["train", "--config", p]) == 1
    open(p, "w").write('{"epochs": 1%s}' % ("0" * 5000))  # beyond int parsing
    assert cli(["train", "--config", p]) == 1


def test_train_unknown_key_is_usage_error(tmp_path):
    p = write_cfg(tmp_path, task="square_to_rectangle", warmup=3)
    assert cli(["train", "--config", p]) == 1


@pytest.mark.parametrize("field,literal", [
    ("epochs", '"5"'),
    ("epochs", "2.5"),
    ("epochs", "true"),
    ("channels", '"8"'),
    ("banks", "null"),
    ("lr", "1e400"),
    pytest.param("lr", "1" + "0" * 400, id="lr-int-beyond-float"),
    ("lr", '"0.001"'),
    ("delta", "NaN"),
    ("task", "3"),
    ("out_dir", "false"),
])
def test_train_wrongly_typed_field_is_one_line_usage_error(tmp_path, capsys, field, literal):
    fields = {"task": '"square_to_rectangle"', "epochs": "1", field: literal}
    p = os.path.join(str(tmp_path), "cfg.json")
    with open(p, "w") as fh:
        fh.write("{%s}" % ", ".join(f'"{k}": {v}' for k, v in fields.items()))
    assert cli(["train", "--config", p]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {field} must be") and err.count("\n") == 1


def test_train_lr_beyond_f32_is_one_line_usage_error(tmp_path, capsys):
    p = write_cfg(tmp_path, task="square_to_rectangle", epochs=1, lr=1e300,
                  precision="f32")
    assert cli(["train", "--config", p]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lr must be") and err.count("\n") == 1


def test_end_to_end_discovery_reports_half_turn(tmp_path, capsys):
    run = os.path.join(str(tmp_path), "run")
    p = write_cfg(tmp_path, task="square_to_rectangle", epochs=400, out_dir=run)
    assert cli(["train", "--config", p]) == 0

    report = os.path.join(str(tmp_path), "report")
    assert cli(["analyze", "--checkpoint", run, "--out", report]) == 0
    lines = open(os.path.join(report, "summary.csv")).read().splitlines()
    assert lines[0] == "tau,preserved,preserved_is_subgroup,subgroup"
    assert '"e,g2"' in lines[1]
    assert os.path.exists(os.path.join(report, "deviations.pgm"))
    pgms = [f for f in os.listdir(report) if f.endswith("_w.pgm")]
    assert len(pgms) == 3

    # trained relaxed weights are no longer equivariant
    assert cli(["check-equiv", "--checkpoint", run]) == 3


def test_check_equiv_fresh_checkpoint_passes(tmp_path, capsys):
    run = os.path.join(str(tmp_path), "fresh")
    p = write_cfg(tmp_path, task="square_to_rectangle", epochs=0, out_dir=run)
    assert cli(["train", "--config", p]) == 0
    assert cli(["check-equiv", "--checkpoint", run]) == 0
    out = capsys.readouterr().out
    assert "max equivariance error" in out


def test_check_equiv_missing_checkpoint_is_data_error(tmp_path):
    assert cli(["check-equiv", "--checkpoint", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"],
    ["--tol", "inf"],
    ["--tol", "0"],
    ["--tol", "-0.001"],
    ["--inputs", "0"],
    ["--inputs", "-3"],
])
def test_check_equiv_without_a_check_is_usage_error(tmp_path, capsys, flags):
    # a NaN tolerance or zero inputs would print "OK" having checked nothing
    run = os.path.join(str(tmp_path), "fresh")
    p = write_cfg(tmp_path, task="square_to_rectangle", epochs=0, out_dir=run)
    assert cli(["train", "--config", p]) == 0
    capsys.readouterr()
    assert cli(["check-equiv", "--checkpoint", run] + flags) == 1
    out, err = capsys.readouterr()
    assert "OK" not in out
    assert err.startswith(f"error: {flags[0]} must be") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--task", "flow_channel", "--size", "8", "--samples", "1"],
    ["gen", "--task", "square_to_rectangle"],
])
def test_gen_negative_seed_is_one_line_usage_error(tmp_path, capsys, argv):
    out = os.path.join(str(tmp_path), "data.rgt1")
    assert cli(argv + ["--out", out, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seed must be") and err.count("\n") == 1
    assert not os.path.exists(out)


def test_train_negative_seed_is_one_line_usage_error(tmp_path, capsys):
    p = write_cfg(tmp_path, task="flow_channel", group="octahedral_24",
                  flow_size=16, n_samples=2, epochs=1, seed=-1)
    assert cli(["train", "--config", p]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be") and err.count("\n") == 1


def test_check_grad_passes_on_discovery_config(tmp_path, capsys):
    p = write_cfg(tmp_path, task="square_to_rectangle")
    assert cli(["check-grad", "--config", p]) == 0
    out = capsys.readouterr().out
    assert "identity gradient class (2 elements): e,g2" in out
    assert "finite-difference audit" in out


def test_check_grad_rejects_flow_config(tmp_path):
    p = write_cfg(tmp_path, task="flow_isotropic", group="octahedral_24")
    assert cli(["check-grad", "--config", p]) == 1


def test_superres_trilinear_baseline(tmp_path, capsys):
    p = write_cfg(tmp_path, task="flow_isotropic", group="octahedral_24",
                  flow_size=16, n_samples=12, epochs=1)
    assert cli(["superres", "--config", p, "--baseline", "trilinear"]) == 0
    assert "trilinear baseline" in capsys.readouterr().out


def test_superres_relaxed_tiny_run(tmp_path, capsys):
    p = write_cfg(tmp_path, task="flow_channel", group="octahedral_24",
                  flow_size=16, n_samples=6, epochs=1, channels=2, blocks=1,
                  banks=1, precision="f32", batch_size=2)
    assert cli(["superres", "--config", p, "--baseline", "relaxed"]) == 0
    out = capsys.readouterr().out
    assert "relaxed:" in out and "test L1" in out


@pytest.mark.parametrize("name,edit", [
    ("x_004", lambda a: a[:, :2, :2, :2]),
    ("y_001", lambda a: a[..., :-1]),
    ("x_002", lambda a: a[..., None]),
    ("y_000", None),  # every target on a grid 2x the input grid, not 4x
    ("x_003", np.nan),
    ("y_002", np.inf),
], ids=["small-x", "cut-y", "rank-5-x", "2x-grid-y", "nan-x", "inf-y"])
def test_train_on_bad_flow_dataset_is_one_line_data_error(tmp_path, capsys, name, edit):
    data = os.path.join(str(tmp_path), "flow.rgt1")
    assert cli(["gen", "--task", "flow_isotropic", "--out", data, "--size", "16",
                "--samples", "6"]) == 0
    blobs = read_rgt1(data)
    if edit is None:
        blobs.update({n: a[:, ::2, ::2, ::2] for n, a in blobs.items() if n[0] == "y"})
    elif callable(edit):
        blobs[name] = edit(blobs[name])
    else:
        blobs[name].flat[5] = edit
    write_rgt1(data, list(blobs.items()))
    p = write_cfg(tmp_path, task="flow_isotropic", group="octahedral_24",
                  channels=2, blocks=1, epochs=1, precision="f32",
                  batch_size=2, data_path=data)
    capsys.readouterr()
    assert cli(["train", "--config", p]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert name in err


def test_superres_on_discovery_config_is_usage_error(tmp_path):
    p = write_cfg(tmp_path, task="square_to_square")
    assert cli(["superres", "--config", p, "--baseline", "conv"]) == 1


def test_analyze_corrupt_checkpoint(tmp_path):
    run = os.path.join(str(tmp_path), "run")
    os.makedirs(run)
    rep = os.path.join(str(tmp_path), "rep")
    open(os.path.join(run, "checkpoint.rgt1"), "wb").write(b"GARBAGE")
    open(os.path.join(run, "checkpoint.json"), "w").write("{}")
    # manifest without a config block is a configuration problem
    assert cli(["analyze", "--checkpoint", run, "--out", rep]) == 1
    cfg = {"config": {"task": "square_to_rectangle"}}
    json.dump(cfg, open(os.path.join(run, "checkpoint.json"), "w"))
    # valid manifest but an unreadable container is a data error
    assert cli(["analyze", "--checkpoint", run, "--out", rep]) == 2


@pytest.mark.parametrize("manifest", [
    "5",
    '{"config": 5}',
    '"my config"',
    "[]",
])
def test_analyze_manifest_not_an_object_is_usage_error(tmp_path, capsys, manifest):
    run = os.path.join(str(tmp_path), "run")
    os.makedirs(run)
    open(os.path.join(run, "checkpoint.rgt1"), "wb").write(b"GARBAGE")
    open(os.path.join(run, "checkpoint.json"), "w").write(manifest)
    rep = os.path.join(str(tmp_path), "rep")
    assert cli(["analyze", "--checkpoint", run, "--out", rep]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_analyze_non_finite_weight_is_data_error(tmp_path, capsys, bad):
    run = os.path.join(str(tmp_path), "run")
    p = write_cfg(tmp_path, task="square_to_rectangle", epochs=0, out_dir=run)
    assert cli(["train", "--config", p]) == 0
    path = os.path.join(run, "checkpoint.rgt1")
    blobs = read_rgt1(path)
    name = next(n for n in blobs if n.endswith(".w"))
    blobs[name][0, 1] = bad
    write_rgt1(path, list(blobs.items()))
    capsys.readouterr()
    rep = os.path.join(str(tmp_path), "rep")
    assert cli(["analyze", "--checkpoint", run, "--out", rep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "non-finite relaxed weight" in err


def test_module_entry_point(tmp_path):
    # the child process imports the same rgconv as this one, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(rgconv.__file__)))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = os.path.join(str(tmp_path), "sq.rgt1")
    proc = subprocess.run(
        [sys.executable, "-m", "rgconv", "gen", "--task", "square_to_square",
         "--out", out],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(out)
    proc = subprocess.run([sys.executable, "-m", "rgconv"], capture_output=True, env=env)
    assert proc.returncode == 1
