"""Experiment configuration: a flat, JSON-serializable record.

Every key documented here maps one-to-one onto a JSON object field; unknown
keys in a config file are rejected rather than ignored.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["ExperimentConfig", "DISCOVERY_TASKS", "SUPERRES_TASKS", "ALL_TASKS"]

DISCOVERY_TASKS = (
    "square_to_square",
    "square_to_rectangle",
    "square_to_asymmetric",
    "cubic_to_tetragonal",
    "cubic_to_orthorhombic",
)
SUPERRES_TASKS = ("flow_isotropic", "flow_channel")
ALL_TASKS = DISCOVERY_TASKS + SUPERRES_TASKS

_LAYER_KINDS = ("conv", "equiv", "relaxed_equiv")
_OPTIMIZERS = ("sgd", "adam")
_PRECISIONS = ("f64", "f32")
_F32_MAX = 3.4028234663852886e38  # the largest finite float32


# field annotation -> (what a value must be, check); bool is never accepted
_FIELD_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral)),
    "float": (
        "a finite number",
        lambda v: isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max,
    ),
    "str": ("a string", lambda v: isinstance(v, str)),
}


@dataclass
class ExperimentConfig:
    """All knobs for one training run.

    task: one of ALL_TASKS.
    group: group kind string (ignored when layer_kind is "conv").
    layer_kind: conv | equiv | relaxed_equiv.
    banks: number of filter banks L.
    channels: hidden channels per layer.
    kernel_size: odd spatial kernel extent S.
    blocks: residual blocks (super-resolution nets only).
    epochs, lr, optimizer, batch_size, seed: training loop controls
        (batch_size applies to super-resolution; discovery is full-batch).
    precision: f64 | f32.
    grid_size: grid extent for discovery tasks (2D image size / 3D voxels).
    delta: perovskite B-site displacement in voxels.
    n_samples: number of flow samples to generate.
    flow_size: full-resolution flow extent (must be divisible by 4).
    out_dir: where to save the checkpoint and reports ("" saves nothing).
    data_path: optional RGT1 dataset to load instead of generating.
    match_params: conv baseline only; target parameter count to match by
        widening channels (0 disables).
    """

    task: str = "square_to_rectangle"
    group: str = "cyclic_2d(4)"
    layer_kind: str = "relaxed_equiv"
    banks: int = 1
    channels: int = 8
    kernel_size: int = 3
    blocks: int = 2
    epochs: int = 2000
    lr: float = 1e-3
    optimizer: str = "adam"
    batch_size: int = 4
    seed: int = 0
    precision: str = "f64"
    grid_size: int = 15
    delta: float = 0.8
    n_samples: int = 16
    flow_size: int = 32
    out_dir: str = ""
    data_path: str = ""
    match_params: int = 0

    def validate(self) -> "ExperimentConfig":
        for f in dataclasses.fields(self):
            what, ok = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if isinstance(value, bool) or not ok(value):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        if self.task not in ALL_TASKS:
            raise ConfigError(f"unknown task {self.task!r}; choose from {ALL_TASKS}")
        if self.layer_kind not in _LAYER_KINDS:
            raise ConfigError(f"layer_kind must be one of {_LAYER_KINDS}")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ConfigError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.banks < 1:
            raise ConfigError(f"banks must be >= 1, got {self.banks}")
        if self.channels < 1 or self.blocks < 1:
            raise ConfigError("channels and blocks must be >= 1")
        # epochs 0 trains nothing but still writes a checkpoint of the init
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.seed < 0:  # NumPy seeds only from non-negative integers
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.optimizer not in _OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {_OPTIMIZERS}")
        if self.precision not in _PRECISIONS:
            raise ConfigError(f"precision must be one of {_PRECISIONS}")
        if self.precision == "f32" and self.lr > _F32_MAX:
            # the update would scale f32 gradients by inf
            raise ConfigError(f"lr must be at most {_F32_MAX:.6g} at f32, got {self.lr}")
        if self.task in DISCOVERY_TASKS and self.layer_kind == "conv":
            raise ConfigError("discovery tasks need group layers, not conv")
        if self.match_params and self.layer_kind != "conv":
            raise ConfigError("match_params applies only to the conv baseline")
        if self.grid_size % 2 == 0 or self.grid_size < 5:
            raise ConfigError(f"grid_size must be odd and >= 5, got {self.grid_size}")
        if self.task in DISCOVERY_TASKS and self.kernel_size > self.grid_size:
            raise ConfigError(
                f"kernel_size {self.kernel_size} exceeds grid_size {self.grid_size}"
            )
        if self.task in SUPERRES_TASKS:
            if self.flow_size % 4 != 0:
                raise ConfigError(
                    f"flow_size must be divisible by 4, got {self.flow_size}"
                )
            if self.n_samples < 1:
                raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
            # a 1-stencil stride-2 conv writes only output phase 0, so the net
            # would predict 0 on 63 of 64 fine voxels
            if self.kernel_size < 3:
                raise ConfigError(
                    f"kernel_size must be >= 3 on flow tasks, got {self.kernel_size}"
                )
            # the first convs run on the input grid; a loaded one is checked there
            if not self.data_path and self.kernel_size > self.flow_size // 4:
                raise ConfigError(f"kernel_size {self.kernel_size} exceeds flow_size / 4")
            if self.layer_kind != "conv" and not self.group.startswith("octahedral"):
                raise ConfigError("flow tasks need a 3D group for group layer kinds")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        return cls(**d).validate()

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except ValueError as e:  # malformed JSON, or an integer too long to parse
                raise ConfigError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(d, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(d)
