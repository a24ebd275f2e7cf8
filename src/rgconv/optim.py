"""SGD and Adam parameter updates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, ShapeError

__all__ = ["OptimizerState", "make_optimizer", "optimizer_step"]


@dataclass
class OptimizerState:
    """Update rule plus per-parameter moment buffers.

    Buffers are allocated lazily on the first step and stay aligned with the
    parameter list by position, so the same list (in the same order) must be
    passed on every step.
    """

    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def make_optimizer(kind: str, lr: float) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ConfigError(f"unknown optimizer kind {kind!r}")
    if not lr > 0:  # also refuses NaN
        raise ConfigError(f"learning rate must be positive, got {lr}")
    return OptimizerState(kind=kind, lr=lr)


def optimizer_step(state: OptimizerState, params: list[Tensor]) -> None:
    """Apply one in-place update from each ``param.grad``."""
    for p in params:
        if p.grad is None:
            raise ShapeError("missing gradient; run backward with params first")
        if p.grad.shape != p.shape:
            raise ShapeError(f"gradient shape {p.grad.shape} != parameter {p.shape}")

    state.step_count += 1
    if state.kind == "sgd":
        for p in params:
            p.data -= state.lr * p.grad
        return

    if not state.m:
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
    if len(state.m) != len(params):
        raise ShapeError("optimizer state was built for a different parameter list")
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for i, p in enumerate(params):
        g = p.grad
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
