"""Model containers and the two network builders.

``Network`` is a plain sequential container whose ``layers`` property walks
into composite blocks, so probes and optimizers always see the flat list of
parameterized layers regardless of nesting.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, released_on_error, relu
from .errors import ConfigError
from .groups import FiniteGroup
from .layers import (
    ConvLayer,
    ConvTransposeLayer,
    GroupUpsampleConv,
    LiftingLayer,
    ReLULayer,
    RelaxedGConvLayer,
    SeparableRelaxedGConvLayer,
    group_pool,
)

__all__ = [
    "GroupPool",
    "ResidualBlock",
    "Network",
    "build_discovery_net",
    "build_superres_net",
    "param_count",
    "matched_conv_channels",
]

LAYER_KINDS = ("conv", "equiv", "relaxed_equiv")

# attribute scan order for stable checkpoint names
_PARAM_ATTRS = ("kernels", "kernel", "psi_o", "psi_t", "w")


class GroupPool:
    """Mean over the group axis, as a module."""

    def params(self) -> list[Tensor]:
        return []

    def forward(self, x: Tensor) -> Tensor:
        return group_pool(x)

    __call__ = forward


class ResidualBlock:
    """x -> relu(x + conv2(relu(conv1(x)))); channel count is preserved."""

    def __init__(self, conv1, conv2):
        self.conv1 = conv1
        self.conv2 = conv2

    def children(self):
        return [self.conv1, self.conv2]

    def params(self) -> list[Tensor]:
        return self.conv1.params() + self.conv2.params()

    def forward(self, x: Tensor) -> Tensor:
        h = relu(self.conv1(x))
        return relu(x + self.conv2(h))

    __call__ = forward


def _flatten(modules) -> list:
    flat = []
    for m in modules:
        kids = getattr(m, "children", None)
        if kids is not None:
            flat.extend(_flatten(kids()))
        else:
            flat.append(m)
    return flat


class Network:
    """Sequential model. ``group`` is None for plain convolutional models."""

    def __init__(self, modules, group: FiniteGroup | None = None):
        self.modules = list(modules)
        self.group = group

    @property
    def layers(self) -> list:
        return _flatten(self.modules)

    def params(self) -> list[Tensor]:
        out = []
        for ly in self.layers:
            out.extend(ly.params())
        return out

    def named_params(self) -> list[tuple[str, Tensor]]:
        named = []
        for i, ly in enumerate(self.layers):
            trainable = ly.params()
            for attr in _PARAM_ATTRS:
                t = getattr(ly, attr, None)
                if isinstance(t, Tensor) and any(t is p for p in trainable):
                    named.append((f"layer{i}.{attr}", t))
        return named

    def weight_layers(self) -> list:
        """Layers carrying a relaxed weight vector (trainable or frozen)."""
        return [ly for ly in self.layers if getattr(ly, "w", None) is not None]

    def init(self, seed: int) -> "Network":
        rng = np.random.default_rng(seed)
        for ly in self.layers:
            if hasattr(ly, "init"):
                ly.init(rng)
        return self

    def forward(self, x: Tensor) -> Tensor:
        with released_on_error():
            for m in self.modules:
                x = m(x)
        return x

    __call__ = forward


def param_count(model: Network) -> int:
    return int(sum(p.size for p in model.params()))


def build_discovery_net(
    group: FiniteGroup,
    banks: int = 1,
    channels: int = 8,
    kernel_size: int = 3,
    in_channels: int = 1,
    dtype=np.float64,
) -> Network:
    """3-layer relaxed net: lifting -> gconv -> gconv, pooled to a grid.

    Scalar in, scalar out; relu between layers; circular padding; every layer
    carries a trainable relaxed weight vector of length ``|group|``. The last
    layer pools over the group itself (``pool=True``), so the parameter names
    are ``layer0``, ``layer2`` and ``layer4`` as with a trailing ``GroupPool``.
    """
    if channels < 1:
        raise ConfigError(f"channels must be >= 1, got {channels}")
    common = dict(banks=banks, kernel_size=kernel_size, relaxed=True, dtype=dtype)
    return Network(
        [
            LiftingLayer(group, in_channels, channels, **common),
            ReLULayer(),
            RelaxedGConvLayer(group, channels, channels, **common),
            ReLULayer(),
            RelaxedGConvLayer(group, channels, 1, pool=True, **common),
        ],
        group=group,
    )


def _conv_arch_params(channels: int, blocks: int, kernel_size: int, dim: int,
                      in_channels: int, out_channels: int) -> int:
    k = kernel_size ** dim
    c = channels
    return k * (c * in_channels + (2 * blocks + 2) * c * c + c * out_channels)


def matched_conv_channels(target_params: int, blocks: int = 4,
                          kernel_size: int = 3, dim: int = 3,
                          in_channels: int = 9, out_channels: int = 3) -> int:
    """Width whose plain-conv architecture is closest in parameter count."""
    best, best_diff = 1, None
    for c in range(1, 4097):
        diff = abs(_conv_arch_params(c, blocks, kernel_size, dim,
                                     in_channels, out_channels) - target_params)
        if best_diff is None or diff < best_diff:
            best, best_diff = c, diff
        elif diff > best_diff and _conv_arch_params(
            c, blocks, kernel_size, dim, in_channels, out_channels
        ) > target_params:
            break
    return best


def build_superres_net(
    layer_kind: str,
    group: FiniteGroup | None = None,
    channels: int = 16,
    blocks: int = 4,
    banks: int = 2,
    kernel_size: int = 3,
    in_channels: int = 9,
    out_channels: int = 3,
    dim: int = 3,
    dtype=np.float64,
    match_params: int | None = None,
) -> Network:
    """Super-resolution net: input layer, residual trunk, two x2 upsampling
    stages, output head. Output spatial extent is 4x the input extent.

    ``conv`` uses plain convolutions throughout (no group axis); ``equiv``
    uses lifting plus separable group convolutions with frozen unit weights;
    ``relaxed_equiv`` makes those weights trainable. ``match_params`` (conv
    only) overrides ``channels`` with the width whose parameter count is
    closest to the given target, for like-for-like baselines.
    """
    if layer_kind not in LAYER_KINDS:
        raise ConfigError(f"layer_kind must be one of {LAYER_KINDS}, got {layer_kind!r}")
    if blocks < 1:
        raise ConfigError(f"blocks must be >= 1, got {blocks}")

    if layer_kind == "conv":
        if match_params is not None:
            channels = matched_conv_channels(
                match_params, blocks, kernel_size, dim, in_channels, out_channels
            )
        c = channels
        mods = [ConvLayer(dim, in_channels, c, kernel_size, dtype=dtype), ReLULayer()]
        for _ in range(blocks):
            mods.append(
                ResidualBlock(
                    ConvLayer(dim, c, c, kernel_size, dtype=dtype),
                    ConvLayer(dim, c, c, kernel_size, dtype=dtype),
                )
            )
        for _ in range(2):
            mods.append(ConvTransposeLayer(dim, c, c, kernel_size, dtype=dtype))
            mods.append(ReLULayer())
        mods.append(ConvLayer(dim, c, out_channels, kernel_size, dtype=dtype))
        return Network(mods, group=None)

    if group is None:
        raise ConfigError(f"layer_kind {layer_kind!r} requires a group")
    if match_params is not None:
        raise ConfigError("match_params applies only to the conv baseline")
    relaxed = layer_kind == "relaxed_equiv"
    c = channels
    mods = [
        LiftingLayer(group, in_channels, c, banks=banks, kernel_size=kernel_size,
                     relaxed=relaxed, dtype=dtype),
        ReLULayer(),
    ]
    for _ in range(blocks):
        mods.append(
            ResidualBlock(
                SeparableRelaxedGConvLayer(
                    group, c, c, banks=banks, kernel_size=kernel_size,
                    relaxed=relaxed, dtype=dtype),
                SeparableRelaxedGConvLayer(
                    group, c, c, banks=banks, kernel_size=kernel_size,
                    relaxed=relaxed, dtype=dtype),
            )
        )
    for _ in range(2):
        mods.append(GroupUpsampleConv(group, c, c, kernel_size, dtype=dtype))
        mods.append(ReLULayer())
    mods.append(GroupPool())
    mods.append(ConvLayer(group.dim, c, out_channels, kernel_size, dtype=dtype))
    return Network(mods, group=group)
