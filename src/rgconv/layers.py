"""Group-equivariant convolution layers with optional relaxed weights.

Feature maps are laid out ``[batch, channel, group, *spatial]``; plain grids
drop the group axis. Every relaxed group layer owns

- a kernel bank over ``L`` filter banks, and
- a relaxed weight tensor ``w`` of shape ``[L, |H|]``.

Output element ``h`` mixes the banks with its own coefficients ``w[l, h]``:
``y_h = sum_l w[l, h] conv(x, pi_h K_l)``. The convolution is linear, so the
lifting and separable layers fold ``w`` into their small transformed kernels
and convolve once. Their kernel rows are ordered ``(co, h)``, so the
convolution writes ``[B, C_out, |H|, *D]`` directly and no activation is
transposed. The full layer keeps its bank sum on the activation: its
transformed kernel has ``|H|`` times the entries of its input feature map at
the sizes used here (7.6 MiB against 2 MiB at O48), so a folded copy of it
would cost more memory than the sum saves. Its pooled form
(``pool=True``, the discovery net's last layer) also averages over ``h``,
and that mean folds ``w`` and ``1/|H|`` into one kernel with ``|H| L`` times
fewer output channels than the transformed one, so there the sum moves onto
the kernel. The upsampling layer's pooled form (the super-resolution net's
last stage) takes its ReLU and group mean inside the stuffed conv.

With ``relaxed=False`` the weights are frozen at exactly 1 and the layer is
an ordinary group convolution: summing the banks with equal unit weights is
bitwise identical to evaluating the relaxed forward, because it is the same
code path. With ``relaxed=True`` the same ``w`` becomes trainable, which
breaks strict equivariance exactly where the data asks for it.

Kernel transforms never interpolate: they gather precomputed index
permutations from the group's :class:`~rgconv.groups.GridActionCache`.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, matmul, mean_, mul, relu, reshape, sum_, transpose
from .convops import (
    conv_nd,
    conv_transpose_nd,
    stuffed_conv_nd,
    take_last,
    transform_group_kernel,
)
from .errors import ConfigError, ShapeError
from .groups import FiniteGroup

__all__ = [
    "LiftingLayer",
    "RelaxedGConvLayer",
    "SeparableRelaxedGConvLayer",
    "GroupUpsampleConv",
    "ConvLayer",
    "ConvTransposeLayer",
    "ReLULayer",
    "group_pool",
]


class _Layer:
    """Validation, parameter allocation, ``init`` and ``params`` of a layer.

    ``space`` is a :class:`~rgconv.groups.FiniteGroup` for group layers and
    the grid dimension (2 or 3) for plain ones. A subclass lists its kernel
    tensors in ``_kernel_shapes`` as ``(attribute, shape, fan_in)``, in the
    order ``init`` draws them uniform in ``[-b, b]`` with
    ``b = 1/sqrt(fan_in)``. A subclass whose ``_relaxed_default`` is not None
    also carries relaxed weights ``w`` of shape ``[L, |H|]``; they start at
    exactly 1, so every layer begins strictly equivariant, and ``relaxed``
    (default ``_relaxed_default``) makes them trainable.
    """

    relaxed = False
    w = None
    _relaxed_default = None

    def __init__(
        self,
        space,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        *,
        banks: int = 1,
        relaxed: bool | None = None,
        dtype=np.float64,
    ):
        if in_channels < 1 or out_channels < 1:
            raise ConfigError("channel counts must be positive")
        if banks < 1:
            raise ConfigError(f"need at least one filter bank, got {banks}")
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ConfigError(f"kernel size must be odd, got {kernel_size}")
        if self._relaxed_default is None and (relaxed is not None or banks != 1):
            raise ConfigError(f"{type(self).__name__} has no banks or relaxed weights")
        if isinstance(space, FiniteGroup):
            self.group, self.dim = space, space.dim
            self.cache = space.grid_cache(kernel_size)
        elif space in (2, 3):
            self.dim = space
        else:
            raise ConfigError(f"dim must be 2 or 3, got {space}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.banks = banks
        self.kernel_size = kernel_size
        self.dtype = dtype
        self._fan_in = []
        for attr, shape, fan_in in self._kernel_shapes():
            t = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
            setattr(self, attr, t)
            self._fan_in.append((t, fan_in))
        if self._relaxed_default is not None:
            self.relaxed = bool(self._relaxed_default if relaxed is None else relaxed)
            self.w = Tensor(
                np.ones((banks, space.order), dtype=dtype), requires_grad=self.relaxed
            )

    def init(self, rng) -> None:
        for t, fan_in in self._fan_in:
            bound = 1.0 / np.sqrt(fan_in)
            t.data[...] = rng.uniform(-bound, bound, size=t.shape).astype(self.dtype)
        if self.w is not None:
            self.w.data[...] = 1.0

    def params(self) -> list[Tensor]:
        ps = [t for t, _ in self._fan_in]
        return ps + [self.w] if self.relaxed else ps


class _GroupLayer(_Layer):
    """A layer on group feature maps ``[B, C_in, |H|, *D]``."""

    def _check_feature(self, x: Tensor) -> None:
        H, Ci = self.group.order, self.in_channels
        if x.ndim != self.dim + 3 or x.shape[1] != Ci or x.shape[2] != H:
            raise ShapeError(
                f"expected [B, {Ci}, {H}, *spatial] group feature, got {x.shape}"
            )

    def _w_rows(self, trailing: int) -> Tensor:
        """``w`` as ``[|H|, L, 1, ...]``: row ``(h, l)`` holds ``w[l, h]``."""
        H, L = self.group.order, self.banks
        return reshape(transpose(self.w, (1, 0)), (H, L) + (1,) * trailing)


class LiftingLayer(_GroupLayer):
    """Grid input to group feature map: one rotated correlation per element.

    Kernels have shape ``[L, C_out, C_in, S^d]``; output element ``h`` sees
    every kernel transformed by ``pi_h`` and mixes banks with ``w[:, h]``.
    """

    _relaxed_default = False

    def _kernel_shapes(self):
        K = self.kernel_size ** self.dim
        shape = (self.banks, self.out_channels, self.in_channels, K)
        return [("kernels", shape, self.in_channels * K)]

    def forward(self, x: Tensor) -> Tensor:
        d = self.dim
        H, Co, Ci = self.group.order, self.out_channels, self.in_channels
        if x.ndim != d + 2 or x.shape[1] != Ci:
            raise ShapeError(f"expected [B, {Ci}, *spatial] grid input, got {x.shape}")
        S = (self.kernel_size,) * d

        kt = take_last(self.kernels, self.cache.pi, self.cache.pi_inv)  # [H, L, Co, Ci, K]
        kt = sum_(mul(kt, self._w_rows(3)), axes=(1,))  # bank sum on the kernel
        kt = reshape(transpose(kt, (1, 0, 2, 3)), (Co * H, Ci) + S)
        y = conv_nd(x, kt)
        return reshape(y, (x.shape[0], Co, H) + x.shape[2:])

    __call__ = forward


class RelaxedGConvLayer(_GroupLayer):
    """Group feature to group feature with full (unfactored) kernels.

    Kernels have shape ``[L, C_out, C_in, |H|, S^d]``: a spatial stencil per
    input group element. Output element ``h`` correlates the input against
    the kernel transformed jointly over its group axis (``sigma_h``) and its
    spatial support (``pi_h``), and the layer sums the ``L`` banks with
    ``w[:, h]`` on the ``[B, |H| L C_out, *D]`` conv output.

    With ``pool=True`` the layer returns the group mean of that output,
    ``[B, C_out, *D]``. The mean and the bank sum are linear in the kernel,
    so they fold into one kernel ``[C_out, C_in |H|, S^d]``: the row of
    ``w^T / |H|`` times the transformed kernels, one ``matmul``. One conv
    with ``C_out`` outputs replaces one with ``|H| L C_out``.
    """

    _relaxed_default = True

    def __init__(self, *args, pool: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.pool = pool

    def _kernel_shapes(self):
        H, K = self.group.order, self.kernel_size ** self.dim
        shape = (self.banks, self.out_channels, self.in_channels, H, K)
        return [("kernels", shape, self.in_channels * H * K)]

    def forward(self, x: Tensor) -> Tensor:
        self._check_feature(x)
        d = self.dim
        H, L, Co, Ci = self.group.order, self.banks, self.out_channels, self.in_channels
        B, D = x.shape[0], x.shape[3:]
        S = (self.kernel_size,) * d
        xf = reshape(x, (B, Ci * H) + D)

        kt = transform_group_kernel(self.kernels, self.cache)  # [H, L, Co, Ci, H', K]
        if self.pool:
            row = reshape(transpose(self.w, (1, 0)), (1, H * L)) * (1.0 / H)
            kt = matmul(row, reshape(kt, (H * L, -1)))
            return conv_nd(xf, reshape(kt, (Co, Ci * H) + S))
        kt = reshape(kt, (H * L * Co, Ci * H) + S)
        y = conv_nd(xf, kt)
        y = sum_(mul(reshape(y, (B, H, L, Co) + D), self._w_rows(1 + d)), axes=(2,))
        return transpose(y, (0, 2, 1) + tuple(range(3, 3 + d)))

    __call__ = forward


class SeparableRelaxedGConvLayer(_GroupLayer):
    """Relaxed group convolution with rank-1 factored kernels.

    Bank ``l`` factors as ``psi_l(x, h') = psi_t[l](x) * psi_o[l](h')`` with a
    shared spatial stencil ``psi_t [L, S^d]`` and a group/channel mixer
    ``psi_o [L, C_out, C_in, |H|]``. The forward runs in two stages: pointwise
    group-channel mixing with ``w`` folded into the mixer rows (one matmul),
    then one grouped spatial conv whose group ``(co, h)`` sums its ``L``
    banks. Parameter count drops from ``L * C_out * C_in * |H| * S^d`` to
    ``L * (C_out * C_in * |H| + S^d)``.
    """

    _relaxed_default = True

    def _kernel_shapes(self):
        H, K = self.group.order, self.kernel_size ** self.dim
        Co, Ci, L = self.out_channels, self.in_channels, self.banks
        return [("psi_o", (L, Co, Ci, H), Ci * H), ("psi_t", (L, K), K)]

    def forward(self, x: Tensor) -> Tensor:
        self._check_feature(x)
        H, L, Co, Ci = self.group.order, self.banks, self.out_channels, self.in_channels
        B, D = x.shape[0], x.shape[3:]
        S = (self.kernel_size,) * self.dim

        # stage 1: group/channel mixing; row (co, h, l) is psi_o[l, co]
        # permuted by sigma_h and scaled by w[l, h]
        mixer = take_last(self.psi_o, self.cache.sigma, self.cache.sigma_inv)
        mixer = mul(mixer, self._w_rows(3))  # [H, L, Co, Ci, H']
        mixer = reshape(transpose(mixer, (2, 0, 1, 3, 4)), (Co * H * L, Ci * H))
        s = matmul(mixer, reshape(x, (B, Ci * H, int(np.prod(D)))))
        s = reshape(s, (B, Co * H * L) + D)

        # stage 2: group (co, h) correlates its L banks with psi_t[l] rotated
        # by h and sums them; tiling pi over co repeats the stencils per channel
        pi = np.tile(self.cache.pi, (Co, 1))
        taps = take_last(self.psi_t, pi, np.tile(self.cache.pi_inv, (Co, 1)))
        kd = reshape(taps, (Co * H, L) + S)
        y = conv_nd(s, kd, groups=Co * H)
        return reshape(y, (B, Co, H) + D)

    __call__ = forward


class GroupUpsampleConv(_GroupLayer):
    """Stride-2 transposed convolution applied independently to every group
    slice, with the kernel rotated by ``pi_h`` for slice ``h`` so all slices
    stay consistent with the group structure. ``[B, C_in, |H|, *D]`` maps to
    ``[B, C_out, |H|, *2D]``.

    With ``pool=True`` it returns ``group_pool(relu(y))``, ``[B, C_out,
    *2D]``, summed slice by slice inside ``stuffed_conv_nd``: neither ``y``
    nor ``relu(y)`` is stored. It stands for those three modules, so it
    takes three ``layerN`` positions in parameter names (``name_slots``),
    and later layers keep their names.
    """

    def __init__(self, *args, pool: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.pool = pool
        self.name_slots = 3 if pool else 1

    def _kernel_shapes(self):
        K = self.kernel_size ** self.dim
        shape = (self.out_channels, self.in_channels, K)
        return [("kernel", shape, self.in_channels * K)]

    def forward(self, x: Tensor) -> Tensor:
        self._check_feature(x)
        d = self.dim
        H, Co, Ci = self.group.order, self.out_channels, self.in_channels
        B, D = x.shape[0], x.shape[3:]
        S = (self.kernel_size,) * d

        # rotate then flip: transposed conv correlates with the flipped kernel,
        # and reversing row-major flat order flips every spatial axis at once
        pi, pi_inv = self.cache.pi, self.cache.pi_inv
        kt = take_last(self.kernel, pi[:, ::-1], pi.shape[1] - 1 - pi_inv)  # [H, Co, Ci, K]
        kt = reshape(kt, (H * Co, Ci) + S)
        xt = transpose(x, (0, 2, 1) + tuple(range(3, 3 + d)))
        xt = reshape(xt, (B, H * Ci) + D)
        y = stuffed_conv_nd(xt, kt, groups=H, pool=self.pool)
        if self.pool:
            return y
        y = reshape(y, (B, H, Co) + tuple(2 * n for n in D))
        return transpose(y, (0, 2, 1) + tuple(range(3, 3 + d)))

    __call__ = forward


class ConvLayer(_Layer):
    """Plain correlation on grids, the non-equivariant counterpart."""

    def _kernel_shapes(self):
        shape = (self.out_channels, self.in_channels) + (self.kernel_size,) * self.dim
        return [("kernel", shape, self.in_channels * self.kernel_size ** self.dim)]

    def forward(self, x: Tensor) -> Tensor:
        return conv_nd(x, self.kernel)

    __call__ = forward


class ConvTransposeLayer(_Layer):
    """Plain stride-2 transposed convolution (doubles spatial extents)."""

    def _kernel_shapes(self):
        shape = (self.in_channels, self.out_channels) + (self.kernel_size,) * self.dim
        return [("kernel", shape, self.in_channels * self.kernel_size ** self.dim)]

    def forward(self, x: Tensor) -> Tensor:
        return conv_transpose_nd(x, self.kernel)

    __call__ = forward


class ReLULayer:
    def params(self) -> list[Tensor]:
        return []

    def forward(self, x: Tensor) -> Tensor:
        return relu(x)

    __call__ = forward


def group_pool(x: Tensor) -> Tensor:
    """Mean over the group axis: ``[B, C, |H|, *D] -> [B, C, *D]``."""
    if x.ndim < 4:
        raise ShapeError(f"expected a group feature map, got shape {x.shape}")
    return mean_(x, axes=(2,))
