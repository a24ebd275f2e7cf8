"""Span recorder for the traced benchmark run.

The program has no profiling hooks, so the tracer wraps its public calls
from the outside: every module-level binding of a traced function inside the
``rgconv`` package is replaced by a timing wrapper, and the layer classes
get a timed ``forward`` (and ``__call__``, which aliases it). Tape ``pull``
closures are timed by wrapping ``record``: each pull is tagged with its op
name and with the layer whose forward recorded it, so backward time goes to
that layer.

Spans are kept in memory as ``[name, start, end, parent, tag]`` lists and
written out once, at the end of the run. The tag of a pull span is the layer
class that recorded it; the tag of a convolution span is its computed flop
count (forward plus both backward products, 3x the forward).
"""

from __future__ import annotations

import json
import sys
import time

LAYER_CLASSES = (
    "LiftingLayer",
    "RelaxedGConvLayer",
    "SeparableRelaxedGConvLayer",
    "GroupUpsampleConv",
    "ConvLayer",
    "ConvTransposeLayer",
)

# (module, function) -> span name. Every binding of the same function object
# in any rgconv module is replaced, so calls through re-exports are caught.
TRACED_FUNCTIONS = {
    ("rgconv.groups", "build_group"): "groups.build_group",
    ("rgconv.groups", "character_table"): "groups.character_table",
    ("rgconv.training", "discovery_pair"): "data.discovery_pair",
    ("rgconv.training", "load_flow_dataset"): "data.load_flow_dataset",
    ("rgconv.data", "gen_flow_dataset"): "data.gen_flow_dataset",
    ("rgconv.convops", "conv_nd"): "convops.conv_nd",
    ("rgconv.convops", "stuffed_conv_nd"): "convops.stuffed_conv_nd",
    ("rgconv.convops", "conv_transpose_nd"): "convops.conv_transpose_nd",
    ("rgconv.convops", "take_last"): "convops.take_last",
    ("rgconv.convops", "transform_group_kernel"): "convops.transform_group_kernel",
    ("rgconv.autodiff", "relu"): "autodiff.relu",
    ("rgconv.autodiff", "loss"): "autodiff.loss",
    ("rgconv.autodiff", "backward"): "autodiff.backward",
    ("rgconv.optim", "optimizer_step"): "optim.step",
    ("rgconv.training", "eval_l1"): "training.eval_l1",
    ("rgconv.training", "train"): "training.train",
    ("rgconv.probe", "weight_report"): "probe.weight_report",
}


def conv_flop(x_shape, k_shape) -> float:
    """Flop of one convolution forward, 2 x multiply-adds, from the shapes.

    Batch x kernel rows x kernel columns x input voxels x taps: for
    ``conv_nd`` the input and output volumes are equal, and
    ``stuffed_conv_nd`` skips its stuffed zeros, so every input voxel meets
    every tap once. The count is the same for any ``groups``.
    """
    vol = 1
    for n in x_shape[2:]:
        vol *= n
    taps = 1
    for n in k_shape[2:]:
        taps *= n
    return 2.0 * x_shape[0] * k_shape[0] * k_shape[1] * vol * taps


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.layers: list[str] = []
        self.tape_nodes = 0
        self._undo: list = []

    # -- span primitives --------------------------------------------------

    def open(self, name: str, tag=None) -> list:
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, tag]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, flop=None):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.open(name, None if flop is None else flop(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(rec)

        traced.__wrapped__ = fn
        return traced

    def wrap_layer(self, cls_name: str, fn):
        tracer = self
        name = f"layers.{cls_name}.fwd"

        def forward(self_, x):
            tracer.layers.append(cls_name)
            rec = tracer.open(name)
            try:
                return fn(self_, x)
            finally:
                tracer.close(rec)
                tracer.layers.pop()

        forward.__wrapped__ = fn
        return forward

    def wrap_record(self, record):
        tracer = self

        def traced_record(op, out_data, parents, pull):
            owner = tracer.layers[-1] if tracer.layers else None
            name = f"pull.{op}"

            def timed_pull(g):
                rec = tracer.open(name, owner)
                try:
                    return pull(g)
                finally:
                    tracer.close(rec)

            out = record(op, out_data, parents, timed_pull)
            if out.node is not None:
                tracer.tape_nodes += 1
            return out

        traced_record.__wrapped__ = record
        return traced_record

    # -- installing and removing wrappers ---------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "rgconv" or mod_name.startswith("rgconv.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        import rgconv.autodiff
        import rgconv.groups
        import rgconv.layers
        import rgconv.models

        def flop(x, kernel, *args):  # forward plus both backward products
            return 3.0 * conv_flop(x.shape, kernel.shape)

        convs = ("convops.conv_nd", "convops.stuffed_conv_nd")
        for (mod_name, attr), name in TRACED_FUNCTIONS.items():
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self.wrap(name, original, flop if name in convs else None))
        self._rebind(rgconv.autodiff.record, self.wrap_record(rgconv.autodiff.record))

        for cls_name in LAYER_CLASSES:
            cls = getattr(rgconv.layers, cls_name)
            original = cls.__dict__["forward"]
            traced = self.wrap_layer(cls_name, original)
            for attr in ("forward", "__call__"):
                self._undo.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, traced)
        net = rgconv.models.Network
        traced = self.wrap("models.forward", net.__dict__["forward"])
        for attr in ("forward", "__call__"):
            self._undo.append((net, attr, net.__dict__[attr]))
            setattr(net, attr, traced)
        group_cls = rgconv.groups.FiniteGroup
        original = group_cls.__dict__["grid_cache"]
        self._undo.append((group_cls, "grid_cache", original))
        group_cls.grid_cache = self.wrap("groups.grid_cache", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Self time of spans ``lo:hi``: duration minus their children's."""
        hi = len(self.spans) if hi is None else hi
        child = [0.0] * (hi - lo)
        for rec in self.spans[lo:hi]:
            if rec[3] >= lo:
                child[rec[3] - lo] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(self.spans[lo:hi], child)]

    def dump(self, path: str, meta: dict) -> None:
        """Write every span (times relative to the first one) as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["name", "start_s", "end_s", "parent", "tag"],
                    "spans": [
                        [n, round(a - t0, 9), round(b - t0, 9), p, tag]
                        for n, a, b, p, tag in self.spans
                    ],
                },
                fh,
            )
            fh.write("\n")
