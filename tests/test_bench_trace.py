"""The benchmark's outside tracer still finds every layer class.

``bench/tracer.py`` times each class in ``LAYER_CLASSES`` by replacing the
``forward`` and ``__call__`` in the class's own body, and tags every tape
pull with the layer whose forward recorded it. A layer that inherits its
forward would train fine and vanish from the traced benchmark, so this runs
one traced step through a net holding all six classes.
"""

import importlib.util
import os

import numpy as np

import rgconv.convops
import rgconv.layers
from rgconv.autodiff import backward, loss, tensor
from rgconv.groups import build_group
from rgconv.layers import (
    ConvLayer,
    ConvTransposeLayer,
    GroupUpsampleConv,
    LiftingLayer,
    RelaxedGConvLayer,
    ReLULayer,
    SeparableRelaxedGConvLayer,
)
from rgconv.models import GroupPool, Network

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_every_layer_class_and_uninstalls():
    tracer_mod = load_tracer()
    c4 = build_group("cyclic_2d(4)")
    net = Network(
        [
            LiftingLayer(c4, 1, 2, banks=2, relaxed=True),
            RelaxedGConvLayer(c4, 2, 2),
            ReLULayer(),
            SeparableRelaxedGConvLayer(c4, 2, 2, banks=2),
            GroupUpsampleConv(c4, 2, 2),
            GroupPool(),
            ConvLayer(2, 2, 2),
            ConvTransposeLayer(2, 2, 1),
        ],
        group=c4,
    ).init(0)
    classes = [getattr(rgconv.layers, n) for n in tracer_mod.LAYER_CLASSES]
    assert {type(ly) for ly in net.layers} >= set(classes)
    originals = {
        (cls, attr): cls.__dict__[attr] for cls in classes for attr in ("forward", "__call__")
    }
    conv_nd = rgconv.convops.conv_nd

    tr = tracer_mod.Tracer()
    tr.install()
    try:
        x = tensor(np.random.default_rng(0).normal(size=(1, 1, 5, 5)))
        value = loss("l1", net(x), tensor(np.zeros((1, 1, 20, 20))))
        backward(value, params=net.params())
    finally:
        tr.uninstall()

    names = [rec[0] for rec in tr.spans]
    pull_owners = {rec[4] for rec in tr.spans if rec[0].startswith("pull.")}
    for cls_name in tracer_mod.LAYER_CLASSES:
        assert f"layers.{cls_name}.fwd" in names, cls_name
        assert cls_name in pull_owners, cls_name
    assert "convops.conv_nd" in names and "convops.stuffed_conv_nd" in names
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original
    assert rgconv.convops.conv_nd is conv_nd
    assert rgconv.layers.conv_nd is conv_nd


def test_tracer_charges_the_pooled_upsample_to_its_layer():
    # GroupUpsampleConv(pool=True) takes its ReLU and the group mean inside
    # stuffed_conv_nd; its forward and its pulls still belong to the layer
    tracer_mod = load_tracer()
    c4 = build_group("cyclic_2d(4)")
    net = Network(
        [
            LiftingLayer(c4, 1, 2),
            GroupUpsampleConv(c4, 2, 2, pool=True),
            ConvLayer(2, 2, 1),
        ],
        group=c4,
    ).init(1)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        x = tensor(np.random.default_rng(1).normal(size=(2, 1, 5, 5)))
        value = loss("l1", net(x), tensor(np.zeros((2, 1, 10, 10))))
        backward(value, params=net.params())
    finally:
        tr.uninstall()

    spans = tr.spans
    fwd = [i for i, rec in enumerate(spans) if rec[0] == "layers.GroupUpsampleConv.fwd"]
    assert len(fwd) == 1
    stuffed = [rec for rec in spans if rec[0] == "convops.stuffed_conv_nd"]
    assert len(stuffed) == 1 and stuffed[0][3] == fwd[0]
    pulls = {rec[0] for rec in spans if rec[4] == "GroupUpsampleConv"}
    assert "pull.stuffed_conv_nd" in pulls
    # no relu or group mean of its own: both run inside the conv's loop
    names = {rec[0] for rec in spans}
    assert not {"autodiff.relu", "pull.relu"} & names and "pull.mean" not in pulls
