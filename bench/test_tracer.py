"""Tests for the span arithmetic and for the metric names BENCHMARK.json lists.

Run with ``PYTHONPATH=src python3 -m pytest bench -q`` from the repository
root.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer, conv_flop  # noqa: E402


def spans(*recs):
    tr = Tracer()
    tr.spans = [list(r) for r in recs]
    return tr


def test_self_time_subtracts_children():
    tr = spans(
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["c", 5.0, 9.0, 0, None],
    )
    assert tr.self_times() == [3.0, 2.0, 1.0, 4.0]
    # a window starting at a child ignores parents outside it
    assert tr.self_times(1, 3) == [2.0, 1.0]


def test_conv_flop_counts_multiply_adds():
    # 2 * batch * out channels * in channels per group * voxels * taps
    assert conv_flop((2, 8, 5, 5), (4, 8, 3, 3)) == 2.0 * 2 * 4 * 8 * 25 * 9
    # grouped: the kernel's in-channel axis is already per group
    assert conv_flop((1, 6, 4, 4, 4), (6, 1, 3, 3, 3)) == 2.0 * 6 * 1 * 64 * 27


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    tr = spans(
        ["groups.build_group", 0.0, 1.0, -1, None],
        ["bench.step", 1.0, 3.0, -1, None],
        ["models.forward", 1.5, 2.0, 1, None],
        ["training.train", 3.0, 4.0, -1, None],
    )
    metrics, coverage = workloads.layer_metrics(tr, (0, 1), [(1, 3, 7)], (3, 4), 0.5, 2.0, 1.0)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(metrics)
    for m in spec["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"]
    assert coverage == 1.0
    assert metrics["autodiff.tape_nodes"][0] == 7
