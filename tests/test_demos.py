"""The quick demos run end to end.

Demos 01 and 02 touch the grid actions, stabilizers and the equivariance
probe in under a second each; demos 03-05 train models and are left out.
"""

import importlib.util
import os

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["01_groups_tour", "02_equivariance_and_relaxation"])
def test_demo_main_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(name, os.path.join(DEMOS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out
