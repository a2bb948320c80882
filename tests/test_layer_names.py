"""Every per-layer metric in BENCHMARK.json names a function that exists.

A traced benchmark run reads each per-layer metric by the name
``<module>.<function>.<figure>``; a function that was renamed or moved
leaves its metric unresolved and the traced run fails.  This test only
reads BENCHMARK.json.
"""

import importlib
import inspect
import json
import os

import pytest

from groupalg.groupoid import FiniteGroupoid

BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")


def _layer_names() -> list[str]:
    with open(BENCHMARK) as fh:
        per_layer = json.load(fh)["per_layer"]
    return sorted({m["name"].rsplit(".", 1)[0] for m in per_layer
                   if not m["name"].startswith("trace.")})


@pytest.mark.parametrize("layer", _layer_names())
def test_layer_resolves_to_a_public_function(layer):
    if layer == "groupoid.convolution_plan":
        assert inspect.isfunction(FiniteGroupoid.convolution_plan)
        return
    module_name, function_name = layer.split(".")
    module = importlib.import_module(f"groupalg.{module_name}")
    fn = getattr(module, function_name, None)
    assert inspect.isfunction(fn), f"groupalg.{module_name} has no function {function_name}"
    assert fn.__module__ == module.__name__, f"{layer} is defined in {fn.__module__}"
    assert not function_name.startswith("_")
