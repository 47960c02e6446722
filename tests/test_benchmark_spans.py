"""The traced benchmark looks up caspr functions by name; keep those names resolvable.

perfbench/layertrace.py wraps each (module, function) in its SPANS with
getattr and no default, and replaces autodiff._make to count graph nodes,
so a rename in caspr would crash `perfbench/run.py --trace 1`. This test
reads perfbench/ and changes nothing there.
"""
import importlib
import importlib.util
import inspect
import os

import pytest

from caspr import autodiff

LAYERTRACE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layertrace.py")


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_layertrace().SPANS


@pytest.mark.parametrize("home, func", SPANS, ids=[f"{h}.{f}" for h, f in SPANS])
def test_span_resolves(home, func):
    assert callable(getattr(importlib.import_module(f"caspr.{home}"), func))


def test_node_counter_hook_resolves():
    inspect.signature(autodiff._make).bind(None, (), None)  # the tracer's call shape


def test_training_steps_are_counted_at_pretrain():
    """layertrace counts a step per adam_step called from pretrain's namespace."""
    pretrain = importlib.import_module("caspr.pretrain")
    assert pretrain.adam_step is autodiff.adam_step
    assert "adam_step(" in inspect.getsource(pretrain.train)
