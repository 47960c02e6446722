"""The README's "Library use" block, the one documented library entry point, names only what exists;
configs built in Python refuse what a config file may not hold."""
import ast
import importlib
import re
from pathlib import Path

import pytest

from caspr.errors import ConfigError
from caspr.pretrain import TrainConfig
from caspr.synthgen import SynthConfig
from caspr.transformer import ModelConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_module_and_call_of_the_library_use_block_resolves():
    """Each name the block imports from caspr is a module, and each module.attr it calls is callable."""
    block = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M).group(1)
    tree = ast.parse(block)
    modules = {alias.asname or alias.name: importlib.import_module(f"caspr.{alias.name}")
               for node in tree.body if isinstance(node, ast.ImportFrom) and node.module == "caspr"
               for alias in node.names}
    calls = {(node.func.value.id, node.func.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id in modules}
    assert modules and {module for module, _ in calls} == set(modules)  # every imported module is used
    for module, attr in sorted(calls):
        assert callable(getattr(modules[module], attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("cls, field, value, what", [
    (TrainConfig, "epochs", 2.5, "field 'epochs' must be int, got float"),
    (TrainConfig, "workers", True, "field 'workers' must be int, got bool"),
    (SynthConfig, "n_entities", 10.5, "field 'n_entities' must be int, got float"),
    (TrainConfig, "lr", "0.1", "field 'lr' must be float, got str"),
    (ModelConfig, "dropout", "0.1", "field 'dropout' must be float, got str"),
    (SynthConfig, "t_mean", "3", "field 't_mean' must be float, got str"),
    (ModelConfig, "hidden", True, "field 'hidden' must be int, got bool"),
    (SynthConfig, "signal", None, "field 'signal' must be str, got NoneType"),
])
def test_config_refuses_a_wrong_typed_field(cls, field, value, what):
    """The rule a config file's values meet: an int field takes no bool, a float field also takes an int."""
    with pytest.raises(ConfigError, match=re.escape(what)):
        cls(**{field: value})


def test_float_fields_take_ints():
    assert TrainConfig(lr=1).lr == 1 and SynthConfig(t_mean=3).t_mean == 3 and ModelConfig(dropout=0).dropout == 0
