"""The README's "Library use" block, the one documented library entry point, names only what exists."""
import ast
import importlib
import re
from pathlib import Path

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
