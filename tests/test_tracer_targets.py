"""The benchmark tracer's names resolve in the package as it stands.

`perfbench/tracer.py` wraps each name of `TARGETS` and `PARSERS` by looking
it up in a `tamesym` module, and a method in its class's own `__dict__`. A
refactor that deletes a traced function, moves a traced method into a base
class or binds one function object under two traced names fails here, not
only in a traced benchmark run."""

import importlib
import inspect
import sys
from pathlib import Path

import tamesym

# the benchmark's tracer, read only
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def _resolve(layer: str, path: str):
    """The function `Tracer.install` wraps for (layer, path)."""
    module = importlib.import_module(f"tamesym.{layer}")
    if "." in path:
        cls_name, meth = path.split(".")
        raw = getattr(module, cls_name).__dict__[meth]
        return raw.__func__ if isinstance(raw, staticmethod) else raw
    return getattr(module, path)


def test_every_traced_name_resolves_to_its_own_function():
    targets = {f"{layer}.{path}": _resolve(layer, path)
               for layer, path in tracer.TARGETS}
    targets.update({f"dsl.{name}": getattr(tamesym.dsl, name)
                    for name in tracer.PARSERS})
    for name, fn in targets.items():
        assert inspect.isfunction(fn), name
        assert fn.__name__ == name.rsplit(".", 1)[1], name
    assert len({id(fn) for fn in targets.values()}) == len(targets)


def test_no_module_binds_a_traced_function_under_another_name():
    """The tracer rebinds every module attribute that is a traced function,
    so an alias would count its calls under the traced name."""
    traced = {_resolve(layer, path) for layer, path in tracer.TARGETS
              if "." not in path}
    modules = [m for n, m in sys.modules.items()
               if n == "tamesym" or n.startswith("tamesym.")]
    for module in modules:
        for attr, value in vars(module).items():
            if any(value is fn for fn in traced):
                assert attr == value.__name__, (module.__name__, attr)
