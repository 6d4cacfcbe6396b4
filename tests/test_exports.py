"""The package namespace against the layers' ``__all__`` lists.

Benchmark tracing wraps exactly the functions a layer names in ``__all__``,
so a public function missing from the package, or an export no layer
declares, would go unseen by one side or the other.
"""

import importlib
import pkgutil

import bethe6v


def layers():
    for info in pkgutil.iter_modules(bethe6v.__path__):
        if info.name.startswith("_"):  # __main__ runs the command line
            continue
        module = importlib.import_module(f"bethe6v.{info.name}")
        if hasattr(module, "__all__"):
            yield module


def test_every_public_callable_is_exported():
    for module in layers():
        for name in module.__all__:
            value = getattr(module, name)
            if callable(value):
                assert getattr(bethe6v, name, None) is value, f"{module.__name__}.{name}"


def test_every_export_comes_from_a_layer():
    declared = {id(getattr(module, name)) for module in layers() for name in module.__all__}
    exports = [name for name, value in vars(bethe6v).items()
               if not name.startswith("_") and not isinstance(value, type(bethe6v))]
    assert exports
    for name in exports:
        assert id(getattr(bethe6v, name)) in declared, name
