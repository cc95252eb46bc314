import importlib
import pkgutil

import carleman_cone


def test_every_exported_name_resolves():
    modules = [carleman_cone] + [
        importlib.import_module(f"carleman_cone.{info.name}")
        for info in pkgutil.iter_modules(carleman_cone.__path__)
        if info.name != "__main__"  # runs the CLI on import
    ]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in module.__all__ if not hasattr(module, name)]
    assert not missing
