import importlib
import pkgutil

import goldwave


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is gone breaks star imports
    modules = [importlib.import_module(f"goldwave.{info.name}")
               for info in pkgutil.iter_modules(goldwave.__path__)]
    listed = [m for m in modules if hasattr(m, "__all__")]
    assert len(listed) >= 4
    for module in listed:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
