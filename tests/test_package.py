"""The package's public names: each is declared once, in its own module's ``__all__``."""

import specport
from specport import backtest, basis, errors, moments, optimize, synthesis

MODULES = (basis, moments, synthesis, optimize, backtest, errors)


def test_package_exports_exactly_each_module_all():
    declared = ["__version__", *(name for module in MODULES for name in module.__all__)]
    assert specport.__all__ == declared
    assert len(set(declared)) == len(declared)
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(specport, name)
            assert obj is vars(module)[name]
            assert obj.__module__ == module.__name__, name
    namespace = {}
    exec("from specport import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(specport.__all__)
    subclasses = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, specport.SpecportError)
    }
    assert set(errors.__all__) == subclasses
