"""The package's public names and the modules that define them."""

import sys

import zonoidal


def test_package_callables_are_in_their_module_all():
    # Tracing and `from module import *` see only the names in __all__.
    missing = []
    for name, obj in vars(zonoidal).items():
        module = getattr(obj, "__module__", None) or ""
        if callable(obj) and module.startswith("zonoidal."):
            if name not in sys.modules[module].__all__:
                missing.append(f"{module}.{name}")
    assert not missing
