import importlib
import pkgutil
import subprocess
import sys

import pytest

import schurkit

# the library modules the package re-exports, in the order of its `__all__`
LIBRARY = ["measure", "mixed_norm", "operators", "kernel_algebra", "sum_space", "coverings", "coorbit", "oracles"]


def _module(name):
    # `schurkit.mixed_norm` is the function; the module is reached by its full name
    return importlib.import_module(f"schurkit.{name}")


def test_each_public_name_is_declared_once_where_it_is_defined():
    owners = {}
    for info in pkgutil.iter_modules(schurkit.__path__):
        module = _module(info.name)
        for name in getattr(module, "__all__", ()):
            owners.setdefault(name, []).append(info.name)
            assert name in vars(module), (info.name, name)
            assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__, (info.name, name)
    assert {name: where for name, where in owners.items() if len(where) > 1} == {}


def test_the_package_exports_the_union_of_the_library_lists():
    union = ["__version__"] + [name for m in LIBRARY for name in _module(m).__all__]
    assert schurkit.__all__ == union
    assert len(set(union)) == len(union) == 68


def test_star_import_binds_each_name_to_its_module_object():
    namespace = {}
    exec("from schurkit import *", namespace)
    assert namespace["__version__"] == schurkit.__version__
    for m in LIBRARY:
        module = _module(m)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), (m, name)
    assert set(namespace) - {"__builtins__"} == set(schurkit.__all__)


@pytest.mark.parametrize("module, cap, value", [("operators", "VERTEX_CAP", 10**6), ("sum_space", "RECTANGLE_CAP", 65536)])
def test_the_caps_stay_in_their_modules_only(module, cap, value):
    assert getattr(_module(module), cap) == value
    assert cap not in _module(module).__all__
    assert not hasattr(schurkit, cap)


def test_importing_the_package_loads_only_the_library_modules():
    script = "import sys, schurkit; print(' '.join(sorted(m for m in sys.modules if m.startswith('schurkit'))))"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True).stdout
    assert out.split() == sorted(["schurkit"] + [f"schurkit.{m}" for m in LIBRARY])
