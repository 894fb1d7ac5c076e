"""The package namespace: every re-export resolves to its defining module's
object, and a module loads on the first use of one of its names."""

import importlib
import subprocess
import sys

import pytest

import nled


def fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True).stdout.strip()


def test_every_export_is_its_modules_object():
    assert len(set(nled.__all__)) == len(nled.__all__)
    for name in nled.__all__:
        module = importlib.import_module("nled." + nled._MODULE_OF[name])
        assert getattr(nled, name) is getattr(module, name), name
    assert set(nled.__all__) <= set(dir(nled))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nled.no_such_name
    assert not hasattr(nled, "mass_from_energy")


def test_bare_import_loads_constants_and_errors_only():
    out = fresh("import sys, nled; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('nled', 'numpy')))")
    assert out == "['nled', 'nled.constants', 'nled.errors']"


def test_submodule_resolves_after_bare_import():
    out = fresh("import sys, nled; "
                "print(nled.soliton is sys.modules['nled.soliton'], "
                "nled.energetics.radial_scale.__module__)")
    assert out == "True nled.energetics"


def test_constants_stays_the_function_after_a_lazy_import():
    # energetics imports the constants module; the package name must not become it
    out = fresh("import nled.energetics; from nled import constants; "
                "print(constants.__module__, constants('modern').e == nled.constants().e)")
    assert out == "nled.constants True"
