"""Every exported name resolves, so a deleted function leaves no stale export,
and the lazy observable exports keep scipy out of ``import dynirf`` and verify."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import dynirf

MODULES = ["dynirf"] + [f"dynirf.{m.name}" for m in pkgutil.iter_modules(dynirf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_import_and_verify_load_no_scipy(tmp_path):
    # scipy is loaded only by dynirf.observables and dynirf.asymptotics;
    # importing the package and running every verify suite need neither
    script = f"""
import sys
import dynirf, dynirf.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "import"
code = dynirf.cli.main(["verify", "--suite", "all", "--seed", "0", "--out", {str(tmp_path / "v.json")!r}])
assert code == 0, code
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "verify"
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_lazy_observable_exports():
    from dynirf import ObservableSpec, enum_E, exact_E, mc_E
    from dynirf import observables

    assert (ObservableSpec, enum_E, exact_E, mc_E) == (
        observables.ObservableSpec, observables.enum_E, observables.exact_E, observables.mc_E
    )
    with pytest.raises(AttributeError):
        dynirf.no_such_name
