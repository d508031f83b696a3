"""Every exported name resolves, so a deleted function leaves no stale export,
every raise is one of the documented errors, every module-level name is
read where the package or its benchmark uses it, every public default is
set by some call there, and no module or command of the package loads scipy."""

import ast
import importlib
import inspect
import math
import pkgutil
import subprocess
import sys

import pytest

import dynirf
from test_readme import COMMANDS as README_COMMANDS, README

MODULES = ["dynirf"] + [f"dynirf.{m.name}" for m in pkgutil.iter_modules(dynirf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _raised(expr, local) -> list:
    """The names of what a raise statement's expression raises."""
    if expr is None:
        return ["<bare raise>"]
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Name) and expr.id in local:
        # a local factory such as contour_integral_factored's ``refuse``
        returns = [r.value for r in ast.walk(local[expr.id]) if isinstance(r, ast.Return)]
        return [name for value in returns for name in _raised(value, local)]
    return [ast.unparse(expr)]


class TestErrorFamily:
    # argparse turns its type converters' errors into usage errors, and a
    # module __getattr__ must raise AttributeError
    EXEMPT = {
        ("dynirf.cli", "_number"): "argparse.ArgumentTypeError",
        ("dynirf.cli", "_comma_list"): "argparse.ArgumentTypeError",
        ("dynirf", "__getattr__"): "AttributeError",
    }

    def test_every_raise_is_a_documented_error(self):
        from dynirf.special import ConvergenceError, InvalidParameterError
        from dynirf.weights import SingularParameterError

        family = (InvalidParameterError, ConvergenceError, SingularParameterError)
        stray = []
        for name in MODULES:
            module = importlib.import_module(name)
            tree = ast.parse(inspect.getsource(module))
            local = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
            for top in tree.body:
                for node in ast.walk(top):
                    if not isinstance(node, ast.Raise):
                        continue
                    for exc in _raised(node.exc, local):
                        if self.EXEMPT.get((name, getattr(top, "name", None))) == exc:
                            continue
                        cls = getattr(module, exc, None)
                        if not (inspect.isclass(cls) and issubclass(cls, family)):
                            stray.append(f"{name}:{node.lineno} raises {exc}")
        assert not stray, stray


def test_package_imports_sit_at_module_top():
    # a function-local ``from .`` import hides a module dependency; the
    # deferred ones below keep ``import dynirf`` and ``dynirf verify`` from
    # loading observables and asymptotics
    deferred = {
        ("dynirf", "__getattr__", "observables"),
        ("dynirf.cli", "_cmd_observables", "observables"),
        ("dynirf.cli", "_cmd_asymptotics", "asymptotics"),
    }
    found = set()
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    found |= {(name, top.name, node.module or alias.name) for alias in node.names}
    assert found == deferred, sorted(found ^ deferred)


def test_no_module_recomputes_f_prime_at_zero():
    # f'(0) is bound once on the mode, as mode.fp0: no module calls a
    # function for it
    calls = []
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in ("theta_deriv", "f_deriv0", "fp0"):
                    calls.append(f"{name}:{node.lineno} calls {ast.unparse(func)}")
    assert not calls, calls


def _reads(tree) -> set:
    """The names a tree reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read |= {alias.name.split(".")[-1] for alias in node.names}
    return read


def _defined(top) -> list:
    """The names a module-level def, class or assignment defines."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    if isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


# (module name, module-level statement) for every statement of the package
TOPS = [(name, top) for name in MODULES for top in ast.parse(inspect.getsource(importlib.import_module(name))).body]


def test_every_private_name_is_read_in_src():
    # a module-level _name that nothing in the package reads is test-only
    # code or dead code; it belongs in the tests or nowhere
    read = set().union(*(_reads(top) for _, top in TOPS))
    unread = [f"{name}.{d}" for name, top in TOPS for d in _defined(top) if d.startswith("_") and not d.startswith("__") and d not in read]
    assert not unread, unread


# the benchmark's sources under perfbench/, which run the package as shipped
BENCH = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((README.parent / "perfbench").glob("*.py"))]


def test_every_public_name_is_read():
    # the package ships what it runs: a module-level public def, class or
    # constant is read in src/ outside its own definition or read by the
    # benchmark under perfbench/; anything else is test-only code and
    # belongs in tests/
    known = set().union(*(_reads(tree) for tree in BENCH))
    reads = [_reads(top) for _, top in TOPS]
    unread = [
        f"{name}.{d}"
        for i, (name, top) in enumerate(TOPS)
        for d in _defined(top)
        if not d.startswith("_") and d not in known and not any(d in r for j, r in enumerate(reads) if j != i)
    ]
    assert not unread, unread


def test_every_public_default_is_set():
    # every setting changes something: each parameter with a default, of a
    # public module-level function, is passed by keyword or by position by
    # some call in src/ or perfbench/; a default that no shipped call
    # overrides is a mode that only the tests run
    positions, keywords = {}, {}  # callee name -> most positional args, keywords passed
    for tree in [top for _, top in TOPS] + BENCH:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                positions[callee] = max(positions.get(callee, 0), math.inf if starred else len(node.args))
                keywords.setdefault(callee, set()).update(k.arg for k in node.keywords)
    unset = []
    for name, top in TOPS:
        if not isinstance(top, ast.FunctionDef) or top.name.startswith("_"):
            continue
        args, fn = top.args, top.name
        positional = args.posonlyargs + args.args
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
        defaulted += [(math.inf, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        keys = keywords.get(fn, set())
        unset += [f"{name}.{fn}:{arg}" for i, arg in defaulted if positions.get(fn, 0) <= i and arg not in keys and None not in keys]
    assert not unset, unset


def test_import_and_verify_load_no_scipy(tmp_path):
    # numpy is the one run-time dependency: importing every module, the
    # verify suites and every README command (simulate, observables,
    # asymptotics), all in one process, load no scipy module
    argvs = [cmd.split()[1:] for cmd in README_COMMANDS]
    script = f"""
import contextlib, io, sys
import dynirf, dynirf.cli
def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not scipy_modules(), "import"
import dynirf.observables, dynirf.asymptotics
assert not scipy_modules(), "observables, asymptotics"
code = dynirf.cli.main(["verify", "--suite", "all", "--seed", "0", "--out", {str(tmp_path / "v.json")!r}])
assert code == 0, code
assert not scipy_modules(), "verify"
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dynirf.cli.main(argv)
    assert code == 0, (argv, code)
    assert not scipy_modules(), argv
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert {argv[0] for argv in argvs} == {"verify", "simulate", "observables", "asymptotics"}


def test_observables_and_asymptotics_load_no_identities():
    # the report record and its residual live in special: observables and
    # asymptotics need neither the identity batteries nor the operator oracle
    script = """
import sys
import dynirf.observables, dynirf.asymptotics
print(sorted(m for m in ("dynirf.identities", "dynirf.oracle") if m in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_lazy_observable_exports():
    from dynirf import ObservableSpec, enum_E, exact_E, mc_E
    from dynirf import observables

    assert (ObservableSpec, enum_E, exact_E, mc_E) == (
        observables.ObservableSpec, observables.enum_E, observables.exact_E, observables.mc_E
    )
    with pytest.raises(AttributeError):
        dynirf.no_such_name


def test_no_public_check_takes_a_gate():
    # every report runs at the gate its check owns: no public function of
    # identities or observables takes a tolerance, a scale on one, or a tol
    import dynirf.identities
    import dynirf.observables

    gates = {"tolerance", "tolerance_scale", "tol"}
    found = []
    for module in (dynirf.identities, dynirf.observables):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                found += [f"{module.__name__}.{name}({p})" for p in inspect.signature(obj).parameters if p in gates]
    assert not found, found
