"""The import graph keeps the brute-force routes out of the library."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncspectral
from ncspectral import oracles
from ncspectral.action_assembly import ExpansionReport
from ncspectral.lattice_zeta import (EpsteinEvaluator, LatticePoly, PoleError,
                                     sphere_moment)
from ncspectral.nc_torus import OneFormTorus, Theta, TorusElement
from ncspectral.suq2 import LadderElem, PBWElem, delta_one_form

PACKAGE = Path(ncspectral.__file__).parent
LIBRARY = ("lattice_zeta", "nc_torus", "suq2", "action_assembly")


def imported_modules(path: Path) -> set:
    """The modules the file imports at module level, ncspectral ones by
    their name in the package."""
    tree = ast.parse(path.read_text())
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            absolute = node.level == 0
            base = node.module or ""
            if absolute and not base.startswith("ncspectral"):
                continue
            if absolute:
                base = base.removeprefix("ncspectral").lstrip(".")
            if base:
                found.add(base.split(".")[0])
            else:
                # from . import x, y: the names are modules
                found.update(alias.name for alias in node.names)
    return {m.removeprefix("ncspectral.") for m in found}


def imports(name: str) -> set:
    return imported_modules(PACKAGE / f"{name}.py")


def test_reader_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\n"
        "import ncspectral.gamma\n"
        "from numpy import array\n"
        "from . import acceptance, suq2\n"
        "from .oracles import value_direct\n"
        "from ncspectral.cli import main\n"
        "def late():\n"
        "    from . import nc_torus\n")
    assert imported_modules(probe) == {"math", "gamma", "acceptance",
                                         "suq2", "oracles", "cli"}


@pytest.mark.parametrize("name", LIBRARY)
def test_library_imports_no_oracle_route(name):
    assert not imports(name) & {"oracles", "acceptance", "gamma"}


def test_cli_imports_no_oracle():
    assert "oracles" not in imports("cli")


def test_oracles_import_no_cli_or_acceptance():
    assert not imports("oracles") & {"cli", "acceptance"}


def scipy_imports(path: Path) -> set:
    """(enclosing function or None, module.name) for every scipy import of
    the file, at any depth."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.update((scope, alias.name) for alias in child.names
                             if alias.name.split(".")[0] == "scipy")
            elif (isinstance(child, ast.ImportFrom)
                  and (child.module or "").split(".")[0] == "scipy"):
                found.update((scope, f"{child.module}.{alias.name}")
                             for alias in child.names)
            visit(child, child.name if isinstance(child, ast.FunctionDef)
                  else scope)

    visit(ast.parse(path.read_text()), None)
    return found


def test_scipy_reader_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy, scipy.special\n"
        "from scipy import integrate\n"
        "def late():\n"
        "    if True:\n"
        "        from scipy.linalg.lapack import dgtsv\n")
    assert scipy_imports(probe) == {
        (None, "scipy.special"), (None, "scipy.integrate"),
        ("late", "scipy.linalg.lapack.dgtsv")}


@pytest.mark.parametrize("name", LIBRARY)
def test_library_imports_nothing_from_scipy(name):
    # log Gamma, 1/Gamma, the Laguerre rule, erfcx and the table spline's
    # tridiagonal solve are the library's own; scipy's CubicSpline and
    # LAPACK's dgtsv are test oracles
    assert scipy_imports(PACKAGE / f"{name}.py") == set()


def run_probe(code: str):
    """The JSON that `code` prints in a fresh interpreter, with the package
    and the repository root on its path."""
    root = PACKAGE.parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), str(root),
                    os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_cli_import_defers_scipy_integrate():
    # the quadrature oracle's scipy.integrate, with the optimize, sparse and
    # spatial trees it imports, loads on the first quadrature, not with the
    # CLI
    loaded, value, later = run_probe(
        "import json, math, sys, ncspectral.cli\n"
        "from ncspectral import oracles\n"
        "heavy = ['scipy.interpolate', 'scipy.optimize', 'scipy.sparse',\n"
        "         'scipy.spatial', 'scipy.linalg', 'scipy.special']\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "value, _ = oracles.moment_quadrature(lambda t: math.exp(-t), 2)\n"
        "print(json.dumps([loaded, value, 'scipy.optimize' in sys.modules]))\n")
    assert loaded == []
    assert abs(value - 0.5) <= 1e-10
    assert later


def test_torus_and_zeta_ops_load_no_scipy_special_or_linalg(tmp_path):
    # a torus op, a Z_n(0) op, which takes the quadrature route, and an
    # action op on a tabulated cutoff, whose spline is solved in the module,
    # run on the library's own 1/Gamma, Laguerre rule, erfcx and gtsv
    potential = tmp_path / "potential.json"
    potential.write_text(json.dumps({
        "n": 2, "theta": [[0.0, 1.0], [-1.0, 0.0]],
        "diophantine_asserted": True,
        "A": [{"alpha": 1, "l": [0, 1], "re": 0.0, "im": 0.3}]}))
    action = tmp_path / "action.json"
    action.write_text(json.dumps({
        "cutoff": {"table": [[0.0, 1.0], [0.5, 0.7], [1.0, 0.5],
                             [2.0, 0.25], [3.0, 0.125]]},
        "lambda": 2.0, "zeta0": 0.5, "coefficients": {"3": 2.0, "1": -0.5}}))
    codes, loaded = run_probe(
        "import io, json, sys, contextlib\n"
        "from ncspectral.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['torus', '--input', {str(potential)!r},\n"
        "                   '--lambda', '10']),\n"
        "             main(['zeta', '--n', '3', '--s=0']),\n"
        f"             main(['action', '--input', {str(action)!r}])]\n"
        "print(json.dumps([codes, [m for m in ('scipy.special',\n"
        "    'scipy.linalg') if m in sys.modules]]))\n")
    assert codes == [0, 0, 0]
    assert loaded == []


@pytest.mark.parametrize("name", [
    "value_direct", "sphere_moment_quadrature", "residue_direct_oracle",
    "riemann_zeta", "pairing", "curvature_from_coefficients",
    "zeta0_shift_via_power_sums", "TruncatedSpectrum", "dirac_truncated",
    "leg_matrix", "qn", "_SHELL_ACTION", "_state_valid", "_apply_word_shell",
    "shell_trace_oracle", "shell_fit_weight3", "NotReducibleError",
    "_lm_mul", "_lm_base", "ideal_r_reduce", "lqmq_integral",
    "table_entry_ladder", "zeta_D_suq2", "_curvature_ff_trace",
    "moment_quadrature", "tau0_series", "gamma_matrices", "gauge_transform",
    "UNITARY_TOL", "weight3_tau1_integral", "epstein_continuation"])
def test_oracle_route_lives_in_oracles(name):
    assert hasattr(oracles, name)
    for module in LIBRARY:
        library = importlib.import_module(f"ncspectral.{module}")
        assert not hasattr(library, name), f"{module}.{name}"
    if name == "epstein_continuation":  # it was a method of the evaluator
        assert not hasattr(EpsteinEvaluator, "value_incomplete_gamma")


def defined_names(name: str) -> set:
    """The functions, methods and classes the module defines, and the
    names it assigns at module level."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return ({node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            | {target.id for node in tree.body if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name)})


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_one_number_rule_for_input_documents(name):
    # the numbers of every input document are read by the two rules of
    # action_assembly, and no module keeps a check of its own
    defined = defined_names(name)
    assert not defined & {"_finite", "_integer", "_exponent",
                          "_finite_numbers"}
    rules = {"json_number", "json_integer"}
    assert defined & rules == (rules if name == "action_assembly" else set())


@pytest.mark.parametrize("build", [
    lambda x: OneFormTorus(2, [(1, (x, 0), 0.5j)]).modes.tolist(),
    lambda x: OneFormTorus(2, [(x, (1, 0), 0.5j)]).coeffs.tolist(),
    lambda x: TorusElement(2, {(x, 0): 1}).coeffs,
    lambda x: PBWElem({(0, x, 0): 1}).coeffs,
    lambda x: LatticePoly(2, [((x, 0), 1.0)]).terms,
    lambda x: sphere_moment(2, (x + 1, 0))],
    ids=["torus-mode", "torus-component", "torus-element", "pbw",
         "lattice-poly", "sphere-moment"])
def test_library_integers_follow_the_document_rule(build):
    # json_integer: an integral float or a numpy integer is the integer,
    # and a fraction is refused, not truncated
    assert build(1.0) == build(np.int64(1)) == build(1)
    with pytest.raises(ValueError, match="not an integer"):
        build(1.5)


# no CLI path, selftest criterion or oracle route used these; they are gone
DELETED = {"_normalize_word", "pbw_normalize", "pbw_adjoint", "zero_degree",
           "TwistedFamily", "twisted_residue", "check_skew", "gamma_trace",
           "_pair_sum", "chirality", "_tabulate", "SKEW_TOL", "degree",
           "GammaRep", "build_gamma", "Curvature", "commutator", "_pruned",
           "_monomial_word", "_REP_GENERATORS", "UnsupportedError"}


@pytest.mark.parametrize("name", MODULES)
def test_deleted_names_stay_deleted(name):
    assert not defined_names(name) & DELETED


def test_gamma_matrices_live_in_oracles():
    assert not (PACKAGE / "gamma.py").exists()


@pytest.mark.parametrize("cls, methods", [
    (PBWElem, ("mul", "one", "norm1", "__sub__", "__add__", "__rmul__",
               "monomial")),
    (Theta, ("pairing", "zero")),
    (OneFormTorus, ("from_entries", "zero", "components", "component")),
    (LadderElem, ("zero", "one", "letter", "__add__", "__sub__", "__rmul__",
                  "adjoint", "norm1", "allclose", "__repr__")),
    (ExpansionReport, ("coefficient",)),
    (TorusElement, ("unit", "weyl", "__rmul__", "__neg__", "tau", "norm1",
                    "allclose", "__repr__", "__add__", "__sub__", "adjoint",
                    "delta", "_check")),
    (PoleError, ("__init__",))])
def test_deleted_methods_stay_deleted(cls, methods):
    # every class has a __repr__ and an __init__: those count where cls
    # defines them
    assert not [m for m in methods
                if (m in vars(cls) if m in ("__repr__", "__init__")
                    else hasattr(cls, m))]


@pytest.mark.parametrize("name", MODULES)
def test_suq2_elements_carry_no_f(name):
    # every element is a delta-one-form: no F power, no F flag
    source = (PACKAGE / f"{name}.py").read_text()
    assert "f_power" not in source and "f_flag" not in source


def test_ladder_element_is_its_words():
    assert LadderElem.__slots__ == ("words",)
    assert list(inspect.signature(delta_one_form).parameters) == ["x", "y"]


def string_constants(name: str) -> set:
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


@pytest.mark.parametrize("name", MODULES)
def test_theta_owns_the_skew_check(name):
    has_check = any("skew-symmetric" in text for text in string_constants(name))
    assert has_check == (name == "nc_torus")


def test_package_import_leaves_oracles_out():
    loaded, bound = run_probe(
        "import json, sys, ncspectral; print(json.dumps("
        "['ncspectral.oracles' in sys.modules, sorted(vars(ncspectral))]))")
    assert not loaded
    oracle_names = {n for n in defined_names("oracles") if not n.startswith("_")}
    assert oracle_names
    assert not set(bound) & (oracle_names | {"oracles"})


def test_package_import_loads_no_submodule():
    # each name is imported from its module: the package root runs none of
    # them and holds no name of its own
    loaded, public = run_probe(
        "import json, sys, ncspectral\n"
        "print(json.dumps([\n"
        "    sorted(m for m in sys.modules\n"
        "           if m.startswith('ncspectral.')),\n"
        "    sorted(n for n in vars(ncspectral)\n"
        "           if not n.startswith('_'))]))\n")
    assert loaded == []
    assert public == []


def test_readme_quick_tour_runs():
    # the tour's imports are the documented way in; run it as written
    root = PACKAGE.parent.parent
    readme = (root / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("name", ["PoleError", "ToleranceError",
                                  "AssumptionError"])
def test_exceptions_live_in_action_assembly(name):
    # lattice_zeta holds the two it raises, and no AssumptionError
    from ncspectral import action_assembly, lattice_zeta
    if name == "AssumptionError":
        assert not hasattr(lattice_zeta, name)
    else:
        assert getattr(lattice_zeta, name) is getattr(action_assembly, name)
    assert getattr(action_assembly, name).__module__ == \
        "ncspectral.action_assembly"


@pytest.mark.parametrize("name", ["nc_torus", "suq2"])
def test_torus_and_suq2_import_no_zeta(name):
    assert "lattice_zeta" not in imports(name)


def subcommand_inputs(tmp_path) -> dict:
    """argv of one small run of each subcommand, its inputs under tmp_path."""
    docs = {
        "potential": {"n": 2, "theta": [[0.0, 1.0], [-1.0, 0.0]],
                      "diophantine_asserted": True,
                      "A": [{"alpha": 1, "l": [0, 1], "re": 0.0,
                             "im": 0.3}]},
        "action": {"cutoff": {"table": [[0.0, 1.0], [0.5, 0.7], [1.0, 0.5],
                                        [2.0, 0.25], [3.0, 0.125]]},
                   "lambda": 2.0, "zeta0": 0.5,
                   "coefficients": {"3": 2.0, "1": -0.5}},
        "one_form": {"q": 0.5, "one_form": [{
            "x": [{"a": -1, "b": 0, "bstar": 0, "coeff": {"re": 1.0}}],
            "y": [{"a": 1, "b": 0, "bstar": 0, "coeff": {"re": 1.0}}],
            "coeff": {"re": 1.0}}]}}
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return {"suq2": ["suq2", "--one-form", paths["one_form"]],
            "torus": ["torus", "--input", paths["potential"],
                      "--lambda", "10"],
            "action": ["action", "--input", paths["action"]],
            "zeta": ["zeta", "--n", "2", "--s=0.5+1j"],
            "selftest": ["selftest"]}


@pytest.mark.parametrize("command, heavy", [
    ("suq2", []), ("torus", ["numpy"]), ("action", ["numpy"]),
    ("zeta", ["numpy", "mpmath"]),
    ("selftest", ["numpy", "mpmath", "scipy.integrate"])])
def test_subcommand_loads_only_what_it_runs(tmp_path, command, heavy):
    # a module that LazyLoader registered but nothing has used yet is of a
    # subclass of ModuleType; only a plain module has run
    argv = subcommand_inputs(tmp_path)[command]
    code, loaded = run_probe(
        "import io, json, sys, types, contextlib\n"
        "from ncspectral.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, [m for m in ('numpy', 'mpmath',\n"
        "    'scipy.integrate') if type(sys.modules.get(m)) is\n"
        "    types.ModuleType]]))\n")
    assert code == 0
    assert loaded == heavy


def test_traced_names_resolve():
    # the traced benchmark run imports the CLI alone and then wraps these by
    # module and attribute path; a rename, or a module that the CLI import
    # no longer registers, would otherwise show only when that run fails
    count, missing = run_probe(
        "import json, ncspectral.cli\n"
        "from perfbench import tracing\n"
        "names = [(m, p) for m, p, *_ in tracing.SPANS + tracing.COUNTS]\n"
        "names.append(('ncspectral.suq2', 'tau0'))\n"
        "with tracing.Recorder():\n"
        "    pass\n"
        "missing = [p for m, p in names\n"
        "           if not callable(getattr(*tracing._resolve(m, p)))]\n"
        "print(json.dumps([len(names), missing]))\n")
    assert count and not missing
