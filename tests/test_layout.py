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
from ncspectral.lattice_zeta import LatticePoly, sphere_moment
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


def test_action_assembly_takes_no_quadrature_from_scipy():
    tree = ast.parse((PACKAGE / "action_assembly.py").read_text())
    names = {alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.module == "scipy"
             for alias in node.names}
    # the spline of a table is solved in the module, with a lazy
    # scipy.linalg import; scipy's CubicSpline is its test oracle
    assert names == {"special"}


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
    # CLI; the table spline's scipy.linalg loads when a table is read
    loaded, value, later = run_probe(
        "import json, math, sys, ncspectral.cli\n"
        "from ncspectral import oracles\n"
        "heavy = ['scipy.interpolate', 'scipy.optimize', 'scipy.sparse',\n"
        "         'scipy.spatial', 'scipy.linalg']\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "value, _ = oracles.moment_quadrature(lambda t: math.exp(-t), 2)\n"
        "print(json.dumps([loaded, value, 'scipy.optimize' in sys.modules]))\n")
    assert loaded == []
    assert abs(value - 0.5) <= 1e-10
    assert later


def test_lattice_zeta_takes_two_functions_from_scipy():
    # the log Gamma of the L-series reflection is its own Stirling series
    tree = ast.parse((PACKAGE / "lattice_zeta.py").read_text())
    names = {(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("scipy")
             for alias in node.names}
    assert names == {("scipy.special", "rgamma"),
                     ("scipy.special", "roots_laguerre")}
    assert not any(alias.name.startswith("scipy") for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names)


@pytest.mark.parametrize("name", [
    "value_direct", "sphere_moment_quadrature", "residue_direct_oracle",
    "riemann_zeta", "pairing", "curvature_from_coefficients",
    "zeta0_shift_via_power_sums", "TruncatedSpectrum", "dirac_truncated",
    "leg_matrix", "qn", "_SHELL_ACTION", "_state_valid", "_apply_word_shell",
    "shell_trace_oracle", "shell_fit_weight3", "NotReducibleError",
    "_lm_mul", "_lm_base", "ideal_r_reduce", "lqmq_integral",
    "table_entry_ladder", "zeta_D_suq2", "_curvature_ff_trace",
    "moment_quadrature", "tau0_series", "gamma_matrices"])
def test_oracle_route_lives_in_oracles(name):
    assert hasattr(oracles, name)
    for module in LIBRARY:
        library = importlib.import_module(f"ncspectral.{module}")
        assert not hasattr(library, name), f"{module}.{name}"


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
           "GammaRep", "build_gamma", "Curvature", "commutator", "_pruned"}


@pytest.mark.parametrize("name", MODULES)
def test_deleted_names_stay_deleted(name):
    assert not defined_names(name) & DELETED


def test_gamma_matrices_live_in_oracles():
    assert not (PACKAGE / "gamma.py").exists()


@pytest.mark.parametrize("cls, methods", [
    (PBWElem, ("mul", "one", "norm1", "__sub__")), (Theta, ("pairing",)),
    (OneFormTorus, ("from_entries", "zero"))])
def test_deleted_methods_stay_deleted(cls, methods):
    assert not [m for m in methods if hasattr(cls, m)]


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
    loaded, exported = run_probe(
        "import json, sys, ncspectral; print(json.dumps("
        "['ncspectral.oracles' in sys.modules, ncspectral.__all__]))")
    assert not loaded
    oracle_names = {n for n in defined_names("oracles") if not n.startswith("_")}
    assert oracle_names
    assert not set(exported) & (oracle_names | {"oracles"})


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
