import argparse
import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncspectral import suq2
from ncspectral.cli import _build_parser, main

GOLDEN = (math.sqrt(5) - 1) / 2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def torus_doc(n=4):
    theta = [[0.0] * n for _ in range(n)]
    vals = [GOLDEN, GOLDEN / 2, 1 / math.pi, GOLDEN / 4, GOLDEN / 10,
            2 * GOLDEN]
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            theta[i][j] = 2 * math.pi * vals[idx % len(vals)]
            theta[j][i] = -theta[i][j]
            idx += 1
    return {
        "n": n,
        "theta": theta,
        "diophantine_asserted": True,
        "A": [{"alpha": 1, "l": [0, 1, 0, 0][:n], "re": 0.0, "im": 0.3},
              {"alpha": 2, "l": [1, 0, 0, 0][:n], "re": 0.1, "im": 0.05}],
    }


ASTAR_DA = {
    "q": 0.5,
    "one_form": [
        {"x": [{"a": -1, "b": 0, "bstar": 0, "coeff": {"re": 1.0, "im": 0.0}}],
         "y": [{"a": 1, "b": 0, "bstar": 0, "coeff": {"re": 1.0, "im": 0.0}}],
         "coeff": {"re": 1.0, "im": 0.0}},
    ],
}


class TestZetaCommand:
    def test_value_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--n", "2", "--s", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["value"] == pytest.approx(-1.0, abs=1e-8)
        assert "provenance" in doc["value"]

    def test_residue_mode(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--n", "4", "--residue")
        assert code == 0
        doc = json.loads(out)
        assert doc["residue"]["value"] == pytest.approx(2 * math.pi ** 2)
        assert doc["pole_fit"]["value"] == pytest.approx(2 * math.pi ** 2,
                                                         abs=1e-5)

    def test_complex_argument(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--n", "2", "--s", "1.5+0.3j")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["value"]["value"]) == {"re", "im"}

    def test_pole_is_unsupported(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--n", "2", "--s", "2")
        assert code == 4
        assert "pole" in err

    def test_bad_dimension(self, capsys):
        code, _, _ = run_cli(capsys, "zeta", "--n", "9", "--s", "0")
        assert code == 4

    def test_bad_complex(self, capsys):
        code, _, err = run_cli(capsys, "zeta", "--n", "2", "--s", "zzz")
        assert code == 2

    @pytest.mark.parametrize("s,route", [
        ("0.5", "theta-integral Gauss-Laguerre quadrature"),
        ("0.76+24.2j", "incomplete-gamma continuation")])
    def test_route_and_bound_reported(self, capsys, s, route):
        code, out, _ = run_cli(capsys, "zeta", "--n", "2", f"--s={s}")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["provenance"] == route
        assert doc["value"]["tail_bound"] < 0.1 * doc["tolerance"]

    def test_residue_honours_tolerance(self, capsys):
        code, out, err = run_cli(capsys, "zeta", "--n", "2", "--residue",
                                 "--tol", "1e-60")
        assert code == 3
        assert out == ""
        assert "tolerance" in err

    def test_successive_calls_do_not_share_options(self, capsys):
        code, out, _ = run_cli(capsys, "zeta", "--n", "4", "--residue",
                               "--tol", "1e-9")
        assert code == 0
        assert "pole_fit" in json.loads(out)
        code, out, _ = run_cli(capsys, "zeta", "--n", "2", "--s=0.5")
        assert code == 0
        doc = json.loads(out)
        assert "pole_fit" not in doc and "residue" not in doc
        assert doc["tolerance"] == 1e-10
        assert doc["n"] == 2


class TestTorusCommand:
    def test_full_run(self, tmp_path, capsys):
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(torus_doc()))
        code, out, _ = run_cli(capsys, "torus", "--input", str(path),
                               "--lambda", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["expansion"]["terms"][0]["power"] == 4
        assert doc["expansion"]["terms"][0]["coefficient"] == pytest.approx(
            8 * math.pi ** 2 * 0.5)
        # consistency of the two zeta-shift routes inside the report
        assert doc["zeta0_shift"]["value"] == pytest.approx(
            doc["zeta0_shift_power_sums"]["value"], abs=1e-10)

    def test_missing_flag_is_schema_error(self, tmp_path, capsys):
        doc = torus_doc()
        doc["diophantine_asserted"] = False
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "torus", "--input", str(path),
                               "--lambda", "10")
        assert code == 2

    def test_flag_must_be_boolean(self, tmp_path, capsys):
        doc = torus_doc()
        doc["diophantine_asserted"] = "false"
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "torus", "--input", str(path),
                                 "--lambda", "10")
        assert code == 2
        assert out == ""
        assert "diophantine_asserted" in err

    def test_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"n\": 4}")
        code, _, _ = run_cli(capsys, "torus", "--input", str(path),
                             "--lambda", "1")
        assert code == 2

    @pytest.mark.parametrize("where", ["re", "im", "theta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_is_schema_error(self, tmp_path, capsys,
                                              where, bad):
        doc = torus_doc()
        if where == "theta":
            doc["theta"][0][1] = bad
        else:
            doc["A"][0][where] = bad
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "torus", "--input", str(path),
                                 "--lambda", "10")
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("field", ["l", "alpha"])
    def test_non_integer_is_schema_error(self, tmp_path, capsys, field):
        doc = torus_doc()
        doc["A"][0][field] = [0, 1.5, 0, 0] if field == "l" else 1.7
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "torus", "--input", str(path),
                               "--lambda", "10")
        assert code == 2
        assert "not an integer" in err

    def test_overflow_is_tolerance_failure(self, tmp_path, capsys):
        doc = torus_doc()
        doc["A"][0]["re"] = 1e200
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "torus", "--input", str(path),
                                 "--lambda", "10")
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "non-finite" in err

    def test_mode_cap(self, tmp_path, capsys):
        # two explicit entries, four modes after skew completion
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(torus_doc()))
        code, _, err = run_cli(capsys, "torus", "--input", str(path),
                               "--lambda", "10", "--trunc", "3")
        assert code == 4
        assert "cap" in err
        code, _, _ = run_cli(capsys, "torus", "--input", str(path),
                             "--lambda", "10", "--trunc", "4")
        assert code == 0

    def test_unwritable_output_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(torus_doc()))
        code, _, err = run_cli(capsys, "torus", "--input", str(path),
                               "--lambda", "10",
                               "--out", str(tmp_path / "no" / "report.json"))
        assert code == 2
        assert "Traceback" not in err

    def test_non_finite_lambda_rejected(self, tmp_path, capsys):
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(torus_doc()))
        with pytest.raises(SystemExit) as exc:
            main(["torus", "--input", str(path), "--lambda", "nan"])
        assert exc.value.code == 2

    def test_unsupported_dimension(self, tmp_path, capsys):
        doc = {"n": 3, "theta": [[0.0] * 3 for _ in range(3)],
               "diophantine_asserted": True, "A": []}
        path = tmp_path / "A3.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "torus", "--input", str(path),
                             "--lambda", "1")
        assert code == 4


class TestSuq2Command:
    def test_table_row(self, tmp_path, capsys):
        path = tmp_path / "astar_da.json"
        path.write_text(json.dumps(ASTAR_DA))
        code, out, _ = run_cli(capsys, "suq2", "--q", "0.5",
                               "--one-form", str(path), "--lambda", "1")
        assert code == 0
        doc = json.loads(out)
        q = 0.5
        ints = doc["integrals"]
        assert ints["A|D|^-3"]["value"] == pytest.approx(2.0, abs=1e-8)
        assert ints["A|D|^-2"]["value"] == pytest.approx(
            4 * q ** 2 / (q ** 2 - 1), abs=1e-8)
        assert ints["A^2|D|^-2"]["value"] == pytest.approx(
            4 * q ** 2 * (q ** 2 + 2) / (q ** 4 - 1), abs=1e-8)
        assert doc["zeta0"]["value"] == pytest.approx(
            (11 * q ** 4 + 36 * q ** 2 + 13) / (3 * (q ** 4 - 1)), abs=1e-8)

    def test_q_override_and_determinism(self, tmp_path, capsys):
        path = tmp_path / "astar_da.json"
        path.write_text(json.dumps(ASTAR_DA))
        reports = []
        for run in ("first", "second"):
            out_path = tmp_path / f"suq2-{run}.json"
            code, _, _ = run_cli(capsys, "suq2", "--q", "0.3",
                                 "--one-form", str(path),
                                 "--out", str(out_path))
            assert code == 0
            reports.append(out_path.read_bytes())
        assert reports[0] == reports[1]
        doc = json.loads(reports[0])
        assert doc["q"] == 0.3

    def test_missing_q(self, tmp_path, capsys):
        doc = {"one_form": ASTAR_DA["one_form"]}
        path = tmp_path / "noq.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "suq2", "--one-form", str(path))
        assert code == 2

    def test_no_reality_halves_scale_invariant_term(self, tmp_path, capsys):
        path = tmp_path / "bstar_db.json"
        doc = {"q": 0.5, "one_form": [
            {"x": [{"a": 0, "b": 0, "bstar": 1, "coeff": {"re": 1.0}}],
             "y": [{"a": 0, "b": 1, "bstar": 0, "coeff": {"re": 1.0}}],
             "coeff": {"re": 1.0}}]}
        path.write_text(json.dumps(doc))
        _, out_full, _ = run_cli(capsys, "suq2", "--one-form", str(path))
        _, out_bare, _ = run_cli(capsys, "suq2", "--one-form", str(path),
                                 "--no-reality")
        full = json.loads(out_full)
        bare = json.loads(out_bare)
        assert full["zeta0"]["value"] == pytest.approx(
            2 * bare["zeta0"]["value"], abs=1e-10)

    @pytest.mark.parametrize("where", ["coeff", "monomial", "q"])
    def test_non_finite_input_is_schema_error(self, tmp_path, capsys, where):
        doc = json.loads(json.dumps(ASTAR_DA))
        if where == "coeff":
            doc["one_form"][0]["coeff"]["re"] = math.nan
        elif where == "monomial":
            doc["one_form"][0]["x"][0]["coeff"]["im"] = math.inf
        else:
            doc["q"] = math.nan
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path))
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("where", ["x", "coeff"])
    def test_wrong_type_is_schema_error(self, tmp_path, capsys, where):
        doc = json.loads(json.dumps(ASTAR_DA))
        doc["one_form"][0][where] = "a" if where == "x" else 1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path))
        assert code == 2
        assert out == ""
        assert "malformed" in err

    @pytest.mark.parametrize("bad", [-1.5, 1.9, "1", math.inf])
    def test_non_integer_exponent_is_schema_error(self, tmp_path, capsys,
                                                  bad):
        doc = json.loads(json.dumps(ASTAR_DA))
        doc["one_form"][0]["x"][0]["a"] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path))
        assert code == 2
        assert out == ""
        assert "integer" in err

    @pytest.mark.parametrize("x,y,expected", [
        # a^17 d a would expand into 2^18 words before any count
        ([{"a": 17}], [{"a": 1}], 4),
        # a pair with an empty side is zero and is not expanded at all
        ([{"a": 40}], [], 0),
        ([], [{"b": 40}], 0),
    ])
    def test_word_cap_checked_before_expansion(self, tmp_path, capsys,
                                               monkeypatch, x, y, expected):
        def no_expansion(*args):
            raise AssertionError("monomial expanded")

        monkeypatch.setattr(suq2, "rep_ladder", no_expansion)
        doc = {"q": 0.5, "one_form": [{"x": x, "y": y}]}
        path = tmp_path / "one_form.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path),
                                 "--trunc", "1000")
        assert code == expected
        if expected == 4:
            assert out == ""
            assert "cap 1000" in err

    def test_word_cap_is_on_the_bound(self, tmp_path, capsys):
        # 1 d(b b*) has a bound of 4 words but 2 after the expansion, since
        # the degree-0 words of b b* drop out of the derivation
        doc = {"q": 0.5, "one_form": [{"x": [{}],
                                       "y": [{"b": 1, "bstar": 1}]}]}
        path = tmp_path / "one_form.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "suq2", "--one-form", str(path),
                               "--trunc", "4")
        assert code == 0
        assert json.loads(out)["ladder_words"] == 2
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path),
                                 "--trunc", "3")
        assert code == 4
        assert "4 ladder words" in err

    def test_word_cap(self, tmp_path, capsys):
        path = tmp_path / "astar_da.json"
        path.write_text(json.dumps(ASTAR_DA))
        code, _, err = run_cli(capsys, "suq2", "--q", "0.5",
                               "--one-form", str(path), "--trunc", "1")
        assert code == 4
        assert "cap" in err


class TestActionCommand:
    def test_assembly(self, tmp_path, capsys):
        doc = {"cutoff": {"family": "exponential"},
               "lambda": 2.0,
               "coefficients": {"3": 2.0, "2": 0.0, "1": -0.5},
               "zeta0": 0.0}
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "action", "--input", str(path))
        assert code == 0
        rep = json.loads(out)
        phi3, phi1 = math.sqrt(math.pi) / 4, math.sqrt(math.pi) / 2
        assert rep["expansion"]["total"] == pytest.approx(
            2 * phi3 * 8 - 0.5 * phi1 * 2)

    def test_coefficient_list_is_schema_error(self, tmp_path, capsys):
        doc = {"cutoff": {"family": "exponential"}, "lambda": 2.0,
               "coefficients": [2.0, -0.5]}
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "malformed" in err

    def test_negative_table_abscissa_is_unsupported(self, tmp_path, capsys):
        # read off the first row, Phi(-1) = e^-1 would stand in for Phi(0)
        table = [[t / 10.0, math.exp(-t / 10.0)] for t in range(-10, 200)]
        doc = {"cutoff": {"table": table}, "lambda": 2.0,
               "coefficients": {"2": 1.0}, "zeta0": 1.0}
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert code == 4
        assert out == ""
        assert "nonnegative" in err

    @pytest.mark.parametrize("field", ["coefficient", "lambda", "zeta0"])
    def test_non_finite_input_is_schema_error(self, tmp_path, capsys, field):
        doc = {"cutoff": {"family": "exponential"}, "lambda": 2.0,
               "coefficients": {"3": 2.0, "1": {"re": -0.5, "im": 0.0}},
               "zeta0": 0.0}
        if field == "coefficient":
            doc["coefficients"]["1"]["im"] = math.nan
        else:
            doc[field] = math.inf
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "non-finite" in err


class TestOptionSurface:
    """Each subcommand accepts exactly the options it reads."""

    SURFACE = {
        "zeta": {"--n", "--s", "--residue", "--tol", "--out"},
        "torus": {"--input", "--lambda", "--cutoff", "--trunc", "--out"},
        "suq2": {"--q", "--one-form", "--lambda", "--cutoff", "--no-reality",
                 "--tol", "--max-terms", "--trunc", "--out"},
        "action": {"--input", "--out"},
        "selftest": set(),
    }

    def test_long_options_per_subcommand(self):
        sub, = [a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        surface = {name: {o for a in p._actions for o in a.option_strings
                          if o.startswith("--") and o != "--help"}
                   for name, p in sub.choices.items()}
        assert surface == self.SURFACE

    @pytest.mark.parametrize("argv", [
        ["zeta", "--n", "2", "--trunc", "5"],
        ["zeta", "--n", "2", "--format", "json"],
        ["torus", "--input", "A4.json", "--lambda", "1", "--threads", "2"],
        ["torus", "--input", "A4.json", "--lambda", "1", "--tol", "1e-9"],
        ["action", "--input", "action.json", "--max-terms", "10"],
        ["selftest", "--out", "report.json"],
    ])
    def test_unread_option_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# leaves and containers of arbitrary JSON, kept small; a number that lands
# on an SU_q(2) monomial exponent may be large, because --trunc is checked
# against a bound on the ladder words before any monomial is expanded
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-40, 40) | st.text(max_size=3)
    | st.floats(-40.0, 40.0) | st.sampled_from([math.nan, math.inf, 1e300]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _field(valid):
    """A field that is well formed nine times in ten, else any JSON value."""
    return st.integers(0, 9).flatmap(lambda i: JSON if i == 0 else valid)


def _document(fields):
    """Documents with every field, with some fields, or any JSON value."""
    full = st.fixed_dictionaries({k: _field(v) for k, v in fields.items()})
    some = st.fixed_dictionaries({}, optional={k: _field(v)
                                               for k, v in fields.items()})
    return st.integers(0, 9).flatmap(
        lambda i: JSON if i == 0 else some if i == 1 else full)


NUMBER = st.floats(-2.0, 2.0) | st.integers(-2, 2)
COMPLEX = st.fixed_dictionaries({"re": _field(NUMBER)},
                                optional={"im": _field(NUMBER)})

def _torus_fields(n):
    entry = st.fixed_dictionaries({
        "alpha": _field(st.integers(1, n)),
        "l": _field(st.lists(st.integers(-2, 2), min_size=n, max_size=n)),
        "re": _field(NUMBER), "im": _field(NUMBER)})
    return _document({
        "n": st.just(n), "theta": st.just(torus_doc(n)["theta"]),
        "diophantine_asserted": st.booleans(),
        "A": st.lists(_field(entry), max_size=3)})


TORUS_DOC = st.sampled_from([2, 3, 4]).flatmap(_torus_fields)

EXPONENT = st.integers(0, 2) | st.integers(0, 40)
MONOMIAL = st.fixed_dictionaries({}, optional={
    "a": _field(EXPONENT | EXPONENT.map(lambda i: -i)),
    "b": _field(EXPONENT), "bstar": _field(EXPONENT),
    "coeff": _field(COMPLEX)})
SUQ2_DOC = _document({
    "q": st.floats(0.1, 0.9),
    "one_form": st.lists(_field(st.fixed_dictionaries({}, optional={
        "x": _field(st.lists(_field(MONOMIAL), max_size=2)),
        "y": _field(st.lists(_field(MONOMIAL), max_size=2)),
        "coeff": _field(COMPLEX)})), max_size=2),
})

CUTOFF = st.one_of(
    st.fixed_dictionaries({"family": st.sampled_from(
        ["exponential", "gaussian", "other"])},
        optional={"params": _field(st.fixed_dictionaries(
            {"scale": _field(NUMBER)}))}),
    st.fixed_dictionaries({"table": _field(st.lists(
        st.lists(NUMBER, min_size=2, max_size=2), max_size=6))}))
ACTION_DOC = _document({
    "cutoff": CUTOFF,
    "lambda": NUMBER,
    "coefficients": st.dictionaries(
        st.integers(0, 9).flatmap(lambda i: st.text(max_size=2) if i == 0
                                  else st.integers(-1, 6).map(str)),
        _field(NUMBER | COMPLEX), max_size=3),
    "zeta0": NUMBER,
})


@pytest.mark.parametrize("command,flag,documents,extra", [
    ("torus", "--input", TORUS_DOC, ["--lambda", "2"]),
    ("suq2", "--one-form", SUQ2_DOC, []),
    ("action", "--input", ACTION_DOC, []),
])
def test_generated_documents_keep_exit_contract(tmp_path, command, flag,
                                                documents, extra):
    path = tmp_path / "input.json"
    out_path = tmp_path / "report.json"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(documents)
    def run(doc):
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, flag, str(path), *extra,
                         "--out", str(out_path)])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()

    run()


class TestSelftestPlumbing:
    def test_exit_codes(self, monkeypatch, capsys):
        from ncspectral import acceptance

        monkeypatch.setattr(acceptance, "CRITERIA",
                            [(1, "stub", lambda: (True, "ok"))])
        assert main(["selftest"]) == 0
        assert "[PASS]" in capsys.readouterr().out

        monkeypatch.setattr(acceptance, "CRITERIA",
                            [(1, "stub", lambda: (False, "boom"))])
        assert main(["selftest"]) == 3
        assert "[FAIL]" in capsys.readouterr().out
