import json
import math

import pytest

from ncspectral.cli import main

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

    def test_determinism_across_threads(self, tmp_path, capsys):
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(torus_doc()))
        outs = []
        for threads in ("1", "4"):
            out_path = tmp_path / f"report{threads}.json"
            code, _, _ = run_cli(capsys, "torus", "--input", str(path),
                                 "--lambda", "10", "--threads", threads,
                                 "--out", str(out_path))
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_flag_is_schema_error(self, tmp_path, capsys):
        doc = torus_doc()
        doc["diophantine_asserted"] = False
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "torus", "--input", str(path),
                               "--lambda", "10")
        assert code == 2

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
        for threads in ("1", "3"):
            out_path = tmp_path / f"suq2-{threads}.json"
            code, _, _ = run_cli(capsys, "suq2", "--q", "0.3",
                                 "--one-form", str(path),
                                 "--threads", threads, "--out", str(out_path))
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


def test_bad_thread_count(capsys):
    code, _, _ = run_cli(capsys, "zeta", "--n", "2", "--s", "0",
                         "--threads", "0")
    assert code == 2


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
