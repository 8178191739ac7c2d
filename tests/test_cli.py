import argparse
import contextlib
import importlib
import io
import json
import math
import re
import signal
import time
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncspectral import lattice_zeta, suq2
from ncspectral.cli import _build_parser, main, report_text

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
                                                         abs=1e-10)
        assert doc["pole_fit"]["provenance"] == (
            "trapezoid rule, 16 nodes on |s - n| = 0.5")

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

    # n = 3 has no L-series product: quadrature, then the shells
    @pytest.mark.parametrize("s,route", [
        ("0.5", "theta-integral Gauss-Laguerre quadrature"),
        ("0.76+24.2j", "incomplete-gamma continuation")])
    def test_route_and_bound_reported(self, capsys, s, route):
        code, out, _ = run_cli(capsys, "zeta", "--n", "3", f"--s={s}")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["provenance"] == route
        assert doc["value"]["tail_bound"] < 0.1 * doc["tolerance"]

    @pytest.mark.parametrize("s,tol,route", [
        ("0.5", "1e-10", "Dirichlet L-series, float64 Euler-Maclaurin"),
        ("0.76+24.2j", "1e-12",
         "Dirichlet L-series, extended-precision Euler-Maclaurin"),
        ("20000", "1e-10", "Dirichlet L-series, mpmath"),
        ("0", "1e-10", "theta-integral Gauss-Laguerre quadrature")])
    def test_l_series_routes_reported(self, capsys, s, tol, route):
        code, out, _ = run_cli(capsys, "zeta", "--n", "2", f"--s={s}",
                               "--tol", tol)
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

    def test_real_s_gives_a_real_value_on_every_route(self, capsys):
        # Z_n is real on the real axis: the report's value is a JSON number,
        # with no imaginary rounding noise, and a trivial zero is 0.0, not
        # -0.0, whichever route computed it
        routes = set()
        for n in range(1, 7):
            for s in ("-5.5", "-4", "-2.5", "-2", "0", "0.05", "1.5",
                      str(n + 3.5), "2100", "20000", "-400"):
                code, out, _ = run_cli(capsys, "zeta", "--n", str(n),
                                       f"--s={s}")
                assert code == 0, (n, s)
                value = json.loads(out)["value"]
                assert type(value["value"]) is float, (n, s, value)
                assert repr(value["value"]) != "-0.0", (n, s)
                routes.add(value["provenance"])
        assert routes == {lattice_zeta.ROUTE_L_SERIES,
                          lattice_zeta.ROUTE_L_SERIES_EXTENDED,
                          lattice_zeta.ROUTE_L_SERIES_MPMATH,
                          lattice_zeta.ROUTE_QUADRATURE,
                          lattice_zeta.ROUTE_CONTINUATION}

    @pytest.mark.parametrize("argv, code", [
        (["--n", "3", "--s=-400"], 0),
        (["--n", "3", "--s=-345.5"], 3),
        (["--n", "5", "--s=-3000.5+0.01j"], 3)])
    def test_far_left_points_keep_their_exit_codes(self, capsys, argv, code):
        # 1/Gamma(s/2 + 1) is 0 at s = -400, overflows a double at -345.5,
        # and its log Gamma overflows at -3000.5 + 0.01i
        assert run_cli(capsys, "zeta", *argv)[0] == code

    @pytest.mark.parametrize("n, s", [
        ("3", "-1e308j"), ("3", "1e308+1e308j"), ("3", "1.7e308j"),
        ("5", "-1e308j"), ("5", "1e308+1e308j"), ("5", "1e308-1e308j"),
        ("1", "1e300j"), ("2", "1e300j"), ("4", "1e300j"), ("6", "1e300j"),
        ("3", "-345.5"),
        ("1", "1e308j"), ("2", "1e308j"), ("4", "1e308j"), ("6", "-1e308j")])
    def test_overflow_on_every_route_is_named(self, capsys, n, s):
        # pi |Im s| overflows the continuation's digit count, the
        # quadrature and the L-series give nan or overflow, and at -345.5
        # 1/Gamma(s/2 + 1) overflows; none may print the nan or inf it met.
        # At |Im s| = 1e308 the float64 L-series' complex powers overflow
        # their phase, which Python reports as a ZeroDivisionError.  For
        # n in {1, 2, 4, 6} the mpmath L-series names its range instead:
        # the value need not overflow (|Z_1(1e300 i)| is about 1e150)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "zeta", "--n", n, f"--s={s}")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert ("past the range of the mpmath L-series" if n in "1246"
                else "overflows a double on every route") in err
        assert "nan" not in err and "inf" not in err

    @pytest.mark.parametrize("n, s, message", [
        ("3", "-1e154+0.5j", "overflows a double on every route"),
        ("3", "-1e9+0.5j", "overflows a double on every route"),
        ("5", "-1e9+1j", "overflows a double on every route"),
        ("3", "1e154+2.2e-308j", "past the shells' range"),
        ("3", "1e154", "past the shells' range"),
        ("3", "1e300", "past the shells' range"),
        ("5", "1e154", "past the shells' range"),
        ("5", "1e154+1j", "past the shells' range"),
        ("3", "2.028240960365167e+31", "past the shells' range")])
    def test_far_real_parts_are_refused_at_once(self, capsys, n, s, message):
        # the log Gamma shifts and the mpmath shells are bounded where
        # their sizing stops: no hang, no false pole and no value of the
        # wrong size
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "zeta", "--n", n, f"--s={s}")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert message in err and "pole" not in err

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("s", [
        # the shells' last point on the positive real axis, where Z_n is
        # its 2n nearest lattice points, and trivial zeros, near and far
        "2.0282409603651666e+31", "-4002", "-1e40", "-1e154", "-1e308"])
    def test_shells_serve_up_to_their_range(self, capsys, n, s):
        code, out, _ = run_cli(capsys, "zeta", "--n", str(n), f"--s={s}")
        assert code == 0
        doc = json.loads(out)["value"]
        assert doc["provenance"] == lattice_zeta.ROUTE_CONTINUATION
        value = 2 * n if float(s) > 0 else 0.0
        assert doc["value"] == value
        # the shells' floor, plus the rounding of the value to a double
        assert doc["tail_bound"] == 1e-25 + math.ulp(value) / 2

    @pytest.mark.parametrize("n, s, value", [
        ("6", "1e300", 12.0), ("1", "1e300", 2.0)])
    def test_loose_tolerance_keeps_a_doubles_digits(self, capsys, n, s,
                                                    value):
        # --tol 1e154 asked the mpmath L-series for -148 digits: it ran at
        # one bit, where two evaluations agree by construction, and
        # Z_6(1e300) read 16 with a bound of 1.8e-15
        code, out, _ = run_cli(capsys, "zeta", "--n", n, f"--s={s}",
                               "--tol", "1e154")
        assert code == 0
        doc = json.loads(out)["value"]
        assert doc["provenance"] == lattice_zeta.ROUTE_L_SERIES_MPMATH
        assert doc["value"] == value

    def test_loose_tolerance_does_not_hide_an_overflow(self, capsys):
        # Z_1(-5001) overflows a double; at one bit it read 0.0
        code, out, err = run_cli(capsys, "zeta", "--n", "1", "--s=-5001",
                                 "--tol", "1e154")
        assert code == 3
        assert out == ""
        assert "overflows a double on every route" in err

    @pytest.mark.parametrize("n, s, message", [
        ("2", "-40+3000j", "no double holds"),
        ("4", "-60+200j", "no double holds"),
        ("1", "-300+2000j", "overflows a double on every route")])
    def test_mpmath_l_series_stops_where_no_double_holds_the_value(
            self, capsys, n, s, message):
        # |Z| is about 2.7e110, 3.2e94 and 7.9e752: the first two rungs agree
        # to 1e-14, and rounding alone passes --tol, so no later rung can
        # keep the value; the ladder ran every rung before 'did not converge'
        run_cli(capsys, "zeta", "--n", n, "--s=0.5")  # load the module
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "zeta", "--n", n, f"--s={s}")
        assert time.perf_counter() - start < 0.1
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert message in err
        assert not NON_FINITE.search(err)

    @pytest.mark.parametrize("n, s, tol", [
        ("2", "0.5+1e9j", "1e-10"), ("1", "0.5+1e16j", "1e-10"),
        ("6", "0.5+1e5j", "1e-10"), ("1", "3+1e16j", "1e154"),
        ("2", "0.5+1e5j", "1e-10"), ("6", "9+1e5j", "1e-10")])
    def test_mpmath_l_series_refuses_past_its_work(self, capsys, n, s, tol):
        # mpmath's zeta and Hurwitz zeta sum about |Im s| terms on each of
        # up to nine precisions: these ran from 2.4 s to past 10 s, or
        # exited 4 with an empty message; their first two rungs pass the work
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "zeta", "--n", n, f"--s={s}",
                                 "--tol", tol)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "past the range of the mpmath L-series" in err

    @pytest.mark.parametrize("n, s", [
        ("1", "400+1e300j"), ("2", "800+1e9j"), ("4", "60+1e12j"),
        ("2", "40+1e7j"), ("1", "0.5+1e8j"), ("4", "7+1e8j")])
    def test_mpmath_l_series_serves_within_its_work(self, capsys, n, s):
        # far right of n/2 the terms decay at once, and for n = 1 and 4
        # mpmath sums the square root of |Im s| of them by Riemann-Siegel
        code, out, _ = run_cli(capsys, "zeta", "--n", n, f"--s={s}")
        assert code == 0
        doc = json.loads(out)["value"]
        assert doc["provenance"] == lattice_zeta.ROUTE_L_SERIES_MPMATH
        value = complex(doc["value"]["re"], doc["value"]["im"])
        with mpmath.workdps(50):
            reference = lattice_zeta._l_series_mpmath(
                int(n), mpmath.mpc(complex(s)))
            assert abs(mpmath.mpc(value) - reference) <= doc["tail_bound"]

    @pytest.mark.parametrize("n, s, value", [
        ("2", "0.5+1e4j", 38.52809094589474 - 59.25215050420631j),
        ("4", "9+1e5j", 8.559260832265654 + 0.666563351459212j),
        ("1", "9+1e12j", 1.9983037419478267 - 0.003485100919090738j)])
    def test_mpmath_l_series_charges_only_the_rungs_it_runs(self, capsys, n,
                                                           s, value):
        # the whole ladder would pass the work (at 9 + 1e12j its third rung
        # takes Riemann-Siegel at Re s = 9, which stalls), but the rungs up
        # to the two that agree do not: the value is the one those give
        code, out, _ = run_cli(capsys, "zeta", "--n", n, f"--s={s}")
        assert code == 0
        doc = json.loads(out)["value"]
        assert doc["provenance"] == lattice_zeta.ROUTE_L_SERIES_MPMATH
        assert complex(doc["value"]["re"], doc["value"]["im"]) == value

    def test_mpmath_l_series_that_never_agrees_stops_at_once(self, capsys):
        # right of n/2, Z_2(1e300 + i) is its four nearest points, yet no
        # two rungs agree; every rung run is charged, and all nine are cheap
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "zeta", "--n", "2", "--s=1e300+1j")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert out == ""
        assert "did not converge" in err

    def test_mpmath_l_series_serves_past_the_continuation_ceiling(self,
                                                                  capsys):
        # the shells would need 170 digits at |Im s| = 450, over their
        # ceiling of 150, so only the mpmath L-series serves this point
        import mpmath

        from ncspectral.action_assembly import ToleranceError
        from ncspectral.oracles import epstein_continuation

        code, out, _ = run_cli(capsys, "zeta", "--n", "4", "--s=0.5+450j")
        assert code == 0
        doc = json.loads(out)["value"]
        assert doc["provenance"] == lattice_zeta.ROUTE_L_SERIES_MPMATH
        value = complex(doc["value"]["re"], doc["value"]["im"])
        with mpmath.workdps(40):
            w = mpmath.mpc(0.5, 450) / 2
            reference = (8 * (1 - mpmath.power(4, 1 - w)) * mpmath.zeta(w)
                         * mpmath.zeta(w - 1))
            assert abs(mpmath.mpc(value) - reference) <= doc["tail_bound"]
        with pytest.raises(ToleranceError, match="170 working digits"):
            epstein_continuation(4, 0.5 + 450j, 1e-10)

    def test_value_beyond_double_precision_is_tolerance_failure(self,
                                                                capsys):
        # about -2.7e25 + 1.5e25i: rounding to a double alone moves it by
        # about 3e9, far beyond --tol 1e-10
        code, out, err = run_cli(capsys, "zeta", "--n", "2", "--s=-50+1j",
                                 "--tol", "1e-10")
        assert code == 3
        assert out == ""
        assert "no double holds" in err

    def test_continuation_refuses_past_its_digit_ceiling(self, capsys,
                                                         monkeypatch):
        from ncspectral import lattice_zeta

        def no_shells(*args):
            raise AssertionError("a shell was computed")

        monkeypatch.setattr(lattice_zeta.EpsteinEvaluator, "_theta_shells",
                            no_shells)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "zeta", "--n", "3",
                                 "--s=0.5+2000j")
        assert time.perf_counter() - start < 10.0
        assert code == 3
        assert out == ""
        assert f"ceiling of {lattice_zeta._GAMMAINC_MAX_DPS}" in err
        assert "699 working digits" in err


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

    def test_overflow_names_the_quantity(self, tmp_path, capsys):
        # yang_mills is -inf and the three power sums NaN: the report's
        # catch-all named no quantity
        doc = torus_doc()
        doc["theta"] = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1],
                        [0, 0, -1, 0]]
        doc["A"] = [{"alpha": 1, "l": [10 ** 15, 0, 0, 0], "re": 1},
                    {"alpha": 2, "l": [0, 1, 0, 0], "re": 1e200}]
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "torus", "--input", str(path),
                                 "--lambda", "2")
        assert code == 3
        assert out == ""
        assert err.splitlines() == [
            "numerical failure: the Yang-Mills density overflows a double"]
        assert not NON_FINITE.search(err)

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

    def test_theta_off_skew_is_schema_error(self, tmp_path, capsys):
        doc = torus_doc(n=2)
        doc["theta"] = [[0.0, 1.0], [-1.000009, 0.0]]
        path = tmp_path / "A2.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "torus", "--input", str(path),
                                 "--lambda", "10")
        assert code == 2
        assert out == ""
        assert "skew" in err

    def test_ragged_theta_is_schema_error(self, tmp_path, capsys):
        doc = torus_doc(n=2)
        doc["theta"] = [[0, 1], [-1]]
        path = tmp_path / "A2.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "torus", "--input", str(path),
                                 "--lambda", "10")
        assert code == 2
        assert out == ""
        assert "theta must be a square matrix" in err
        assert "sequence" not in err

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
        assert "the Yang-Mills density overflows a double" in err

    def test_lambda_power_overflow_names_the_power(self, tmp_path, capsys):
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(torus_doc()))
        code, out, err = run_cli(capsys, "torus", "--input", str(path),
                                 "--lambda", "1e300")
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "Lambda^4 overflows" in err

    @pytest.mark.parametrize("entry", [2 ** 62, 10 ** 30, 2 ** 63, 1e300])
    def test_wide_mode_is_tolerance_failure(self, tmp_path, capsys, entry):
        # pair sums of such modes would wrap around in int64, and entries
        # from 2^63 on do not fit it at all
        doc = torus_doc()
        doc["A"][0]["l"] = [entry, 0, 0, 0]
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "torus", "--input", str(path),
                                 "--lambda", "10")
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "below 2^62" in err

    @pytest.mark.parametrize("entry, message", [
        ({"alpha": 1, "l": [0, 1, 0, 0], "im": 0.4},
         "conflicting entries for component 1, mode (0, 1, 0, 0)"),
        ({"alpha": 1, "l": [0, -1, 0, 0], "im": -0.3},
         "entries at (0, 1, 0, 0) and (0, -1, 0, 0) violate skew-adjointness"),
        ({"alpha": 3, "l": [0, 0, 0, 0], "re": 0.5},
         "entries at (0, 0, 0, 0) and (0, 0, 0, 0) violate skew-adjointness"),
        ({"alpha": 5, "l": [0, 0, 1, 0], "re": 0.5},
         "component index 5 out of range 1..4"),
        ({"alpha": 1, "l": [1, 0, 0], "im": 0.2},
         "mode (1, 0, 0) has wrong length")],
        ids=["repeated-mode", "plus-minus-l", "real-zero-mode",
             "alpha-range", "mode-length"])
    def test_one_defective_entry_is_schema_error(self, tmp_path, capsys,
                                                 entry, message):
        # torus_doc lists a = 0.3i at (0, 1, 0, 0) in component 1
        doc = torus_doc()
        doc["A"].append(entry)
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "torus", "--input", str(path),
                                 "--lambda", "10")
        assert code == 2
        assert out == ""
        assert err == f"schema error: {message}\n"

    @pytest.mark.parametrize("n", [2, 4])
    def test_run_leaves_the_oracle_algebra_alone(self, tmp_path, capsys,
                                                 monkeypatch, n):
        from ncspectral import nc_torus as nt

        def refuse(*args, **kwargs):
            raise AssertionError("the torus run reached the oracle algebra")

        monkeypatch.setattr(nt, "weyl_mul", refuse)
        monkeypatch.setattr(nt, "curvature", refuse)
        monkeypatch.setattr(nt.TorusElement, "__init__", refuse)
        path = tmp_path / "A.json"
        path.write_text(json.dumps(torus_doc(n)))
        code, out, _ = run_cli(capsys, "torus", "--input", str(path),
                               "--lambda", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["yang_mills"]["value"] != 0.0
        assert ("power_sums" in doc) == (n == 4)

    def test_mode_cap(self, tmp_path, capsys, monkeypatch):
        from ncspectral import nc_torus as nt

        # two explicit entries, five modes after skew completion with 0
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(torus_doc()))
        monkeypatch.setattr(nt, "MAX_MODES", 4)
        code, _, err = run_cli(capsys, "torus", "--input", str(path),
                               "--lambda", "10")
        assert code == 4
        assert "cap" in err
        monkeypatch.setattr(nt, "MAX_MODES", 5)
        code, _, _ = run_cli(capsys, "torus", "--input", str(path),
                             "--lambda", "10")
        assert code == 0

    def test_mode_cap_comes_before_the_pair_table(self, tmp_path, capsys,
                                                  monkeypatch):
        # 1,024 entries with a positive first entry: 2,049 modes with 0
        def refuse(*args, **kwargs):
            raise AssertionError("pair table built")

        monkeypatch.setattr(np, "lexsort", refuse)
        doc = torus_doc()
        doc["A"] = [{"alpha": 1, "l": [i, j, 0, 0], "im": 0.1}
                    for i in range(1, 33) for j in range(32)]
        path = tmp_path / "A.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "torus", "--input", str(path),
                                 "--lambda", "10")
        assert code == 4
        assert out == ""
        assert "2049 modes" in err and "cap 2048" in err

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

    def test_overflowing_monomial_sum_is_schema_error(self, tmp_path,
                                                       capsys):
        # two finite coefficients of a^1 sum to inf, which would give
        # A|D|^-3 = nan + nan i
        doc = {"q": 0.5, "one_form": [
            {"x": [{"a": 1, "coeff": {"re": 1e308}},
                   {"a": 1, "coeff": {"re": 1e308}}],
             "y": [{"a": -1}], "coeff": {"re": 1.0}}]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path),
                                 "--lambda", "1")
        assert code == 2
        assert out == ""
        assert "non-finite" in err and "nan" not in err

    def test_overflowing_word_is_schema_error(self, tmp_path, capsys):
        # finite numbers whose product, 10 x 1e308, is an infinite word,
        # which would give A|D|^-3 = nan + nan i
        doc = {"q": 0.5, "one_form": [
            {"x": [{"a": 1, "coeff": {"re": 1e308, "im": 0}}],
             "y": [{"a": -1}], "coeff": {"re": 10, "im": 0}}]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path),
                                 "--lambda", "1")
        assert code == 2
        assert out == ""
        assert "ladder word a+.a+*" in err and "nan" not in err

    def test_overflowing_integral_is_named(self, tmp_path, capsys):
        # finite words of size 1e300 whose squares, in A^2|D|^-3, overflow
        # to inf + nan i
        doc = {"q": 0.5, "one_form": [
            {"x": [{"a": 1, "coeff": {"re": 1e300, "im": 0}}],
             "y": [{"a": -1}]}]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path),
                                 "--lambda", "1")
        assert code == 3
        assert out == ""
        assert "A^2|D|^-3 overflows" in err and "nan" not in err

    def test_boolean_exponent_after_its_integer_is_schema_error(
            self, tmp_path, capsys):
        # true == 1 as a key: the exponents are read before they are summed
        doc = json.loads(json.dumps(ASTAR_DA))
        doc["one_form"][0]["x"] = [{"a": 1}, {"a": True}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path))
        assert code == 2
        assert out == ""
        assert "True is not an integer" in err

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
        monkeypatch.setattr(suq2, "MAX_LADDER_WORDS", 1000)
        doc = {"q": 0.5, "one_form": [{"x": x, "y": y}]}
        path = tmp_path / "one_form.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path))
        assert code == expected
        if expected == 4:
            assert out == ""
            assert "cap 1000" in err

    def test_word_cap_is_on_the_bound(self, tmp_path, capsys, monkeypatch):
        # 1 d(b b*) has a bound of 4 words but 2 after the expansion, since
        # the degree-0 words of b b* drop out of the derivation
        doc = {"q": 0.5, "one_form": [{"x": [{}],
                                       "y": [{"b": 1, "bstar": 1}]}]}
        path = tmp_path / "one_form.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(suq2, "MAX_LADDER_WORDS", 4)
        code, out, _ = run_cli(capsys, "suq2", "--one-form", str(path))
        assert code == 0
        assert json.loads(out)["ladder_words"] == 2
        monkeypatch.setattr(suq2, "MAX_LADDER_WORDS", 3)
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path))
        assert code == 4
        assert "4 ladder words" in err

    # 1e-400 parses to 0.0
    @pytest.mark.parametrize("option", [["--tol", "0"], ["--tol", "-1"],
                                        ["--tol", "1e-400"]])
    def test_series_settings_must_be_positive(self, tmp_path, capsys,
                                              monkeypatch, option):
        def no_integral(*args):
            raise AssertionError("integral run")

        # every integral of a leg goes through tau0
        monkeypatch.setattr(suq2, "tau0", no_integral)
        path = tmp_path / "astar_da.json"
        path.write_text(json.dumps(ASTAR_DA))
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path),
                                 *option)
        assert code == 4
        assert out == ""
        assert "Traceback" not in err and "must be" in err

    def test_near_one_meets_the_tolerance(self, tmp_path, capsys):
        # a series for tau0 would need more than 20,000 terms here
        path = tmp_path / "astar_da.json"
        path.write_text(json.dumps(ASTAR_DA))
        code, out, _ = run_cli(capsys, "suq2", "--q", "0.9995",
                               "--one-form", str(path))
        assert code == 0
        q = 0.9995
        assert json.loads(out)["integrals"]["A|D|^-2"]["value"] == \
            pytest.approx(4 * q ** 2 / (q ** 2 - 1), rel=1e-12)

    def test_canceling_terms_meet_the_tolerance(self, tmp_path, capsys):
        # A|D|^-1 of b^2 b*^2 delta(b^2 b*^2) is exactly 0, summed from
        # terms of size up to 1/(1 - q)^2: its rounding bound, 3.6e-10, is
        # held against the size of those terms
        poly = [{"a": 0, "b": 2, "bstar": 2, "coeff": {"re": 1.0, "im": 0.0}}]
        path = tmp_path / "cancel.json"
        path.write_text(json.dumps({"q": 0.99, "one_form": [
            {"x": poly, "y": poly, "coeff": {"re": 1.0, "im": 0.0}}]}))
        code, out, _ = run_cli(capsys, "suq2", "--one-form", str(path))
        assert code == 0
        assert abs(json.loads(out)["integrals"]["A|D|^-1"]["value"]) < 1e-11

    def test_tolerance_below_the_rounding_bound_fails(self, tmp_path,
                                                       capsys):
        path = tmp_path / "astar_da.json"
        path.write_text(json.dumps(ASTAR_DA))
        code, out, err = run_cli(capsys, "suq2", "--one-form", str(path),
                                 "--tol", "1e-18")
        assert code == 3
        assert out == ""
        assert "rounding bound" in err

    def test_word_cap(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "astar_da.json"
        path.write_text(json.dumps(ASTAR_DA))
        monkeypatch.setattr(suq2, "MAX_LADDER_WORDS", 1)
        code, _, err = run_cli(capsys, "suq2", "--q", "0.5",
                               "--one-form", str(path))
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

    def test_tiny_last_table_row_runs_without_warning(self, tmp_path,
                                                      capsys):
        # the tail rate divides by the last row: the quotient overflows to
        # inf, a steep tail whose share is 0
        doc = {"cutoff": {"table": [[0.0, 1.0], [1.0, 0.5], [2.0, 0.25],
                                    [3.0, 1e-320]]},
               "lambda": 2.0, "coefficients": {"2": 1.0, "1": 1.0},
               "zeta0": 0.0}
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert code == 0
        assert err == ""
        assert math.isfinite(json.loads(out)["expansion"]["total"])

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

    @pytest.mark.parametrize("table", [
        # 2 (tN - t(N-2)) overflows in the last row of the slope system
        [[0.0, 1.0], [1.0, 0.5], [2.0, 0.3], [1.7e308, 0.1]],
        # 3 (dx slope + dx slope) overflows in an inner row
        [[0.0, 1e308], [1.0, 0.0], [2.0, 1e308], [3.0, 5e307],
         [4.0, 1e307]],
    ])
    def test_table_slopes_beyond_float_range_are_unsupported(
            self, tmp_path, capsys, table):
        doc = {"cutoff": {"table": table}, "lambda": 2.0,
               "coefficients": {"2": 1.0}, "zeta0": 1.0}
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert code == 4
        assert out == ""
        assert err == ("unsupported: tabulated cutoff slopes overflow a "
                       "double\n")

    def test_zero_last_row_without_coefficients_runs(self, tmp_path, capsys):
        # no moment is asked for, so the tail is never fitted
        doc = {"cutoff": {"table": [[0.0, 1.0], [1.0, 0.5], [2.0, 0.25],
                                    [3.0, 0.0]]},
               "lambda": 2.0, "coefficients": {}, "zeta0": 1.5}
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["expansion"]["total"] == 1.5

    def test_negative_scale_is_unsupported(self, tmp_path, capsys):
        doc = {"cutoff": {"family": "exponential", "params": {"scale": -1}},
               "lambda": 2.0, "coefficients": {"2": 1.0}, "zeta0": 1.0}
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert code == 4
        assert out == ""
        assert "nonnegative" in err

    @pytest.mark.parametrize("lam,coefficients,power", [
        (1e300, {"3": 2.0}, "Lambda^3"), (2.0, {"400": 1.0}, "Phi_400")])
    def test_overflow_names_the_power(self, tmp_path, capsys, lam,
                                      coefficients, power):
        doc = {"cutoff": {"family": "exponential"}, "lambda": lam,
               "coefficients": coefficients, "zeta0": 0.0}
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert f"{power} overflows" in err

    @pytest.mark.parametrize("doc, name", [
        ({"cutoff": {"family": "gaussian"}, "lambda": 1e154,
          "coefficients": {"1": 1e300}, "zeta0": 0.0}, "the Lambda^1 term"),
        ({"cutoff": {"family": "gaussian", "params": {"scale": 1e300}},
          "lambda": 1.0, "coefficients": {"1": 1e300}, "zeta0": 0.0},
         "Phi_1 c_1"),
        ({"cutoff": {"family": "exponential", "params": {"scale": 1e300}},
          "lambda": 1.0, "coefficients": {"1": 1.0}, "zeta0": 1e300},
         "Phi(0) zeta0"),
        ({"cutoff": {"family": "gaussian"}, "lambda": 1.0,
          "coefficients": {"1": 1.7e308, "2": 1.7e308}, "zeta0": 0.0},
         "the expansion total")])
    def test_overflowing_expansion_is_named(self, tmp_path, capsys, doc,
                                            name):
        # each product or sum of finite numbers that overflows is named
        # where it is made, not by the report's non-finite guard
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert code == 3
        assert out == ""
        assert err == f"numerical failure: {name} overflows a double\n"

    # a cutoff is an object with exactly one of family and table, and a
    # table row is a [t, phi] pair
    @pytest.mark.parametrize("cutoff", [
        5, [1, 2], {"tabl": 1},
        {"table": [[0.0, 1.0, 2.0], [1.0, 0.5, 2.0], [2.0, 0.25, 2.0],
                   [3.0, 0.125, 2.0]]},
        {"family": "exponential",
         "table": [[0.0, 1.0], [1.0, 0.5], [2.0, 0.25], [3.0, 0.125]]}],
        ids=["number", "list", "misspelt", "triples", "both"])
    def test_wrongly_typed_cutoff_is_schema_error(self, tmp_path, capsys,
                                                  cutoff):
        path = tmp_path / "action.json"
        path.write_text(json.dumps(_action_doc(cutoff)))
        code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and "malformed" in err

    # each power has one name: "03" and " 3" would stand beside "3", and
    # int() reads "1_0" as 10
    @pytest.mark.parametrize("coefficients", [{"3": 1, "03": 2, " 3": 5},
                                              {"1_0": 1}, {"+2": 1}])
    def test_coefficient_key_must_spell_its_power(self, tmp_path, capsys,
                                                  coefficients):
        doc = {"cutoff": {"family": "exponential"}, "lambda": 2.0,
               "coefficients": coefficients}
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and "coefficient key" in err

    @pytest.mark.parametrize("field", ["coefficient", "lambda", "zeta0",
                                       "scale", "table", "scale-string",
                                       "table-string", "table-boolean"])
    def test_non_finite_input_is_schema_error(self, tmp_path, capsys, field):
        doc = {"cutoff": {"family": "exponential"}, "lambda": 2.0,
               "coefficients": {"3": 2.0, "1": {"re": -0.5, "im": 0.0}},
               "zeta0": 0.0}
        if field == "coefficient":
            doc["coefficients"]["1"]["im"] = math.nan
        elif field == "scale":
            doc["cutoff"]["params"] = {"scale": math.nan}
        elif field == "table":
            doc["cutoff"] = {"table": [[0.0, 1.0], [1.0, math.nan],
                                       [2.0, 0.1], [math.inf, 0.01]]}
        elif field == "scale-string":
            # float() would read these strings as numbers
            doc["cutoff"]["params"] = {"scale": "NaN"}
        elif field == "table-string":
            doc["cutoff"] = {"table": [[0.0, 1.0], [1.0, "0.5"],
                                       [2.0, 0.1], ["inf", 0.01]]}
        elif field == "table-boolean":
            doc["cutoff"] = {"table": [[0.0, True], [1.0, 0.5],
                                       [2.0, 0.1], [3.0, 0.01]]}
        else:
            doc[field] = math.inf
        path = tmp_path / "action.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "action", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "non-finite" in err


def _action_doc(cutoff):
    return {"cutoff": cutoff, "lambda": 2.0, "zeta0": 0.5,
            "coefficients": {"3": 2.0, "1": {"re": -0.5, "im": 0.1}}}


# (document, command, input flag, other options) per kind of input
INPUTS = {
    "torus": (torus_doc(), "torus", "--input", ["--lambda", "10"]),
    "suq2": (ASTAR_DA, "suq2", "--one-form", []),
    "action": (_action_doc({"family": "exponential",
                            "params": {"scale": 1.0}}),
               "action", "--input", []),
    "table": (_action_doc({"table": [[0.0, 1.0], [1.0, 0.5], [2.0, 0.25],
                                     [3.0, 0.125]]}),
              "action", "--input", []),
}
# every position that holds a number, as a path into its document
NUMBER_POSITIONS = [
    ("torus", ("n",)), ("torus", ("theta", 0, 1)),
    ("torus", ("A", 0, "alpha")), ("torus", ("A", 0, "l", 1)),
    ("torus", ("A", 0, "re")), ("torus", ("A", 0, "im")),
    ("suq2", ("q",)), ("suq2", ("one_form", 0, "x", 0, "a")),
    ("suq2", ("one_form", 0, "x", 0, "b")),
    ("suq2", ("one_form", 0, "x", 0, "bstar")),
    ("suq2", ("one_form", 0, "coeff", "re")),
    ("suq2", ("one_form", 0, "coeff", "im")),
    ("action", ("lambda",)), ("action", ("zeta0",)),
    ("action", ("coefficients", "3")),
    ("action", ("coefficients", "1", "re")),
    ("action", ("coefficients", "1", "im")),
    ("action", ("cutoff", "params", "scale")),
    ("table", ("cutoff", "table", 1, 1)),
]


@pytest.mark.parametrize("value", ["1", True], ids=["string", "boolean"])
@pytest.mark.parametrize(
    "kind,where", NUMBER_POSITIONS,
    ids=["-".join(map(str, (k, *w))) for k, w in NUMBER_POSITIONS])
def test_string_or_boolean_number_is_schema_error(tmp_path, capsys, kind,
                                                   where, value):
    base, command, flag, extra = INPUTS[kind]
    doc = json.loads(json.dumps(base))
    *parents, last = where
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, flag, str(path), *extra)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


class TestOptionSurface:
    """Each subcommand accepts exactly the options it reads."""

    SURFACE = {
        "zeta": {"--n", "--s", "--residue", "--tol", "--out"},
        "torus": {"--input", "--lambda", "--cutoff", "--out"},
        "suq2": {"--q", "--one-form", "--lambda", "--cutoff", "--no-reality",
                 "--tol", "--out"},
        "action": {"--input", "--out"},
        "selftest": set(),
    }

    def test_long_options_per_subcommand(self):
        _, commands = _build_parser()
        surface = {name: {o for a in p._actions for o in a.option_strings
                          if o.startswith("--") and o != "--help"}
                   for name, p in commands.items()}
        assert surface == self.SURFACE

    @pytest.mark.parametrize("argv", [
        ["zeta", "--n", "2", "--trunc", "5"],
        ["zeta", "--n", "2", "--format", "json"],
        ["torus", "--input", "A4.json", "--lambda", "1", "--threads", "2"],
        ["torus", "--input", "A4.json", "--lambda", "1", "--tol", "1e-9"],
        ["action", "--input", "action.json", "--max-terms", "10"],
        ["selftest", "--out", "report.json"],
        # a residue run reads no s
        ["zeta", "--n", "2", "--residue", "--s", "1"],
        ["zeta", "--n", "2", "--s", "0", "--residue"],
        # tau0 is a closed form: no series to cap
        ["suq2", "--one-form", "A.json", "--max-terms", "10"],
        # the caps are constants of the code they guard
        ["torus", "--input", "A4.json", "--lambda", "1", "--trunc", "5"],
        ["suq2", "--one-form", "A.json", "--trunc", "5"],
    ])
    def test_unread_option_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_usage_error_names_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeta", "--n", "2", "--trunc", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "ncspectral zeta: error: unrecognized arguments: --trunc 5")

    # no name, help, an unknown name, and a name after "--"
    @pytest.mark.parametrize("argv,code", [
        ([], 2), (["-h"], 0), (["bogus"], 2), (["--", "zeta", "--n", "2"], 2)])
    def test_top_level_usage(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        assert "usage: ncspectral" in out + err

    def test_one_parse_per_op(self, tmp_path, capsys, monkeypatch):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            counted)
        path = tmp_path / "A4.json"
        path.write_text(json.dumps(torus_doc()))
        for argv in (["zeta", "--n", "2", "--s", "0.5"],
                     ["torus", "--input", str(path), "--lambda", "10"]):
            calls.clear()
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
            assert calls == [f"ncspectral {argv[0]}"]


# leaves and containers of arbitrary JSON, kept small; a number that lands
# on an SU_q(2) monomial exponent may be large, because the word cap is
# checked against a bound on the ladder words before any monomial is expanded
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


# small numbers, and magnitudes at the edges of the double range: 1e154,
# whose square nears the top, 1e300, whose square is past it, the largest
# double, the smallest subnormal and the smallest normal
EDGE = st.sampled_from([1e154, 1e300, 1.7e308, 5e-324, 2.2e-308])
NUMBER = (st.floats(-2.0, 2.0) | st.integers(-2, 2) | EDGE
          | EDGE.map(lambda x: -x))
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


# a well-formed torus document: n in {2, 4}, the fixed skew theta, the
# assumption asserted, and nonzero modes whose components carry the edge
# magnitudes
WELL_FORMED_TORUS = st.sampled_from([2, 4]).flatmap(
    lambda n: st.fixed_dictionaries({
        "n": st.just(n), "theta": st.just(torus_doc(n)["theta"]),
        "diophantine_asserted": st.just(True),
        "A": st.lists(st.fixed_dictionaries({
            "alpha": st.integers(1, n),
            "l": st.lists(st.integers(-2, 2), min_size=n,
                          max_size=n).filter(any),
            "re": NUMBER, "im": NUMBER}), min_size=1, max_size=3)}))
TORUS_DOC = WELL_FORMED_TORUS | st.sampled_from([2, 3, 4]).flatmap(
    _torus_fields)

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
# a well-formed action document: a known family, or a table of 4 to 6 rows
# whose abscissae increase and whose values decay, positive powers spelled
# as integers, and the edge magnitudes among its numbers
POSITIVE = st.floats(0.1, 2.0) | EDGE
TABLE = st.integers(4, 6).flatmap(lambda rows: st.tuples(
    st.lists(st.floats(0.0, 8.0), min_size=rows, max_size=rows,
             unique=True).map(sorted),
    st.lists(POSITIVE, min_size=rows, max_size=rows,
             unique=True).map(lambda vs: sorted(vs, reverse=True))))
WELL_FORMED_ACTION = st.fixed_dictionaries({
    "cutoff": st.fixed_dictionaries(
        {"family": st.sampled_from(["exponential", "gaussian"])},
        optional={"params": st.fixed_dictionaries({"scale": POSITIVE})})
    | TABLE.map(lambda tv: {"table": [list(row) for row in zip(*tv)]}),
    "lambda": POSITIVE,
    "coefficients": st.dictionaries(
        st.integers(1, 6).map(str),
        NUMBER | st.fixed_dictionaries({"re": NUMBER},
                                       optional={"im": NUMBER}),
        min_size=1, max_size=3),
    "zeta0": NUMBER,
})
ACTION_DOC = WELL_FORMED_ACTION | _document({
    "cutoff": CUTOFF,
    "lambda": NUMBER,
    "coefficients": st.dictionaries(
        st.integers(0, 9).flatmap(lambda i: st.text(max_size=2) if i == 0
                                  else st.integers(-1, 6).map(str)),
        _field(NUMBER | COMPLEX), max_size=3),
    "zeta0": NUMBER,
})


# a table whose spline moments overflow: the refusal must be the only
# stderr line, with no numpy warning before it; as a torus or suq2
# document it is a schema error
OVERFLOWING_TABLE = {
    "cutoff": {"table": [[0.37826965843840477, 1e154],
                         [0.5, 1.1236409660810662],
                         [0.5120378896911615, 0.5836653819080252],
                         [0.5836653819080252, 0.5120378896911615],
                         [1.1236409660810662, 0.5], [1e154, 5e-324]]},
    "lambda": 5e-324, "coefficients": {"1": 0.0}, "zeta0": 0.0}
# of the 150 draws, at least this many exit 0
WELL_FORMED_EXITS = {"torus": 20, "suq2": 20, "action": 20}


@pytest.mark.parametrize("command,flag,documents,extra", [
    ("torus", "--input", TORUS_DOC, ["--lambda", "2"]),
    ("suq2", "--one-form", SUQ2_DOC, []),
    ("action", "--input", ACTION_DOC, []),
])
def test_generated_documents_keep_exit_contract(tmp_path, command, flag,
                                                documents, extra):
    path = tmp_path / "input.json"
    out_path = tmp_path / "report.json"

    def refuse(name):
        raise AssertionError(f"{name} in the report")

    codes = []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(documents)
    @example(OVERFLOWING_TABLE)
    def run(doc):
        path.write_text(json.dumps(doc))
        out_path.unlink(missing_ok=True)
        err = io.StringIO()
        # a warning is one more stderr line of a shell call
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = main([command, flag, str(path), *extra,
                         "--out", str(out_path)])
        codes.append(code)
        assert code in (0, 2, 3, 4)
        assert not [str(w.message) for w in caught]
        assert len(err.getvalue().splitlines()) <= 1
        assert "Traceback" not in err.getvalue()
        if code == 0:
            json.loads(out_path.read_text(), parse_constant=refuse)

    run()
    # the draws reach the computation, not only the schema checks
    assert codes.count(0) >= WELL_FORMED_EXITS.get(command, 0)


@pytest.mark.parametrize("command,flag,extra", [
    ("torus", "--input", ["--lambda", "2"]),
    ("suq2", "--one-form", []),
    ("action", "--input", []),
])
def test_deeply_nested_input_is_schema_error(tmp_path, capsys, command, flag,
                                             extra):
    path = tmp_path / "nested.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run_cli(capsys, command, flag, str(path), *extra)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and "cannot read input file" in err


# option values: the edge magnitudes and their negatives, and small ones
EDGE_OPTION = EDGE | EDGE.map(lambda x: -x)
OPTION = EDGE_OPTION | st.floats(-6.0, 12.0)


def _option(name, values):
    """No such option, or the option with a drawn value."""
    return st.just([]) | values.map(lambda v: [f"{name}={v!r}"])


ZETA_N = st.integers(1, 6).map(lambda n: ["zeta", f"--n={n}"])
# |Im s| log-uniform over [25, 1e20], where the mpmath L-series stalled
HIGH_IM = st.tuples(st.floats(math.log10(25), 20), st.sampled_from([1, -1])
                    ).map(lambda p: p[1] * 10 ** p[0])
# Im s subnormal or tiny, where the theta routes stalled in gammainc near
# its poles or read an underflowed prefactor as 0
TINY_IM = st.floats(5e-324, 2.2e-308) | st.floats(-300, -20).map(
    lambda e: 10.0 ** e)


def _near_trivial_zero(p):
    """zeta at -2k (k in 1..2000) or its mirror n + 2k, off the axis."""
    n, k, mirror, im = p
    re = n + 2 * k if mirror else -2 * k
    return ["zeta", f"--n={n}", f"--s={complex(re, im)!r}"]


OPTION_ARGV = st.one_of(
    st.tuples(ZETA_N,
              st.tuples(OPTION, OPTION).map(
                  lambda p: [f"--s={complex(*p)!r}"]),
              _option("--tol", EDGE_OPTION)),
    st.tuples(ZETA_N,
              st.tuples(OPTION, HIGH_IM).map(
                  lambda p: [f"--s={complex(*p)!r}"]),
              _option("--tol", EDGE_OPTION)),
    st.tuples(st.integers(1, 6), st.integers(1, 2000), st.booleans(),
              TINY_IM).map(lambda p: [_near_trivial_zero(p)]),
    st.tuples(st.just(["suq2", "--one-form", "ONE_FORM"]),
              _option("--q", OPTION), _option("--lambda", OPTION),
              _option("--tol", EDGE_OPTION)),
    st.tuples(st.sampled_from([["torus", "--input", "TORUS2"],
                               ["torus", "--input", "TORUS4"]]),
              OPTION.map(lambda v: [f"--lambda={v!r}"])),
).map(lambda parts: sum(parts, []))
# a non-finite number as Python or JSON spells it, as a whole word: the
# report key "provenance" holds "nan"
NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)


class _Hang(Exception):
    pass


def _alarm(signum, frame):
    raise _Hang


def test_options_keep_exit_contract(tmp_path):
    inputs = {"ONE_FORM": ASTAR_DA, "TORUS2": torus_doc(2),
              "TORUS4": torus_doc(4)}
    for name, doc in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(OPTION_ARGV)
    # far real parts, where the theta routes used to hang or report a pole
    @example(["zeta", "--n=3", "--s=-1e154+0.5j"])
    @example(["zeta", "--n=3", "--s=1e154+2.2e-308j"])
    @example(["zeta", "--n=3", "--s=1e154"])
    @example(["zeta", "--n=3", "--s=1e300"])
    @example(["zeta", "--n=3", "--s=-1e9+0.5j"])
    @example(["zeta", "--n=5", "--s=-1e9+1j"])
    @example(["zeta", "--n=5", "--s=1e154+1j"])
    # huge |Im s|, where the mpmath L-series stalled, and at a loose --tol
    # ran at one bit and grew past 6 GB
    @example(["zeta", "--n=1", "--s=(-6+1e+154j)"])
    @example(["zeta", "--n=1", "--s=(5e-324+1e+154j)", "--tol=1e+154"])
    # mid-range |Im s|, where the mpmath L-series stalled, and subnormal
    # Im s, where gammainc stalled or the quadrature read a false zero
    @example(["zeta", "--n=2", "--s=0.5+1e9j"])
    @example(["zeta", "--n=1", "--s=0.5+1e16j"])
    @example(["zeta", "--n=6", "--s=0.5+1e5j"])
    @example(["zeta", "--n=1", "--s=3+1e16j", "--tol=1e154"])
    @example(["zeta", "--n=3", "--s=-400+5e-324j"])
    @example(["zeta", "--n=3", "--s=-346+5e-324j"])
    @example(["zeta", "--n=5", "--s=-1000+2.2e-308j"])
    @example(["zeta", "--n=3", "--s=-300+5e-324j"])
    @example(["zeta", "--n=3", "--s=-50+5e-324j"])
    @example(["zeta", "--n=3", "--s=403+5e-324j"])
    @example(["zeta", "--n=5", "--s=1005+5e-324j"])
    def run(argv):
        argv = [str(tmp_path / f"{a}.json") if a in inputs else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, 8.0)
        try:
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                warnings.simplefilter("always")
                code = main(argv)
        except _Hang:
            raise AssertionError(f"{argv} ran past 8 s") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 2, 3, 4)
        assert not [str(w.message) for w in caught]
        assert len(err.getvalue().splitlines()) <= 1
        assert "Traceback" not in err.getvalue()
        assert not NON_FINITE.search(out.getvalue() + err.getvalue())

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

    def test_console_script_is_cli_main(self):
        # CI runs `python -m ncspectral.cli`; the installed `ncspectral`
        # command must reach the same entry point
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["ncspectral"] == "ncspectral.cli:main"
        module, _, name = scripts["ncspectral"].partition(":")
        assert callable(getattr(importlib.import_module(module), name))


# a report holds dicts with str keys, lists, tuples, str, int, float, bool
# and None
REPORT_LEAF = (st.none() | st.booleans()
               | st.integers() | st.integers(-2 ** 70, 2 ** 70)
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([-0.0, 5e-324, 1e308])
               | st.text(st.characters(), max_size=8)
               | st.sampled_from(['"', "\\", "\x00\x1f\t\n", "\u00e9\u2203",
                                  "\U0001d4b5"]))
REPORT = st.recursive(
    REPORT_LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20)


class TestReportText:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(REPORT)
    @example({})
    @example([])
    @example({"a": []})
    @example(-0.0)
    def test_matches_json_dumps(self, doc):
        assert report_text(doc) == json.dumps(doc, sort_keys=True, indent=2,
                                              allow_nan=False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, bad):
        for doc in (bad, {"a": [1.0, {"b": bad}]}):
            with pytest.raises(ValueError):
                json.dumps(doc, allow_nan=False)
            with pytest.raises(ValueError):
                report_text(doc)

    def test_non_finite_report_exits_3(self, capsys, monkeypatch):
        from ncspectral import cli

        monkeypatch.setattr(cli, "_run_zeta",
                            lambda args: {"value": [0.0, math.inf]})
        code, out, err = run_cli(capsys, "zeta", "--n", "2")
        assert code == 3
        assert out == ""
        assert "non-finite" in err and "Traceback" not in err
