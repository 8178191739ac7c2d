import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, interpolate

from ncspectral.action_assembly import (
    MAX_TABLE_K,
    CutoffMoments,
    DivergentMomentError,
    ExpansionReport,
    assemble,
    cutoff_moments,
    moment_quadrature,
)


class TestCutoffMoments:
    def test_exponential_analytic(self):
        m = cutoff_moments({"family": "exponential"}, [1, 2, 3, 4])
        assert m.phi0 == 1.0
        assert m.phi(2) == pytest.approx(0.5)
        assert m.phi(3) == pytest.approx(math.sqrt(math.pi) / 4)
        assert m.phi(4) == pytest.approx(0.5)
        assert m.provenance[2] == "analytic"

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_quadrature_matches_gamma(self, k):
        val, err = moment_quadrature(lambda t: math.exp(-t), k)
        assert val == pytest.approx(0.5 * math.gamma(k / 2.0), abs=1e-8)
        assert err < 1e-8

    def test_gaussian_family(self):
        m = cutoff_moments({"family": "gaussian"}, [2])
        val, _ = moment_quadrature(lambda t: math.exp(-t * t), 2)
        assert m.phi(2) == pytest.approx(val, abs=1e-10)

    def test_callable_path(self):
        m = cutoff_moments(lambda t: math.exp(-t), [2, 3])
        assert m.phi(2) == pytest.approx(0.5, abs=1e-8)
        assert m.provenance[3] == "quadrature"
        assert m.error_bound <= 1e-8

    def test_tabulated_cutoff(self):
        ts = np.linspace(0.0, 30.0, 400)
        table = [[t, math.exp(-t)] for t in ts]
        m = cutoff_moments({"table": table}, [2, 4])
        assert m.phi(2) == pytest.approx(0.5, abs=1e-6)
        assert m.phi(4) == pytest.approx(0.5, abs=1e-6)
        assert m.phi0 == pytest.approx(1.0)

    def test_step_like_cutoff_passes_phi0_through(self):
        # smoothed indicator: Phi(0) = 1 regardless of the decay profile
        ts = np.linspace(0.0, 4.0, 200)
        table = [[t, 1.0 / (1.0 + math.exp(40 * (t - 1.0)))] for t in ts]
        m = cutoff_moments({"table": table}, [2])
        assert m.phi0 == pytest.approx(1.0, abs=1e-6)

    def test_divergent_moment_rejected(self):
        with pytest.raises(DivergentMomentError):
            moment_quadrature(lambda t: math.exp(-t), 0)

    def test_growing_table_rejected(self):
        table = [[t, math.exp(t)] for t in np.linspace(0, 5, 50)]
        with pytest.raises(DivergentMomentError):
            cutoff_moments({"table": table}, [2])

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            cutoff_moments({"family": "boxcar"}, [2])

    def test_scaling_property(self):
        base = cutoff_moments({"family": "exponential"}, [1, 2, 3])
        scaled = cutoff_moments(
            {"family": "exponential", "params": {"scale": 3.0}}, [1, 2, 3])
        assert scaled.phi0 == pytest.approx(3.0 * base.phi0)
        for k in (1, 2, 3):
            assert scaled.phi(k) == pytest.approx(3.0 * base.phi(k))


def _table_model_oracle(ts, vs, k):
    """Phi_k of the table model by adaptive quadrature of the spline on each
    knot interval, the constant head in closed form and the exponential tail
    through mpmath's incomplete gamma."""
    spline = interpolate.CubicSpline(ts, vs)
    alpha = k / 2.0 - 1.0
    pieces = []
    for a, b in zip(ts[:-1], ts[1:]):
        if a == 0.0:  # t^alpha is singular at 0 for k = 1: algebraic weight
            val, _ = integrate.quad(lambda t: 0.5 * spline(t), a, b,
                                    weight="alg", wvar=(alpha, 0.0),
                                    epsabs=0.0, epsrel=1e-13, limit=200)
        else:
            val, _ = integrate.quad(lambda t: 0.5 * spline(t) * t ** alpha,
                                    a, b, epsabs=0.0, epsrel=1e-13, limit=200)
        pieces.append(val)
    pieces.append(0.5 * vs[0] * ts[0] ** (k / 2.0) * 2.0 / k)
    lam = math.log(vs[-2] / vs[-1]) / (ts[-1] - ts[-2])
    with mpmath.workdps(30):
        x = mpmath.mpf(lam) * mpmath.mpf(ts[-1])
        pieces.append(float(0.5 * vs[-1] * mpmath.mpf(lam) ** (-k / 2.0)
                            * mpmath.exp(x) * mpmath.gammainc(k / 2.0, x)))
    return math.fsum(pieces)


def _check_table_moments(ts, vs):
    table = np.column_stack([ts, vs]).tolist()
    for k in range(1, 7):
        m = cutoff_moments({"table": table}, [k])
        ref = _table_model_oracle(np.asarray(ts), np.asarray(vs), k)
        err = abs(m.phi(k) - ref)
        assert err <= 1e-12 * abs(ref), (k, m.phi(k), ref)
        assert err <= m.error_bound, (k, err, m.error_bound)


@st.composite
def decaying_tables(draw):
    rows = draw(st.integers(4, 200))
    t0 = draw(st.sampled_from([0.0]) | st.floats(0.01, 3.0))
    spacing = draw(st.floats(0.05, 2.0))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=rows - 1,
                          max_size=rows - 1))
    drops = draw(st.lists(st.floats(0.0, 2.0), min_size=rows - 2,
                          max_size=rows - 2))
    # the last drop sets the fitted tail: steep, or flat enough that the
    # tail carries most of each moment
    last = draw(st.floats(1.0, 5.0) | st.floats(1e-3, 1e-2))
    ts = t0 + spacing * np.concatenate([[0.0], np.cumsum(steps)])
    vs = np.exp(-np.concatenate([[0.0], np.cumsum(drops + [last])]))
    return ts, vs


class TestTabulatedMoments:
    """The exact table route against adaptive quadrature of the same model."""

    # the oracle's quad warns of round-off on short intervals; its result is
    # still checked against the table route at 1e-12
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(decaying_tables())
    def test_against_interval_quadrature(self, table):
        _check_table_moments(*table)

    def test_gaussian_table_of_64_rows(self):
        # a tabulated Gaussian cutoff on which adaptive quadrature over the
        # whole range was off by 1.7e-8 in Phi_2, beyond its own estimate
        end = 2.225491582864285
        rate = 4.0 / end
        ts = np.linspace(0.0, end, 64)
        _check_table_moments(ts, np.exp(-(rate * ts) ** 2))

    def test_one_spline_and_no_adaptive_quadrature(self, monkeypatch):
        counts = {"splines": 0, "calls": 0}

        class CountingSpline(interpolate.CubicSpline):
            def __init__(self, *args, **kwargs):
                counts["splines"] += 1
                super().__init__(*args, **kwargs)

            def __call__(self, *args, **kwargs):
                counts["calls"] += 1
                return super().__call__(*args, **kwargs)

        def no_quad(*args, **kwargs):
            raise AssertionError("adaptive quadrature on the table route")

        monkeypatch.setattr(interpolate, "CubicSpline", CountingSpline)
        monkeypatch.setattr(integrate, "quad", no_quad)
        ts = np.linspace(0.0, 30.0, 100)
        cutoff_moments({"table": [[t, math.exp(-t)] for t in ts]},
                       [1, 2, 3, 4])
        assert counts == {"splines": 1, "calls": 0}
        # Phi(0) off the grid is the one point the spline is evaluated at
        cutoff_moments({"table": [[t, math.exp(-t)] for t in ts + 0.5]},
                       [1, 2, 3, 4])
        assert counts == {"splines": 2, "calls": 1}

    def test_negative_abscissa_rejected(self):
        table = [[t, math.exp(-t)] for t in np.linspace(-1.0, 10.0, 50)]
        with pytest.raises(ValueError, match="nonnegative"):
            cutoff_moments({"table": table}, [2])

    @pytest.mark.parametrize("k", [0, -1, 1.5, math.nan])
    def test_non_positive_or_fractional_k_rejected(self, k):
        table = [[t, math.exp(-t)] for t in np.linspace(0.0, 10.0, 50)]
        with pytest.raises(DivergentMomentError):
            cutoff_moments({"table": table}, [2, k])

    def test_tail_beyond_float_range_is_divergent(self):
        # a nearly flat last drop makes the tail of Phi_64 about
        # Gamma(32) / lam^32 with lam ~ 1e-13, far beyond float range
        ts = np.linspace(0.0, 10.0, 20)
        vs = np.exp(-ts)
        vs[-1] = vs[-2] * (1.0 - 1e-13)
        table = np.column_stack([ts, vs]).tolist()
        with pytest.raises(DivergentMomentError, match="not finite"):
            cutoff_moments({"table": table}, [MAX_TABLE_K])

    def test_steep_tail_far_out_stays_finite(self):
        # X = lam tN ~ 6e10, so e^X Gamma(32, X) ~ X^31 is beyond float
        # range, while the moments are below 1e252
        ts = np.append(np.linspace(0.0, 1e8 - 1.0, 2000), 1e8)
        vs = np.exp(-ts / 1e7)
        vs[-1] = vs[-2] * 1e-250
        table = np.column_stack([ts, vs]).tolist()
        m = cutoff_moments({"table": table}, [MAX_TABLE_K - 1, MAX_TABLE_K])
        assert all(math.isfinite(v) for v in m.values.values())

    @pytest.mark.parametrize("k", [MAX_TABLE_K + 1, math.inf, 10 ** 400])
    def test_k_beyond_the_table_range_rejected(self, k):
        table = [[t, math.exp(-t)] for t in np.linspace(0.0, 10.0, 50)]
        with pytest.raises(ValueError, match="go up to"):
            cutoff_moments({"table": table}, [k])


class TestAssemble:
    def setup_method(self):
        self.moments = cutoff_moments({"family": "exponential"}, [1, 2, 3])

    def test_suq2_zero_fluctuation_shape(self):
        rep = assemble({3: 2.0, 2: 0.0, 1: -0.5}, 0.0, self.moments, 2.0)
        phi3 = math.sqrt(math.pi) / 4
        phi1 = math.sqrt(math.pi) / 2
        assert rep.coefficient(3) == pytest.approx(2 * phi3)
        assert rep.coefficient(2) == 0.0
        assert rep.coefficient(1) == pytest.approx(-0.5 * phi1)
        assert rep.total == pytest.approx(2 * phi3 * 8 - 0.5 * phi1 * 2)

    def test_torus_n2_shape(self):
        m = cutoff_moments({"family": "exponential"}, [2])
        rep = assemble({2: 4 * math.pi}, 0.0, m, 5.0)
        assert rep.total == pytest.approx(4 * math.pi * 0.5 * 25)

    def test_all_zero(self):
        rep = assemble({3: 0.0, 2: 0.0, 1: 0.0}, 0.0, self.moments, 1.0)
        assert rep.total == 0.0

    def test_linearity_in_each_coefficient(self):
        base = assemble({3: 1.0, 2: 0.5, 1: -1.0}, 2.0, self.moments, 1.5)
        doubled = assemble({3: 2.0, 2: 0.5, 1: -1.0}, 2.0, self.moments, 1.5)
        delta = doubled.total - base.total
        assert delta == pytest.approx(self.moments.phi(3) * 1.0 * 1.5 ** 3)

    def test_strictly_decreasing_powers_enforced(self):
        with pytest.raises(ValueError):
            ExpansionReport(entries=[(1, 1.0, "a"), (2, 1.0, "b")], lam=1.0)

    def test_positive_lambda_required(self):
        with pytest.raises(ValueError):
            assemble({1: 1.0}, 0.0, self.moments, -2.0)

    def test_report_serialization(self):
        rep = assemble({2: 1.0, 1: 1.0j}, 0.25, self.moments, 2.0)
        doc = rep.to_dict()
        assert doc["lambda"] == 2.0
        assert doc["terms"][0]["power"] == 2
        assert doc["terms"][1]["coefficient"] == {"re": 0.0,
                                                  "im": self.moments.phi(1)}
