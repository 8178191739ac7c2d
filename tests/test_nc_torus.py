import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncspectral.lattice_zeta import AssumptionError
from ncspectral.action_assembly import cutoff_moments
from ncspectral.nc_torus import (
    PRUNE_EPS,
    YM_CONSTANT,
    OneFormTorus,
    Theta,
    TorusElement,
    cs_sums,
    curvature,
    gauge_transform,
    load_potential,
    torus_action,
    weyl_mul,
    yang_mills,
    zeta0_shift,
)
from ncspectral.oracles import (
    curvature_from_coefficients,
    dirac_truncated,
    pairing,
    zeta0_shift_via_power_sums,
)

GOLDEN = (math.sqrt(5) - 1) / 2


def irrational_theta(n):
    vals = [GOLDEN, GOLDEN / 2, 1 / math.pi, GOLDEN / 4, GOLDEN / 10, 2 * GOLDEN]
    th = np.zeros((n, n))
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            th[i, j] = 2 * math.pi * vals[idx % len(vals)]
            th[j, i] = -th[i, j]
            idx += 1
    return Theta(th)


def random_element(rng, n, support=3, scale=0.5):
    coeffs = {}
    for _ in range(support):
        k = tuple(int(x) for x in rng.integers(-2, 3, size=n))
        coeffs[k] = complex(rng.normal(scale=scale), rng.normal(scale=scale))
    return TorusElement(n, coeffs)


def random_entries(rng, n=4, nmodes=3):
    entries = []
    for _ in range(nmodes):
        alpha = int(rng.integers(1, n + 1))
        l = tuple(int(x) for x in rng.integers(-2, 3, size=n))
        if not any(l):
            continue
        entries.append((alpha, l, complex(rng.normal(scale=0.4),
                                          rng.normal(scale=0.4))))
    return entries


def random_one_form(rng, n=4, nmodes=3):
    return OneFormTorus(n, random_entries(rng, n, nmodes))


# ---------------------------------------------------------------------------
# oracles: the term-by-term routes the production code replaced


def ff_trace_oracle(A, theta):
    """tau(F_ab F^ab) by multiplying each F_ab F_ab out with weyl_mul; F_ba
    = -F_ab gives each a < b twice."""
    total = sum(weyl_mul(f, f, theta).tau()
                for f in curvature(A, theta).values())
    return 2.0 * complex(total).real


def cs_sums_oracle(A, theta, q):
    """The closed power sums as loops over the component supports.

    Returns (value, scale): scale sums |term| with every sine factor at
    its bound 1 and the two parts of the q = 2 factor taken apart.
    Reordering the float sum, and rounding in a factor whose exact value
    is 0, move the value by a small multiple of machine epsilon times
    this scale, not times the value itself.
    """
    comps = [A.component(a).coeffs for a in range(1, 5)]
    total, scale = 0.0 + 0.0j, 0.0
    if q == 2:
        for a1 in range(4):
            for a2 in range(4):
                for l, v1 in comps[a1].items():
                    v2 = comps[a2].get(tuple(-x for x in l))
                    if v2 is None:
                        continue
                    cross, diag = l[a1] * l[a2], (a1 == a2) * sum(
                        x * x for x in l)
                    total += v1 * v2 * (cross - diag)
                    scale += abs(v1 * v2) * (abs(cross) + diag)
        weight = 2.0
    elif q == 3:
        for a1 in range(4):
            for a3 in range(4):
                for l1, w1 in comps[a1].items():
                    for l2, w2 in comps[a1].items():
                        l3 = tuple(-x - y for x, y in zip(l1, l2))
                        w3 = comps[a3].get(l3)
                        if w3 is None:
                            continue
                        s = math.sin(0.5 * pairing(theta, l1, l2))
                        term = w3 * w2 * w1 * l1[a3]
                        total, scale = total + term * s, scale + abs(term)
        weight = -12.0
    else:
        for a1 in range(4):
            for a2 in range(4):
                for l1, w1 in comps[a2].items():
                    for l2, w2 in comps[a1].items():
                        for l3, w3 in comps[a2].items():
                            l4 = tuple(-x - y - z
                                       for x, y, z in zip(l1, l2, l3))
                            w4 = comps[a1].get(l4)
                            if w4 is None:
                                continue
                            s1 = math.sin(0.5 * pairing(
                                theta, l1,
                                tuple(x + y for x, y in zip(l2, l3))))
                            s2 = math.sin(0.5 * pairing(theta, l2, l3))
                            term = w4 * w3 * w2 * w1
                            total += term * s1 * s2
                            scale += abs(term)
        weight = 8.0
    c = abs(weight) * YM_CONSTANT
    return weight * YM_CONSTANT * total.real, c * scale


def potential(entries, empty=0, n=4):
    """Potential from (alpha, mode, coeff) draws: component `empty`
    (1-n, or 0 for none) stays empty, a repeated mode or its negative is
    skipped, and a zero mode keeps only its imaginary part."""
    seen, kept = set(), []
    for alpha, l, c in entries:
        neg = tuple(-x for x in l)
        if alpha == empty or (alpha, l) in seen or (alpha, neg) in seen:
            continue
        seen.add((alpha, l))
        kept.append((alpha, l, 1j * c.imag if not any(l) else c))
    return OneFormTorus(n, kept)


def skew_theta(upper):
    th = np.zeros((4, 4))
    th[np.triu_indices(4, 1)] = upper
    return Theta(th - th.T)


# strategy: small sparse elements of the 2-torus algebra
modes2 = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=2.0,
                           allow_nan=False, allow_infinity=False)
elements2 = st.dictionaries(modes2, coeff, min_size=0, max_size=5).map(
    lambda d: TorusElement(2, d))

# strategy: n = 4 potentials on modes in [-1, 1]^4, where sums of modes
# land on other modes (and on modes of other components) all the time
modes4 = st.tuples(*[st.integers(-1, 1)] * 4)
potentials4 = st.builds(
    potential,
    st.lists(st.tuples(st.integers(1, 4), modes4, coeff), max_size=9),
    st.integers(0, 4))
potentials2 = st.builds(
    potential, st.lists(st.tuples(st.integers(1, 2), modes2, coeff),
                        max_size=9),
    st.integers(0, 2), st.just(2))
thetas2 = st.one_of(st.just(Theta.zero(2)), st.builds(
    lambda x: Theta([[0.0, x], [-x, 0.0]]),
    st.floats(-7.0, 7.0, allow_nan=False)))
thetas4 = st.one_of(
    st.just(Theta.zero(4)),
    st.builds(skew_theta, st.lists(
        st.floats(-7.0, 7.0, allow_nan=False), min_size=6, max_size=6)))
# colliding modes: one mode in every component, and l1 + l2 + l3 + l4 = 0
# inside one component; component 4 empty
COLLIDING = potential(
    [(a, (1, 0, 0, 0), 0.3 + 0.1j * a) for a in (1, 2, 3)]
    + [(1, (0, 1, 0, 0), 0.2j), (1, (1, 1, 0, 0), -0.4),
       (2, (0, 1, 1, 0), 0.5 - 0.2j), (3, (-1, 1, 0, 0), 0.1 + 0.3j)])


class TestWeylAlgebra:
    def test_unit_is_neutral(self):
        theta = irrational_theta(2)
        rng = np.random.default_rng(0)
        a = random_element(rng, 2)
        one = TorusElement.unit(2)
        assert weyl_mul(a, one, theta).allclose(a)
        assert weyl_mul(one, a, theta).allclose(a)

    def test_commutator_closed_form(self):
        theta = irrational_theta(2)
        k, l = (1, 0), (0, 1)
        uk = TorusElement.weyl(2, k)
        ul = TorusElement.weyl(2, l)
        comm = weyl_mul(uk, ul, theta) - weyl_mul(ul, uk, theta)
        expected = TorusElement(
            2, {(1, 1): -2j * math.sin(0.5 * pairing(theta, k, l))})
        assert comm.allclose(expected)

    def test_zero_theta_is_commutative(self):
        theta = Theta.zero(2)
        rng = np.random.default_rng(1)
        a, b = random_element(rng, 2), random_element(rng, 2)
        assert (weyl_mul(a, b, theta) - weyl_mul(b, a, theta)).norm1() < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(elements2, elements2, elements2)
    def test_associativity(self, a, b, c):
        theta = irrational_theta(2)
        left = weyl_mul(weyl_mul(a, b, theta), c, theta)
        right = weyl_mul(a, weyl_mul(b, c, theta), theta)
        assert (left - right).norm1() <= 1e-12 * max(
            1.0, a.norm1() * b.norm1() * c.norm1())

    @settings(max_examples=40, deadline=None)
    @given(elements2, elements2)
    def test_trace_property(self, a, b):
        theta = irrational_theta(2)
        lhs = weyl_mul(a, b, theta).tau()
        rhs = weyl_mul(b, a, theta).tau()
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, a.norm1() * b.norm1()))

    @settings(max_examples=40, deadline=None)
    @given(elements2, elements2)
    def test_adjoint_antimultiplicative(self, a, b):
        theta = irrational_theta(2)
        lhs = weyl_mul(a, b, theta).adjoint()
        rhs = weyl_mul(b.adjoint(), a.adjoint(), theta)
        assert (lhs - rhs).norm1() <= 1e-12 * max(1.0, a.norm1() * b.norm1())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weyl_mul(TorusElement.unit(2), TorusElement.unit(3), Theta.zero(2))


class TestAdjointTauDelta:
    def test_adjoint_of_scaled_weyl(self):
        a = TorusElement.weyl(2, (1, 0), 1j)
        assert a.adjoint().allclose(TorusElement.weyl(2, (-1, 0), -1j))

    def test_selfadjoint_fixed_point(self):
        a = TorusElement(2, {(1, 0): 1 + 2j, (-1, 0): 1 - 2j})
        assert a.adjoint().allclose(a)

    def test_tau_values(self):
        assert TorusElement.unit(2).tau() == 1.0
        assert TorusElement.weyl(2, (1, 0)).tau() == 0.0

    def test_delta_on_weyl(self):
        a = TorusElement.weyl(2, (2, 0))
        assert a.delta(1).allclose(TorusElement.weyl(2, (2, 0), 2j))
        assert a.delta(2).allclose(TorusElement.weyl(2, (2, 0), 0.0))
        assert TorusElement.unit(2).delta(1).norm1() == 0.0

    @settings(max_examples=40, deadline=None)
    @given(elements2, elements2)
    def test_leibniz(self, a, b):
        theta = irrational_theta(2)
        for mu in (1, 2):
            lhs = weyl_mul(a, b, theta).delta(mu)
            rhs = (weyl_mul(a.delta(mu), b, theta)
                   + weyl_mul(a, b.delta(mu), theta))
            assert (lhs - rhs).norm1() <= 1e-11 * max(1.0, a.norm1() * b.norm1())

    def test_delta_index_range(self):
        with pytest.raises(IndexError):
            TorusElement.unit(2).delta(3)


class TestOneFormAndCurvature:
    def test_skew_completion(self):
        A = OneFormTorus(2, [(1, (1, 0), 0.5 + 0.5j)])
        comp = A.component(1)
        assert comp.coeffs[(1, 0)] == pytest.approx(0.5 + 0.5j)
        assert comp.coeffs[(-1, 0)] == pytest.approx(-0.5 + 0.5j)
        assert not comp.adjoint().allclose(comp)
        assert (comp + comp.adjoint()).norm1() < 1e-14

    def test_conflicting_entries_rejected(self):
        with pytest.raises(ValueError):
            OneFormTorus(2, [(1, (1, 0), 1.0), (1, (-1, 0), 1.0)])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), modes4, coeff, st.booleans()),
                    max_size=9))
    def test_listed_negatives_change_nothing(self, draws):
        # listing (alpha, -l, -conj c) next to (alpha, l, c), before or
        # after it, gives bit for bit the potential that lists (l, c) only
        seen, entries, mirrors, interleaved = set(), [], [], []
        for alpha, l, c, mirrored in draws:
            neg = tuple(-x for x in l)
            if not any(l) or (alpha, l) in seen or (alpha, neg) in seen:
                continue
            seen.add((alpha, l))
            entries.append((alpha, l, c))
            interleaved.append((alpha, l, c))
            if mirrored:
                mirrors.append((alpha, neg, -c.conjugate()))
                interleaved.append(mirrors[-1])
        A = OneFormTorus(4, entries)
        for B in (OneFormTorus(4, interleaved),
                  OneFormTorus(4, mirrors + entries)):
            assert B.modes.tobytes() == A.modes.tobytes()
            assert B.coeffs.tobytes() == A.coeffs.tobytes()

    def test_zero_mode_must_be_imaginary(self):
        # at l = 0 the completion forces c = -conj(c)
        A = OneFormTorus(2, [(1, (0, 0), 0.7j)])
        assert A.component(1).coeffs[(0, 0)] == pytest.approx(0.7j)
        with pytest.raises(ValueError):
            OneFormTorus(2, [(1, (0, 0), 0.5)])

    def test_theta_skew_to_1e_14(self):
        # 9e-6 off skew: within numpy's default rtol, not within 1e-14
        with pytest.raises(ValueError, match="skew"):
            Theta([[0.0, 1.0], [-1.000009, 0.0]])
        Theta([[0.0, 1.0], [-1.0 - 5e-15, 0.0]])

    def test_theta_skewness_enforced(self):
        with pytest.raises(ValueError, match="skew"):
            Theta(np.eye(2))
        with pytest.raises(ValueError, match="skew"):
            Theta([[0.0, math.inf], [-math.inf, 0.0]])

    def test_constant_potential_is_flat(self):
        A = OneFormTorus(2, [(1, (0, 0), 1j), (2, (0, 0), 2j)])
        F = curvature(A, irrational_theta(2))
        assert F[(1, 2)].norm1() < 1e-14

    def test_curvature_antisymmetry_and_abelian_limit(self):
        rng = np.random.default_rng(5)
        A = random_one_form(rng, n=4)
        theta = irrational_theta(4)
        # one component per pair a < b; F_ba = -F_ab is not stored
        assert list(curvature(A, theta)) == [(a, b) for a in range(1, 5)
                                             for b in range(a + 1, 5)]
        # theta = 0: commutator term drops exactly
        F0 = curvature(A, Theta.zero(4))
        for a in range(1, 5):
            for b in range(a + 1, 5):
                expected = A.component(b).delta(a) - A.component(a).delta(b)
                assert F0[(a, b)].allclose(expected)

    def test_two_curvature_paths_agree(self):
        rng = np.random.default_rng(6)
        theta = irrational_theta(4)
        for _ in range(5):
            A = random_one_form(rng, n=4)
            F1 = curvature(A, theta)
            F2 = curvature_from_coefficients(A, theta)
            assert F1.keys() == F2.keys()
            for ab, f in F1.items():
                assert (f - F2[ab]).norm1() < 1e-11


class TestYangMillsAndGauge:
    def test_zero_potential(self):
        assert yang_mills(OneFormTorus(4), irrational_theta(4)) == 0.0

    def test_abelian_single_mode_value(self):
        # theta = 0, one-mode potential: hand expansion of the field strength
        t = 0.7
        l = (0, 1, 0, 0)
        A = OneFormTorus(4, [(1, l, 1j * t)])
        got = yang_mills(A, Theta.zero(4))
        # F_{1b} = -i sum_k a_{1,k} k_b U_k; only b = 2 survives with
        # tau(F_{12} F_{12}) = -2 t^2, counted twice by index symmetry
        assert got == pytest.approx(-4 * t * t, abs=1e-12)

    def test_gauge_invariance_under_weyl_unitaries(self):
        rng = np.random.default_rng(7)
        theta = irrational_theta(4)
        for _ in range(20):
            A = random_one_form(rng)
            k = tuple(int(x) for x in rng.integers(-2, 3, size=4))
            u = TorusElement.weyl(4, k)
            assert yang_mills(A, theta) == pytest.approx(
                yang_mills(gauge_transform(A, u, theta), theta), abs=1e-10)

    def test_pure_gauge_of_unit_mode(self):
        theta = irrational_theta(4)
        k = (1, 0, -1, 2)
        u = TorusElement.weyl(4, k)
        A = gauge_transform(OneFormTorus(4), u, theta)
        for a in range(1, 5):
            expected = TorusElement(4, {(0, 0, 0, 0): -1j * k[a - 1]})
            assert A.component(a).allclose(expected)

    def test_identity_gauge(self):
        theta = irrational_theta(4)
        rng = np.random.default_rng(8)
        A = random_one_form(rng)
        A2 = gauge_transform(A, TorusElement.unit(4), theta)
        for a in range(1, 5):
            assert A.component(a).allclose(A2.component(a))

    def test_double_transform_composes(self):
        theta = irrational_theta(4)
        rng = np.random.default_rng(9)
        A = random_one_form(rng)
        u = TorusElement.weyl(4, (1, 0, 0, 0))
        v = TorusElement.weyl(4, (0, -1, 1, 0))
        lhs = gauge_transform(gauge_transform(A, v, theta), u, theta)
        rhs = gauge_transform(A, weyl_mul(u, v, theta), theta)
        for a in range(1, 5):
            assert (lhs.component(a) - rhs.component(a)).norm1() < 1e-10

    def test_non_unitary_rejected(self):
        theta = irrational_theta(4)
        u = TorusElement.weyl(4, (1, 0, 0, 0), 2.0)
        with pytest.raises(ValueError):
            gauge_transform(OneFormTorus(4), u, theta)


class TestClosedFormAction:
    def test_cs_sums_vanish_for_zero_potential(self):
        theta = irrational_theta(4)
        A = OneFormTorus(4)
        for q in (2, 3, 4):
            assert cs_sums(A, theta, q) == 0.0

    def test_cs_sum_single_mode_quadratic(self):
        t = 0.3
        l = (0, 1, 0, 0)
        A = OneFormTorus(4, [(1, l, 1j * t)])
        c = 4 * math.pi ** 2 / 3
        # sum over modes +-l of a a (l_1^2 - |l|^2) = 2 (it)(it)(0 - 1) = 2 t^2
        assert cs_sums(A, irrational_theta(4), 2) == pytest.approx(
            2 * c * 2 * t * t, abs=1e-12)

    def test_zeta_shift_two_paths_and_yang_mills(self):
        rng = np.random.default_rng(10)
        theta = irrational_theta(4)
        c = 4 * math.pi ** 2 / 3
        for _ in range(10):
            A = random_one_form(rng)
            z_direct = zeta0_shift(A, theta, diophantine_asserted=True)
            z_sums = zeta0_shift_via_power_sums(A, theta,
                                                diophantine_asserted=True)
            assert z_direct == pytest.approx(z_sums, abs=1e-10)
            assert z_direct == pytest.approx(-c * yang_mills(A, theta),
                                             abs=1e-10)

    def test_zeta_shift_n2_vanishes(self):
        rng = np.random.default_rng(11)
        theta = irrational_theta(2)
        A = OneFormTorus(2, [(1, (1, 0), 0.4j), (2, (0, 1), 1.0)])
        assert zeta0_shift(A, theta, diophantine_asserted=True) == 0.0

    def test_flag_required(self):
        A = OneFormTorus(4)
        with pytest.raises(AssumptionError):
            zeta0_shift(A, irrational_theta(4))
        with pytest.raises(AssumptionError):
            zeta0_shift_via_power_sums(A, irrational_theta(4))

    def test_unsupported_dimension(self):
        A = OneFormTorus(3)
        with pytest.raises(ValueError):
            zeta0_shift(A, Theta.zero(3), diophantine_asserted=True)


class TestNoTadpole:
    def test_linear_residue_factor_vanishes(self):
        # the term linear in the potential carries Res_s sum' k_mu |k|^(-s-2),
        # which has no pole at the evaluation point and odd sphere moments
        from ncspectral.lattice_zeta import LatticePoly, residue_lattice_sum
        for n in (2, 4):
            for mu in range(n):
                expo = [0] * n
                expo[mu] = 1
                poly = LatticePoly.monomial(n, expo)
                assert residue_lattice_sum(n, poly, 2) == 0
                assert residue_lattice_sum(n, poly, n + 1) == 0

    def test_scale_invariant_term_is_at_least_quadratic(self):
        rng = np.random.default_rng(21)
        theta = irrational_theta(4)
        entries = random_entries(rng)
        shifts = []
        for t in (1e-2, 1e-3):
            scaled = OneFormTorus(4, [(a, l, t * c) for a, l, c in entries])
            shifts.append(abs(zeta0_shift(scaled, theta,
                                          diophantine_asserted=True)))
        order = math.log(shifts[0] / shifts[1]) / math.log(10.0)
        assert order > 1.9


class TestOracleRoutes:
    """Production Yang-Mills and power sums against the term-by-term
    routes they replaced, at rel 1e-12."""

    @settings(max_examples=60, deadline=None)
    @given(potentials4, thetas4)
    @example(COLLIDING, Theta.zero(4))
    @example(COLLIDING, irrational_theta(4))
    @example(OneFormTorus(4), irrational_theta(4))
    def test_yang_mills_matches_ff_trace(self, A, theta):
        # the oracle's weyl_mul prunes each of the 12 traces tau(F_ab F_ab)
        # that comes out at or below PRUNE_EPS
        assert yang_mills(A, theta) == pytest.approx(
            ff_trace_oracle(A, theta), rel=1e-12, abs=12 * PRUNE_EPS)

    @settings(max_examples=60, deadline=None)
    @given(potentials2, thetas2)
    @example(OneFormTorus(2), irrational_theta(2))
    def test_yang_mills_matches_ff_trace_n2(self, A, theta):
        assert yang_mills(A, theta) == pytest.approx(
            ff_trace_oracle(A, theta), rel=1e-12, abs=2 * PRUNE_EPS)

    @settings(max_examples=60, deadline=None)
    @given(potentials4, thetas4)
    @example(COLLIDING, Theta.zero(4))
    @example(COLLIDING, irrational_theta(4))
    @example(OneFormTorus(4), irrational_theta(4))
    def test_cs_sums_match_loops(self, A, theta):
        for q in (2, 3, 4):
            want, scale = cs_sums_oracle(A, theta, q)
            # 1e-300: products of tiny sines underflow in either route
            assert abs(cs_sums(A, theta, q) - want) <= 1e-12 * scale + 1e-300

    def test_colliding_example_exercises_every_sum(self):
        # the fixed example is only worth having if no sum is trivially 0
        theta = irrational_theta(4)
        assert not COLLIDING.component(4).coeffs
        for q in (2, 3, 4):
            assert cs_sums_oracle(COLLIDING, theta, q)[1] > 0.0
        # theta = 0 kills every sine, so q = 3 and 4 vanish exactly
        for q in (3, 4):
            assert cs_sums(COLLIDING, Theta.zero(4), q) == 0.0

    def test_pair_table_closed_under_negation_with_wide_entries(self):
        big = 10 ** 15
        A = OneFormTorus(4, [
            (1, (big, -big, 0, 1), 0.3 + 0.1j),
            (2, (big, big, big, big), -0.2j),
            (3, (0, 0, 0, 1), 0.4),
            (4, (big, -big, 0, 1), 0.1 - 0.5j)])
        assert (A.modes[::-1] == -A.modes).all()
        table = A.pair_table(irrational_theta(4))
        assert len(table.i) == len(A.modes) ** 2
        sums = A.modes[table.i] + A.modes[table.j]
        groups = sums[table.starts]
        sizes = np.diff(table.starts, append=len(sums))
        # every pair adds to the mode of its group, groups are distinct and
        # in lexicographic order, and the mirror group holds the negative
        assert (sums == np.repeat(groups, sizes, axis=0)).all()
        keys = [tuple(m) for m in groups.tolist()]
        assert keys == sorted(set(keys))
        assert (groups[::-1] == -groups).all()
        assert (table.modes == groups).all()
        # each mode of the potential holds its coefficients in its group
        for mode, c in zip(A.modes.tolist(), A.coeffs):
            assert (table.coeffs[keys.index(tuple(mode))] == c).all()
        assert np.count_nonzero(table.coeffs) == np.count_nonzero(A.coeffs)

    def test_pair_table_is_built_once_per_theta(self):
        theta = irrational_theta(4)
        table = COLLIDING.pair_table(theta)
        assert COLLIDING.pair_table(Theta(theta.entries.copy())) is table
        assert COLLIDING.pair_table(Theta.zero(4)) is not table


class TestTorusAction:
    def setup_method(self):
        self.moments = cutoff_moments({"family": "exponential"}, [1, 2, 3, 4])

    def test_n2_expansion(self):
        A = OneFormTorus(2, [(1, (1, 0), 0.2j)])
        shift = zeta0_shift(A, irrational_theta(2), diophantine_asserted=True)
        rep = torus_action(2, shift, self.moments, 10.0)
        assert rep.coefficient(2) == pytest.approx(4 * math.pi * 0.5)
        assert rep.coefficient(1) == 0.0
        assert rep.coefficient(0) == 0.0
        assert rep.total == pytest.approx(4 * math.pi * 0.5 * 100.0)

    def test_n4_zero_potential(self):
        shift = zeta0_shift(OneFormTorus(4), irrational_theta(4),
                            diophantine_asserted=True)
        rep = torus_action(4, shift, self.moments, 2.0)
        assert rep.coefficient(4) == pytest.approx(8 * math.pi ** 2 * 0.5)
        for p in (3, 2, 1, 0):
            assert rep.coefficient(p) == 0.0

    def test_n4_constant_term(self):
        rng = np.random.default_rng(12)
        theta = irrational_theta(4)
        A = random_one_form(rng)
        rep = torus_action(4, zeta0_shift(A, theta, diophantine_asserted=True),
                           self.moments, 3.0)
        c = 4 * math.pi ** 2 / 3
        assert rep.coefficient(0) == pytest.approx(
            -c * yang_mills(A, theta), rel=1e-12)
        assert rep.coefficient(3) == 0.0
        assert rep.coefficient(1) == 0.0


class TestDiracOracle:
    def test_n2_kernel_and_first_shell(self):
        spectrum = dirac_truncated(2, 1)
        assert spectrum.kernel_dim == 2
        assert (spectrum.multiplicity(1.0)
                + spectrum.multiplicity(-1.0)) == 8

    def test_n4_kernel(self):
        assert dirac_truncated(4, 1).kernel_dim == 4

    @pytest.mark.parametrize("n,K", [(2, 3), (4, 2), (4, 3)])
    def test_multiplicity_pattern(self, n, K):
        from ncspectral.lattice_zeta import radial_counts
        spectrum = dirac_truncated(n, K)
        counts = radial_counts(n, K * K)
        half_fiber = 2 ** (n // 2 - 1)
        for m in range(1, K * K + 1):
            expected = int(counts[m]) * half_fiber
            got_plus = spectrum.multiplicity(math.sqrt(m))
            got_minus = spectrum.multiplicity(-math.sqrt(m))
            assert got_plus == expected
            assert got_minus == expected

    def test_memory_guard(self):
        with pytest.raises(MemoryError):
            dirac_truncated(4, 40)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            dirac_truncated(2, 0)


class TestJsonInterface:
    def test_load_round_trip(self):
        doc = {
            "n": 4,
            "theta": irrational_theta(4).entries.tolist(),
            "diophantine_asserted": True,
            "A": [{"alpha": 1, "l": [1, 0, 0, 0], "re": 0.0, "im": 0.25},
                  {"alpha": 2, "l": [0, 1, 0, 0], "re": 0.1, "im": 0.0}],
        }
        parsed = load_potential(doc)
        assert parsed["n"] == 4
        assert parsed["diophantine_asserted"] is True
        comp1 = parsed["A"].component(1)
        assert comp1.coeffs[(1, 0, 0, 0)] == pytest.approx(0.25j)
        assert comp1.coeffs[(-1, 0, 0, 0)] == pytest.approx(0.25j)

    def test_schema_violations(self):
        with pytest.raises(ValueError):
            load_potential({"theta": [[0.0]]})
        with pytest.raises(ValueError):
            load_potential({"n": 2, "theta": [[0, 1], [1, 0]], "A": []})
        with pytest.raises(ValueError):
            load_potential({"n": 2, "theta": [[0, 0.3], [-0.3, 0]],
                            "A": [{"alpha": 5, "l": [1, 0], "re": 1.0}]})
        # the structure of an entry is checked by load_potential, its
        # integers once, by OneFormTorus
        theta = [[0, 0.3], [-0.3, 0]]
        for entry in ({"alpha": 1, "l": 5}, {"alpha": 1, "l": None},
                      {"l": [1, 0]}, [1, 0]):
            with pytest.raises(ValueError, match="malformed potential"):
                load_potential({"n": 2, "theta": theta, "A": [entry]})
        for entry in ({"alpha": "1", "l": [1, 0]}, {"alpha": True, "l": [1, 0]},
                      {"alpha": 1, "l": "10"}, {"alpha": 1, "l": [1, 0.5]}):
            with pytest.raises(ValueError, match="not an integer"):
                load_potential({"n": 2, "theta": theta, "A": [entry]})
