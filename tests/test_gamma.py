import itertools

import numpy as np
import pytest

from ncspectral.gamma import GammaRep, build_gamma


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_build_satisfies_clifford_relations(n):
    rep = build_gamma(n)
    dim = 2 ** (n // 2)
    ident = np.eye(dim)
    assert rep.dim == dim
    for i in range(n):
        gi = rep.matrices[i]
        assert np.allclose(gi, gi.conj().T, atol=1e-12)
        for j in range(n):
            gj = rep.matrices[j]
            assert np.allclose(gi @ gj + gj @ gi, 2 * (i == j) * ident, atol=1e-12)


def test_build_rejects_bad_dimension():
    with pytest.raises(ValueError):
        build_gamma(0)
    with pytest.raises(ValueError):
        build_gamma(-3)


def test_two_point_traces():
    g = build_gamma(4).matrices
    for i, j in itertools.product(range(4), repeat=2):
        assert np.trace(g[i] @ g[j]) == pytest.approx(4.0 * (i == j))


def test_odd_trace_vanishes_in_even_dimension():
    g = build_gamma(4).matrices
    assert np.trace(g[0] @ g[1] @ g[2]) == 0
    assert np.trace(g[0]) == 0
    assert np.trace(g[1] @ g[1] @ g[1] @ g[0] @ g[2]) == 0


def test_n2_alternating_four_trace():
    g1, g2 = build_gamma(2).matrices
    assert np.trace(g1 @ g2 @ g1 @ g2) == pytest.approx(-2.0)


def test_n3_triple_product_trace_is_imaginary():
    # the third matrix is -i g1 g2, so the trace is 2i
    g1, g2, g3 = build_gamma(3).matrices
    tr = np.trace(g1 @ g2 @ g3)
    assert abs(tr.real) < 1e-12
    assert abs(tr) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_contraction_identity(n):
    # sum_mu Tr(g^a g^mu g^b g_mu) = 2^m (2-n) delta^ab
    rep = build_gamma(n)
    g = rep.matrices
    for a, b in itertools.product(range(n), repeat=2):
        total = sum(np.trace(g[a] @ gm @ g[b] @ gm) for gm in g)
        assert total == pytest.approx(rep.dim * (2 - n) * (a == b), abs=1e-10)


def test_rep_rejects_invalid_matrices():
    bad = [np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)]
    with pytest.raises(ValueError):
        GammaRep(1, bad)
