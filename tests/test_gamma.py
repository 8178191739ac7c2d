import itertools

import numpy as np
import pytest

from ncspectral import oracles
from ncspectral.oracles import dirac_truncated, gamma_matrices


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_build_satisfies_clifford_relations(n):
    g = gamma_matrices(n)
    dim = 2 ** (n // 2)
    ident = np.eye(dim)
    assert len(g) == n
    for i in range(n):
        gi = g[i]
        assert gi.shape == (dim, dim)
        assert np.allclose(gi, gi.conj().T, atol=1e-12)
        for j in range(n):
            gj = g[j]
            assert np.allclose(gi @ gj + gj @ gi, 2 * (i == j) * ident, atol=1e-12)


def test_build_rejects_bad_dimension():
    with pytest.raises(ValueError):
        dirac_truncated(0, 1)
    with pytest.raises(ValueError):
        dirac_truncated(-3, 1)


def test_two_point_traces():
    g = gamma_matrices(4)
    for i, j in itertools.product(range(4), repeat=2):
        assert np.trace(g[i] @ g[j]) == pytest.approx(4.0 * (i == j))


def test_odd_trace_vanishes_in_even_dimension():
    g = gamma_matrices(4)
    assert np.trace(g[0] @ g[1] @ g[2]) == 0
    assert np.trace(g[0]) == 0
    assert np.trace(g[1] @ g[1] @ g[1] @ g[0] @ g[2]) == 0


def test_n2_alternating_four_trace():
    g1, g2 = gamma_matrices(2)
    assert np.trace(g1 @ g2 @ g1 @ g2) == pytest.approx(-2.0)


def test_n3_triple_product_trace_is_imaginary():
    # the third matrix is -i g1 g2, so the trace is 2i
    g1, g2, g3 = gamma_matrices(3)
    tr = np.trace(g1 @ g2 @ g3)
    assert abs(tr.real) < 1e-12
    assert abs(tr) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_contraction_identity(n):
    # sum_mu Tr(g^a g^mu g^b g_mu) = 2^m (2-n) delta^ab
    g = gamma_matrices(n)
    for a, b in itertools.product(range(n), repeat=2):
        total = sum(np.trace(g[a] @ gm @ g[b] @ gm) for gm in g)
        assert total == pytest.approx(2 ** (n // 2) * (2 - n) * (a == b), abs=1e-10)


def test_size_guard_comes_before_the_matrices(monkeypatch):
    # (2K+1)^n 2^(n//2) basis vectors over max_dim: refused unbuilt
    def refuse(n):
        raise AssertionError("gamma matrices built past the guard")
    monkeypatch.setattr(oracles, "gamma_matrices", refuse)
    with pytest.raises(MemoryError):
        dirac_truncated(13, 1)
    with pytest.raises(MemoryError):
        dirac_truncated(2, 2, max_dim=49)
