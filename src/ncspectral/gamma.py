"""Hermitian gamma matrices for the truncated Dirac operator of the torus.

Representations are built by iterated tensor products of Pauli matrices:
n = 2m matrices of size 2^m satisfying {g_i, g_j} = 2 delta_ij, plus the
chirality-type extra generator for odd n.  `oracles.dirac_truncated`
consumes only the spectrum of k_mu g^mu, which is independent of the
unitary convention chosen here.
"""

from __future__ import annotations

import numpy as np

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_MAX_N = 12  # 2^6 = 64-dim fiber; enough for every consumer here


class GammaRep:
    """n hermitian anticommuting matrices acting on C^(2^(n//2))."""

    def __init__(self, n: int, matrices):
        self.n = n
        self.m = n // 2
        self.dim = 2 ** self.m
        mats = []
        for g in matrices:
            g = np.array(g, dtype=complex)
            g.setflags(write=False)
            mats.append(g)
        self.matrices = tuple(mats)
        self._validate()

    def _validate(self) -> None:
        ident = np.eye(self.dim)
        for i, gi in enumerate(self.matrices):
            if not np.allclose(gi, gi.conj().T, atol=1e-12):
                raise ValueError(f"gamma_{i + 1} is not hermitian")
            for j, gj in enumerate(self.matrices):
                anti = gi @ gj + gj @ gi
                if not np.allclose(anti, 2.0 * (i == j) * ident, atol=1e-12):
                    raise ValueError(f"anticommutator failure at ({i + 1},{j + 1})")


def build_gamma(n: int) -> GammaRep:
    """Standard tensor-product construction of a hermitian gamma family."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"spatial dimension must be a positive integer, got {n!r}")
    if n > _MAX_N:
        raise ValueError(f"n = {n} exceeds supported fiber size (n <= {_MAX_N})")
    if n == 1:
        return GammaRep(1, [np.array([[1.0]], dtype=complex)])

    mats = [_SIGMA1, _SIGMA2]
    m = n // 2
    # grow even blocks: 2m matrices of size 2^m
    for _ in range(2, m + 1):
        dim = mats[0].shape[0]
        eye = np.eye(dim, dtype=complex)
        mats = [np.kron(g, _SIGMA3) for g in mats]
        mats.append(np.kron(eye, _SIGMA1))
        mats.append(np.kron(eye, _SIGMA2))
    if n % 2 == 1:
        # odd n: append the product (-i)^m g_1 ... g_2m, hermitian, anticommuting
        prod = np.eye(mats[0].shape[0], dtype=complex)
        for g in mats:
            prod = prod @ g
        mats.append((-1.0j) ** m * prod)
    return GammaRep(n, mats)
