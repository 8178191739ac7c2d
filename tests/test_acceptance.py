"""Acceptance gate: every criterion at its pinned tolerance, one line each."""

import pytest

from ncspectral.acceptance import CRITERIA


@pytest.mark.parametrize("num,name,func", CRITERIA,
                         ids=[f"criterion_{n:02d}" for n, _, _ in CRITERIA])
def test_criterion(num, name, func):
    ok, detail = func()
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d} - {name}: {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_random_one_form_skips_colliding_draws():
    import numpy as np

    from ncspectral.acceptance import _random_one_form

    # 12 draws on [-2, 2]^4 in 4 components collide for many seeds; the
    # modes are sorted and closed under negation, so row -k is the mirror
    # row of row k, and A_a + A_a* sums a_{a,k} + conj(a_{a,-k}) over k
    for seed in range(200):
        A = _random_one_form(np.random.default_rng(seed), nmodes=12)
        assert (A.modes[::-1] == -A.modes).all()
        skew = np.abs(A.coeffs + A.coeffs[::-1].conj()).sum(axis=0)
        assert (skew < 1e-12).all()
