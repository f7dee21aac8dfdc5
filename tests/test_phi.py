import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from seeds_sde import DomainError, phi, sqrt_exp_diff
from seeds_sde.noise import stage_noise_weights

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def phi_quadrature(k, h):
    """Oracle: 64-point Gauss-Legendre of the integral definition."""
    if k == 0:
        return math.exp(h)
    kk = k - 1
    tau = 0.5 * (GL_NODES + 1.0)
    vals = np.exp((1.0 - tau) * h) * tau**kk / math.factorial(kk)
    return float(np.sum(GL_WEIGHTS * vals) * 0.5)


def test_phi_anchors():
    assert phi(1, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
    assert phi(2, 0.0) == 0.5
    assert phi(0, 2.0) == pytest.approx(math.exp(2.0), rel=1e-15)


def test_phi_matches_quadrature_oracle():
    assert phi(3, 0.1) == pytest.approx(phi_quadrature(3, 0.1), rel=1e-12)
    for k in range(9):
        for h in (-50.0, -5.0, -1.0, -0.1, -1e-3, 1e-3, 0.1, 1.0, 5.0, 50.0):
            assert phi(k, h) == pytest.approx(phi_quadrature(k, h), rel=1e-12), (k, h)


def test_phi_recursion_consistency():
    for k in range(8):
        for h in (-5.0, -1.0, -0.1, -1e-6, 1e-6, 0.1, 1.0, 5.0):
            lhs = h * phi(k + 1, h) + 1.0 / math.factorial(k)
            assert abs(lhs - phi(k, h)) <= 1e-12 * max(1.0, abs(phi(k, h)))


def test_phi_small_h_taylor():
    for k in range(9):
        for h in (-9e-5, -1e-6, 1e-9, 1e-6, 9e-5):
            taylor = sum(h**j / math.factorial(k + j) for j in range(7))
            assert phi(k, h) == pytest.approx(taylor, rel=1e-14)


def test_phi_domain_errors():
    with pytest.raises(DomainError):
        phi(9, 1.0)
    with pytest.raises(DomainError):
        phi(-1, 1.0)
    with pytest.raises(DomainError):
        phi(2, 50.5)
    with pytest.raises(DomainError):
        phi(2, math.inf)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 7), h=st.floats(-5.0, 5.0, allow_nan=False))
def test_phi_recursion_property(k, h):
    if h == 0.0:
        return
    lhs = h * phi(k + 1, h) + 1.0 / math.factorial(k)
    assert abs(lhs - phi(k, h)) <= 1e-12 * max(1.0, abs(phi(k, h)))


def weighted_poly_integral(k, lam_s, lam_t):
    """integral_{lam_s}^{lam_t} e^{-lam} (lam - lam_s)^k / k! dlam in closed
    form: e^{-lam_t} h^{k+1} phi_{k+1}(h) with h = lam_t - lam_s."""
    h = lam_t - lam_s
    return math.exp(-lam_t) * h ** (k + 1) * phi(k + 1, h)


def test_weighted_poly_integral_k0_anchor():
    # integral of e^-lam over [0, ln 2] equals 1/2
    assert weighted_poly_integral(0, 0.0, math.log(2.0)) == pytest.approx(0.5, abs=1e-15)


def test_weighted_poly_integral_k0_closed_form():
    for lam_s, lam_t in ((-1.5, 0.25), (0.3, 2.0), (2.0, 0.3)):
        h = lam_t - lam_s
        sigma_t = math.exp(-lam_t)
        assert weighted_poly_integral(0, lam_s, lam_t) == pytest.approx(
            sigma_t * math.expm1(h), rel=1e-13
        )


def test_weighted_poly_integral_vs_adaptive_quadrature():
    lam_s, lam_t = -1.0, 0.5
    val, err = quad(lambda lam: math.exp(-lam) * (lam - lam_s) ** 2 / 2.0, lam_s, lam_t,
                    epsabs=1e-14, epsrel=1e-14)
    assert weighted_poly_integral(2, lam_s, lam_t) == pytest.approx(val, rel=1e-11)


def test_sqrt_exp_diff_matches_naive():
    for a, b in ((2.0, 1.0), (0.5, -3.0), (1e-8, 0.0)):
        naive = mpmath.sqrt(mpmath.e**a - mpmath.e**b)
        assert sqrt_exp_diff(a, b) == pytest.approx(float(naive), rel=1e-14)
    assert sqrt_exp_diff(1.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        sqrt_exp_diff(0.0, 1.0)


def test_two_term_expm1_identity():
    # sqrt(e^{2h} - e^h) z1 + sqrt(e^h - 1) z2 == sqrt(e^h - 1) (e^{h/2} z1 + z2)
    z1, z2 = 0.7, -1.3
    for h in (1e-8, 1e-4, 0.01, 0.5, 1.0, 5.0):
        lhs = sqrt_exp_diff(2.0 * h, h) * z1 + math.sqrt(math.expm1(h)) * z2
        rhs = math.sqrt(math.expm1(h)) * (math.exp(0.5 * h) * z1 + z2)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_variance_telescoping_exact():
    # exact as algebra; floating-point re-association costs at most a few ulp
    for h in (1e-8, 0.3, 1.0, 5.0):
        r1, r2 = 1.0 / 3.0, 2.0 / 3.0
        total = (
            (math.exp(2 * h) - math.exp(2 * r2 * h))
            + (math.exp(2 * r2 * h) - math.exp(2 * r1 * h))
            + (math.exp(2 * r1 * h) - 1.0)
        )
        assert total == pytest.approx(math.expm1(2 * h), rel=1e-15)


def stable_combination(h, r1, r2, z):
    """The three-stage step's full-step noise B at scale 1: sqrt(e^{2h} - e^{2(1-r1)h}) z1
    + sqrt(e^{2(1-r1)h} - e^{2(1-r2)h}) z2 + sqrt(e^{2(1-r2)h} - 1) z3."""
    return sum(w * z_j for w, z_j in zip(stage_noise_weights((r1, r2, 1.0), h)[2], z))


def test_stable_combination_anchor():
    # h=1, r=(1/3, 2/3), z=(1,0,0): sqrt(e^2 - e^{4/3}) ~ 1.89615
    val = stable_combination(1.0, 1.0 / 3.0, 2.0 / 3.0, (np.ones(1), np.zeros(1), np.zeros(1)))
    expected = math.sqrt(math.exp(2.0) - math.exp(4.0 / 3.0))
    assert val[0] == pytest.approx(expected, rel=1e-14)
    assert val[0] == pytest.approx(1.89615, abs=5e-6)
    # off the default fractions, r=(1/2, 3/4), z=(0,1,0): sqrt(e - e^{1/2}) ~ 1.03420
    val = stable_combination(1.0, 0.5, 0.75, (np.zeros(1), np.ones(1), np.zeros(1)))
    assert val[0] == pytest.approx(math.sqrt(math.exp(1.0) - math.exp(0.5)), rel=1e-14)
    assert val[0] == pytest.approx(1.03420, abs=5e-6)


def _combination_oracle(h, r1, r2, z):
    """Extended-precision evaluation of the naive radical form."""
    with mpmath.workdps(50):
        one = mpmath.mpf(1)
        c1 = mpmath.sqrt(mpmath.e ** (2 * h) - mpmath.e ** (2 * (one - r1) * h))
        c2 = mpmath.sqrt(mpmath.e ** (2 * (one - r1) * h) - mpmath.e ** (2 * (one - r2) * h))
        c3 = mpmath.sqrt(mpmath.e ** (2 * (one - r2) * h) - 1)
        return float(c1 * z[0] + c2 * z[1] + c3 * z[2])


def test_stable_combination_vs_extended_precision():
    z = (np.array([1.0]), np.array([1.0]), np.array([1.0]))
    for r1, r2 in ((1.0 / 3.0, 2.0 / 3.0), (0.2, 0.7)):
        for h in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.5, 1.0, 5.0):
            got = stable_combination(h, r1, r2, z)[0]
            want = _combination_oracle(h, r1, r2, (1.0, 1.0, 1.0))
            tol = 1e-8 if h < 1e-8 else 1e-14
            assert got == pytest.approx(want, rel=tol), (r1, r2, h)
