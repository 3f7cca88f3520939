import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidential import specfun
from evidential.specfun import _gamma_terms, digamma, ln_gamma, trigamma

EULER_MASCHERONI = 0.57721566490153286060651209008240


def test_ln_gamma_at_one_is_zero():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)


def test_ln_gamma_half():
    # Gamma(1/2) = sqrt(pi)
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)


def test_ln_gamma_six_is_log_120():
    assert ln_gamma(6.0) == pytest.approx(math.log(120.0), abs=1e-12)


def test_ln_gamma_factorial_chain():
    # Gamma(n+1) = n! for a run of small integers
    fact = 1.0
    for n in range(1, 15):
        fact *= n
        assert ln_gamma(n + 1.0) == pytest.approx(math.log(fact), rel=1e-14)


def test_digamma_at_one_is_minus_euler():
    assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-12)


def test_digamma_half():
    # psi(1/2) = -gamma - 2 ln 2
    expected = -EULER_MASCHERONI - 2.0 * math.log(2.0)
    assert digamma(0.5) == pytest.approx(expected, abs=1e-12)


def test_digamma_recurrence_unit_step():
    assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x", np.geomspace(0.01, 100, 40).tolist())
def test_digamma_recurrence_grid(x):
    assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)


@pytest.mark.parametrize("x", np.linspace(1e-3, 1.0 - 1e-3, 30).tolist())
def test_ln_gamma_reflection(x):
    lhs = ln_gamma(x) + ln_gamma(1.0 - x)
    rhs = math.log(math.pi / math.sin(math.pi * x))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_digamma_monotone_increasing():
    grid = np.geomspace(1e-3, 1e4, 300)
    values = digamma(grid)
    assert np.all(np.diff(values) > 0)


def test_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for x in np.geomspace(1e-3, 1e6, 60):
        lg_true = float(mpmath.loggamma(x))
        dg_true = float(mpmath.digamma(x))
        tg_true = float(mpmath.polygamma(1, x))
        # absolute tolerance where the magnitude allows it, relative
        # beyond (f64 cannot hold 1e-12 absolute once ln-gamma ~ 1e7)
        assert abs(ln_gamma(x) - lg_true) <= 1e-12 * max(1.0, abs(lg_true))
        assert abs(digamma(x) - dg_true) <= 1e-10 * max(1.0, abs(dg_true))
        assert abs(trigamma(x) - tg_true) <= 1e-10 * max(1.0, abs(tg_true))


# Arguments on both sides of the shift threshold (x < 10 is shifted).
SHIFT_EDGES = [1e-15, 0.5, 9.999, 10.0, 1e6]


def test_fused_kernel_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    xs = np.array(SHIFT_EDGES + np.geomspace(1e-3, 1e6, 60).tolist())
    lg, dg, tg = _gamma_terms(xs)
    for x, got_lg, got_dg, got_tg in zip(xs, lg, dg, tg):
        lg_true = float(mpmath.loggamma(x))
        dg_true = float(mpmath.digamma(x))
        tg_true = float(mpmath.polygamma(1, x))
        assert abs(got_lg - lg_true) <= 1e-12 * max(1.0, abs(lg_true))
        assert abs(got_dg - dg_true) <= 1e-10 * max(1.0, abs(dg_true))
        assert abs(got_tg - tg_true) <= 1e-10 * max(1.0, abs(tg_true))


@pytest.mark.parametrize("x", SHIFT_EDGES)
def test_fused_kernel_zero_d_matches_array_element(x):
    scalar = _gamma_terms(np.array(x))
    assert all(type(v) is float for v in scalar)
    in_array = _gamma_terms(np.array([3.0, x, 42.0]))
    assert scalar == tuple(float(v[1]) for v in in_array)
    assert scalar == (ln_gamma(x), digamma(x), trigamma(x))


def separate_recurrences(x):
    """(ln Gamma, digamma, trigamma) from three gather/scatter recurrences,
    one per function: the loop form the fused kernel must match bit for bit."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    results = []
    for shift_term, first_term, coeffs in (
        (np.log, lambda z, inv2: 1.0 / z, specfun._LNGAMMA_SERIES),
        (lambda z: 1.0 / z, lambda z, inv2: inv2.copy(), specfun._DIGAMMA_SERIES),
        (lambda z: 1.0 / (z * z), lambda z, inv2: inv2 / z, specfun._TRIGAMMA_SERIES),
    ):
        z, shift = x.copy(), np.zeros_like(x)
        for _ in range(10):
            mask = z < 10.0
            shift[mask] += shift_term(z[mask])
            z[mask] += 1.0
        inv2 = 1.0 / (z * z)
        series, term = np.zeros_like(z), first_term(z, inv2)
        for c in coeffs:
            series += c * term
            term *= inv2
        results.append((z, inv2, series, shift))
    (z, inv2, series, shift), dg, tg = results
    return (
        (z - 0.5) * np.log(z) - z + specfun._HALF_LOG_2PI + series - shift,
        np.log(dg[0]) - 0.5 / dg[0] - dg[2] - dg[3],
        1.0 / tg[0] + 0.5 * tg[1] + tg[2] + tg[3],
    )


def test_fused_kernel_matches_separate_recurrences_exactly():
    rng = np.random.default_rng(11)
    for xs in (np.array(SHIFT_EDGES), rng.random(385) * 12.0 + 1e-12,
               np.geomspace(1e-12, 1e12, 2001), rng.random((64, 3)) * 4.0):
        for fused, separate in zip(_gamma_terms(xs), separate_recurrences(xs)):
            assert np.array_equal(fused, separate)


def test_fused_kernel_empty_input():
    for values in _gamma_terms(np.array([])):
        assert values.shape == (0,)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_fused_kernel_domain_errors(bad):
    with pytest.raises(ValueError):
        _gamma_terms(bad)
    with pytest.raises(ValueError):
        _gamma_terms(np.array([0.5, bad, 2.0]))


def test_domain_errors():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            ln_gamma(bad)
        with pytest.raises(ValueError):
            digamma(bad)
        with pytest.raises(ValueError):
            trigamma(bad)


def test_vectorized_matches_scalar():
    xs = np.array([0.002, 0.7, 3.0, 42.0])
    assert np.allclose(ln_gamma(xs), [ln_gamma(float(x)) for x in xs], rtol=0, atol=0)
    assert np.allclose(digamma(xs), [digamma(float(x)) for x in xs], rtol=0, atol=0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=1000.0))
def test_ln_gamma_recurrence_property(x):
    # ln Gamma(x+1) = ln Gamma(x) + ln x
    assert ln_gamma(x + 1.0) - ln_gamma(x) == pytest.approx(
        math.log(x), abs=1e-10 * max(1.0, abs(math.log(x)))
    )


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.01, max_value=1000.0))
def test_trigamma_recurrence_property(x):
    assert trigamma(x) - trigamma(x + 1.0) == pytest.approx(1.0 / (x * x), rel=1e-9)
