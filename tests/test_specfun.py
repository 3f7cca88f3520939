import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidential import specfun
from evidential.specfun import _gamma_terms, digamma, ln_gamma, trigamma
from oracles import DIGAMMA_SERIES, LNGAMMA_SERIES, TRIGAMMA_SERIES, gamma_terms_loop

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
        (np.log, lambda z, inv2: 1.0 / z, LNGAMMA_SERIES),
        (lambda z: 1.0 / z, lambda z, inv2: inv2.copy(), DIGAMMA_SERIES),
        (lambda z: 1.0 / (z * z), lambda z, inv2: inv2 / z, TRIGAMMA_SERIES),
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


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 8, 9, 385, 511, 512, 513, 1281, 1409, 2817,
                               4097, 20000])
def test_stacked_kernel_matches_loop_form_bit_for_bit(m):
    # m = 1 is where a `sum` over the shift or series rows would round
    # differently from the loop's running total. Summing the eight series
    # terms pairwise changes about 1 value in 3000, so m = 20000 (many
    # passes of the kernel) catches that too. 4097 ends in a pass of one.
    rng = np.random.default_rng(m)
    xs = np.concatenate([[1e-15, 9.999999999, 10.0, 1e6], rng.random(m) * 12.0 + 1e-12])[:m]
    for stacked, loop in zip(_gamma_terms(xs), gamma_terms_loop(xs)):
        assert _same_bits(stacked, loop)


def test_kept_buffer_carries_nothing_between_calls():
    # Alternate sizes, with a full pass between calls; every result must
    # still match the loop form, and must not change after a later call.
    rng = np.random.default_rng(3)
    for m in [4097, 1, 1409, 257, 4096, 3, 2817, 385, 4097, 0, 513]:
        xs = np.exp(rng.uniform(-20, 20, m))
        results = _gamma_terms(xs)
        for stacked, loop in zip(results, gamma_terms_loop(xs)):
            assert _same_bits(stacked, loop)
        _gamma_terms(rng.random(4096) + 1e-3)
        for stacked, loop in zip(results, gamma_terms_loop(xs)):
            assert _same_bits(stacked, loop)


@pytest.mark.parametrize("n", [20_000, 200_000])
def test_work_memory_is_bounded_by_one_pass(n):
    # A pass's work arrays take about 2 MB at _PASS values and are freed
    # before the next pass, so the peak above the (3, n) result stays flat in n.
    xs = np.random.default_rng(n).random(n) * 12.0 + 1e-9
    tracemalloc.start()
    try:
        rows = specfun._gamma_rows(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (3, n)
    assert peak - rows.nbytes <= 3_000_000


def test_concurrent_calls_never_share_a_buffer():
    # Each thread has its own kept buffer; with one shared buffer, threads
    # switching between numpy calls would read each other's passes.
    sizes = [257, 1409, 4097, 385, 3, 2817]
    inputs = [np.random.default_rng(m).random(m) * 12.0 + 1e-9 for m in sizes]
    expected = [gamma_terms_loop(xs) for xs in inputs]
    failures = []

    def work(i):
        for _ in range(40):
            for stacked, loop in zip(_gamma_terms(inputs[i]), expected[i]):
                if not _same_bits(stacked, loop):
                    failures.append(sizes[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sizes))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


@pytest.mark.parametrize("xs", [
    np.array(3.0),
    np.array(1e-15),
    np.array([1e-15, 9.999999999, 10.0, 1e6]),
    np.random.default_rng(1).random((64, 3)) * 4.0,
    np.random.default_rng(2).random((2, 5, 7)) * 30.0 + 1e-9,
], ids=["0d", "0d-tiny", "edges", "64x3", "2x5x7"])
def test_stacked_kernel_shapes_match_loop_form_bit_for_bit(xs):
    stacked, loop = _gamma_terms(xs), gamma_terms_loop(xs)
    if xs.ndim == 0:
        assert all(type(v) is float for v in stacked)
    for a, b in zip(stacked, loop):
        assert _same_bits(a, b)


# z*z underflows (x <~ 1e-154) or overflows (x >~ 1.3e154) at these.
RANGE_EDGES = [1e-300, 1e-200, 1e200, 1e300]


@pytest.mark.parametrize("x", RANGE_EDGES)
def test_range_edges_without_warnings(x):
    # pyproject turns RuntimeWarning into an error, so a warning fails here.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    lg, dg, tg = _gamma_terms(x)
    lg_true = float(mpmath.loggamma(x))
    dg_true = float(mpmath.digamma(x))
    assert abs(lg - lg_true) <= 1e-12 * max(1.0, abs(lg_true))
    assert abs(dg - dg_true) <= 1e-10 * max(1.0, abs(dg_true))
    assert (ln_gamma(x), digamma(x), trigamma(x)) == (lg, dg, tg)


@pytest.mark.parametrize("x", RANGE_EDGES + [1e-150, 1.0, 1e150])
def test_trigamma_is_inf_exactly_beyond_float_max(x):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    tg_true = mpmath.polygamma(1, x)
    tg = trigamma(x)
    if tg_true > np.finfo(np.float64).max:
        assert tg == np.inf
    else:
        assert np.isfinite(tg)
        assert abs(tg - float(tg_true)) <= 1e-10 * max(1.0, abs(float(tg_true)))


@pytest.mark.parametrize("x", [5e-324, 1e-310, 1.7e308, float(np.finfo(np.float64).max)])
def test_float_range_ends_without_warnings(x):
    # 1/x overflows below ~5.6e-309 and (x - 1/2) ln x near the float maximum;
    # each result is inf exactly where its true value leaves the float range.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = (ln_gamma(x), digamma(x), trigamma(x))
    for value, true in zip(got, (mpmath.loggamma(x), mpmath.digamma(x),
                                 mpmath.polygamma(1, x))):
        if abs(true) > np.finfo(np.float64).max:
            assert value == float(true)  # inf or -inf
        else:
            assert abs(value - float(true)) <= 1e-12 * max(1.0, abs(float(true)))


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
