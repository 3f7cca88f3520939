"""Log-gamma, digamma and trigamma on positive reals.

Strategy: upward recurrence shifts the argument to x >= 10, then a
Stirling-type asymptotic series finishes the job. Accepts scalars or
numpy arrays; scalar in, scalar out.
"""

from __future__ import annotations

import threading

import numpy as np

_HALF_LOG_2PI = 0.9189385332046727417803297364056176

# Asymptotic-series coefficients, one row per term and one column per
# function: ln Gamma (Stirling), B_2n / (2n (2n-1)); digamma, B_2n / 2n;
# trigamma, B_2n. The last two series have seven terms; their eighth is 0.
_SERIES_COEFFS = np.array([
    (1.0 / 12.0, 1.0 / 12.0, 1.0 / 6.0),
    (-1.0 / 360.0, -1.0 / 120.0, -1.0 / 30.0),
    (1.0 / 1260.0, 1.0 / 252.0, 1.0 / 42.0),
    (-1.0 / 1680.0, -1.0 / 240.0, -1.0 / 30.0),
    (1.0 / 1188.0, 1.0 / 132.0, 5.0 / 66.0),
    (-691.0 / 360360.0, -691.0 / 32760.0, -691.0 / 2730.0),
    (1.0 / 156.0, 1.0 / 12.0, 7.0 / 6.0),
    (-3617.0 / 122400.0, 0.0, 0.0),
])[:, :, None]
# The kernel runs the digamma series negated (see _shift_and_series).
_SIGNED_COEFFS = _SERIES_COEFFS * np.array([1.0, -1.0, 1.0])[:, None]

_SHIFT_THRESHOLD = 10.0
_PASS = 4096  # most values per pass
_COLUMNS = np.arange(3 * _PASS)


class _Scratch(threading.local):
    """The work arrays of a pass, as views of one flat float64 buffer that
    is kept between calls and grown on demand to one full pass (81 cells a
    value: about 2.6 MB at _PASS values). So a call faults in no fresh
    pages and allocates only its results. Each pass writes every cell
    before it reads it, so nothing carries over from one call to the next.
    Each thread has its own buffer, so concurrent calls never share one."""

    ROWS = 81

    def __init__(self):
        self.buf = np.empty(0)
        self.m, self.views = 0, ()

    def work(self, m: int):
        """The views of an m-value pass, made once per m: steps (11, m) and
        its row pairs, sums (11, 3, m) with its three (10, m) term blocks
        and the pairs of its running rows, series (8, 3, m) and its row
        pairs, (m,) rows for z, ln z, 1/z and 1/z^2, the (3, m) shift sums,
        a (3, m) intp index block, the (m,) intp shift counts, a (10, m)
        bool block, and the column numbers 0..m-1 and 0..3m-1 as (3, m)."""
        if m != self.m:
            if self.buf.size < self.ROWS * m:
                self.buf = np.empty(self.ROWS * m)
            rows = self.buf[:self.ROWS * m].reshape(self.ROWS, m)
            steps, sums = rows[:11], rows[11:44].reshape(11, 3, m)
            series, index = rows[44:68].reshape(8, 3, m), rows[75:78].view(np.intp)
            self.m, self.views = m, (
                steps, tuple(zip(steps, steps[1:])),
                sums, sums[1:, 0], sums[1:, 1], sums[1:, 2], tuple(zip(sums[1:-1], sums[2:])),
                series, tuple(zip(series, series[1:])), *rows[68:72], rows[72:75],
                index, index[0], rows[78].view(np.intp),
                rows[79:].reshape(-1).view(np.bool_)[:10 * m].reshape(10, m),
                _COLUMNS[:m], _COLUMNS[:3 * m].reshape(3, m))
        return self.views


_SCRATCH = _Scratch()


def _gamma_terms(x, name: str = "gamma_terms"):
    """(ln Gamma, digamma, trigamma) of x > 0. Scalar in, scalars out."""
    arr = np.asarray(x, dtype=np.float64)
    out = _gamma_rows(arr.reshape(-1), name)
    if arr.ndim == 0:
        return tuple(float(v) for v in out[:, 0])
    return tuple(out.reshape(3, *arr.shape))


def _gamma_rows(flat: np.ndarray, name: str = "gamma_terms") -> np.ndarray:
    """The (3, n) rows ln Gamma, digamma and trigamma of the 1-D float64
    `flat` > 0, worked out _PASS values at a time; the result never shares
    memory with the scratch buffer."""
    if flat.size and not (np.minimum.reduce(flat) > 0.0
                          and np.maximum.reduce(flat) < np.inf):  # NaN fails both
        raise ValueError(f"{name} requires finite x > 0")
    out = np.empty((3, flat.size))
    # Overflow and division by zero stay quiet: z*z leaves the float range below
    # ~1e-154 and above ~1e154, 1/x overflows below ~5.6e-309 and (z - 1/2) ln z
    # near the float maximum. Each gives inf where the true value overflows, or
    # 0 where it is too small to change a result.
    with np.errstate(over="ignore", divide="ignore"):
        for i in range(0, flat.size, _PASS):
            _shift_and_series(flat[i:i + _PASS], out[:, i:i + _PASS])
    return out


def _shift_and_series(x: np.ndarray, out: np.ndarray) -> None:
    """Write ln Gamma, digamma and trigamma of the 1-D `x` into `out`'s rows.

    Row i of `steps` is x + i, the unit steps added one at a time; row i
    of `sums` holds the log, reciprocal and negated reciprocal square of
    the steps before it, summed. A value's first step at or above the
    threshold is its shifted argument z, after `shifts` steps; its shift
    sums are row `shifts` of `sums`, and the three series run at z as one
    (8, 3, m) block, digamma's negated. Negation is exact, so one add and
    one subtraction finish all three functions. Every sum adds its terms
    in order, never pairwise as `sum` may. The caller quiets overflow and
    division by zero.
    """
    m = x.size
    (steps, step_pairs, sums, log_terms, inv_terms, inv2_terms, sum_pairs, series, series_pairs,
     z, log_z, inv_z, inv2, shift, index, z_index, shifts, below, columns,
     columns3) = _SCRATCH.work(m)
    steps[0] = x
    for a, b in step_pairs:
        np.add(a, 1.0, b)
    np.less(steps[:-1], _SHIFT_THRESHOLD, below)
    np.add.reduce(below, 0, np.intp, shifts)
    np.multiply(shifts, m, z_index)
    z_index += columns
    steps.take(z_index, None, z, "clip")  # steps[shifts[j], j] for each j
    sums[0] = 0.0
    np.log(steps[:-1], log_terms)
    np.divide(1.0, steps[:-1], inv_terms)
    np.log(z, log_z)
    np.divide(1.0, z, inv_z)
    np.multiply(steps[:-1], steps[:-1], inv2_terms)
    np.divide(-1.0, inv2_terms, inv2_terms)
    np.multiply(z, z, inv2)
    np.divide(1.0, inv2, inv2)
    for a, b in sum_pairs:
        b += a
    shifts *= 3 * m
    np.add(shifts, columns3, index)
    sums.take(index, None, shift, "clip")  # sums[shifts[j], :, j] for each j
    series[0, 0], series[0, 1] = inv_z, inv2
    np.divide(inv2, z, series[0, 2])
    inv2_rows = sums[1]  # sums is read; multiplying by a (3, m) block beats broadcasting
    inv2_rows[...] = inv2
    for a, b in series_pairs:
        np.multiply(a, inv2_rows, b)
    series *= _SIGNED_COEFFS
    lg, dg, tg = out
    np.subtract(z, 0.5, lg)
    lg *= log_z
    lg -= z
    lg += _HALF_LOG_2PI
    np.divide(0.5, z, dg)
    np.subtract(log_z, dg, dg)
    np.multiply(0.5, inv2, tg)
    tg += inv_z
    out += np.add.reduce(series, 0, None, sums[0])  # adds row by row, in order
    out -= shift


def ln_gamma(x):
    """Natural log of the gamma function for x > 0."""
    return _gamma_terms(x, "ln_gamma")[0]


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0."""
    return _gamma_terms(x, "digamma")[1]


def trigamma(x):
    """Second derivative of ln Gamma for x > 0 (not part of the public
    surface)."""
    return _gamma_terms(x, "trigamma")[2]
