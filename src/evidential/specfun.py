"""Log-gamma, digamma and trigamma on positive reals.

Strategy: upward recurrence shifts the argument to x >= 10, then a
Stirling-type asymptotic series finishes the job. Accepts scalars or
numpy arrays; scalar in, scalar out.
"""

from __future__ import annotations

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


def _gamma_terms(x, name: str = "gamma_terms"):
    """(ln Gamma, digamma, trigamma) of x > 0. Scalar in, scalars out."""
    arr = np.asarray(x, dtype=np.float64)
    out = _gamma_rows(arr.reshape(-1), name)
    if arr.ndim == 0:
        return tuple(float(v) for v in out[:, 0])
    return tuple(out.reshape(3, *arr.shape))


def _gamma_rows(flat: np.ndarray, name: str = "gamma_terms") -> np.ndarray:
    """The (3, n) rows ln Gamma, digamma and trigamma of the 1-D float64
    `flat` > 0, worked out _PASS values at a time, which bounds the
    temporaries of a pass."""
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
    steps = np.empty((11, m))
    steps[0] = x
    row = steps[0]
    for later in steps[1:]:  # each row is viewed once: a step feeds the next
        row = np.add(row, 1.0, later)
    terms = steps[:-1]
    shifts = np.add.reduce(terms < _SHIFT_THRESHOLD, 0, np.intp)
    columns = np.arange(3 * m).reshape(3, m)
    z = steps.take(shifts * m + columns[0])  # steps[shifts[j], j] for each j
    sums = np.empty((11, 3, m))
    sums[0] = 0.0
    np.log(terms, sums[1:, 0])
    np.divide(1.0, terms, sums[1:, 1])
    np.multiply(terms, terms, sums[1:, 2])
    np.divide(-1.0, sums[1:, 2], sums[1:, 2])
    row = sums[1]
    for later in sums[2:]:
        row = np.add(row, later, later)
    shift = sums.take(shifts * (3 * m) + columns)  # sums[shifts[j], :, j] for each j
    log_z, inv_z = np.log(z), 1.0 / z
    inv2 = np.array((1.0 / (z * z),) * 3)  # a (3, m) block multiplies faster than a row
    # sums has been read, so its rows take the series; with a block of their own,
    # repeated full passes faulted their pages back in each time
    series = sums[:8]
    series[0] = inv_z, inv2[0], inv2[0] / z
    row = series[0]
    for later in series[1:]:
        row = np.multiply(row, inv2, later)
    series *= _SIGNED_COEFFS
    out[0] = (z - 0.5) * log_z - z + _HALF_LOG_2PI
    out[1] = log_z - 0.5 / z
    out[2] = 0.5 * inv2[0] + inv_z
    out += np.add.reduce(series, 0)  # adds row by row, in order
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
