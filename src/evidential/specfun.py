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

_SHIFT_THRESHOLD = 10.0
_SHIFTS = 10  # after ten unit shifts any positive argument exceeds the threshold
# Values per pass: each pass's work arrays stay near 128 KiB, small enough
# for malloc to reuse them rather than map (and fault in) fresh pages.
_CHUNK = 512


def _gamma_terms(x, name: str = "gamma_terms"):
    """(ln Gamma, digamma, trigamma) of x > 0, worked out _CHUNK values at
    a time. Scalar in, scalars out."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not (arr.min() > 0.0 and arr.max() < np.inf):  # NaN fails both
        raise ValueError(f"{name} requires finite x > 0")
    flat, out = arr.reshape(-1), np.empty((3, arr.size))
    for i in range(0, arr.size, _CHUNK):
        _shift_and_series(flat[i:i + _CHUNK], out[:, i:i + _CHUNK])
    if arr.ndim == 0:
        return tuple(float(v) for v in out[:, 0])
    return tuple(out.reshape(3, *arr.shape))


def _shift_and_series(x: np.ndarray, out: np.ndarray) -> None:
    """Write ln Gamma, digamma and trigamma of the 1-D `x` into `out`'s rows.

    Row i of `steps` is x + i, the unit steps added one at a time; row i
    of `sums` holds the log, reciprocal and reciprocal square of the steps
    before it, summed. A value's first step at or above the threshold is
    its shifted argument z, after `shifts` steps; its shift sums are row
    `shifts` of `sums`, and the three series run at z as one (8, 3, m)
    block. Every sum adds its terms in order, never pairwise as `sum` may.
    """
    m = x.size
    steps = np.empty((_SHIFTS + 1, m))
    steps[0] = x
    for i in range(_SHIFTS):
        np.add(steps[i], 1.0, out=steps[i + 1])
    shifts = (steps[:-1] < _SHIFT_THRESHOLD).sum(axis=0)
    z = np.take(steps, shifts * m + np.arange(m))  # steps[shifts[j], j] for each j
    steps = steps[:-1]
    sums = np.empty((_SHIFTS + 1, 3, m))
    sums[0] = 0.0
    np.log(steps, out=sums[1:, 0])
    np.divide(1.0, steps, out=sums[1:, 1])
    log_z, inv_z = np.log(z), 1.0 / z
    # z*z leaves the float range below ~1e-154 and above ~1e154. 1/z^2 is then inf
    # where its true value overflows, or 0 where it is too small to change a result.
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(1.0, steps * steps, out=sums[1:, 2])
        inv2 = 1.0 / (z * z)
    for i in range(1, _SHIFTS):
        sums[i + 1] += sums[i]
    lg_shift, dg_shift, tg_shift = np.take(sums, shifts * (3 * m) + np.arange(3 * m).reshape(3, m))
    series = np.empty((len(_SERIES_COEFFS), 3, m))
    series[0, 0], series[0, 1] = inv_z, inv2
    np.divide(inv2, z, out=series[0, 2])
    for i in range(1, len(series)):
        np.multiply(series[i - 1], inv2, out=series[i])
    series *= _SERIES_COEFFS
    lg_series, dg_series, tg_series = series[0]
    for terms in series[1:]:
        series[0] += terms
    np.subtract((z - 0.5) * log_z - z + _HALF_LOG_2PI + lg_series, lg_shift, out=out[0])
    np.subtract(log_z - 0.5 / z - dg_series, dg_shift, out=out[1])
    np.add(inv_z + 0.5 * inv2 + tg_series, tg_shift, out=out[2])


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
