"""Log-gamma, digamma and trigamma on positive reals.

Strategy: upward recurrence shifts the argument to x >= 10, then a
Stirling-type asymptotic series finishes the job. Accepts scalars or
numpy arrays; scalar in, scalar out.
"""

from __future__ import annotations

import numpy as np

_HALF_LOG_2PI = 0.9189385332046727417803297364056176

# Stirling series for ln Gamma: coefficients B_{2n} / (2n (2n-1)).
_LNGAMMA_SERIES = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# Asymptotic series for digamma: coefficients B_{2n} / (2n).
_DIGAMMA_SERIES = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# Asymptotic series for trigamma: Bernoulli numbers B_{2n}.
_TRIGAMMA_SERIES = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_SHIFT_THRESHOLD = 10.0


def _series(coeffs, term: np.ndarray, inv2: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] * term * inv2**n, accumulated in order."""
    total = np.zeros_like(term)
    for c in coeffs:
        total += c * term
        term = term * inv2
    return total


def _gamma_terms(x, name: str = "gamma_terms"):
    """(ln Gamma, digamma, trigamma) of x > 0 from one shifted argument.

    The three shift sums share one upward recurrence; each then adds its
    asymptotic series at the shifted argument. Scalar in, scalars out.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise ValueError(f"{name} requires finite x > 0")
    z = np.atleast_1d(arr)
    lg_shift = np.zeros_like(z)
    dg_shift = np.zeros_like(z)
    tg_shift = np.zeros_like(z)
    # After ten unit shifts any positive argument exceeds the threshold.
    for _ in range(10):
        mask = z < _SHIFT_THRESHOLD
        if not mask.any():
            break
        lg_shift = np.where(mask, lg_shift + np.log(z), lg_shift)
        dg_shift = np.where(mask, dg_shift + 1.0 / z, dg_shift)
        tg_shift = np.where(mask, tg_shift + 1.0 / (z * z), tg_shift)
        z = np.where(mask, z + 1.0, z)
    log_z = np.log(z)
    inv2 = 1.0 / (z * z)
    lg_series = _series(_LNGAMMA_SERIES, 1.0 / z, inv2)
    lg = (z - 0.5) * log_z - z + _HALF_LOG_2PI + lg_series - lg_shift
    dg = log_z - 0.5 / z - _series(_DIGAMMA_SERIES, inv2, inv2) - dg_shift
    tg = 1.0 / z + 0.5 * inv2 + _series(_TRIGAMMA_SERIES, inv2 / z, inv2) + tg_shift
    if arr.ndim == 0:
        return float(lg[0]), float(dg[0]), float(tg[0])
    return lg, dg, tg


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
