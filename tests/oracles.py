"""Independent evaluation paths that the tests use as oracles.

Nothing in the package calls these; they restate a quantity in another
form so that the package's own kernels can be checked against them.
"""

import numpy as np

from evidential import specfun
from evidential.losses import EvidentialOutput
from evidential.ndcore import as_matrix


def edl_base_loss_phat_form(out: EvidentialOutput, y) -> float:
    """`losses.edl_base_loss` written in terms of p_hat and strength only.

    An independent evaluation path for cross-checking against
    edl_base_loss; returns the batch mean only.
    """
    y = as_matrix(y)
    p = out.p_hat
    s = out.strength[:, None]
    per_sample = np.sum((y - p) ** 2 + p * (1.0 - p) / (s + 1.0), axis=1)
    return float(per_sample.mean())


# Each function's series coefficients, read from the kernel's one table.
LNGAMMA_SERIES = tuple(specfun._SERIES_COEFFS[:, 0, 0])
DIGAMMA_SERIES = tuple(specfun._SERIES_COEFFS[:7, 1, 0])
TRIGAMMA_SERIES = tuple(specfun._SERIES_COEFFS[:7, 2, 0])


def _series(coeffs, term: np.ndarray, inv2: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] * term * inv2**n, accumulated in order."""
    total = np.zeros_like(term)
    for c in coeffs:
        total += c * term
        term = term * inv2
    return total


def gamma_terms_loop(x):
    """`specfun._gamma_terms` in its loop form: a masked ten-step upward
    recurrence, then one series loop per function.

    The stacked kernel must match it bit for bit. Scalar in, scalars out.
    """
    arr = np.asarray(x, dtype=np.float64)
    z = np.atleast_1d(arr)
    lg_shift = np.zeros_like(z)
    dg_shift = np.zeros_like(z)
    tg_shift = np.zeros_like(z)
    for _ in range(10):
        mask = z < specfun._SHIFT_THRESHOLD
        if not mask.any():
            break
        lg_shift = np.where(mask, lg_shift + np.log(z), lg_shift)
        dg_shift = np.where(mask, dg_shift + 1.0 / z, dg_shift)
        tg_shift = np.where(mask, tg_shift + 1.0 / (z * z), tg_shift)
        z = np.where(mask, z + 1.0, z)
    log_z = np.log(z)
    inv2 = 1.0 / (z * z)
    lg_series = _series(LNGAMMA_SERIES, 1.0 / z, inv2)
    lg = (z - 0.5) * log_z - z + specfun._HALF_LOG_2PI + lg_series - lg_shift
    dg = log_z - 0.5 / z - _series(DIGAMMA_SERIES, inv2, inv2) - dg_shift
    tg = (1.0 / z + 0.5 * inv2 + _series(TRIGAMMA_SERIES, inv2 / z, inv2)
          + tg_shift)
    if arr.ndim == 0:
        return float(lg[0]), float(dg[0]), float(tg[0])
    return lg, dg, tg
