"""Independent evaluation paths that the tests use as oracles.

Nothing in the package calls these; they restate a quantity in another
form so that the package's own kernels can be checked against them.
"""

import numpy as np

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
