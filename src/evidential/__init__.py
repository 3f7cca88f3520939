"""Evidential classification with a two-stage training scheme.

A small, dependency-light toolkit: dense networks with hand-rolled
reverse-mode gradients, Dirichlet-evidence losses, a deterministic
training harness, synthetic data generators, and ranking metrics.
"""

from .ndcore import (
    Layer,
    Network,
    NumericError,
    forward,
    backward,
    init_network,
    swap_head,
)
from .losses import (
    EvidentialOutput,
    LossValue,
    evidence_to_alpha,
    edl_base_loss,
    make_alpha_tilde,
    kl_to_uniform,
    edl_total_loss,
    lambda_schedule,
    cross_entropy_loss,
)
from .specfun import ln_gamma, digamma
from .train import TrainPlan, EpochRecord, OptimizerState, RunResult, step, train_stage1, train_stage2, run_plan
from .data import Dataset, SplitSpec, gen_blobs, gen_ood_ring, load_csv, save_csv, split
from .metrics import EvalReport, roc_auc, auc_vs_uncertainty, uncertainty_histogram, evaluate

__version__ = "0.1.0"
