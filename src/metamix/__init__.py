"""Per-sample mixup coefficients learned through one-step meta-gradients,
plus a numerical auditor for the mixup-gap smoothness inequality."""

from . import data, engine, meta, mixing, nets, reporting, semi, smoothness
from .data import Dataset, Splits, SyntheticSpec, load_idx, make_synthetic, standard_splits
from .engine import Tensor, backward, grad_check, no_grad
from .meta import TrainConfig, hypergradient, train_step, train_supervised
from .mixing import InterpolationPolicy, init_policy, mix_batch, sample_pairing
from .nets import Architecture, ModelState, OptimizerConfig, build_model, forward
from .semi import assign_pseudo_labels, train_ssl
from .smoothness import QuadraticField, audit_gap_bound, estimate_kappa, mixup_gap

__version__ = "0.1.0"

__all__ = [
    "data", "engine", "meta", "mixing", "nets", "reporting", "semi",
    "smoothness",
    "Dataset", "Splits", "SyntheticSpec", "load_idx", "make_synthetic",
    "standard_splits",
    "Tensor", "backward", "grad_check", "no_grad",
    "TrainConfig", "hypergradient", "train_step", "train_supervised",
    "InterpolationPolicy", "init_policy", "mix_batch", "sample_pairing",
    "Architecture", "ModelState", "OptimizerConfig", "build_model", "forward",
    "assign_pseudo_labels", "train_ssl",
    "QuadraticField", "audit_gap_bound", "estimate_kappa", "mixup_gap",
]
