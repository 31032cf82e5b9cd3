"""Per-sample convex interpolation of batches.

The interpolation coefficients live as logits, lambda = sigmoid(z), so a
gradient step on z can never push lambda out of (0, 1). :func:`mix_batch` is
built from engine primitives and stays differentiable w.r.t. the policy; only
the double-backward oracle needs that, so training mixes in numpy instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine as eng
from .engine import ShapeError, Tensor

# keeps sigmoid(z) away from exactly 0/1 at init; z stays finite
LAMBDA_INIT_LOW = 1e-3
LAMBDA_INIT_HIGH = 1.0 - 1e-3


@dataclass
class InterpolationPolicy:
    """One logit per batch position."""

    logits: Tensor

    def __post_init__(self):
        if self.logits.ndim != 1:
            raise ShapeError(f"policy logits must be 1-d, got shape {self.logits.shape}")

    def __len__(self) -> int:
        return self.logits.shape[0]

    def lambdas(self) -> Tensor:
        """Differentiable lambda vector (a fresh graph node per call)."""
        return eng.sigmoid(self.logits)

    def lambda_values(self) -> np.ndarray:
        return eng._sigmoid_values(self.logits.data)


def init_policy(batch_size: int, rng: np.random.Generator) -> InterpolationPolicy:
    """lambda ~ U(1e-3, 1 - 1e-3) mapped to logits."""
    if batch_size < 1:
        raise ValueError(f"init_policy: batch_size must be >= 1, got {batch_size}")
    lam = rng.uniform(LAMBDA_INIT_LOW, LAMBDA_INIT_HIGH, size=batch_size)
    z = np.log(lam / (1.0 - lam))
    return InterpolationPolicy(Tensor(z, requires_grad=True))


def sample_pairing(batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform permutation pairing each row i with row perm[i]."""
    if batch_size < 1:
        raise ValueError(f"sample_pairing: batch_size must be >= 1, got {batch_size}")
    return rng.permutation(batch_size)


def beta_sample(alpha: float, rng: np.random.Generator) -> float:
    """One shared Beta(alpha, alpha) coefficient, the vanilla-MixUp draw."""
    if alpha <= 0:
        raise ValueError(f"beta_sample: alpha must be positive, got {alpha}")
    return float(rng.beta(alpha, alpha))


@dataclass
class MixedBatch:
    inputs: Tensor
    labels: Tensor


def _as_lambda_vector(lam, batch: int) -> Tensor:
    if isinstance(lam, InterpolationPolicy):
        if len(lam) != batch:
            raise ShapeError(f"mix_batch: policy length {len(lam)} vs batch {batch}")
        return lam.lambdas()
    if isinstance(lam, Tensor):
        vec = lam
    else:
        arr = np.asarray(lam, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(batch, float(arr))
        vec = Tensor(arr)
    if vec.shape != (batch,):
        raise ShapeError(f"mix_batch: lambda shape {vec.shape} vs batch {batch}")
    return vec


def mix_batch(inputs, labels, permutation: np.ndarray, lam) -> MixedBatch:
    """x~ = lam*x + (1-lam)*x[perm], same for labels.

    ``lam`` may be an InterpolationPolicy (differentiable), a Tensor, a plain
    vector, or a scalar shared across the batch. lambda = 1 reproduces the
    batch exactly; lambda = 0 reproduces the permuted batch exactly.
    """
    x = eng.as_tensor(inputs)
    y = eng.as_tensor(labels)
    batch = x.shape[0]
    if y.shape[0] != batch:
        raise ShapeError(f"mix_batch: {batch} inputs vs {y.shape[0]} label rows")
    perm = np.asarray(permutation, dtype=np.intp)
    if perm.shape != (batch,) or not np.array_equal(np.sort(perm), np.arange(batch)):
        raise ShapeError("mix_batch: permutation must be a bijection on the batch")

    lam_vec = _as_lambda_vector(lam, batch)
    lam_x = eng.reshape(lam_vec, (batch,) + (1,) * (x.ndim - 1))
    lam_y = eng.reshape(lam_vec, (batch,) + (1,) * (y.ndim - 1))

    mixed_x = eng.add(eng.mul(lam_x, x), eng.mul(eng.add_scalar(eng.neg(lam_x), 1.0),
                                                 eng.gather_rows(x, perm)))
    mixed_y = eng.add(eng.mul(lam_y, y), eng.mul(eng.add_scalar(eng.neg(lam_y), 1.0),
                                                 eng.gather_rows(y, perm)))
    return MixedBatch(inputs=mixed_x, labels=mixed_y)
