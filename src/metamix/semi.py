"""Semi-supervised training: pseudo labels, a decaying confidence threshold,
and one interpolation policy shared across the labeled and pseudo batches.

Each epoch the unlabeled pool is relabeled by the current model; samples whose
max softmax probability clears the threshold join training with hard one-hot
labels. The threshold starts high and steps down every ``sigma_period`` epochs
so early epochs only admit easy samples (``TrainConfig.threshold_at``). This
module holds only that relabel pass: the accepted rows ride along as a second
group of ``meta.train_step`` inside the shared epoch loop. Both groups are
mixed within themselves; the meta loss is the labeled mean plus
``unsup_weight`` times the pseudo mean over one stacked batch (one pass per
loss), and the hypergradient is taken w.r.t. the full logit vector at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import meta, nets
from .data import Dataset, Splits
from .meta import TrainConfig, TrainingReport
from .nets import ModelState


@dataclass
class PseudoBatch:
    """Accepted slice of an unlabeled pool."""

    inputs: np.ndarray        # accepted inputs only
    labels: np.ndarray        # hard one-hot rows, argmax of the model
    confidences: np.ndarray   # max softmax probability, full pool
    indices: np.ndarray       # positions of accepted rows in the pool

    def __len__(self) -> int:
        return len(self.indices)


def assign_pseudo_labels(model: ModelState, inputs, sigma_t: float) -> PseudoBatch:
    """Label a pool with the model's argmax class (ties resolve to the lowest
    class index); accept rows whose confidence strictly exceeds sigma_t."""
    if not 0.0 < sigma_t <= 1.0:
        raise ValueError(f"sigma_t must be in (0, 1], got {sigma_t}")
    x = meta.shape_for(model.arch, np.asarray(inputs, dtype=np.float64))
    logits = nets.batched_logits(model, x)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    conf = probs.max(axis=1)
    idx = np.flatnonzero(conf > sigma_t)
    labels = nets.one_hot(probs.argmax(axis=1)[idx], model.arch.n_classes)
    return PseudoBatch(inputs=x[idx], labels=labels, confidences=conf, indices=idx)


def train_ssl(labeled: Splits, unlabeled: Dataset,
              config: TrainConfig, on_epoch=None) -> TrainingReport:
    """Pseudo-label training over a labeled Splits bundle plus an unlabeled pool.

    The meta-validation set comes from the labeled pool (labeled.meta_val).
    Both run the same epoch loop; this one only adds the relabel pass, so an
    empty unlabeled pool is train_supervised itself (threshold reads -1.0,
    meaning no thresholding happened).
    """
    def relabel(model: ModelState, epoch: int):
        sigma_t = config.threshold_at(epoch)
        pool = assign_pseudo_labels(model, unlabeled.inputs, sigma_t)
        pseudo_accuracy = -1.0
        if len(pool) and unlabeled.true_labels is not None:
            hits = pool.labels.argmax(axis=1) == unlabeled.true_labels[pool.indices]
            pseudo_accuracy = float(np.mean(hits))
        # rows as stored, so the epoch loop augments images before it
        # reshapes them for the net
        return unlabeled.inputs[pool.indices], pool.labels, sigma_t, pseudo_accuracy

    return meta._fit(labeled, config, relabel if len(unlabeled) else None, on_epoch)
