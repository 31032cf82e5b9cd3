"""Per-sample interpolation coefficients learned by a one-step meta gradient.

The step: mix the batch under the current policy, simulate one plain
gradient-descent update of the model on that mixed loss, evaluate a clean
validation batch at the simulated weights, and differentiate the validation
loss all the way back to the policy logits. The real model then trains on
the batch re-mixed under the updated coefficients.

Training runs in numpy and builds no engine graph. A step's groups (labeled
rows, and pseudo rows in SSL) stack into one batch whose rows carry their
group's weight. The hypergradient is exact: an inner gradient, a validation
gradient at the simulated weights (each one forward and one reverse pass
per row chunk of ``nets.loss_and_gradients``), and a pass that carries a
parameter tangent and a lambda tangent along each inner chunk's tape
(:func:`hypergradient`); the real update is one more ``loss_and_gradients``
call. So a step holds the inner chunks' tapes plus one chunk of the pass
at work, never a whole batch's activations (``nets.inference_chunks``
gives the chunks). Training never
differentiates the mix: each coefficient vector mixes the stacked batch
once, in numpy, for the meta loss, that pass and the real update.
:func:`simulated_step_losses` keeps the engine's double backward (through
``mixing.mix_batch`` and ``create_graph``) as the reference that the tests
and ``gradcheck`` compare against and difference.

One step function (:func:`train_step`) runs every mode, with or without a
group of pseudo-labeled rows, and one epoch loop drives every run: the
supervised trainer here and the semi-supervised one in ``semi``, which adds
only its per-epoch relabel pass.
"""

from __future__ import annotations

import time
from itertools import accumulate
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from . import engine as eng
from . import mixing, nets
from .data import AUGMENT_MODES, DataError, Splits, augment_batch, check_settings, setting
from .engine import NonFiniteError, Tensor
from .mixing import InterpolationPolicy
from .nets import Architecture, ModelState, OptimizerConfig
from .reporting import EpochRecord, lambda_histogram

MODES = ("metamixup", "mixup-beta", "mixup-fixed", "baseline")


@dataclass
class TrainConfig:
    epochs: int = setting(10, "[1, inf)")
    batch_size: int = setting(64, "[2, inf)")       # training and validation rows per step
    policy_step_size: float = setting(5.0, "[0, inf)")   # step on the logits; 0: plain mixup
    mode: str = setting("metamixup", MODES)
    beta_alpha: float = setting(1.0, "(0, inf)")    # mixup-beta shared draw
    fixed_lambda: float = setting(0.5, "[0, 1]")    # mixup-fixed coefficient
    unsup_weight: float = setting(1.0, "[0, inf)")  # weight on the pseudo-label loss term
    augment: str = setting("none", AUGMENT_MODES)
    seed: int = setting(0, "[0, inf)")
    arch: Architecture | None = None     # None -> small tanh MLP sized from data
    optimizer: OptimizerConfig = dc_field(default_factory=OptimizerConfig)
    # pseudo-label thresholding (used by the semi-supervised trainer)
    sigma0: float = setting(0.95, "(0, 1]")
    sigma_decrement: float = setting(0.05, "[0, inf)")   # 0 freezes the threshold at sigma0
    sigma_period: int = setting(30, "[1, inf)")
    sigma_floor: float = setting(0.5, "(0, 1]")

    def __post_init__(self):
        check_settings(self)
        if self.sigma_floor > self.sigma0:
            raise ValueError(f"sigma_floor {self.sigma_floor} exceeds sigma0 {self.sigma0}")

    def threshold_at(self, epoch: int) -> float:
        """The pseudo-label threshold, stepped down every sigma_period epochs."""
        return max(self.sigma_floor,
                   self.sigma0 - self.sigma_decrement * (epoch // self.sigma_period))


@dataclass
class StepStats:
    train_loss: float
    meta_loss: float
    val_loss: float
    hypergrad_norm: float
    lambda_values: np.ndarray
    accepted: int                  # pseudo rows in the step

    def __post_init__(self):
        for name in ("train_loss", "meta_loss", "val_loss", "hypergrad_norm"):
            if not np.isfinite(getattr(self, name)):
                raise NonFiniteError(f"StepStats.{name} is not finite")


@dataclass
class MetaGradResult:
    grad: np.ndarray   # d L_val / d logits
    meta_loss: float
    val_loss: float


@dataclass
class TrainingReport:
    records: list[EpochRecord]
    final_test_error: float
    model: ModelState


# a group is (inputs, one-hot labels, permutation, loss weight)
Group = tuple[np.ndarray, np.ndarray, np.ndarray, float]


def _stack(groups: Sequence[Group], length: int):
    """A step's groups as one batch (x, y, perm, segments) for ``length``
    coefficients: rows concatenated, each permutation shifted onto its
    group's rows (a block permutation), one ``(rows, weight)`` per group."""
    xs, ys, perms, weights = zip(*groups)
    bounds = [0, *accumulate(map(len, xs))]
    if length != bounds[-1]:
        raise eng.ShapeError(f"policy length {length} vs group total {bounds[-1]}")
    return (np.concatenate(xs), np.concatenate(ys),
            np.concatenate([perm + lo for perm, lo in zip(perms, bounds)]),
            [(slice(lo, hi), w) for lo, hi, w in zip(bounds, bounds[1:], weights)])


def _mix(x, y, perm, lam: np.ndarray):
    """Rows and labels mixed under ``lam`` with their partners, in numpy. The
    rounding is ``mixing.mix_batch``'s, bit for bit."""
    lam_x, lam_y = lam.reshape((len(x),) + (1,) * (x.ndim - 1)), lam[:, None]
    return lam_x * x + (1.0 - lam_x) * x[perm], lam_y * y + (1.0 - lam_y) * y[perm]


def _mixed_loss(model: ModelState, x, y, segments) -> Tensor:
    """Sum over segments of (weight * mean cross-entropy) on mixed rows, as
    an engine graph from one forward: the double backward differentiates
    it, and it is the reference for ``nets.loss_and_gradients``."""
    logits = nets.forward(model, x)
    index = np.arange(logits.shape[0])
    total = None
    for rows, weight in segments:
        loss = nets.cross_entropy(eng.gather_rows(logits, index[rows]),
                                  eng.gather_rows(y, index[rows]))
        if weight != 1.0:
            loss = eng.scale(loss, weight)
        total = loss if total is None else eng.add(total, loss)
    return total


def simulated_step_losses(model: ModelState, groups: Sequence[Group],
                          policy: InterpolationPolicy, val_batch,
                          eta: float) -> tuple[Tensor, Tensor]:
    """(L_meta(lambda), L_val(theta - eta * grad L_meta(lambda))) on a throwaway
    clone, with the mix and the inner gradient recorded so that L_val
    differentiates back to the policy logits: the double-backward reference
    for :func:`hypergradient`.

    The passed model is never touched: the inner update runs on cloned
    parameter leaves with no momentum (plain gradient descent).
    """
    clone = nets.clone_for_meta(model)
    names, params = list(clone.params), list(clone.params.values())
    x, y, perm, segments = _stack(groups, len(policy))
    mixed = mixing.mix_batch(x, y, perm, policy)
    meta_loss = _mixed_loss(clone, mixed.inputs, mixed.labels, segments)
    grads = eng.backward(meta_loss, params, create_graph=True)
    simulated = {n: eng.sub(p, eng.scale(g, eta))
                 for n, p, g in zip(names, params, grads)}
    val_loss = nets.cross_entropy(nets.forward(clone, val_batch[0], params=simulated),
                                  val_batch[1])
    return meta_loss, val_loss


def _cross_entropy_mixed_derivative(a, a_e, a_l, a_el, y, dy) -> np.ndarray:
    """Per row, d2/(deps dlambda) of -sum_c y_c(lambda) log_softmax(a)_c from
    the logits' parts (value, eps, lambda, eps-lambda) and the labels and
    their lambda derivative. The Hessian of logsumexp is diag(p) - p p^T."""
    e = np.exp(a - a.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p_e, p_l = (p * a_e).sum(axis=1), (p * a_l).sum(axis=1)
    lse_el = (p * (a_el + a_e * a_l)).sum(axis=1) - p_e * p_l
    return -((dy * (a_e - p_e[:, None])).sum(axis=1) + (y * a_el).sum(axis=1)
             - y.sum(axis=1) * lse_el)


def hypergradient(model: ModelState, groups: Sequence[Group],
                  policy: InterpolationPolicy, val_batch, eta: float,
                  mode: str = "exact") -> MetaGradResult:
    """d L_val(theta - eta * grad L_meta(lambda)) / d logits, exactly.

    With theta' = theta - eta * grad L_meta(theta, lambda) and
    v = grad L_val(theta'), the chain rule gives

        dL_val/dlambda = -eta d/dlambda <grad L_meta(theta, lambda), v>
                       = -eta d2/(deps dlambda) L_meta(theta + eps v, lambda).

    Row i's mixed loss depends on lambda_i alone, so a pass that carries an
    eps and a lambda tangent (``nets.forward_tangents``) yields every
    d2 l_i / (deps dlambda_i). Two numpy gradients from
    ``nets.loss_and_gradients`` (the inner gradient, then L_val and v) and
    that pass replace a double backward, and no engine graph is built. The
    groups stack into one batch, and the pass runs along each inner chunk's
    tape, reusing its logits and activation derivatives, and drops the tape
    after it. The model is not touched; :func:`simulated_step_losses` is
    the double-backward reference.

    ``mode`` accepts only "exact"; it remains for callers that still name it.
    """
    if mode != "exact":
        raise ValueError(f"hypergradient mode '{mode}' is not 'exact'")
    lam = policy.lambda_values()
    x, y, perm, segments = _stack(groups, len(lam))
    x_mix, y_mix = _mix(x, y, perm, lam)
    tapes = []
    meta_loss, inner, logits = nets.loss_and_gradients(
        model, (x_mix, y_mix, segments), tapes=tapes)
    simulated = {n: p.data - eta * inner[n] for n, p in model.params.items()}
    val_loss, v = nets.loss_and_gradients(model, (*val_batch, None), simulated)[:2]

    # a mixed row moves with its lambda by x - x[perm] and its label by
    # y - y[perm]; row i of a group of n rows and weight w scales by -eta w / n
    dx, dy = x - x[perm], y - y[perm]
    mixed = np.empty(len(lam))
    while tapes:   # each chunk's tape goes once its tangents are taken
        rows, tape = tapes.pop()
        tangents = nets.forward_tangents(tape, dx[rows], v)
        mixed[rows] = _cross_entropy_mixed_derivative(logits[rows], *tangents,
                                                      y_mix[rows], dy[rows])
    scale = np.concatenate([np.full_like(lam[rows], -eta * weight / len(lam[rows]))
                            for rows, weight in segments])
    grad = scale * mixed * lam * (1.0 - lam)   # dlambda/dz = lambda (1 - lambda)
    if not np.isfinite(grad).all():
        raise NonFiniteError("hypergradient is not finite")
    return MetaGradResult(grad, meta_loss, val_loss)


def update_policy(policy: InterpolationPolicy, grad,
                  step_size: float) -> InterpolationPolicy:
    """One gradient-descent step on the logits; returns a fresh leaf policy."""
    if step_size < 0:
        raise ValueError(f"update_policy: step_size must be >= 0, got {step_size}")
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != policy.logits.shape:
        raise eng.ShapeError(f"update_policy: grad shape {g.shape} vs "
                             f"logits {policy.logits.shape}")
    return InterpolationPolicy(Tensor(policy.logits.data - step_size * g,
                                      requires_grad=True))


def train_step(model: ModelState, batch, val_batch, config: TrainConfig,
               rng: np.random.Generator, lr: float | None = None,
               pseudo_batch=None) -> StepStats:
    """One training step of any mode over a labeled batch plus an optional
    pseudo-labeled group.

    The coefficients cover labeled rows then pseudo rows; each group mixes
    within itself and the loss is L_labeled + unsup_weight * L_pseudo.
    metamixup learns the coefficients (one hypergradient step on the policy
    logits against the validation batch), mixup-beta shares one Beta draw,
    mixup-fixed uses fixed_lambda, and the baseline is lambda = 1 on the
    identity pairing (mixing with anything is the identity).

    Randomness drawn, in order: labeled pairing, pseudo pairing (only when the
    pseudo group is non-empty), then the policy or the Beta draw; the baseline
    draws nothing. The non-meta modes measure the validation loss after the
    update (0.0 without a validation batch).
    """
    step_lr = config.optimizer.learning_rate if lr is None else lr
    members = [(batch, 1.0)]
    if pseudo_batch is not None and len(pseudo_batch[0]):
        members.append((pseudo_batch, config.unsup_weight))
    groups = [(x, y, np.arange(len(x)) if config.mode == "baseline"
               else mixing.sample_pairing(len(x), rng), weight)
              for (x, y), weight in members]
    n = sum(len(g[0]) for g in groups)

    meta_loss = val_loss = hyper_norm = 0.0
    if config.mode == "metamixup":
        policy = mixing.init_policy(n, rng)
        res = hypergradient(model, groups, policy, val_batch, step_lr)
        lam = update_policy(policy, res.grad, config.policy_step_size).lambda_values()
        meta_loss, val_loss = res.meta_loss, res.val_loss
        hyper_norm = float(np.linalg.norm(res.grad))
    elif config.mode == "mixup-beta":
        lam = np.full(n, mixing.beta_sample(config.beta_alpha, rng))
    elif config.mode == "mixup-fixed":
        lam = np.full(n, config.fixed_lambda)
    else:
        lam = np.ones(n)

    x, y, perm, segments = _stack(groups, len(lam))
    loss, grads = nets.loss_and_gradients(model, (*_mix(x, y, perm, lam), segments))[:2]
    nets.sgd_step(model, grads, config.optimizer, step_lr)
    if config.mode != "metamixup" and val_batch is not None:
        val_loss = nets.batch_loss(model, (*val_batch, None))
    return StepStats(train_loss=loss, meta_loss=meta_loss, val_loss=val_loss,
                     hypergrad_norm=hyper_norm, lambda_values=lam,
                     accepted=n - len(batch[0]))


def shape_for(arch: Architecture, x: np.ndarray) -> np.ndarray:
    """Give [n, h, w] image batches the trailing channel axis conv nets
    expect, and flatten image rows for a net that takes vectors."""
    if len(arch.input_shape) == 3 and x.ndim == 3:
        return x[..., None]
    if len(arch.input_shape) == 1 and x.ndim > 2:
        return x.reshape(len(x), -1)
    return x


def default_arch(dataset) -> Architecture:
    in_dim = int(np.prod(dataset.inputs.shape[1:]))
    return nets.mlp(in_dim, [32], dataset.n_classes)


def sample_val_batch(meta_val, val_onehot: np.ndarray, m: int,
                     arch: Architecture, rng: np.random.Generator):
    idx = rng.choice(len(meta_val), size=min(m, len(meta_val)), replace=False)
    return shape_for(arch, meta_val.inputs[idx]), val_onehot[idx]


def train_supervised(splits: Splits, config: TrainConfig) -> TrainingReport:
    """Full supervised run; metrics are per epoch."""
    return _fit(splits, config)


def check_run(splits: Splits, config: TrainConfig) -> Architecture:
    """The net a run of ``config`` on ``splits`` builds, once the checks that
    reject the pair before anything is built have passed: a batch larger
    than the training rows or an empty meta-validation split, from which
    every step draws (ValueError), meta-validation or test rows of
    another shape than the training rows (DataError), an arch whose classes
    or input shape do not match the data (ShapeError)."""
    train = splits.train
    if config.batch_size > len(train):
        raise ValueError(f"batch_size {config.batch_size} exceeds the {len(train)} "
                         "training rows, so no step would run")
    if not len(splits.meta_val):
        raise ValueError("the meta_val split holds no rows to draw validation batches from")
    for name in ("meta_val", "test"):
        other = getattr(splits, name)
        if len(other) and other.inputs.shape[1:] != train.inputs.shape[1:]:
            raise DataError(f"{name} rows of {other.provenance} have shape "
                            f"{other.inputs.shape[1:]}, the training rows "
                            f"{train.inputs.shape[1:]}")
    arch = config.arch if config.arch is not None else default_arch(train)
    if arch.n_classes != train.n_classes:
        raise eng.ShapeError(f"arch has {arch.n_classes} classes, "
                             f"the training data {train.n_classes}")
    row_shape = shape_for(arch, train.inputs).shape[1:]
    if arch.input_shape != row_shape:
        raise eng.ShapeError(f"arch input shape {arch.input_shape} does not match "
                             f"the training rows' shape {row_shape}")
    return arch


def _fit(splits: Splits, config: TrainConfig, relabel=None) -> TrainingReport:
    """The epoch loop of every run, supervised and semi-supervised.

    Each epoch first calls ``relabel(model, epoch)`` (when given), which
    returns the accepted pseudo-labeled inputs (rows as the dataset stores
    them), their one-hot labels, the threshold and the pseudo-label accuracy;
    every step then takes min(batch_size, accepted) of those rows, cycling
    through a per-epoch shuffle. Labeled and pseudo rows are augmented as
    stored and only then shaped for the net, so image rows are flipped and
    shifted before an MLP flattens them. Per epoch the RNG draws the labeled
    order, then the accepted order (only when rows were accepted); per step:
    validation indices, labeled augmentation, pseudo augmentation, then the
    draws of :func:`train_step`. An epoch's record averages its steps' losses
    and reads its lambda statistics from every coefficient the epoch drew.
    """
    train, meta_val, test = splits.train, splits.meta_val, splits.test
    arch = check_run(splits, config)
    classes = train.n_classes
    rng = np.random.default_rng(config.seed)
    model = nets.build_model(arch, rng)
    y_onehot = nets.one_hot(train.labels, classes)
    val_onehot = nets.one_hot(meta_val.labels, classes)
    test_x = shape_for(arch, test.inputs) if len(test) else None

    records: list[EpochRecord] = []
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        lr = config.optimizer.lr_at(epoch)
        accepted, threshold, pseudo_accuracy = 0, -1.0, -1.0
        if relabel is not None:
            pool_x, pool_y, threshold, pseudo_accuracy = relabel(model, epoch)
            accepted = len(pool_x)

        order = rng.permutation(len(train))
        if accepted:
            pseudo_order = rng.permutation(accepted)
            take = min(config.batch_size, accepted)

        stats: list[StepStats] = []
        for s in range(len(train) // config.batch_size):
            idx = order[s * config.batch_size:(s + 1) * config.batch_size]
            val_batch = sample_val_batch(meta_val, val_onehot, config.batch_size,
                                         arch, rng)
            bx = shape_for(arch, augment_batch(train.inputs[idx], config.augment, rng))
            pseudo = None
            if accepted:
                u_idx = pseudo_order[(s * take + np.arange(take)) % accepted]
                pseudo = (shape_for(arch, augment_batch(pool_x[u_idx], config.augment, rng)),
                          pool_y[u_idx])
            stats.append(train_step(model, (bx, y_onehot[idx]), val_batch,
                                    config, rng, lr, pseudo))
        lam = np.concatenate([s.lambda_values for s in stats])
        records.append(EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean([s.train_loss for s in stats])),
            meta_loss=float(np.mean([s.meta_loss for s in stats])),
            val_loss=float(np.mean([s.val_loss for s in stats])),
            test_error=nets.error_rate(model, test_x, test.labels) if len(test) else -1.0,
            lambda_mean=float(lam.mean()), lambda_std=float(lam.std()),
            lambda_hist=lambda_histogram(lam), threshold=threshold,
            accepted_count=accepted, pseudo_accuracy=pseudo_accuracy,
            wall_seconds=time.perf_counter() - t0))
    return TrainingReport(records=records, final_test_error=records[-1].test_error,
                          model=model)
