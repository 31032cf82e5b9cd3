"""The four benchmark workloads, built only from the public metamix API.

Each workload turns a seed into inputs (``setup``), runs one fixed unit of
work on them (``call``: a whole training run, or a kappa estimate plus a gap
audit), and checks that unit's outputs (``check``). The same seed gives the
same inputs, and every call on the same inputs does the same arithmetic, so
repeated calls in one run must agree bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from metamix import data, engine, meta, mixing, nets, semi, smoothness

# The hypergradient check uses the criterion-1 tolerance on the plain
# relative error. Criterion 1's unit floor in the denominator is left out:
# directional derivatives here are 1e-6 to 1e-3, and under the floor a
# hypergradient scaled by 1.1 still passes. On relu nets the validation
# loss has kinks, and a difference whose interval straddles one is off by up
# to the slope change whatever the step, so the check takes the best of the
# central and the two one-sided differences: a kink rarely sits on both
# sides. A step of 1e-6 keeps rounding error near 1e-5 of the derivative on
# cnn3 and truncation error below that.
HYPERGRAD_TOL = 1e-4
HYPERGRAD_STEP = 1e-6

# The two-Gaussian task of acceptance criteria 7 and 8: unequal spreads
# curve the optimal boundary.
SPEC_2G = data.SyntheticSpec(classes=2, per_class=250, dim=10,
                             separation=3.0, class_sigmas=(0.4, 1.6))


def _optimizer(horizon: int) -> nets.OptimizerConfig:
    return nets.OptimizerConfig(learning_rate=0.1, momentum=0.9,
                                weight_decay=1e-4, cosine_anneal=True,
                                horizon=horizon)


@dataclass
class Inputs:
    """What ``setup`` builds from a seed. The training calls rebuild the same
    initial model from the config seed; building it here puts its cost in
    set-up time."""
    seed: int
    splits: data.Splits | None = None
    unlabeled: data.Dataset | None = None
    config: meta.TrainConfig | None = None
    model: nets.ModelState | None = None
    pool: np.ndarray | None = None


@dataclass
class Outcome:
    """One call's work and results."""
    ops: int                  # training steps, or gap evaluations + kappa rows
    rows: int                 # input rows through the network
    fingerprint: tuple        # values every call on the same inputs repeats
    test_error: float = float("nan")
    model: nets.ModelState | None = None
    audit: dict = field(default_factory=dict)
    accept_ratio: float = 0.0
    pseudo_accuracy: float = 0.0


class Training:
    """A seeded metamixup training run through ``train_supervised`` or
    ``train_ssl``; ``error_ceiling`` bounds its final test error."""

    def __init__(self, name: str, error_ceiling: float):
        self.name = name
        self.error_ceiling = error_ceiling

    def _train(self, inputs: Inputs, config: meta.TrainConfig) -> meta.TrainingReport:
        return meta.train_supervised(inputs.splits, config)

    def call(self, inputs: Inputs, warmup: bool = False) -> Outcome:
        config = inputs.config
        if warmup:
            config = dataclasses.replace(config, epochs=1)
        report = self._train(inputs, config)
        steps_per_epoch = len(inputs.splits.train) // config.batch_size
        steps = steps_per_epoch * len(report.records)
        pseudo_rows = steps_per_epoch * sum(min(config.batch_size, r.accepted_count)
                                            for r in report.records)
        outcome = Outcome(
            ops=steps, rows=steps * config.batch_size + pseudo_rows,
            fingerprint=tuple(r.train_loss for r in report.records)
            + (report.final_test_error,),
            test_error=report.final_test_error, model=report.model)
        if inputs.unlabeled is not None and len(inputs.unlabeled):
            pool = len(inputs.unlabeled)
            accepted = sum(r.accepted_count for r in report.records)
            correct = sum(r.pseudo_accuracy * r.accepted_count
                          for r in report.records if r.accepted_count)
            outcome.accept_ratio = accepted / (pool * len(report.records))
            outcome.pseudo_accuracy = correct / accepted if accepted else 0.0
        return outcome

    def check(self, inputs: Inputs, outcome: Outcome) -> dict:
        err = outcome.test_error
        hyper_err = hypergradient_check(inputs, outcome.model)
        return {
            "test_error": (err, bool(np.isfinite(err) and err <= self.error_ceiling),
                           f"finite and <= {self.error_ceiling}"),
            "hypergradient_rel_err": (hyper_err, hyper_err <= HYPERGRAD_TOL,
                                      f"<= {HYPERGRAD_TOL}"),
        }


class SupMlp(Training):
    """Criterion 7: tanh MLP 10-32-2, batch 50, 20% corrupted labels,
    cosine schedule over 50 epochs."""

    def setup(self, seed: int) -> Inputs:
        splits = data.standard_splits(SPEC_2G, seed=seed, corrupt=0.2,
                                      meta_val_per_class=10, test_per_class=1000)
        config = meta.TrainConfig(mode="metamixup", epochs=50, batch_size=50,
                                  seed=seed, optimizer=_optimizer(50))
        arch = meta.default_arch(splits.train)
        model = nets.build_model(arch, np.random.default_rng(seed))
        return Inputs(seed, splits=splits, config=config, model=model)


class SslMlp(Training):
    """Criterion 8: 24 labeled rows per class, the rest an unlabeled pool,
    batch 8, threshold 0.7 stepped every 5 epochs, 60 epochs."""

    def setup(self, seed: int) -> Inputs:
        full = data.standard_splits(SPEC_2G, seed=seed, corrupt=0.2,
                                    meta_val_per_class=10, test_per_class=1000)
        labeled, unlabeled = data.split_labeled_pool(full.train, 24, seed=seed + 100)
        splits = data.Splits(train=labeled, meta_val=full.meta_val, test=full.test)
        config = meta.TrainConfig(mode="metamixup", epochs=60, batch_size=8,
                                  seed=seed, sigma0=0.7, sigma_period=5,
                                  optimizer=_optimizer(60))
        arch = meta.default_arch(labeled)
        model = nets.build_model(arch, np.random.default_rng(seed))
        return Inputs(seed, splits=splits, unlabeled=unlabeled, config=config,
                      model=model)

    def _train(self, inputs: Inputs, config: meta.TrainConfig) -> meta.TrainingReport:
        return semi.train_ssl(inputs.splits, inputs.unlabeled, config)


# 10 Gaussian blobs in 784 dims squashed into the unit box, viewed as 28x28
# images: each class lights one pixel. Three steps of batch 50 per call.
CNN_SPEC = data.SyntheticSpec(classes=10, per_class=25, dim=784,
                              separation=20.0, unit_box=True)


def _as_images(ds: data.Dataset) -> data.Dataset:
    return data.Dataset(ds.inputs.reshape(len(ds), 28, 28), ds.labels,
                        ds.n_classes, ds.provenance, ds.true_labels)


class CnnSynth(Training):
    """cnn3 on synthetic 28x28x1 images, batch 50, one epoch of three steps."""

    def setup(self, seed: int) -> Inputs:
        raw = data.standard_splits(CNN_SPEC, seed=seed, meta_val_per_class=10,
                                   test_per_class=20)
        splits = data.Splits(*(_as_images(ds) for ds in (raw.train, raw.meta_val, raw.test)))
        arch = nets.cnn3()
        config = meta.TrainConfig(mode="metamixup", epochs=1, batch_size=50,
                                  seed=seed, arch=arch, optimizer=_optimizer(1))
        model = nets.build_model(arch, np.random.default_rng(seed))
        return Inputs(seed, splits=splits, config=config, model=model)


class AuditSoftplus:
    """Criterion 4 scaled up: softplus MLP 6-12-8-3, kappa from 20000 pairs,
    then the gap audit at 1.2 x kappa over 20000 fresh pairs x 9 lambdas."""

    name = "audit-softplus"
    pairs = 20_000
    safety = 1.2

    def setup(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        model = nets.build_model(nets.mlp(6, [12, 8], 3, activation="softplus"), rng)
        pool = rng.normal(size=(400, 6), scale=1.5)
        return Inputs(seed, model=model, pool=pool)

    def call(self, inputs: Inputs, warmup: bool = False) -> Outcome:
        def sampler(k, rng):
            return smoothness.sample_pairs(inputs.pool, k, rng)

        model = inputs.model
        est = smoothness.estimate_kappa_network(
            model, sampler, self.pairs, np.random.default_rng(inputs.seed + 1))
        fresh = sampler(self.pairs, np.random.default_rng(inputs.seed + 2))
        rep, channel = smoothness.audit_network(model, self.safety * est.kappa, fresh)
        channels = len(est.per_channel)
        grad_rows = 2 * est.n_pairs * channels
        evals = rep.n_pairs * len(rep.lam_grid) * channels
        # per channel: f(x), f(x') and f at each mixed point, plus the gradients
        value_rows = rep.n_pairs * (2 + len(rep.lam_grid)) * channels
        return Outcome(
            ops=evals + grad_rows, rows=value_rows + grad_rows,
            fingerprint=(est.kappa, rep.max_ratio, rep.violations, channel),
            audit={"kappa": est.kappa, "violations": rep.violations,
                   "max_gap_ratio": rep.max_ratio})

    def check(self, inputs: Inputs, outcome: Outcome) -> dict:
        a = outcome.audit
        return {
            "violations": (a["violations"], a["violations"] == 0, "== 0"),
            "max_gap_ratio": (a["max_gap_ratio"], a["max_gap_ratio"] <= 1.0, "<= 1"),
        }


# Test-error ceilings for one seeded run. Over seeds 0-19 sup-mlp ends
# between 0.045 and 0.098 and ssl-mlp, with 48 labeled rows, between 0.05
# and 0.40; both ceilings stay below the two-class chance level of 0.5.
# Three cnn3 steps do not get past the ten-class chance level of 0.9, so
# its ceiling only rejects a worse-than-chance or non-finite result; the
# hypergradient check carries its correctness.
WORKLOADS = {w.name: w for w in (
    SupMlp("sup-mlp", error_ceiling=0.2),
    SslMlp("ssl-mlp", error_ceiling=0.45),
    CnnSynth("cnn-synth", error_ceiling=0.95),
    AuditSoftplus(),
)}


# ---------------------------------------------------------------------------
# hypergradient oracle


def hypergradient_check(inputs: Inputs, model: nets.ModelState) -> float:
    """Directional central-difference check of ``meta.hypergradient`` on the
    final model and a training batch.

    The oracle rebuilds the validation loss after one simulated SGD step as a
    plain function of the policy logits, with first-order gradients only, and
    differences it along a unit direction. Returns the relative error
    |a - n| / max(|a|, |n|) of the closest difference."""
    cfg, splits = inputs.config, inputs.splits
    rng = np.random.default_rng(inputs.seed + 7)
    arch = model.arch
    classes = splits.train.n_classes
    b = cfg.batch_size
    groups = [(meta.shape_for(arch, splits.train.inputs[:b]),
               nets.one_hot(splits.train.labels[:b], classes),
               mixing.sample_pairing(b, rng), 1.0)]
    if inputs.unlabeled is not None and len(inputs.unlabeled):
        pseudo = semi.assign_pseudo_labels(model, inputs.unlabeled.inputs[:4 * b],
                                           cfg.sigma_floor)
        if len(pseudo):
            k = min(b, len(pseudo))
            groups.append((pseudo.inputs[:k], pseudo.labels[:k],
                           mixing.sample_pairing(k, rng), cfg.unsup_weight))
    n = sum(len(g[0]) for g in groups)
    policy = mixing.init_policy(n, rng)
    val_batch = meta.sample_val_batch(splits.meta_val,
                                      nets.one_hot(splits.meta_val.labels, classes),
                                      b, arch, rng)
    eta = cfg.optimizer.learning_rate
    exact = meta.hypergradient(model, groups, policy, val_batch, eta, mode="exact").grad

    def val_loss_of(z: np.ndarray) -> float:
        lam = 1.0 / (1.0 + np.exp(-z))
        total, offset = None, 0
        for x, y, perm, weight in groups:
            mixed = mixing.mix_batch(x, y, perm, lam[offset:offset + len(x)])
            offset += len(x)
            loss = engine.scale(nets.cross_entropy(
                nets.forward(model, mixed.inputs), mixed.labels), weight)
            total = loss if total is None else engine.add(total, loss)
        grads = nets.param_gradients(total, model)
        simulated = {k: engine.Tensor(p.data - eta * grads[k].data)
                     for k, p in model.params.items()}
        return nets.cross_entropy(nets.forward(model, val_batch[0], params=simulated),
                                  val_batch[1]).item()

    # half along the claimed gradient, half random, so that both a wrong
    # scale and a wrong direction show
    z0 = policy.logits.data.copy()
    random = rng.normal(size=z0.shape)
    direction = exact / np.linalg.norm(exact) + random / np.linalg.norm(random)
    direction /= np.linalg.norm(direction)
    h = HYPERGRAD_STEP
    lo, mid, hi = (val_loss_of(z0 + t * direction) for t in (-h, 0.0, h))
    analytic = float(exact @ direction)
    return min(abs(analytic - numeric) / max(abs(analytic), abs(numeric))
               for numeric in ((hi - lo) / (2 * h), (hi - mid) / h, (mid - lo) / h))
