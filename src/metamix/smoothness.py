"""Numerical audit of the mixup-gap inequality.

For a scalar field f whose gradient is kappa-Lipschitz,

    |f(lam*x + (1-lam)*x') - [lam*f(x) + (1-lam)*f(x')]|
        <= lam*(1-lam)*kappa/2 * ||x - x'||^2

holds for every pair and every lam in [0, 1]. This module estimates kappa
empirically, evaluates the left side (the "gap") over sampled pairs and a
lam grid, and counts violations of the bound. Everything here works on
batches of flattened points, shape [n, d]. A field has one channel (values
[n], gradients [n, d]) or k channels (values [n, k], gradients [k, n, d]),
such as a network's logits; the bound is checked per channel and the audit
reports the worst one. A network's logits and their gradients run on the
numpy forward of ``nets``, which builds no engine node.

The estimate and the audit walk the pairs in the chunks of
``nets.inference_chunks`` (a ``LogitField``'s by its architecture, any
other field's at INFERENCE_ROWS) and finish each chunk before the next, so
beside the pairs they hold one chunk's evaluations, not the whole set's;
the audit also keeps every channel's gaps and the reported table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from . import nets
from .engine import NonFiniteError
from .nets import ModelState

LAMBDA_GRID = tuple(np.round(np.arange(1, 10) * 0.1, 1))

# equality cases (quadratics along the top eigendirection) land exactly on
# the bound, so a violation must clear both a relative and an absolute slack
RATIO_SLACK = 1e-9
GAP_SLACK = 1e-12


class ScalarField(Protocol):
    """Batched field of points [n, d]: values [n] and gradients [n, d] for one
    channel, values [n, k] and gradients [k, n, d] for k channels. ``grad``
    returns a new array, which the kappa estimate overwrites."""

    def value(self, points: np.ndarray) -> np.ndarray: ...

    def grad(self, points: np.ndarray) -> np.ndarray: ...


class QuadraticField:
    """f(x) = 1/2 x^T A x + b^T x. The gradient Lipschitz constant is the
    spectral norm of the symmetric part of A, available exactly."""

    def __init__(self, matrix: np.ndarray, linear: np.ndarray | None = None):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got {matrix.shape}")
        self.matrix = matrix
        self.sym = 0.5 * matrix + 0.5 * matrix.T   # matrix + matrix.T overflows past 9e307
        self.linear = (np.zeros(len(matrix)) if linear is None
                       else np.asarray(linear, dtype=np.float64))

    @property
    def kappa(self) -> float:
        return float(np.abs(np.linalg.eigvalsh(self.sym)).max())

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return 0.5 * np.einsum("ni,ij,nj->n", points, self.matrix, points) \
            + points @ self.linear

    def grad(self, points: np.ndarray) -> np.ndarray:
        return np.atleast_2d(points) @ self.sym + self.linear


class LogitField:
    """A network's logits as a k-channel field of the input.

    ``value`` runs, per ``nets.inference_chunks`` chunk, one
    ``nets._forward`` without a tape: the bits of ``nets.batched_logits``,
    the engine's forward, and a NonFiniteError where it raises one, but no
    engine node. ``grad`` runs, per chunk, one ``nets._forward`` and, per
    channel, one reverse pass to the input with a one-hot upstream at the
    logits, whose rows are independent. The estimate and the audit hand
    both one such chunk of pairs at a time (8 rows for cnn3 on 28x28, 512
    for a small MLP), so each call is one chunk and rounds as the whole
    batch would. Meaningful kappa estimates need smooth activations (softplus,
    tanh, sigmoid); relu gradients are piecewise constant.
    """

    def __init__(self, model: ModelState):
        self.model = model

    def _batched(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        return points.reshape(len(points), *self.model.arch.input_shape)

    def value(self, points: np.ndarray) -> np.ndarray:
        x = self._batched(points)
        chunks = nets.inference_chunks(self.model.arch, len(x))
        if not chunks:
            return np.empty((0, self.model.arch.n_classes))
        # an overflow raises NonFiniteError in the pass, with no RuntimeWarning first
        with np.errstate(over="ignore", invalid="ignore"):
            return nets._joined([nets._forward(self.model, x[rows], record=False)[0]
                                 for rows in chunks])

    def grad(self, points: np.ndarray) -> np.ndarray:
        x = self._batched(points)
        k = self.model.arch.n_classes
        grads, transposed = np.empty((k,) + x.shape), {}
        for rows in nets.inference_chunks(self.model.arch, len(x)):
            chunk = x[rows]
            _, tape = nets._forward(self.model, chunk)
            for c, pick in enumerate(np.eye(k)):
                grads[c, rows] = nets._reverse(
                    tape, np.broadcast_to(pick, (len(chunk), k)), transposed=transposed)
        return grads.reshape(k, len(x), -1)


def _as_pair_batch(x, x_prime):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_prime = np.atleast_2d(np.asarray(x_prime, dtype=np.float64))
    if x.shape != x_prime.shape:
        raise ValueError(f"pair shapes differ: {x.shape} vs {x_prime.shape}")
    return x, x_prime


def _chunks(field: ScalarField, n: int) -> list[slice]:
    """The chunks in which the estimate and the audit walk ``n`` pairs."""
    return nets.inference_chunks(field.model.arch if isinstance(field, LogitField) else None, n)


def _distances(field: ScalarField, x: np.ndarray, x_prime: np.ndarray) -> np.ndarray:
    """||x - x'|| per pair, a chunk at a time; an overflow is left to the
    caller to report as an error, not printed as a warning."""
    dist = np.empty(len(x))
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _chunks(field, len(x)):
            dist[rows] = np.linalg.norm(x[rows] - x_prime[rows], axis=1)
    return dist


def _check_lam(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")


def mixup_gap(field: ScalarField, x, x_prime, lam: float) -> np.ndarray | float:
    """|f(lam x + (1-lam) x') - [lam f(x) + (1-lam) f(x')]| per pair.

    Vector inputs give a float; [n, d] batches give an [n] array. A k-channel
    field gives [k] and [n, k] instead."""
    _check_lam(lam)
    scalar = np.asarray(x).ndim == 1
    bx, bp = _as_pair_batch(x, x_prime)
    gap = np.abs(field.value(lam * bx + (1.0 - lam) * bp)
                 - (lam * field.value(bx) + (1.0 - lam) * field.value(bp)))
    if not np.all(np.isfinite(gap)):
        raise NonFiniteError("field evaluation produced a non-finite gap")
    if scalar:
        return float(gap[0]) if gap.ndim == 1 else gap[0]
    return gap


def gap_bound(kappa: float, lam, distance) -> np.ndarray:
    """Right side of the inequality: lam(1-lam) kappa/2 ||x - x'||^2."""
    lam = np.asarray(lam, dtype=np.float64)
    return lam * (1.0 - lam) * kappa / 2.0 * np.square(distance)


def sample_pairs(data: np.ndarray, n_pairs: int, rng: np.random.Generator,
                 scales: tuple[float, ...] = (0.05, 0.5, 2.0)):
    """Pairs for the audit: anchors are data rows; partners alternate between
    other data rows (distant pairs) and Gaussian perturbations of the anchor
    at the given length scales (local pairs). Returns (X, X') as [n, d]."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    flat = np.asarray(data, dtype=np.float64).reshape(len(data), -1)
    anchors = flat[rng.integers(0, len(flat), n_pairs)]
    partners = flat[rng.integers(0, len(flat), n_pairs)]
    kind = rng.integers(0, len(scales) + 1, n_pairs)
    noise = rng.standard_normal(anchors.shape)
    # each row's scale, 0 for a distant pair, then one masked copy, in place
    noise *= np.array((0.0, *scales))[kind][:, None]
    noise += anchors
    np.copyto(partners, noise, where=(kind > 0)[:, None])
    return anchors, partners


PairSampler = Callable[[int, np.random.Generator], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class KappaEstimate:
    """The worst channel's constant; ``per_channel`` holds every channel's."""
    kappa: float
    n_pairs: int
    distance_min: float
    distance_mean: float
    distance_max: float
    per_channel: tuple[float, ...]


def kappa_from_pairs(field: ScalarField, x: np.ndarray,
                     x_prime: np.ndarray) -> KappaEstimate:
    """max ||grad f(x) - grad f(x')|| / ||x - x'|| over the given pairs, per
    channel. A lower bound of the true constant; degenerate pairs (x = x')
    are skipped. A kept distance or gradient difference that is not finite
    (the norm of points past about 1e154 overflows, and so may a gradient)
    raises NonFiniteError, without a RuntimeWarning: dividing by it would
    report a constant of 0 or NaN.

    Every distance is taken and checked first. Then the kept pairs are
    walked in chunks: both sides' gradients of a chunk reduce at once to its
    [k, rows] ratios, and only a running per-channel max outlives the chunk,
    so beside the pairs and their distances the estimate holds one chunk's
    gradients, whatever the number of pairs."""
    x, x_prime = _as_pair_batch(x, x_prime)
    dist = _distances(field, x, x_prime)
    kept = np.flatnonzero(dist != 0)
    if not len(kept):
        raise ValueError("all pairs are degenerate (x == x')")
    d = dist[kept]
    if not np.isfinite(d).all():
        raise NonFiniteError("kappa estimate: a pair distance is not finite")
    dim, peak = x.shape[1], 0.0   # a ratio is never negative
    for rows in _chunks(field, len(kept)):
        pick = kept[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            # in place, two [k, rows, d] stacks at most; the norm by the
            # formula np.linalg.norm takes for real input along one axis
            gx = field.grad(x[pick]).reshape(-1, len(pick), dim)
            gx -= field.grad(x_prime[pick]).reshape(-1, len(pick), dim)
            diff = np.sqrt(np.square(gx, out=gx).sum(axis=2))
        if not np.isfinite(diff).all():
            raise NonFiniteError("kappa estimate: a gradient difference is not finite")
        peak = np.maximum(peak, (diff / d[rows]).max(axis=1))
    per_channel = tuple(float(c) for c in peak)
    return KappaEstimate(
        kappa=max(per_channel), n_pairs=len(d),
        distance_min=float(d.min()), distance_mean=float(d.mean()),
        distance_max=float(d.max()), per_channel=per_channel)


def estimate_kappa(field: ScalarField, sampler: PairSampler, n_pairs: int,
                   rng: np.random.Generator) -> KappaEstimate:
    return kappa_from_pairs(field, *sampler(n_pairs, rng))


def estimate_kappa_network(model: ModelState, sampler: PairSampler,
                           n_pairs: int, rng: np.random.Generator) -> KappaEstimate:
    """``estimate_kappa`` of the model's logits."""
    return estimate_kappa(LogitField(model), sampler, n_pairs, rng)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of checking the bound over pairs x lam grid, for the worst
    channel: most violations, highest max ratio breaking ties, the first
    channel winning exact ties.

    ``rows`` is that channel's flat evaluation table, one row per (pair, lam):
    columns (distance, lam, gap, bound). ``max_ratio`` is gap/bound over
    rows with a positive bound; a zero bound with a real gap counts as a
    violation directly (ratio undefined)."""
    kappa: float
    n_pairs: int
    lam_grid: tuple[float, ...]
    max_ratio: float
    violations: int
    worst_pair: dict
    rows: np.ndarray
    channel: int

    def summary(self) -> dict:
        return {
            "kappa": self.kappa, "n_pairs": self.n_pairs,
            "lambda_grid": list(self.lam_grid), "max_gap_ratio": self.max_ratio,
            "violations": self.violations, "worst_pair": self.worst_pair,
        }


def audit_gap_bound(field: ScalarField, kappa: float, pairs,
                      lam_grid: tuple[float, ...] = LAMBDA_GRID) -> AuditReport:
    """Evaluate the gap against the bound for every pair at every lam, on
    every channel, and report the worst channel.

    Pairs are passed explicitly (from ``sample_pairs`` or hand-built) so a
    caller can append adversarial pairs such as eigendirections. A pair
    violates at lam when gap > bound * (1 + 1e-9) + 1e-12.

    Every distance is taken and checked before the field is evaluated. Then
    the pairs are walked in chunks: f(x), f(x') and f at the mixed points of
    one chunk give every channel's gaps, and each channel's violation count,
    peak ratio and worst row accumulate chunk by chunk. Beside the pairs the
    audit holds every channel's gaps ([len(lam_grid) * n, k]), since the
    reported channel is known only at the end, the ``rows`` table, filled in
    place, and one chunk's evaluations.
    """
    if not np.isfinite(kappa):
        raise NonFiniteError(f"audit: kappa must be finite, got {kappa}")
    if kappa < 0:
        raise ValueError("kappa must be non-negative")
    if not len(lam_grid):
        raise ValueError("lam_grid must hold at least one lam")
    for lam in lam_grid:
        _check_lam(lam)
    x, x_prime = _as_pair_batch(*pairs)
    n = len(x)
    if not n:
        raise ValueError("the audit needs at least one pair")
    dist = _distances(field, x, x_prime)
    if not np.isfinite(dist).all():
        raise NonFiniteError("audit: a pair distance is not finite")

    # table row j * n + i is pair i at lam_grid[j]: (distance, lam, gap, bound)
    lams = np.asarray(lam_grid, dtype=np.float64)
    rows = np.empty((len(lams) * n, 4))
    table = rows.reshape(len(lams), n, 4)
    table[:, :, 0] = dist
    table[:, :, 1] = lams[:, None]
    gaps, counts, peaks, best, worst = None, 0, 0.0, -np.inf, 0
    for chunk in _chunks(field, n):
        x_c, p_c = x[chunk], x_prime[chunk]
        fx = field.value(x_c).reshape(len(x_c), -1)
        fp = field.value(p_c).reshape(len(x_c), -1)
        if gaps is None:   # the first values give the number of channels
            gaps = np.empty((len(lams), n, fx.shape[1]))
        for j, lam in enumerate(lam_grid):
            gaps[j, chunk] = np.abs(
                field.value(lam * x_c + (1.0 - lam) * p_c).reshape(len(x_c), -1)
                - (lam * fx + (1.0 - lam) * fp))
        # the chunk's block of every lam at once: gap [lams, rows, k]
        gap, bound = gaps[:, chunk], gap_bound(kappa, lams[:, None], dist[chunk])
        if not (np.all(np.isfinite(gap)) and np.all(np.isfinite(bound))):
            raise NonFiniteError("audit evaluation produced non-finite values")
        table[:, chunk, 3] = bound
        violated = gap > (bound * (1.0 + RATIO_SLACK) + GAP_SLACK)[..., None]
        positive = bound > 0
        ratio = np.divide(gap, bound[..., None], out=np.zeros(gap.shape),
                          where=positive[..., None])
        counts = counts + violated.sum(axis=(0, 1))
        peaks = np.maximum(peaks, ratio.max(axis=(0, 1)))
        # the worst row: the highest ratio, a violated zero bound above all,
        # the first table row on a tie
        score = np.where(violated & ~positive[..., None], np.inf, ratio).reshape(
            -1, gap.shape[2])
        at = score.argmax(axis=0)   # block row j * len(x_c) + i is table row j * n + i
        top = score[at, np.arange(len(at))]
        row = at // len(x_c) * n + chunk.start + at % len(x_c)
        ahead = (top > best) | ((top == best) & (row < worst))
        best, worst = np.where(ahead, top, best), np.where(ahead, row, worst)
    channel = max(range(len(counts)), key=lambda c: (counts[c], peaks[c]))
    table[:, :, 2] = gaps[:, :, channel]
    worst_row = int(worst[channel])
    worst_pair = {
        "pair_index": worst_row % n, "distance": float(rows[worst_row, 0]),
        "lam": float(rows[worst_row, 1]), "gap": float(rows[worst_row, 2]),
        "bound": float(rows[worst_row, 3]),
    }
    return AuditReport(
        kappa=float(kappa), n_pairs=n, lam_grid=tuple(lam_grid),
        max_ratio=float(peaks[channel]), violations=int(counts[channel]),
        worst_pair=worst_pair, rows=rows, channel=channel)


def audit_network(model: ModelState, kappa: float, pairs,
                  lam_grid: tuple[float, ...] = LAMBDA_GRID
                  ) -> tuple[AuditReport, int]:
    """``audit_gap_bound`` of the model's logits, and the reported channel."""
    report = audit_gap_bound(LogitField(model), kappa, pairs, lam_grid)
    return report, report.channel


def write_audit_csv(report: AuditReport, path) -> None:
    np.savetxt(path, report.rows, delimiter=",", fmt="%.17g",
               header="distance,lambda,gap,bound", comments="")
