"""Small dense/conv classifiers as pure functions of their parameter dict.

Models are deliberately functional: ``forward`` takes an optional parameter
mapping so a simulated update (new parameter tensors, same architecture) can
be evaluated without touching the real model. That is the hook the one-step
meta gradient hangs off. Each layer kind (``Dense``, ``Conv``) owns what
differs between kinds: its shapes on an input, its product with a weight in
the engine (``graph_product``) and in numpy, and its weight and input
gradients; no pass names a kind. Training and the audit walk the layers in
numpy: ``_forward`` keeps a per-layer tape of each layer's input as it
arrived (a conv layer's [n, h, w, cin] images, never their im2col columns:
the engine's conv kernels build those per block of images and drop them,
and only for a layer that widens its channels more than twofold, where the
gather is cheap; every other layer runs k*k shifted GEMMs over padded
rows, ``engine._builds_columns``) and of f' (a relu's as a bool mask),
``_reverse`` walks it back from a gradient at the logits to the parameters
(for ``loss_and_gradients``, from ``_cross_entropy_head``) or to the
input, and ``forward_tangents`` carries two tangents along it for the
second-order term, in place; a loss over weighted row segments is one pass
too. Either way ``_forward`` checks each layer's pre-activation once;
without a tape it computes the logits alone, by the value kernels of the
engine's primitives (``ACTIVATION_VALUES``): the audit's logit values
(``smoothness.LogitField.value``).

Every pass runs over row chunks from one rule, ``inference_chunks``: as
many rows as keep the widest layer output under INFERENCE_BYTES, in whole
4-row blocks (8 rows for cnn3 on 28x28 images; an MLP batch is one chunk).
``loss_and_gradients`` runs forward, head and reverse one chunk at a time
and adds the chunks' gradients, so a pass holds one chunk's activations
and reverse temporaries, never a whole batch's; only the hypergradient's
inner pass keeps a tape past its pass, its last chunk's, for the tangent
pass. The engine's
``forward`` serves ``batched_logits``, over the same chunks (``predict``,
``error_rate`` and the relabel pass), and the oracles.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import engine as eng
from .data import DataError, check_settings, setting
from .engine import ShapeError, Tensor


@dataclass(frozen=True)
class Dense:
    width: int
    activation: str | None = None

    def shapes(self, in_shape):
        return (math.prod(in_shape), self.width), (self.width,)

    def graph_product(self, h: Tensor, w: Tensor) -> Tensor:
        # a 2-D input is not reshaped: that would add a graph node
        return eng.matmul(eng.reshape(h, (h.shape[0], -1)) if h.ndim > 2 else h, w)

    def product(self, h, w):
        return h.reshape(len(h), -1) @ w

    def weight_grad(self, h, u):
        return h.reshape(len(h), -1).T.copy() @ u

    def input_grad(self, u, w, shape, transposed):
        # by a contiguous copy of w's transpose, as the engine does (a
        # transposed view rounds otherwise), kept under w's id for more chunks
        if id(w) not in transposed:
            transposed[id(w)] = w.T.copy()
        return (u @ transposed[id(w)]).reshape(shape)


@dataclass(frozen=True)
class Conv:
    kernel: int
    channels: int
    activation: str | None = "relu"

    def shapes(self, in_shape):
        if len(in_shape) != 3:   # as a dense layer's output never is
            raise ShapeError(f"a conv layer needs an (h, w, c) image input, "
                             f"got shape {in_shape}")
        w_shape = (self.kernel, self.kernel, in_shape[2], self.channels)
        eng._check_kernel(w_shape)   # a kernel the conv passes run
        return w_shape, in_shape[:2] + (self.channels,)

    # the kernels are looked up in ``engine`` at each call, so a patched one runs
    def graph_product(self, h: Tensor, w: Tensor) -> Tensor:
        return eng.conv2d(h, w)

    def product(self, h, w):
        return eng._conv_forward(h, w)

    def weight_grad(self, h, u):
        return eng._conv_weight_grad(h, u, self.kernel)

    def input_grad(self, u, w, shape, transposed):
        return eng._conv_input_grad(u, w)


ACTIVATIONS = {
    "tanh": eng.tanh,
    "relu": eng.relu,
    "softplus": eng.softplus,
    "sigmoid": eng.sigmoid,
}


def _tanh_derivatives(a):
    t = np.tanh(a)
    d1 = 1.0 - t * t
    return t, d1, -2.0 * t * d1


def _sigmoid_derivatives(a):
    s = eng._sigmoid_values(a)
    d1 = s * (1.0 - s)
    return s, d1, d1 * (1.0 - 2.0 * s)


def _softplus_derivatives(a):
    e = eng._exp_neg_abs(a)
    s = eng._sigmoid_values(a, e)
    return eng._softplus_values(a, e), s, s * (1.0 - s)


def _relu_derivatives(a):
    # f' is the engine's mask as bools, an eighth of its bytes on the tape: a
    # float array times it takes the bits of the engine's float64 mask, and
    # both take the subgradient 0 at a == 0; f'' = 0
    return np.maximum(a, 0.0), a > 0, None


# (f, f', f'') of each activation on numpy arrays, for the numpy training
# passes (f and f' match the engine's forward and vjp bit for bit); None
# stands for an f'' that is zero everywhere. Softplus and sigmoid take the
# engine's own kernel, and softplus computes its one exp(-|z|) once for
# both f and f'
ACTIVATION_DERIVATIVES = {
    "tanh": _tanh_derivatives,
    "relu": _relu_derivatives,
    "softplus": _softplus_derivatives,
    "sigmoid": _sigmoid_derivatives,
}

# f alone of each activation on numpy arrays, by the kernels of the engine's
# primitives, so bit for bit their forward: for the pass without a tape
ACTIVATION_VALUES = {
    "tanh": np.tanh,
    "relu": lambda a: np.maximum(a, 0.0),
    "softplus": eng._softplus_values,
    "sigmoid": eng._sigmoid_values,
}


@dataclass(frozen=True)
class Architecture:
    """Layer stack over a fixed input shape: (d,) for vectors, (h, w, c) for images.

    Conv layers must precede dense layers; the first dense layer flattens.
    """

    input_shape: tuple[int, ...]
    layers: tuple[Dense | Conv, ...]

    def __post_init__(self):
        if len(self.input_shape) not in (1, 3) or min(self.input_shape) < 1:
            raise ShapeError("input_shape must be (d,) or (h, w, c) of sizes >= 1, "
                             f"got {self.input_shape}")
        if not self.layers or not isinstance(self.layers[-1], Dense):
            raise ShapeError("architecture must end with a Dense layer")
        for layer in self.layers:
            if min(getattr(layer, f.name) for f in fields(layer) if f.type == "int") < 1:
                raise ShapeError(f"layer sizes must be >= 1, got {layer}")
            act = layer.activation
            if act is not None and act not in ACTIVATIONS:
                raise ShapeError(f"unknown activation '{act}'")
        self.layer_shapes   # each kind checks the input it gets

    @property
    def n_classes(self) -> int:
        return self.layers[-1].width

    @cached_property
    def layer_shapes(self) -> tuple:
        """(weight shape, output shape per row) of each layer. A weight's
        fan-in is the product of all but its last axis, its bias that axis."""
        shapes, shape = [], self.input_shape
        for layer in self.layers:
            w_shape, shape = layer.shapes(shape)
            shapes.append((w_shape, shape))
        return tuple(shapes)

    @cached_property
    def widest_output(self) -> int:
        """The most values one layer outputs per row, for the chunk rule
        (``inference_rows``)."""
        return max(math.prod(out_shape) for _, out_shape in self.layer_shapes)


def mlp(in_dim: int, hidden: Sequence[int], classes: int,
        activation: str = "tanh") -> Architecture:
    layers = tuple(Dense(h, activation) for h in hidden) + (Dense(classes),)
    return Architecture((in_dim,), layers)


def cnn3(input_hw: tuple[int, int] = (28, 28), in_channels: int = 1,
         classes: int = 10) -> Architecture:
    """The canonical small image net: conv3x3x16, conv3x3x32, dense head."""
    return Architecture(input_hw + (in_channels,),
                        (Conv(3, 16), Conv(3, 32), Dense(classes)))


@dataclass
class ModelState:
    arch: Architecture
    params: dict[str, Tensor]
    momentum: dict[str, np.ndarray] = field(default_factory=dict)

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())


def build_model(arch: Architecture, rng: np.random.Generator) -> ModelState:
    """Fresh parameters: weights ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)), zero biases."""
    params: dict[str, Tensor] = {}
    momentum: dict[str, np.ndarray] = {}
    for i, (w_shape, _) in enumerate(arch.layer_shapes):
        name, b_shape = f"layer{i}", w_shape[-1:]
        bound = 1.0 / math.sqrt(math.prod(w_shape[:-1]))
        params[f"{name}.w"] = Tensor(rng.uniform(-bound, bound, size=w_shape),
                                     requires_grad=True)
        params[f"{name}.b"] = Tensor(np.zeros(b_shape), requires_grad=True)
        momentum[f"{name}.w"] = np.zeros(w_shape)
        momentum[f"{name}.b"] = np.zeros(b_shape)
    return ModelState(arch, params, momentum)


def forward(model: ModelState, x, params: Mapping[str, Tensor] | None = None) -> Tensor:
    """Logits for a batch. ``params`` overrides the model's own parameters,
    which is how simulated (post-inner-step) weights are evaluated."""
    p = model.params if params is None else params
    h = eng.as_tensor(x)
    expected = model.arch.input_shape
    if h.shape[1:] != expected:
        raise ShapeError(f"forward: batch shape {h.shape} does not match input {expected}")
    for i, layer in enumerate(model.arch.layers):
        h = eng.bias_add(layer.graph_product(h, p[f"layer{i}.w"]), p[f"layer{i}.b"])
        if layer.activation is not None:
            h = ACTIVATIONS[layer.activation](h)
    return h


def _forward(model: ModelState, x, params: Mapping[str, np.ndarray] | None = None,
             record: bool = True):
    """Logits for a batch in numpy, and the tape that the reverse and tangent
    passes read: per layer (layer, its input as it arrived, weight, f', f'');
    ``params`` overrides the model's own parameter values. f' is None on a
    layer without activation, and a bool mask on a relu layer, which a float
    array times it gives the bits of the engine's float64 mask; f'' is None
    on a layer where it is zero. The values follow the engine's formulas bit
    for bit, and no graph is recorded. Each layer's pre-activation is
    checked, where the engine checks every node: a non-finite input, product
    or bias shows there, even under a saturating activation, and f of a
    finite value is finite, so the pass raises NonFiniteError where the
    engine's forward would. With ``record`` False the pass keeps no tape (it
    returns an empty one) and computes f alone (``ACTIVATION_VALUES``)."""
    p = {n: t.data for n, t in model.params.items()} if params is None else params
    h = np.asarray(x, dtype=np.float64)
    if h.shape[1:] != model.arch.input_shape:
        raise ShapeError(f"forward: batch shape {h.shape} does not match "
                         f"input {model.arch.input_shape}")
    tape = []
    for i, layer in enumerate(model.arch.layers):
        w = p[f"layer{i}.w"]
        a = layer.product(h, w)
        a += p[f"layer{i}.b"]   # in place: no second array the size of the output
        if not np.isfinite(a).all():
            raise eng.NonFiniteError(f"non-finite values produced by layer {i}")
        if record:
            d1 = d2 = None
            if layer.activation is not None:
                a, d1, d2 = ACTIVATION_DERIVATIVES[layer.activation](a)
            tape.append((layer, h, w, d1, d2))
        elif layer.activation is not None:
            a = ACTIVATION_VALUES[layer.activation](a)
        h = a
    return h, tape


def forward_tangents(tape, dx, direction: Mapping[str, np.ndarray]):
    """(da/deps, da/dt, d2a/(deps dt)) at eps = t = 0 for the logits a of the
    pass that ``tape`` (a ``_forward`` tape) recorded at theta and x, with
    theta moved to theta + eps * direction and x to x + t * dx. Each layer
    carries these three parts (hyper-dual numbers) and reads its input,
    weight, f' and f'' from the tape; it multiplies by its own ``product``
    (a conv layer convolves its input with the direction's kernel again).
    The primal pass is not run again. A part's products with the weight and
    the direction's kernel are added in place, f' and f'' act in place, and
    each incoming part is dropped after its last product, so no
    concatenation of parts or weights is built."""
    h_l = np.asarray(dx, dtype=np.float64)
    h_e = h_el = None   # the input does not move with eps
    for i, (layer, h, w, d1, d2) in enumerate(tape):
        vw, vb = direction[f"layer{i}.w"], direction[f"layer{i}.b"]
        a_e = layer.product(h, vw)
        a_e += vb
        if h_e is not None:
            a_e += layer.product(h_e, w)
            h_e = None
        a_el = layer.product(h_l, vw)
        if h_el is not None:
            a_el += layer.product(h_el, w)
            h_el = None
        a_l = layer.product(h_l, w)
        h_l = None
        if d1 is not None:
            a_el *= d1
            if d2 is not None:
                a_el += d2 * a_e * a_l
            a_e *= d1
            a_l *= d1
        h_e, h_l, h_el = a_e, a_l, a_el
    return h_e, h_l, h_el


def clone_for_meta(model: ModelState) -> ModelState:
    """Deep-copied parameter leaves, zero momentum: the simulated inner update
    is plain gradient descent and must not disturb the real optimizer state."""
    params = {name: Tensor(p.data.copy(), requires_grad=True)
              for name, p in model.params.items()}
    momentum = {name: np.zeros_like(m) for name, m in model.momentum.items()}
    return ModelState(model.arch, params, momentum)


def param_gradients(loss: Tensor, model: ModelState) -> dict[str, Tensor]:
    names = list(model.params)
    grads = eng.backward(loss, [model.params[n] for n in names])
    return dict(zip(names, grads))


def loss_and_gradients(model: ModelState, batch,
                       params: Mapping[str, np.ndarray] | None = None, last_tape=None):
    """The loss of one batch ``(x, y, segments)``, the sum over ``segments``
    ``[(row slice, weight), ...]`` (None: all rows, weight 1) of weight * mean
    cross-entropy of those rows against ``y``, each reduced on its own, and
    its gradient for every parameter, by the engine's vjp rules; ``params``
    overrides the model's own parameter values. Returns (loss, gradients,
    logits).

    Per ``inference_chunks`` chunk of rows it runs one ``_forward``, the
    ``_cross_entropy_head``, whose upstream gradient scales each row by its
    segment's weight and length, and one ``_reverse``, which adds the
    chunk's gradients to those of the chunks before it. A chunk's tape is
    dropped before the next chunk's forward; the last chunk's is appended
    to ``last_tape``, if given, for ``forward_tangents``. The
    loss sums the stored
    per-row terms by segment after the last chunk, so loss and logits are
    bit for bit those of ``eng.backward`` on ``meta._mixed_loss``, and so
    are the gradients of a one-chunk batch; past a chunk they sum in
    another order. A non-finite loss or gradient raises NonFiniteError."""
    x, y, segments = batch
    y = _labels(model, x, y)
    du = np.empty_like(y)   # the gradient at log_softmax: scale, sum, mul
    for rows, weight in segments or [(slice(None), 1.0)]:
        labels = y[rows]
        du[rows] = (weight * (-1.0 / len(labels))) * labels
    grads, logits, terms, transposed = {}, [], [], {}
    chunks = inference_chunks(model.arch, len(x))
    for rows in chunks:
        a, tape = _forward(model, x[rows], params)
        if last_tape is not None and rows is chunks[-1]:
            last_tape.append(tape)
        yls, u = _cross_entropy_head(a, y[rows], du[rows])
        _reverse(tape, u, grads, transposed)
        logits.append(a)
        terms.append(yls)
        tape = u = None   # the next chunk's forward runs without them
    loss = _segment_loss(_joined(terms), segments)
    if not np.isfinite(loss):
        raise eng.NonFiniteError("loss is not finite")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise eng.NonFiniteError(f"gradient of '{name}' is not finite")
    return float(loss), grads, _joined(logits)


def batch_loss(model: ModelState, batch) -> float:
    """The loss of ``loss_and_gradients`` without its gradients: one
    ``_forward`` per ``inference_chunks`` chunk."""
    x, y, segments = batch
    y = _labels(model, x, y)
    terms = [y[rows] * eng._log_softmax(_forward(model, x[rows])[0])
             for rows in inference_chunks(model.arch, len(x))]
    return float(_segment_loss(_joined(terms), segments))


def _labels(model: ModelState, x, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (len(x), model.arch.n_classes):
        raise ShapeError(f"cross_entropy: logits {(len(x), model.arch.n_classes)} "
                         f"vs labels {y.shape}")
    return y


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The chunks' rows as one array; a lone chunk's array as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _cross_entropy_head(logits, y, du):
    """Per row of ``logits``: the terms y * log_softmax(logits) whose sum is
    minus its cross-entropy, and the gradient at the logits from ``du``,
    the gradient at log_softmax, by the engine's vjp rule. Rows are
    independent, so a chunk of rows gives the bits of the same rows of the
    whole batch."""
    ls = eng._log_softmax(logits)
    return y * ls, du - np.exp(ls) * du.sum(axis=1, keepdims=True)


def _segment_loss(terms, segments) -> float:
    """Sum over ``segments`` (None: all rows, weight 1) of weight * mean
    cross-entropy from the rows' ``_cross_entropy_head`` terms, each
    segment's reduced on its own: scale, sum, as the engine does."""
    total = 0.0
    for rows, weight in segments or [(slice(None), 1.0)]:
        part = terms[rows]
        loss = part.sum() * (-1.0 / len(part))
        total += loss * weight if weight != 1.0 else loss
    return total


def _reverse(tape, u, grads=None, transposed=None):
    """Back along a ``_forward`` tape from the gradient ``u`` at the logits, by
    the engine's vjp rules and each layer kind's own kernels: into
    ``grads``, if given, every parameter's gradient, added in place to the
    one it holds already (an earlier chunk's), each as soon as it is
    computed, returning ``grads`` at layer 0; else the gradient at the
    input. ``transposed``, if given, keeps the dense layers' transposed
    weights for the passes of further chunks (``Dense.input_grad``)."""
    if transposed is None:
        transposed = {}
    for i, (layer, h, w, d1, _) in reversed(list(enumerate(tape))):
        if d1 is not None:
            u = u * d1
        if grads is not None:
            _accumulate(grads, f"layer{i}.b", u.sum(axis=tuple(range(u.ndim - 1))))
            _accumulate(grads, f"layer{i}.w", layer.weight_grad(h, u))
            if not i:
                return grads
        u = layer.input_grad(u, w, h.shape, transposed)
    return u


def _accumulate(grads, name, g):
    """Add ``g`` in place to the gradient that ``grads`` holds under
    ``name``, or hold it there."""
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g


@dataclass
class OptimizerConfig:
    learning_rate: float = setting(0.1, "(0, inf)")
    momentum: float = setting(0.9, "[0, 1)")
    weight_decay: float = setting(1e-4, "[0, inf)")
    cosine_anneal: bool = False
    horizon: int = 0  # annealing length in epochs; required when cosine_anneal

    def __post_init__(self):
        check_settings(self)
        if self.cosine_anneal and self.horizon < 1:
            raise ValueError(f"cosine_anneal requires a positive horizon, got {self.horizon}")

    def lr_at(self, epoch: int) -> float:
        if not self.cosine_anneal:
            return self.learning_rate
        t = min(max(epoch, 0), self.horizon)
        return self.learning_rate * 0.5 * (1.0 + math.cos(math.pi * t / self.horizon))


def sgd_step(model: ModelState, grads: Mapping[str, Tensor | np.ndarray],
             config: OptimizerConfig, lr: float | None = None) -> None:
    """In-place heavy-ball update. Weight decay folds into the gradient before
    the momentum buffer: m <- mu*m + (g + wd*theta); theta <- theta - lr*m.
    A step that would make any parameter non-finite raises NonFiniteError
    naming it and changes nothing."""
    step_lr = config.learning_rate if lr is None else lr
    updated = {}
    for name, p in model.params.items():
        if name not in grads:
            raise KeyError(f"sgd_step: missing gradient for parameter '{name}'")
        g = grads[name]
        g = g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(f"sgd_step: gradient shape {g.shape} vs parameter "
                             f"{p.data.shape} for '{name}'")
        m = model.momentum[name] * config.momentum + (g + config.weight_decay * p.data)
        theta = p.data - step_lr * m
        if not np.isfinite(theta).all():
            raise eng.NonFiniteError(f"sgd_step: parameter '{name}' is not finite "
                                     "after the update")
        updated[name] = m, theta
    for name, (m, theta) in updated.items():
        model.momentum[name] = m
        model.params[name].data = theta  # fresh array; retained graphs keep old leaves


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy against (possibly mixed) label distributions."""
    labels = eng.as_tensor(labels)
    if logits.shape != labels.shape:
        raise ShapeError(f"cross_entropy: logits {logits.shape} vs labels {labels.shape}")
    ls = eng.log_softmax(logits)
    return eng.scale(eng.sum_reduce(eng.mul(labels, ls)), -1.0 / logits.shape[0])


INFERENCE_ROWS = 512   # most rows per chunk of a numpy pass or an inference forward
# most bytes of the widest layer output per chunk, the conv kernels' column
# block (engine.CONV_BLOCK_BYTES): a pass's activations and reverse
# temporaries grow with the chunk, not with the batch
INFERENCE_BYTES = 2 << 20


def inference_rows(arch: Architecture | None) -> int:
    """Most rows per chunk of ``inference_chunks``: INFERENCE_ROWS, or fewer
    where the widest layer output would pass INFERENCE_BYTES, in whole
    blocks of 4 rows and at least one. So an MLP of up to 512 units per
    layer takes INFERENCE_ROWS, and cnn3 on 28x28 images 8; work without a
    network (``arch`` None, such as the audit of a quadratic) takes
    INFERENCE_ROWS."""
    bound = INFERENCE_ROWS if arch is None else \
        min(INFERENCE_ROWS, INFERENCE_BYTES // (8 * arch.widest_output))
    return 4 * max(1, bound // 4)


def inference_chunks(arch: Architecture | None, n: int) -> list[slice]:
    """``n`` rows in chunks of ``inference_rows`` rows, the last taking the
    rest, or the rest and the chunk before it where the rest is under 4
    rows: the one rule by which training, inference and the audit split a
    batch. OpenBLAS may round a row of a product by its place in the
    product's 4-row blocks, and a product of under 4 rows (a lone row by
    gemv) otherwise; chunks that start on a 4-row boundary and hold at
    least 4 rows give the bits of the whole batch's forward
    (``tests/test_nets.py``)."""
    rows = inference_rows(arch)
    if n <= rows:   # one chunk, the common case
        return [slice(0, n)] if n else []
    bounds = [*range(0, n, rows), n]
    if bounds[-1] - bounds[-2] < 4:
        del bounds[-2]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def batched_logits(model: ModelState, x) -> np.ndarray:
    """Logits of every row of ``x``, one engine forward per
    ``inference_chunks`` chunk, without recording a graph."""
    x = np.asarray(x, dtype=np.float64)
    with eng.no_grad():
        parts = [forward(model, x[rows]).data
                 for rows in inference_chunks(model.arch, len(x))]
    return np.concatenate(parts) if parts else np.empty((0, model.arch.n_classes))


def predict(model: ModelState, x) -> np.ndarray:
    """Argmax class per row, evaluated without recording a graph."""
    return batched_logits(model, x).argmax(axis=1)


def error_rate(model: ModelState, x, y: np.ndarray) -> float:
    if len(x) == 0:
        return float("nan")
    return float(np.mean(predict(model, x) != np.asarray(y)))


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError(f"labels out of range for {classes} classes")
    return np.eye(classes, dtype=np.float64)[labels]


# ---------------------------------------------------------------------------
# checkpoints


# a checkpoint layer is {"kind": its kind, then its type's fields in order}
LAYER_KINDS = {"conv": Conv, "dense": Dense}


def _arch_to_json(arch: Architecture) -> str:
    kinds = {cls: kind for kind, cls in LAYER_KINDS.items()}
    layers = [{"kind": kinds[type(layer)], **asdict(layer)} for layer in arch.layers]
    return json.dumps({"input_shape": list(arch.input_shape), "layers": layers})


def _size(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"size {value!r} is not an integer")
    return value


def _layer_from_json(entry) -> Dense | Conv:
    """A layer of a known kind with exactly its type's fields; every int
    field must be an integer."""
    kind = entry["kind"]
    if kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r}, not one of {sorted(LAYER_KINDS)}")
    types = {f.name: f.type for f in fields(LAYER_KINDS[kind])}
    if set(entry) != {"kind", *types}:
        raise ValueError(f"a {kind} layer has the keys {sorted(types)} besides 'kind', "
                         f"got {sorted(set(entry) - {'kind'})}")
    return LAYER_KINDS[kind](**{name: _size(entry[name]) if t == "int" else entry[name]
                                for name, t in types.items()})


def _arch_from_json(text: str) -> Architecture:
    """The architecture a checkpoint stores."""
    spec = json.loads(text)
    return Architecture(tuple(map(_size, spec["input_shape"])),
                        tuple(map(_layer_from_json, spec["layers"])))


def save_model(model: ModelState, path) -> None:
    """npz checkpoint; float64 arrays round-trip bit-exactly."""
    payload = {"__arch__": np.array(_arch_to_json(model.arch))}
    for name, p in model.params.items():
        payload[f"p:{name}"] = p.data
    for name, m in model.momentum.items():
        payload[f"m:{name}"] = m
    np.savez(path, **payload)


def load_model(path) -> ModelState:
    """Read a ``save_model`` checkpoint and check it against its stored
    architecture: one parameter and one momentum array per weight and bias,
    nothing else, each of the implied shape and finite. Any failure is a
    DataError naming the file and the entry."""
    try:
        blob = np.load(path, allow_pickle=False)
        if not isinstance(blob, np.lib.npyio.NpzFile):  # a bare .npy array
            raise ValueError("not an npz archive")
        with blob:
            arrays = {key: blob[key] for key in blob.files}
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        # numpy tries to unpickle bytes that are neither npz nor npy
        raise DataError(f"{path}: not an npz checkpoint") from exc
    try:
        arch = _arch_from_json(str(arrays.pop("__arch__")))
    except (KeyError, TypeError, ValueError, ShapeError) as exc:
        raise DataError(f"{path}: missing or malformed '__arch__': {exc}") from exc
    shapes = {}
    for i, (w_shape, _) in enumerate(arch.layer_shapes):
        shapes[f"layer{i}.w"], shapes[f"layer{i}.b"] = w_shape, w_shape[-1:]
    expected = {f"{kind}:{name}": shape
                for kind in ("p", "m") for name, shape in shapes.items()}
    extra = sorted(set(arrays) - set(expected))
    if extra:
        raise DataError(f"{path}: entry '{extra[0]}' is not in the stored architecture")
    for key, shape in expected.items():
        value = arrays.get(key)
        if value is None:
            raise DataError(f"{path}: missing '{key}'")
        if value.dtype.kind != "f" or value.shape != shape:
            raise DataError(f"{path}: '{key}' is {value.dtype} {value.shape}, "
                            f"the architecture needs float {shape}")
        if not np.all(np.isfinite(value)):
            raise DataError(f"{path}: '{key}' has non-finite values")
    params = {name: Tensor(arrays[f"p:{name}"], requires_grad=True) for name in shapes}
    momentum = {name: np.array(arrays[f"m:{name}"], dtype=np.float64) for name in shapes}
    return ModelState(arch, params, momentum)
