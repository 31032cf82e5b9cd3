"""Dense float64 tensors with taped reverse-mode autodiff.

Every backward rule is written out of the same primitive set that builds the
forward pass, so a backward pass can itself be recorded and differentiated
(``create_graph=True``). That closure property serves the oracles: the
double backward through a simulated gradient step, against which the
one-step meta-gradient is checked (``meta.simulated_step_losses``), and
``exact_hvp``. Training builds no graph here: ``nets.loss_and_gradients``
runs the same forward formulas and vjp rules in plain numpy, bit for bit,
and ``backward`` of the same loss is its reference. The audit's logit
values and gradients run on the same numpy forward. The engine runs
``nets.forward``, which ``predict``, ``error_rate`` and the relabel pass
take, and the oracles.

Every primitive builds its node with one ``_result`` call. A backward rule
has the signature ``vjp(y, u, needs)``: ``y`` is the node's own output, ``u``
the upstream gradient, ``needs`` one flag per parent. Because ``backward``
hands ``y`` in, no rule closes over its own node, the graph has no reference
cycles, and reference counting frees it as soon as the loss is dropped.
``backward`` runs vjp rules only along paths that reach one of its targets:
a gradient no target reads is never computed, and with ``create_graph`` never
recorded.

All arrays are float64. Non-finite values are rejected at every node
construction, so a NaN or Inf surfaces at the primitive that produced it;
the numpy passes check their loss, gradients and updates instead, and the
numpy forward, with its tape or without, each layer's pre-activation.
"""

from __future__ import annotations

import itertools
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class EngineError(Exception):
    """Base class for tensor engine failures."""


class ShapeError(EngineError):
    """Operands have incompatible or unsupported shapes."""


class NonFiniteError(EngineError):
    """A NaN or Inf appeared in a tensor value."""


class UnreachableTargetWarning(RuntimeWarning):
    """A backward target was not reachable from the loss."""


_node_ids = itertools.count()
_grad_enabled = True


class no_grad:
    """Context manager that suppresses graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """A float64 array plus its position in the computation graph.

    Leaves have no parents. Interior nodes keep a ``vjp(y, u, needs)`` rule
    that maps the node itself (``y``) and an upstream gradient ``u`` to
    per-parent gradients, computing only those whose ``needs`` flag is set.
    Rules close over parents and constants, never over their own node.
    """

    def __init__(self, data, requires_grad: bool = False, *, op: str = "leaf",
                 parents: tuple = (), vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite values produced by '{op}'")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_ids)
        self.op = op
        self.parents = parents
        self.vjp = vjp

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return self.data.item()

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape}, grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, op: str, parents: tuple, vjp) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, True, op=op, parents=parents, vjp=vjp)
    return Tensor(data, False, op=op)


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def vjp(y, u, needs):
        ga = sum_to_shape(u, a.shape) if needs[0] else None
        gb = sum_to_shape(u, b.shape) if needs[1] else None
        return ga, gb

    return _result(out, "add", (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")

    def vjp(y, u, needs):
        ga = sum_to_shape(u, a.shape) if needs[0] else None
        gb = neg(sum_to_shape(u, b.shape)) if needs[1] else None
        return ga, gb

    return _result(out, "sub", (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def vjp(y, u, needs):
        ga = sum_to_shape(mul(u, b), a.shape) if needs[0] else None
        gb = sum_to_shape(mul(u, a), b.shape) if needs[1] else None
        return ga, gb

    return _result(out, "mul", (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _result(-a.data, "neg", (a,), lambda y, u, needs: (neg(u),))


def scale(a, c: float) -> Tensor:
    """a * c for a python scalar c (a graph constant)."""
    a = as_tensor(a)
    c = float(c)
    return _result(a.data * c, "scale", (a,), lambda y, u, needs: (scale(u, c),))


def add_scalar(a, c: float) -> Tensor:
    a = as_tensor(a)
    return _result(a.data + float(c), "add_scalar", (a,), lambda y, u, needs: (u,))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are not compatible 2-d operands")
    out = a.data @ b.data

    def vjp(y, u, needs):
        ga = matmul(u, transpose(b)) if needs[0] else None
        gb = matmul(transpose(a), u) if needs[1] else None
        return ga, gb

    return _result(out, "matmul", (a, b), vjp)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d, got shape {a.shape}")
    return _result(a.data.T.copy(), "transpose", (a,), lambda y, u, needs: (transpose(u),))


def bias_add(a, b) -> Tensor:
    """Add a length-c vector to the trailing axis of a."""
    a, b = as_tensor(a), as_tensor(b)
    if b.ndim != 1 or a.ndim < 1 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"bias_add: shapes {a.shape} and {b.shape}")
    out = a.data + b.data

    def vjp(y, u, needs):
        ga = u if needs[0] else None
        gb = sum_to_shape(u, b.shape) if needs[1] else None
        return ga, gb

    return _result(out, "bias_add", (a, b), vjp)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _result(out, "tanh", (a,),
                   lambda y, u, needs: (mul(u, add_scalar(neg(mul(y, y)), 1.0)),))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid_values(a.data)
    return _result(out, "sigmoid", (a,),
                   lambda y, u, needs: (mul(u, mul(y, add_scalar(neg(y), 1.0))),))


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """The one exp behind softplus and sigmoid: it lies in [0, 1], so it
    cannot overflow and needs no split by sign. The engine's rules and the
    numpy derivative tables (``nets``) share it and the two functions below,
    so both compute the same bits."""
    return np.exp(-np.abs(z))


def _sigmoid_values(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, from
    ``e = _exp_neg_abs(z)``: the same exp and division per sign as a split
    of the array by sign, so the same bits wherever z is not NaN."""
    if e is None:
        e = _exp_neg_abs(z)
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _softplus_values(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(z)) as max(z, 0) + log1p(e), ``e = _exp_neg_abs(z)``:
    within 2 ulp of ``np.logaddexp(0, z)``, and several times faster, since
    numpy vectorizes exp and log1p but runs logaddexp as a scalar loop."""
    if e is None:
        e = _exp_neg_abs(z)
    return np.maximum(z, 0.0) + np.log1p(e)


def softplus(a) -> Tensor:
    a = as_tensor(a)
    out = _softplus_values(a.data)

    def vjp(y, u, needs):
        return (mul(u, sigmoid(a)),)

    return _result(out, "softplus", (a,), vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def vjp(y, u, needs):
        # the mask is built here, not per call: no_grad inference never reads it
        return (mul(u, Tensor((a.data > 0).astype(np.float64))),)

    return _result(np.maximum(a.data, 0.0), "relu", (a,), vjp)


def exp(a) -> Tensor:
    a = as_tensor(a)
    return _result(np.exp(a.data), "exp", (a,), lambda y, u, needs: (mul(u, y),))


def sin(a) -> Tensor:
    a = as_tensor(a)
    return _result(np.sin(a.data), "sin", (a,), lambda y, u, needs: (mul(u, cos(a)),))


def cos(a) -> Tensor:
    a = as_tensor(a)
    return _result(np.cos(a.data), "cos", (a,), lambda y, u, needs: (neg(mul(u, sin(a))),))


def log_softmax(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"log_softmax: expected [n, classes], got shape {a.shape}")
    return _result(_log_softmax(a.data), "log_softmax", (a,),
                   lambda y, u, needs: (sub(u, mul(exp(y), row_sum(u))),))


def _log_softmax(a: np.ndarray) -> np.ndarray:
    s = a - a.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def row_sum(a) -> Tensor:
    """[n, c] -> [n, 1], summing each row."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"row_sum: expected 2-d, got shape {a.shape}")
    out = a.data.sum(axis=1, keepdims=True)
    return _result(out, "row_sum", (a,), lambda y, u, needs: (broadcast_to(u, a.shape),))


def mean_reduce(a) -> Tensor:
    a = as_tensor(a)
    n = a.size
    if n == 0:
        raise ShapeError("mean_reduce: empty tensor")
    out = a.data.mean()
    return _result(out, "mean_reduce", (a,),
                   lambda y, u, needs: (scale(broadcast_to(u, a.shape), 1.0 / n),))


def sum_reduce(a) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum()
    return _result(out, "sum_reduce", (a,), lambda y, u, needs: (broadcast_to(u, a.shape),))


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    if a.shape == shape:
        return a
    try:
        out = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {shape}")
    return _result(out, "broadcast_to", (a,), lambda y, u, needs: (sum_to_shape(u, a.shape),))


def sum_to_shape(a, shape) -> Tensor:
    """Reduce a back to `shape`, inverting a numpy-style broadcast."""
    a = as_tensor(a)
    shape = tuple(shape)
    if a.shape == shape:
        return a
    data = a.data
    extra = data.ndim - len(shape)
    if extra < 0:
        raise ShapeError(f"sum_to_shape: cannot reduce {a.shape} to {shape}")
    if extra:
        data = data.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (have, want) in enumerate(zip(data.shape, shape))
                 if want == 1 and have != 1)
    if axes:
        data = data.sum(axis=axes, keepdims=True)
    if data.shape != shape:
        raise ShapeError(f"sum_to_shape: {a.shape} does not reduce to {shape}")
    src_shape = a.shape
    return _result(data, "sum_to_shape", (a,),
                   lambda y, u, needs: (broadcast_to(u, src_shape),))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    src_shape = a.shape
    return _result(out, "reshape", (a,), lambda y, u, needs: (reshape(u, src_shape),))


def gather_rows(a, index) -> Tensor:
    """Select rows a[index] along axis 0; index is a constant int array."""
    a = as_tensor(a)
    idx = np.asarray(index, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: index must be 1-d, got shape {idx.shape}")
    if a.ndim < 1:
        raise ShapeError("gather_rows: cannot index a scalar")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    n_rows = a.shape[0]
    out = a.data[idx]
    return _result(out, "gather_rows", (a,),
                   lambda y, u, needs: (scatter_add_rows(u, idx, n_rows),))


def scatter_add_rows(a, index, n_rows: int) -> Tensor:
    """Inverse of gather_rows: out[j] = sum of a[i] over i with index[i] == j."""
    a = as_tensor(a)
    idx = np.asarray(index, dtype=np.intp)
    if idx.shape != (a.shape[0],):
        raise ShapeError(f"scatter_add_rows: index shape {idx.shape} vs {a.shape[0]} rows")
    out = np.zeros((n_rows,) + a.shape[1:], dtype=np.float64)
    np.add.at(out, idx, a.data)
    return _result(out, "scatter_add_rows", (a,),
                   lambda y, u, needs: (gather_rows(u, idx),))


# ---------------------------------------------------------------------------
# convolution (stride 1, zero-padded "same", odd kernels)


def _check_kernel(shape) -> int:
    """The size k of a [k, k, cin, cout] kernel shape: odd, at most 5."""
    if len(shape) != 4:
        raise ShapeError(f"conv2d: kernel must be [kh, kw, cin, cout], got shape {shape}")
    kh, kw = shape[0], shape[1]
    if kh != kw or kh % 2 == 0 or not 1 <= kh <= 5:
        raise ShapeError(f"conv2d: kernel must be square odd <= 5, got {kh}x{kw}")
    return kh


# most bytes of im2col columns per block of images in the conv kernels, about
# the L2 cache of one core: a block's columns are built, read by one GEMM and
# dropped, so no kernel holds the columns of a whole batch
CONV_BLOCK_BYTES = 2 << 20


def _block_images(per_image: int) -> int:
    """Images per block: as many as CONV_BLOCK_BYTES holds of their float64
    columns, ``per_image`` values each, and at least one."""
    return max(1, CONV_BLOCK_BYTES // (8 * per_image))


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """[n,h,w,c] -> [n*h*w, k*k*c] patches under same padding, (kh,kw,c) order.

    The forward kernel and the weight gradient build them one block of images
    at a time and drop them after the block's GEMM."""
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    # win[n,i,j,c,p,q] = xp[n, i+p, j+q, c]; reorder windows to (p, q, c)
    n, h, w = x.shape[0], x.shape[1], x.shape[2]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w, k * k * x.shape[3])


def _conv_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The conv output [n,h,w,cout] of x [n,h,w,cin]: per block of images,
    one GEMM of the block's ``_im2col`` columns, written into the output.
    A batch that one block holds takes the whole-batch GEMM's bits. Past a
    block, BLAS may round a row by where it falls in its GEMM (a micro-kernel's
    leftover rows, a small-matrix or gemv path for few output channels);
    cnn3's shapes keep the whole-batch bits (``tests/test_engine.py``)."""
    k, _, cin, cout = w.shape
    n, h, wd, _ = x.shape
    out = np.empty((n, h, wd, cout))
    flat = w.reshape(k * k * cin, cout)
    step = _block_images(h * wd * k * k * cin)
    for i in range(0, n, step):
        np.matmul(_im2col(x[i:i + step], k), flat,
                  out=out[i:i + step].reshape(-1, cout))
    return out


def _conv_input_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Correlate the output gradient g [n,h,w,cout] with the spatially
    flipped, channel-swapped kernel, as k*k shifted GEMMs and no columns,
    one block of images at a time.

    With a block of g zero-padded and flattened to rows, row r of the result
    (indexed over the padded grid) takes tap (p, q) from row r + p*W + q, W
    the padded width, so each tap is one contiguous slice of rows times a
    [cout, cin] slice of the flipped kernel. Rows whose taps wrap past an
    image's edge fall in the padding, which the crop to the valid h x w
    window drops, so each image's result reads its own rows only; its bits
    follow the block as the forward's do."""
    k, _, cin, cout = w.shape
    n, h, wd, _ = g.shape
    pad = (k - 1) // 2
    width = wd + 2 * pad
    flip = w[::-1, ::-1]
    out = np.empty((n, h, wd, cin))
    step = _block_images(h * wd * k * k * cout)   # the columns it does not build
    for i in range(0, n, step):
        block = g[i:i + step]
        flat = np.pad(block, ((0, 0), (pad, pad), (pad, pad), (0, 0))).reshape(-1, cout)
        m = len(flat) - (k - 1) * (width + 1)   # the last valid row is row m - 1
        grid = np.zeros((len(flat), cin))
        acc = grid[:m]
        for p in range(k):
            for q in range(k):
                s = p * width + q
                acc += flat[s:s + m] @ flip[p, q].T
        out[i:i + step] = grid.reshape(len(block), h + 2 * pad, width, cin)[:, :h, :wd]
    return out


def _conv_weight_grad(x: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """The kernel gradient [k,k,cin,cout] from the conv input x [n,h,w,cin]
    and the output gradient g [n,h,w,cout]: per block of images, the GEMM of
    the block's ``_im2col`` columns with its rows of g, summed over blocks
    into one [k*k*cin, cout] array. A batch that one block holds takes the
    whole-batch GEMM's bits; past a block, the sum over rows runs block by
    block, in another order, within 1e-14 (``tests/test_engine.py``)."""
    cin, cout = x.shape[3], g.shape[3]
    step = _block_images(x.shape[1] * x.shape[2] * k * k * cin)
    out = _im2col(x[:step], k).T @ g[:step].reshape(-1, cout)
    for i in range(step, len(x), step):
        out += _im2col(x[i:i + step], k).T @ g[i:i + step].reshape(-1, cout)
    return out.reshape(k, k, cin, cout)


def conv2d(x, w) -> Tensor:
    """Cross-correlation, stride 1, same zero padding. x [n,h,w,ci], w [k,k,ci,co]."""
    x, w = as_tensor(x), as_tensor(w)
    k = _check_kernel(w.shape)
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be [n, h, w, c], got shape {x.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeError(f"conv2d: input channels {x.shape[3]} != kernel cin {w.shape[2]}")
    out = _conv_forward(x.data, w.data)

    def vjp(y, u, needs):
        gx = conv2d_input_grad(u, w) if needs[0] else None
        gw = conv2d_weight_grad(x, u, k) if needs[1] else None
        return gx, gw

    return _result(out, "conv2d", (x, w), vjp)


def conv2d_input_grad(g, w) -> Tensor:
    """Input gradient of conv2d: correlate the output gradient g [n,h,w,cout]
    with the spatially flipped, channel-swapped kernel."""
    g, w = as_tensor(g), as_tensor(w)
    k = _check_kernel(w.shape)
    if g.ndim != 4 or g.shape[3] != w.shape[3]:
        raise ShapeError(f"conv2d_input_grad: g shape {g.shape} vs kernel {w.shape}")
    out = _conv_input_grad(g.data, w.data)

    def vjp(y, u, needs):
        gg = conv2d(u, w) if needs[0] else None
        gw = conv2d_weight_grad(u, g, k) if needs[1] else None
        return gg, gw

    return _result(out, "conv2d_input_grad", (g, w), vjp)


def conv2d_weight_grad(x, g, kernel: int) -> Tensor:
    """Kernel gradient of conv2d from input x [n,h,w,cin] and output gradient
    g [n,h,w,cout]. The kernel size cannot be recovered from x and g, so it is
    passed explicitly."""
    x, g = as_tensor(x), as_tensor(g)
    if x.ndim != 4 or g.ndim != 4 or x.shape[:3] != g.shape[:3]:
        raise ShapeError(f"conv2d_weight_grad: shapes {x.shape} and {g.shape}")
    k = _check_kernel((int(kernel), int(kernel), x.shape[3], g.shape[3]))
    out = _conv_weight_grad(x.data, g.data, k)

    def vjp(y, u, needs):
        gx = conv2d_input_grad(g, u) if needs[0] else None
        gg = conv2d(x, u) if needs[1] else None
        return gx, gg

    return _result(out, "conv2d_weight_grad", (x, g), vjp)


# ---------------------------------------------------------------------------
# graph traversal


def backward(loss: Tensor, targets: Sequence[Tensor], create_graph: bool = False):
    """Reverse-mode gradients of a scalar loss w.r.t. each target tensor.

    Returns a list aligned with ``targets``. A target that the loss does not
    depend on gets a zero gradient plus an UnreachableTargetWarning rather
    than an error. With ``create_graph=True`` the returned gradients are graph
    nodes themselves and can be differentiated again.

    A vjp rule asks only for the parents that lie on a path from a target to
    the loss, and a node with none is skipped. Every target still receives
    the same contributions in the same order, so its gradient is bit for bit
    the one a backward over more targets would return.
    """
    if loss.shape != ():
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.shape}")
    targets = list(targets)

    order: list[Tensor] = []
    if loss.requires_grad:
        seen = set()
        stack: list[tuple[Tensor, bool]] = [(loss, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node.node_id in seen or not node.requires_grad:
                continue
            seen.add(node.node_id)
            stack.append((node, True))
            for p in node.parents:
                stack.append((p, False))

    # parents precede children in `order`, so one pass finds every node that
    # depends on a target (a target depends on itself); only edges into such
    # parents carry a gradient that some target reads. Every node in `order`
    # requires grad, so these flags are a subset of `requires_grad`.
    target_ids = {t.node_id for t in targets}
    downstream = set()
    for node in order:
        if node.node_id in target_ids or any(p.node_id in downstream
                                             for p in node.parents):
            downstream.add(node.node_id)

    grads: dict[int, Tensor] = {loss.node_id: Tensor(np.ones(()))}
    ctx = nullcontext() if create_graph else no_grad()
    with ctx:
        for node in reversed(order):
            g = grads.get(node.node_id)
            if g is None or node.vjp is None:
                continue
            needs = tuple(p.node_id in downstream for p in node.parents)
            if not any(needs):
                continue
            parent_grads = node.vjp(node, g, needs)
            for p, pg, need in zip(node.parents, parent_grads, needs):
                if pg is None or not need:
                    continue
                held = grads.get(p.node_id)
                grads[p.node_id] = pg if held is None else add(held, pg)

    results = []
    missing = 0
    for t in targets:
        g = grads.get(t.node_id)
        if g is None:
            missing += 1
            g = Tensor(np.zeros(t.shape))
        results.append(g)
    if missing:
        warnings.warn(f"backward: {missing} target(s) unreachable from the loss; "
                      "returning zero gradients", UnreachableTargetWarning)
    return results


# ---------------------------------------------------------------------------
# numeric oracles


def finite_diff_hvp(loss_builder, params: Sequence[Tensor], direction,
                    epsilon: float):
    """Central-difference Hessian-vector product.

    ``loss_builder`` maps a list of parameter leaves to a scalar Tensor and is
    called at params +/- epsilon*direction; gradients are taken w.r.t. the
    shifted leaves. Returns plain (graph-free) Tensors.
    """
    if epsilon <= 0:
        raise ValueError(f"finite_diff_hvp: epsilon must be positive, got {epsilon}")
    params = list(params)
    direction = [np.asarray(v.data if isinstance(v, Tensor) else v, dtype=np.float64)
                 for v in direction]
    if len(direction) != len(params):
        raise ValueError("finite_diff_hvp: direction count does not match params")
    for p, v in zip(params, direction):
        if p.shape != v.shape:
            raise ShapeError(f"finite_diff_hvp: direction shape {v.shape} vs param {p.shape}")

    def grads_at(sign: float):
        shifted = [Tensor(p.data + sign * epsilon * v, requires_grad=True)
                   for p, v in zip(params, direction)]
        return [g.data for g in backward(loss_builder(shifted), shifted)]

    hi = grads_at(+1.0)
    lo = grads_at(-1.0)
    return [Tensor((a - b) / (2.0 * epsilon)) for a, b in zip(hi, lo)]


def exact_hvp(loss_builder, params: Sequence[Tensor], direction):
    """Hessian-vector product by double backward: d/dp <grad L, v>."""
    params = list(params)
    direction = [as_tensor(v) for v in direction]
    loss = loss_builder(params)
    grads = backward(loss, params, create_graph=True)
    dot = None
    for g, v in zip(grads, direction):
        term = sum_reduce(mul(g, v.detach()))
        dot = term if dot is None else add(dot, term)
    return backward(dot, params)


@dataclass
class CheckReport:
    analytic: np.ndarray
    numeric: np.ndarray
    rel_errors: np.ndarray
    max_rel_error: float
    tolerance: float
    passed: bool


def grad_check(function, point: Tensor, epsilon: float = 1e-5,
               tolerance: float = 1e-6) -> CheckReport:
    """Compare the engine gradient of a scalar function against central differences.

    Relative error uses a unit floor, |a - n| / max(1, |a|, |n|) per
    coordinate, so coordinates whose true gradient is ~0 are compared
    absolutely. Failures are reported in the CheckReport, not raised.
    """
    leaf = Tensor(np.array(point.data if isinstance(point, Tensor) else point,
                           dtype=np.float64, copy=True), requires_grad=True)
    loss = function(leaf)
    if loss.shape != ():
        raise ShapeError("grad_check: function must return a scalar")
    (analytic,) = backward(loss, [leaf])
    analytic = analytic.data.copy()

    # note: evaluations run with recording enabled because the probed function
    # may need internal gradients of its own (bilevel losses do)
    flat = leaf.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        hi = float(function(Tensor(leaf.data)).data)
        flat[i] = orig - epsilon
        lo = float(function(Tensor(leaf.data)).data)
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * epsilon)
    numeric = numeric.reshape(leaf.shape)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    max_rel = float(rel.max()) if rel.size else 0.0
    return CheckReport(analytic=analytic, numeric=numeric, rel_errors=rel,
                       max_rel_error=max_rel, tolerance=tolerance,
                       passed=bool(max_rel <= tolerance))


def max_relative_error(a, b, floor: float = 1.0) -> float:
    """max |a-b| / max(floor, |a|_inf, |b|_inf), a scalar summary for tests."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(floor, float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0) / denom)
