"""Outside-in tracing of the metamix layers.

A ``Tracer`` replaces the public functions of each layer with wrappers that
record one span per call: name, start, end and the span that was open when
the call began. It also counts every ``Tensor`` the engine builds, by op.
A wrapper goes wherever the original function object is referenced inside
the ``metamix`` package: the module attribute, names bound elsewhere by
``from ... import``, and module-level dicts such as ``nets.ACTIVATIONS``
(which holds the engine activations directly). Leaving the context puts
every original back.

Spans stay in memory and are folded into per-name totals by ``fold``, which
the benchmark calls after each traced call, outside the timed region. A
span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

HYPERGRADIENT = "meta.hypergradient"
BACKWARD_GRAPH = "engine.backward_graph"
BACKWARD_PLAIN = "engine.backward_plain"

# engine functions that are not graph primitives; every other public
# function defined in the engine module is spanned as a primitive
ENGINE_NON_PRIMITIVES = frozenset({
    "as_tensor", "is_grad_enabled", "apply_primitive", "backward",
    "finite_diff_hvp", "exact_hvp", "grad_check", "max_relative_error",
})

# (span name, module, attribute) for the layer functions outside the engine
LAYER_FUNCTIONS = (
    (HYPERGRADIENT, "meta", "hypergradient"),
    ("nets.forward", "nets", "forward"),
    ("nets.sgd_step", "nets", "sgd_step"),
    ("nets.clone_for_meta", "nets", "clone_for_meta"),
    ("nets.error_rate", "nets", "error_rate"),
    ("mixing.mix_batch", "mixing", "mix_batch"),
    ("semi.assign_pseudo_labels", "semi", "assign_pseudo_labels"),
    ("smoothness.estimate_kappa_network", "smoothness", "estimate_kappa_network"),
    ("smoothness.audit_network", "smoothness", "audit_network"),
    ("data.standard_splits", "data", "standard_splits"),
    ("data.augment_batch", "data", "augment_batch"),
)

# (span name, module, class, method)
LAYER_METHODS = (
    ("smoothness.field_value", "smoothness", "LogitField", "value"),
    ("smoothness.field_grad", "smoothness", "LogitField", "grad"),
)

# Spans that open with nothing else open and belong to the real update of a
# training step: its mix, forward, loss, backward and SGD step. The
# hypergradient, test evaluation, relabeling and augmentation are phases
# of their own.
REAL_UPDATE_ROOTS = frozenset({
    "mixing.mix_batch", "nets.forward", "nets.sgd_step", BACKWARD_PLAIN,
})

PHASES = ("mix", "inner_forward", "inner_backward", "val_forward",
          "hyper_backward", "real_update")


class Profile:
    """Per-name totals folded from one window of spans."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.out_bytes: dict[str, int] = defaultdict(int)
        self.node_count: dict[str, int] = defaultdict(int)
        self.node_bytes: dict[str, int] = defaultdict(int)
        self.phase_s: dict[str, float] = dict.fromkeys(PHASES, 0.0)


class Tracer:
    """Context manager that wraps the layer functions of an imported
    ``metamix`` package and restores them on exit."""

    def __init__(self, package):
        self.package = package
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._out_bytes: dict[str, int] = defaultdict(int)
        self._node_count: dict[str, int] = defaultdict(int)
        self._node_bytes: dict[str, int] = defaultdict(int)
        self.primitives: tuple[str, ...] = ()

    # -- installation -------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _replace_everywhere(self, original, replacement) -> None:
        """Swap ``original`` for ``replacement`` in every module namespace of
        the package and in every module-level dict that holds it."""
        for module in self._modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(namespace, key, replacement)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._set(value, dkey, replacement)

    def _set(self, mapping: dict, key, value) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def _set_attr(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        pkg = self.package
        engine = pkg.engine
        prims = []
        for name, fn in vars(engine).items():
            if (inspect.isfunction(fn) and fn.__module__ == engine.__name__
                    and not name.startswith("_") and name not in ENGINE_NON_PRIMITIVES):
                prims.append(name)
        self.primitives = tuple(sorted(prims))
        try:
            for name in self.primitives:
                fn = getattr(engine, name)
                self._replace_everywhere(fn, self._span(f"engine.{name}", fn, sized=True))
            if hasattr(engine, "backward"):
                self._replace_everywhere(engine.backward, self._backward_span(engine.backward))
            for span_name, mod, attr in LAYER_FUNCTIONS:
                fn = getattr(getattr(pkg, mod), attr, None)
                if fn is not None:
                    self._replace_everywhere(fn, self._span(span_name, fn))
            for span_name, mod, cls_name, attr in LAYER_METHODS:
                cls = getattr(getattr(pkg, mod), cls_name, None)
                if cls is not None and attr in cls.__dict__:
                    self._set_attr(cls, attr, self._span(span_name, cls.__dict__[attr]))
            self._set_attr(engine.Tensor, "__init__",
                           self._counted_init(engine.Tensor.__dict__["__init__"]))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._stack.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, sized: bool = False):
        spans, stack, out_bytes = self._spans, self._stack, self._out_bytes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if sized:
                data = getattr(result, "data", None)
                if data is not None:
                    out_bytes[name] += data.nbytes
            return result

        return wrapper

    def _backward_span(self, fn):
        graph = self._span(BACKWARD_GRAPH, fn)
        plain = self._span(BACKWARD_PLAIN, fn)
        params = list(inspect.signature(fn).parameters)
        position = params.index("create_graph") if "create_graph" in params else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if "create_graph" in kwargs:
                create = kwargs["create_graph"]
            else:
                create = position is not None and len(args) > position and args[position]
            return (graph if create else plain)(*args, **kwargs)

        return wrapper

    def _counted_init(self, init):
        count, nbytes = self._node_count, self._node_bytes

        @functools.wraps(init)
        def wrapper(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            op = getattr(tensor, "op", "unknown")
            count[op] += 1
            nbytes[op] += tensor.data.nbytes

        return wrapper

    # -- folding ------------------------------------------------------------

    def fold(self) -> Profile:
        """Totals for the spans recorded since the last fold; clears them."""
        if self._stack:
            raise RuntimeError("fold called while a traced call is still open")
        spans = self._spans
        prof = Profile()
        for mine, theirs in ((self._out_bytes, prof.out_bytes),
                             (self._node_count, prof.node_count),
                             (self._node_bytes, prof.node_bytes)):
            theirs.update(mine)
            mine.clear()
        child_s = [0.0] * len(spans)
        hyper_children: dict[int, list[int]] = defaultdict(list)
        for i, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_s[parent] += end - start
                if spans[parent][0] == HYPERGRADIENT:
                    hyper_children[parent].append(i)
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            prof.calls[name] += 1
            prof.self_s[name] += dur - child_s[i]
            prof.total_s[name] += dur
            if parent < 0 and (name in REAL_UPDATE_ROOTS
                               or name.removeprefix("engine.") in self.primitives):
                prof.phase_s["real_update"] += dur
        for kids in hyper_children.values():
            _fold_hypergradient(spans, kids, prof.phase_s)

        spans.clear()
        return prof


def _fold_hypergradient(spans, kids: list[int], phase_s: dict) -> None:
    """Split one hypergradient span's direct children into phases.

    Children that start before the create_graph backward build the inner
    (meta) loss; children between it and the plain backward evaluate the
    validation loss at the simulated weights."""
    graph_start = min((spans[k][1] for k in kids if spans[k][0] == BACKWARD_GRAPH),
                      default=float("inf"))
    plain_start = min((spans[k][1] for k in kids if spans[k][0] == BACKWARD_PLAIN),
                      default=float("inf"))
    for k in kids:
        name, start, end, _ = spans[k]
        dur = end - start
        if name == "mixing.mix_batch":
            phase_s["mix"] += dur
        elif name == BACKWARD_GRAPH:
            phase_s["inner_backward"] += dur
        elif name == BACKWARD_PLAIN:
            phase_s["hyper_backward"] += dur
        elif name == "nets.clone_for_meta":
            continue
        elif start < graph_start:
            phase_s["inner_forward"] += dur
        elif start < plain_start:
            phase_s["val_forward"] += dur
