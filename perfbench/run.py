"""metamix benchmark: one workload per run, every metric by name with its unit.

    python3 perfbench/run.py --workload sup-mlp --seed 0 --seconds 10 --trace 0

Run from the repository root; metamix is imported from ``src/``. A run sets
the workload up several times from ``--seed`` (the median is ``setup_s``),
makes one untimed warm-up call, then repeats the workload's fixed call until
``--seconds`` have passed and reports medians over the calls. It then checks
the outputs. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the environment, each metric and each check. A failed check
or an exception counts every op of the run as failed and exits with 1.
Without the metamix sources the run exits with 2 and prints no result.

Workloads (an op is a training step, or a gap evaluation or kappa gradient
row on the audit):

    sup-mlp         criterion-7 MLP, batch 50: per-node Python overhead in
                    the engine and the meta double backward
    ssl-mlp         criterion-8 SSL, batch 8: two mixing groups per step and
                    a relabel pass per epoch; the accepted share moves
    cnn-synth       cnn3 on 28x28x1 synthetic images, batch 50: BLAS and
                    im2col bound, peak memory from the conv graph
    audit-softplus  kappa estimate and gap audit of a softplus MLP: first
                    order, large no_grad batches, no mixing and no meta

End-to-end metrics (``--trace 0``):

    setup_s         s       median time to build data, splits and model
    samples_per_s   rows/s  rows through the network per second of a call:
                            labeled plus pseudo rows through real updates
                            on training, value plus gradient rows on audit
    evals_per_s     ops/s   ops per second of a call
    peak_rss_mb     MB      peak resident memory of this process

``test_error`` is printed and checked on the training workloads but is not
an end-to-end metric: it moves with the seed by design.

Per-layer metrics (``--trace 1``) come from ``tracing.Tracer``, which wraps
each layer from outside. Values are per call (``nodes_per_step`` and
``node_mb_per_step`` per op), averaged over the traced calls. Layer, the
end-to-end metric it should move, and the workloads that use / bypass it:

    engine      nodes, node MB, backward self time, per-primitive calls,
                self time and output MB, tracemalloc peak
                -> samples_per_s, peak_rss_mb.  Node and dispatch counts:
                sup-mlp, ssl-mlp / cnn-synth.  conv2d*: cnn-synth / others
    meta        hypergradient calls and time, phase split
                -> samples_per_s.  training workloads / audit-softplus
    nets        forward, sgd_step, clone_for_meta, error_rate
                -> samples_per_s.  training workloads / audit-softplus
                (which runs forward only)
    mixing      mix_batch -> samples_per_s.  training / audit-softplus
    semi        relabel time, accepted share, pseudo-label accuracy
                -> samples_per_s.  ssl-mlp / sup-mlp
    smoothness  field value and gradient calls, kappa and audit time
                -> evals_per_s.  audit-softplus / training workloads
    data        standard_splits (during a traced setup), augment_batch
                -> setup_s.  all workloads

A traced run alternates untraced and traced calls; ``trace.overhead_s`` is
the difference of their median call times.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

from tracing import PHASES, Tracer

ROOT = Path(__file__).resolve().parent.parent
# set-up is repeated at least SETUP_REPEATS times and for SETUP_SECONDS
SETUP_REPEATS = 15
SETUP_SECONDS = 1.0

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "rows/s",
    "evals_per_s": "ops/s",
    "peak_rss_mb": "MB",
}

# engine primitives reported one by one; every primitive is spanned
REPORTED_PRIMITIVES = (
    "matmul", "mul", "add", "sub", "transpose", "sum_to_shape", "broadcast_to",
    "gather_rows", "scatter_add_rows", "log_softmax", "tanh", "relu",
    "softplus", "sigmoid", "conv2d", "conv2d_input_grad", "conv2d_weight_grad",
)


def per_layer_units() -> dict[str, str]:
    units = {
        "engine.nodes_per_step": "count",
        "engine.node_mb_per_step": "MB",
        "engine.backward_graph.self_s": "s",
        "engine.backward_plain.self_s": "s",
    }
    for prim in REPORTED_PRIMITIVES:
        units[f"engine.{prim}.calls"] = "count"
        units[f"engine.{prim}.self_s"] = "s"
        units[f"engine.{prim}.out_mb"] = "MB"
    units["engine.traced_peak_mb"] = "MB"
    units["meta.hypergradient.calls"] = "count"
    units["meta.hypergradient.total_s"] = "s"
    for phase in PHASES:
        units[f"meta.phase.{phase}_s"] = "s"
    units.update({
        "nets.forward.calls": "count",
        "nets.forward.self_s": "s",
        "nets.sgd_step.self_s": "s",
        "nets.clone_for_meta.self_s": "s",
        "nets.error_rate.self_s": "s",
        "mixing.mix_batch.calls": "count",
        "mixing.mix_batch.self_s": "s",
        "semi.assign_pseudo_labels.self_s": "s",
        "semi.accept_ratio": "fraction",
        "semi.pseudo_accuracy": "fraction",
        "smoothness.field_value.calls": "count",
        "smoothness.field_value.self_s": "s",
        "smoothness.field_grad.calls": "count",
        "smoothness.field_grad.self_s": "s",
        "smoothness.estimate_kappa_network.total_s": "s",
        "smoothness.audit_network.total_s": "s",
        "data.standard_splits.total_s": "s",
        "data.augment_batch.self_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


def environment() -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "blas": "unknown",
        "blas_version": "unknown",
        "blas_threads": None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"], env["blas_version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    return env


class Run:
    """Bookkeeping for one benchmark run."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.inputs = None
        self.outcomes = []

    def setup(self) -> float:
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            t0 = time.perf_counter()
            self.inputs = self.workload.setup(self.seed)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def call(self, warmup: bool = False):
        # retained graphs hold reference cycles; collecting them between
        # calls keeps one call's garbage out of the next call's time and peak
        gc.collect()
        t0 = time.perf_counter()
        outcome = self.workload.call(self.inputs, warmup=warmup)
        elapsed = time.perf_counter() - t0
        self.attempted += outcome.ops
        if not warmup:
            self.outcomes.append(outcome)
        return outcome, elapsed

    def checks(self) -> dict:
        first = self.outcomes[0]
        results = self.workload.check(self.inputs, self.outcomes[-1])
        same = all(o.fingerprint == first.fingerprint for o in self.outcomes)
        results["repeat_identical"] = (len(self.outcomes), same,
                                       "every call on the same inputs agrees")
        return results


def measure(run: Run) -> dict:
    setup_s = run.setup()
    run.call(warmup=True)
    deadline = time.perf_counter() + run.seconds
    rates = []
    while not rates or time.perf_counter() < deadline:
        outcome, elapsed = run.call()
        rates.append((outcome.rows / elapsed, outcome.ops / elapsed))
    return {
        "setup_s": setup_s,
        "samples_per_s": statistics.median(r[0] for r in rates),
        "evals_per_s": statistics.median(r[1] for r in rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(run: Run, metamix) -> dict:
    with Tracer(metamix) as tracer:
        run.inputs = run.workload.setup(run.seed)
        setup_prof = tracer.fold()

    tracemalloc.start()
    try:
        run.call(warmup=True)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    plain, traced, profiles = [], [], []
    deadline = time.perf_counter() + run.seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run.call()[1])
        with Tracer(metamix) as tracer:
            outcome, elapsed = run.call()
        traced.append(elapsed)
        profiles.append(tracer.fold())
    overhead = statistics.median(traced) - statistics.median(plain)
    return layer_metrics(profiles, setup_prof, outcome, {
        "engine.traced_peak_mb": traced_peak / 1e6,
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / statistics.median(plain),
    })


def layer_metrics(profiles, setup_prof, outcome, extra: dict) -> dict:
    """Per-call means over the traced calls, by metric name: ``<span>.calls``,
    ``.self_s``, ``.total_s`` and ``.out_mb`` come from the span totals."""
    k = len(profiles)

    def mean(attr: str, name: str) -> float:
        return sum(getattr(p, attr).get(name, 0) for p in profiles) / k

    values = {}
    for name in per_layer_units():
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s", "total_s"):
            values[name] = mean(kind, span)
        elif kind == "out_mb":
            values[name] = mean("out_bytes", span) / 1e6
    for phase in PHASES:
        values[f"meta.phase.{phase}_s"] = sum(p.phase_s[phase] for p in profiles) / k
    nodes = sum(sum(p.node_count.values()) for p in profiles) / k
    node_bytes = sum(sum(p.node_bytes.values()) for p in profiles) / k
    values.update({
        "engine.nodes_per_step": nodes / outcome.ops,
        "engine.node_mb_per_step": node_bytes / outcome.ops / 1e6,
        "data.standard_splits.total_s": setup_prof.total_s.get("data.standard_splits", 0.0),
        "semi.accept_ratio": outcome.accept_ratio,
        "semi.pseudo_accuracy": outcome.pseudo_accuracy,
    })
    values.update(extra)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "metamix" / "__init__.py").is_file():
        print(f"perfbench: no metamix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import metamix
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    units = per_layer_units() if args.trace else END_TO_END
    values, checks, correct = {}, {}, False
    try:
        values = measure_traced(run, metamix) if args.trace else measure(run)
        checks = run.checks()
        correct = all(ok for _, ok, _ in checks.values())
    except Exception:
        traceback.print_exc()

    for name, (value, ok, rule) in checks.items():
        print(f"check {name} {value} ({rule}) {'PASS' if ok else 'FAIL'}")
    if run.outcomes and not math.isnan(run.outcomes[-1].test_error):
        print(f"test_error {run.outcomes[-1].test_error} fraction")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    attempted = max(run.attempted, 1)
    print(f"ops_attempted {attempted}")
    print(f"ops_failed {0 if correct else attempted}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
