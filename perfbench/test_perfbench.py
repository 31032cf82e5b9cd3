"""Checks on the benchmark's own tracing and metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import metamix  # noqa: E402
from metamix import engine, meta, nets  # noqa: E402

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, AuditSoftplus  # noqa: E402


def _one_epoch(seed: int = 3):
    workload = WORKLOADS["sup-mlp"]
    inputs = workload.setup(seed)
    inputs.config = dataclasses.replace(inputs.config, epochs=1)
    return workload, inputs


def _references():
    """Every value reachable from a metamix module namespace, one level into
    module-level dicts, plus the methods the tracer wraps on classes."""
    refs = {}
    for name, module in sys.modules.items():
        if module is None or not (name == "metamix" or name.startswith("metamix.")):
            continue
        for key, value in vars(module).items():
            refs[(name, key)] = value
            if isinstance(value, dict) and key != "__builtins__":
                for dkey, dvalue in value.items():
                    refs[(name, key, dkey)] = dvalue
    refs["Tensor.__init__"] = engine.Tensor.__dict__["__init__"]
    for attr in ("value", "grad"):
        refs[f"LogitField.{attr}"] = metamix.smoothness.LogitField.__dict__[attr]
    return refs


def test_tracer_restores_every_reference_it_wraps():
    before = _references()
    workload, inputs = _one_epoch()
    with Tracer(metamix) as tracer:
        # captured at import: the activation table holds the engine function
        assert nets.ACTIVATIONS["tanh"] is not before[("metamix.nets", "ACTIVATIONS", "tanh")]
        assert meta.augment_batch is not before[("metamix.meta", "augment_batch")]
        workload.call(inputs)
    traced = tracer.fold()
    assert traced.calls["engine.tanh"] > 0
    assert traced.calls["data.augment_batch"] > 0

    after = _references()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []

    # an untraced call after the context records nothing
    workload.call(inputs)
    untraced = tracer.fold()
    assert not untraced.calls and not untraced.node_count


def test_exact_counts_repeat_across_runs_with_the_same_seed():
    def counts():
        workload, inputs = _one_epoch()
        with Tracer(metamix) as tracer:
            workload.call(inputs)
        prof = tracer.fold()
        return dict(prof.calls), dict(prof.node_count), dict(prof.out_bytes)

    first, second = counts(), counts()
    assert first == second
    assert first[0]["meta.hypergradient"] == 9  # 480 rows / batch 50


def test_audit_bypasses_meta_and_mixing():
    audit = AuditSoftplus()
    audit.pairs = 200
    inputs = audit.setup(0)
    with Tracer(metamix) as tracer:
        outcome = audit.call(inputs)
    prof = tracer.fold()
    assert all(ok for _, ok, _ in audit.check(inputs, outcome).values())
    assert prof.calls["smoothness.field_value"] > 0
    assert prof.calls["meta.hypergradient"] == 0
    assert prof.calls["mixing.mix_batch"] == 0
    assert prof.calls["engine.backward_graph"] == 0


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
