"""Bit-identity fingerprints of seeded training runs on the benchmark setups.

For each (workload setup, seed, mode) the script trains once and prints one
line holding two sha256 digests: one of every ``EpochRecord`` field except
``wall_seconds``, one of the final parameters and momentum. A change that
must keep seeded results bit-identical prints the same lines before and
after it:

    python3 scripts/fingerprint.py > before.txt   # on the old tree
    python3 scripts/fingerprint.py > after.txt    # on the new tree
    diff before.txt after.txt

Run it from the repository root. metamix is imported from ``src/`` and the
setups (data, config, architecture) from ``perfbench/workloads.py``, which is
only read. Every mode in ``CASES`` runs at each seed in ``SEEDS`` (20 lines),
and so does metamixup on the sup-mlp setup with each net of ``ACTIVATIONS``
(4 lines), which trains the activations no benchmark setup uses; the MLP
setups are cut to ``EPOCHS`` epochs, cnn-synth keeps its single epoch of
three steps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from metamix import meta, nets, semi  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CASES = {
    "sup-mlp": ("metamixup", "mixup-beta", "mixup-fixed", "baseline"),
    "ssl-mlp": ("metamixup", "mixup-beta", "mixup-fixed", "baseline"),
    "cnn-synth": ("metamixup", "mixup-beta"),
}
# sup-mlp's 10-32-2 net with another activation, trained by metamixup
ACTIVATIONS = ("sigmoid", "softplus")
SEEDS = (0, 1)
EPOCHS = 2


def digest_records(records) -> str:
    rows = []
    for rec in records:
        row = dataclasses.asdict(rec)
        del row["wall_seconds"]
        rows.append(row)
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def digest_state(model) -> str:
    h = hashlib.sha256()
    for kind, arrays in (("p", {k: p.data for k, p in model.params.items()}),
                         ("m", model.momentum)):
        for name in sorted(arrays):
            h.update(f"{kind}:{name}".encode())
            h.update(arrays[name].tobytes())
    return h.hexdigest()


def fingerprint(name: str, seed: int, mode: str, activation: str | None = None) -> str:
    inputs = WORKLOADS[name].setup(seed)
    config = dataclasses.replace(inputs.config, mode=mode,
                                 epochs=min(EPOCHS, inputs.config.epochs))
    label = f"{name} seed={seed} mode={mode}"
    if activation is not None:
        config.arch = nets.mlp(10, [32], 2, activation=activation)
        label += f" activation={activation}"
    if inputs.unlabeled is not None:
        report = semi.train_ssl(inputs.splits, inputs.unlabeled, config)
    else:
        report = meta.train_supervised(inputs.splits, config)
    return (f"{label} records={digest_records(report.records)} "
            f"state={digest_state(report.model)}")


def main() -> None:
    for name, modes in CASES.items():
        for seed in SEEDS:
            for mode in modes:
                print(fingerprint(name, seed, mode), flush=True)
    for activation in ACTIVATIONS:
        for seed in SEEDS:
            print(fingerprint("sup-mlp", seed, "metamixup", activation), flush=True)


if __name__ == "__main__":
    main()
