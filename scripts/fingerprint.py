"""Bit-identity fingerprints of seeded training runs and smoothness audits on
the benchmark setups.

For each (workload setup, seed, mode) the script trains once and prints one
line holding two sha256 digests: one of every ``EpochRecord`` field except
``wall_seconds``, one of the final parameters and momentum. A change that
must keep seeded results bit-identical prints the same lines before and
after it:

    python3 scripts/fingerprint.py > before.txt   # on the old tree
    python3 scripts/fingerprint.py > after.txt    # on the new tree
    diff before.txt after.txt

A change that may move results by rounding only (a kernel that computes the
same function through other floating-point operations) cannot keep every
line. Report it by the lines that moved, named by their labels, and, for
each digest on them, the largest relative change of the values behind it
(records, parameters, kappa and audit ratios), computed by calling the same
functions on both trees; every other line must stay the same.

Run it from the repository root. metamix is imported from ``src/`` and the
setups (data, config, architecture) from ``perfbench/workloads.py``, which is
only read. Every mode in ``CASES`` runs at each seed in ``SEEDS`` (20 lines),
and so does metamixup on the sup-mlp setup with each net of ``ACTIVATIONS``
(4 lines), which trains the activations no benchmark setup uses; the MLP
setups are cut to ``EPOCHS`` epochs, cnn-synth keeps its single epoch of
three steps. One more line trains ``CONV_TRAIN_ARCH`` by metamixup for one
epoch on 8x8x1 points, which pins a conv layer with a nonzero f'' and a
conv layer without activation through the forward, reverse and tangent
passes.

Then come the audit lines. The audit-softplus net at each seed in
``AUDIT_SEEDS`` estimates kappa from ``AUDIT_PAIRS`` pairs and is audited over
as many fresh pairs at each factor of ``AUDIT_FACTORS`` times the estimate.
Below 1 several channels violate the bound, so each line also pins which
channel is reported: channel 0 at seeds 0 and 1, channels 1 and 2 at seed 3.
One more line does the same at seed 0 over ``REST_PAIRS`` pairs, which split
into 512-row chunks with a rest of under 4 rows, and so does one line per
activation of ``AUDIT_ACTIVATIONS`` on the same net with that activation,
built from seed 0, which pins the activations no benchmark audit runs. One
line audits a softplus
conv net on 8x8x1 points the same way, from ``CONV_PAIRS`` pairs at 1.2 times
its estimate, which pins the conv input gradient of the audit. One line
audits a seeded ``cnn3()`` on 28x28x1 points over ``CNN3_PAIRS`` pairs, which
span several 8-row chunks with a rest of under 4 rows, at each factor of
``AUDIT_FACTORS``. One line audits a quadratic at its estimated constant.
One line holds the sha256 of ``nets.batched_logits`` of a seeded ``cnn3()``
on ``INFERENCE_IMAGES`` rows of 28x28, and of ``LogitField.grad`` on the
first ``GRAD_IMAGES`` of them, which pins how inference chunks its rows.

Then one line holds the sha256 of the ``nets.save_model`` bytes of three
freshly built nets (``CHECKPOINT_NETS``), so a change to the checkpoint format
shows up in the diff.

The last lines run ``metamix`` command lines (``CLI_RUNS``) in-process, each in
a fresh temporary directory that is also the working directory, so the paths
a run prints and echoes are the same on every run. Each line holds the sha256
of the run's stdout and of what it writes into ``--out``: ``config.json``,
``metrics.jsonl`` without ``wall_seconds``, ``model.npz``, ``audit.json`` and
``pairs.csv``, where the run writes them. A last line holds the sha256 of
each subcommand's ``--help`` text (``HELP_SUBCOMMANDS``), formatted at
``HELP_COLUMNS`` columns, so a change to a flag's help, default or name shows
up too. To check that a change to the command line keeps valid runs as they
were, copy this script into a checkout of the parent commit, run it there,
and diff its output against the output here:

    git archive PARENT | tar -x -C /tmp/parent
    cp scripts/fingerprint.py /tmp/parent/scripts/
    (cd /tmp/parent && python3 scripts/fingerprint.py) > before.txt
    python3 scripts/fingerprint.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from metamix import cli, data, meta, nets, semi, smoothness  # noqa: E402
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
# trained on 8x8x1 points of 3 classes for the conv training line
CONV_TRAIN_ARCH = nets.Architecture((8, 8, 1), (
    nets.Conv(3, 4, "tanh"), nets.Conv(3, 4, None), nets.Dense(3)))
AUDIT_SEEDS = (0, 1, 3)
AUDIT_PAIRS = 2_000
AUDIT_FACTORS = (0.3, 1.2)
REST_PAIRS = 1_026
# the audit-softplus net with another activation, audited over REST_PAIRS pairs
AUDIT_ACTIVATIONS = ("tanh", "sigmoid")
CONV_PAIRS = 1_000
CNN3_PAIRS = 42
INFERENCE_IMAGES = 200
GRAD_IMAGES = 20
# name -> architecture, each built from seed 0 for the checkpoint line
CHECKPOINT_NETS = {
    "cnn3": nets.cnn3((8, 8), 1, 3),
    "mlp-softplus": nets.mlp(10, [32], 2, activation="softplus"),
    "conv-linear": nets.Architecture((8, 8, 1), (nets.Conv(3, 4, None), nets.Dense(3))),
}

SMALL = ["--epochs", "2", "--per-class", "30", "--dim", "5", "--batch-size", "10",
         "--meta-val-per-class", "5"]
# label -> (argv after the program name, run.cfg text or None); --out is out/
CLI_RUNS = {
    "train": (["train", "--seed", "5", *SMALL], None),
    "ssl": (["ssl", "--per-class", "40", "--dim", "5", "--epochs", "2",
             "--batch-size", "10", "--meta-val-per-class", "5",
             "--labeled-per-class", "8", "--sigma0", "0.6", "--seed", "4"], None),
    "train-config": (["train", "--config", "run.cfg", "--epochs", "2"],
                     "mode=mixup-beta\ncosine=true\nseed=3\nper_class=30\ndim=5\n"
                     "batch_size=10\nmeta_val_per_class=5\n"),
    "audit-network": (["audit", "--per-class", "30", "--dim", "5", "--n-pairs", "300",
                       "--seed", "3"], None),
    "audit-quadratic": (["audit", "--field", "quadratic", "--diag", "1,3",
                         "--n-pairs", "400", "--seed", "1"], None),
    "gradcheck": (["gradcheck", "--seed", "0"], None),
}
HELP_SUBCOMMANDS = ("train", "ssl", "audit", "gradcheck")
HELP_COLUMNS = "100"


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


def conv_training_fingerprint() -> str:
    """One metamixup epoch of ``CONV_TRAIN_ARCH`` at batch 10, seed 0, on
    synthetic 64-dimensional blobs in the unit box, shaped 8x8."""
    spec = data.SyntheticSpec(classes=3, per_class=30, dim=64, unit_box=True)
    raw = data.standard_splits(spec, seed=0, meta_val_per_class=5, test_per_class=10)
    splits = data.Splits(*(dataclasses.replace(ds, inputs=ds.inputs.reshape(len(ds), 8, 8))
                           for ds in (raw.train, raw.meta_val, raw.test)))
    config = meta.TrainConfig(mode="metamixup", epochs=1, batch_size=10, seed=0,
                              arch=CONV_TRAIN_ARCH)
    report = meta.train_supervised(splits, config)
    return (f"conv-train seed=0 mode=metamixup records={digest_records(report.records)} "
            f"state={digest_state(report.model)}")


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray)
                 else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def network_audit_fingerprint(label: str, model, pool, pairs: int, seed: int) -> str:
    """A model's kappa estimate from ``pairs`` pairs of ``pool`` and its audits
    over as many fresh pairs at each factor of ``AUDIT_FACTORS``."""
    sampler = lambda n, r: smoothness.sample_pairs(pool, n, r)
    est = smoothness.estimate_kappa_network(
        model, sampler, pairs, np.random.default_rng(seed + 1))
    line = (f"{label} pairs={pairs} estimate="
            + digest(est.kappa, list(est.per_channel), est.n_pairs,
                     est.distance_min, est.distance_mean, est.distance_max))
    fresh = sampler(pairs, np.random.default_rng(seed + 2))
    for factor in AUDIT_FACTORS:
        rep, channel = smoothness.audit_network(model, factor * est.kappa, fresh)
        line += f" audit@{factor}=" + digest(rep.rows, rep.worst_pair, rep.violations,
                                             rep.max_ratio, channel)
    return line


def audit_fingerprint(seed: int, pairs: int = AUDIT_PAIRS) -> str:
    """The audit-softplus net's kappa estimate and its audits."""
    inputs = WORKLOADS["audit-softplus"].setup(seed)
    return network_audit_fingerprint(f"audit-softplus seed={seed}", inputs.model,
                                     inputs.pool, pairs, seed)


def activation_audit_fingerprint(activation: str) -> str:
    """The audit-softplus net's shape and pool at seed 0, with ``activation``."""
    inputs = WORKLOADS["audit-softplus"].setup(0)
    model = nets.build_model(nets.mlp(6, [12, 8], 3, activation=activation),
                             np.random.default_rng(0))
    return network_audit_fingerprint(f"audit-{activation}", model, inputs.pool,
                                     REST_PAIRS, 0)


def cnn3_audit_fingerprint() -> str:
    """A cnn3 on 28x28x1 points built from seed 0, on a uniform pool."""
    rng = np.random.default_rng(0)
    model = nets.build_model(nets.cnn3(), rng)
    pool = rng.uniform(size=(60, 28 * 28))
    return network_audit_fingerprint("audit-cnn3", model, pool, CNN3_PAIRS, 0)


def conv_audit_fingerprint() -> str:
    """Conv(3, 4, softplus) then Dense(3) on 8x8x1 points from a uniform pool."""
    rng = np.random.default_rng(0)
    arch = nets.Architecture((8, 8, 1), (nets.Conv(3, 4, "softplus"), nets.Dense(3)))
    model = nets.build_model(arch, rng)
    pool = rng.uniform(size=(100, 64))
    sampler = lambda n, r: smoothness.sample_pairs(pool, n, r)
    est = smoothness.estimate_kappa_network(model, sampler, CONV_PAIRS,
                                            np.random.default_rng(1))
    rep, channel = smoothness.audit_network(
        model, 1.2 * est.kappa, sampler(CONV_PAIRS, np.random.default_rng(2)))
    return (f"audit-conv pairs={CONV_PAIRS} estimate="
            + digest(est.kappa, list(est.per_channel), est.n_pairs)
            + " audit@1.2=" + digest(rep.rows, rep.worst_pair, rep.violations,
                                     rep.max_ratio, channel))


def quadratic_fingerprint() -> str:
    """diag(1, 3, 0.5) audited at its kappa estimate."""
    field = smoothness.QuadraticField(np.diag([1.0, 3.0, 0.5]))
    pool = np.random.default_rng(0).normal(size=(200, 3), scale=2.0)
    sampler = lambda n, r: smoothness.sample_pairs(pool, n, r)
    est = smoothness.estimate_kappa(field, sampler, AUDIT_PAIRS, np.random.default_rng(1))
    rep = smoothness.audit_gap_bound(field, est.kappa,
                                     sampler(AUDIT_PAIRS, np.random.default_rng(2)))
    return (f"quadratic pairs={AUDIT_PAIRS} "
            f"audit={digest(est.kappa, rep.rows, rep.worst_pair)}")


def inference_fingerprint() -> str:
    """A cnn3 on 28x28x1 images built from seed 0, on uniform rows."""
    rng = np.random.default_rng(0)
    model = nets.build_model(nets.cnn3(), rng)
    x = rng.uniform(size=(INFERENCE_IMAGES, 28, 28, 1))
    logits = nets.batched_logits(model, x)
    grads = smoothness.LogitField(model).grad(x[:GRAD_IMAGES].reshape(GRAD_IMAGES, -1))
    return (f"inference cnn3 rows={INFERENCE_IMAGES} logits={digest(logits)} "
            f"grad@{GRAD_IMAGES}={digest(grads)}")


def checkpoint_fingerprint() -> str:
    line = "checkpoint"
    for name, arch in CHECKPOINT_NETS.items():
        buf = io.BytesIO()
        nets.save_model(nets.build_model(arch, np.random.default_rng(0)), buf)
        line += f" {name}={hashlib.sha256(buf.getvalue()).hexdigest()}"
    return line


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_fingerprint(label: str) -> str:
    argv, config = CLI_RUNS[label]
    if argv[0] != "gradcheck":
        argv = [*argv, "--out", "out"]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if config is not None:
                Path("run.cfg").write_text(config)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"metamix {' '.join(argv)} exited {code}")
            line = f"cli {label} stdout={sha256(stdout.getvalue().encode())}"
            out = Path("out")
            for name in ("config.json", "metrics.jsonl", "model.npz", "audit.json",
                         "pairs.csv"):
                if not (out / name).exists():
                    continue
                if name == "metrics.jsonl":
                    records = [json.loads(row) for row in
                               (out / name).read_text().splitlines()]
                    for rec in records:
                        del rec["wall_seconds"]
                    line += f" {name}={digest(records)}"
                else:
                    line += f" {name}={sha256((out / name).read_bytes())}"
        finally:
            os.chdir(home)
    return line


def help_fingerprint() -> str:
    """argparse wraps help text to $COLUMNS, so it is fixed while it runs."""
    line, columns = "cli-help", os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = HELP_COLUMNS
    try:
        for sub in HELP_SUBCOMMANDS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([sub, "--help"])
            if code != 0:
                raise SystemExit(f"metamix {sub} --help exited {code}")
            line += f" {sub}={sha256(stdout.getvalue().encode())}"
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return line


def main() -> None:
    for name, modes in CASES.items():
        for seed in SEEDS:
            for mode in modes:
                print(fingerprint(name, seed, mode), flush=True)
    for activation in ACTIVATIONS:
        for seed in SEEDS:
            print(fingerprint("sup-mlp", seed, "metamixup", activation), flush=True)
    print(conv_training_fingerprint(), flush=True)
    for seed in AUDIT_SEEDS:
        print(audit_fingerprint(seed), flush=True)
    print(audit_fingerprint(0, REST_PAIRS), flush=True)
    for activation in AUDIT_ACTIVATIONS:
        print(activation_audit_fingerprint(activation), flush=True)
    print(conv_audit_fingerprint(), flush=True)
    print(cnn3_audit_fingerprint(), flush=True)
    print(quadratic_fingerprint(), flush=True)
    print(inference_fingerprint(), flush=True)
    print(checkpoint_fingerprint(), flush=True)
    for label in CLI_RUNS:
        print(cli_fingerprint(label), flush=True)
    print(help_fingerprint(), flush=True)


if __name__ == "__main__":
    main()
