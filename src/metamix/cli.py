"""Command line front end: train / ssl / audit / gradcheck.

Runs are configured by a flat key=value file plus command line overrides
(overrides win). Every training run writes config.json (the fully resolved
option set), metrics.jsonl (one record per epoch), summary.json and
model.npz into --out. An option's converter in the option tables checks its
range, for flags and --config entries alike, before any command runs. An option
for a field of TrainConfig, OptimizerConfig or SyntheticSpec takes its range and
default from the field (data.setting), whose class gives library callers the
same message, naming the field.

Exit codes: 0 success. 2 the options are wrong: a value out of its range,
options that contradict each other (a data flag for the other source, --dim
below --classes, --sigma-floor above --sigma0), or a count the rows cannot
supply (batch size, labeled or meta-validation rows per class, a pair sample
that is all x = x'). 3 a file is wrong: an IDX file or checkpoint cannot be
read, is malformed, or disagrees with another file, the checkpoint or
--n-classes. 4 non-finite numerics.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import data as dataio
from . import engine as eng
from . import meta, mixing, nets, semi, smoothness
from .data import DataError, Dataset, Splits, SplitSpec, SyntheticSpec
from .engine import NonFiniteError
from .meta import TrainConfig
from .nets import OptimizerConfig
from .reporting import write_records

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 2, 3, 4


class ConfigError(Exception):
    pass


def _ranged(range_text: str, parse, holds):
    """An option's converter: parse(text) if it holds, else a ValueError.
    Free-form options (--out, --arch, --model, IDX paths) never raise one."""
    def convert(text: str):
        value = parse(text)
        if not holds(value):
            raise ValueError(text)
        return value
    convert.range = range_text
    return convert


def _in(allowed, kind=float, none: bool = False):
    """Values of kind that data.values_in(allowed) holds; "none" as None if none."""
    test = dataio.values_in(allowed)
    return _ranged(f"{test.range} or none" if none else test.range,
                   lambda t: None if none and t.strip().lower() == "none" else kind(t),
                   lambda v: v is None or test(v))


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _setting(owner, name: str, help_text: str):
    """The option that sets owner's field name: the field's default, and a converter
    that parses the default's type and checks the field's values (a bool's: _BOOLS)."""
    spec = owner.__dataclass_fields__[name]
    test = spec.metadata.get("values")
    convert = (_ranged(test.range, type(spec.default), test) if test else
               _ranged("{" + ", ".join(_BOOLS) + "}", lambda t: _BOOLS.get(t.strip().lower()),
                       lambda v: v is not None))
    convert.field = name
    return convert, spec.default, help_text


def _opt_str(text: str):
    return None if text.strip().lower() == "none" else text


_finite_list = _ranged("(-inf, inf), comma-separated", str,   # echoed as typed
                       lambda text: all(math.isfinite(float(v)) for v in text.split(",")))
_COUNT, _SEED = _in("[1, inf)", int), _in("[0, inf)", int)
_COUNT_OR_NONE = _in("[1, inf)", int, none=True)

# name -> (converter, default, help); names double as config file keys. An option
# for a field of TrainConfig, OptimizerConfig or SyntheticSpec reads the field.
_DATA_OPTS = {
    "data": (_in(("synthetic", "idx"), str), "synthetic", "dataset source: synthetic | idx"),
    "classes": _setting(SyntheticSpec, "classes", "synthetic: number of classes"),
    "per_class": _setting(SyntheticSpec, "per_class", "synthetic: training samples per class"),
    "dim": _setting(SyntheticSpec, "dim", "synthetic: input dimension"),
    "separation": _setting(SyntheticSpec, "separation",
                           "synthetic: distance between class means"),
    "noise_sigma": _setting(SyntheticSpec, "noise_sigma", "synthetic: sample noise scale"),
    "corrupt": (_in("[0, 1]"), 0.0, "fraction of training labels flipped"),
    "test_per_class": (_COUNT_OR_NONE, None, "synthetic: test samples per class"),
    "meta_val_per_class": (_COUNT, 10, "meta-validation samples per class"),
    "train_images": (_opt_str, None, "idx: training images file"),
    "train_labels": (_opt_str, None, "idx: training labels file"),
    "test_images": (_opt_str, None, "idx: test images file"),
    "test_labels": (_opt_str, None, "idx: test labels file"),
    "n_classes": (_in("[2, inf)", int), 10, "idx: number of classes"),
    "limit_train": (_COUNT_OR_NONE, None, "idx: cap on training samples after loading"),
}

_TRAIN_OPTS = {
    "out": (str, None, "output directory (default runs/<subcommand>)"),
    "mode": _setting(TrainConfig, "mode", "metamixup | mixup-beta | mixup-fixed | baseline"),
    "seed": _setting(TrainConfig, "seed", "run seed"),
    "epochs": _setting(TrainConfig, "epochs", "training epochs"),
    "batch_size": _setting(TrainConfig, "batch_size", "training and validation batch size"),
    "lr": _setting(OptimizerConfig, "learning_rate", "learning rate"),
    "momentum": _setting(OptimizerConfig, "momentum", "SGD momentum"),
    "weight_decay": _setting(OptimizerConfig, "weight_decay",
                             "L2 coefficient folded into the gradient"),
    "cosine": _setting(OptimizerConfig, "cosine_anneal", "cosine-anneal the learning rate"),
    "policy_step_size": _setting(TrainConfig, "policy_step_size",
                                 "step on the interpolation logits"),
    "lambda": _setting(TrainConfig, "fixed_lambda", "mixup-fixed coefficient"),
    "beta_alpha": _setting(TrainConfig, "beta_alpha", "mixup-beta Beta(a, a) parameter"),
    "augment": _setting(TrainConfig, "augment",
                        "batch augmentation: none | flip | flip-translate"),
    "arch": (_opt_str, None, "model: mlp | mlp:H1,H2 | cnn3 (default sized from data)"),
    **_DATA_OPTS,
}

_SSL_OPTS = {
    **_TRAIN_OPTS,
    # smaller than TrainConfig's batch: an SSL run trains on the labeled split
    "batch_size": (_TRAIN_OPTS["batch_size"][0], 8, "training and validation batch size"),
    "labeled_per_class": (_COUNT, 25, "labeled samples kept per class"),
    "unsup_weight": _setting(TrainConfig, "unsup_weight", "weight on the pseudo-label loss"),
    "sigma0": _setting(TrainConfig, "sigma0", "initial confidence threshold"),
    "sigma_decrement": _setting(TrainConfig, "sigma_decrement", "threshold drop per period"),
    "sigma_period": _setting(TrainConfig, "sigma_period", "epochs between threshold drops"),
    "sigma_floor": _setting(TrainConfig, "sigma_floor", "lowest threshold"),
}

_AUDIT_OPTS = {
    "out": (str, None, "output directory"),
    "seed": (_SEED, 0, "sampling seed"),
    "field": (_in(("network", "quadratic"), str), "network",
              "audited field: network | quadratic"),
    "diag": (_finite_list, "1,3", "quadratic: diagonal of A"),
    "model": (_opt_str, None, "network: checkpoint to audit (default fresh init)"),
    "arch": (_opt_str, None, "network: architecture when no checkpoint given"),
    "n_pairs": (_COUNT, 10_000, "pairs for estimation and a fresh audit"),
    "safety": (_in("[0, inf)"), 1.2, "multiplier on the estimated constant"),
    **{k: opt for k, opt in _DATA_OPTS.items() if hasattr(opt[0], "field")   # SyntheticSpec
       or k in ("data", "train_images", "train_labels", "n_classes")},
}

_GRADCHECK_OPTS = {
    "seed": (_SEED, 0, "problem seed"),
    "tolerance": (_in("[0, inf)"), 1e-4, "max relative error allowed"),
}

_SUBCOMMANDS = {
    "train": _TRAIN_OPTS,
    "ssl": _SSL_OPTS,
    "audit": _AUDIT_OPTS,
    "gradcheck": _GRADCHECK_OPTS,
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metamix", description="meta-learned mixup training laboratory")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, table in _SUBCOMMANDS.items():
        sub = subs.add_parser(name)
        sub.add_argument("--config", default=None,
                         help="key=value file; command line flags override it")
        for key, (_, default, help_text) in table.items():
            sub.add_argument(_flag(key), dest=key, default=None, metavar="V",
                             help=f"{help_text} (default {default})")
    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """Each ``--flag value`` pair as ``--flag=value``. Every flag but --help
    takes one value, and argparse would read a value that starts with "-"
    and is not a plain decimal (``--diag -1,2``, ``--lr -inf``) as a flag."""
    tokens, joined = iter(argv), []
    for token in tokens:
        if token.startswith("--") and "=" not in token and token != "--help":
            value = next(tokens, None)
            token = token if value is None else f"{token}={value}"
        joined.append(token)
    return joined


def parse_config_file(path) -> dict[str, str]:
    raw = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def resolve_options(table: dict, args: dict) -> tuple[dict, set]:
    """Defaults, then the --config file, then the flags; and the keys set."""
    resolved = {key: default for key, (_, default, _) in table.items()}
    layers = []
    if args.get("config"):
        layers.append(parse_config_file(args["config"]))
    layers.append({k: v for k, v in args.items()
                   if k in table and v is not None})
    for layer in layers:
        for key, value in layer.items():
            if key not in table:
                raise ConfigError(f"unknown option {key!r}")
            if isinstance(value, str):
                convert = table[key][0]
                try:
                    value = convert(value)
                except ValueError:
                    raise ConfigError(f"{_flag(key)} must be in {convert.range}, got {value}")
            resolved[key] = value
    return resolved, {key for layer in layers for key in layer}


def _check_source_flags(opts: dict, given: set) -> None:
    """A set data flag whose help names the other source is a config error."""
    for key, (_, _, help_text) in _DATA_OPTS.items():
        source = help_text.split(":")[0]
        if key in given and source in ("synthetic", "idx") and source != opts["data"]:
            raise ConfigError(f"{_flag(key)} applies to --data {source}; "
                              f"this run reads --data {opts['data']}")


def _parse_arch(text, input_shape: tuple, n_classes: int):
    if text is None or text == "auto":
        return None
    if text == "cnn3":
        if len(input_shape) == 2:
            input_shape = (*input_shape, 1)   # [h, w] IDX rows are one channel
        if len(input_shape) != 3:
            raise ConfigError("arch cnn3 needs image-shaped inputs [h, w] or [h, w, c]")
        return nets.cnn3(input_shape[:2], input_shape[2], n_classes)
    if text == "mlp" or text.startswith("mlp:"):
        hidden = [32]
        if ":" in text:
            try:
                hidden = [int(h) for h in text.split(":", 1)[1].split(",")]
            except ValueError:
                raise ConfigError(f"bad arch spec {text!r}")
        try:
            return nets.mlp(int(np.prod(input_shape)), hidden, n_classes)
        except eng.ShapeError as exc:
            raise ConfigError(f"--arch {text!r}: {exc}")
    raise ConfigError(f"unknown arch {text!r}")


def _load_idx_pair(opts: dict, what: str) -> Dataset:
    images, labels = opts[f"{what}_images"], opts[f"{what}_labels"]
    if images is None or labels is None:
        raise ConfigError(f"idx data needs {what}_images and {what}_labels")
    try:
        return dataio.load_idx(images, labels, opts["n_classes"])
    except OSError as exc:
        raise DataError(f"cannot read {what} set: {exc}")


@contextmanager
def _options_fault(error, *flags: str):
    """error, raised in the block, as a config error that names flags. Synthetic
    rows and every split are functions of the options: a DataError there is one."""
    try:
        yield
    except error as exc:
        raise ConfigError(f"{', '.join(flags)}: {exc}")


def _build(owner, table: dict, opts: dict, **derived):
    """owner from the options of table that set its fields, and derived."""
    return owner(**{convert.field: opts[key] for key, (convert, _, _) in table.items()
                    if getattr(convert, "field", None) in owner.__dataclass_fields__},
                 **derived)


def _synthetic_spec(opts: dict) -> SyntheticSpec:
    with _options_fault(DataError, "--dim", "--classes"):
        return _build(SyntheticSpec, _DATA_OPTS, opts)


def _load_splits(opts: dict) -> Splits:
    if opts["data"] == "synthetic":
        spec = _synthetic_spec(opts)
        with _options_fault(DataError, "--meta-val-per-class"):
            return dataio.standard_splits(spec, seed=opts["seed"], corrupt=opts["corrupt"],
                                          meta_val_per_class=opts["meta_val_per_class"],
                                          test_per_class=opts["test_per_class"])
    train, test = _load_idx_pair(opts, "train"), _load_idx_pair(opts, "test")
    if opts["limit_train"] is not None:
        train = train.subset(np.arange(min(opts["limit_train"], len(train))))
    with _options_fault(DataError, "--meta-val-per-class"):
        train, meta_val = dataio.split_meta_validation(
            train, SplitSpec(opts["meta_val_per_class"], seed=opts["seed"]))
    if opts["corrupt"] != 0:
        train = dataio.corrupt_labels(train, opts["corrupt"],
                                      np.random.default_rng(opts["seed"] + 1))
    return Splits(train=train, meta_val=meta_val, test=test)


def _train_config(opts: dict, table: dict, splits: Splits) -> TrainConfig:
    arch = _parse_arch(opts["arch"], splits.train.inputs.shape[1:],
                       splits.train.n_classes)
    optimizer = _build(OptimizerConfig, table, opts, horizon=opts["epochs"])
    with _options_fault(ValueError, "--sigma-floor", "--sigma0"):   # floor above sigma0
        return _build(TrainConfig, table, opts, arch=arch, optimizer=optimizer)


def _open_out(opts: dict, subcommand: str) -> Path:
    """Create --out (default runs/<subcommand>) and echo the resolved options
    into its config.json. An empty --out is a config error."""
    if opts["out"] == "":
        raise ConfigError("--out must name a directory, got an empty path")
    out = Path(opts["out"] or f"runs/{subcommand}")
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(json.dumps(
            {"subcommand": subcommand, **opts}, indent=2, sort_keys=True,
            default=str) + "\n")
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc}")
    return out


def cmd_train(opts: dict) -> int:
    """`train`, and `ssl`: the same run on a labeled split of the training
    set, plus the relabel pass over the rest of it."""
    t0 = time.perf_counter()
    subcommand = "ssl" if "labeled_per_class" in opts else "train"
    splits = _load_splits(opts)
    if subcommand == "ssl":
        with _options_fault(DataError, "--labeled-per-class"):
            labeled, unlabeled = dataio.split_labeled_pool(
                splits.train, opts["labeled_per_class"], seed=opts["seed"])
        splits = replace(splits, train=labeled)
    config = _train_config(opts, _SUBCOMMANDS[subcommand], splits)
    with _options_fault(ValueError, "--batch-size"):   # more than the training rows
        meta.check_run(splits, config)
    out = _open_out(opts, subcommand)
    if subcommand == "ssl":
        report = semi.train_ssl(splits, unlabeled, config)
    else:
        report = meta.train_supervised(splits, config)
    with open(out / "metrics.jsonl", "w") as fh:
        write_records(report.records, fh)
    nets.save_model(report.model, out / "model.npz")
    last = report.records[-1]
    summary = {
        "epochs_run": len(report.records),
        "final_test_error": report.final_test_error,
        "final_train_loss": last.train_loss,
        "final_val_loss": last.val_loss,
        "final_lambda_mean": last.lambda_mean,
        "total_wall_seconds": time.perf_counter() - t0,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    detail = (f", {last.accepted_count} pseudo labels in use" if subcommand == "ssl"
              else f" ({len(report.records)} epochs)")
    print(f"final test error {report.final_test_error:.4f}{detail} -> {out}")
    return EXIT_OK


def _audit_field(opts: dict, rng: np.random.Generator):
    """Returns (anchors, field): a quadratic or a network's logits."""
    if opts["field"] == "quadratic":
        diag = np.array([float(v) for v in opts["diag"].split(",")])
        anchors = rng.normal(scale=2.0, size=(max(200, opts["per_class"]), len(diag)))
        return anchors, smoothness.QuadraticField(np.diag(diag))
    if opts["data"] == "idx":
        train = _load_idx_pair(opts, "train")
        if not len(train):
            raise DataError(f"{opts['train_images']}: holds no images to audit")
    else:
        train = dataio.make_synthetic(_synthetic_spec(opts), np.random.default_rng(opts["seed"]))
    anchors = train.inputs.reshape(len(train.inputs), -1)
    if opts["model"]:
        model = nets.load_model(opts["model"])
        size = int(np.prod(model.arch.input_shape))
        if size != anchors.shape[1]:
            raise DataError(f"{opts['model']}: checkpoint input size {size} "
                            f"does not match the data's row size {anchors.shape[1]}")
    else:
        spec = "mlp:16,8" if opts["arch"] in (None, "auto") else opts["arch"]
        arch = _parse_arch(spec, train.inputs.shape[1:], train.n_classes)
        if all(isinstance(l, nets.Dense) for l in arch.layers):
            # constant estimates need differentiable gradients; swap relu/tanh
            # hidden layers for softplus when auditing a fresh dense net
            arch = nets.Architecture(arch.input_shape, tuple(
                nets.Dense(l.width, "softplus" if l.activation else None)
                for l in arch.layers))
        model = nets.build_model(arch, rng)
    return anchors, smoothness.LogitField(model)


def cmd_audit(opts: dict) -> int:
    rng = np.random.default_rng(opts["seed"])
    anchors, field = _audit_field(opts, rng)
    sampler = lambda n, r: smoothness.sample_pairs(anchors, n, r)
    with _options_fault(ValueError, "--n-pairs"):   # a sample of x == x' pairs only
        estimate = smoothness.estimate_kappa(
            field, sampler, opts["n_pairs"], np.random.default_rng(opts["seed"] + 1))
    kappa = opts["safety"] * estimate.kappa
    report = smoothness.audit_gap_bound(
        field, kappa, sampler(opts["n_pairs"], np.random.default_rng(opts["seed"] + 2)))
    out = _open_out(opts, "audit")
    payload = {"estimate": asdict(estimate), "safety": opts["safety"],
               "audited_kappa": kappa, "worst_channel": report.channel,
               **report.summary()}
    (out / "audit.json").write_text(json.dumps(payload, indent=2) + "\n")
    smoothness.write_audit_csv(report, out / "pairs.csv")
    # violations are a reported outcome, not a run failure: the estimated
    # constant is a lower bound, so the report is the deliverable either way
    print(f"kappa_hat {estimate.kappa:.4g}, audited at {kappa:.4g}: "
          f"{report.violations} violations, max ratio {report.max_ratio:.6f} "
          f"-> {out}")
    return EXIT_OK


def cmd_gradcheck(opts: dict) -> int:
    """The hypergradient against central differences of the same validation
    loss, taken as a function of the policy logits, and against its double
    backward through the simulated step."""
    rng = np.random.default_rng(opts["seed"])
    model = nets.build_model(nets.mlp(4, [8], 3), rng)
    x = rng.normal(size=(8, 4))
    y = nets.one_hot(rng.integers(0, 3, 8), 3)
    val = (rng.normal(size=(8, 4)), nets.one_hot(rng.integers(0, 3, 8), 3))
    groups = [(x, y, mixing.sample_pairing(8, rng), 1.0)]
    policy = mixing.init_policy(8, rng)
    eta = 0.1
    exact = meta.hypergradient(model, groups, policy, val, eta).grad
    report = eng.grad_check(
        lambda z: meta.simulated_step_losses(
            model, groups, mixing.InterpolationPolicy(z), val, eta)[1],
        policy.logits, epsilon=1e-4)   # the step with the least error here
    passed = True
    for oracle, reference in (("central differences of the validation loss",
                               report.numeric),
                              ("the double backward", report.analytic)):
        err = eng.max_relative_error(exact, reference, floor=0.0)
        ok = err <= opts["tolerance"]
        passed = passed and ok
        print(f"hypergradient vs {oracle}: max relative error {err:.3e} "
              f"{'PASS' if ok else 'FAIL'} (tolerance {opts['tolerance']:g})")
    return EXIT_OK if passed else EXIT_NUMERIC


_DISPATCH = {"train": cmd_train, "ssl": cmd_train, "audit": cmd_audit,
             "gradcheck": cmd_gradcheck}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(
            _attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        opts, given = resolve_options(_SUBCOMMANDS[args.subcommand], vars(args))
        if "data" in opts and opts.get("field") != "quadratic":
            _check_source_flags(opts, given)
        return _DISPATCH[args.subcommand](opts)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
