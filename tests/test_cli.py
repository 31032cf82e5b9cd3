import contextlib
import dataclasses
import gzip
import io
import json
import math
import re
import shlex
import string
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metamix import cli, data, meta, nets
from metamix.reporting import FIELD_ORDER, read_records

TINY = ["--epochs", "2", "--per-class", "30", "--dim", "5",
        "--batch-size", "10", "--meta-val-per-class", "5"]


def run(argv):
    return cli.main(argv)


class TestParsing:
    def test_gradcheck_passes(self, capsys):
        assert run(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "max relative error" in out

    def test_gradcheck_catches_a_hypergradient_off_by_a_tenth_percent(
            self, monkeypatch, capsys):
        assert run(["gradcheck"]) == 0
        err = float(re.search(r"max relative error (\S+)", capsys.readouterr().out)[1])
        assert err <= 1e-6
        exact = meta.hypergradient

        def scaled(*args, **kwargs):
            res = exact(*args, **kwargs)
            return dataclasses.replace(res, grad=1.001 * res.grad)

        monkeypatch.setattr(meta, "hypergradient", scaled)
        assert run(["gradcheck"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_gradcheck_fails_on_the_double_backward_line(self, monkeypatch, capsys):
        def line_error(line):
            return float(re.search(r"max relative error (\S+)", line)[1])

        assert run(["gradcheck"]) == 0
        double = capsys.readouterr().out.splitlines()[1]
        assert "double backward" in double and "PASS" in double
        assert line_error(double) <= 1e-12
        exact = meta.hypergradient

        def scaled(*args, **kwargs):
            res = exact(*args, **kwargs)
            return dataclasses.replace(res, grad=1.001 * res.grad)

        monkeypatch.setattr(meta, "hypergradient", scaled)
        assert run(["gradcheck"]) == 4
        double = capsys.readouterr().out.splitlines()[1]
        assert "double backward" in double and "FAIL" in double
        assert line_error(double) == pytest.approx(0.001 / 1.001, rel=1e-3)

    @pytest.mark.parametrize("reject", [["--tolerance", "nan"], ["--tolerance", "inf"],
                                        ["--tolerance", "-1"], ["--seed", "-1"]],
                             ids=["tolerance-nan", "tolerance-inf", "tolerance", "seed"])
    def test_gradcheck_rejected_setting_exits_2(self, capsys, reject):
        assert run(["gradcheck", *reject]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and reject[0] in captured.err
        assert captured.out == ""

    def test_invalid_lambda_names_field(self, tmp_path, capsys):
        code = run(["train", "--mode", "mixup-fixed", "--lambda", "1.5",
                    "--out", str(tmp_path)])
        assert code == 2
        assert "lambda" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        assert run(["train", "--frobnicate", "1"]) == 2

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=2\nbogus_knob=1\n")
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("apl", "false"), ("policy_updates", "1"),
                                            ("meta_batch_size", "8")],
                             ids=["apl", "policy_updates", "meta_batch_size"])
    def test_removed_apl_key_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        out = tmp_path / "run"
        assert run(["ssl", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"unknown option '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub, lines, named", [
        ("train", "n_classes=3\n", "--n-classes"),
        ("ssl", "data=idx\ndim=4\n", "--dim"),
        ("audit", "data=idx\nper_class=30\n", "--per-class"),
    ], ids=["idx-key-synthetic", "synthetic-key-idx", "synthetic-key-idx-audit"])
    def test_config_key_of_the_other_data_source_exits_2(self, tmp_path, capsys,
                                                         sub, lines, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        out = tmp_path / "run"
        assert run([sub, "--config", str(cfg), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run(["train", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfee\x00p\x00o\x00c\x00h\x00s\x00=\x002\x00")
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cfg) in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_cli_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nepochs=7\nseed=3\nper_class=30\n"
                       "dim=5\nbatch_size=10\nmeta_val_per_class=5\n")
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--epochs", "2",
                    "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["epochs"] == 2      # flag wins
        assert echo["seed"] == 3        # file fills the rest
        assert echo["subcommand"] == "train"

    def test_bad_value_type_exits_2(self, tmp_path, capsys):
        assert run(["train", "--epochs", "two"]) == 2
        assert "epochs" in capsys.readouterr().err

    def test_bad_arch_exits_2(self, tmp_path):
        args = ["train", "--out", str(tmp_path), *TINY]
        assert run([*args, "--arch", "resnet50"]) == 2
        assert run([*args, "--arch", "cnn3"]) == 2  # vector inputs

    def test_bad_data_source_exits_2(self, tmp_path):
        assert run(["train", "--out", str(tmp_path), "--data", "imagenet"]) == 2


class TestTrainRun:
    def test_artifacts_and_schema(self, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--out", str(out), "--seed", "5", *TINY]) == 0
        for name in ("config.json", "metrics.jsonl", "summary.json", "model.npz"):
            assert (out / name).exists(), name
        records = read_records(out / "metrics.jsonl")
        assert len(records) == 2
        for rec in records:
            assert tuple(rec.keys()) == FIELD_ORDER
            assert len(rec["lambda_hist"]) == 10
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epochs_run"] == 2
        assert 0.0 <= summary["final_test_error"] <= 1.0

    def test_seeded_rerun_identical_modulo_wall_time(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["train", "--out", str(out), "--seed", "7", *TINY]) == 0
        strip = lambda rs: [{k: v for k, v in r.items() if k != "wall_seconds"}
                            for r in rs]
        assert strip(read_records(a / "metrics.jsonl")) == \
            strip(read_records(b / "metrics.jsonl"))
        # config echoes agree on everything but the output location itself
        ca = json.loads((a / "config.json").read_text())
        cb = json.loads((b / "config.json").read_text())
        assert {k: v for k, v in ca.items() if k != "out"} == \
            {k: v for k, v in cb.items() if k != "out"}

    def test_each_epoch_line_is_on_disk_when_a_later_epoch_fails(self, tmp_path,
                                                                   monkeypatch):
        # the test error closes each epoch; the second one raises
        out, calls = tmp_path / "run", []
        real_error_rate = nets.error_rate

        def failing_error_rate(model, x, y):
            calls.append(1)
            if len(calls) == 2:
                raise meta.NonFiniteError("epoch 2 fails")
            return real_error_rate(model, x, y)

        monkeypatch.setattr(nets, "error_rate", failing_error_rate)
        assert run(["train", "--out", str(out), "--seed", "5", *TINY]) == 4
        records = read_records(out / "metrics.jsonl")
        assert [rec["epoch"] for rec in records] == [0]
        assert tuple(records[0].keys()) == FIELD_ORDER
        assert not (out / "summary.json").exists()

    def test_modes_round_trip(self, tmp_path):
        for mode in ("baseline", "mixup-beta", "mixup-fixed"):
            out = tmp_path / mode
            assert run(["train", "--out", str(out), "--mode", mode, *TINY]) == 0

    def test_batch_larger_than_training_set_exits_2(self, tmp_path, capsys):
        # 60 rows less 10 for meta-validation leave 50 to train on
        assert run(["train", "--out", str(tmp_path), "--epochs", "1",
                    "--per-class", "30", "--dim", "5", "--meta-val-per-class", "5",
                    "--batch-size", "51"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "batch_size 51 exceeds the 50 training rows" in err

    # a batch the trainer rejects, and a config error while loading the data
    @pytest.mark.parametrize("reject", [["--batch-size", "51"], ["--data", "idx"]],
                             ids=["batch", "data"])
    def test_rejected_run_leaves_no_output_dir(self, tmp_path, reject):
        out = tmp_path / "run"
        assert run(["train", "--out", str(out), "--epochs", "1", "--per-class", "30",
                    "--dim", "5", "--meta-val-per-class", "5", *reject]) == 2
        assert not out.exists()

    def test_numeric_blowup_exits_4(self, tmp_path, capsys):
        # an absurd decay overflows float64 within two steps; tanh and
        # log-softmax keep plain large learning rates finite forever
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["train", "--out", str(tmp_path), "--mode", "baseline",
                        "--weight-decay", "1e200", *TINY])
        assert code == 4
        assert "numeric" in capsys.readouterr().err


# id -> (flags, exit code, text the message holds): each message names the
# flag the user typed
REJECTED_SETTINGS = {
    "lr": (["--lr", "0"], 2, "--lr"),
    "momentum": (["--momentum", "1.5"], 2, "--momentum"),
    "weight-decay": (["--weight-decay", "-1"], 2, "--weight-decay"),
    "cosine-epochs": (["--cosine", "true", "--epochs", "0"], 2, "--epochs"),
    "lr-nan": (["--lr", "nan"], 2, "--lr"),
    "lr-inf": (["--lr", "inf"], 2, "--lr"),
    "policy-step-size-nan": (["--policy-step-size", "nan"], 2, "--policy-step-size"),
    "beta-alpha-nan": (["--mode", "mixup-beta", "--beta-alpha", "nan"], 2,
                       "--beta-alpha"),
    "weight-decay-inf": (["--weight-decay", "inf"], 2, "--weight-decay"),
    "lambda": (["--mode", "mixup-fixed", "--lambda", "1.5"], 2, "--lambda"),
    "seed": (["--seed", "-1"], 2, "--seed"),
    "limit-train": (["--limit-train", "0"], 2, "--limit-train"),
    "limit-train-synthetic": (["--limit-train", "5"], 2, "--limit-train"),
    "n-classes-synthetic": (["--n-classes", "3"], 2, "--n-classes"),
    "train-images-synthetic": (["--train-images", "/nonexistent"], 2, "--train-images"),
    "per-class-idx": (["--data", "idx", "--per-class", "5"], 2, "--per-class"),
    "classes-idx": (["--data", "idx", "--classes", "3"], 2, "--classes"),
    "dim-idx": (["--data", "idx", "--dim", "3"], 2, "--dim"),
    "test-per-class-idx": (["--data", "idx", "--test-per-class", "3"], 2,
                           "--test-per-class"),
    "arch-zero": (["--arch", "mlp:0"], 2, "--arch"),
    "data": (["--data", "bogus"], 2, "--data"),
    "separation-nan": (["--separation", "nan"], 2, "--separation"),
    "corrupt-nan": (["--corrupt", "nan"], 2, "--corrupt"),
    "test-per-class": (["--test-per-class", "-1"], 2, "--test-per-class"),
    "meta-val-per-class": (["--meta-val-per-class", "0"], 2, "--meta-val-per-class"),
    "per-class": (["--per-class", "0"], 2, "--per-class"),
    "noise-sigma": (["--noise-sigma", "0"], 2, "--noise-sigma"),
    "separation-negative": (["--separation", "-1"], 2, "--separation"),
    "meta-val-per-class-over": (["--per-class", "20", "--meta-val-per-class", "21"], 2,
                                "--meta-val-per-class"),
    "dim-below-classes": (["--dim", "2", "--classes", "3"], 2, "--classes"),
}


@pytest.mark.parametrize("sub, reject, code, named", [
    *(pytest.param(sub, reject, code, named, id=f"{name}-{sub}")
      for name, (reject, code, named) in REJECTED_SETTINGS.items()
      for sub in ("train", "ssl")),
    pytest.param("ssl", ["--unsup-weight", "nan"], 2, "--unsup-weight",
                 id="unsup-weight-nan-ssl"),
    pytest.param("ssl", ["--sigma-floor", "0.9", "--sigma0", "0.8"], 2, "--sigma-floor",
                 id="sigma-floor-above-sigma0-ssl")])
def test_rejected_optimizer_setting_exits_2(tmp_path, capsys, sub, reject, code, named):
    """Every rejected setting, not only the optimizer's, with its exit code."""
    out = tmp_path / "run"
    assert run([sub, "--out", str(out), *reject]) == code
    err = capsys.readouterr().err
    assert err.startswith({2: "config error:", 3: "data error:"}[code])
    assert named in err and len(err.splitlines()) == 1
    assert not out.exists()


# every option's range, written out here rather than read from the option
# tables: a number kind and an interval, or the set of accepted words
RANGES = {
    "data": {"synthetic", "idx"},
    "classes": (int, "[2, inf)"),
    "per_class": (int, "[1, inf)"),
    "dim": (int, "[1, inf)"),
    "separation": (float, "[0, inf)"),
    "noise_sigma": (float, "(0, inf)"),
    "corrupt": (float, "[0, 1]"),
    "test_per_class": (int, "[1, inf)"),
    "meta_val_per_class": (int, "[1, inf)"),
    "n_classes": (int, "[2, inf)"),
    "limit_train": (int, "[1, inf)"),
    "mode": {"metamixup", "mixup-beta", "mixup-fixed", "baseline"},
    "seed": (int, "[0, inf)"),
    "epochs": (int, "[1, inf)"),
    "batch_size": (int, "[2, inf)"),
    "lr": (float, "(0, inf)"),
    "momentum": (float, "[0, 1)"),
    "weight_decay": (float, "[0, inf)"),
    "cosine": {"1", "true", "yes", "on", "0", "false", "no", "off"},
    "policy_step_size": (float, "[0, inf)"),
    "lambda": (float, "[0, 1]"),
    "beta_alpha": (float, "(0, inf)"),
    "augment": {"none", "flip", "flip-translate"},
    "labeled_per_class": (int, "[1, inf)"),
    "unsup_weight": (float, "[0, inf)"),
    "sigma0": (float, "(0, 1]"),
    "sigma_decrement": (float, "[0, inf)"),
    "sigma_period": (int, "[1, inf)"),
    "sigma_floor": (float, "(0, 1]"),
    "field": {"network", "quadratic"},
    "diag": "comma-separated finite numbers",
    "n_pairs": (int, "[1, inf)"),
    "safety": (float, "[0, inf)"),
    "tolerance": (float, "[0, inf)"),
}
FREE_FORM = {"out", "arch", "model", "train_images", "train_labels", "test_images",
             "test_labels"}
NOT_NUMBERS = st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "two",
                               "", "1e", "0x10"])
WORDS = st.text(string.ascii_letters + string.digits + "-_.,+", max_size=12)


def outside(option: str):
    """Text for a value outside the option's range: NaN, +-inf, a non-number,
    a bound +- 1, the next float past a closed bound, or any number past a
    bound."""
    spec = RANGES[option]
    if isinstance(spec, set):
        return WORDS.filter(lambda word: word.lower() not in spec)
    if isinstance(spec, str):   # --diag: one entry is not finite, or not a number
        entries = st.lists(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                           max_size=2)
        return st.tuples(entries, NOT_NUMBERS).map(lambda p: ",".join([*p[0], p[1]]))
    kind, interval = spec
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    closed_lo, closed_hi = interval[0] == "[", interval[-1] == "]"
    if kind is int:
        edges = [str(int(lo) - 1), f"{lo + 0.5}"]
        past = st.integers(max_value=int(lo) - 1).map(str)
    else:
        edges = [repr(lo - 1), repr(math.nextafter(lo, -math.inf) if closed_lo else lo)]
        past = st.floats(max_value=lo, exclude_max=closed_lo)
        if math.isfinite(hi):
            edges += [repr(hi + 1), repr(math.nextafter(hi, math.inf) if closed_hi else hi)]
            past |= st.floats(min_value=hi, exclude_min=closed_hi)
        past = past.map(repr)
    return NOT_NUMBERS | st.sampled_from(edges) | past


RANGED = [(sub, key) for sub, table in cli._SUBCOMMANDS.items()
          for key in table if key not in FREE_FORM]


@pytest.mark.parametrize("sub, option", RANGED, ids=[f"{s}-{k}" for s, k in RANGED])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_value_outside_its_range_exits_2(sub, option, data):
    """A drawn value outside an option's range, as a --config entry or a flag
    value (--flag=value, or the next token, whatever it starts with), is one
    config error line that names the flag, and creates no --out."""
    value = data.draw(outside(option), label="value")
    flag = "--" + option.replace("_", "-")
    with tempfile.TemporaryDirectory() as tmp:
        out, cfg = Path(tmp) / "run", Path(tmp) / "run.cfg"
        cfg.write_text(f"{option}={value}\n")
        form = data.draw(st.sampled_from(["config", "joined", "separate"]), label="form")
        argv = [sub, *{"config": [f"--config={cfg}"], "joined": [f"{flag}={value}"],
                       "separate": [flag, value]}[form]]
        if sub != "gradcheck":
            argv.append(f"--out={out}")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv)
        assert code == 2, (argv, stderr.getvalue())
        assert stderr.getvalue().startswith(f"config error: {flag} must be in ")
        assert len(stderr.getvalue().splitlines()) == 1
        assert stdout.getvalue() == ""
        assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["train", "--separation", "-1e5"], "--separation"),
    (["train", "--lr", "-inf"], "--lr"),
])
def test_flag_value_that_starts_with_a_dash_is_range_checked(tmp_path, capsys, argv, flag):
    assert run([*argv, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} must be in ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_diag_value_that_starts_with_a_dash_audits_the_quadratic(tmp_path):
    out = tmp_path / "audit"
    assert run(["audit", "--out", str(out), "--field", "quadratic", "--diag", "-1,2",
                "--n-pairs", "100", "--seed", "1"]) == 0
    payload = json.loads((out / "config.json").read_text())
    assert payload["diag"] == "-1,2"
    estimate = json.loads((out / "audit.json").read_text())["estimate"]
    assert 1.5 < estimate["kappa"] <= 2.0 + 1e-9   # |eigenvalues| 1 and 2


@pytest.mark.parametrize("sub", list(cli._SUBCOMMANDS))
def test_every_option_but_the_free_form_ones_has_a_range(sub):
    """Every default passes its own converter, and every option but the
    free-form ones has a range, also written out in RANGES."""
    for key, (convert, default, _) in cli._SUBCOMMANDS[sub].items():
        converted = convert(str(default))
        assert key in FREE_FORM or converted == default, key
        assert hasattr(convert, "range") == (key not in FREE_FORM), key
        assert key in FREE_FORM or key in RANGES, key


def test_degenerate_pair_sample_names_n_pairs(tmp_path, capsys):
    out = tmp_path / "audit"
    assert run(["audit", "--out", str(out), "--n-pairs", "1", "--per-class", "1",
                "--seed", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --n-pairs") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("where", ["file", "under-file"])
@pytest.mark.parametrize("sub", ["train", "ssl", "audit"])
def test_out_that_names_a_file_exits_2(tmp_path, capsys, sub, where):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken if where == "file" else taken / "run"
    extra = ["--n-pairs", "50", "--per-class", "20"] if sub == "audit" else ["--epochs", "1"]
    assert run([sub, "--out", str(out), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --out ")
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert taken.read_text() == "not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("sub", ["train", "ssl", "audit"])
def test_empty_out_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, sub, form):
    """An empty --out is a config error, not the default runs/<subcommand>."""
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("out=\n")
    extra = ["--n-pairs", "50", "--per-class", "20"] if sub == "audit" else ["--epochs", "1"]
    given = ["--out", ""] if form == "flag" else ["--config", "run.cfg"]
    assert run([sub, *given, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: --out must name a directory, got an empty path\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


class TestSslRun:
    def test_artifacts_and_threshold_fields(self, tmp_path):
        out = tmp_path / "ssl"
        assert run(["ssl", "--out", str(out), "--per-class", "40", "--dim", "5",
                    "--epochs", "2", "--batch-size", "10",
                    "--meta-val-per-class", "5", "--labeled-per-class", "8",
                    "--sigma0", "0.6", "--seed", "4"]) == 0
        records = read_records(out / "metrics.jsonl")
        assert all(r["threshold"] == 0.6 for r in records)
        assert any(r["accepted_count"] > 0 for r in records)
        echo = json.loads((out / "config.json").read_text())
        assert echo["labeled_per_class"] == 8

    def test_default_batch_trains(self, tmp_path):
        out = tmp_path / "ssl"
        assert run(["ssl", "--out", str(out), "--epochs", "1"]) == 0
        assert read_records(out / "metrics.jsonl")[0]["train_loss"] > 0.0
        assert json.loads((out / "config.json").read_text())["batch_size"] == 8

    def test_batch_larger_than_labeled_set_exits_2(self, tmp_path, capsys):
        # the default 25 labeled rows per class give 50 rows to train on
        assert run(["ssl", "--out", str(tmp_path), "--epochs", "1",
                    "--batch-size", "64"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "batch_size 64 exceeds the 50 training rows" in err

    @pytest.mark.parametrize("reject", [["--batch-size", "64"], ["--data", "idx"]],
                             ids=["batch", "data"])
    def test_rejected_run_leaves_no_output_dir(self, tmp_path, reject):
        out = tmp_path / "run"
        assert run(["ssl", "--out", str(out), "--epochs", "1", *reject]) == 2
        assert not out.exists()

    def test_oversized_labeled_pool_exits_2(self, tmp_path):
        assert run(["ssl", "--out", str(tmp_path), "--per-class", "20",
                    "--dim", "4", "--labeled-per-class", "500"]) == 2


class TestDataErrors:
    def test_missing_idx_exits_3(self, tmp_path, capsys):
        code = run(["train", "--out", str(tmp_path), "--data", "idx",
                    "--train-images", str(tmp_path / "no.idx"),
                    "--train-labels", str(tmp_path / "no2.idx"),
                    "--test-images", str(tmp_path / "no3.idx"),
                    "--test-labels", str(tmp_path / "no4.idx")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_lying_idx_header_exits_3(self, tmp_path, capsys):
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        images.write_bytes(struct.pack(">llll", 2051, 2**31 - 1, 2**15, 2**15))
        labels.write_bytes(struct.pack(">ll", 2049, 2**31 - 1))
        code = run(["train", "--out", str(tmp_path / "run"), "--data", "idx",
                    "--train-images", str(images), "--train-labels", str(labels),
                    "--test-images", str(images), "--test-labels", str(labels)])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and "truncated" in err
        assert "Traceback" not in err

    def test_idx_without_paths_exits_2(self, tmp_path):
        assert run(["train", "--out", str(tmp_path), "--data", "idx"]) == 2

    def test_missing_checkpoint_exits_3(self, tmp_path):
        assert run(["audit", "--out", str(tmp_path), "--model",
                    str(tmp_path / "none.npz"), "--dim", "4",
                    "--per-class", "20", "--n-pairs", "50"]) == 3


@pytest.fixture(scope="module")
def idx_args(tmp_path_factory):
    """Data flags for a 40-image 6x6 two-class IDX pair, used as both the
    training and the test set."""
    d = tmp_path_factory.mktemp("idx")
    rng = np.random.default_rng(0)
    labels = np.arange(40) % 2
    images = rng.uniform(0.0, 1.0, size=(40, 6, 6))
    images[labels == 1, :3] = 1.0
    data.save_idx(data.Dataset(images, labels, 2), d / "img", d / "lab")
    return ["--data", "idx", "--n-classes", "2",
            "--train-images", str(d / "img"), "--train-labels", str(d / "lab"),
            "--test-images", str(d / "img"), "--test-labels", str(d / "lab"),
            "--epochs", "1", "--batch-size", "8", "--meta-val-per-class", "4"]


class TestIdxRuns:
    """[n, h, w] IDX rows train an MLP flattened and cnn3 as one channel."""

    @pytest.mark.parametrize("arch", ["auto", "cnn3"])
    def test_train(self, tmp_path, idx_args, arch):
        out = tmp_path / arch
        assert run(["train", "--out", str(out), "--arch", arch, *idx_args]) == 0
        assert len(read_records(out / "metrics.jsonl")) == 1

    def test_ssl_auto(self, tmp_path, idx_args):
        out = tmp_path / "ssl"
        assert run(["ssl", "--out", str(out), "--arch", "auto", *idx_args,
                    "--labeled-per-class", "8", "--sigma0", "0.5"]) == 0
        assert len(read_records(out / "metrics.jsonl")) == 1

    @pytest.mark.parametrize("sub", ["train", "ssl"])
    def test_augment_reaches_flattened_rows(self, tmp_path, idx_args, sub):
        # flipping vector rows is a no-op that draws nothing, so a run that
        # flattened before augmenting would match --augment none exactly
        extra = ["--labeled-per-class", "8", "--sigma0", "0.5"] if sub == "ssl" else []
        losses = {}
        for augment in ("none", "flip"):
            out = tmp_path / augment
            assert run([sub, "--out", str(out), "--arch", "auto", *idx_args, *extra,
                        "--augment", augment]) == 0
            losses[augment] = read_records(out / "metrics.jsonl")[0]["train_loss"]
        assert losses["flip"] != losses["none"]


def test_corrupt_flips_idx_training_labels_only(idx_args):
    args = vars(cli.build_parser().parse_args(["train", *idx_args]))
    opts, _ = cli.resolve_options(cli._TRAIN_OPTS, args)

    def splits(corrupt, seed):
        return cli._load_splits({**opts, "corrupt": corrupt, "seed": seed})

    clean, dirty = splits(0.0, 1), splits(0.25, 1)
    np.testing.assert_array_equal(dirty.train.inputs, clean.train.inputs)
    flipped = dirty.train.labels != clean.train.labels
    assert flipped.sum() == round(0.25 * len(clean.train)) == 8
    np.testing.assert_array_equal(dirty.train.true_labels, clean.train.labels)
    for name in ("meta_val", "test"):
        np.testing.assert_array_equal(getattr(dirty, name).labels,
                                      getattr(clean, name).labels)
    np.testing.assert_array_equal(splits(0.25, 1).train.labels, dirty.train.labels)
    other = splits(0.25, 2).train   # another seed flips other rows
    assert (other.labels != other.true_labels).sum() == 8
    assert not np.array_equal(other.labels != other.true_labels, flipped)


@pytest.mark.parametrize("damage", ["truncated", "corrupted"])
@pytest.mark.parametrize("sub", ["train", "audit"])
def test_damaged_gzip_idx_is_a_data_error(tmp_path, capsys, sub, damage):
    """A cut or corrupted deflate stream exits 3 and creates no --out."""
    rng = np.random.default_rng(1)
    ds = data.Dataset(rng.uniform(0.0, 1.0, size=(40, 6, 6)), np.arange(40) % 2, 2)
    data.save_idx(ds, tmp_path / "img", tmp_path / "lab")
    raw = bytearray(gzip.compress((tmp_path / "img").read_bytes(), mtime=0))
    if damage == "truncated":
        raw = raw[:len(raw) // 2]
    else:
        raw[10] |= 0b110   # the first deflate block claims the reserved type 3
    (tmp_path / "img.gz").write_bytes(bytes(raw))
    out = tmp_path / "out"
    files = ["--train-images", str(tmp_path / "img.gz"),
             "--train-labels", str(tmp_path / "lab")]
    extra = (["--test-images", str(tmp_path / "img"), "--test-labels",
              str(tmp_path / "lab"), "--epochs", "1"] if sub == "train" else [])
    assert run([sub, "--out", str(out), "--data", "idx", "--n-classes", "2",
                *files, *extra]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "img.gz" in err
    assert "Traceback" not in err
    assert not out.exists()


def expect_one_data_error(capsys, *named):
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1, err
    for text in named:
        assert text in err, (text, err)


@pytest.mark.parametrize("sub, extra", [
    ("train", []), ("train", ["--arch", "cnn3"]), ("ssl", ["--labeled-per-class", "8"]),
], ids=["train", "train-cnn3", "ssl"])
def test_test_images_of_another_size_exit_3(tmp_path, capsys, sub, extra):
    """8x8 training and 6x6 test images are rejected before --out exists."""
    rng = np.random.default_rng(2)
    labels = np.arange(40) % 2
    for side in (8, 6):
        data.save_idx(data.Dataset(rng.uniform(size=(40, side, side)), labels, 2),
                      tmp_path / f"img{side}", tmp_path / "lab")
    out = tmp_path / "out"
    assert run([sub, "--out", str(out), "--data", "idx", "--n-classes", "2",
                "--train-images", str(tmp_path / "img8"),
                "--train-labels", str(tmp_path / "lab"),
                "--test-images", str(tmp_path / "img6"),
                "--test-labels", str(tmp_path / "lab"),
                "--epochs", "1", "--batch-size", "8", "--meta-val-per-class", "4",
                *extra]) == 3
    expect_one_data_error(capsys, str(tmp_path / "img6"), "(6, 6)", "(8, 8)")
    assert not out.exists()


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """Arrays of a checkpoint trained at dim 5."""
    out = tmp_path_factory.mktemp("ckpt")
    assert run(["train", "--out", str(out), "--seed", "2", *TINY]) == 0
    with np.load(out / "model.npz") as blob:
        return {key: blob[key] for key in blob.files}


class TestHostileCheckpoints:
    def audit(self, tmp_path, model, dim="5"):
        return run(["audit", "--out", str(tmp_path / "audit"), "--model", str(model),
                    "--dim", dim, "--per-class", "20", "--n-pairs", "50"])

    def expect_data_error(self, capsys, *named):
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "Traceback" not in err
        for text in named:
            assert text in err, (text, err)
        return err

    def test_missing_parameter(self, tmp_path, capsys, checkpoint):
        path = tmp_path / "x.npz"
        np.savez(path, **{k: v for k, v in checkpoint.items() if k != "p:layer1.b"})
        assert self.audit(tmp_path, path) == 3
        self.expect_data_error(capsys, str(path), "p:layer1.b")

    def test_misshaped_parameter(self, tmp_path, capsys, checkpoint):
        path = tmp_path / "x.npz"
        np.savez(path, **{**checkpoint, "p:layer0.w": checkpoint["p:layer0.w"][:, :3]})
        assert self.audit(tmp_path, path) == 3
        self.expect_data_error(capsys, str(path), "p:layer0.w")

    def test_not_an_npz(self, tmp_path, capsys):
        path = tmp_path / "x.npz"
        path.write_text("this is not a checkpoint\n")
        assert self.audit(tmp_path, path) == 3
        err = self.expect_data_error(capsys, str(path), "not an npz")
        assert "pickle" not in err

    def test_non_finite_weight(self, tmp_path, capsys, checkpoint):
        path = tmp_path / "x.npz"
        w = checkpoint["p:layer0.w"].copy()
        w[0, 0] = np.nan
        np.savez(path, **{**checkpoint, "p:layer0.w": w})
        assert self.audit(tmp_path, path) == 3
        self.expect_data_error(capsys, str(path), "p:layer0.w", "non-finite")

    @pytest.mark.parametrize("where", ["width", "input_shape"])
    def test_non_integer_size(self, tmp_path, capsys, checkpoint, where):
        spec = json.loads(str(checkpoint["__arch__"]))
        if where == "width":
            spec["layers"][-1]["width"] = 2.0
        else:
            spec["input_shape"] = [5.0]
        path = tmp_path / "x.npz"
        np.savez(path, **{**checkpoint, "__arch__": np.array(json.dumps(spec))})
        assert self.audit(tmp_path, path) == 3
        err = self.expect_data_error(capsys, str(path), "__arch__", "not an integer")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "audit").exists()

    @pytest.mark.parametrize("change, named", [
        ("kind", "unknown layer kind 'pool'"),
        ("extra", "got ['activation', 'stride', 'width']"),
        ("missing", "got ['width']"),
        ("conv", "a conv layer needs an (h, w, c) image input, got shape ("),
    ], ids=["unknown-kind", "extra-key", "missing-key", "conv-after-dense"])
    def test_malformed_layer(self, tmp_path, capsys, checkpoint, change, named):
        spec = json.loads(str(checkpoint["__arch__"]))
        layer = spec["layers"][0]
        if change == "kind":
            layer["kind"] = "pool"
        elif change == "extra":
            layer["stride"] = 1
        elif change == "missing":
            del layer["activation"]
        else:
            spec["layers"].insert(1, {"kind": "conv", "kernel": 3, "channels": 2,
                                      "activation": "relu"})
        path = tmp_path / "x.npz"
        np.savez(path, **{**checkpoint, "__arch__": np.array(json.dumps(spec))})
        assert self.audit(tmp_path, path) == 3
        err = self.expect_data_error(capsys, str(path), "__arch__", named)
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "audit").exists()

    def test_input_size_mismatch(self, tmp_path, capsys, checkpoint):
        path = tmp_path / "x.npz"
        np.savez(path, **checkpoint)
        assert self.audit(tmp_path, path, dim="8") == 3
        self.expect_data_error(capsys, str(path), "input size 5", "row size 8")


def write_even_kernel_checkpoint(path):
    """A checkpoint of a 4x4 conv net on (5, 2, 1) rows, a kernel size the
    conv passes do not run; every array has the shape its architecture
    implies."""
    layers = [{"kind": "conv", "kernel": 4, "channels": 2, "activation": "relu"},
              {"kind": "dense", "width": 2, "activation": None}]
    shapes = {"layer0.w": (4, 4, 1, 2), "layer0.b": (2,),
              "layer1.w": (20, 2), "layer1.b": (2,)}
    np.savez(path, __arch__=np.array(json.dumps({"input_shape": [5, 2, 1],
                                                 "layers": layers})),
             **{f"{kind}:{name}": np.full(shape, 0.1)
                for kind in ("p", "m") for name, shape in shapes.items()})


@pytest.mark.parametrize("extra", [[], ["--arch", "cnn3"], ["--model", "{tmp}/x.npz"]],
                         ids=["default", "cnn3", "model"])
def test_empty_idx_audit_is_a_data_error(tmp_path, capsys, checkpoint, extra):
    np.savez(tmp_path / "x.npz", **checkpoint)
    data.save_idx(data.Dataset(np.empty((0, 6, 6)), np.empty(0, dtype=np.int64), 2),
                  tmp_path / "img", tmp_path / "lab")
    out = tmp_path / "out"
    assert run(["audit", "--out", str(out), "--data", "idx", "--n-classes", "2",
                "--train-images", str(tmp_path / "img"),
                "--train-labels", str(tmp_path / "lab"),
                *(arg.format(tmp=tmp_path) for arg in extra)]) == 3
    expect_one_data_error(capsys, str(tmp_path / "img"), "no images")
    assert not out.exists()


class TestAuditRejections:
    """A rejected audit exits with its code and creates no output directory."""

    @pytest.mark.parametrize("code, reject", [
        (2, ["--n-pairs", "0"]),
        (2, ["--safety", "-1"]),
        (2, ["--safety", "nan"]),
        (2, ["--arch", "cnn3"]),
        (2, ["--arch", "mlp:0"]),
        (2, ["--seed", "-1"]),
        (2, ["--data", "bogus"]),
        (3, ["--model", "{tmp}/absent.npz"]),
        (3, ["--model", "{tmp}/even-kernel.npz"]),
        (2, ["--n-pairs", "1", "--per-class", "1", "--classes", "2", "--seed", "4"]),
        (2, ["--field", "quadratic", "--diag", "nan,1"]),
        (2, ["--field", "quadratic", "--diag", "1,-inf"]),
        (2, ["--n-classes", "3"]),
        (2, ["--data", "idx", "--classes", "3"]),
    ], ids=["n-pairs", "safety", "safety-nan", "arch", "arch-zero", "seed",
            "data", "checkpoint", "checkpoint-even-kernel", "degenerate-pairs",
            "diag", "diag-inf", "idx-flag-synthetic", "synthetic-flag-idx"])
    def test_exit_code_and_no_output_dir(self, tmp_path, capsys, code, reject):
        write_even_kernel_checkpoint(tmp_path / "even-kernel.npz")
        out = tmp_path / "audit"
        argv = ["audit", "--out", str(out), "--per-class", "20", "--n-pairs", "50",
                *(arg.format(tmp=tmp_path) for arg in reject)]
        assert run(argv) == code
        prefix = {2: "config error:", 3: "data error:", 4: "numeric failure:"}[code]
        assert capsys.readouterr().err.startswith(prefix)
        assert not out.exists()


def test_overflowing_pair_distances_fail_at_the_estimate(tmp_path, capsys):
    # noise of 1e200 overflows every pair distance; the estimate used to
    # report kappa 0 after two RuntimeWarnings and the audit step then failed
    out = tmp_path / "audit"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["audit", "--out", str(out), "--noise-sigma", "1e200",
                    "--n-pairs", "10"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("numeric failure: kappa estimate") and err.count("\n") == 1
    assert not out.exists()


def test_quadratic_of_huge_entries_fails_at_the_estimate(tmp_path, capsys):
    # kappa is 1e308, but gradients at points of norm ~2 times it overflow;
    # building the field and taking the gradients used to warn first
    out = tmp_path / "audit"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["audit", "--out", str(out), "--field", "quadratic",
                    "--diag", "1e308,1e308", "--n-pairs", "50"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "numeric failure: kappa estimate: a gradient difference is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_checkpoint_whose_first_layer_overflows_fails_at_the_audit(
        tmp_path, capsys, activation):
    # 1e308 times a first input past 1.8 overflows layer 0, whose units
    # saturate to finite logits and gradients; the kappa estimate's forward
    # checks each pre-activation as the engine does, so the run fails there
    model = nets.build_model(nets.mlp(5, [4], 2, activation=activation),
                             np.random.default_rng(0))
    weight = np.zeros((5, 4))
    weight[0] = 1e308
    model.params["layer0.w"].data = weight
    nets.save_model(model, tmp_path / "m.npz")
    out = tmp_path / "audit"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["audit", "--out", str(out), "--model", str(tmp_path / "m.npz"),
                    "--dim", "5", "--per-class", "20", "--n-pairs", "50"])
    assert code == 4
    assert capsys.readouterr().err == "numeric failure: non-finite values produced by layer 0\n"
    assert not out.exists()


class TestAuditRun:
    def test_quadratic_default_safety_clean(self, tmp_path):
        out = tmp_path / "audit"
        assert run(["audit", "--out", str(out), "--field", "quadratic",
                    "--diag", "1,3", "--n-pairs", "400", "--seed", "1"]) == 0
        payload = json.loads((out / "audit.json").read_text())
        assert payload["violations"] == 0
        assert payload["estimate"]["kappa"] <= 3.0 + 1e-9
        rows = np.loadtxt(out / "pairs.csv", delimiter=",", skiprows=1)
        assert rows.shape == (400 * 9, 4)

    def test_trained_checkpoint_audit(self, tmp_path):
        train_out = tmp_path / "t"
        assert run(["train", "--out", str(train_out), "--seed", "2", *TINY]) == 0
        out = tmp_path / "audit"
        assert run(["audit", "--out", str(out), "--field", "network",
                    "--model", str(train_out / "model.npz"), "--dim", "5",
                    "--per-class", "30", "--n-pairs", "300", "--seed", "3"]) == 0
        payload = json.loads((out / "audit.json").read_text())
        assert payload["violations"] == 0
        assert payload["worst_channel"] in (0, 1)
        assert len(payload["estimate"]["per_channel"]) == 2

    def test_auto_arch_audits_the_default_net(self, tmp_path):
        args = ["--per-class", "30", "--dim", "5", "--n-pairs", "300", "--seed", "3"]
        assert run(["audit", "--out", str(tmp_path / "auto"), "--arch", "auto", *args]) == 0
        assert run(["audit", "--out", str(tmp_path / "unset"), *args]) == 0
        auto, unset = (json.loads((tmp_path / d / "audit.json").read_text())
                       for d in ("auto", "unset"))
        assert auto == unset

    def test_understated_safety_reports_but_succeeds(self, tmp_path, capsys):
        out = tmp_path / "audit"
        assert run(["audit", "--out", str(out), "--field", "quadratic",
                    "--diag", "1,3", "--n-pairs", "400", "--safety", "0.5",
                    "--seed", "1"]) == 0
        payload = json.loads((out / "audit.json").read_text())
        assert payload["violations"] > 0


def readme_mnist_command() -> list[str]:
    """The README's MNIST run: the `metamix train` command naming the IDX
    files, without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = next(line for line in text.replace("\\\n", "").splitlines()
                if line.startswith("metamix train") and "--train-images" in line)
    return shlex.split(line)[1:]


def test_readme_mnist_command_trains_criterion_9s_model(tmp_path):
    """The CLI form of acceptance criterion 9, cut to a 600-row synthetic
    28x28 set and one epoch, saves the model the criterion's own config
    trains, byte for byte."""
    d = tmp_path / "mnist"
    d.mkdir()
    rng = np.random.default_rng(0)
    for prefix, n in (("train", 600), ("t10k", 100)):
        digits = data.Dataset(rng.uniform(size=(n, 28, 28)), np.arange(n) % 10, 10)
        data.save_idx(digits, d / f"{prefix}-images-idx3-ubyte",
                      d / f"{prefix}-labels-idx1-ubyte")

    argv = [str(d / arg[2:]) if arg.startswith("D/") else arg
            for arg in readme_mnist_command()]
    for flag, value in (("--limit-train", "600"), ("--epochs", "1"),
                        ("--out", str(tmp_path / "cli"))):
        argv[argv.index(flag) + 1] = value
    assert run(argv) == 0

    train = data.load_idx(d / "train-images-idx3-ubyte", d / "train-labels-idx1-ubyte")
    test_set = data.load_idx(d / "t10k-images-idx3-ubyte", d / "t10k-labels-idx1-ubyte")
    rest, meta_val = data.split_meta_validation(train.subset(np.arange(600)),
                                                data.SplitSpec(50, seed=9))
    cfg = meta.TrainConfig(
        mode="metamixup", epochs=1, batch_size=50, seed=9, arch=nets.cnn3(),
        optimizer=nets.OptimizerConfig(learning_rate=0.05, momentum=0.9,
                                       weight_decay=1e-4, cosine_anneal=True,
                                       horizon=1))
    report = meta.train_supervised(data.Splits(train=rest, meta_val=meta_val,
                                               test=test_set), cfg)
    nets.save_model(report.model, tmp_path / "criterion.npz")
    assert (tmp_path / "cli" / "model.npz").read_bytes() == \
        (tmp_path / "criterion.npz").read_bytes()
