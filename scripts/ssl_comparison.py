"""Semi-supervised comparison at 10% labeled: learned mixing vs pseudo-labels.

Each run is the ``ssl-mlp`` benchmark setup (acceptance criterion 8), taken
from ``perfbench/workloads.py``, which is only read: the two-Gaussian task of
the supervised comparison, 24 labeled points per class, the rest of the
training set unlabeled and pseudo-labeled under a threshold that starts at
0.7 and drops every 5 epochs, batch 8, 60 epochs. Run it from the repository
root:

    python3 scripts/ssl_comparison.py --seeds 5
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from metamix import semi  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODES = ("metamixup", "baseline")


def run(mode: str, seed: int):
    inputs = WORKLOADS["ssl-mlp"].setup(seed)
    config = dataclasses.replace(inputs.config, mode=mode)
    report = semi.train_ssl(inputs.splits, inputs.unlabeled, config)
    last = report.records[-1]
    return report.final_test_error, last.accepted_count, last.pseudo_accuracy


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    print(f"{'seed':>4}  {'mode':>10}  {'test_err':>8}  {'accepted':>8}  "
          f"{'pseudo_acc':>10}")
    errors = {m: [] for m in MODES}
    for seed in range(args.seeds):
        for mode in MODES:
            err, accepted, pacc = run(mode, seed)
            errors[mode].append(err)
            print(f"{seed:>4}  {mode:>10}  {err:>8.4f}  {accepted:>8}  "
                  f"{pacc:>10.4f}")

    print("-" * 48)
    for mode in MODES:
        print(f"{'mean':>4}  {mode:>10}  {np.mean(errors[mode]):>8.4f}  "
              f"(std {np.std(errors[mode]):.4f})")

    margin = np.mean(errors["baseline"]) - np.mean(errors["metamixup"])
    print(f"\nmetamixup+apl improves on the pseudo-label baseline by "
          f"{margin:+.4f} mean error")


if __name__ == "__main__":
    main()
