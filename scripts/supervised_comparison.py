"""Multi-seed supervised comparison: learned lambda vs Beta(a,a) vs fixed 0.5.

Each run is the ``sup-mlp`` benchmark setup (acceptance criterion 7): the
two-Gaussian task with unequal class spreads, 20% corrupted training labels,
batch 50 and 50 cosine-annealed epochs, taken from ``perfbench/workloads.py``,
which is only read. Prints per-seed test errors and the mean/std per mode.
Run it from the repository root:

    python3 scripts/supervised_comparison.py --seeds 5
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from metamix import meta  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODES = ("metamixup", "mixup-beta", "mixup-fixed")


def run(mode: str, seed: int) -> float:
    inputs = WORKLOADS["sup-mlp"].setup(seed)
    config = dataclasses.replace(inputs.config, mode=mode)
    return meta.train_supervised(inputs.splits, config).final_test_error


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    print(f"{'seed':>4}  " + "  ".join(f"{m:>12}" for m in MODES))
    errors = {m: [] for m in MODES}
    for seed in range(args.seeds):
        for mode in MODES:
            errors[mode].append(run(mode, seed))
        print(f"{seed:>4}  " + "  ".join(f"{errors[m][-1]:>12.4f}" for m in MODES))

    print("-" * (6 + 14 * len(MODES)))
    means = {m: np.mean(errors[m]) for m in MODES}
    stds = {m: np.std(errors[m]) for m in MODES}
    print(f"{'mean':>4}  " + "  ".join(f"{means[m]:>12.4f}" for m in MODES))
    print(f"{'std':>4}  " + "  ".join(f"{stds[m]:>12.4f}" for m in MODES))

    ok = (means["metamixup"] <= means["mixup-beta"] + 0.005
          and means["mixup-beta"] <= means["mixup-fixed"])
    print(f"\nexpected ordering metamixup <= beta <= fixed: "
          f"{'holds' if ok else 'VIOLATED'}")


if __name__ == "__main__":
    main()
