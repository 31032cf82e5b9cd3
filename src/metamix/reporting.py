"""Per-epoch metric records and the JSON-lines writer.

One schema for every trainer: fields that do not apply to a run carry the
sentinel -1.0 (threshold, pseudo_accuracy) or 0 (accepted_count) so that
downstream parsers never branch on run type. wall_seconds is the single
field excluded from determinism comparisons.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import IO

import numpy as np

LAMBDA_BINS = 10

FIELD_ORDER = (
    "epoch", "train_loss", "meta_loss", "val_loss", "test_error",
    "lambda_mean", "lambda_std", "lambda_hist", "threshold",
    "accepted_count", "pseudo_accuracy", "wall_seconds",
)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    meta_loss: float
    val_loss: float
    test_error: float
    lambda_mean: float
    lambda_std: float
    lambda_hist: list[float] = field(default_factory=lambda: [0.0] * LAMBDA_BINS)
    threshold: float = -1.0
    accepted_count: int = 0
    pseudo_accuracy: float = -1.0
    wall_seconds: float = 0.0

    def __post_init__(self):
        if len(self.lambda_hist) != LAMBDA_BINS:
            raise ValueError(f"lambda_hist needs {LAMBDA_BINS} bins, "
                             f"got {len(self.lambda_hist)}")

    def to_json(self) -> str:
        as_map = asdict(self)
        return json.dumps({key: as_map[key] for key in FIELD_ORDER})


def lambda_histogram(values: np.ndarray) -> list[float]:
    """Relative frequencies over 10 uniform bins on [0, 1]."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        return [0.0] * LAMBDA_BINS
    counts, _ = np.histogram(values, bins=LAMBDA_BINS, range=(0.0, 1.0))
    return (counts / values.size).tolist()


def write_records(records, fh: IO[str]) -> None:
    """One JSON line per record, each flushed once written."""
    for rec in records:
        fh.write(rec.to_json() + "\n")
        fh.flush()


def read_records(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
