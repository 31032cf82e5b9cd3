"""Datasets: IDX file I/O, synthetic generators, label corruption, splits;
and the settings that config dataclasses declare with their allowed values.

IDX is the classic big-endian binary layout (magic 2051 for image tensors,
2049 for label vectors). Values load as float64 scaled to [0, 1]; labels as
int64. Synthetic datasets keep a shadow copy of the uncorrupted labels so
pseudo-label accuracy and corruption studies can be scored.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

IMAGE_MAGIC = 2051  # 0x00000803: ubyte, 3 dims
LABEL_MAGIC = 2049  # 0x00000801: ubyte, 1 dim
_READ_CHUNK = 1 << 20


class DataError(Exception):
    """Malformed files, impossible splits, bad generator specs."""


def values_in(allowed):
    """A test for one setting's values, whose ``range`` is its text: an
    interval such as "[2, inf)" or "(0, 1]" (NaN lies in none), or a tuple of
    the accepted words."""
    if isinstance(allowed, tuple):
        test = lambda v: v in allowed
        test.range = "{" + ", ".join(allowed) + "}"
        return test
    lo, hi = (float(end) for end in allowed[1:-1].split(","))
    test = lambda v: ((lo <= v if allowed[0] == "[" else lo < v)
                      and (v <= hi if allowed[-1] == "]" else v < hi))
    test.range = allowed
    return test


def setting(default, allowed):
    """A config dataclass field holding its default and the values it may take
    (:func:`values_in`), for ``check_settings`` and the command line alike."""
    return field(default=default, metadata={"values": values_in(allowed)})


def check_settings(config, error=ValueError) -> None:
    """Raise error for the first setting of config whose value lies outside
    its declared values, as ``<field> must be in <range>, got <value>``."""
    for f in fields(config):
        test, value = f.metadata.get("values"), getattr(config, f.name)
        if test is not None and not test(value):
            raise error(f"{f.name} must be in {test.range}, got {value}")


@dataclass
class Dataset:
    inputs: np.ndarray           # [n, ...] float64
    labels: np.ndarray           # [n] int64
    n_classes: int
    provenance: str = "synthetic"
    true_labels: np.ndarray | None = None  # pre-corruption labels, when known

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.inputs) != len(self.labels):
            raise DataError(f"{len(self.inputs)} inputs vs {len(self.labels)} labels")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise DataError(f"labels outside [0, {self.n_classes})")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, idx) -> "Dataset":
        """The rows that ``idx`` picks: integer indices or a boolean mask."""
        idx = np.asarray(idx)
        if not idx.size:   # np.asarray([]) is float64, which cannot index
            idx = idx.astype(np.intp)
        true = None if self.true_labels is None else self.true_labels[idx]
        return Dataset(self.inputs[idx], self.labels[idx], self.n_classes,
                       self.provenance, true)


@dataclass
class Splits:
    train: Dataset
    meta_val: Dataset
    test: Dataset


# ---------------------------------------------------------------------------
# IDX files


def _read_exact(fh, count: int, what: str, path) -> bytes:
    """Read exactly count bytes. Reading in bounded chunks keeps memory to what
    the file holds, whatever size a lying header claims."""
    if count < 0:
        raise DataError(f"{path}: negative {what} size {count}")
    chunks, got = [], 0
    while got < count:
        chunk = fh.read(min(count - got, _READ_CHUNK))
        if not chunk:
            raise DataError(f"{path}: truncated {what} (wanted {count} bytes, got {got})")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


@contextmanager
def _open_idx(path):
    # the canonical distribution ships gzipped; accept either form
    try:
        with (gzip.open if str(path).endswith(".gz") else open)(path, "rb") as fh:
            yield fh
    except (EOFError, zlib.error) as exc:   # a cut or corrupted gzip stream
        raise DataError(f"{path}: damaged gzip data: {exc}") from exc


def load_idx(images_path, labels_path, n_classes: int = 10) -> Dataset:
    """Read an images/labels IDX pair; pixel values scale to [0, 1]."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    with _open_idx(images_path) as fh:
        magic, count = struct.unpack(">ll", _read_exact(fh, 8, "header", images_path))
        if magic != IMAGE_MAGIC:
            raise DataError(f"{images_path}: bad image magic {magic}, expected {IMAGE_MAGIC}")
        rows, cols = struct.unpack(">ll", _read_exact(fh, 8, "dims", images_path))
        if count < 0 or rows <= 0 or cols <= 0:
            raise DataError(f"{images_path}: nonsensical dims {count}x{rows}x{cols}")
        raw = _read_exact(fh, count * rows * cols, "pixel data", images_path)
        if fh.read(1):
            raise DataError(f"{images_path}: trailing bytes after pixel data")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    with _open_idx(labels_path) as fh:
        magic, lcount = struct.unpack(">ll", _read_exact(fh, 8, "header", labels_path))
        if magic != LABEL_MAGIC:
            raise DataError(f"{labels_path}: bad label magic {magic}, expected {LABEL_MAGIC}")
        raw = _read_exact(fh, lcount, "label data", labels_path)
        labels = np.frombuffer(raw, dtype=np.uint8)
    if lcount != count:
        raise DataError(f"count mismatch: {count} images vs {lcount} labels")
    return Dataset(images.astype(np.float64) / 255.0, labels.astype(np.int64),
                   n_classes, provenance=str(images_path))


def save_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Write the dataset back out in IDX layout (u8 quantization).

    Inputs must already lie in [0, 1]. Vector datasets [n, d] are stored as
    [n, d, 1] to keep the 3-dim image magic.
    """
    x = dataset.inputs
    if x.size and (x.min() < -1e-12 or x.max() > 1 + 1e-12):
        raise DataError(f"save_idx: inputs outside [0, 1] (min {x.min()}, max {x.max()})")
    if x.ndim == 2:
        x = x[:, :, None]
    if x.ndim != 3:
        raise DataError(f"save_idx: need [n, h, w] or [n, d] inputs, got shape {x.shape}")
    labels = dataset.labels
    if labels.size and labels.max() > 255:
        raise DataError(f"save_idx: label {labels.max()} exceeds the u8 range")
    quantized = np.clip(np.round(x * 255.0), 0, 255).astype(np.uint8)
    n, rows, cols = quantized.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">llll", IMAGE_MAGIC, n, rows, cols))
        fh.write(quantized.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ll", LABEL_MAGIC, n))
        fh.write(labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = setting(2, "[2, inf)")
    per_class: int = setting(250, "[1, inf)")
    dim: int = setting(10, "[1, inf)")
    separation: float = setting(4.0, "[0, inf)")   # distance between any two class means
    noise_sigma: float = setting(1.0, "(0, inf)")
    class_sigmas: tuple[float, ...] | None = None  # per-class noise overrides
    unit_box: bool = False    # squash into [0, 1] for IDX-compatible data

    def __post_init__(self):
        check_settings(self, DataError)
        if self.dim < self.classes:
            raise DataError(f"dim {self.dim} < classes {self.classes}; "
                            "means are placed on distinct axes")
        if self.class_sigmas is not None and (len(self.class_sigmas) != self.classes or not
                                              all(0 < s < np.inf for s in self.class_sigmas)):
            raise DataError(f"class_sigmas needs {self.classes} positive finite entries")

    def sigma_of(self, label: int) -> float:
        return (self.noise_sigma if self.class_sigmas is None
                else self.class_sigmas[label])


def make_synthetic(spec: SyntheticSpec, rng: np.random.Generator) -> Dataset:
    """Gaussian blobs, one per class, centered on scaled one-hot axes so every
    pair of means sits exactly ``separation`` apart. Per-class sigmas make the
    optimal boundary curved instead of a plain hyperplane."""
    radius = spec.separation / np.sqrt(2.0)
    means = np.zeros((spec.classes, spec.dim))
    for c in range(spec.classes):
        means[c, c] = radius
    n = spec.classes * spec.per_class
    labels = np.repeat(np.arange(spec.classes), spec.per_class)
    sigmas = np.array([spec.sigma_of(c) for c in labels])[:, None]
    x = means[labels] + sigmas * rng.normal(size=(n, spec.dim))
    order = rng.permutation(n)
    x, labels = x[order], labels[order]
    if spec.unit_box:
        # affine squash of the blob field into the unit box
        lo = means.min() - 4 * spec.noise_sigma
        hi = means.max() + 4 * spec.noise_sigma
        x = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    return Dataset(x, labels, spec.classes, provenance="synthetic",
                   true_labels=labels.copy())


def corrupt_labels(dataset: Dataset, fraction: float,
                   rng: np.random.Generator) -> Dataset:
    """Reassign exactly round(fraction*n) labels to a uniformly random *other*
    class. The returned dataset keeps the clean labels as true_labels."""
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"corrupt fraction must be in [0, 1], got {fraction}")
    n = len(dataset)
    k = int(round(fraction * n))
    labels = dataset.labels.copy()
    if k:
        hit = rng.choice(n, size=k, replace=False)
        # uniform over the other classes: shift a draw from [0, C-1)
        bump = rng.integers(1, dataset.n_classes, size=k)
        labels[hit] = (labels[hit] + bump) % dataset.n_classes
    return Dataset(dataset.inputs.copy(), labels, dataset.n_classes,
                   dataset.provenance, true_labels=dataset.labels.copy())


# ---------------------------------------------------------------------------
# augmentation

AUGMENT_MODES = ("none", "flip", "flip-translate")


def augment_batch(x: np.ndarray, mode: str, rng: np.random.Generator,
                  max_shift: int = 2) -> np.ndarray:
    """Per-sample horizontal flip (p = 0.5), optionally plus a uniform
    translation of up to ``max_shift`` pixels with zero fill.

    Applies to image batches ([n, h, w] or [n, h, w, c]) only; vector batches
    pass through untouched and consume no randomness. Runs before mixing.
    """
    if mode not in AUGMENT_MODES:
        raise DataError(f"unknown augmentation '{mode}'; options: {AUGMENT_MODES}")
    if mode == "none" or x.ndim < 3:
        return x
    out = x.copy()
    flip = rng.random(len(x)) < 0.5
    out[flip] = out[flip, :, ::-1]
    if mode == "flip-translate":
        shifts = rng.integers(-max_shift, max_shift + 1, size=(len(x), 2))
        pad_spec = ((0, 0), (max_shift, max_shift), (max_shift, max_shift))
        if x.ndim == 4:
            pad_spec = pad_spec + ((0, 0),)
        padded = np.pad(out, pad_spec)
        h, w = x.shape[1], x.shape[2]
        for i, (dy, dx) in enumerate(shifts):
            top, left = max_shift + dy, max_shift + dx
            out[i] = padded[i, top:top + h, left:left + w]
    return out


# ---------------------------------------------------------------------------
# splits


@dataclass(frozen=True)
class SplitSpec:
    meta_val_per_class: int
    seed: int = 0


def split_meta_validation(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Carve a class-balanced meta-validation set out of a training set.

    Returns (train_rest, meta_val); the two are disjoint and meta_val holds
    exactly meta_val_per_class samples of every class.
    """
    rng = np.random.default_rng(spec.seed)
    val_idx = _per_class_draw(dataset, spec.meta_val_per_class, rng,
                              purpose="meta-validation")
    mask = np.ones(len(dataset), dtype=bool)
    mask[val_idx] = False
    return dataset.subset(np.flatnonzero(mask)), dataset.subset(val_idx)


def split_labeled_pool(dataset: Dataset, per_class: int,
                       seed: int = 0) -> tuple[Dataset, Dataset]:
    """(labeled, unlabeled) split for semi-supervised runs, class-balanced.

    The unlabeled half keeps its labels only as true_labels (for scoring);
    its visible labels are zeroed to make accidental use obvious."""
    rng = np.random.default_rng(seed)
    lab_idx = _per_class_draw(dataset, per_class, rng, purpose="labeled pool")
    mask = np.ones(len(dataset), dtype=bool)
    mask[lab_idx] = False
    labeled = dataset.subset(lab_idx)
    rest = dataset.subset(np.flatnonzero(mask))
    # keep the clean shadow labels when the pool was corrupted upstream
    true = rest.labels.copy() if rest.true_labels is None else rest.true_labels
    unlabeled = Dataset(rest.inputs, np.zeros(len(rest), dtype=np.int64),
                        dataset.n_classes, dataset.provenance, true_labels=true)
    return labeled, unlabeled


def _per_class_draw(dataset: Dataset, per_class: int, rng: np.random.Generator,
                    purpose: str) -> np.ndarray:
    if per_class < 1:
        raise DataError(f"{purpose}: per-class count must be >= 1")
    picks = []
    for c in range(dataset.n_classes):
        pool = np.flatnonzero(dataset.labels == c)
        if len(pool) < per_class:
            raise DataError(f"{purpose}: class {c} has {len(pool)} samples, "
                            f"needs {per_class}")
        picks.append(rng.choice(pool, size=per_class, replace=False))
    return np.concatenate(picks)


def standard_splits(spec: SyntheticSpec, seed: int, corrupt: float = 0.0,
                    meta_val_per_class: int = 10,
                    test_per_class: int | None = None) -> Splits:
    """The common synthetic recipe: generate, corrupt train labels, split."""
    rng = np.random.default_rng(seed)
    train_full = make_synthetic(spec, rng)
    test_spec = spec if test_per_class is None else replace(spec, per_class=test_per_class)
    test = make_synthetic(test_spec, rng)
    train_rest, meta_val = split_meta_validation(
        train_full, SplitSpec(meta_val_per_class, seed=seed + 1))
    if corrupt != 0:
        train_rest = corrupt_labels(train_rest, corrupt, rng)
    return Splits(train=train_rest, meta_val=meta_val, test=test)
