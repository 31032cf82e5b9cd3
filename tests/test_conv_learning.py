"""The conv training path learns: cnn3 on small noisy images of bars, read
from IDX files as [h, w] rows, reaches a test error far below chance.

The bitwise and finite-difference tests show that the conv gradients are
right; they would not catch a wrong mix, a wrong image shape or a wrong
augmentation. Each run here goes through the command line, as an MNIST run
would. Chance is 2/3. The ceiling comes from a sweep over data and run seeds
0-11 of these configurations: supervised metamixup ended at 0.020-0.133 and
SSL with flip-translate at 0.000-0.120. Mixing the inputs with 1 - lambda
while the labels keep lambda ends seed 0 at 0.567 and 0.387.
"""

import json

import numpy as np
import pytest

from metamix import cli, data, nets

CEILING = 0.25
CLASSES = 3


def bar_images(per_class: int, rng: np.random.Generator, size: int = 10,
               length: int = 5, noise: float = 0.3) -> data.Dataset:
    """``per_class`` images per class of one bar of ``length`` pixels at a
    random place: horizontal, vertical, or diagonal either way, so a
    horizontal flip keeps every label. Gaussian noise, clipped to [0, 1]."""
    labels = np.arange(CLASSES * per_class) % CLASSES
    images = np.zeros((len(labels), size, size))
    t = np.arange(length)
    for i, label in enumerate(labels):
        r, s = rng.integers(0, size - length + 1, size=2)
        if label == 0:
            images[i, r + length // 2, s + t] = 1.0
        elif label == 1:
            images[i, r + t, s + length // 2] = 1.0
        else:
            images[i, r + t, s + (t if rng.random() < 0.5 else length - 1 - t)] = 1.0
    images += noise * rng.normal(size=images.shape)
    return data.Dataset(np.clip(images, 0.0, 1.0), labels, CLASSES)


# subcommand -> (training images per class, flags); each run keeps 10 images
# per class for meta-validation, and SSL labels 60 of the rest
RUNS = {
    "train": (70, ["--epochs", "12", "--lr", "0.1"]),
    "ssl": (100, ["--epochs", "20", "--lr", "0.05", "--labeled-per-class", "60",
                  "--sigma0", "0.9", "--augment", "flip-translate"]),
}


@pytest.mark.parametrize("sub", list(RUNS))
def test_cnn3_learns_bar_orientations_from_idx_images(tmp_path, sub):
    per_class, flags = RUNS[sub]
    rng = np.random.default_rng(0)
    files = []
    for name, count in (("train", per_class), ("test", 50)):
        images, labels = tmp_path / f"{name}-images", tmp_path / f"{name}-labels"
        data.save_idx(bar_images(count, rng), images, labels)
        files += [f"--{name}-images", str(images), f"--{name}-labels", str(labels)]
    out = tmp_path / "run"
    assert cli.main([sub, "--data", "idx", *files, "--n-classes", str(CLASSES),
                     "--arch", "cnn3", "--mode", "metamixup", "--batch-size", "20",
                     "--meta-val-per-class", "10", "--seed", "0", "--out", str(out),
                     *flags]) == 0
    model = nets.load_model(out / "model.npz")
    assert model.arch == nets.cnn3((10, 10), 1, CLASSES)
    error = json.loads((out / "summary.json").read_text())["final_test_error"]
    assert error < CEILING, f"{sub}: test error {error:.3f}"
