import struct

import gzip

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metamix import data as dio
from metamix.data import DataError, Dataset, SplitSpec, SyntheticSpec


class TestSynthetic:
    def test_counts_and_balance(self):
        spec = SyntheticSpec(classes=3, per_class=40, dim=5)
        ds = dio.make_synthetic(spec, np.random.default_rng(0))
        assert len(ds) == 120
        assert np.all(np.bincount(ds.labels) == 40)
        assert ds.true_labels is not None

    def test_mean_separation_exact(self):
        spec = SyntheticSpec(classes=4, per_class=2000, dim=6,
                             separation=8.0, noise_sigma=0.5)
        ds = dio.make_synthetic(spec, np.random.default_rng(1))
        means = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(4)])
        for a in range(4):
            for b in range(a + 1, 4):
                d = np.linalg.norm(means[a] - means[b])
                assert d == pytest.approx(8.0, rel=0.05)

    def test_wide_separation_is_linearly_separable(self):
        # separation 10 sigma: nearest-mean classification errs ~Phi(-5)
        spec = SyntheticSpec(classes=2, per_class=500, dim=4,
                             separation=10.0, noise_sigma=1.0)
        ds = dio.make_synthetic(spec, np.random.default_rng(2))
        means = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(2)])
        pred = np.argmin(
            np.linalg.norm(ds.inputs[:, None, :] - means[None], axis=2), axis=1)
        assert np.mean(pred != ds.labels) < 0.01

    def test_unit_box_output_range(self):
        spec = SyntheticSpec(classes=2, per_class=50, dim=4, unit_box=True)
        ds = dio.make_synthetic(spec, np.random.default_rng(3))
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_spec_validation(self):
        with pytest.raises(DataError):
            SyntheticSpec(classes=1)
        with pytest.raises(DataError):
            SyntheticSpec(classes=5, dim=3)


class TestCorruption:
    def test_exact_count_and_shadow(self):
        spec = SyntheticSpec(classes=4, per_class=100, dim=6)
        ds = dio.make_synthetic(spec, np.random.default_rng(4))
        out = dio.corrupt_labels(ds, 0.2, np.random.default_rng(5))
        flips = np.sum(out.labels != ds.labels)
        assert flips == 80  # exactly round(0.2 * 400), never to the same class
        np.testing.assert_array_equal(out.true_labels, ds.labels)

    def test_zero_fraction_is_identity(self):
        spec = SyntheticSpec(classes=2, per_class=10, dim=3)
        ds = dio.make_synthetic(spec, np.random.default_rng(6))
        out = dio.corrupt_labels(ds, 0.0, np.random.default_rng(7))
        np.testing.assert_array_equal(out.labels, ds.labels)

    @settings(max_examples=20, deadline=None)
    @given(frac=st.sampled_from([0.1, 0.25, 0.5]), seed=st.integers(0, 1000))
    def test_corrupted_labels_never_match_original(self, frac, seed):
        spec = SyntheticSpec(classes=3, per_class=40, dim=4)
        ds = dio.make_synthetic(spec, np.random.default_rng(8))
        out = dio.corrupt_labels(ds, frac, np.random.default_rng(seed))
        changed = out.labels != ds.labels
        assert changed.sum() == int(round(frac * len(ds)))
        # every flip landed on a different class, none out of range
        assert out.labels.min() >= 0 and out.labels.max() < 3


def shifted(image, dy, dx):
    """image[r + dy, c + dx] at (r, c), zero where that falls outside."""
    out = np.zeros_like(image)
    h, w = image.shape[:2]
    for r in range(h):
        for c in range(w):
            if 0 <= r + dy < h and 0 <= c + dx < w:
                out[r, c] = image[r + dy, c + dx]
    return out


class TestAugment:
    @pytest.mark.parametrize("shape", [(24, 5, 6), (24, 5, 6, 2)], ids=["nhw", "nhwc"])
    def test_flip_translate_rows_are_flipped_shifted_inputs(self, shape):
        # inputs in [0.5, 1) so the zero fill cannot pass for a pixel
        x = np.random.default_rng(0).uniform(0.5, 1.0, size=shape)
        out = dio.augment_batch(x, "flip-translate", np.random.default_rng(3))
        assert out.shape == x.shape
        moves = set()
        for row, image in zip(out, x):
            hits = [(flip, dy, dx) for flip in (False, True)
                    for dy in range(-2, 3) for dx in range(-2, 3)
                    if np.array_equal(row, shifted(image[:, ::-1] if flip else image,
                                                   dy, dx))]
            assert hits, "a row is not a flipped or shifted input"
            moves.add(hits[0])
        assert len(moves) > 5   # the rows draw their own flip and shift
        np.testing.assert_array_equal(
            out, dio.augment_batch(x, "flip-translate", np.random.default_rng(3)))


class TestSplits:
    def test_meta_val_disjoint_and_balanced(self):
        spec = SyntheticSpec(classes=3, per_class=50, dim=4)
        ds = dio.make_synthetic(spec, np.random.default_rng(9))
        rest, val = dio.split_meta_validation(ds, SplitSpec(meta_val_per_class=5, seed=1))
        assert len(val) == 15 and len(rest) == 135
        assert np.all(np.bincount(val.labels, minlength=3) == 5)
        # disjointness via row identity
        seen = {row.tobytes() for row in rest.inputs}
        assert not any(row.tobytes() in seen for row in val.inputs)

    def test_insufficient_class_raises(self):
        spec = SyntheticSpec(classes=2, per_class=3, dim=3)
        ds = dio.make_synthetic(spec, np.random.default_rng(10))
        with pytest.raises(DataError, match="class"):
            dio.split_meta_validation(ds, SplitSpec(meta_val_per_class=4))

    def test_labeled_pool_split(self):
        spec = SyntheticSpec(classes=2, per_class=100, dim=4)
        ds = dio.make_synthetic(spec, np.random.default_rng(11))
        labeled, unlabeled = dio.split_labeled_pool(ds, per_class=10, seed=2)
        assert len(labeled) == 20 and len(unlabeled) == 180
        assert np.all(unlabeled.labels == 0)  # visible labels blanked
        assert unlabeled.true_labels is not None
        assert unlabeled.true_labels.max() == 1

    @pytest.mark.parametrize("pick", [[], [2, 0], [True, False, True, False], np.arange(0)])
    def test_subset_takes_indices_or_a_mask(self, pick):
        ds = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], 2,
                     true_labels=np.array([1, 1, 0, 0]))
        rows = np.flatnonzero(pick) if np.asarray(pick).dtype == bool else pick
        part = ds.subset(pick)
        assert part.inputs.shape == (len(rows), 2) and part.inputs.dtype == np.float64
        np.testing.assert_array_equal(part.inputs, ds.inputs[rows])
        np.testing.assert_array_equal(part.labels, ds.labels[rows])
        np.testing.assert_array_equal(part.true_labels, ds.true_labels[rows])

    def test_split_determinism(self):
        spec = SyntheticSpec(classes=2, per_class=30, dim=3)
        ds = dio.make_synthetic(spec, np.random.default_rng(12))
        a_rest, a_val = dio.split_meta_validation(ds, SplitSpec(3, seed=9))
        b_rest, b_val = dio.split_meta_validation(ds, SplitSpec(3, seed=9))
        np.testing.assert_array_equal(a_val.inputs, b_val.inputs)
        np.testing.assert_array_equal(a_rest.labels, b_rest.labels)


class TestIdx:
    def _unit_dataset(self, rng, n=40, shape=(6, 5)):
        x = rng.uniform(0, 1, size=(n,) + shape)
        y = rng.integers(0, 10, n)
        return Dataset(x, y, 10)

    def test_roundtrip_labels_exact_values_quantized(self, tmp_path):
        rng = np.random.default_rng(13)
        ds = self._unit_dataset(rng)
        dio.save_idx(ds, tmp_path / "img", tmp_path / "lab")
        back = dio.load_idx(tmp_path / "img", tmp_path / "lab")
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert np.abs(back.inputs - ds.inputs).max() <= 0.5 / 255 + 1e-12

    def test_gzipped_files_load_transparently(self, tmp_path):
        rng = np.random.default_rng(27)
        ds = self._unit_dataset(rng)
        dio.save_idx(ds, tmp_path / "img", tmp_path / "lab")
        for name in ("img", "lab"):
            with open(tmp_path / name, "rb") as src, \
                    gzip.open(tmp_path / f"{name}.gz", "wb") as dst:
                dst.write(src.read())
        back = dio.load_idx(tmp_path / "img.gz", tmp_path / "lab.gz")
        np.testing.assert_array_equal(back.labels, ds.labels)

    @pytest.mark.parametrize("damage", ["truncated", "corrupted"])
    @pytest.mark.parametrize("name", ["img", "lab"])
    def test_damaged_gzip_is_a_data_error(self, tmp_path, name, damage):
        ds = self._unit_dataset(np.random.default_rng(28))
        dio.save_idx(ds, tmp_path / "img", tmp_path / "lab")
        for each in ("img", "lab"):
            raw = gzip.compress((tmp_path / each).read_bytes(), mtime=0)
            if each == name and damage == "truncated":
                raw = raw[:len(raw) // 2]
            elif each == name:
                # the deflate data starts after the 10-byte header; block type
                # 3 is reserved, so every inflater rejects the stream
                raw = bytearray(raw)
                raw[10] |= 0b110
            (tmp_path / f"{each}.gz").write_bytes(bytes(raw))
        with pytest.raises(DataError, match=f"{name}.gz: damaged gzip data"):
            dio.load_idx(tmp_path / "img.gz", tmp_path / "lab.gz")

    def test_second_roundtrip_bit_identical(self, tmp_path):
        # once quantized, a save/load/save cycle is exact
        rng = np.random.default_rng(14)
        ds = self._unit_dataset(rng)
        dio.save_idx(ds, tmp_path / "a_img", tmp_path / "a_lab")
        back = dio.load_idx(tmp_path / "a_img", tmp_path / "a_lab")
        dio.save_idx(back, tmp_path / "b_img", tmp_path / "b_lab")
        assert (tmp_path / "a_img").read_bytes() == (tmp_path / "b_img").read_bytes()
        assert (tmp_path / "a_lab").read_bytes() == (tmp_path / "b_lab").read_bytes()

    def test_vector_dataset_roundtrips_via_trailing_axis(self, tmp_path):
        rng = np.random.default_rng(15)
        ds = Dataset(rng.uniform(0, 1, size=(12, 7)), rng.integers(0, 3, 12), 3)
        dio.save_idx(ds, tmp_path / "img", tmp_path / "lab")
        back = dio.load_idx(tmp_path / "img", tmp_path / "lab", n_classes=3)
        assert back.inputs.shape == (12, 7, 1)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_label_past_u8_writes_neither_file(self, tmp_path):
        ds = Dataset(np.zeros((3, 2, 2)), [0, 300, 1], 301)
        with pytest.raises(DataError, match="label 300 exceeds the u8 range"):
            dio.save_idx(ds, tmp_path / "img", tmp_path / "lab")
        assert not (tmp_path / "img").exists() and not (tmp_path / "lab").exists()

    def test_bad_magic_detected(self, tmp_path):
        p = tmp_path / "img"
        p.write_bytes(struct.pack(">llll", 1234, 1, 2, 2) + b"\x00" * 4)
        (tmp_path / "lab").write_bytes(struct.pack(">ll", 2049, 1) + b"\x00")
        with pytest.raises(DataError, match="magic"):
            dio.load_idx(p, tmp_path / "lab")

    def test_truncation_detected(self, tmp_path):
        p = tmp_path / "img"
        p.write_bytes(struct.pack(">llll", 2051, 2, 2, 2) + b"\x00" * 5)  # 8 needed
        (tmp_path / "lab").write_bytes(struct.pack(">ll", 2049, 2) + b"\x00\x01")
        with pytest.raises(DataError, match="truncated"):
            dio.load_idx(p, tmp_path / "lab")

    @pytest.mark.parametrize("suffix", ["", ".gz"], ids=["raw", "gz"])
    def test_lying_header_is_truncation_not_allocation(self, tmp_path, suffix):
        # 16 bytes claiming 2^31-1 images of 2^15 x 2^15 (about 2^61 bytes)
        header = struct.pack(">llll", 2051, 2**31 - 1, 2**15, 2**15)
        labels = struct.pack(">ll", 2049, 2**31 - 1)
        opener = gzip.open if suffix else open
        with opener(tmp_path / f"img{suffix}", "wb") as fh:
            fh.write(header)
        with opener(tmp_path / f"lab{suffix}", "wb") as fh:
            fh.write(labels)
        with pytest.raises(DataError, match="truncated pixel data"):
            dio.load_idx(tmp_path / f"img{suffix}", tmp_path / f"lab{suffix}")

    def test_negative_label_count_rejected(self, tmp_path):
        (tmp_path / "img").write_bytes(struct.pack(">llll", 2051, 1, 2, 2) + b"\x00" * 4)
        (tmp_path / "lab").write_bytes(struct.pack(">ll", 2049, -1) + b"\x00")
        with pytest.raises(DataError, match="negative label data size"):
            dio.load_idx(tmp_path / "img", tmp_path / "lab")

    def test_count_mismatch_detected(self, tmp_path):
        (tmp_path / "img").write_bytes(struct.pack(">llll", 2051, 1, 2, 2) + b"\x00" * 4)
        (tmp_path / "lab").write_bytes(struct.pack(">ll", 2049, 2) + b"\x00\x01")
        with pytest.raises(DataError, match="mismatch"):
            dio.load_idx(tmp_path / "img", tmp_path / "lab")

    def test_out_of_range_values_rejected_on_save(self, tmp_path):
        ds = Dataset(np.array([[2.0, 0.5]]), np.array([0]), 2)
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            dio.save_idx(ds, tmp_path / "img", tmp_path / "lab")

    def test_scaling_to_unit_interval(self, tmp_path):
        x = np.array([[[0.0, 1.0], [0.5, 0.25]]])
        ds = Dataset(x, np.array([1]), 2)
        dio.save_idx(ds, tmp_path / "img", tmp_path / "lab")
        back = dio.load_idx(tmp_path / "img", tmp_path / "lab", n_classes=2)
        assert back.inputs.min() >= 0.0 and back.inputs.max() <= 1.0
        assert back.inputs[0, 0, 1] == 1.0 and back.inputs[0, 0, 0] == 0.0
