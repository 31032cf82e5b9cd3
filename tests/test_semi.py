import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metamix import engine as eng
from metamix import meta, mixing, nets, semi
from metamix.data import (Dataset, Splits, SyntheticSpec, split_labeled_pool,
                          standard_splits)
from metamix.engine import ShapeError, Tensor
from metamix.meta import TrainConfig
from metamix.nets import OptimizerConfig


class TestThresholdSchedule:
    def test_reference_trace(self):
        config = TrainConfig(sigma0=0.95, sigma_decrement=0.05, sigma_period=30)
        assert config.threshold_at(0) == pytest.approx(0.95)
        assert config.threshold_at(29) == pytest.approx(0.95)
        assert config.threshold_at(30) == pytest.approx(0.90)
        assert config.threshold_at(59) == pytest.approx(0.90)
        assert config.threshold_at(60) == pytest.approx(0.85)

    def test_floor_clamp(self):
        config = TrainConfig(sigma0=0.95, sigma_decrement=0.05, sigma_period=1,
                             sigma_floor=0.5)
        values = [config.threshold_at(e) for e in range(40)]
        assert min(values) == 0.5
        assert values[-1] == 0.5

    @settings(max_examples=50, deadline=None)
    @given(sigma0=st.floats(0.6, 1.0), sigma_d=st.floats(0.0, 0.2),
           period=st.integers(1, 40))
    def test_non_increasing_and_floored(self, sigma0, sigma_d, period):
        config = TrainConfig(sigma0=sigma0, sigma_decrement=sigma_d,
                             sigma_period=period, sigma_floor=0.5)
        values = [config.threshold_at(e) for e in range(120)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v >= 0.5 for v in values)
        # piecewise constant within a period
        for start in range(0, 120 - period, period):
            chunk = values[start:start + period]
            assert max(chunk) == min(chunk)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(sigma0=0.4, sigma_floor=0.5)
        with pytest.raises(ValueError):
            TrainConfig(sigma_period=0)


def frozen_model(seed=0, in_dim=6, classes=3):
    return nets.build_model(nets.mlp(in_dim, [16], classes),
                            np.random.default_rng(seed))


class TestPseudoLabels:
    def test_hard_one_hot(self):
        model = frozen_model()
        x = np.random.default_rng(1).normal(size=(40, 6))
        out = semi.assign_pseudo_labels(model, x, sigma_t=0.3)
        assert out.labels.shape[1] == 3
        assert np.all(out.labels.sum(axis=1) == 1.0)
        assert np.all((out.labels == 0) | (out.labels == 1))

    def test_ties_resolve_to_lowest_class(self):
        model = frozen_model()
        for p in model.params.values():
            p.data = np.zeros_like(p.data)  # all logits equal -> 3-way tie
        x = np.random.default_rng(2).normal(size=(10, 6))
        out = semi.assign_pseudo_labels(model, x, sigma_t=0.2)
        assert np.all(out.labels.argmax(axis=1) == 0)

    def test_acceptance_is_strict(self):
        # equal logits give confidence exactly 1/3; sigma at 1/3 must reject
        model = frozen_model()
        for p in model.params.values():
            p.data = np.zeros_like(p.data)
        x = np.random.default_rng(3).normal(size=(10, 6))
        out = semi.assign_pseudo_labels(model, x, sigma_t=1.0 / 3.0)
        assert len(out) == 0
        assert np.allclose(out.confidences, 1.0 / 3.0)

    def test_lower_threshold_accepts_superset(self):
        model = frozen_model(seed=4)
        x = np.random.default_rng(5).normal(size=(200, 6))
        rng = np.random.default_rng(6)
        for _ in range(100):
            hi, lo = sorted(rng.uniform(0.34, 0.99, size=2), reverse=True)
            accept_hi = set(semi.assign_pseudo_labels(model, x, hi).indices)
            accept_lo = set(semi.assign_pseudo_labels(model, x, lo).indices)
            assert accept_hi <= accept_lo
            # and counts are monotone
            assert len(accept_hi) <= len(accept_lo)

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            semi.assign_pseudo_labels(frozen_model(), np.zeros((2, 6)), 0.0)


def ssl_config(**kw):
    opt = kw.pop("optimizer", OptimizerConfig(learning_rate=0.1, momentum=0.9,
                                              weight_decay=1e-4))
    return TrainConfig(optimizer=opt, **kw)


class TestSslStep:
    def _batches(self, seed=0, n_l=6, n_u=4, dim=5, classes=3):
        rng = np.random.default_rng(seed)
        lx = rng.normal(size=(n_l, dim))
        ly = nets.one_hot(rng.integers(0, classes, n_l), classes)
        ux = rng.normal(size=(n_u, dim))
        uy = nets.one_hot(rng.integers(0, classes, n_u), classes)
        vx = rng.normal(size=(4, dim))
        vy = nets.one_hot(rng.integers(0, classes, 4), classes)
        return (lx, ly), (ux, uy), (vx, vy)

    def test_loss_is_sum_of_group_means(self):
        labeled, pseudo, val = self._batches()
        model = frozen_model(seed=7, in_dim=5)
        w = 0.7
        cfg = ssl_config(mode="mixup-fixed", fixed_lambda=0.4, unsup_weight=w,
                         epochs=1, batch_size=6)
        before = nets.clone_for_meta(model)
        stats = meta.train_step(model, labeled, val, cfg,
                                np.random.default_rng(8), lr=0.1, pseudo_batch=pseudo)
        # replay the recorded pairings on the pre-step weights
        rng = np.random.default_rng(8)
        perm_l = mixing.sample_pairing(6, rng)
        perm_u = mixing.sample_pairing(4, rng)
        with eng.no_grad():
            ml = mixing.mix_batch(labeled[0], labeled[1], perm_l, 0.4)
            mu = mixing.mix_batch(pseudo[0], pseudo[1], perm_u, 0.4)
            l_s = nets.cross_entropy(nets.forward(before, ml.inputs), ml.labels).item()
            l_u = nets.cross_entropy(nets.forward(before, mu.inputs), mu.labels).item()
        assert stats.train_loss == pytest.approx(l_s + w * l_u, abs=1e-12)

    def test_zero_accepted_only_labeled_term(self):
        labeled, _, val = self._batches(seed=9)
        model = frozen_model(seed=10, in_dim=5)
        cfg = ssl_config(mode="mixup-fixed", fixed_lambda=1.0, epochs=1,
                         batch_size=6)
        before = nets.clone_for_meta(model)
        stats = meta.train_step(model, labeled, val, cfg,
                                np.random.default_rng(11), lr=0.1)
        with eng.no_grad():
            l_s = nets.cross_entropy(nets.forward(before, labeled[0]),
                                     labeled[1]).item()
        assert stats.train_loss == pytest.approx(l_s, abs=1e-12)
        assert stats.accepted == 0

    def test_metamixup_policy_spans_both_groups(self):
        labeled, pseudo, val = self._batches(seed=12)
        model = frozen_model(seed=13, in_dim=5)
        cfg = ssl_config(mode="metamixup", epochs=1, batch_size=6)
        stats = meta.train_step(model, labeled, val, cfg,
                                np.random.default_rng(14), lr=0.1, pseudo_batch=pseudo)
        assert stats.lambda_values.shape == (6 + 4,)
        assert stats.accepted == 4
        assert stats.hypergrad_norm > 0


def tiny_ssl_problem(seed=0, labeled_per_class=8):
    full = standard_splits(SyntheticSpec(classes=2, per_class=40, dim=5,
                                         separation=5.0),
                           seed=seed, meta_val_per_class=5, test_per_class=25)
    labeled, unlabeled = split_labeled_pool(full.train, labeled_per_class,
                                            seed=seed + 1)
    splits = type(full)(train=labeled, meta_val=full.meta_val, test=full.test)
    return splits, unlabeled


def record_dicts(report, drop=("wall_seconds",)):
    return [{k: v for k, v in json.loads(r.to_json()).items() if k not in drop}
            for r in report.records]


class TestTrainSsl:
    def test_empty_pool_matches_supervised_exactly(self):
        splits, _ = tiny_ssl_problem(seed=3)
        empty = Dataset(np.zeros((0, 5)), np.zeros(0, dtype=np.int64), 2)
        for mode in meta.MODES:
            cfg = ssl_config(mode=mode, epochs=2, batch_size=8, seed=5)
            sup = meta.train_supervised(splits, cfg)
            ssl = semi.train_ssl(splits, empty, cfg)
            assert record_dicts(sup) == record_dicts(ssl), mode

    def test_full_run_emits_threshold_fields(self):
        splits, unlabeled = tiny_ssl_problem(seed=6)
        cfg = ssl_config(mode="metamixup", epochs=3, batch_size=8, seed=7,
                         sigma0=0.6, sigma_decrement=0.05, sigma_period=2)
        report = semi.train_ssl(splits, unlabeled, cfg)
        recs = record_dicts(report)
        assert [r["threshold"] for r in recs] == [0.6, 0.6, pytest.approx(0.55)]
        for r in recs:
            assert r["accepted_count"] >= 0
            assert r["pseudo_accuracy"] == -1.0 or 0.0 <= r["pseudo_accuracy"] <= 1.0

    def test_pseudo_accuracy_scored_against_shadow_labels(self):
        splits, unlabeled = tiny_ssl_problem(seed=8)
        # easy data + low threshold: most pseudo labels should be right
        cfg = ssl_config(mode="metamixup", epochs=4, batch_size=8, seed=9,
                         sigma0=0.55, sigma_decrement=0.0)
        report = semi.train_ssl(splits, unlabeled, cfg)
        last = report.records[-1]
        assert last.accepted_count > 0
        assert last.pseudo_accuracy > 0.8

    def test_determinism(self):
        splits, unlabeled = tiny_ssl_problem(seed=10)
        cfg = ssl_config(mode="metamixup", epochs=2, batch_size=8, seed=11,
                         sigma0=0.6)
        a = semi.train_ssl(splits, unlabeled, cfg)
        b = semi.train_ssl(splits, unlabeled, cfg)
        assert record_dicts(a) == record_dicts(b)

    def test_zero_decrement_freezes_threshold(self):
        splits, unlabeled = tiny_ssl_problem(seed=12)
        cfg = ssl_config(mode="metamixup", epochs=3, batch_size=8, seed=13,
                         sigma0=0.7, sigma_period=1, sigma_decrement=0.0)
        report = semi.train_ssl(splits, unlabeled, cfg)
        assert all(r.threshold == 0.7 for r in report.records)

    def test_image_rows_are_augmented_before_an_mlp_flattens_them(self, monkeypatch):
        rng = np.random.default_rng(15)

        def images(n):
            return Dataset(rng.uniform(size=(n, 6, 6)), np.arange(n) % 2, 2)

        seen = []
        augment = meta.augment_batch

        def spy(x, mode, rng):
            seen.append(x.shape[1:])
            return augment(x, mode, rng)

        monkeypatch.setattr(meta, "augment_batch", spy)
        splits = Splits(train=images(10), meta_val=images(4), test=images(4))
        cfg = ssl_config(epochs=1, batch_size=5, augment="flip", sigma0=0.5,
                         sigma_decrement=0.0)
        report = semi.train_ssl(splits, images(6), cfg)
        assert report.records[0].accepted_count == 6
        # two steps, each augmenting its labeled rows and then its pseudo rows
        assert seen == [(6, 6)] * 4

    @pytest.mark.parametrize("arch, message", [
        (nets.cnn3((8, 8), 1, 10), "arch has 10 classes, the training data 2"),
        (nets.cnn3((6, 6), 1, 2), "arch input shape (6, 6, 1) does not match "
                                  "the training rows' shape (8, 8, 1)"),
    ], ids=["classes", "input-shape"])
    def test_mismatched_arch_fails_before_model_and_relabel(self, monkeypatch,
                                                            arch, message):
        rng = np.random.default_rng(14)

        def images(n):
            return Dataset(rng.uniform(size=(n, 8, 8)), np.arange(n) % 2, 2)

        def never(*args, **kwargs):
            raise AssertionError("ran on a mismatched arch")

        monkeypatch.setattr(nets, "build_model", never)
        monkeypatch.setattr(semi, "assign_pseudo_labels", never)
        splits = Splits(train=images(10), meta_val=images(4), test=images(4))
        cfg = ssl_config(arch=arch, epochs=1, batch_size=5)
        with pytest.raises(ShapeError, match=re.escape(message)):
            semi.train_ssl(splits, images(6), cfg)
