import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metamix import engine as eng
from metamix import mixing
from metamix.engine import ShapeError, Tensor


class TestPolicy:
    def test_init_lambda_range(self):
        policy = mixing.init_policy(1000, np.random.default_rng(0))
        lam = policy.lambda_values()
        assert lam.min() >= 1e-3 and lam.max() <= 1 - 1e-3
        assert np.all(np.isfinite(policy.logits.data))

    def test_logit_reparameterization_roundtrip(self):
        policy = mixing.init_policy(50, np.random.default_rng(1))
        z = policy.logits.data
        np.testing.assert_allclose(policy.lambda_values(),
                                   1 / (1 + np.exp(-z)), rtol=1e-12)

    def test_lambda_gradient_flows_to_logits(self):
        policy = mixing.init_policy(4, np.random.default_rng(2))
        (g,) = eng.backward(eng.sum_reduce(policy.lambdas()), [policy.logits])
        lam = policy.lambda_values()
        np.testing.assert_allclose(g.data, lam * (1 - lam), rtol=1e-12)

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            mixing.init_policy(0, np.random.default_rng(0))


class TestPairing:
    def test_permutation_is_bijection(self):
        perm = mixing.sample_pairing(257, np.random.default_rng(3))
        assert np.array_equal(np.sort(perm), np.arange(257))

    def test_beta_sample_in_unit_interval(self):
        rng = np.random.default_rng(4)
        draws = [mixing.beta_sample(1.0, rng) for _ in range(200)]
        assert all(0.0 <= d <= 1.0 for d in draws)

    def test_beta_alpha_validated(self):
        with pytest.raises(ValueError):
            mixing.beta_sample(0.0, np.random.default_rng(0))


class TestMixBatch:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.normal(size=(6, 3))
        self.y = np.eye(4)[rng.integers(0, 4, 6)]
        self.perm = mixing.sample_pairing(6, rng)

    def test_lambda_one_is_identity_exact(self):
        out = mixing.mix_batch(self.x, self.y, self.perm, np.ones(6))
        assert np.array_equal(out.inputs.data, self.x)
        assert np.array_equal(out.labels.data, self.y)

    def test_lambda_zero_is_partner_exact(self):
        out = mixing.mix_batch(self.x, self.y, self.perm, np.zeros(6))
        assert np.array_equal(out.inputs.data, self.x[self.perm])
        assert np.array_equal(out.labels.data, self.y[self.perm])

    def test_half_lambda_midpoint(self):
        out = mixing.mix_batch(self.x, self.y, self.perm, 0.5)
        np.testing.assert_allclose(out.inputs.data, 0.5 * (self.x + self.x[self.perm]),
                                   rtol=1e-15)

    def test_label_rows_still_sum_to_one(self):
        rng = np.random.default_rng(6)
        lam = rng.uniform(0, 1, 6)
        out = mixing.mix_batch(self.x, self.y, self.perm, lam)
        np.testing.assert_allclose(out.labels.data.sum(axis=1), np.ones(6), atol=1e-9)

    def test_image_batch_broadcast(self):
        rng = np.random.default_rng(7)
        imgs = rng.uniform(size=(4, 5, 5, 2))
        labels = np.eye(3)[rng.integers(0, 3, 4)]
        perm = np.array([1, 0, 3, 2])
        lam = np.array([0.25, 0.5, 0.75, 1.0])
        out = mixing.mix_batch(imgs, labels, perm, lam)
        ref = lam[:, None, None, None] * imgs + (1 - lam[:, None, None, None]) * imgs[perm]
        np.testing.assert_allclose(out.inputs.data, ref, rtol=1e-15)

    def test_non_permutation_rejected(self):
        with pytest.raises(ShapeError, match="bijection"):
            mixing.mix_batch(self.x, self.y, np.array([0, 0, 1, 2, 3, 4]), 0.5)

    def test_policy_length_mismatch_rejected(self):
        policy = mixing.init_policy(4, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            mixing.mix_batch(self.x, self.y, self.perm, policy)

    def test_differentiable_through_policy(self):
        policy = mixing.init_policy(6, np.random.default_rng(8))
        out = mixing.mix_batch(self.x, self.y, self.perm, policy)
        loss = eng.scale(eng.sum_reduce(eng.mul(out.inputs, out.inputs)), 1.0 / out.inputs.size)
        (g,) = eng.backward(loss, [policy.logits])
        assert g.shape == (6,)
        # numeric check against central differences on one coordinate
        def loss_at(z):
            with eng.no_grad():
                pol = mixing.InterpolationPolicy(Tensor(z))
                o = mixing.mix_batch(self.x, self.y, self.perm, pol)
                return eng.scale(eng.sum_reduce(eng.mul(o.inputs, o.inputs)),
                                 1.0 / o.inputs.size).item()
        h = 1e-6
        zp = policy.logits.data.copy(); zp[2] += h
        zm = policy.logits.data.copy(); zm[2] -= h
        numeric = (loss_at(zp) - loss_at(zm)) / (2 * h)
        assert g.data[2] == pytest.approx(numeric, rel=1e-5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), batch=st.integers(2, 16))
def test_mix_affinity_property(seed, batch):
    # mixed row i must lie on the segment between x[i] and x[perm[i]]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, 3))
    y = np.eye(2)[rng.integers(0, 2, batch)]
    perm = mixing.sample_pairing(batch, rng)
    lam = rng.uniform(0, 1, batch)
    out = mixing.mix_batch(x, y, perm, lam)
    ref = lam[:, None] * x + (1 - lam[:, None]) * x[perm]
    np.testing.assert_allclose(out.inputs.data, ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.labels.data.sum(axis=1), 1.0, atol=1e-9)
