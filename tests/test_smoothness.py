import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metamix import engine as eng, nets, smoothness as sm
from metamix.engine import NonFiniteError, Tensor


def quad(diag):
    return sm.QuadraticField(np.diag(np.asarray(diag, dtype=float)))


class AffineField:
    def __init__(self, w, c=0.0):
        self.w = np.asarray(w, dtype=float)
        self.c = c

    def value(self, points):
        return np.atleast_2d(points) @ self.w + self.c

    def grad(self, points):
        return np.broadcast_to(self.w, np.atleast_2d(points).shape).copy()


def softplus_net(seed=0, in_dim=5, classes=3):
    arch = nets.Architecture((in_dim,), (
        nets.Dense(12, "softplus"), nets.Dense(8, "softplus"),
        nets.Dense(classes)))
    return nets.build_model(arch, np.random.default_rng(seed))


def saturated_net(activation):
    """mlp(6, [4], 3) whose layer-0 weights of 1e308 overflow its products."""
    model = nets.build_model(nets.mlp(6, [4], 3, activation=activation),
                             np.random.default_rng(12))
    model.params["layer0.w"].data = np.full((6, 4), 1e308)
    return model


class TestMixupGap:
    def test_halved_norm_example(self):
        # f(x) = ||x||^2 / 2, x = [2,0], x' = 0, lam = 1/2:
        # gap = |1/2 - 1| = 1/2 and the bound with kappa = 1 is also 1/2
        field = quad([1.0, 1.0])
        gap = sm.mixup_gap(field, np.array([2.0, 0.0]), np.zeros(2), 0.5)
        assert gap == pytest.approx(0.5, abs=1e-15)
        assert sm.gap_bound(1.0, 0.5, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_endpoints_exactly_zero(self):
        rng = np.random.default_rng(0)
        field = sm.QuadraticField(rng.normal(size=(4, 4)))
        x, xp = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        assert np.all(sm.mixup_gap(field, x, xp, 0.0) == 0.0)
        assert np.all(sm.mixup_gap(field, x, xp, 1.0) == 0.0)

    def test_affine_gap_zero(self):
        field = AffineField([1.0, -2.0, 3.0], c=0.7)
        rng = np.random.default_rng(1)
        x, xp = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
        for lam in sm.LAMBDA_GRID:
            assert np.all(sm.mixup_gap(field, x, xp, lam) <= 1e-14)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), lam=st.floats(0.0, 1.0))
    def test_symmetry(self, seed, lam):
        rng = np.random.default_rng(seed)
        field = sm.QuadraticField(rng.normal(size=(3, 3)))
        x, xp = rng.normal(size=3), rng.normal(size=3)
        a = sm.mixup_gap(field, x, xp, lam)
        b = sm.mixup_gap(field, xp, x, 1.0 - lam)
        assert abs(a - b) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), lam=st.floats(0.0, 1.0))
    def test_quadratic_closed_form(self, seed, lam):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4))
        field = sm.QuadraticField(a)
        x, xp = rng.normal(size=4), rng.normal(size=4)
        d = x - xp
        expected = lam * (1.0 - lam) / 2.0 * abs(d @ field.sym @ d)
        assert sm.mixup_gap(field, x, xp, lam) == pytest.approx(expected, abs=1e-9)

    def test_lam_validated(self):
        with pytest.raises(ValueError):
            sm.mixup_gap(quad([1.0]), np.ones(1), np.zeros(1), 1.5)

    def test_bound_quadratic_in_distance(self):
        near = sm.gap_bound(3.0, 0.3, 1.0)
        far = sm.gap_bound(3.0, 0.3, 2.0)
        assert far / near == pytest.approx(4.0, abs=1e-12)


class TestKappaEstimate:
    def test_quadratic_converges_to_spectral_norm(self):
        field = quad([1.0, 3.0])
        rng = np.random.default_rng(2)
        data = rng.normal(size=(200, 2))
        est = sm.estimate_kappa(
            field, lambda n, r: sm.sample_pairs(data, n, r), 10_000,
            np.random.default_rng(3))
        assert est.kappa <= 3.0 + 1e-9
        assert est.kappa == pytest.approx(3.0, rel=0.05)

    def test_nonsymmetric_uses_symmetric_part(self):
        field = sm.QuadraticField(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert field.kappa == pytest.approx(1.0, abs=1e-12)  # sym part [[0,1],[1,0]]

    def test_symmetric_part_of_huge_entries_does_not_overflow(self):
        # 1e308 + 1e308 overflows; half of each side does not
        with np.errstate(over="raise"):
            field = sm.QuadraticField(np.diag([1e308, 1e308]))
            assert field.kappa == 1e308

    def test_affine_estimate_zero(self):
        field = AffineField([2.0, -1.0])
        x = np.random.default_rng(4).normal(size=(50, 2))
        est = sm.kappa_from_pairs(field, x, x + 1.0)
        assert est.kappa == 0.0

    def test_nested_samples_monotone(self):
        field = quad([1.0, 3.0])
        rng = np.random.default_rng(5)
        x, xp = sm.sample_pairs(rng.normal(size=(50, 2)), 2_000, rng)
        previous = 0.0
        for count in (10, 100, 500, 2_000):
            est = sm.kappa_from_pairs(field, x[:count], xp[:count])
            assert est.kappa >= previous
            previous = est.kappa

    def test_degenerate_pairs_skipped(self):
        field = quad([1.0, 2.0])
        x = np.random.default_rng(6).normal(size=(5, 2))
        xp = x.copy()
        xp[0] += 1.0
        est = sm.kappa_from_pairs(field, x, xp)
        assert est.n_pairs == 1
        with pytest.raises(ValueError):
            sm.kappa_from_pairs(field, x, x)

    @pytest.mark.parametrize("field, scale, names", [
        (sm.LogitField(softplus_net(seed=3, in_dim=6)), 1e200, "pair distance"),
        (quad([1.0, 3.0, 0.5, 2.0, 1.0, 1.0]), 1e160, "pair distance"),
        (quad([1e300, 1.0, 1.0, 1.0, 1.0, 1.0]), 1.0, "gradient difference"),
        *[(sm.LogitField(saturated_net(act)), 1.0, "layer 0")
          for act in ("tanh", "sigmoid", "relu")],
    ], ids=["softplus-1e200", "quadratic-1e160", "gradient-overflow",
            "saturated-tanh", "saturated-sigmoid", "saturated-relu"])
    def test_non_finite_distance_or_gradient_difference_raises(self, field, scale, names):
        # at scale 1e200 a net used to report kappa 0 with distance_max inf,
        # and a quadratic at 1e160 kappa nan; a net whose layer 0 overflows
        # under saturated units (f' = 0) or relu masks equal at x and x'
        # reported kappa 0
        rng = np.random.default_rng(11)
        pool = scale * rng.normal(size=(40, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError, match=names):
                sm.kappa_from_pairs(field, *sm.sample_pairs(pool, 30, rng))

    def test_nan_pair_is_not_skipped_as_degenerate(self):
        x = np.zeros((2, 2))
        xp = np.array([[1.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(NonFiniteError, match="pair distance"):
            sm.kappa_from_pairs(quad([1.0, 2.0]), x, xp)

    def test_distance_stats(self):
        field = quad([1.0, 1.0])
        x = np.zeros((3, 2))
        xp = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        est = sm.kappa_from_pairs(field, x, xp)
        assert (est.distance_min, est.distance_max) == (1.0, 3.0)
        assert est.distance_mean == pytest.approx(2.0)

    def test_network_estimate_tracks_worst_channel(self):
        model = softplus_net(seed=7)
        data = np.random.default_rng(8).normal(size=(60, 5))
        est = sm.estimate_kappa_network(
            model, lambda n, r: sm.sample_pairs(data, n, r), 500,
            np.random.default_rng(9))
        assert len(est.per_channel) == 3
        assert est.kappa == max(est.per_channel)


class ColumnField:
    """One logit channel as a one-channel field: values [n], gradients [n, d]."""

    def __init__(self, model, channel):
        self.field = sm.LogitField(model)
        self.channel = channel

    def value(self, points):
        return self.field.value(points)[:, self.channel].copy()

    def grad(self, points):
        return self.field.grad(points)[self.channel]


def engine_logit_grad(model, points):
    """Reference logit gradients [k, n, d]: one recorded engine forward over
    the whole batch and one engine backward pass per channel."""
    x = Tensor(points.reshape(len(points), *model.arch.input_shape), requires_grad=True)
    logits = nets.forward(model, x)
    grads = []
    for pick in np.eye(logits.shape[1])[:, :, None]:
        total = eng.sum_reduce(eng.matmul(logits, Tensor(pick)))
        (gx,) = eng.backward(total, [x])
        grads.append(gx.data.reshape(len(gx.data), -1))
    return np.stack(grads)


GRAD_ARCHS = {
    **{f"mlp-{act}-{depth}": nets.mlp(4, [6, 5, 4][:depth], 3, activation=act)
       for act in ("tanh", "sigmoid", "relu", "softplus") for depth in (1, 2, 3)},
    **{f"conv-k{k}": nets.Architecture((5, 4, 2), (
        nets.Conv(k, 3, "softplus"), nets.Conv(k, 2, "tanh"), nets.Dense(3)))
       for k in (1, 3, 5)},
    "dense-on-image": nets.Architecture((4, 3, 2), (nets.Dense(5, "sigmoid"),
                                                   nets.Dense(3))),
}


# the four activations and a conv net on 8x8 points, for the values
VALUE_ARCHS = {
    **{f"mlp-{act}": nets.mlp(6, [12, 8], 3, activation=act)
       for act in ("tanh", "relu", "softplus", "sigmoid")},
    "conv-8x8": nets.Architecture((8, 8, 1), (nets.Conv(3, 4, "softplus"),
                                              nets.Dense(3))),
}


class TestLogitField:
    def test_grad_matches_finite_differences(self):
        model = softplus_net(seed=12)
        field = sm.LogitField(model)
        x = np.random.default_rng(13).normal(size=(3, 5))
        analytic = field.grad(x)
        assert analytic.shape == (3, 3, 5)
        eps = 1e-6
        for j in range(5):
            hi, lo = x.copy(), x.copy()
            hi[:, j] += eps
            lo[:, j] -= eps
            numeric = (field.value(hi) - field.value(lo)) / (2 * eps)
            np.testing.assert_allclose(analytic[:, :, j], numeric.T, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("limit", [None, 3], ids=["one-chunk", "3-row-chunks"])
    @pytest.mark.parametrize("name", GRAD_ARCHS)
    def test_grad_is_the_engine_gradient_bit_for_bit(self, monkeypatch, name, limit):
        if limit is not None:
            monkeypatch.setattr(nets, "INFERENCE_ROWS", limit)
        arch = GRAD_ARCHS[name]
        model = nets.build_model(arch, np.random.default_rng(30))
        points = np.random.default_rng(31).normal(size=(10, int(np.prod(arch.input_shape))))
        got = sm.LogitField(model).grad(points)
        per_chunk = np.concatenate([engine_logit_grad(model, points[rows])
                                    for rows in nets.inference_chunks(arch, 10)], axis=1)
        whole = engine_logit_grad(model, points)
        assert got.shape == whole.shape == (3, 10, points.shape[1])
        assert got.tobytes() == per_chunk.tobytes()
        # 10 rows split 4, 6: chunks on 4-row boundaries and none under 4
        # rows, which numpy would multiply in another order, so the chunks
        # round as the whole
        assert got.tobytes() == whole.tobytes()

    def test_cnn3_grad_runs_inference_rows_per_forward(self, monkeypatch):
        model = nets.build_model(nets.cnn3(classes=3), np.random.default_rng(32))
        rows = nets.inference_rows(model.arch)
        seen, real = [], nets._forward

        def spy_forward(model, x):
            seen.append(len(x))
            return real(model, x)

        monkeypatch.setattr(nets, "_forward", spy_forward)
        points = np.random.default_rng(33).uniform(size=(2 * rows + 1, 28 * 28))
        assert sm.LogitField(model).grad(points).shape == (3, 2 * rows + 1, 28 * 28)
        # 2 * rows + 1 points in two chunks: the lone last row joins the second
        assert seen == [8, 9] and rows == 8

    def test_grad_makes_no_engine_graph_or_backward(self, monkeypatch):
        backward_calls, graph_nodes = [], []
        init = Tensor.__init__

        def spy_init(tensor, data, requires_grad=False, *, op="leaf", parents=(),
                     vjp=None):
            if parents:
                graph_nodes.append(op)
            init(tensor, data, requires_grad, op=op, parents=parents, vjp=vjp)

        monkeypatch.setattr(eng, "backward", lambda *a, **k: backward_calls.append(a))
        monkeypatch.setattr(Tensor, "__init__", spy_init)
        grads = sm.LogitField(softplus_net(seed=34)).grad(
            np.random.default_rng(35).normal(size=(8, 5)))
        assert np.isfinite(grads).all()
        assert backward_calls == [] and graph_nodes == []

    @pytest.mark.parametrize("n", [7, 10, 13])
    @pytest.mark.parametrize("name", VALUE_ARCHS)
    def test_value_is_the_engine_forward_bit_for_bit(self, monkeypatch, name, n):
        """In 4-row chunks, 7 rows are one chunk, 10 split 4, 6 and 13 split
        4, 4, 5: each crosses or meets a chunk bound with a rest of under 4
        rows. The values build no engine node."""
        monkeypatch.setattr(nets, "INFERENCE_ROWS", 4)
        arch = VALUE_ARCHS[name]
        model = nets.build_model(arch, np.random.default_rng(42))
        points = np.random.default_rng(43).normal(size=(n, int(np.prod(arch.input_shape))))
        first = next(eng._node_ids)
        got = sm.LogitField(model).value(points)
        assert next(eng._node_ids) == first + 1
        x = points.reshape(n, *arch.input_shape)
        assert got.tobytes() == nets.batched_logits(model, x).tobytes()
        assert got.tobytes() == nets.forward(model, x).data.tobytes()

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_value_raises_where_the_engine_forward_does(self, activation):
        """Layer 0's pre-activation overflows on the first row, and tanh and
        sigmoid saturate it to finite logits: the engine's matmul node
        raises, and so must the per-layer check of the numpy forward, with
        its tape or without. A NaN input raises at layer 0 too."""
        model = nets.build_model(nets.mlp(2, [4], 3, activation=activation),
                                 np.random.default_rng(44))
        model.params["layer0.w"].data = np.full((2, 4), 1e308)
        field = sm.LogitField(model)
        for x in (np.array([[2.0, 0.0], [0.5, 0.25]]), np.array([[np.nan, 0.0]])):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteError):
                    nets.batched_logits(model, x)
            with pytest.raises(NonFiniteError, match="layer 0"):
                field.value(x)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="layer 0"):
            nets._forward(model, np.array([[2.0, 0.0]]))

    def test_per_channel_kappa_is_each_columns_estimate(self):
        model = softplus_net(seed=22)
        data = np.random.default_rng(23).normal(size=(60, 5))
        x, xp = sm.sample_pairs(data, 400, np.random.default_rng(24))
        est = sm.kappa_from_pairs(sm.LogitField(model), x, xp)
        columns = [sm.kappa_from_pairs(ColumnField(model, c), x, xp) for c in range(3)]
        assert est.per_channel == tuple(c.kappa for c in columns)
        assert est.kappa == max(est.per_channel)
        for column in columns:
            assert column.per_channel == (column.kappa,)
            assert (est.n_pairs, est.distance_min, est.distance_mean, est.distance_max) \
                == (column.n_pairs, column.distance_min, column.distance_mean,
                    column.distance_max)

    def test_mixup_gap_per_channel(self):
        model = softplus_net(seed=25)
        rng = np.random.default_rng(26)
        x, xp = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        gaps = sm.mixup_gap(sm.LogitField(model), x, xp, 0.3)
        assert gaps.shape == (6, 3)
        for c in range(3):
            column = sm.mixup_gap(ColumnField(model, c), x, xp, 0.3)
            assert column.shape == (6,)
            np.testing.assert_array_equal(gaps[:, c], column)
        one = sm.mixup_gap(sm.LogitField(model), x[0], xp[0], 0.3)
        assert one.shape == (3,)
        np.testing.assert_array_equal(
            one, sm.mixup_gap(sm.LogitField(model), x[:1], xp[:1], 0.3)[0])
        assert isinstance(sm.mixup_gap(ColumnField(model, 1), x[0], xp[0], 0.3), float)


class TestAudit:
    def test_exact_quadratic_zero_violations_ratio_one(self):
        field = quad([1.0, 3.0])
        rng = np.random.default_rng(14)
        x, xp = sm.sample_pairs(rng.normal(size=(100, 2)), 2_000, rng)
        # the bound is tight along the top eigendirection; append that pair
        x = np.vstack([x, [0.0, 1.0]])
        xp = np.vstack([xp, [0.0, -1.0]])
        report = sm.audit_gap_bound(field, field.kappa, (x, xp))
        assert report.violations == 0
        assert report.max_ratio == pytest.approx(1.0, abs=1e-9)
        assert report.worst_pair["pair_index"] == 2_000

    def test_understated_kappa_flags_violations(self):
        field = quad([1.0, 3.0])
        rng = np.random.default_rng(15)
        pairs = sm.sample_pairs(rng.normal(size=(100, 2)), 500, rng)
        report = sm.audit_gap_bound(field, 0.5, pairs)
        assert report.violations > 0
        assert report.max_ratio > 1.0

    def test_zero_kappa_negative_control(self):
        field = quad([1.0, 1.0])
        x = np.array([[2.0, 0.0]])
        xp = np.zeros((1, 2))
        report = sm.audit_gap_bound(field, 0.0, (x, xp))
        assert report.violations == len(sm.LAMBDA_GRID)
        assert report.worst_pair["bound"] == 0.0

    def test_softplus_network_with_safety_factor(self):
        model = softplus_net(seed=16)
        data = np.random.default_rng(17).normal(size=(80, 5))
        sampler = lambda n, r: sm.sample_pairs(data, n, r)
        est = sm.estimate_kappa_network(model, sampler, 2_000,
                                        np.random.default_rng(18))
        fresh = sampler(2_000, np.random.default_rng(19))
        report, channel = sm.audit_network(model, 1.2 * est.kappa, fresh)
        assert report.violations == 0
        assert 0 <= channel < 3
        assert channel == report.channel

    def test_network_audit_is_the_worst_column_audit(self):
        model = softplus_net(seed=32, classes=4)
        data = np.random.default_rng(28).normal(size=(80, 5))
        pairs = sm.sample_pairs(data, 600, np.random.default_rng(29))
        kappa = sm.kappa_from_pairs(sm.LogitField(model), *pairs).kappa
        winners = set()
        for factor in (0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2):
            report = sm.audit_gap_bound(sm.LogitField(model), factor * kappa, pairs)
            columns = [sm.audit_gap_bound(ColumnField(model, c), factor * kappa, pairs)
                       for c in range(4)]
            assert all(c.channel == 0 for c in columns)
            worst = max(range(4), key=lambda c: (columns[c].violations,
                                                 columns[c].max_ratio))
            expected = columns[worst]
            assert report.channel == worst
            assert report.rows.tobytes() == expected.rows.tobytes()
            assert report.worst_pair == expected.worst_pair
            assert (report.violations, report.max_ratio) \
                == (expected.violations, expected.max_ratio)
            winners.add(worst)
        assert len(winners) > 1   # the kappas above let different channels win

    def test_one_channel_audit_reports_channel_zero(self):
        field = quad([1.0, 3.0])
        pairs = sm.sample_pairs(np.random.default_rng(30).normal(size=(40, 2)),
                                100, np.random.default_rng(31))
        assert sm.audit_gap_bound(field, 1.0, pairs).channel == 0

    def test_rows_table_shape_and_csv(self, tmp_path):
        field = quad([1.0, 2.0])
        pairs = sm.sample_pairs(np.random.default_rng(20).normal(size=(30, 2)),
                                50, np.random.default_rng(21))
        report = sm.audit_gap_bound(field, field.kappa, pairs,
                                      lam_grid=(0.25, 0.5))
        assert report.rows.shape == (100, 4)
        path = tmp_path / "audit.csv"
        sm.write_audit_csv(report, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(back, report.rows)

    def test_audit_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            sm.audit_gap_bound(quad([1.0]), -1.0, (np.ones((1, 1)), np.zeros((1, 1))))

    def test_audit_rejects_overflowing_pair_distances_before_evaluating(self):
        # pairs at 1e160 used to print RuntimeWarnings from the field's values
        # and the gaps before the audit raised
        class Counted:
            field, calls = sm.QuadraticField(np.eye(2)), 0

            def value(self, points):
                self.calls += 1
                return self.field.value(points)

        rng = np.random.default_rng(12)
        pool = 1e160 * rng.choice([-1.0, 1.0], size=(40, 2))
        field = Counted()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError, match="pair distance"):
                sm.audit_gap_bound(field, 1.0, sm.sample_pairs(pool, 30, rng))
        assert field.calls == 0

    @pytest.mark.parametrize("lam_grid, message", [
        ((), "at least one lam"), ((1.5,), "got 1.5"), ((0.5, -0.25), "got -0.25"),
        ((0.5, np.nan), "got nan")])
    def test_audit_rejects_an_empty_or_out_of_range_lam_grid(self, lam_grid, message):
        # lam 1.5 gives a negative bound, which every pair used to "violate"
        # with a max ratio of 0; an empty grid failed inside a numpy max
        field = quad([1.0, 3.0])
        pairs = sm.sample_pairs(np.random.default_rng(36).normal(size=(10, 2)), 5,
                                np.random.default_rng(37))
        with pytest.raises(ValueError, match=message):
            sm.audit_gap_bound(field, 3.0, pairs, lam_grid=lam_grid)

    def test_audit_rejects_an_empty_pair_set(self):
        with pytest.raises(ValueError, match="at least one pair"):
            sm.audit_gap_bound(quad([1.0, 3.0]), 3.0, (np.empty((0, 2)), np.empty((0, 2))))

    @pytest.mark.parametrize("kappa", [np.nan, np.inf])
    def test_audit_rejects_non_finite_kappa(self, kappa):
        class Unread:   # the kappa is rejected before the field is evaluated
            def value(self, points):
                raise AssertionError("field evaluated")

        with pytest.raises(NonFiniteError, match="kappa"):
            sm.audit_gap_bound(Unread(), kappa, (np.ones((1, 1)), np.zeros((1, 1))))

    def test_nonfinite_evaluation_raises(self):
        class Exploding:
            def value(self, points):
                return np.full(len(np.atleast_2d(points)), np.nan)

            def grad(self, points):
                return np.atleast_2d(points)

        with pytest.raises(NonFiniteError):
            sm.mixup_gap(Exploding(), np.ones(2), np.zeros(2), 0.5)


# name -> (a fresh field, its input size)
CHUNK_FIELDS = {
    "dense-softplus": (lambda: sm.LogitField(softplus_net(seed=38, in_dim=6)), 6),
    "conv-softplus": (lambda: sm.LogitField(nets.build_model(nets.Architecture(
        (8, 8, 1), (nets.Conv(3, 4, "softplus"), nets.Dense(3))),
        np.random.default_rng(40))), 64),
    "quadratic": (lambda: quad([1.0, 3.0, 0.5, 2.0, 1.0, 0.25]), 6),
}


def chunked_audits(name, factors):
    """kappa from 42 pairs of a fresh field, its audits over 42 fresh pairs at
    each factor times the estimate, and the most rows of any evaluation."""
    make, dim = CHUNK_FIELDS[name]
    field, sizes = make(), []

    def spy(method):
        def call(points):
            sizes.append(len(points))
            return method(points)
        return call

    field.value, field.grad = spy(field.value), spy(field.grad)
    rng = np.random.default_rng(40)
    pool = rng.normal(size=(30, dim))
    est = sm.kappa_from_pairs(field, *sm.sample_pairs(pool, 42, rng))
    fresh = sm.sample_pairs(pool, 42, rng)
    return est, [sm.audit_gap_bound(field, f * est.kappa, fresh) for f in factors], max(sizes)


class TestChunkedAudit:
    """The estimate and the audit walk the pairs in ``nets.inference_chunks``
    chunks; how many there are must not move a bit of what they report."""

    @pytest.mark.parametrize("name", CHUNK_FIELDS)
    def test_one_chunk_and_many_chunks_give_the_same_bits(self, monkeypatch, name):
        factors = (0.5, 1.2)
        monkeypatch.setattr(nets, "INFERENCE_ROWS", 8)
        # 42 pairs in 8-row chunks: the rest of 2 rows joins the last chunk
        chunks = sm._chunks(CHUNK_FIELDS[name][0](), 42)
        assert [len(range(42)[c]) for c in chunks] == [8, 8, 8, 8, 10]
        many = chunked_audits(name, factors)
        monkeypatch.setattr(nets, "INFERENCE_ROWS", 4096)
        one = chunked_audits(name, factors)
        assert (many[2], one[2]) == (10, 42)   # the most rows of one evaluation
        assert repr(many[0]) == repr(one[0])
        for chunked, whole in zip(many[1], one[1]):
            assert chunked.rows.tobytes() == whole.rows.tobytes()
            assert (chunked.channel, repr(chunked.worst_pair), chunked.violations,
                    repr(chunked.max_ratio)) \
                == (whole.channel, repr(whole.worst_pair), whole.violations,
                    repr(whole.max_ratio))
        # at half the estimate the counts, the channel and the worst row all
        # come from violations
        assert one[1][0].violations > 0 and one[1][0].max_ratio > 1

    @pytest.mark.parametrize("rows", [8, 4096], ids=["two-chunks", "one-chunk"])
    def test_a_tie_keeps_the_first_table_row_across_chunks(self, monkeypatch, rows):
        """f(x) = x^3 at kappa 0: every violation of the zero bound scores
        infinity. Pairs (1, -1) have no gap at lam 0.5 and violate at 0.25
        (table rows 16-23); pairs (1, 0) violate at both (rows 8-15 and
        24-31). In 8-row chunks the first chunk meets its violations first,
        yet row 8 of the second chunk comes first in the table."""
        class Cubic:
            def value(self, points):
                return np.sum(points ** 3, axis=1)

        monkeypatch.setattr(nets, "INFERENCE_ROWS", rows)
        x = np.ones((16, 1))
        xp = np.concatenate([-np.ones((8, 1)), np.zeros((8, 1))])
        report = sm.audit_gap_bound(Cubic(), 0.0, (x, xp), lam_grid=(0.5, 0.25))
        assert report.violations == 24
        assert (report.worst_pair["pair_index"], report.worst_pair["lam"]) == (8, 0.5)


def traced_peak(call):
    """The peak bytes that tracemalloc sees during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIB = 2 ** 20


def test_cnn3_kappa_holds_one_chunk_of_gradients():
    """kappa from 96 pairs of a cnn3 on 28x28 points: holding both sides'
    [10, 96, 784] gradient stacks and their difference traced 23.2 MiB, and
    8-pair chunks trace about 9.3 MiB, mostly one chunk's forward tape."""
    rng = np.random.default_rng(41)
    model = nets.build_model(nets.cnn3(), rng)
    pairs = sm.sample_pairs(rng.uniform(size=(60, 28 * 28)), 96, rng)
    peak = traced_peak(lambda: sm.kappa_from_pairs(sm.LogitField(model), *pairs))
    assert peak < 12 * MIB, f"kappa traced peak {peak / MIB:.1f} MiB"


def test_softplus_audit_holds_the_gaps_the_table_and_one_chunk():
    """The audit-softplus benchmark's net, kappa from 20000 pairs and the
    audit of 20000 fresh pairs at 1.2 times it. Whole-set gap, ratio and mask
    tables traced 23.8 MiB for the audit and whole-set gradients 12.2 MiB for
    the estimate. In chunks the audit traces about 10.4 MiB (every channel's
    gaps, 4.1 MiB, the rows table, 5.5 MiB, and one chunk) and the estimate
    1.1 MiB."""
    rng = np.random.default_rng(0)
    model = nets.build_model(nets.mlp(6, [12, 8], 3, activation="softplus"), rng)
    pool = rng.normal(size=(400, 6), scale=1.5)
    pairs = sm.sample_pairs(pool, 20_000, np.random.default_rng(1))
    fresh = sm.sample_pairs(pool, 20_000, np.random.default_rng(2))
    peak = traced_peak(lambda: sm.kappa_from_pairs(sm.LogitField(model), *pairs))
    assert peak < 4 * MIB, f"kappa traced peak {peak / MIB:.1f} MiB"
    kappa = sm.kappa_from_pairs(sm.LogitField(model), *pairs).kappa
    peak = traced_peak(lambda: sm.audit_network(model, 1.2 * kappa, fresh))
    assert peak < 15 * MIB, f"audit traced peak {peak / MIB:.1f} MiB"


def test_kappa_holds_two_gradient_stacks_of_a_wide_input_net():
    """kappa from 1024 pairs of a 784-32-10 tanh MLP, the shape of a default
    checkpoint on 28x28 images: a 512-pair chunk's [10, 512, 784] gradient
    stack takes 30.6 MiB. Both sides' stacks, their difference and its
    square traced 122.6 MiB; the difference and its square taken in place
    trace 68.1 MiB. The norm keeps np.linalg.norm's bits."""
    rng = np.random.default_rng(45)
    model = nets.build_model(nets.mlp(784, [32], 10), rng)
    field = sm.LogitField(model)
    x, xp = sm.sample_pairs(rng.uniform(size=(60, 784)), 1024, rng)
    peak = traced_peak(lambda: sm.kappa_from_pairs(field, x, xp))
    assert peak < 80 * MIB, f"kappa traced peak {peak / MIB:.1f} MiB"
    keep = np.linalg.norm(x - xp, axis=1) != 0   # distant pairs may repeat a row
    x, xp = x[keep], xp[keep]
    ratios = [np.linalg.norm(field.grad(x[rows]) - field.grad(xp[rows]), axis=2)
              / np.linalg.norm(x[rows] - xp[rows], axis=1)
              for rows in sm._chunks(field, len(x))]
    assert sm.kappa_from_pairs(field, x, xp).per_channel \
        == tuple(np.concatenate(ratios, axis=1).max(axis=1))
