import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from metamix import engine as eng
from metamix.engine import (
    NonFiniteError,
    ShapeError,
    Tensor,
    UnreachableTargetWarning,
    backward,
)


def mlp_loss_builder(rng, in_dim=4, hidden=6, classes=3, batch=5):
    """A small tanh MLP cross-entropy closure over fixed random data."""
    x = rng.normal(size=(batch, in_dim))
    y = np.eye(classes)[rng.integers(0, classes, batch)]

    def build(params):
        w1, b1, w2, b2 = params
        h = eng.tanh(eng.bias_add(eng.matmul(Tensor(x), w1), b1))
        logits = eng.bias_add(eng.matmul(h, w2), b2)
        ls = eng.log_softmax(logits)
        return eng.scale(eng.sum_reduce(eng.mul(Tensor(y), ls)), -1.0 / batch)

    params = [
        Tensor(rng.uniform(-0.5, 0.5, size=(in_dim, hidden)), requires_grad=True),
        Tensor(rng.uniform(-0.1, 0.1, size=hidden), requires_grad=True),
        Tensor(rng.uniform(-0.5, 0.5, size=(hidden, classes)), requires_grad=True),
        Tensor(rng.uniform(-0.1, 0.1, size=classes), requires_grad=True),
    ]
    return build, params


class TestForwardValues:
    def test_add(self):
        out = eng.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_sigmoid_at_zero(self):
        assert eng.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = eng.sigmoid(Tensor([-1e4, 1e4])).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_log_softmax_rows_normalize(self):
        rng = np.random.default_rng(0)
        ls = eng.log_softmax(Tensor(rng.normal(size=(7, 5)) * 50)).data
        np.testing.assert_allclose(np.exp(ls).sum(axis=1), np.ones(7), atol=1e-12)

    def test_softplus_large_inputs(self):
        out = eng.softplus(Tensor([800.0, -800.0])).data
        np.testing.assert_allclose(out, [800.0, 0.0], atol=1e-12)

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            eng.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_non_finite_rejected_at_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])

    def test_non_finite_rejected_at_primitive(self):
        big = Tensor(np.full(3, 1e308))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            eng.add(big, big)


def sign_split_sigmoid(z):
    """The sigmoid that ``eng._sigmoid_values`` replaced, kept as its
    bit-exact reference: the array split by sign, each half with its own
    exp and division."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 745.2, -745.2, 1e4, -1e4,
                     1e308, -1e308, np.inf, -np.inf, np.nan])
float_arrays = hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=40),
                          elements=st.floats(width=64))


class TestActivationKernel:
    """Softplus and sigmoid from one exp(-|z|) (``eng._exp_neg_abs``)."""

    @settings(max_examples=100, deadline=None)
    @given(float_arrays)
    def test_sigmoid_is_the_sign_split_bit_for_bit(self, z):
        # NaN stays NaN; only its sign bit, which nothing reads, may differ
        for points in (z, EXTREMES):
            ours, reference = eng._sigmoid_values(points), sign_split_sigmoid(points)
            nan = np.isnan(reference)
            assert np.array_equal(np.isnan(ours), nan)
            assert ours[~nan].tobytes() == reference[~nan].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(float_arrays)
    def test_softplus_within_two_ulp_of_logaddexp(self, z):
        for points in (z.ravel(), EXTREMES):
            ours = eng._softplus_values(points)
            with np.errstate(invalid="ignore", over="ignore"):   # NaN in, near-max out
                reference = np.logaddexp(0.0, points)
                finite = np.isfinite(reference)
                ulp = np.spacing(reference[finite])
            assert np.all(np.abs(ours[finite] - reference[finite]) <= 2 * ulp)
            assert np.array_equal(ours[~finite], reference[~finite], equal_nan=True)

    def test_softplus_non_finite_inputs(self):
        out = eng._softplus_values(np.array([np.inf, -np.inf, np.nan]))
        assert out[0] == np.inf and out[1] == 0.0 and np.isnan(out[2])

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=40),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_no_floating_point_error_on_finite_inputs(self, z):
        points = np.concatenate([z.ravel(), EXTREMES[np.isfinite(EXTREMES)]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            eng._sigmoid_values(points)
            eng._softplus_values(points)


class TestBackward:
    def test_grad_of_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (g,) = backward(eng.sum_reduce(eng.mul(x, x)), [x])
        np.testing.assert_array_equal(g.data, [2.0, 4.0, 6.0])

    def test_second_derivative_of_cube(self):
        x = Tensor([2.0], requires_grad=True)
        loss = eng.sum_reduce(eng.mul(eng.mul(x, x), x))
        (g1,) = backward(loss, [x], create_graph=True)
        (g2,) = backward(eng.sum_reduce(g1), [x])
        np.testing.assert_allclose(g2.data, [12.0], rtol=1e-12)

    def test_unreachable_target_zero_grad_with_warning(self):
        x = Tensor([1.0], requires_grad=True)
        z = Tensor([5.0], requires_grad=True)
        loss = eng.sum_reduce(eng.mul(x, x))
        with pytest.warns(UnreachableTargetWarning):
            gx, gz = backward(loss, [x, z])
        np.testing.assert_array_equal(gz.data, [0.0])
        np.testing.assert_array_equal(gx.data, [2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(eng.mul(x, x), [x])

    def test_grad_reused_node(self):
        # y = x*x used twice; accumulation must add both paths
        x = Tensor([3.0], requires_grad=True)
        y = eng.mul(x, x)
        loss = eng.sum_reduce(eng.add(y, y))
        (g,) = backward(loss, [x])
        np.testing.assert_allclose(g.data, [12.0], rtol=1e-12)

    def test_no_grad_context_suppresses_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with eng.no_grad():
            y = eng.mul(x, x)
        assert not y.requires_grad
        assert y.vjp is None

    def test_backward_without_create_graph_returns_leaves(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (g,) = backward(eng.sum_reduce(eng.mul(x, x)), [x])
        assert g.vjp is None and g.parents == ()

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(7)
        build, params = mlp_loss_builder(rng)
        g_first = [t.data.tobytes() for t in backward(build(params), params)]
        g_second = [t.data.tobytes() for t in backward(build(params), params)]
        assert g_first == g_second

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_backward_linearity(self, a, b):
        rng = np.random.default_rng(11)
        build, params = mlp_loss_builder(rng)
        x = params[0]
        l1 = build(params)
        l2 = eng.scale(eng.sum_reduce(eng.mul(x, x)), 1.0 / x.size)
        (g1,) = backward(l1, [x])
        (g2,) = backward(l2, [x])
        combo = eng.add(eng.scale(l1, a), eng.scale(l2, b))
        (gc,) = backward(combo, [x])
        np.testing.assert_allclose(gc.data, a * g1.data + b * g2.data,
                                   rtol=1e-12, atol=1e-12)


def _flat_point(rng, shape):
    return Tensor(rng.normal(size=shape))


class TestGradCheckPerPrimitive:
    """Central-difference oracle per differentiable primitive at random points."""

    CASES = {
        "tanh": lambda t: eng.sum_reduce(eng.tanh(t)),
        "sigmoid": lambda t: eng.sum_reduce(eng.sigmoid(t)),
        "softplus": lambda t: eng.sum_reduce(eng.softplus(t)),
        "exp": lambda t: eng.sum_reduce(eng.exp(eng.scale(t, 0.3))),
        "mul": lambda t: eng.sum_reduce(eng.mul(t, t)),
        "add": lambda t: eng.sum_reduce(eng.add(eng.mul(t, t), t)),
        "sub": lambda t: eng.sum_reduce(eng.sub(eng.mul(t, t), t)),
        "scale": lambda t: eng.sum_reduce(eng.scale(t, -2.5)),
        "neg": lambda t: eng.sum_reduce(eng.neg(eng.mul(t, t))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_elementwise(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        for trial in range(10):
            report = eng.grad_check(self.CASES[name], _flat_point(rng, 6))
            assert report.passed, f"{name} trial {trial}: {report.max_rel_error}"

    def test_matmul_and_bias(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 3))

        def f(t):
            m = eng.reshape(t, (2, 4))
            return eng.sum_reduce(eng.tanh(eng.bias_add(eng.matmul(m, Tensor(w)),
                                                        Tensor([0.3, -0.1, 0.2]))))

        for _ in range(10):
            assert eng.grad_check(f, _flat_point(rng, 8)).passed

    def test_log_softmax(self):
        rng = np.random.default_rng(4)
        y = np.eye(4)[rng.integers(0, 4, 3)]

        def f(t):
            logits = eng.reshape(t, (3, 4))
            return eng.scale(eng.sum_reduce(eng.mul(Tensor(y), eng.log_softmax(logits))), -1.0)

        for _ in range(10):
            assert eng.grad_check(f, _flat_point(rng, 12)).passed

    def test_gather_scatter(self):
        rng = np.random.default_rng(5)
        idx = np.array([0, 2, 2, 1])

        def f(t):
            m = eng.reshape(t, (3, 2))
            picked = eng.gather_rows(m, idx)
            return eng.sum_reduce(eng.mul(picked, picked))

        for _ in range(10):
            assert eng.grad_check(f, _flat_point(rng, 6)).passed

    def test_conv2d_input_and_kernel(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 3, 2, 3)) * 0.5
        x = rng.normal(size=(2, 4, 4, 2))

        def f_input(t):
            img = eng.reshape(t, (2, 4, 4, 2))
            out = eng.conv2d(img, Tensor(w))
            return eng.scale(eng.sum_reduce(eng.mul(out, out)), 1.0 / out.size)

        def f_kernel(t):
            ker = eng.reshape(t, (3, 3, 2, 3))
            out = eng.conv2d(Tensor(x), ker)
            return eng.scale(eng.sum_reduce(eng.mul(out, out)), 1.0 / out.size)

        for _ in range(5):
            assert eng.grad_check(f_input, _flat_point(rng, 64)).passed
            assert eng.grad_check(f_kernel, _flat_point(rng, 54)).passed

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            point = rng.normal(size=6)
            point[np.abs(point) < 0.05] += 0.1  # keep clear of the kink
            report = eng.grad_check(lambda t: eng.sum_reduce(eng.mul(eng.relu(t), eng.relu(t))),
                                    Tensor(point))
            assert report.passed

    def test_gradcheck_detects_corrupted_backward(self):
        # square with a backward rule missing its factor of two
        def broken_square(t):
            return Tensor(t.data ** 2, True, op="broken", parents=(t,),
                          vjp=lambda y, u, needs: (eng.mul(u, t),))

        report = eng.grad_check(lambda t: eng.sum_reduce(broken_square(t)),
                                Tensor(np.array([1.5, -2.0])))
        assert not report.passed

    def test_gradcheck_report_fields(self):
        report = eng.grad_check(lambda t: eng.sum_reduce(eng.mul(t, t)),
                                Tensor(np.array([0.0, 1.5])))
        assert report.passed
        assert report.max_rel_error <= report.tolerance
        np.testing.assert_allclose(report.analytic, [0.0, 3.0], atol=1e-12)


class TestSecondOrder:
    def test_hvp_quadratic_matches_closed_form(self):
        # L = 0.5 theta' A theta has Hessian A exactly
        A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 4.0]])
        theta = Tensor(np.array([0.3, -1.2, 0.7]), requires_grad=True)

        def quad(params):
            (t,) = params
            row = eng.reshape(t, (1, 3))
            return eng.scale(eng.sum_reduce(eng.mul(row, eng.matmul(row, Tensor(A)))), 0.5)

        v = np.array([1.0, -1.0, 2.0])
        (fd,) = eng.finite_diff_hvp(quad, [theta], [v], epsilon=1e-4)
        np.testing.assert_allclose(fd.data, A @ v, atol=1e-8)
        (ex,) = eng.exact_hvp(quad, [theta], [v])
        np.testing.assert_allclose(ex.data, A @ v, rtol=1e-12)

    def test_exact_vs_fd_hvp_on_random_mlps(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            build, params = mlp_loss_builder(rng)
            direction = [rng.normal(size=p.shape) for p in params]
            fd = eng.finite_diff_hvp(build, params, direction, epsilon=1e-5)
            ex = eng.exact_hvp(build, params, direction)
            for f, e in zip(fd, ex):
                assert eng.max_relative_error(e.data, f.data) <= 1e-3, f"trial {trial}"

    def test_fd_hvp_epsilon_validated(self):
        build, params = mlp_loss_builder(np.random.default_rng(0))
        with pytest.raises(ValueError, match="epsilon"):
            eng.finite_diff_hvp(build, params, [np.zeros(p.shape) for p in params], 0.0)

    def test_second_backward_through_conv(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 4, 4, 2))
        w = Tensor(rng.normal(size=(3, 3, 2, 3)) * 0.4, requires_grad=True)

        def build(params):
            (ker,) = params
            h = eng.tanh(eng.conv2d(Tensor(x), ker))
            return eng.scale(eng.sum_reduce(eng.mul(h, h)), 1.0 / h.size)

        v = rng.normal(size=w.shape)
        (fd,) = eng.finite_diff_hvp(build, [w], [v], epsilon=1e-5)
        (ex,) = eng.exact_hvp(build, [w], [v])
        assert eng.max_relative_error(ex.data, fd.data) <= 1e-6


def _spy(monkeypatch, name):
    """Record the positional arguments of every call to engine.<name>; vjp
    rules look primitives up in the module, so they see the spy too."""
    calls = []
    real = getattr(eng, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(eng, name, spy)
    return calls


def _mlp_graph(rng):
    """Leaves [x, w1, b1, w2, b2], all requiring grad, and a tanh MLP loss."""
    leaves = [Tensor(rng.normal(size=s), requires_grad=True)
              for s in ((5, 4), (4, 6), (6,), (6, 3), (3,))]
    x, w1, b1, w2, b2 = leaves
    y = np.eye(3)[rng.integers(0, 3, 5)]
    h = eng.tanh(eng.bias_add(eng.matmul(x, w1), b1))
    ls = eng.log_softmax(eng.bias_add(eng.matmul(h, w2), b2))
    return leaves, eng.scale(eng.sum_reduce(eng.mul(Tensor(y), ls)), -0.2)


def _conv_graph(rng):
    """Leaves [x, w1, w2], all requiring grad, and a two-layer conv loss."""
    leaves = [Tensor(rng.normal(size=s) * 0.5, requires_grad=True)
              for s in ((2, 4, 4, 2), (3, 3, 2, 3), (3, 3, 3, 2))]
    x, w1, w2 = leaves
    h = eng.conv2d(eng.tanh(eng.conv2d(x, w1)), w2)
    return leaves, eng.scale(eng.sum_reduce(eng.mul(h, h)), 1.0 / h.size)


SUBSETS = ([0], [1], [2], [0, 2], [2, 0], [1, 2])


class TestPrunedBackward:
    """backward runs vjp rules only along paths that reach a target; the
    gradients it returns must not change."""

    @pytest.mark.parametrize("graph", [_mlp_graph, _conv_graph])
    def test_subset_matches_full_bitwise(self, graph):
        leaves, loss = graph(np.random.default_rng(21))
        full = backward(loss, leaves)
        for subset in SUBSETS:
            got = backward(loss, [leaves[i] for i in subset])
            for i, g in zip(subset, got):
                np.testing.assert_array_equal(g.data, full[i].data)

    @pytest.mark.parametrize("graph", [_mlp_graph, _conv_graph])
    def test_subset_matches_full_bitwise_second_order(self, graph):
        rng = np.random.default_rng(22)
        leaves, loss = graph(rng)
        full = backward(loss, leaves, create_graph=True)
        for first in range(len(leaves)):
            (g,) = backward(loss, [leaves[first]], create_graph=True)
            np.testing.assert_array_equal(g.data, full[first].data)
            v = Tensor(rng.normal(size=g.shape))
            full_second = backward(eng.sum_reduce(eng.mul(full[first], v)), leaves)
            dot = eng.sum_reduce(eng.mul(g, v))
            for subset in SUBSETS:
                got = backward(dot, [leaves[i] for i in subset])
                for i, h in zip(subset, got):
                    np.testing.assert_array_equal(h.data, full_second[i].data)

    def test_input_target_skips_kernel_gradient(self, monkeypatch):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(2, 4, 4, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 2, 3)), requires_grad=True)
        loss = eng.sum_reduce(eng.conv2d(x, w))
        weight_calls = _spy(monkeypatch, "conv2d_weight_grad")
        input_calls = _spy(monkeypatch, "conv2d_input_grad")
        backward(loss, [x])
        assert len(weight_calls) == 0
        assert len(input_calls) == 1

    def test_left_operand_target_skips_its_transpose(self, monkeypatch):
        rng = np.random.default_rng(24)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        loss = eng.sum_reduce(eng.matmul(a, b))
        transposed = _spy(monkeypatch, "transpose")
        backward(loss, [a])
        assert not any(args[0] is a for args in transposed)
        assert any(args[0] is b for args in transposed)


class TestConvValues:
    def test_identity_kernel(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 5, 5, 3))
        k = np.zeros((3, 3, 3, 3))
        for c in range(3):
            k[1, 1, c, c] = 1.0  # center tap passes each channel through
        out = eng.conv2d(Tensor(x), Tensor(k)).data
        np.testing.assert_allclose(out, x, rtol=1e-14)

    def test_same_padding_shape(self):
        out = eng.conv2d(Tensor(np.zeros((1, 7, 9, 2))), Tensor(np.zeros((5, 5, 2, 4))))
        assert out.shape == (1, 7, 9, 4)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 4, 4, 2))
        w = rng.normal(size=(3, 3, 2, 1))
        out = eng.conv2d(Tensor(x), Tensor(w)).data
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        ref = np.zeros((1, 4, 4, 1))
        for i in range(4):
            for j in range(4):
                ref[0, i, j, 0] = np.sum(xp[0, i:i + 3, j:j + 3, :] * w[:, :, :, 0])
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    # (n, h, w, cout, cin, k): both cnn3 input-gradient shapes, kernels 1, 3
    # and 5, a 1x1 image under k = 5 (its shifted slices are one row long), a
    # non-square image and a single image
    @pytest.mark.parametrize("n,h,w,cout,cin,k", [
        (2, 6, 6, 32, 16, 3), (2, 6, 6, 16, 1, 3), (2, 5, 7, 3, 2, 1),
        (2, 5, 7, 3, 2, 5), (1, 1, 1, 4, 3, 5), (1, 4, 3, 2, 2, 3),
    ])
    def test_input_grad_matches_direct_sum(self, n, h, w, cout, cin, k):
        rng = np.random.default_rng(12)
        g = rng.normal(size=(n, h, w, cout))
        kernel = rng.normal(size=(k, k, cin, cout))
        got = eng.conv2d_input_grad(Tensor(g), Tensor(kernel)).data
        # the adjoint of the forward sum: output (i, j) reads input
        # (i + p - pad, j + q - pad) through tap (p, q)
        pad = (k - 1) // 2
        ref = np.zeros((n, h, w, cin))
        for i in range(h):
            for j in range(w):
                for p in range(k):
                    for q in range(k):
                        a, b = i + p - pad, j + q - pad
                        if 0 <= a < h and 0 <= b < w:
                            ref[:, a, b, :] += g[:, i, j, :] @ kernel[p, q].T
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            eng.conv2d(Tensor(np.zeros((1, 4, 4, 1))), Tensor(np.zeros((2, 2, 1, 1))))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channels"):
            eng.conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 3, 3, 1))))


def _padded_rows(a, k, lead):
    """Every image of a zero-padded by (k - 1) / 2 on each side, ``lead``
    rows and columns before it, flattened to rows; the padded width; and how
    many leading rows hold every output position."""
    pad = (k - 1) // 2
    n, h, wd, c = a.shape
    rows = np.pad(a, ((0, 0), (lead, 2 * pad - lead), (lead, 2 * pad - lead), (0, 0)))
    width = wd + 2 * pad
    return rows.reshape(-1, c), width, len(rows.reshape(-1, c)) - (k - 1) * (width + 1)


def _whole_batch_correlate(a, taps):
    """The same-padded correlation of a with taps [k, k, c, d] as one
    shifted-GEMM pass over the padded rows of every image at once."""
    k, _, _, d = taps.shape
    n, h, wd, _ = a.shape
    pad = (k - 1) // 2
    flat, width, m = _padded_rows(a, k, pad)
    out = np.zeros((len(flat), d))
    acc = out[:m]
    for p in range(k):
        for q in range(k):
            s = p * width + q
            acc += flat[s:s + m] @ taps[p, q]
    return out.reshape(n, h + 2 * pad, width, d)[:, :h, :wd]


def _whole_batch_forward(x, w):
    """The forward conv over every image at once: one im2col GEMM where the
    layer builds columns, else one shifted-GEMM pass."""
    k, _, cin, cout = w.shape
    if not eng._builds_columns(cin, cout):
        return _whole_batch_correlate(x, w)
    cols = eng._im2col(x, k)
    return (cols @ w.reshape(k * k * cin, cout)).reshape(x.shape[:3] + (cout,))


def _whole_batch_input_grad(g, w):
    """The input gradient as one shifted-GEMM pass over the padded rows of
    every image at once, with the flipped, channel-swapped kernel."""
    return _whole_batch_correlate(g, w[::-1, ::-1].transpose(0, 1, 3, 2))


def _whole_batch_weight_grad(x, g, k):
    """The weight gradient over every image at once: one GEMM of the im2col
    columns where the layer builds them, else per tap one GEMM of the padded
    rows shifted by the tap with g at the top left of the same grid."""
    cin, cout = x.shape[3], g.shape[3]
    if eng._builds_columns(cin, cout):
        cols = eng._im2col(x, k)
        return (cols.T @ g.reshape(len(cols), cout)).reshape(k, k, cin, cout)
    rows, width, m = _padded_rows(x, k, (k - 1) // 2)
    grads = _padded_rows(g, k, 0)[0]
    return np.stack([rows[p * width + q:p * width + q + m].T @ grads[:m]
                     for p in range(k) for q in range(k)]).reshape(k, k, cin, cout)


_BLOCKED_KERNELS = {
    "forward": (eng._conv_forward, _whole_batch_forward),
    "input_grad": (eng._conv_input_grad, _whole_batch_input_grad),
    "weight_grad": (eng._conv_weight_grad, _whole_batch_weight_grad),
}


def _kernel_args(kernel, rng, n, h, w, k, cin, cout):
    """A kernel's arguments on n random h x w images: the forward's input and
    weight, the input gradient's output gradient and weight, or the weight
    gradient's input, output gradient and k. The first argument is the one
    whose columns the kernel builds, or would build."""
    if kernel == "weight_grad":
        return rng.normal(size=(n, h, w, cin)), rng.normal(size=(n, h, w, cout)), k
    weight = rng.normal(size=(k, k, cin, cout))
    return rng.normal(size=(n, h, w, cin if kernel == "forward" else cout)), weight


class TestBlockedConvKernels:
    """The conv kernels run one block of images at a time. A layer that
    widens its channels more than twofold (``engine._builds_columns``, such
    as cnn3's 1 -> 16 layer) builds each block's im2col columns for its
    forward and kernel gradient, where the gather is cheap and one GEMM
    beats k*k thin ones; every other layer, and every input gradient, runs
    k*k shifted GEMMs over the block's padded rows, which copy each value
    once instead of k*k times. Each kernel is held to a whole-batch
    reference of its own form. A batch that one block holds runs the
    whole-batch GEMMs themselves. Past a block bound OpenBLAS may round a
    row unlike the whole-batch GEMM (a leftover row of its micro-kernel, a
    small-matrix or gemv path), and the weight gradient sums its rows block
    by block, so the grid, which holds layers of both forms, holds such
    batches within 1e-14 of their largest entry; cnn3's training shapes
    keep the forward's and the input gradient's bits."""

    def test_the_grid_holds_both_forms(self):
        forms = {eng._builds_columns(cin, cout) for cin in (1, 3, 16) for cout in (1, 3, 16)}
        assert forms == {True, False}

    @pytest.mark.parametrize("kernel", list(_BLOCKED_KERNELS))
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("cin", [1, 3, 16])
    @pytest.mark.parametrize("cout", [1, 3, 16])
    def test_blocks_match_the_whole_batch(self, kernel, k, cin, cout, monkeypatch):
        h, w = 5, 7   # 35 rows per image: blocks do not start on a multiple of 4
        # a block holds the columns, built or not, of a correlation over the
        # channels the kernel reads: cin for the forward and the weight
        # gradient, cout for the input gradient
        blocked, reference = _BLOCKED_KERNELS[kernel]
        channels = cout if kernel == "input_grad" else cin
        per_image = h * w * k * k * channels
        # three images per block, under a bound that is not a whole image
        monkeypatch.setattr(eng, "CONV_BLOCK_BYTES", 8 * per_image * 7 // 2)
        block = eng._block_images(per_image)
        assert block == 3
        rng = np.random.default_rng(k * 100 + cin * 10 + cout)
        for n in (1, block - 1, block, block + 1, 2 * block + 1):
            args = _kernel_args(kernel, rng, n, h, w, k, cin, cout)
            got, want = blocked(*args), reference(*args)
            assert got.shape == want.shape
            if n <= block:
                assert np.array_equal(got, want), n
            else:
                assert eng.max_relative_error(got, want, floor=0.0) <= 1e-14, n

    # a cnn3 step on 28x28 images: each layer's forward (columns for layer 0,
    # shifted GEMMs for layer 1), which the tangent pass runs with the weight
    # and the direction's kernel too, and layer 1's input gradient; the
    # (1, 32) and (16, 64) forwards, twice cnn3's widths, hold a wider column
    # GEMM past a block
    @pytest.mark.parametrize("kernel,cin,cout", [
        ("forward", 1, 16), ("forward", 16, 32), ("forward", 1, 32),
        ("forward", 16, 64), ("input_grad", 16, 32)])
    def test_cnn3_training_shapes_keep_their_bits(self, kernel, cin, cout):
        blocked, reference = _BLOCKED_KERNELS[kernel]
        channels = cin if kernel == "forward" else cout
        n = 2 * eng._block_images(28 * 28 * 9 * channels) + 1
        args = _kernel_args(kernel, np.random.default_rng(14), n, 28, 28, 3, cin, cout)
        assert np.array_equal(blocked(*args), reference(*args))

    # cnn3's two weight gradients on 28x28 images, past a block: layer 0's
    # from columns, layer 1's from shifted GEMMs
    @pytest.mark.parametrize("cin,cout", [(1, 16), (16, 32)])
    def test_cnn3_weight_gradients_stay_within_the_tolerance(self, cin, cout):
        n = 2 * eng._block_images(28 * 28 * 9 * cin) + 1
        args = _kernel_args("weight_grad", np.random.default_rng(15), n, 28, 28, 3,
                            cin, cout)
        got, want = eng._conv_weight_grad(*args), _whole_batch_weight_grad(*args)
        assert eng.max_relative_error(got, want, floor=0.0) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4))
def test_broadcast_sum_roundtrip(n, m):
    rng = np.random.default_rng(n * 13 + m)
    a = Tensor(rng.normal(size=(1, m)), requires_grad=True)
    wide = eng.broadcast_to(a, (n, m))
    back = eng.sum_to_shape(wide, (1, m))
    np.testing.assert_allclose(back.data, n * a.data, rtol=1e-12)
    (g,) = backward(eng.sum_reduce(eng.mul(wide, wide)), [a])
    np.testing.assert_allclose(g.data, 2.0 * n * a.data, rtol=1e-12)
