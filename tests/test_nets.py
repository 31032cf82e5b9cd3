import numpy as np
import pytest

from metamix import engine as eng
from metamix import nets
from metamix.engine import ShapeError, Tensor
from metamix.nets import Architecture, Conv, Dense, OptimizerConfig


def small_mlp():
    return nets.mlp(4, [8], 3)


class TestBuild:
    def test_mlp_parameter_count(self):
        model = nets.build_model(small_mlp(), np.random.default_rng(0))
        assert model.param_count() == 4 * 8 + 8 + 8 * 3 + 3  # 67

    def test_cnn_output_shape(self):
        model = nets.build_model(nets.cnn3(), np.random.default_rng(0))
        out = nets.forward(model, np.zeros((2, 28, 28, 1)))
        assert out.shape == (2, 10)

    def test_init_bounds_scale_with_fan_in(self):
        model = nets.build_model(nets.mlp(100, [4], 2), np.random.default_rng(1))
        w = model.params["layer0.w"].data
        assert np.abs(w).max() <= 1.0 / np.sqrt(100)
        assert model.params["layer0.b"].data.max() == 0.0

    def test_conv_after_dense_rejected(self):
        with pytest.raises(ShapeError):
            Architecture((8, 8, 1), (Dense(4, "tanh"), Conv(3, 2), Dense(2)))

    def test_conv_on_vector_input_rejected(self):
        with pytest.raises(ShapeError):
            Architecture((16,), (Conv(3, 4), Dense(2)))

    @pytest.mark.parametrize("input_shape, layers", [
        ((8, 8, 1), (Conv(4, 2), Dense(2))),
        ((8, 8, 1), (Conv(7, 2), Dense(2))),
        ((8, 8, 1), (Conv(3, 2), Conv(2, 2), Dense(2))),
        ((0,), (Dense(4, "tanh"), Dense(2))),
        ((8, 0, 1), (Conv(3, 2), Dense(2))),
    ], ids=["even-kernel", "kernel-7", "second-kernel-even", "zero-input",
            "zero-image-width"])
    def test_unrunnable_kernel_or_input_size_rejected(self, input_shape, layers):
        with pytest.raises(ShapeError):
            Architecture(input_shape, layers)

    def test_batch_shape_validated(self):
        model = nets.build_model(small_mlp(), np.random.default_rng(0))
        with pytest.raises(ShapeError, match="batch shape"):
            nets.forward(model, np.zeros((2, 5)))


class TestForward:
    def test_params_override_does_not_touch_model(self):
        rng = np.random.default_rng(2)
        model = nets.build_model(small_mlp(), rng)
        x = rng.normal(size=(5, 4))
        base = nets.forward(model, x).data
        shifted = {name: Tensor(p.data + 1.0, requires_grad=True)
                   for name, p in model.params.items()}
        other = nets.forward(model, x, params=shifted).data
        assert not np.allclose(base, other)
        np.testing.assert_array_equal(nets.forward(model, x).data, base)

    def test_gradients_flow_to_every_parameter(self):
        rng = np.random.default_rng(3)
        model = nets.build_model(nets.cnn3((6, 6), 1, 4), rng)
        x = rng.normal(size=(3, 6, 6, 1))
        y = nets.one_hot(rng.integers(0, 4, 3), 4)
        loss = nets.cross_entropy(nets.forward(model, x), y)
        grads = nets.param_gradients(loss, model)
        assert set(grads) == set(model.params)
        for name, g in grads.items():
            assert g.shape == model.params[name].shape
            assert float(np.abs(g.data).max()) > 0, name

    @pytest.mark.parametrize("arch,rows", [
        (nets.mlp(10, [32], 2), 512), (nets.mlp(784, [32], 10), 512),
        (nets.cnn3(), 8), (nets.cnn3((32, 32), 3), 8), (nets.cnn3((64, 64), 3), 4),
        (Architecture((16, 16, 3), (Dense(600, "tanh"), Dense(3))), 436),
        (nets.mlp(10, [1000, 32], 2), 260),
    ])
    def test_inference_rows_bound_the_widest_layer(self, arch, rows):
        # 2 MiB over the widest layer output, in whole 4-row blocks, at least one
        assert nets.inference_rows(arch) == rows

    def test_batched_logits_runs_inference_rows_per_forward(self, monkeypatch):
        rng = np.random.default_rng(4)
        model = nets.build_model(nets.cnn3((8, 8), 1, 3), rng)
        x = rng.normal(size=(9, 8, 8, 1))
        whole = nets.forward(model, x).data
        # layer 1's output takes 8*8 * 32 * 8 bytes per row; allow 2 rows,
        # which the rule raises to one block of 4
        monkeypatch.setattr(nets, "INFERENCE_BYTES", 2 * 8 * 8 * 32 * 8)
        sizes, real_forward = [], nets.forward

        def spy_forward(model, x):
            sizes.append(len(x))
            return real_forward(model, x)

        monkeypatch.setattr(nets, "forward", spy_forward)
        logits = nets.batched_logits(model, x)
        assert sizes == [4, 5]   # the last chunk takes the 1-row rest
        assert logits.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("limit", [4, 8])
    def test_batched_logits_of_any_rows_round_as_one_forward(self, monkeypatch, limit):
        """On the 2048-input dense head of an 8x8 cnn3, a forward of the first
        n of 12 rows rounds some rows unlike the 12-row forward unless n is a
        multiple of 4 (seen for n = 1-3, 5-7 and 9-11), so chunks start on
        4-row boundaries and hold at least 4 rows; then any batch's chunks
        give the bits of its one forward."""
        rng = np.random.default_rng(6)
        model = nets.build_model(nets.cnn3((8, 8), 1, 3), rng)
        x = rng.normal(size=(24, 8, 8, 1))
        monkeypatch.setattr(nets, "INFERENCE_ROWS", limit)
        for n in range(4, 25):
            logits = nets.batched_logits(model, x[:n])
            assert logits.tobytes() == nets.forward(model, x[:n]).data.tobytes(), n

    def test_batched_logits_chunks_round_as_the_whole_batch(self, monkeypatch):
        """10 rows at most 3 at a time split 4, 6: one block of 4 rows, the
        least a chunk holds, and the rest with it, not 3, 3, 3, 1 nor 2, 3,
        2, 3, which numpy would multiply in another order than the whole
        batch (a lone row by gemv)."""
        rng = np.random.default_rng(5)
        model = nets.build_model(nets.mlp(6, [12, 8], 3, activation="softplus"), rng)
        x = rng.normal(size=(10, 6))
        whole = nets.forward(model, x).data
        monkeypatch.setattr(nets, "INFERENCE_ROWS", 3)
        assert [len(x[rows]) for rows in nets.inference_chunks(model.arch, 10)] == [4, 6]
        assert nets.batched_logits(model, x).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n,sizes", [(0, []), (3, [3]), (8, [8]), (11, [11]),
                                         (12, [8, 4]), (50, [8] * 5 + [10])])
    def test_inference_chunks_take_whole_blocks_of_4_rows(self, n, sizes):
        """cnn3 on 28x28 takes 8 rows per chunk; a rest of under 4 rows
        joins the chunk before it."""
        chunks = nets.inference_chunks(nets.cnn3(), n)
        assert [len(range(n)[rows]) for rows in chunks] == sizes
        assert [rows.start for rows in chunks] == [sum(sizes[:i]) for i in range(len(sizes))]

    def test_inference_chunks_without_a_network_take_inference_rows(self, monkeypatch):
        """Work without a network chunks at INFERENCE_ROWS, in whole blocks of
        4 rows too."""
        assert [len(range(1026)[rows]) for rows in nets.inference_chunks(None, 1026)] \
            == [512, 514]
        monkeypatch.setattr(nets, "INFERENCE_ROWS", 6)
        assert [len(range(10)[rows]) for rows in nets.inference_chunks(None, 10)] == [4, 6]


# zeros of both signs, the ends of exp's range and saturation on either
# side, then a dense stretch between
SATURATION_GRID = np.concatenate([
    [-1e4, -745.0, -30.0, -0.0, 0.0, 30.0, 745.0, 1e4], np.linspace(-40.0, 40.0, 801)])


class TestActivationDerivatives:
    @pytest.mark.parametrize("name", list(nets.ACTIVATIONS))
    def test_f_and_f1_are_the_engines_forward_and_vjp(self, name):
        """f of the derivative table and of the pass without a tape, against
        the engine's forward; f' times the upstream ones against its vjp (a
        relu's bool mask gives the engine mask's float bits that way)."""
        f, d1, _ = nets.ACTIVATION_DERIVATIVES[name](SATURATION_GRID)
        t = Tensor(SATURATION_GRID, requires_grad=True)
        y = nets.ACTIVATIONS[name](t)
        (g,) = eng.backward(eng.sum_reduce(y), [t])
        assert f.tobytes() == y.data.tobytes()
        assert nets.ACTIVATION_VALUES[name](SATURATION_GRID).tobytes() == y.data.tobytes()
        assert (np.ones_like(SATURATION_GRID) * d1).tobytes() == g.data.tobytes()

    @pytest.mark.parametrize("name", ["softplus", "sigmoid"])
    def test_f2_is_the_derivative_of_f1(self, name):
        z, h = np.linspace(-20.0, 20.0, 161), 1e-4
        table = nets.ACTIVATION_DERIVATIVES[name]
        _, d1, d2 = table(z)
        central = (table(z + h)[1] - table(z - h)[1]) / (2 * h)
        # f' is rounded to eps * max|f'| absolutely, which the difference
        # divides by 2h; past that the two agree within 1e-6 relative
        np.testing.assert_allclose(
            d2, central, rtol=1e-6, atol=2 * np.finfo(float).eps * np.abs(d1).max() / h)


class TestCloneForMeta:
    def test_clone_is_detached_copy(self):
        rng = np.random.default_rng(4)
        model = nets.build_model(small_mlp(), rng)
        model.momentum["layer0.w"][:] = 7.0
        clone = nets.clone_for_meta(model)
        np.testing.assert_array_equal(clone.params["layer0.w"].data,
                                      model.params["layer0.w"].data)
        assert clone.params["layer0.w"] is not model.params["layer0.w"]
        assert clone.momentum["layer0.w"].max() == 0.0  # momentum not copied
        clone.params["layer0.w"].data += 1.0
        assert not np.array_equal(clone.params["layer0.w"].data,
                                  model.params["layer0.w"].data)


class TestSgd:
    def test_momentum_trace(self):
        # constant unit gradient, eta 0.1, momentum 0.9, no decay:
        # theta 1 -> 0.9 -> 0.71 with m 1 then 1.9
        arch = nets.mlp(1, [], 1)
        model = nets.build_model(arch, np.random.default_rng(0))
        model.params["layer0.w"].data = np.array([[1.0]])
        model.params["layer0.b"].data = np.array([0.0])
        cfg = OptimizerConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        g = {"layer0.w": np.array([[1.0]]), "layer0.b": np.array([0.0])}
        nets.sgd_step(model, g, cfg)
        assert model.params["layer0.w"].item() == pytest.approx(0.9, abs=1e-15)
        nets.sgd_step(model, g, cfg)
        assert model.params["layer0.w"].item() == pytest.approx(0.71, abs=1e-15)

    def test_weight_decay_folded_before_momentum(self):
        arch = nets.mlp(1, [], 1)
        model = nets.build_model(arch, np.random.default_rng(0))
        model.params["layer0.w"].data = np.array([[2.0]])
        model.params["layer0.b"].data = np.array([0.0])
        cfg = OptimizerConfig(learning_rate=0.5, momentum=0.5, weight_decay=0.1)
        g = {"layer0.w": np.array([[0.0]]), "layer0.b": np.array([0.0])}
        nets.sgd_step(model, g, cfg)
        # m = 0.5*0 + (0 + 0.1*2) = 0.2; theta = 2 - 0.5*0.2 = 1.9
        assert model.params["layer0.w"].item() == pytest.approx(1.9, abs=1e-15)

    def test_non_finite_update_names_the_parameter_and_changes_nothing(self):
        model = nets.build_model(small_mlp(), np.random.default_rng(0))
        # layer0 updates to finite values; layer1.w overflows
        model.params["layer1.w"].data[0, 0] = 1e200
        before = {n: p.data.copy() for n, p in model.params.items()}
        grads = {n: np.zeros_like(p.data) for n, p in model.params.items()}
        cfg = OptimizerConfig(learning_rate=0.1, weight_decay=1e200)
        with np.errstate(over="ignore"), pytest.raises(eng.NonFiniteError,
                                                       match="'layer1.w'"):
            nets.sgd_step(model, grads, cfg)
        for name, p in model.params.items():
            assert p.data.tobytes() == before[name].tobytes(), name
            assert not model.momentum[name].any(), name

    def test_missing_gradient_is_an_error(self):
        model = nets.build_model(small_mlp(), np.random.default_rng(0))
        with pytest.raises(KeyError, match="layer0.b"):
            nets.sgd_step(model, {"layer0.w": np.zeros((4, 8))},
                          OptimizerConfig(learning_rate=0.1))

    def test_cosine_schedule_endpoints(self):
        cfg = OptimizerConfig(learning_rate=0.1, cosine_anneal=True, horizon=100)
        assert cfg.lr_at(0) == pytest.approx(0.1)
        assert cfg.lr_at(50) == pytest.approx(0.05)
        assert cfg.lr_at(100) == pytest.approx(0.0, abs=1e-17)
        lrs = [cfg.lr_at(t) for t in range(101)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))  # non-increasing

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(learning_rate=0.1, cosine_anneal=True, horizon=0)


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((4, 3)))
        y = nets.one_hot(np.array([0, 1, 2, 0]), 3)
        assert nets.cross_entropy(logits, y).item() == pytest.approx(np.log(3.0))

    def test_mixed_labels_interpolate_loss_linearly(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.normal(size=(6, 4)))
        ya = nets.one_hot(rng.integers(0, 4, 6), 4)
        yb = nets.one_hot(rng.integers(0, 4, 6), 4)
        lam = 0.3
        mixed = nets.cross_entropy(logits, lam * ya + (1 - lam) * yb).item()
        split = (lam * nets.cross_entropy(logits, ya).item()
                 + (1 - lam) * nets.cross_entropy(logits, yb).item())
        assert mixed == pytest.approx(split, abs=1e-12)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        model = nets.build_model(nets.cnn3((8, 8), 1, 3), rng)
        model.momentum["layer0.w"][:] = rng.normal(size=model.momentum["layer0.w"].shape)
        path = tmp_path / "model.npz"
        nets.save_model(model, path)
        loaded = nets.load_model(path)
        assert loaded.arch == model.arch
        for name in model.params:
            assert loaded.params[name].data.tobytes() == model.params[name].data.tobytes()
            assert loaded.momentum[name].tobytes() == model.momentum[name].tobytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(7)
        model = nets.build_model(small_mlp(), rng)
        x = rng.normal(size=(10, 4))
        nets.save_model(model, tmp_path / "m.npz")
        loaded = nets.load_model(tmp_path / "m.npz")
        np.testing.assert_array_equal(nets.forward(model, x).data,
                                      nets.forward(loaded, x).data)
