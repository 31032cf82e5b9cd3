import dataclasses
import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metamix import engine as eng
from metamix import meta, mixing, nets
from metamix.data import DataError, Splits, SyntheticSpec, standard_splits
from metamix.engine import Tensor
from metamix.meta import TrainConfig
from metamix.nets import OptimizerConfig


def tiny_setup(seed=0, batch=8, in_dim=4, hidden=8, classes=3):
    rng = np.random.default_rng(seed)
    model = nets.build_model(nets.mlp(in_dim, [hidden], classes), rng)
    x = rng.normal(size=(batch, in_dim))
    y = nets.one_hot(rng.integers(0, classes, batch), classes)
    vx = rng.normal(size=(batch, in_dim))
    vy = nets.one_hot(rng.integers(0, classes, batch), classes)
    perm = mixing.sample_pairing(batch, rng)
    policy = mixing.init_policy(batch, rng)
    return rng, model, (x, y), (vx, vy), perm, policy


def pipeline_val_loss(model, batch, perm, val_batch, eta):
    """Validation loss after the simulated update, as a function of logits."""
    x, y = batch
    names = list(model.params)

    def f(z: Tensor):
        lam = eng.sigmoid(z)
        mixed = mixing.mix_batch(x, y, perm, lam)
        clone = nets.clone_for_meta(model)
        params = [clone.params[n] for n in names]
        loss = nets.cross_entropy(
            nets.forward(clone, mixed.inputs, params=clone.params), mixed.labels)
        grads = eng.backward(loss, params, create_graph=True)
        sim = {n: eng.sub(p, eng.scale(g, eta))
               for n, p, g in zip(names, params, grads)}
        return nets.cross_entropy(nets.forward(clone, val_batch[0], params=sim),
                                  val_batch[1])

    return f


class TestHypergradient:
    def test_matches_finite_differences_through_pipeline(self):
        _, model, batch, val, perm, policy = tiny_setup()
        eta = 0.1
        res = meta.hypergradient(model, [(*batch, perm, 1.0)], policy, val, eta)
        f = pipeline_val_loss(model, batch, perm, val, eta)
        report = eng.grad_check(f, policy.logits, epsilon=1e-4, tolerance=1e-4)
        assert report.passed
        assert eng.max_relative_error(res.grad, report.analytic) <= 1e-12

    def test_eta_zero_gives_exactly_zero(self):
        _, model, batch, val, perm, policy = tiny_setup(seed=1)
        res = meta.hypergradient(model, [(*batch, perm, 1.0)], policy, val, eta=0.0)
        assert np.all(res.grad == 0.0)

    def test_model_untouched(self):
        _, model, batch, val, perm, policy = tiny_setup(seed=2)
        before = {n: p.data.tobytes() for n, p in model.params.items()}
        mom_before = {n: m.tobytes() for n, m in model.momentum.items()}
        meta.hypergradient(model, [(*batch, perm, 1.0)], policy, val, 0.1)
        assert {n: p.data.tobytes() for n, p in model.params.items()} == before
        assert {n: m.tobytes() for n, m in model.momentum.items()} == mom_before

    def test_first_order_eta_scaling(self):
        # grad(eta)/eta stabilizes as eta -> 0
        _, model, batch, val, perm, policy = tiny_setup(seed=3)
        groups = [(*batch, perm, 1.0)]
        g1 = meta.hypergradient(model, groups, policy, val, 1e-3).grad
        g2 = meta.hypergradient(model, groups, policy, val, 5e-4).grad
        scaled1, scaled2 = g1 / 1e-3, g2 / 5e-4
        denom = np.abs(scaled1).max()
        assert np.abs(scaled1 - scaled2).max() / denom <= 0.1

    def test_mode_validated(self):
        _, model, batch, val, perm, policy = tiny_setup(seed=4)
        for mode in ("qr", "fd"):
            with pytest.raises(ValueError, match="mode"):
                meta.hypergradient(model, [(*batch, perm, 1.0)], policy, val, 0.1,
                                   mode=mode)


@st.composite
def hypergradient_cases(draw):
    """A random net (MLP, or conv stack on 6x6 images), one or two groups and
    a step size."""
    activation = st.sampled_from(sorted(nets.ACTIVATIONS))
    classes = draw(st.integers(2, 4))
    if draw(st.booleans()):
        hidden = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
        arch = nets.Architecture(
            (draw(st.integers(1, 5)),),
            tuple(nets.Dense(h, draw(activation)) for h in hidden)
            + (nets.Dense(classes),))
    else:
        convs = draw(st.lists(st.tuples(st.sampled_from([3, 5]), st.integers(1, 3)),
                              min_size=1, max_size=2))
        arch = nets.Architecture(
            (6, 6, draw(st.sampled_from([1, 2]))),
            tuple(nets.Conv(k, c, draw(activation)) for k, c in convs)
            + (nets.Dense(classes),))
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=2))
    weights = [draw(st.sampled_from([1.0, 0.7])) for _ in sizes]
    eta = draw(st.floats(0.01, 1.0))
    return arch, sizes, weights, eta, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(hypergradient_cases())
def test_hypergradient_matches_the_double_backward(case):
    arch, sizes, weights, eta, seed = case
    rng = np.random.default_rng(seed)
    model = nets.build_model(arch, rng)
    classes = arch.n_classes

    def batch(n):
        return (rng.normal(size=(n,) + arch.input_shape),
                nets.one_hot(rng.integers(0, classes, n), classes))

    groups = [(*batch(n), mixing.sample_pairing(n, rng), w)
              for n, w in zip(sizes, weights)]
    val = batch(4)
    policy = mixing.init_policy(sum(sizes), rng)
    res = meta.hypergradient(model, groups, policy, val, eta)
    meta_loss, val_loss = meta.simulated_step_losses(model, groups, policy, val, eta)
    (reference,) = eng.backward(val_loss, [policy.logits])
    assert (res.meta_loss, res.val_loss) == (meta_loss.item(), val_loss.item())
    assert np.abs(res.grad - reference.data).max() <= 1e-12 * np.abs(reference.data).max()


class TestUpdatePolicy:
    def test_zero_gradient_keeps_values(self):
        policy = mixing.init_policy(6, np.random.default_rng(0))
        updated = meta.update_policy(policy, np.zeros(6), 5.0)
        np.testing.assert_array_equal(updated.logits.data, policy.logits.data)

    def test_descent_arithmetic(self):
        policy = mixing.InterpolationPolicy(Tensor(np.array([0.0, 1.0]),
                                                   requires_grad=True))
        updated = meta.update_policy(policy, np.array([0.5, -0.25]), 2.0)
        np.testing.assert_allclose(updated.logits.data, [-1.0, 1.5], rtol=1e-15)

    def test_lambda_stays_in_open_interval(self):
        policy = mixing.init_policy(4, np.random.default_rng(1))
        updated = meta.update_policy(policy, np.full(4, -1e3), 10.0)
        lam = updated.lambda_values()
        assert np.all(lam > 0.0) and np.all(lam <= 1.0)
        assert np.all(np.isfinite(updated.logits.data))

    def test_negative_step_rejected(self):
        policy = mixing.init_policy(3, np.random.default_rng(2))
        with pytest.raises(ValueError):
            meta.update_policy(policy, np.zeros(3), -1.0)


def run_config(**kw):
    opt = kw.pop("optimizer", OptimizerConfig(learning_rate=0.1, momentum=0.9,
                                              weight_decay=1e-4))
    return TrainConfig(optimizer=opt, **kw)


class TestTrainStep:
    def test_alpha_zero_reduces_to_random_lambda_mixing(self):
        cfg = run_config(policy_step_size=0.0, epochs=1, batch_size=8)
        rng_a = np.random.default_rng(10)
        rng_b = np.random.default_rng(10)
        model_a = nets.build_model(nets.mlp(4, [8], 3), np.random.default_rng(5))
        model_b = nets.clone_for_meta(model_a)  # same initial weights

        data_rng = np.random.default_rng(6)
        x = data_rng.normal(size=(8, 4))
        y = nets.one_hot(data_rng.integers(0, 3, 8), 3)
        val = (data_rng.normal(size=(8, 4)), nets.one_hot(data_rng.integers(0, 3, 8), 3))

        meta.train_step(model_a, (x, y), val, cfg, rng_a, lr=0.1)

        # manual vanilla step with identical rng consumption
        perm = mixing.sample_pairing(8, rng_b)
        policy = mixing.init_policy(8, rng_b)
        mixed = mixing.mix_batch(x, y, perm, policy)
        loss = nets.cross_entropy(nets.forward(model_b, mixed.inputs), mixed.labels)
        nets.sgd_step(model_b, nets.param_gradients(loss, model_b), cfg.optimizer, 0.1)

        for name in model_a.params:
            assert (model_a.params[name].data.tobytes()
                    == model_b.params[name].data.tobytes()), name

    def test_one_policy_update_per_step(self):
        cfg = run_config(epochs=1, batch_size=8)
        base = nets.build_model(nets.mlp(4, [8], 3), np.random.default_rng(7))
        data_rng = np.random.default_rng(8)
        x = data_rng.normal(size=(8, 4))
        y = nets.one_hot(data_rng.integers(0, 3, 8), 3)
        val = (data_rng.normal(size=(8, 4)), nets.one_hot(data_rng.integers(0, 3, 8), 3))

        stats = meta.train_step(nets.clone_for_meta(base), (x, y), val,
                                cfg, np.random.default_rng(9), lr=0.1)

        # one hypergradient and one policy update on the same draws
        rng = np.random.default_rng(9)
        perm = mixing.sample_pairing(8, rng)
        policy = mixing.init_policy(8, rng)
        res = meta.hypergradient(base, [(x, y, perm, 1.0)], policy, val, 0.1)
        policy = meta.update_policy(policy, res.grad, cfg.policy_step_size)
        np.testing.assert_array_equal(policy.lambda_values(), stats.lambda_values)
        assert stats.hypergrad_norm == float(np.linalg.norm(res.grad))

    def test_step_stats_sane(self):
        _, model, batch, val, _, _ = tiny_setup(seed=11)
        cfg = run_config(epochs=1, batch_size=8)
        stats = meta.train_step(model, batch, val, cfg,
                                np.random.default_rng(12), lr=0.1)
        lam = stats.lambda_values
        assert 0.0 < lam.min() <= lam.mean() <= lam.max() < 1.0
        assert stats.hypergrad_norm >= 0.0
        assert stats.lambda_values.shape == (8,)

    def test_vanilla_modes(self):
        data_rng = np.random.default_rng(13)
        x = data_rng.normal(size=(6, 4))
        y = nets.one_hot(data_rng.integers(0, 3, 6), 3)
        for mode, expect_spread in [("mixup-beta", False), ("mixup-fixed", False),
                                    ("baseline", False)]:
            model = nets.build_model(nets.mlp(4, [8], 3), np.random.default_rng(14))
            cfg = run_config(mode=mode, epochs=1, batch_size=6, fixed_lambda=0.5)
            stats = meta.train_step(model, (x, y), None, cfg,
                                    np.random.default_rng(15), lr=0.1)
            lam = stats.lambda_values
            assert lam.std() == 0.0  # shared coefficient
            if mode == "mixup-fixed":
                assert lam.mean() == 0.5
            if mode == "baseline":
                assert lam.mean() == 1.0


def _step_inputs(kind):
    """Model, labeled batch, validation batch and pseudo batch for one step.
    "chunks" is a cnn3 step of 5 labeled and 3 pseudo rows and 8 validation
    rows, which ``_chunked`` splits into 4-row chunks."""
    rng = np.random.default_rng(16)
    if kind in ("cnn3", "chunks"):
        model = nets.build_model(nets.cnn3((8, 8), 1, 3), rng)
        row = (8, 8, 1)
    else:
        model = nets.build_model(nets.mlp(4, [8], 3), rng)
        row = (4,)

    def batch(n):
        return rng.normal(size=(n,) + row), nets.one_hot(rng.integers(0, 3, n), 3)

    if kind == "chunks":
        return model, batch(5), batch(8), batch(3)
    return model, batch(6), batch(4), batch(4) if kind == "pseudo" else None


def _chunked(monkeypatch):
    """Bound the chunks of an 8x8 cnn3 to one 4-row block: layer 1's output
    takes 8*8 * 32 * 8 bytes per row."""
    monkeypatch.setattr(nets, "INFERENCE_BYTES", 4 * 8 * 8 * 32 * 8)


@pytest.mark.parametrize("kind", ["supervised", "pseudo", "cnn3"])
# every hypergradient is exact; the "-exact" id suffix keeps the test names
@pytest.mark.parametrize("mode", meta.MODES, ids=lambda m: f"{m}-exact")
def test_step_graphs_are_freed_without_the_cycle_collector(kind, mode):
    model, labeled, val, pseudo = _step_inputs(kind)
    cfg = run_config(mode=mode, epochs=1, batch_size=6)
    gc.collect()
    gc.disable()
    try:
        meta.train_step(model, labeled, val, cfg, np.random.default_rng(17),
                        lr=0.1, pseudo_batch=pseudo)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["supervised", "pseudo"])
@pytest.mark.parametrize("mode", meta.MODES)
def test_train_step_records_no_graph(kind, mode, monkeypatch):
    """Training runs in numpy: no engine node with parents, no backward pass,
    no engine forward, no cloned model."""
    model, labeled, val, pseudo = _step_inputs(kind)
    backward_calls, clones, graph_nodes, forwards = [], [], [], []
    init = Tensor.__init__

    def spy_init(tensor, data, requires_grad=False, *, op="leaf", parents=(), vjp=None):
        if parents:
            graph_nodes.append(op)
        init(tensor, data, requires_grad, op=op, parents=parents, vjp=vjp)

    monkeypatch.setattr(eng, "backward", lambda *a, **k: backward_calls.append(a))
    monkeypatch.setattr(nets, "clone_for_meta", lambda m: clones.append(m))
    real_forward = nets.forward

    def spy_forward(*args, **kwargs):
        forwards.append(args)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(nets, "forward", spy_forward)
    monkeypatch.setattr(Tensor, "__init__", spy_init)
    stats = meta.train_step(model, labeled, val, run_config(mode=mode, batch_size=6),
                            np.random.default_rng(18), lr=0.1, pseudo_batch=pseudo)
    assert np.isfinite(stats.train_loss)
    assert backward_calls == [] and clones == [] and graph_nodes == []
    assert forwards == []


@pytest.mark.parametrize("kind", ["supervised", "pseudo", "chunks"])
def test_hypergradient_reuses_the_inner_tape(kind, monkeypatch):
    """One numpy forward and one reverse pass per chunk per loss, whatever
    the number of groups: the inner batch stacks its groups. The two-tangent
    pass reads the inner pass's own tape of its last chunk and runs the
    forward of each other inner chunk once more, last chunk first, so a
    one-chunk batch runs no forward beyond its losses'."""
    model, labeled, val, pseudo = _step_inputs(kind)
    if kind == "chunks":
        _chunked(monkeypatch)
    rng = np.random.default_rng(22)
    groups = [(x, y, mixing.sample_pairing(len(x), rng), 1.0)
              for x, y in [labeled] + ([pseudo] if pseudo is not None else [])]
    forwards, tapes, reverses, tangent_tapes, during_tangents = [], [], [], [], []
    real_forward, real_reverse = nets._forward, nets._reverse
    real_tangents = nets.forward_tangents

    def spy_forward(*args):
        forwards.append(len(args[1]))
        logits, tape = real_forward(*args)
        tapes.append(tape)
        return logits, tape

    def spy_reverse(*args):
        reverses.append(len(args[1]))
        return real_reverse(*args)

    def spy_tangents(tape, *args):
        before = len(forwards)
        tangent_tapes.append(tape)
        result = real_tangents(tape, *args)
        during_tangents.append(len(forwards) - before)
        return result

    monkeypatch.setattr(nets, "_forward", spy_forward)
    monkeypatch.setattr(nets, "_reverse", spy_reverse)
    monkeypatch.setattr(nets, "forward_tangents", spy_tangents)
    n = sum(len(g[0]) for g in groups)
    meta.hypergradient(model, groups, mixing.init_policy(n, rng), val, 0.1)
    chunks = {m: [len(range(m)[rows]) for rows in nets.inference_chunks(model.arch, m)]
              for m in (n, len(val[0]))}
    inner, losses = len(chunks[n]), len(chunks[n]) + len(chunks[len(val[0])])
    assert reverses == chunks[n] + chunks[len(val[0])]
    assert forwards == reverses + chunks[n][-2::-1]
    assert during_tangents == [0] * inner
    assert [id(t) for t in tangent_tapes] == [id(t) for t in [tapes[inner - 1]] + tapes[losses:]]
    if kind == "chunks":
        assert chunks == {8: [4, 4]}


def test_chunked_step_matches_the_double_backward_and_the_one_chunk_bits(monkeypatch):
    """A cnn3 step whose inner and validation batches span two chunks, one
    of which holds rows of both groups: the hypergradient matches the
    double backward to 1e-10 relative, and the losses and inner logits are
    those of the same batch in one chunk, bit for bit; its gradients sum
    the chunks in another order, within 1e-13."""
    model, labeled, val, pseudo = _step_inputs("chunks")
    rng = np.random.default_rng(28)
    groups = [(*labeled, mixing.sample_pairing(5, rng), 1.0),
              (*pseudo, mixing.sample_pairing(3, rng), 0.7)]
    policy = mixing.init_policy(8, rng)
    x, y, perm, segments = meta._stack(groups, 8)
    batch = (*meta._mix(x, y, perm, policy.lambda_values()), segments)
    whole = nets.loss_and_gradients(model, batch)
    whole_val = nets.batch_loss(model, (*val, None))
    _chunked(monkeypatch)
    assert len(nets.inference_chunks(model.arch, 8)) == 2
    loss, grads, logits = nets.loss_and_gradients(model, batch)
    assert loss == whole[0] and logits.tobytes() == whole[2].tobytes()
    for name, g in grads.items():
        assert np.abs(g - whole[1][name]).max() <= 1e-13 * np.abs(whole[1][name]).max()
    assert nets.batch_loss(model, (*val, None)) == whole_val

    res = meta.hypergradient(model, groups, policy, val, 0.3)
    meta_loss, val_loss = meta.simulated_step_losses(model, groups, policy, val, 0.3)
    (reference,) = eng.backward(val_loss, [policy.logits])
    assert res.meta_loss == meta_loss.item() == loss
    assert np.isclose(res.val_loss, val_loss.item(), rtol=1e-13, atol=0)
    assert np.abs(res.grad - reference.data).max() <= 1e-10 * np.abs(reference.data).max()


def test_hypergradient_rejects_a_policy_of_the_wrong_length():
    model, labeled, val, pseudo = _step_inputs("pseudo")
    rng = np.random.default_rng(25)
    groups = [(x, y, mixing.sample_pairing(len(x), rng), 1.0) for x, y in (labeled, pseudo)]
    with pytest.raises(eng.ShapeError, match="policy length 9 vs group total 10"):
        meta.hypergradient(model, groups, mixing.init_policy(9, rng), val, 0.1)


def test_train_step_stacks_its_groups_once(monkeypatch):
    """A metamixup step with a pseudo group stacks its groups once and hands
    the stacked batch to the hypergradient, whose result is bit for bit the
    one it gives on the list of groups; a stacked batch of the wrong length
    is rejected as the groups are."""
    model, labeled, val, pseudo = _step_inputs("pseudo")
    stacks, hypergradients = [], []
    real_stack, real_hypergradient = meta._stack, meta.hypergradient

    def spy_stack(groups, length):
        stacks.append(groups)
        return real_stack(groups, length)

    def spy_hypergradient(model, groups, *args, **kwargs):
        hypergradients.append(groups)
        return real_hypergradient(model, groups, *args, **kwargs)

    monkeypatch.setattr(meta, "_stack", spy_stack)
    monkeypatch.setattr(meta, "hypergradient", spy_hypergradient)
    meta.train_step(model, labeled, val, run_config(mode="metamixup", batch_size=6),
                    np.random.default_rng(29), lr=0.1, pseudo_batch=pseudo)
    assert len(hypergradients) == 1 and isinstance(hypergradients[0], meta.Stacked)
    assert [type(groups) for groups in stacks] == [list, meta.Stacked]

    rng = np.random.default_rng(30)
    groups = [(*labeled, mixing.sample_pairing(6, rng), 1.0),
              (*pseudo, mixing.sample_pairing(4, rng), 0.5)]
    policy = mixing.init_policy(10, rng)
    stacked = real_stack(groups, 10)
    a = real_hypergradient(model, groups, policy, val, 0.1)
    b = real_hypergradient(model, stacked, policy, val, 0.1)
    assert a.grad.tobytes() == b.grad.tobytes()
    assert (a.meta_loss, a.val_loss) == (b.meta_loss, b.val_loss)
    with pytest.raises(eng.ShapeError, match="policy length 9 vs group total 10"):
        real_hypergradient(model, stacked, mixing.init_policy(9, rng), val, 0.1)


def test_cnn3_step_tapes_conv_inputs_and_builds_columns_per_block(monkeypatch):
    """A conv layer's tape entry is its [n, h, w, cin] input. Per cnn3
    metamixup step, layer 0 (1 -> 16 channels) builds im2col columns and
    layer 1 (16 -> 32) builds none, in every pass: every build reads one
    channel and covers at most one block of images, inside the weight
    gradient or not, and in each of the three reverse passes (inner,
    validation, real update) layer 1's weight gradient builds nothing and
    layer 0's blocks cover its rows once."""
    model, labeled, val, _ = _step_inputs("cnn3")
    # two images of layer 0's columns per block, so a 6-row batch spans three
    monkeypatch.setattr(eng, "CONV_BLOCK_BYTES", 2 * 8 * (8 * 8 * 9 * 1))
    outside, weight_grads, tapes = [], [], []
    real_im2col, real_weight_grad = eng._im2col, eng._conv_weight_grad
    real_forward = nets._forward
    depth = []

    def spy_im2col(x, k):
        (weight_grads[-1][1] if depth else outside).append(x.shape + (k,))
        return real_im2col(x, k)

    def spy_weight_grad(x, g, k):
        weight_grads.append((x.shape[3], []))
        depth.append(1)
        try:
            return real_weight_grad(x, g, k)
        finally:
            depth.pop()

    def spy_forward(model, x, params=None):
        logits, tape = real_forward(model, x, params)
        tapes.append((np.asarray(x), tape))
        return logits, tape

    monkeypatch.setattr(eng, "_im2col", spy_im2col)
    monkeypatch.setattr(eng, "_conv_weight_grad", spy_weight_grad)
    monkeypatch.setattr(nets, "_forward", spy_forward)
    meta.train_step(model, labeled, val, run_config(mode="metamixup", batch_size=6),
                    np.random.default_rng(23), lr=0.1)
    assert len(tapes) == 3
    for x, tape in tapes:
        convs = [(h, w) for layer, h, w, *_ in tape if isinstance(layer, nets.Conv)]
        assert [h.shape for h, _ in convs] == [(len(x), 8, 8, w.shape[2]) for _, w in convs]
        assert np.array_equal(convs[0][0], x)
    inside = [build for _, builds in weight_grads for build in builds]
    assert outside and inside
    assert all(c == 1 and n <= eng._block_images(h * w * k * k * c)
               for n, h, w, c, k in outside + inside)
    # each reverse pass walks layer 1, then layer 0, over its forward's rows
    assert [(c, sum(n for n, *_ in builds)) for c, builds in weight_grads] == [
        (c, len(x) if c == 1 else 0) for x, _ in tapes for c in (16, 1)]


def _traced_peak(call):
    """The peak bytes that tracemalloc sees during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cnn3_step_peak_memory_stays_under_its_bound():
    """One cnn3 metamixup step at batch 50 on 28x28 images, one
    ``loss_and_gradients`` call and ``batched_logits`` on 200 rows, under
    tracemalloc. With whole-batch im2col columns on the tape the step peaked
    at 246 MB; with columns built per block of images, 128 MB (93 MB for the
    call); with the weight gradient's columns in blocks too, bool relu masks
    and an in-place tangent pass, 63.2 MiB (37.3 MiB, and 30.0 MiB for
    inference). Passes in 8-row chunks, which keep only the inner chunks'
    tapes, and a relu mask built only in its vjp take about 34 MiB (13 MiB,
    4 MiB); a hypergradient that keeps one inner chunk's tape at a time and
    gradients added as they are computed, 16.8 MiB (11.0 MiB, 4.0 MiB). The
    bounds sit between."""
    rng = np.random.default_rng(26)
    model = nets.build_model(nets.cnn3((28, 28), 1, 10), rng)

    def batch():
        return rng.normal(size=(50, 28, 28, 1)), nets.one_hot(rng.integers(0, 10, 50), 10)

    labeled, val = batch(), batch()
    mib = 2 ** 20
    peak = _traced_peak(lambda: nets.loss_and_gradients(model, (*labeled, None)))
    assert peak < 16 * mib, f"loss_and_gradients traced peak {peak / mib:.1f} MiB"
    peak = _traced_peak(lambda: meta.train_step(
        model, labeled, val, run_config(mode="metamixup", batch_size=50),
        np.random.default_rng(27), lr=0.1))
    assert peak < 40 * mib, f"step traced peak {peak / mib:.1f} MiB"
    images = rng.normal(size=(200, 28, 28, 1))
    peak = _traced_peak(lambda: nets.batched_logits(model, images))
    assert peak < 8 * mib, f"batched_logits traced peak {peak / mib:.1f} MiB"


def _im2col_input_grad(g, w):
    """The input-gradient kernel as im2col computes it: the forward conv of g
    with the spatially flipped, channel-swapped kernel, on columns."""
    return eng._conv_forward(g, w[::-1, ::-1].transpose(0, 1, 3, 2).copy())


@pytest.mark.parametrize("mode", ["metamixup", "mixup-beta"])
def test_cnn3_step_matches_the_im2col_kernels(mode, monkeypatch):
    """Layer 1's forward and kernel gradient, and both input gradients, run
    as shifted GEMMs, which sum in another order than im2col columns; after
    a cnn3 step with every conv kernel on columns instead, every parameter
    agrees to 1e-12 of its largest entry (an entry far smaller than that,
    left by cancellation, may differ by more of itself)."""
    def step():
        model, labeled, val, _ = _step_inputs("cnn3")
        meta.train_step(model, labeled, val, run_config(mode=mode, batch_size=6),
                        np.random.default_rng(24), lr=0.1)
        return {name: p.data for name, p in model.params.items()}

    shipped = step()
    monkeypatch.setattr(eng, "_builds_columns", lambda cin, cout: True)
    monkeypatch.setattr(eng, "_conv_input_grad", _im2col_input_grad)
    reference = step()
    for name, value in shipped.items():
        assert eng.max_relative_error(value, reference[name], floor=0.0) <= 1e-12, name


@pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
@pytest.mark.parametrize("mode", meta.MODES)
def test_overflowing_input_raises_non_finite(mode, activation):
    # a relu net passes the overflow on to the logits; tanh and sigmoid
    # saturate it to finite logits, and layer 0's check raises all the same
    model = nets.build_model(nets.mlp(4, [8], 3, activation=activation),
                             np.random.default_rng(20))
    model.params["layer0.w"].data[:] = 1.0
    x = np.full((6, 4), 1e308)
    y = nets.one_hot(np.arange(6) % 3, 3)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(eng.NonFiniteError):
        meta.train_step(model, (x, y), (x[:4], y[:4]),
                        run_config(mode=mode, batch_size=6),
                        np.random.default_rng(21), lr=0.1)


@st.composite
def loss_cases(draw):
    """A random net (MLP on vectors, dense head on [h, w, c] rows, or a conv
    stack) and one or two groups of mixed rows with weights 1 or 0.7."""
    activation = st.sampled_from(sorted(nets.ACTIVATIONS))
    classes = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["mlp", "flatten", "conv"]))
    if kind == "conv":
        convs = draw(st.lists(st.tuples(st.sampled_from([3, 5]), st.integers(1, 3)),
                              min_size=1, max_size=2))
        layers = tuple(nets.Conv(k, c, draw(activation)) for k, c in convs)
    else:
        hidden = draw(st.lists(st.integers(2, 6), min_size=0, max_size=2))
        layers = tuple(nets.Dense(h, draw(activation)) for h in hidden)
    shape = (draw(st.integers(1, 5)),) if kind == "mlp" else (5, 5, draw(st.integers(1, 2)))
    arch = nets.Architecture(shape, layers + (nets.Dense(classes),))
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
    weights = [draw(st.sampled_from([1.0, 0.7])) for _ in sizes]
    return arch, sizes, weights, draw(st.integers(0, 2**16))


@settings(max_examples=80, deadline=None)
@given(loss_cases())
def test_numpy_loss_and_gradients_equal_the_engine_bitwise(case):
    arch, sizes, weights, seed = case
    rng = np.random.default_rng(seed)
    model = nets.build_model(arch, rng)
    for p in model.params.values():   # nonzero biases exercise every term
        p.data = p.data + rng.normal(scale=0.3, size=p.shape)
    classes = arch.n_classes
    groups = [(rng.normal(size=(n,) + arch.input_shape),
               nets.one_hot(rng.integers(0, classes, n), classes),
               mixing.sample_pairing(n, rng), w) for n, w in zip(sizes, weights)]
    x, y, perm, segments = meta._stack(groups, sum(sizes))
    x, y = meta._mix(x, y, perm, rng.uniform(size=sum(sizes)))
    reference = meta._mixed_loss(model, x, y, segments)
    expected = nets.param_gradients(reference, model)
    loss, grads = nets.loss_and_gradients(model, (x, y, segments))[:2]
    assert loss == reference.item()
    assert grads.keys() == expected.keys()
    for name, g in grads.items():
        assert g.shape == expected[name].shape, name
        assert g.tobytes() == expected[name].data.tobytes(), name


@pytest.mark.parametrize("kind", ["supervised", "pseudo"])
@pytest.mark.parametrize("mode", meta.MODES)
def test_train_step_mixes_without_mix_batch(kind, mode, monkeypatch):
    def refuse(*args):
        raise AssertionError("train_step mixed through mixing.mix_batch")

    model, labeled, val, pseudo = _step_inputs(kind)
    monkeypatch.setattr(mixing, "mix_batch", refuse)
    stats = meta.train_step(model, labeled, val, run_config(mode=mode, batch_size=6),
                            np.random.default_rng(19), lr=0.1, pseudo_batch=pseudo)
    assert stats.accepted == (0 if pseudo is None else len(pseudo[0]))


@st.composite
def mix_cases(draw):
    """Groups of vector or [n, h, w, c] rows and per-row coefficients that
    include exact 0 and 1."""
    row = draw(st.sampled_from([(4,), (3, 3, 2)]))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    groups = [(rng.normal(size=(n,) + row), nets.one_hot(rng.integers(0, 3, n), 3),
               rng.permutation(n), w) for n, w in zip(sizes, (1.0, 0.7))]
    lam = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                        min_size=sum(sizes), max_size=sum(sizes)))
    return groups, np.array(lam)


@settings(max_examples=60, deadline=None)
@given(mix_cases())
def test_numpy_mix_equals_mix_batch_bitwise(case):
    """The stacked mix is each group's own ``mix_batch``, byte for byte."""
    groups, lam = case
    x, y, perm, segments = meta._stack(groups, len(lam))
    mx, my = meta._mix(x, y, perm, lam)
    for (x, y, perm, weight), (rows, w) in zip(groups, segments):
        ref = mixing.mix_batch(x, y, perm, lam[rows])
        assert mx[rows].shape == ref.inputs.shape and my[rows].shape == ref.labels.shape
        assert mx[rows].tobytes() == ref.inputs.data.tobytes()
        assert my[rows].tobytes() == ref.labels.data.tobytes()
        assert w == weight
    assert sum(len(mx[rows]) for rows, _ in segments) == len(mx) == len(lam)


# every ranged setting of the three config classes, written out here rather
# than read from the fields: a number kind and an interval, or the set of
# accepted words
SETTING_RANGES = {
    TrainConfig: {
        "epochs": (int, "[1, inf)"),
        "batch_size": (int, "[2, inf)"),
        "policy_step_size": (float, "[0, inf)"),
        "mode": {"metamixup", "mixup-beta", "mixup-fixed", "baseline"},
        "beta_alpha": (float, "(0, inf)"),
        "fixed_lambda": (float, "[0, 1]"),
        "unsup_weight": (float, "[0, inf)"),
        "augment": {"none", "flip", "flip-translate"},
        "seed": (int, "[0, inf)"),
        "sigma0": (float, "(0, 1]"),
        "sigma_decrement": (float, "[0, inf)"),
        "sigma_period": (int, "[1, inf)"),
        "sigma_floor": (float, "(0, 1]"),
    },
    OptimizerConfig: {
        "learning_rate": (float, "(0, inf)"),
        "momentum": (float, "[0, 1)"),
        "weight_decay": (float, "[0, inf)"),
    },
    SyntheticSpec: {
        "classes": (int, "[2, inf)"),
        "per_class": (int, "[1, inf)"),
        "dim": (int, "[1, inf)"),
        "separation": (float, "[0, inf)"),
        "noise_sigma": (float, "(0, inf)"),
    },
}
SETTINGS = [(owner, name) for owner, ranges in SETTING_RANGES.items() for name in ranges]
SETTING_IDS = [f"{owner.__name__}-{name}" for owner, name in SETTINGS]


def interval_ends(interval):
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return lo, hi, interval[0] == "[", interval[-1] == "]"


def outside_values(spec):
    """NaN, +-inf, a word outside a choice, and for an interval each finite
    bound +- 1 and the next value past it (the bound itself when open)."""
    if isinstance(spec, set):
        return ["cutmix", "", "None", next(iter(spec)).upper()]
    kind, interval = spec
    lo, hi, closed_lo, closed_hi = interval_ends(interval)
    bad = [float("nan"), float("inf"), float("-inf")]
    for end, closed, out in ((lo, closed_lo, -1), (hi, closed_hi, 1)):
        if np.isfinite(end):
            past = (end + out if kind is int else np.nextafter(end, out * np.inf)) \
                if closed else end
            bad += [kind(end + out), kind(past)]
    return bad


def inside_values(spec):
    """The default's neighbours at each bound: a closed bound itself, or the
    next value inside an open one; every word of a choice."""
    if isinstance(spec, set):
        return sorted(spec)
    kind, interval = spec
    lo, hi, closed_lo, closed_hi = interval_ends(interval)
    step = (lambda end, way: end + way) if kind is int else np.nextafter
    good = [kind(lo if closed_lo else step(lo, np.inf))]
    if np.isfinite(hi):
        good.append(kind(hi if closed_hi else step(hi, -np.inf)))
    return good


def build_setting(owner, name, value):
    """owner with name set to value; the other fields keep clear of the
    cross-field checks (sigma_floor <= sigma0, dim >= classes)."""
    if owner is TrainConfig:
        base = dict(sigma0=1.0, sigma_floor=float(np.nextafter(0.0, 1.0)))
        return run_config(**{**base, name: value})
    if owner is SyntheticSpec:
        return SyntheticSpec(**{"dim": 1000, name: value})
    return owner(**{name: value})


class TestConfigValidation:
    def test_rejections(self):
        with pytest.raises(ValueError):
            run_config(batch_size=1)
        with pytest.raises(ValueError):
            run_config(policy_step_size=-0.1)
        with pytest.raises(ValueError):
            run_config(mode="cutmix")
        with pytest.raises(ValueError):
            run_config(fixed_lambda=1.5)
        with pytest.raises(ValueError, match="seed"):
            run_config(seed=-1)
        for name in ("policy_step_size", "beta_alpha", "fixed_lambda", "unsup_weight",
                     "sigma0", "sigma_decrement", "sigma_floor"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=name):
                    run_config(**{name: bad})
        for name in ("learning_rate", "momentum", "weight_decay"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=name):
                    OptimizerConfig(**{name: bad})
        for spec in (dict(separation=float("nan")), dict(noise_sigma=float("inf")),
                     dict(class_sigmas=(1.0, float("nan")))):
            with pytest.raises(DataError):
                SyntheticSpec(**spec)

    @pytest.mark.parametrize("owner, name", SETTINGS, ids=SETTING_IDS)
    def test_value_outside_a_setting_range_names_the_field(self, owner, name):
        error = DataError if owner is SyntheticSpec else ValueError
        for bad in outside_values(SETTING_RANGES[owner][name]):
            with pytest.raises(error, match=rf"^{name} must be in "):
                build_setting(owner, name, bad)

    @pytest.mark.parametrize("owner, name", SETTINGS, ids=SETTING_IDS)
    def test_value_at_a_setting_bound_is_accepted(self, owner, name):
        for good in inside_values(SETTING_RANGES[owner][name]):
            if (owner, name, good) == (SyntheticSpec, "dim", 1):
                # below the least classes, 2: the cross-field check rejects it
                with pytest.raises(DataError, match="dim 1 < classes 2"):
                    build_setting(owner, name, good)
                continue
            assert getattr(build_setting(owner, name, good), name) == good

    def test_cross_field_checks_stay(self):
        with pytest.raises(ValueError, match="sigma_floor 0.9 exceeds sigma0 0.8"):
            run_config(sigma0=0.8, sigma_floor=0.9)
        with pytest.raises(ValueError, match="horizon"):
            OptimizerConfig(cosine_anneal=True)
        with pytest.raises(DataError, match="dim 2 < classes 3"):
            SyntheticSpec(classes=3, dim=2)
        for sigmas in ((1.0,), (1.0, 0.0), (1.0, float("inf"))):
            with pytest.raises(DataError, match="class_sigmas"):
                SyntheticSpec(class_sigmas=sigmas)

    def test_alpha_zero_allowed(self):
        assert run_config(policy_step_size=0.0).policy_step_size == 0.0


def small_splits(seed=0):
    return standard_splits(SyntheticSpec(classes=2, per_class=30, dim=5,
                                         separation=4.0),
                           seed=seed, meta_val_per_class=5, test_per_class=20)


class TestTrainSupervised:
    def test_step_count_ten_samples_batch_two(self):
        spec = SyntheticSpec(classes=2, per_class=7, dim=3)
        splits = standard_splits(spec, seed=1, meta_val_per_class=2,
                                 test_per_class=2)
        # train has 14 - 4 = 10 samples -> exactly 5 steps of batch 2
        cfg = run_config(epochs=1, batch_size=2)
        report = meta.train_supervised(splits, cfg)
        lam = report.records[0].lambda_hist
        assert len(report.records) == 1
        assert abs(sum(lam) - 1.0) < 1e-12
        # 5 steps x batch 2 = 10 coefficients in the histogram basis
        assert report.records[0].epoch == 0

    def test_metric_stream_deterministic_except_wall(self):
        cfg = run_config(epochs=2, batch_size=10, seed=3)
        a = meta.train_supervised(small_splits(), cfg)
        b = meta.train_supervised(small_splits(), cfg)
        for ra, rb in zip(a.records, b.records):
            ja, jb = ra.to_json(), rb.to_json()
            da = {k: v for k, v in eval_json(ja).items() if k != "wall_seconds"}
            db = {k: v for k, v in eval_json(jb).items() if k != "wall_seconds"}
            assert da == db

    def test_all_modes_complete(self):
        for mode in meta.MODES:
            cfg = run_config(epochs=1, batch_size=10, mode=mode, seed=4)
            report = meta.train_supervised(small_splits(), cfg)
            assert len(report.records) == 1
            assert np.isfinite(report.final_test_error)

    def test_loss_decreases_on_easy_data(self):
        cfg = run_config(epochs=8, batch_size=10, seed=5,
                         optimizer=OptimizerConfig(learning_rate=0.2,
                                                   momentum=0.9,
                                                   weight_decay=1e-4))
        report = meta.train_supervised(small_splits(seed=2), cfg)
        assert report.records[-1].train_loss < report.records[0].train_loss
        assert report.final_test_error <= 0.10

    def test_batch_larger_than_training_set_rejected_before_model(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("built a model for a run that takes no step")

        monkeypatch.setattr(nets, "build_model", never)
        # small_splits keeps 50 training rows
        with pytest.raises(ValueError, match="batch_size 51 exceeds the 50 training rows"):
            meta.train_supervised(small_splits(), run_config(epochs=1, batch_size=51))

    @pytest.mark.parametrize("mode", ["metamixup", "baseline"])
    def test_empty_meta_validation_split_rejected_before_model(self, monkeypatch, mode):
        def never(*args, **kwargs):
            raise AssertionError("built a model for a run with no validation rows")

        monkeypatch.setattr(nets, "build_model", never)
        splits = small_splits()
        empty = dataclasses.replace(splits, meta_val=splits.meta_val.subset(np.arange(0)))
        with pytest.raises(ValueError, match="the meta_val split holds no rows"):
            meta.train_supervised(empty, run_config(epochs=1, batch_size=10, mode=mode))

    @pytest.mark.parametrize("split", ["meta_val", "test"])
    def test_rows_of_another_shape_rejected_before_model(self, monkeypatch, split):
        def never(*args, **kwargs):
            raise AssertionError("built a model for a run whose rows disagree")

        monkeypatch.setattr(nets, "build_model", never)
        splits = small_splits()
        other = getattr(splits, split)
        narrow = dataclasses.replace(other, inputs=other.inputs[:, :4])
        with pytest.raises(DataError, match=rf"{split} rows .* shape \(4,\), "
                                            r"the training rows \(5,\)"):
            meta.train_supervised(dataclasses.replace(splits, **{split: narrow}),
                                  run_config(epochs=1, batch_size=10))

    def test_batch_of_the_whole_training_set_takes_a_step(self):
        report = meta.train_supervised(small_splits(), run_config(epochs=1, batch_size=50))
        assert report.records[0].train_loss > 0.0

    def test_cosine_annealed_run(self):
        cfg = run_config(epochs=3, batch_size=10, seed=6,
                         optimizer=OptimizerConfig(learning_rate=0.1,
                                                   cosine_anneal=True, horizon=3))
        report = meta.train_supervised(small_splits(), cfg)
        assert len(report.records) == 3


def eval_json(text):
    import json
    return json.loads(text)


class TestConflictingPairDrift:
    def test_lambda_pushed_away_from_half(self):
        # identical inputs, opposite labels: mixing is provably harmful, the
        # validation batch is a single point, so lambda should polarize
        x = np.array([[1.0, 0.0], [1.0, 0.0]])
        y = nets.one_hot(np.array([0, 1]), 2)
        model = nets.build_model(nets.mlp(2, [8], 2), np.random.default_rng(20))
        eta = 0.5  # a visible inner step; tiny eta makes the hypergradient vanish
        cfg = run_config(epochs=1, batch_size=2, policy_step_size=5.0,
                         optimizer=OptimizerConfig(learning_rate=eta, momentum=0.9,
                                                   weight_decay=1e-4))
        rng = np.random.default_rng(21)
        init_dev, post_dev = [], []
        for step in range(60):
            k = step % 2
            val = (x[k:k + 1], y[k:k + 1])
            perm = np.array([1, 0])
            policy = mixing.init_policy(2, rng)
            init_dev.append(np.abs(policy.lambda_values() - 0.5).mean())
            res = meta.hypergradient(model, [(x, y, perm, 1.0)], policy, val, eta)
            policy = meta.update_policy(policy, res.grad, cfg.policy_step_size)
            post_dev.append(np.abs(policy.lambda_values() - 0.5).mean())
            mixed = mixing.mix_batch(x, y, perm, policy)
            loss = nets.cross_entropy(nets.forward(model, mixed.inputs), mixed.labels)
            nets.sgd_step(model, nets.param_gradients(loss, model), cfg.optimizer, eta)
        assert np.mean(post_dev) > np.mean(init_dev)
