import math
import tracemalloc

import numpy as np
import pytest

from candlebias import metrics, neural
from candlebias.errors import TrainingDivergedError
from candlebias.neural import (
    AdamState,
    NetworkModel,
    TrainConfig,
    adam_step,
    backward,
    bce_loss,
    forward,
    init_network,
    sigmoid,
    train_network,
)

from conftest import cli_labels

# 2-2-1 miniature with hand-set weights; output frozen from a 50-digit
# evaluation of the same arithmetic: z1 = (-1, 1.25), relu -> (0, 1.25),
# z2 = -1.15, sigmoid(z2) below.
MINI_P = 0.24048908305088892541

PAPER_DIMS = (5, 128, 64, 1)  # the paper's network


def _mini_model():
    return NetworkModel(
        layer_dims=(2, 2, 1),
        weights=[np.array([[1.0, -1.0], [0.5, 0.5]]), np.array([[2.0, -1.0]])],
        biases=[np.array([0.0, -0.25]), np.array([0.1])],
        seed=0,
    )


# ---------------------------------------------------------------------------
# init_network

def test_init_shapes_match_layer_dims():
    model = init_network(0, PAPER_DIMS)
    assert model.layer_dims == (5, 128, 64, 1)
    assert [w.shape for w in model.weights] == [(128, 5), (64, 128), (1, 64)]
    assert [b.shape for b in model.biases] == [(128,), (64,), (1,)]


def test_init_biases_zero_and_weights_bounded():
    model = init_network(7, (5, 8, 4, 1))
    assert all(np.all(b == 0.0) for b in model.biases)
    for w, fan_in, fan_out in zip(model.weights, (5, 8, 4), (8, 4, 1)):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) < limit)


def test_init_deterministic():
    a = init_network(42, PAPER_DIMS)
    b = init_network(42, PAPER_DIMS)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    c = init_network(43, PAPER_DIMS)
    assert not all(np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


# ---------------------------------------------------------------------------
# forward

def test_forward_zero_parameters_give_half():
    model = init_network(0, (5, 8, 4, 1))
    for w in model.weights:
        w[:] = 0.0
    p = forward(model, np.random.default_rng(0).normal(size=(10, 5)))
    assert np.all(p == 0.5)


def test_forward_outputs_in_open_unit_interval():
    model = init_network(3, PAPER_DIMS)
    X = np.random.default_rng(1).normal(size=(1000, 5))
    p = forward(model, X)
    assert np.all((p > 0.0) & (p < 1.0))


def test_forward_miniature_hand_trace():
    p = forward(_mini_model(), np.array([[1.0, 2.0]]))
    assert abs(p[0] - MINI_P) < 1e-14


def test_forward_batch_equals_row_by_row():
    model = init_network(11, (5, 8, 4, 1))
    X = np.random.default_rng(2).normal(size=(16, 5))
    batched = forward(model, X)
    single = np.array([forward(model, X[i:i + 1])[0] for i in range(16)])
    assert np.all(np.abs(batched - single) < 1e-12)


def test_forward_holds_two_consecutive_layers_at_most():
    # the two hidden layers of 4,000 rows, 4.1 and 2.0 MB, are the most a
    # pass computed in place needs at once
    model = init_network(3, PAPER_DIMS)
    X = np.random.default_rng(5).standard_normal((4000, 5))
    tracemalloc.start()
    try:
        forward(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 4000 * (128 + 64) * 8


@pytest.mark.parametrize("n", [12_000, 24_000])
def test_forward_memory_does_not_grow_with_rows(n):
    # a block holds fewer than 2 * _SCORE_ROWS rows, so its two hidden layers
    # stay under two blocks' worth whatever n is; only the output grows
    model = init_network(3, PAPER_DIMS)
    X = np.random.default_rng(5).standard_normal((n, 5))
    tracemalloc.start()
    try:
        forward(model, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * neural._SCORE_ROWS * (128 + 64) * 8 + n * 8


@pytest.mark.parametrize("layer_dims", [(5, 128, 64, 1), (5, 7, 3, 1)])
def test_forward_in_blocks_keeps_the_one_pass_bits(layer_dims):
    # the blocks start at multiples of _SCORE_ROWS and the remainder joins the
    # last one, so n below 2 * _SCORE_ROWS is one pass and the rest are split
    model = init_network(3, layer_dims)
    for n in (1, 31, 1023, 1024, 1025, 2047, 2048, 2049, 2079, 4113, 11761, 20003):
        X = np.random.default_rng(n).standard_normal((n, 5))
        for a in neural._activations(model, X):
            pass
        assert np.array_equal(forward(model, X), a[:, 0]), n


# ---------------------------------------------------------------------------
# forward and backward against a pass that keeps every layer

def _reference_layers(model, X):
    """Each layer's activations (the rows first) and pre-activations, all kept."""
    a = np.atleast_2d(np.asarray(X, dtype=float))
    activations, pre_acts = [a], []
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W.T + b
        pre_acts.append(z)
        a = sigmoid(z) if i == last else np.maximum(0.0, z)
        activations.append(a)
    return activations, pre_acts


def _reference_backward(model, X, y):
    """Gradients with each hidden delta gated on its pre-activation."""
    activations, pre_acts = _reference_layers(model, X)
    delta = ((activations[-1][:, 0] - y) / len(y))[:, None]
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = delta.T @ activations[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (pre_acts[layer - 1] > 0.0)
    return grads_w, grads_b


def _model_with_zero_units(seed, layer_dims):
    """A seeded net, biases zero, whose hidden units 0 and 1 have zero weights
    biased by 0.0 and -0.0, and unit 2 weights of 1e-200 biased by -0.0."""
    model = init_network(seed, layer_dims)
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        W[:2] = 0.0
        b[:2] = (0.0, -0.0)
        W[2:3] = 1e-200
        b[2:3] = -0.0
    return model


@pytest.mark.parametrize("layer_dims", [(5, 128, 64, 1), (5, 1), (5, 3, 2, 1)])
def test_forward_and_backward_equal_the_all_layers_reference(layer_dims):
    for seed in range(4):
        model = _model_with_zero_units(seed, layer_dims)
        rng = np.random.default_rng(seed + 100)
        X = rng.normal(size=(300, 5))
        X[:10] = 0.0  # every pre-activation of these rows is exactly zero
        # a row whose products with unit 2's weights underflow: BLAS paths that
        # accumulate by fused multiply-add sum them to -0.0
        tiny = np.full((1, 5), -1e-200)
        assert all(np.all(z[:10] == 0.0) for z in _reference_layers(model, X)[1])
        for rows in (X, X[:1], X[:7], X[10:11], tiny, np.vstack([tiny, X[:20]])):
            y = rng.integers(0, 2, size=len(rows)).astype(float)
            ref_probabilities = _reference_layers(model, rows)[0][-1][:, 0]
            assert np.array_equal(forward(model, rows), ref_probabilities)
            gw, gb = backward(model, rows, y)
            ref_gw, ref_gb = _reference_backward(model, rows, y)
            for got, want in zip(gw + gb, ref_gw + ref_gb, strict=True):
                assert got.shape == want.shape and np.array_equal(got, want)


def test_activation_gate_agrees_with_pre_activation_gate():
    # backward gates on max(0, z) > 0 where the reference gates on z > 0
    z = np.array([-0.0, 0.0, np.nan, -np.nan, 5e-324, -5e-324, np.inf, -np.inf, 1.0, -1.0])
    assert np.array_equal(np.maximum(0.0, z) > 0.0, z > 0.0)


# ---------------------------------------------------------------------------
# bce_loss

def test_bce_all_half_is_ln2():
    assert abs(bce_loss(np.full(8, 0.5), np.random.default_rng(0).integers(0, 2, 8))
               - math.log(2.0)) < 1e-12


def test_bce_perfect_predictions_near_zero():
    y = np.array([1.0, 0.0, 1.0])
    p = np.array([1.0 - 1e-15, 1e-15, 1.0 - 1e-15])
    assert bce_loss(p, y) < 1e-12


def test_bce_matches_high_precision_fixture():
    # mpmath 50-digit evaluation of the mean negative log likelihood
    p = np.array([0.9, 0.2, 0.7, 0.4])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    assert abs(bce_loss(p, y) - 0.29900115866918977978) < 1e-14


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        bce_loss(np.ones(3) * 0.5, np.ones(4))


# ---------------------------------------------------------------------------
# backward

def _flat_params(model):
    return model.weights + model.biases


def _fd_param_grads(model, X, y, h=1e-5):
    grads = []
    for arr in _flat_params(model):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = bce_loss(forward(model, X), y)
            arr[idx] = orig - h
            down = bce_loss(forward(model, X), y)
            arr[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


@pytest.mark.parametrize("layer_dims", [(5, 1), (5, 3, 1), (5, 8, 4, 1)])
def test_backward_matches_finite_differences(layer_dims):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = init_network(seed, layer_dims)
        X = rng.normal(size=(8, 5))
        y = rng.integers(0, 2, size=8).astype(float)
        gw, gb = backward(model, X, y)
        analytic = gw + gb
        fd = _fd_param_grads(model, X, y)
        for a, f in zip(analytic, fd):
            rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
            assert np.all(rel < 1e-4), f"seed {seed}: max rel err {rel.max()}"


def test_backward_zero_delta_when_targets_equal_probs():
    model = _mini_model()
    X = np.array([[1.0, 2.0], [0.5, -1.0]])
    p = forward(model, X)
    gw, gb = backward(model, X, p)  # y == p exactly
    assert all(np.all(g == 0.0) for g in gw + gb)


def test_backward_mean_reduction_invariance():
    model = init_network(5, (5, 8, 4, 1))
    x = np.random.default_rng(3).normal(size=(1, 5))
    y1 = np.array([1.0])
    g1w, g1b = backward(model, x, y1)
    g2w, g2b = backward(model, np.vstack([x, x]), np.array([1.0, 1.0]))
    for a, b in zip(g1w + g1b, g2w + g2b):
        assert np.all(np.abs(a - b) < 1e-15)


def test_backward_rejects_rows_and_labels_of_different_lengths():
    model = init_network(1, (5, 8, 4, 1))
    with pytest.raises(ValueError, match="4 rows but 1 labels"):
        backward(model, np.ones((4, 5)), np.zeros(1))  # would broadcast unchecked


# ---------------------------------------------------------------------------
# adam_step

def test_adam_first_step_moves_by_lr_sign():
    params = [np.array([1.0, -2.0, 3.0])]
    grads = [np.array([0.5, -0.25, 2.0])]
    state = AdamState(m=[np.zeros(3)], v=[np.zeros(3)])
    (new,) = adam_step([params[0].copy()], grads, state)
    move = new - params[0]
    expected = -neural.LEARNING_RATE * np.sign(grads[0])
    assert np.all(np.abs(move - expected) < 1e-6)
    assert state.step_count == 1


def test_adam_zero_gradient_from_fresh_state_is_identity():
    params = [np.array([1.0, 2.0])]
    state = AdamState(m=[np.zeros(2)], v=[np.zeros(2)])
    (new,) = adam_step([params[0].copy()], [np.zeros(2)], state)
    assert np.array_equal(new, params[0])


def test_adam_moments_decay_on_zero_gradient():
    state = AdamState(m=[np.array([0.4])], v=[np.array([0.9])], step_count=3)
    adam_step([np.array([1.0])], [np.zeros(1)], state)
    assert state.m[0][0] == 0.9 * 0.4
    assert state.v[0][0] == 0.999 * 0.9


def test_adam_three_step_trace_matches_scalar_recurrence():
    lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
    theta = 0.7
    m = v = 0.0
    expected = []
    for t in range(1, 4):
        g = 1.0
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        expected.append(theta)

    params = [np.array([0.7])]
    state = AdamState(m=[np.zeros(1)], v=[np.zeros(1)])
    got = []
    for _ in range(3):
        params = adam_step(params, [np.ones(1)], state)
        got.append(params[0][0])
    assert np.all(np.abs(np.array(got) - np.array(expected)) < 1e-15)


def test_adam_second_moment_non_negative():
    state = AdamState(m=[np.zeros(4)], v=[np.zeros(4)])
    params = [np.zeros(4)]
    rng = np.random.default_rng(0)
    for _ in range(20):
        params = adam_step(params, [rng.normal(size=4)], state)
        assert np.all(state.v[0] >= 0.0)


# ---------------------------------------------------------------------------
# train_network

def _train_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
    return X, y


def test_train_loss_history_lengths():
    X, y = _train_data()
    config = TrainConfig(epochs=4, batch_size=32, validation_fraction=0.2, shuffle_seed=3)
    _, history = train_network(X, y, config, seed=1, layer_dims=(5, 8, 4, 1))
    assert len(history.train) == 4
    assert len(history.validation) == 4
    assert all(math.isfinite(v) for v in history.train + history.validation)


def test_train_holds_out_chronological_tail():
    X, y = _train_data(100)
    marker = X.copy()
    marker[80:] = 1e6  # junk in the would-be validation tail must not train
    config = TrainConfig(epochs=2, batch_size=16, validation_fraction=0.2, shuffle_seed=0)
    model_a, _ = train_network(X, y, config, seed=5, layer_dims=(5, 6, 3, 1))
    marker[: 80] = X[:80]
    model_b, _ = train_network(marker, y, config, seed=5, layer_dims=(5, 6, 3, 1))
    assert all(np.array_equal(a, b) for a, b in zip(model_a.weights, model_b.weights))


def test_train_deterministic():
    X, y = _train_data(150, seed=2)
    config = TrainConfig(epochs=3, batch_size=32, validation_fraction=0.2, shuffle_seed=9)
    a, ha = train_network(X, y, config, seed=4, layer_dims=(5, 8, 4, 1))
    b, hb = train_network(X, y, config, seed=4, layer_dims=(5, 8, 4, 1))
    assert all(np.array_equal(x, y_) for x, y_ in zip(a.weights, b.weights))
    assert all(np.array_equal(x, y_) for x, y_ in zip(a.biases, b.biases))
    assert ha.train == hb.train and ha.validation == hb.validation


def test_train_uses_final_partial_batch():
    # 50 fit rows with batch 32 -> batches of 32 and 18; train must not stall
    X, y = _train_data(63, seed=3)
    config = TrainConfig(epochs=1, batch_size=32, validation_fraction=0.2, shuffle_seed=1)
    model, history = train_network(X, y, config, seed=2, layer_dims=(5, 6, 3, 1))
    fresh = init_network(2, (5, 6, 3, 1))
    assert not all(np.array_equal(a, b) for a, b in zip(model.weights, fresh.weights))
    assert len(history.train) == 1


def test_train_learns_separable_data():
    X, y = _train_data(400, seed=6)
    config = TrainConfig(epochs=30, batch_size=32, validation_fraction=0.2, shuffle_seed=0)
    model, history = train_network(X, y, config, seed=0, layer_dims=(5, 16, 8, 1))
    assert history.train[-1] < history.train[0]
    acc = float(np.mean((forward(model, X) >= 0.5) == y))
    assert acc > 0.85


def test_train_requires_more_rows_than_batch():
    X, y = _train_data(30)
    with pytest.raises(ValueError):
        train_network(X, y, TrainConfig(10, 32, 0.2, 0), seed=0, layer_dims=PAPER_DIMS)


@pytest.mark.parametrize("layer_dims", [(), (5,), (4, 1), (5, 8, 2), (5, 0, 1), (5, -3, 1)])
def test_train_rejects_layer_dims_not_from_inputs_to_one_output(layer_dims):
    X, y = _train_data()
    with pytest.raises(ValueError, match="layer_dims"):
        train_network(X, y, TrainConfig(1, 32, 0.2, 0), seed=0, layer_dims=layer_dims)


def test_train_divergence_raises():
    X, y = _train_data(100)
    X = X.copy()
    X[0, 0] = np.inf
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(TrainingDivergedError):
        train_network(X, y, TrainConfig(2, 16, 0.2, 0), seed=0, layer_dims=(5, 6, 3, 1))


# ---------------------------------------------------------------------------
# class labels

def test_predict_tie_maps_to_one():
    model = init_network(0, (5, 4, 1))
    for w in model.weights:
        w[:] = 0.0
    preds = cli_labels(forward, model, np.random.default_rng(0).normal(size=(5, 5)))
    assert preds.tolist() == [1] * 5


def test_predict_monotone_in_probability():
    model = _mini_model()
    X = np.array([[1.0, 2.0], [-5.0, 10.0]])
    p = forward(model, X)
    preds = cli_labels(forward, model, X)
    assert np.array_equal(preds, (p >= 0.5).astype(int))


def test_all_positive_predictor_confusion_shape_and_identities():
    # bias the output unit so every probability clears 0.5
    model = init_network(3, (5, 8, 4, 1))
    model.biases[-1][:] = 10.0
    rng = np.random.default_rng(4)
    X = rng.normal(size=(200, 5))
    y = rng.integers(0, 2, size=200)
    preds = (forward(model, X) >= 0.5).astype(np.int64)
    assert np.all(preds == 1)
    cm = metrics.confusion(y, preds)
    assert cm.fn == 0 and cm.tn == 0
    prevalence = int(y.sum()) / len(y)
    assert metrics.accuracy(cm) == prevalence
    assert metrics.f1(cm) == 2 * int(y.sum()) / (len(y) + int(y.sum()))


# ---------------------------------------------------------------------------
# serialization

def test_network_json_round_trip():
    import json

    model = init_network(12, (5, 8, 4, 1))
    config = TrainConfig(epochs=3, batch_size=16, validation_fraction=0.25, shuffle_seed=8)
    doc = json.loads(json.dumps(neural.to_dict(model, config)))
    assert list(doc) == ["layer_dims", "weights", "biases", "seed", "config"]
    back, back_config = neural.from_dict(doc)
    assert back.layer_dims == model.layer_dims
    assert all(np.array_equal(a, b) for a, b in zip(back.weights, model.weights))
    assert back_config == config
    X = np.random.default_rng(0).normal(size=(6, 5))
    assert np.array_equal(forward(back, X), forward(model, X))
    assert neural.from_dict({**doc, "config": None})[1] is None


@pytest.mark.parametrize("value", [False, 0, "", [], 1, [1], "x"])
def test_network_config_that_is_not_an_object_is_refused(value):
    doc = {**neural.to_dict(init_network(0, (5, 1))), "config": value}
    with pytest.raises(ValueError) as refused:
        neural.from_dict(doc)
    assert str(refused.value) == f"config must be an object, got {value!r}"


def test_loss_history_csv(tmp_path):
    history = neural.LossHistory(train=[0.7, 0.6], validation=[0.71, 0.62])
    path = tmp_path / "hist.csv"
    metrics.write_history_csv(path, {"train_loss": history.train,
                                     "val_loss": history.validation})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert lines[1].startswith("1,0.7,") and len(lines) == 3
    assert path.read_bytes() == b"epoch,train_loss,val_loss\r\n1,0.7,0.71\r\n2,0.6,0.62\r\n"
