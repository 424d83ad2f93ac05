import math

import numpy as np
import pytest

from candlebias import logistic
from candlebias.errors import TrainingDivergedError

from conftest import cli_labels

# Hand-chosen 4-sample fixture; expected values computed once with mpmath at
# 50 decimal digits from the textbook formulas and frozen here.
FIXTURE_X5 = np.array([
    [0.5, -1.0, 0.25, 2.0, -0.5],
    [1.0, 0.0, -1.0, 0.5, 2.0],
    [-2.0, 1.0, 0.5, -0.25, 1.0],
    [0.0, 2.0, -0.5, 1.0, -1.0],
])
FIXTURE_THETA = np.array([0.1, -0.2, 0.3, 0.05, -0.4, 0.25])
FIXTURE_Y = np.array([1, 0, 1, 0])
FIXTURE_COST = 0.80467760842375033828
FIXTURE_PROBS = np.array([
    0.22925900370053997533,
    0.53742984534374954945,
    0.76404759979746601938,
    0.50624967449951043213,
])


def _with_intercept(X):
    return np.hstack([np.ones((X.shape[0], 1)), X])


# ---------------------------------------------------------------------------
# sigmoid

def test_sigmoid_at_zero():
    assert logistic.sigmoid(0.0) == 0.5


@pytest.mark.parametrize("z", [0.5, 3.0, 20.0])
def test_sigmoid_symmetry(z):
    assert abs(logistic.sigmoid(-z) - (1.0 - logistic.sigmoid(z))) < 1e-12


@pytest.mark.parametrize("z", [710.0, -710.0, 1e3, -1e3])
def test_sigmoid_extreme_inputs_stay_inside_unit_interval(z):
    p = logistic.sigmoid(z)
    assert 0.0 < p < 1.0


def test_sigmoid_vectorized():
    z = np.array([-2.0, 0.0, 2.0])
    p = logistic.sigmoid(z)
    assert p.shape == (3,)
    assert p[0] < 0.5 == p[1] < p[2]


# ---------------------------------------------------------------------------
# cost_and_gradient: the cost

def test_cost_at_zero_theta_is_ln2():
    rng = np.random.default_rng(0)
    for _ in range(5):
        X = _with_intercept(rng.normal(size=(12, 5)))
        y = rng.integers(0, 2, size=12)
        assert abs(logistic.cost_and_gradient(X, y, np.zeros(6))[0] - math.log(2.0)) < 1e-12


def test_cost_confident_correct_predictions_near_zero():
    X = _with_intercept(np.array([[-1.0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0]]))
    y = np.array([0, 1])
    theta = np.array([0.0, 100.0, 0, 0, 0, 0])
    assert logistic.cost_and_gradient(X, y, theta)[0] < 1e-6


def test_cost_matches_high_precision_fixture():
    X = _with_intercept(FIXTURE_X5)
    cost = logistic.cost_and_gradient(X, FIXTURE_Y, FIXTURE_THETA)[0]
    assert abs(cost - FIXTURE_COST) < 1e-14


def test_cost_shape_mismatch():
    with pytest.raises(ValueError):
        logistic.cost_and_gradient(np.ones((3, 5)), np.array([0, 1, 0]), np.zeros(6))


def test_cost_is_non_negative():
    rng = np.random.default_rng(4)
    for _ in range(20):
        X = _with_intercept(rng.normal(size=(8, 5)))
        y = rng.integers(0, 2, size=8)
        theta = rng.normal(scale=3.0, size=6)
        assert logistic.cost_and_gradient(X, y, theta)[0] >= 0.0


# ---------------------------------------------------------------------------
# cost_and_gradient: the gradient vs finite differences

def _fd_gradient(X, y, theta, h=1e-6):
    g = np.empty_like(theta)
    for j in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        g[j] = (logistic.cost_and_gradient(X, y, up)[0]
                - logistic.cost_and_gradient(X, y, down)[0]) / (2 * h)
    return g


def test_gradient_matches_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = _with_intercept(rng.normal(size=(12, 5)))
        y = rng.integers(0, 2, size=12)
        theta = rng.normal(size=6)
        analytic = logistic.cost_and_gradient(X, y, theta)[1]
        fd = _fd_gradient(X, y, theta)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic),
                                                  np.linalg.norm(fd))
        assert rel < 1e-6


# ---------------------------------------------------------------------------
# train

def _oracle_two_point(alpha, epochs):
    # scalar gradient descent on x=-1 -> 0, x=+1 -> 1 with an intercept
    t0 = t1 = 0.0
    for _ in range(epochs):
        p_neg = 1.0 / (1.0 + math.exp(-(t0 - t1)))
        p_pos = 1.0 / (1.0 + math.exp(-(t0 + t1)))
        g0 = ((p_neg - 0.0) + (p_pos - 1.0)) / 2.0
        g1 = ((p_neg - 0.0) * -1.0 + (p_pos - 1.0) * 1.0) / 2.0
        t0, t1 = t0 - alpha * g0, t1 - alpha * g1
    return t0, t1


def test_train_two_point_separable_matches_oracle():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = logistic.train(X, y, alpha=0.01, epochs=1000)
    t0, t1 = _oracle_two_point(0.01, 1000)
    assert abs(model.theta[0] - t0) < 1e-12
    assert abs(model.theta[1] - t1) < 1e-12
    assert model.theta[1] > 0.0
    assert (logistic.predict_proba(model, X) >= 0.5).tolist() == [False, True]


def test_train_all_positive_labels_grows_intercept():
    X = np.zeros((6, 1))
    y = np.ones(6)
    intercepts = [logistic.train(X, y, epochs=k).theta[0] for k in range(1, 8)]
    assert all(b > a for a, b in zip(intercepts, intercepts[1:]))
    assert intercepts[0] > 0.0
    model = logistic.train(X, y, epochs=50)
    assert np.all(logistic.predict_proba(model, X) > 0.5)


def test_train_zero_epochs():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = logistic.train(X, y, epochs=0)
    assert np.array_equal(model.theta, np.zeros(2))
    assert model.cost_history.size == 0
    # p is exactly 0.5 everywhere and the tie maps to class 1
    assert cli_labels(logistic.predict_proba, model, X).tolist() == [1, 1]


@pytest.mark.parametrize("alpha", [0.0, -0.5, math.nan, math.inf])
def test_train_rejects_alpha_not_positive_and_finite(alpha):
    # zero epochs never reach the divergence check, so only this check stops
    # a NaN alpha from being written into the model file
    with pytest.raises(ValueError, match="alpha"):
        logistic.train(np.array([[-1.0], [1.0]]), np.array([0, 1]), alpha=alpha, epochs=0)


def test_train_cost_history_properties():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(64, 5))
    y = (X[:, 0] + 0.3 * rng.normal(size=64) > 0).astype(int)
    model = logistic.train(X, y, alpha=0.01, epochs=200)
    assert model.cost_history.shape == (200,)
    assert np.all(np.isfinite(model.cost_history))
    # convex loss with a small step on standardized-scale data: non-increasing
    diffs = np.diff(model.cost_history)
    assert np.all(diffs <= 1e-12)


def test_train_is_deterministic():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(32, 5))
    y = rng.integers(0, 2, size=32)
    a = logistic.train(X, y, epochs=100)
    b = logistic.train(X, y, epochs=100)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.cost_history, b.cost_history)


def test_train_divergence_raises():
    X = np.array([[np.inf], [1.0]])
    y = np.array([0, 1])
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError):
        logistic.train(X, y, epochs=5)


# ---------------------------------------------------------------------------
# predict

def test_predict_proba_zero_theta_gives_half():
    model = logistic.LogisticModel(np.zeros(6), np.array([]), 0.01, 0)
    p = logistic.predict_proba(model, FIXTURE_X5)
    assert np.all(p == 0.5)


def test_predict_proba_matches_high_precision_fixture():
    model = logistic.LogisticModel(FIXTURE_THETA, np.array([]), 0.01, 0)
    p = logistic.predict_proba(model, FIXTURE_X5)
    assert np.all(np.abs(p - FIXTURE_PROBS) < 1e-14)


def test_predict_proba_monotone_in_positive_weight_feature():
    theta = np.array([0.0, 1.0, 0, 0, 0, 0])
    model = logistic.LogisticModel(theta, np.array([]), 0.01, 0)
    X = np.zeros((3, 5))
    X[:, 0] = [-1.0, 0.0, 1.0]
    p = logistic.predict_proba(model, X)
    assert p[0] < p[1] < p[2]


def test_predict_threshold_rule():
    model = logistic.LogisticModel(np.zeros(6), np.array([]), 0.01, 0)
    assert cli_labels(logistic.predict_proba, model, np.zeros((1, 5))).tolist() == [1]  # p = 0.5
    model_neg = logistic.LogisticModel(
        np.array([-0.001, 0, 0, 0, 0, 0]), np.array([]), 0.01, 0)
    assert cli_labels(logistic.predict_proba, model_neg, np.zeros((1, 5))).tolist() == [0]


def test_predict_depends_only_on_score_sign():
    rng = np.random.default_rng(17)
    theta = rng.normal(size=6)
    model = logistic.LogisticModel(theta, np.array([]), 0.01, 0)
    X = rng.normal(size=(50, 5))
    score = theta[0] + X @ theta[1:]
    assert np.array_equal(cli_labels(logistic.predict_proba, model, X), (score >= 0).astype(int))


# ---------------------------------------------------------------------------
# serialization

def test_model_json_round_trip():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 5))
    y = rng.integers(0, 2, size=20)
    model = logistic.train(X, y, epochs=25)
    doc = logistic.to_dict(model)
    assert list(doc) == ["theta", "alpha", "epochs", "cost_history"]
    back = logistic.from_dict(doc)
    assert np.array_equal(back.theta, model.theta)
    assert np.array_equal(back.cost_history, model.cost_history)
    assert back.alpha == model.alpha and back.epochs == model.epochs
