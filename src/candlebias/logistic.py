"""Logistic regression trained by full-batch gradient descent on cross-entropy.

Training is deterministic: the weight vector starts at zero (so the first
cost evaluation of any run sits at ln 2) and there is no randomness anywhere
in this module. Inputs are expected standardized; raw yen-scale prices would
saturate the sigmoid at learning rate 0.01.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import N_FEATURES
from .errors import TrainingDivergedError

DEFAULT_ALPHA = 0.01
DEFAULT_EPOCHS = 1000
LOG_EPS = 1e-15

_P_LO = np.finfo(float).tiny
_P_HI = 1.0 - np.finfo(float).eps


@dataclass
class LogisticModel:
    """Weight vector (intercept first), training cost trace and hyperparameters."""

    theta: np.ndarray
    cost_history: np.ndarray
    alpha: float
    epochs: int


def sigmoid(z):
    """Elementwise 1 / (1 + exp(-z)), overflow-safe, clamped inside (0, 1)."""
    z_arr = np.asarray(z, dtype=float)
    t = np.exp(-np.abs(z_arr))
    out = np.where(z_arr >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))
    out = np.clip(out, _P_LO, _P_HI)
    return float(out) if np.ndim(z) == 0 else out


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Mean of -[y ln p + (1-y) ln(1-p)] with p clamped away from 0 and 1 by 1e-15."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: p {p.shape} vs y {y.shape}")
    p = np.clip(p, LOG_EPS, 1.0 - LOG_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def cost_and_gradient(X: np.ndarray, y: np.ndarray, theta: np.ndarray):
    """(cost, gradient) at theta: the mean binary cross-entropy of
    p = sigmoid(X @ theta) against y, and its gradient (1/N) X^T (p - y).

    X must already carry the intercept column.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if X.shape != (len(y), len(theta)):
        raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}, theta {theta.shape}")
    p = sigmoid(X @ theta)
    return bce_loss(p, y), X.T @ (p - y) / len(y)


def _with_intercept(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return np.hstack([np.ones((X.shape[0], 1)), X])


def train(X: np.ndarray, y: np.ndarray,
          alpha: float = DEFAULT_ALPHA, epochs: int = DEFAULT_EPOCHS) -> LogisticModel:
    """Fit by full-batch gradient descent from theta = 0.

    One update per epoch: theta <- theta - alpha * (1/N) X^T (sigmoid(X theta) - y),
    with a constant-1 intercept column prepended to X. The cost after each
    update is recorded.
    """
    if not 0.0 < alpha < np.inf or epochs < 0:
        raise ValueError(f"alpha must be positive and finite and epochs non-negative, "
                         f"got alpha={alpha}, epochs={epochs}")
    Xb = _with_intercept(X)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n == 0 or Xb.shape[0] != n:
        raise ValueError("X and y must be non-empty and the same length")

    theta = np.zeros(Xb.shape[1])
    costs = np.empty(epochs)
    _, grad = cost_and_gradient(Xb, y, theta)
    for k in range(epochs):
        theta = theta - alpha * grad
        cost, grad = cost_and_gradient(Xb, y, theta)
        if not np.isfinite(cost):
            raise TrainingDivergedError(
                f"non-finite cost {cost} after epoch {k} (alpha={alpha}); "
                "check that inputs are standardized"
            )
        costs[k] = cost
    return LogisticModel(theta=theta, cost_history=costs, alpha=alpha, epochs=epochs)


def predict_proba(model: LogisticModel, X: np.ndarray) -> np.ndarray:
    """Probability of class 1 for each row of (unaugmented) features."""
    X = np.asarray(X, dtype=float)
    return sigmoid(model.theta[0] + X @ model.theta[1:])


def to_dict(model: LogisticModel) -> dict:
    return {
        "theta": model.theta.tolist(),
        "alpha": model.alpha,
        "epochs": model.epochs,
        "cost_history": model.cost_history.tolist(),
    }


def from_dict(d: dict) -> LogisticModel:
    theta = np.asarray(d["theta"], dtype=float)
    if theta.shape != (N_FEATURES + 1,):
        raise ValueError(f"theta needs {N_FEATURES + 1} entries (bias first), "
                         f"got shape {theta.shape}")
    return LogisticModel(
        theta=theta,
        cost_history=np.asarray(d["cost_history"], dtype=float),
        alpha=float(d["alpha"]),
        epochs=int(d["epochs"]),
    )
