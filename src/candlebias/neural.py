"""Feedforward binary classifier (the paper's is 5-128-64-1) trained with Adam.

Hidden layers use the rectifier max(0, z); the single output unit is a
sigmoid. All arithmetic is double precision so the finite-difference
gradient checks in the test suite are meaningful. Training is deterministic
given the init seed, the shuffle seed and the data.

Scoring computes one layer at a time, in place, and keeps no pre-activations;
backward gates each hidden delta on its activation (max(0, z) > 0 iff z > 0).
forward scores its rows in blocks that start at multiples of _SCORE_ROWS, the
remainder joining the last block, so a block holds _SCORE_ROWS to
2 * _SCORE_ROWS - 1 rows (a shorter call is one block) and scoring memory does
not grow with the rows. BLAS can give a row other bits in a very small call, or
among the last few rows of a call, than inside a longer one; blocks this large,
whose inner edges fall on multiples of _SCORE_ROWS and whose last one ends where
the call ends, give every row the bits of one pass over all of the call's rows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dataset import N_FEATURES
from .errors import TrainingDivergedError, json_number
from .logistic import bce_loss, sigmoid

LEARNING_RATE, BETA1, BETA2, EPSILON = 0.001, 0.9, 0.999, 1e-8  # Adam's defaults
_SCORE_ROWS = 1024  # rows per forward block; never smaller, or the bits can change


@dataclass
class NetworkModel:
    """Per-layer weight matrices (out x in) and bias vectors."""

    layer_dims: tuple
    weights: list
    biases: list
    seed: int


@dataclass
class AdamState:
    """First/second moment estimates, one array per parameter."""

    m: list
    v: list
    step_count: int = 0


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    validation_fraction: float
    shuffle_seed: int

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be an object, got {d!r}")
        return cls(*(json_number(d[f.name], f"config {f.name}", integer=f.type == "int")
                     for f in fields(cls)))


@dataclass
class LossHistory:
    train: list = field(default_factory=list)
    validation: list = field(default_factory=list)


def init_network(seed: int, layer_dims) -> NetworkModel:
    """Seeded init: weights uniform in +-sqrt(6 / (fan_in + fan_out)), biases zero."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims, layer_dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return NetworkModel(layer_dims=tuple(layer_dims), weights=weights, biases=biases, seed=seed)


def _activations(model: NetworkModel, X: np.ndarray):
    """Yield the rows, then each layer's activations, each computed in place."""
    a = np.atleast_2d(np.asarray(X, dtype=float))
    yield a
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W.T
        z += b
        a = sigmoid(z) if i == last else np.maximum(0.0, z, out=z)
        yield a


def forward(model: NetworkModel, X: np.ndarray) -> np.ndarray:
    """Probabilities for a batch of rows, scored in blocks of _SCORE_ROWS to
    2 * _SCORE_ROWS - 1 rows, holding two consecutive layers of one block at most."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = np.empty(len(X))
    starts = range(0, max(len(X) // _SCORE_ROWS, 1) * _SCORE_ROWS, _SCORE_ROWS)
    stops = [*starts[1:], len(X)]
    for start, stop in zip(starts, stops):
        for a in _activations(model, X[start:stop]):
            pass
        p[start:stop] = a[:, 0]
    return p


def backward(model: NetworkModel, X: np.ndarray, y: np.ndarray):
    """Gradients of :func:`bce_loss` on rows X and labels y w.r.t. every weight and bias.

    The sigmoid-output/cross-entropy pairing collapses the output delta to
    (p - y) / batch. Raises if X and y differ in length.
    """
    y = np.asarray(y, dtype=float)
    activations = list(_activations(model, X))
    batch = len(y)
    if activations[0].shape[0] != batch:
        raise ValueError(f"{activations[0].shape[0]} rows but {batch} labels")

    delta = ((activations[-1][:, 0] - y) / batch)[:, None]
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = delta.T @ activations[layer]
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (activations[layer] > 0.0)
    return grads_w, grads_b


def adam_step(params: list, grads: list, state: AdamState) -> list:
    """One bias-corrected Adam update of each float array of params, and of its moments
    in state, in place; returns params. Each product, sum and quotient of the textbook
    update is taken in its order, so the update in place keeps its bits."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        step = np.divide(m, c1)        # m_hat
        step *= LEARNING_RATE
        root = np.divide(v, c2)        # v_hat
        np.sqrt(root, out=root)
        root += EPSILON
        step /= root
        p -= step
    return params


def _check_layer_dims(layer_dims, n_inputs: int) -> None:
    if (len(layer_dims) < 2 or layer_dims[0] != n_inputs or layer_dims[-1] != 1
            or any(type(width) is not int or width < 1 for width in layer_dims)):
        raise ValueError(f"layer_dims must run from {n_inputs} inputs to 1 output, "
                         f"every width an integer of at least 1, got {list(layer_dims)}")


def _views(flat: np.ndarray, arrays: list) -> list:
    """Views of flat shaped as arrays, which it holds raveled one after another."""
    parts = np.split(flat, np.cumsum([array.size for array in arrays])[:-1])
    return [part.reshape(array.shape) for part, array in zip(parts, arrays)]


def train_network(X: np.ndarray, y: np.ndarray, config: TrainConfig, seed: int, layer_dims):
    """Train on seeded-shuffled mini-batches; returns (model, per-epoch losses).

    The chronologically last validation_fraction of the rows is held out for
    monitoring and never trains. Batches are re-shuffled each epoch from one
    seeded generator; the final short batch is used, not dropped. Epoch losses
    are full-pass evaluations after the epoch's updates. The weights and biases
    are views of one flat buffer, each batch's gradients are copied into
    another, and adam_step updates the whole buffer in place.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if config.batch_size < 1 or config.epochs < 0:
        raise ValueError(f"batch_size must be at least 1 and epochs non-negative, got "
                         f"batch_size={config.batch_size}, epochs={config.epochs}")
    if n <= config.batch_size:
        raise ValueError(f"need more than batch_size={config.batch_size} rows, got {n}")
    if not (0.0 <= config.validation_fraction < 1.0):
        raise ValueError("validation_fraction must be in [0, 1)")
    _check_layer_dims(layer_dims, X.shape[1])

    n_val = int(n * config.validation_fraction)
    n_fit = n - n_val
    X_fit, y_fit = X[:n_fit], y[:n_fit]
    X_val, y_val = X[n_fit:], y[n_fit:]

    model = init_network(seed, layer_dims)
    arrays, n_w = model.weights + model.biases, len(model.weights)
    params = np.concatenate([array.ravel() for array in arrays])
    grads = np.empty_like(params)
    views, grad_views = _views(params, arrays), _views(grads, arrays)
    model.weights, model.biases = views[:n_w], views[n_w:]
    state = AdamState(m=[np.zeros_like(params)], v=[np.zeros_like(params)])
    shuffle_rng = np.random.default_rng(config.shuffle_seed)

    history = LossHistory()
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n_fit)
        for start in range(0, n_fit, config.batch_size):
            batch = order[start:start + config.batch_size]
            grads_w, grads_b = backward(model, X_fit[batch], y_fit[batch])
            for view, grad in zip(grad_views, grads_w + grads_b):
                view[...] = grad
            adam_step([params], [grads], state)

        train_loss = bce_loss(forward(model, X_fit), y_fit)
        val_loss = bce_loss(forward(model, X_val), y_val) if n_val > 0 else math.nan
        if not math.isfinite(train_loss):
            raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
        history.train.append(train_loss)
        history.validation.append(val_loss)
    return model, history


def to_dict(model: NetworkModel, config: TrainConfig | None = None) -> dict:
    return {
        "layer_dims": list(model.layer_dims),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "seed": model.seed,
        "config": asdict(config) if config else None,
    }


def from_dict(d: dict):
    dims = tuple(d["layer_dims"])
    _check_layer_dims(dims, N_FEATURES)
    if not len(d["weights"]) == len(d["biases"]) == len(dims) - 1:
        raise ValueError(f"layer_dims {list(dims)} need {len(dims) - 1} weight matrices and "
                         f"bias vectors, got {len(d['weights'])} and {len(d['biases'])}")
    weights = [json_number(w, f"layer {k} weights", shape)
               for k, (w, shape) in enumerate(zip(d["weights"], zip(dims[1:], dims)), 1)]
    biases = [json_number(b, f"layer {k} biases", (n,))
              for k, (b, n) in enumerate(zip(d["biases"], dims[1:]), 1)]
    model = NetworkModel(layer_dims=dims, weights=weights, biases=biases,
                         seed=json_number(d["seed"], "seed", integer=True))
    config = None if d.get("config") is None else TrainConfig.from_dict(d["config"])
    return model, config
