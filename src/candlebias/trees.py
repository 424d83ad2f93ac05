"""Entropy decision tree and seeded bootstrap random forest with OOB error.

Trees consume raw (unstandardized) features; axis-aligned thresholds are
scale-equivariant. All randomness flows through :func:`candlebias.seeding.mix64`,
and tree t of a forest depends only on (master seed, t).

A tree is one :class:`Tree` of parallel node arrays, which fitting grows and
prediction reads; only a model file nests it (node_to_dict, node_from_dict).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import N_FEATURES
from .seeding import mix64

DEFAULT_N_ESTIMATORS = 250
_FEATURE_STREAM = 1  # stream index for per-node feature sampling, vs 0 for bootstrap


@dataclass
class TreeParams:
    max_depth: int = 100
    min_samples_split: int = 100
    max_features: int = 5

    def validate(self, n_features: int) -> None:
        if self.max_depth < 1 or self.min_samples_split < 1:
            raise ValueError("max_depth and min_samples_split must be positive")
        if not (1 <= self.max_features <= n_features):
            raise ValueError(f"max_features must be in 1..{n_features}")

    def as_dict(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "max_features": self.max_features,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TreeParams":
        return cls(int(d["max_depth"]), int(d["min_samples_split"]), int(d["max_features"]))


class Tree(NamedTuple):
    """Parallel node arrays in preorder; node 0 is the root.

    A split sends rows with x[feature] <= threshold to node left, others to
    node right. A leaf has feature, left and right -1 and holds p_up, the
    fraction of class 1 among its n training rows; splits hold p_up 0, n 0.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    p_up: np.ndarray
    n: np.ndarray


def _tree(nodes: list) -> Tree:
    """Tree from preorder rows [feature, threshold, left, right, p_up, n]."""
    feature, threshold, left, right, p_up, n = zip(*nodes)
    return Tree(np.array(feature, dtype=np.intp), np.array(threshold, dtype=float),
                np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                np.array(p_up, dtype=float), np.array(n, dtype=np.intp))


@dataclass
class ForestModel:
    trees: list
    params: TreeParams
    n_estimators: int
    seed: int
    oob_error: float | None = None


def _entropy(positives, n):
    """Elementwise entropy in bits of `positives` ones among `n`; 0 log 0 is 0.

    impurity (hence the test oracle) and best_split share it, so they agree on
    every logarithm; exact divisions make H(k, n) == H(n - k, n).
    """
    p = np.divide(positives, n)
    q = np.divide(np.subtract(n, positives), n)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - q * np.log2(q)
    return np.where((p > 0.0) & (q > 0.0), h, 0.0)


def impurity(labels) -> float:
    """Entropy of a binary label multiset in bits; 0 log 0 counts as 0."""
    y = np.asarray(labels)
    if y.size == 0:
        raise ValueError("impurity of an empty label set is undefined")
    return float(_entropy(int(y.sum()), y.size))


def best_split(X: np.ndarray, y: np.ndarray, candidate_features=None):
    """Greedy search over midpoints between consecutive distinct feature values.

    Returns (feature_index, threshold, information_gain) for the gain-maximizing
    split, or None when no candidate has strictly positive gain. Ties break to
    the lowest feature index, then the lowest threshold; candidate features are
    scanned in ascending index order regardless of the order supplied. One
    array pass: sorted columns, running label sums, no gain between equal values.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    n = len(y)
    if n < 2:
        return None
    feats = (np.arange(X.shape[1]) if candidate_features is None
             else np.sort(np.asarray(candidate_features, dtype=np.intp)))

    cols = X[:, feats].T                                  # (features, rows)
    order = np.argsort(cols, axis=1, kind="stable")
    xs = np.take_along_axis(cols, order, axis=1)
    pos_l = np.cumsum(y[order], axis=1)[:, :-1]           # positives left of cut i
    n_l = np.arange(1, n)
    n_r = n - n_l
    pos_total = int(y.sum())
    gain = (_entropy(pos_total, n)
            - (n_l / n) * _entropy(pos_l, n_l)
            - (n_r / n) * _entropy(pos_total - pos_l, n_r))
    gain[xs[:, :-1] == xs[:, 1:]] = 0.0
    k, i = np.unravel_index(np.argmax(gain), gain.shape)  # first max, row-major
    if gain[k, i] <= 0.0:
        return None
    return int(feats[k]), float((xs[k, i] + xs[k, i + 1]) / 2.0), float(gain[k, i])


def fit_tree(X: np.ndarray, y: np.ndarray, params: TreeParams | None = None,
             feature_sampler: np.random.Generator | None = None) -> Tree:
    """Grow a tree greedily; rows with x[feature] <= threshold go left.

    A node becomes a leaf when it is pure, the depth cap is hit, it holds
    fewer than min_samples_split rows, or no split has positive gain. When a
    feature_sampler is given, each node draws max_features candidate features
    without replacement before the split search.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    params = params or TreeParams()
    params.validate(X.shape[1])
    nodes = []

    def grow(X, y, depth) -> int:
        n = len(y)
        pos = int(y.sum())
        i = len(nodes)
        nodes.append([-1, 0.0, -1, -1, pos / n, n])        # a leaf unless it splits
        if pos == 0 or pos == n or depth >= params.max_depth or n < params.min_samples_split:
            return i
        candidates = None if feature_sampler is None else feature_sampler.choice(
            X.shape[1], size=params.max_features, replace=False)
        split = best_split(X, y, candidates)
        if split is None:
            return i
        f, threshold, _ = split
        mask = X[:, f] <= threshold
        nodes[i] = [f, threshold, grow(X[mask], y[mask], depth + 1),
                    grow(X[~mask], y[~mask], depth + 1), 0.0, 0]
        return i

    grow(X, y, 0)
    return _tree(nodes)


def predict_tree(tree: Tree, x) -> float:
    """Leaf probability of class 1 for one feature row; ties descend left.

    The per-row reference that the tests hold :func:`tree_predict_proba` to.
    """
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return float(tree.p_up[i])


def tree_predict_proba(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf probability of class 1 per row; all rows descend one level per step."""
    X = np.asarray(X, dtype=float)
    feature, threshold, left, right, p_up, _ = tree
    node = np.zeros(len(X), dtype=np.intp)
    rows = np.flatnonzero(feature[node] >= 0)
    while rows.size:
        at = node[rows]
        goes_left = X[rows, feature[at]] <= threshold[at]
        node[rows] = np.where(goes_left, left[at], right[at])
        rows = rows[feature[node[rows]] >= 0]
    return p_up[node]


def tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    return (tree_predict_proba(tree, X) >= 0.5).astype(np.int64)


def bootstrap_sample(n: int, seed: int) -> np.ndarray:
    """n uniform draws with replacement from [0, n), deterministic per seed."""
    if n < 1:
        raise ValueError("bootstrap_sample needs n >= 1")
    return np.random.default_rng(seed).integers(0, n, size=n)


def fit_forest(X: np.ndarray, y: np.ndarray,
               n_estimators: int = DEFAULT_N_ESTIMATORS,
               params: TreeParams | None = None,
               seed: int = 0,
               bootstrap_fn=bootstrap_sample) -> ForestModel:
    """Train n_estimators trees on bootstrap samples and record the OOB error.

    Tree t draws its bootstrap from mix64(seed, t) and its per-node feature
    sampler from mix64(mix64(seed, t), 1), so tree t depends only on
    (seed, t): the first k trees of a larger forest equal a k-tree forest.
    ``bootstrap_fn(n, seed)`` is injectable for tests (e.g. an identity
    bootstrap).

    The OOB error is the misclassification rate of rows under the trees whose
    bootstrap excludes them: each row is scored by the mean of those trees'
    leaf probabilities, summed in tree order (ties classify as 1), and rows
    in every bootstrap are left out of the denominator. It is None, with a
    warning, when no row is out of bag.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    params = params or TreeParams()
    params.validate(X.shape[1])
    if n_estimators < 1:
        raise ValueError("n_estimators must be positive")
    n = len(y)
    if n < 2:
        raise ValueError("forest training needs at least 2 rows")
    forest = ForestModel(trees=[], params=params, n_estimators=n_estimators, seed=seed)
    prob_sum = np.zeros(n)
    tree_count = np.zeros(n, dtype=np.int64)
    for t in range(n_estimators):
        tree_seed = mix64(seed, t)
        idx = np.asarray(bootstrap_fn(n, tree_seed))
        sampler = np.random.default_rng(mix64(tree_seed, _FEATURE_STREAM))
        tree = fit_tree(X[idx], y[idx], params, feature_sampler=sampler)
        forest.trees.append(tree)
        oob = np.ones(n, dtype=bool)
        oob[idx] = False
        prob_sum[oob] += tree_predict_proba(tree, X[oob])
        tree_count[oob] += 1

    covered = tree_count > 0
    if covered.any():
        pred = (prob_sum[covered] / tree_count[covered] >= 0.5).astype(np.int64)
        forest.oob_error = float(np.mean(pred != y[covered]))
    else:
        warnings.warn("OOB error undefined: every sample appears in every bootstrap")
    return forest


def predict_forest(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Class 1 when the mean leaf probability over trees is at least 0.5."""
    X = np.asarray(X, dtype=float)
    total = np.zeros(len(X))      # summed in tree order, the order np.mean's sum takes
    for tree in forest.trees:
        total += tree_predict_proba(tree, X)
    return (total / len(forest.trees) >= 0.5).astype(np.int64)


def node_to_dict(tree: Tree) -> dict:
    """The nested JSON form of a tree: {feature, threshold, left, right} or {p_up, n}."""
    feature, threshold, left, right, p_up, n = (column.tolist() for column in tree)

    def node(i):
        if feature[i] < 0:
            return {"p_up": p_up[i], "n": n[i]}
        return {"feature": feature[i], "threshold": threshold[i],
                "left": node(left[i]), "right": node(right[i])}

    return node(0)


def node_from_dict(d: dict) -> Tree:
    """A tree from its nested JSON form; split features must be ints in range."""
    nodes = []

    def add(d) -> int:
        i = len(nodes)
        nodes.append(None)
        if "p_up" in d:
            nodes[i] = [-1, 0.0, -1, -1, float(d["p_up"]), int(d["n"])]
            return i
        feature = d["feature"]
        if type(feature) is not int or not 0 <= feature < N_FEATURES:
            raise ValueError(f"split feature must be an integer in 0..{N_FEATURES - 1}, "
                             f"got {feature!r}")
        nodes[i] = [feature, float(d["threshold"]), add(d["left"]), add(d["right"]), 0.0, 0]
        return i

    add(d)
    return _tree(nodes)


def forest_to_dict(forest: ForestModel) -> dict:
    return {
        "n_estimators": forest.n_estimators,
        "seed": forest.seed,
        "params": forest.params.as_dict(),
        "oob_error": forest.oob_error,
        "trees": [node_to_dict(tree) for tree in forest.trees],
    }


def forest_from_dict(d: dict) -> ForestModel:
    if not d["trees"]:
        raise ValueError("forest has no trees")
    return ForestModel(
        trees=[node_from_dict(t) for t in d["trees"]],
        params=TreeParams.from_dict(d["params"]),
        n_estimators=int(d["n_estimators"]),
        seed=int(d["seed"]),
        oob_error=None if d["oob_error"] is None else float(d["oob_error"]),
    )
