import collections
import dataclasses
import json
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlebias import cli, dataset, trees
from candlebias.errors import TrainingDivergedError
from candlebias.seeding import mix64
from candlebias.trees import (
    ForestModel,
    Tree,
    TreeParams,
    bootstrap_sample,
    fit_forest,
    fit_tree,
    forest_from_dict,
    forest_to_json,
    node_from_dict,
    node_to_dict,
    predict_forest,
    tree_predict_proba,
)

from conftest import (NODE_CACHE_FAULTS, separable_classification, synthetic_candles,
                      write_raw_csv)


def impurity(labels) -> float:
    """Entropy of a binary label multiset in bits; 0 log 0 counts as 0."""
    y = np.asarray(labels)
    if y.size == 0:
        raise ValueError("impurity of an empty label set is undefined")
    return float(trees._entropy(int(y.sum()), y.size))


def tree_of_rows(nodes) -> Tree:
    """The Tree of node rows [feature, threshold, left, right, p_up, n], unchecked."""
    return Tree(*(np.array(c, dtype) for c, dtype in zip(zip(*nodes), trees._TREE_DTYPES)))


def predict_tree(tree, x) -> float:
    """Leaf probability of class 1 for one feature row, one node at a time; ties
    descend left. The per-row reference that tree_predict_proba is held to."""
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return float(tree.p_up[i])


def tree_predict(tree, X):
    """Class 1 where the tree's leaf probability is at least 0.5, as the DT is scored."""
    return (tree_predict_proba(tree, X) >= 0.5).astype(np.int64)


def forest_to_dict(forest):
    """The nested JSON document of a forest, built whole: the reference that
    trees.forest_to_json, which encodes one tree at a time, must match byte for byte."""
    return {
        "n_estimators": forest.n_estimators,
        "seed": forest.seed,
        "params": dataclasses.asdict(forest.params),
        "oob_error": forest.oob_error,
        "trees": [node_to_dict(tree) for tree in forest.trees],
    }


def best_split(X, y, candidate_features=None):
    """The grower's split scorer, trees._best_cuts, on one segment of unit-count rows.

    Returns (feature_index, threshold, information_gain) for the gain-maximizing
    split over midpoints between consecutive distinct feature values, or None
    when no candidate has strictly positive gain. Ties break to the lowest
    feature index, then the lowest threshold; candidate features are scanned in
    ascending index order regardless of the order supplied.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if len(y) < 2:
        return None
    candidates = None
    if candidate_features is not None:
        candidates = np.zeros((X.shape[1], 1), dtype=bool)
        candidates[np.asarray(candidate_features, dtype=np.intp)] = True
    feature, threshold, gain = trees._best_cuts(
        X.T, np.arange(len(y)), np.ones(len(y), np.int32), y.astype(np.int32),
        np.argsort(X, axis=0, kind="stable").T, [len(y)], candidates)
    if gain[0] <= 0.0:
        return None
    return int(feature[0]), float(threshold[0]), float(gain[0])


def oracle_best_split(X, y, candidate_features=None):
    """Exhaustive search over every (feature, midpoint) pair, definition-first."""
    n = len(y)
    feats = range(X.shape[1]) if candidate_features is None else sorted(candidate_features)
    parent = impurity(y)
    best = None
    best_gain = 0.0
    for f in feats:
        values = np.unique(X[:, f])
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, f] <= thr
            yl, yr = y[mask], y[~mask]
            gain = parent - (len(yl) / n) * impurity(yl) - (len(yr) / n) * impurity(yr)
            if gain > best_gain:
                best_gain = gain
                best = (int(f), float(thr), gain)
    return best


def random_instance(seed, max_n=64):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    # round to few decimals so duplicate values and gain ties actually occur
    decimals = int(rng.integers(0, 3))
    X = np.round(rng.normal(size=(n, 5)), decimals)
    y = rng.integers(0, 2, size=n)
    return X, y


# ---------------------------------------------------------------------------
# impurity

def test_impurity_balanced_is_one():
    assert impurity([1, 1, 0, 0]) == 1.0


def test_impurity_pure_is_zero():
    assert impurity([1, 1, 1, 1]) == 0.0
    assert impurity([0]) == 0.0


def test_impurity_three_quarters():
    # -0.75 log2 0.75 - 0.25 log2 0.25, evaluated directly
    assert abs(impurity([1, 1, 1, 0]) - 0.8112781244591328) < 1e-6


def test_impurity_symmetry_and_bounds():
    for k in range(0, 11):
        labels = [1] * k + [0] * (10 - k)
        mirrored = [1] * (10 - k) + [0] * k
        assert impurity(labels) == impurity(mirrored)
        assert 0.0 <= impurity(labels) <= 1.0


def test_impurity_empty_errors():
    with pytest.raises(ValueError):
        impurity([])


# ---------------------------------------------------------------------------
# best_split

def test_best_split_simple_step():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    f, thr, gain = best_split(X, y)
    assert (f, thr, gain) == (0, 2.5, 1.0)


def test_best_split_no_gain_returns_none():
    X = np.array([[1.0], [2.0], [3.0]])
    assert best_split(X, np.array([1, 1, 1])) is None
    assert best_split(np.ones((4, 1)), np.array([0, 1, 0, 1])) is None
    assert best_split(np.array([[1.0, 2.0]]), np.array([1])) is None


def test_best_split_matches_exhaustive_oracle():
    for seed in range(200):
        X, y = random_instance(seed)
        got = best_split(X, y)
        expected = oracle_best_split(X, y)
        if expected is None:
            assert got is None
        else:
            assert got[:2] == expected[:2], f"seed {seed}: {got} vs {expected}"
            assert abs(got[2] - expected[2]) < 1e-12


def test_best_split_gain_bounds():
    for seed in range(50):
        X, y = random_instance(seed + 1000)
        result = best_split(X, y)
        if result is not None:
            gain = result[2]
            assert 0.0 < gain <= impurity(y)


def test_best_split_candidate_order_irrelevant():
    X, y = random_instance(3)
    assert best_split(X, y, [4, 2, 0]) == best_split(X, y, [0, 2, 4])


# ---------------------------------------------------------------------------
# fit_tree / predict_tree

def test_fit_tree_min_samples_makes_single_leaf():
    X = np.arange(10.0).reshape(-1, 1)
    y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    tree = fit_tree(X, y, TreeParams(max_depth=100, min_samples_split=11, max_features=1))
    assert tree.feature.tolist() == [-1]
    assert tree.p_up[0] == 0.5
    assert tree.n[0] == 10


def test_fit_tree_pure_labels_single_leaf():
    X = np.arange(6.0).reshape(-1, 1)
    tree = fit_tree(X, np.ones(6, dtype=int),
                    TreeParams(max_depth=100, min_samples_split=2, max_features=1))
    assert tree.feature.tolist() == [-1] and tree.p_up[0] == 1.0


def test_fit_tree_memorizes_consistent_data():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 65))
        X = rng.normal(size=(n, 5))  # continuous: duplicate rows have measure zero
        y = rng.integers(0, 2, size=n)
        tree = fit_tree(X, y, TreeParams(max_depth=100, min_samples_split=2, max_features=5))
        assert np.array_equal(tree_predict(tree, X), y)


def test_fit_tree_respects_max_depth():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 5))
    y = rng.integers(0, 2, size=200)
    tree = fit_tree(X, y, TreeParams(max_depth=2, min_samples_split=2, max_features=5))

    def depth(i):
        return 0 if tree.feature[i] < 0 else 1 + max(depth(tree.left[i]), depth(tree.right[i]))

    assert depth(0) <= 2


def test_predict_tree_single_leaf():
    leaf = node_from_dict({"p_up": 0.7, "n": 10})
    assert predict_tree(leaf, np.zeros(5)) == 0.7


def test_predict_tree_tie_goes_left():
    tree = node_from_dict({"feature": 0, "threshold": 1.5,
                           "left": {"p_up": 0.2, "n": 1}, "right": {"p_up": 0.9, "n": 1}})
    assert predict_tree(tree, np.array([1.5, 0, 0, 0, 0])) == 0.2


def test_predict_tree_depth_two_trace():
    # x0 <= 2 ? (x1 <= 10 ? 0.1 : 0.6) : 0.9, traced by hand
    tree = node_from_dict({
        "feature": 0, "threshold": 2.0,
        "left": {"feature": 1, "threshold": 10.0,
                 "left": {"p_up": 0.1, "n": 4},
                 "right": {"p_up": 0.6, "n": 3}},
        "right": {"p_up": 0.9, "n": 5},
    })
    assert tree.left.tolist() == [1, 3, -1, -1, -1]   # breadth first, node 0 the root
    assert predict_tree(tree, np.array([1.0, 12.0, 0, 0, 0])) == 0.6
    assert predict_tree(tree, np.array([1.0, 9.0, 0, 0, 0])) == 0.1
    assert predict_tree(tree, np.array([3.0, 0.0, 0, 0, 0])) == 0.9


def test_tree_predictions_invariant_under_monotone_transform():
    # cube the third feature column in both training and query data
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 2, size=40)
        X_t = X.copy()
        X_t[:, 2] = X_t[:, 2] ** 3
        params = TreeParams(max_depth=100, min_samples_split=2, max_features=5)
        base = fit_tree(X, y, params)
        transformed = fit_tree(X_t, y, params)
        assert np.array_equal(tree_predict_proba(base, X),
                              tree_predict_proba(transformed, X_t))


def _rows_with_ties(tree, X):
    """X plus, at every split, the rows that reach it with the split feature set
    to the threshold itself; the altered rows still reach that split."""
    out = [X]
    stack = [(0, X)]
    while stack:
        i, rows = stack.pop()
        f, threshold = tree.feature[i], tree.threshold[i]
        if f < 0 or len(rows) == 0:
            continue
        tie = rows.copy()
        tie[:, f] = threshold
        out.append(tie)
        goes_left = rows[:, f] <= threshold
        stack += [(tree.left[i], rows[goes_left]), (tree.right[i], rows[~goes_left])]
    return np.vstack(out)


def test_tree_predict_proba_matches_scalar_reference():
    X, y = separable_classification(150, seed=12)
    dt = fit_tree(X, y, TreeParams(100, 2, 5))
    forest = fit_forest(X, y, n_estimators=6, params=TreeParams(8, 4, 3), seed=5)
    for tree in [dt, *forest.trees]:
        Q = _rows_with_ties(tree, X)
        assert len(Q) > len(X)
        # a column-major copy, a strided view, one row and integer features:
        # prediction reads X.T and partitions index arrays
        for rows in (Q, np.asfortranarray(Q), Q[::3], Q[7:8], np.floor(Q).astype(np.int64)):
            got = tree_predict_proba(tree, rows)
            assert got.dtype == np.float64
            assert np.array_equal(got, [predict_tree(tree, x) for x in rows])

    # rows that all go left at a forest tree's root reach none of the right
    # subtree, so every partition under it is empty
    tree = forest.trees[0]
    assert tree.feature[0] >= 0
    Q = _rows_with_ties(tree, X)
    Q = Q[Q[:, tree.feature[0]] <= tree.threshold[0]]
    assert 0 < len(Q) < len(_rows_with_ties(tree, X))
    assert np.array_equal(tree_predict_proba(tree, Q), [predict_tree(tree, x) for x in Q])

    leaf = node_from_dict({"p_up": 0.7, "n": 10})
    assert np.array_equal(tree_predict_proba(leaf, X), [0.7] * len(X))
    empty = tree_predict_proba(dt, np.empty((0, 5)))
    assert empty.dtype == np.float64 and empty.shape == (0,)


def _random_tree(n_leaves, X, rng):
    """A tree of n_leaves leaves, made by splitting a random leaf n_leaves - 1 times.

    Each split takes a random feature and one of X's numbers in that column,
    or the float just below it, as its threshold, so rows tie with
    thresholds and a constant column sends every row one way; thresholds
    need not agree along a path. Leaves hold distinct probabilities.
    """
    root = {"p_up": 0.0, "n": 1}
    leaves = [root]
    for _ in range(n_leaves - 1):
        leaf = leaves.pop(int(rng.integers(len(leaves))))
        f = int(rng.integers(X.shape[1]))
        threshold = float(rng.choice(X[~np.isnan(X[:, f]), f]))
        if rng.random() < 0.5:
            threshold = float(np.nextafter(threshold, -np.inf))
        leaf.clear()
        leaf.update(feature=f, threshold=threshold, left={"p_up": 0.0, "n": 1},
                    right={"p_up": 0.0, "n": 1})
        leaves += [leaf["left"], leaf["right"]]
    for leaf in leaves:
        leaf["p_up"] = float(rng.random())
    tree = node_from_dict(root)
    assert np.count_nonzero(tree.feature < 0) == n_leaves
    return tree


def _scoring_rows(rng):
    """Rows with repeated values, a constant column and a NaN, which goes right."""
    X = np.round(rng.normal(size=(60, 5)), 1)
    X[:, 3] = 2.5
    X[7, 1] = np.nan
    return X


@pytest.mark.parametrize("batch_entries", [None, 100])
def test_scorer_equals_the_per_row_oracle_on_trees_either_side_of_one_word(
        batch_entries, monkeypatch):
    # trees of up to 64 leaves are scored by bitvectors, larger ones node by
    # node; with 100 (tree, row) pairs the bitvector trees go two at a time
    if batch_entries is not None:
        monkeypatch.setattr(trees, "_BATCH_ENTRIES", batch_entries)
    rng = np.random.default_rng(20)
    X = _scoring_rows(rng)
    forest = [_random_tree(n, X, rng) for n in (63, 64, 65, 1, 64, 2, 65, 63)]
    expected = [np.array([predict_tree(tree, x) for x in X]) for tree in forest]
    got = list(trees._tree_probas(forest, X))
    assert len(got) == len(forest)
    for g, e in zip(got, expected):
        assert g.dtype == np.float64 and np.array_equal(g, e)
    assert np.array_equal(sum(trees._tree_probas(forest, X)), sum(expected))  # tree order
    model = ForestModel(trees=forest, params=TreeParams(100, 100, 5), n_estimators=len(forest),
                        seed=0)
    assert np.array_equal(predict_forest(model, X),
                          (sum(expected) / len(forest) >= 0.5).astype(np.int64))
    for tree, e in zip(forest, expected):
        assert np.array_equal(tree_predict_proba(tree, X), e)


def test_scorer_sends_every_row_right_at_a_nan_threshold():
    # a model file cannot hold one, but a Tree made in code can
    tree = tree_of_rows([[0, np.nan, 1, 2, 0.0, 0], [-1, 0.0, -1, -1, 0.25, 1],
                         [-1, 0.0, -1, -1, 0.75, 1]])
    X = _scoring_rows(np.random.default_rng(22))
    assert np.array_equal(tree_predict_proba(tree, X), [0.75] * len(X))
    assert np.array_equal(tree_predict_proba(tree, X), [predict_tree(tree, x) for x in X])


def test_scorer_on_a_leaf_and_on_zero_and_one_rows():
    rng = np.random.default_rng(21)
    X = _scoring_rows(rng)
    leaf = node_from_dict({"p_up": 0.7, "n": 10})
    forest = [leaf, _random_tree(64, X, rng), _random_tree(65, X, rng)]
    assert np.array_equal(tree_predict_proba(leaf, X), [0.7] * len(X))
    for rows in (X[:0], X[7:8], X[20:21]):
        got = list(trees._tree_probas(forest, rows))
        for tree, g in zip(forest, got, strict=True):
            assert g.dtype == np.float64 and g.shape == (len(rows),)
            assert np.array_equal(g, [predict_tree(tree, x) for x in rows])


# ---------------------------------------------------------------------------
# bootstrap

def test_bootstrap_single_element():
    assert bootstrap_sample(1, seed=5).tolist() == [0]


def test_bootstrap_deterministic_per_seed():
    a = bootstrap_sample(100, seed=77)
    b = bootstrap_sample(100, seed=77)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, bootstrap_sample(100, seed=78))


def _bootstraps(n, seed, n_estimators):
    """The bootstrap rows of each tree of a forest fitted with ``seed``."""
    return [bootstrap_sample(n, mix64(seed, t)) for t in range(n_estimators)]


def test_bootstrap_distinct_fraction_near_632():
    idx = bootstrap_sample(10_000, seed=13)
    assert idx.shape == (10_000,)
    frac = len(np.unique(idx)) / 10_000
    assert 0.60 <= frac <= 0.67


# ---------------------------------------------------------------------------
# fit_forest

def test_forest_single_tree_identity_bootstrap_equals_plain_tree():
    identity = lambda n, seed: np.arange(n)
    params = TreeParams(max_depth=100, min_samples_split=2, max_features=5)
    for seed in range(50):
        rng = np.random.default_rng(seed + 500)
        n = int(rng.integers(8, 48))
        X = rng.normal(size=(n, 5))
        y = rng.integers(0, 2, size=n)
        with pytest.warns(UserWarning):  # empty OOB set
            forest = fit_forest(X, y, n_estimators=1, params=params, seed=seed,
                                bootstrap_fn=identity)
        tree = fit_tree(X, y, params)
        queries = rng.normal(size=(20, 5))
        assert np.array_equal(predict_forest(forest, queries), tree_predict(tree, queries))
        assert forest.oob_error is None


def test_forest_deterministic_for_seed():
    X, y = separable_classification(120, seed=1)
    params = TreeParams(max_depth=10, min_samples_split=5, max_features=3)
    a = fit_forest(X, y, n_estimators=12, params=params, seed=99)
    b = fit_forest(X, y, n_estimators=12, params=params, seed=99)
    assert json.dumps(forest_to_dict(a)) == json.dumps(forest_to_dict(b))
    # tree t grows on bootstrap_sample(n, mix64(seed, t)) with its own feature sampler
    for t, idx in enumerate(_bootstraps(120, 99, 12)):
        sampler = np.random.default_rng(mix64(mix64(99, t), 1))
        tree = fit_tree(X[idx], y[idx], params, feature_sampler=sampler)
        assert json.dumps(node_to_dict(tree)) == json.dumps(node_to_dict(a.trees[t]))


def test_forest_bootstrap_multisets_have_cardinality_n():
    assert all(len(idx) == 80 for idx in _bootstraps(80, seed=11, n_estimators=5))


# ---------------------------------------------------------------------------
# oob_error

def test_oob_undefined_when_every_sample_in_bag():
    X, y = separable_classification(30, seed=4)
    with pytest.warns(UserWarning, match="OOB"):
        forest = fit_forest(X, y, n_estimators=3, params=TreeParams(5, 2, 5),
                            seed=1, bootstrap_fn=lambda n, seed: np.arange(n))
    assert forest.oob_error is None


def test_oob_single_tree_misclassifying_whole_oob_set():
    # bootstrap sees only class-0 rows; its OOB complement is pure class 1
    X = np.zeros((10, 5))
    X[:, 0] = np.arange(10.0)
    y = np.array([0] * 5 + [1] * 5)
    only_zeros = lambda n, seed: np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
    forest = fit_forest(X, y, n_estimators=1, params=TreeParams(5, 2, 5),
                        seed=0, bootstrap_fn=only_zeros)
    assert forest.oob_error == 1.0


def test_oob_set_is_complement_of_bootstrap_support():
    for idx in _bootstraps(60, seed=21, n_estimators=4):
        support = set(idx.tolist())
        oob = set(range(60)) - support
        assert support | oob == set(range(60))
        assert support & oob == set()


def _oob_error_reference(forest, X, y, bootstraps):
    """A separate OOB pass after fitting: trees in order, one out-of-bag mask each."""
    prob_sum = np.zeros(len(y))
    tree_count = np.zeros(len(y), dtype=np.int64)
    for tree, idx in zip(forest.trees, bootstraps):
        oob = np.ones(len(y), dtype=bool)
        oob[idx] = False
        if oob.any():
            prob_sum[oob] += [predict_tree(tree, x) for x in X[oob]]
            tree_count[oob] += 1
    covered = tree_count > 0
    pred = (prob_sum[covered] / tree_count[covered] >= 0.5).astype(np.int64)
    return float(np.mean(pred != y[covered]))


def test_oob_error_equals_a_separate_pass_over_the_bootstraps():
    # the last forest's trees have more than 64 leaves and descend node by
    # node; the others' are scored by bitvectors
    leaves = []
    for n, n_estimators, params, seed, noise in ((60, 4, TreeParams(8, 4, 3), 21, 0.1),
                                                 (150, 8, TreeParams(8, 4, 5), 5, 0.1),
                                                 (300, 25, TreeParams(20, 10, 3), 3, 0.1),
                                                 (400, 6, TreeParams(100, 2, 3), 7, 0.5)):
        X, y = separable_classification(n, seed=seed, noise=noise)
        forest = fit_forest(X, y, n_estimators=n_estimators, params=params, seed=seed)
        assert forest.oob_error == _oob_error_reference(
            forest, X, y, _bootstraps(n, seed, n_estimators))
        leaves += [np.count_nonzero(tree.feature < 0) for tree in forest.trees]
    assert min(leaves) <= 64 < max(leaves)


def test_oob_error_close_to_held_out_validation_error():
    X, y = separable_classification(2000, seed=123)
    X_val, y_val = separable_classification(1000, seed=456)
    forest = fit_forest(X, y, n_estimators=50,
                        params=TreeParams(max_depth=100, min_samples_split=20,
                                          max_features=3),
                        seed=2024)
    val_error = float(np.mean(predict_forest(forest, X_val) != y_val))
    assert forest.oob_error is not None
    assert abs(forest.oob_error - val_error) < 0.10


# ---------------------------------------------------------------------------
# level-wise growth against a recursive reference

def _reference_best_split(X, y, candidate_features=None):
    """One node's split search: argsort its own columns, scan every cut."""
    n = len(y)
    if n < 2:
        return None
    feats = (np.arange(X.shape[1]) if candidate_features is None
             else np.sort(np.asarray(candidate_features, dtype=np.intp)))
    cols = X[:, feats].T
    order = np.argsort(cols, axis=1, kind="stable")
    xs = np.take_along_axis(cols, order, axis=1)
    pos_l = np.cumsum(y[order], axis=1)[:, :-1]
    n_l = np.arange(1, n)
    n_r = n - n_l
    pos_total = int(y.sum())
    gain = (trees._entropy(pos_total, n)
            - (n_l / n) * trees._entropy(pos_l, n_l)
            - (n_r / n) * trees._entropy(pos_total - pos_l, n_r))
    gain[xs[:, :-1] == xs[:, 1:]] = 0.0
    k, i = np.unravel_index(np.argmax(gain), gain.shape)  # first max, row-major
    if gain[k, i] <= 0.0:
        return None
    return int(feats[k]), float((xs[k, i] + xs[k, i + 1]) / 2.0), float(gain[k, i])


def _breadth_first(nodes):
    """The tree of node rows [feature, threshold, left, right, p_up, n], renumbered
    breadth first from node 0."""
    order = [0]
    for i in order:
        if nodes[i][0] >= 0:
            order += [nodes[i][2], nodes[i][3]]
    at = {i: k for k, i in enumerate(order)}
    return tree_of_rows([[f, t, at.get(l, -1), at.get(r, -1), p, n]
                         for f, t, l, r, p, n in (nodes[i] for i in order)])


def _reference_fit_tree(X, y, params, feature_sampler=None):
    """Recursive growth in preorder: each node copies its rows and draws its
    candidates; the nodes are then renumbered breadth first."""
    nodes = []

    def grow(X, y, depth):
        n = len(y)
        pos = int(y.sum())
        i = len(nodes)
        nodes.append([-1, 0.0, -1, -1, pos / n, n])
        if pos == 0 or pos == n or depth >= params.max_depth or n < params.min_samples_split:
            return i
        candidates = None if feature_sampler is None else feature_sampler.choice(
            X.shape[1], size=params.max_features, replace=False)
        split = _reference_best_split(X, y, candidates)
        if split is None:
            return i
        f, threshold, _ = split
        mask = X[:, f] <= threshold
        nodes[i] = [f, threshold, grow(X[mask], y[mask], depth + 1),
                    grow(X[~mask], y[~mask], depth + 1), 0.0, 0]
        return i

    grow(np.asarray(X, dtype=float), np.asarray(y), 0)
    return _breadth_first(nodes)


def _assert_same_tree(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert json.dumps(node_to_dict(got)) == json.dumps(node_to_dict(expected))


@pytest.mark.parametrize("n, decimals, n_estimators, params, seed", [
    (300, None, 12, TreeParams(100, 100, 5), 7),  # the paper's parameters
    (200, 1, 10, TreeParams(100, 2, 5), 8),       # min split 2; rounding ties values
    (250, 0, 10, TreeParams(3, 2, 5), 9),         # a small max_depth; few distinct values
    (400, 2, 8, TreeParams(12, 20, 5), 10),
])
def test_grower_equals_recursive_reference(n, decimals, n_estimators, params, seed):
    X, y = separable_classification(n, seed=seed)
    if decimals is not None:
        X = np.round(X, decimals)
    # repeated rows, some with the other label, are separate rows of a plain tree
    X = np.vstack([X, X[:30]])
    y = np.concatenate([y, y[:15], 1 - y[15:30]])
    _assert_same_tree(fit_tree(X, y, params), _reference_fit_tree(X, y, params))

    forest = fit_forest(X, y, n_estimators=n_estimators, params=params, seed=seed)
    for t, idx in enumerate(_bootstraps(len(y), seed, n_estimators)):
        sampler = np.random.default_rng(mix64(mix64(seed, t), 1))
        _assert_same_tree(forest.trees[t], _reference_fit_tree(X[idx], y[idx], params, sampler))


def _reference_breadth_first_fit(X, y, params, feature_sampler):
    """Growth from a first-in first-out queue, so nodes draw and are numbered
    in breadth-first order."""
    nodes = []
    queue = collections.deque([(np.arange(len(y)), 0, None)])  # rows, depth, parent link
    while queue:
        rows, depth, link = queue.popleft()
        i, n, pos = len(nodes), len(rows), int(y[rows].sum())
        nodes.append([-1, 0.0, -1, -1, pos / n, n])
        if link is not None:
            nodes[link[0]][link[1]] = i
        if pos == 0 or pos == n or depth >= params.max_depth or n < params.min_samples_split:
            continue
        candidates = feature_sampler.choice(X.shape[1], size=params.max_features, replace=False)
        split = _reference_best_split(X[rows], y[rows], candidates)
        if split is None:
            continue
        f, threshold, _ = split
        nodes[i] = [f, threshold, -1, -1, 0.0, 0]
        goes_left = X[rows, f] <= threshold
        queue.append((rows[goes_left], depth + 1, (i, 2)))
        queue.append((rows[~goes_left], depth + 1, (i, 3)))
    return tree_of_rows(nodes)


def test_feature_draws_follow_breadth_first_order():
    X, y = separable_classification(300, seed=13)
    X = np.round(X, 1)
    for max_features in (1, 2, 3, 4):
        params = TreeParams(12, 4, max_features)
        sampler = lambda: np.random.default_rng(max_features)
        _assert_same_tree(fit_tree(X, y, params, feature_sampler=sampler()),
                          _reference_breadth_first_fit(X, y, params, sampler()))
        forest = fit_forest(X, y, n_estimators=4, params=params, seed=max_features)
        for t, idx in enumerate(_bootstraps(len(y), max_features, 4)):
            tree_sampler = np.random.default_rng(mix64(mix64(max_features, t), 1))
            _assert_same_tree(forest.trees[t],
                              _reference_breadth_first_fit(X[idx], y[idx], params, tree_sampler))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_grower_equals_references_on_small_random_inputs(data):
    n = data.draw(st.integers(2, 40), label="rows")
    X = np.empty((n, 5))
    for f in range(5):  # few distinct values per feature, so ties are common
        levels = data.draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True))
        X[:, f] = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    params = TreeParams(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)),
                        data.draw(st.integers(1, 5)))
    _assert_same_tree(fit_tree(X, y, params), _reference_fit_tree(X, y, params))

    n_estimators = data.draw(st.integers(1, 12), label="trees")
    seed, boot_seed = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(0, 2**32 - 1))
    bootstrap = lambda n, tree_seed: np.random.default_rng([boot_seed, tree_seed]).integers(
        0, n, size=n)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "OOB error undefined", UserWarning)
        forest = fit_forest(X, y, n_estimators, params, seed, bootstrap_fn=bootstrap)
    for t, tree in enumerate(forest.trees):
        idx = bootstrap(n, mix64(seed, t))
        sampler = np.random.default_rng(mix64(mix64(seed, t), 1))
        _assert_same_tree(tree, _reference_breadth_first_fit(X[idx], y[idx], params, sampler))


@pytest.mark.parametrize("max_features", [5, 3])
def test_forest_prefix_does_not_depend_on_batches(max_features, monkeypatch):
    n, seed = 1000, 17
    X, y = separable_classification(n, seed=seed)
    monkeypatch.setattr(trees, "_BATCH_ENTRIES", 4096)
    entries = sum(np.count_nonzero(np.bincount(idx, minlength=n))
                  for idx in _bootstraps(n, seed, 40))
    assert entries > 4 * trees._BATCH_ENTRIES  # 40 trees are grown in several batches
    params = TreeParams(20, 10, max_features)
    full = forest_to_dict(fit_forest(X, y, n_estimators=40, params=params, seed=seed))
    for k in (1, 7, 23):
        prefix = forest_to_dict(fit_forest(X, y, n_estimators=k, params=params, seed=seed))
        assert json.dumps(prefix["trees"]) == json.dumps(full["trees"][:k])


def test_entropy_table_reads_the_bits_of_entropy():
    top = trees._TABLE_ROWS
    table = trees._entropy_table(top)
    assert len(trees._entropy_table(8 * top)) == len(table)  # rows stop at the cap
    n = np.repeat(np.arange(top + 1, dtype=np.int32), np.arange(top + 1) + 1)
    k = (np.arange(n.size) - n * (n + 1) // 2).astype(np.int32)  # 0..n: both halves of a row
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 at n = 0
        expected = trees._entropy(k, n)
    got = trees._entropies(k, n, table)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("rows", [0, 50])
def test_forest_does_not_depend_on_how_far_the_entropy_table_reaches(rows, monkeypatch):
    # with 50 rows, levels whose largest node holds more rows compute the
    # entropies and deeper levels read them; with 0 rows nothing is read
    X, y = separable_classification(400, seed=21)
    X = np.round(X, 1)  # ties
    fit = lambda: json.dumps(forest_to_dict(fit_forest(X, y, 12, TreeParams(30, 2, 3), seed=5)))
    default = fit()
    monkeypatch.setattr(trees, "_TABLE_ROWS", rows)
    assert fit() == default


def test_forest_fits_a_node_too_large_for_int32_squares(monkeypatch):
    # the root holds all 47,000 rows; (47,000 + 2) ** 2 exceeds 2**31, so
    # checking it against the table's rows must not wrap in the counts' int32
    X, y = separable_classification(47_000, seed=22)
    fit = lambda: json.dumps(forest_to_dict(fit_forest(X, y, 1, TreeParams(1, 2, 5), seed=6)))
    default = fit()
    monkeypatch.setattr(trees, "_TABLE_ROWS", 0)
    assert fit() == default


def test_fit_tree_grows_a_chain_deeper_than_the_recursion_limit():
    # the deep-tree CLI test's 2,100 train rows: rising features, alternating labels
    n = 2100
    close = 100.0 + np.arange(n)
    X = np.column_stack([close, 1000.0 + np.arange(n), close, close + 1.0, close - 1.0])
    y = (np.arange(n) % 2 == 0).astype(np.int64)
    tree = fit_tree(X, y, TreeParams(max_depth=5000, min_samples_split=2, max_features=5))
    assert len(tree.feature) == 4199
    depth = np.zeros(len(tree.feature), dtype=np.intp)
    for i in np.flatnonzero(tree.feature >= 0):  # breadth first: parents precede children
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    assert depth.max() > sys.getrecursionlimit()
    assert np.array_equal(tree_predict(tree, X), y)
    # scoring holds only disjoint row sets at once: 0.05 MB here, against
    # 18 MB when every node's rows are kept until the end
    tracemalloc.start()
    try:
        tree_predict_proba(tree, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the nested form round-trips without recursing; arrays are compared, since
    # == on the nested dicts would recurse
    back = node_from_dict(node_to_dict(tree))
    for fitted, loaded in zip(tree, back, strict=True):
        assert fitted.dtype == loaded.dtype and np.array_equal(fitted, loaded)


@pytest.mark.parametrize("column", [
    [1.0e308, 1.2e308, 1.5e308, 1.7e308],  # (a + b) / 2 overflows to inf
    # adjacent floats whose midpoint rounds (ties to even) up to the right value
    [1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0), 2.0],
])
def test_split_threshold_lies_between_the_values_either_side(column):
    X = np.zeros((4, 5))
    X[:, 0] = column
    y = np.array([0, 0, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f, threshold, gain = best_split(X, y)
        tree = fit_tree(X, y, TreeParams(10, 2, 5))
    assert (f, gain) == (0, 1.0)
    assert column[1] <= threshold < column[2]
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.threshold[0] == threshold
    assert tree.p_up.tolist() == [0.0, 0.0, 1.0] and tree.n.tolist() == [0, 2, 2]


def test_a_cut_between_minus_and_plus_infinity_keeps_the_left_value():
    # their midpoint is NaN; the suite turns its RuntimeWarning into an error
    inf = np.inf
    X = [[-inf, 0, 0, 0, 0], [inf, 0, 0, 0, 0]]
    tree = fit_tree(X, [0, 1], TreeParams(1, 2, 5))
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.threshold[0] == -inf
    assert tree.p_up.tolist() == [0.0, 0.0, 1.0] and tree.n.tolist() == [0, 1, 1]
    assert tree_predict(tree, X).tolist() == [0, 1]


def test_fitting_leaks_no_runtime_warning():
    X, y = separable_classification(120, seed=3)
    X[:, 2] = 1.0  # a constant column
    identity = lambda n, seed: np.arange(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "OOB error undefined", UserWarning)
        for labels in (y, np.ones_like(y), np.zeros_like(y)):  # pure roots and pure nodes
            fit_tree(X, labels, TreeParams(100, 2, 5))
            best_split(X, labels)
            fit_forest(X, labels, n_estimators=5, params=TreeParams(10, 2, 3), seed=1)
            fit_forest(X, labels, n_estimators=2, params=TreeParams(10, 2, 5), seed=1,
                       bootstrap_fn=identity)
        assert best_split(np.ones((6, 5)), y[:6]) is None  # every column constant


# ---------------------------------------------------------------------------
# one process per range of trees

def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("params, bootstrap_fn", [
    (TreeParams(100, 100, 5), bootstrap_sample),  # the paper's parameters
    (TreeParams(20, 10, 3), bootstrap_sample),  # samplers draw per node
    (TreeParams(20, 10, 5), lambda n, seed: np.random.default_rng(seed).integers(0, n, n // 2)),
])
def test_the_process_count_moves_no_bytes(params, bootstrap_fn, monkeypatch):
    X, y = separable_classification(300, seed=31)
    X = np.round(X, 1)  # ties
    # at most 6 trees of 300 rows a batch, so 30 trees may take 5 ranges; they
    # take about 3 batches, so 8 CPUs give ranges smaller than a batch
    monkeypatch.setattr(trees, "_BATCH_ENTRIES", 2000)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(cpus) or fork())
    fitted = []
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(trees, "_cpu_count", lambda: cpus)
        forest = fit_forest(X, y, 30, params, seed=4, bootstrap_fn=bootstrap_fn)
        fitted.append((json.dumps(forest_to_dict(forest)), forest.oob_error))
        _assert_no_child_process()
    assert collections.Counter(forks) == {2: 1, 3: 2, 8: 4}  # processes started per count
    assert fitted[0][1] is not None
    assert all(f == fitted[0] for f in fitted)


def test_a_forest_of_one_batch_starts_no_process(monkeypatch):
    X, y = separable_classification(100, seed=2)
    monkeypatch.setattr(trees, "_cpu_count", lambda: 8)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for one batch"))
    fit_forest(X, y, trees._BATCH_ENTRIES // 100, TreeParams(20, 10, 3), seed=1)


@pytest.mark.parametrize("in_child", [True, False])
def test_an_error_in_a_range_is_raised_with_its_type_and_message(in_child, monkeypatch):
    X, y = separable_classification(400, seed=3)
    monkeypatch.setattr(trees, "_cpu_count", lambda: 3)  # 60 trees: three ranges of 20
    parent = os.getpid()

    def bootstrap(n, seed):  # fails in both forked processes, or in this one only
        if (os.getpid() != parent) == in_child:
            raise ValueError(f"no bootstrap in process {os.getpid()}")
        return bootstrap_sample(n, seed)

    with pytest.raises(ValueError, match="no bootstrap in process") as raised:
        fit_forest(X, y, 60, TreeParams(20, 10, 5), seed=5, bootstrap_fn=bootstrap)
    assert (int(str(raised.value).split()[-1]) != parent) == in_child
    _assert_no_child_process()  # the other processes were stopped and reaped


def test_a_forked_range_that_ends_without_replying_raises_one_line(monkeypatch):
    X, y = separable_classification(400, seed=3)
    monkeypatch.setattr(trees, "_cpu_count", lambda: 2)
    parent, grow = os.getpid(), trees._grow

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(1)
        return grow(*args)

    monkeypatch.setattr(trees, "_grow", dies_in_a_child)
    with pytest.raises(TrainingDivergedError, match=r"exit status 1\)$") as raised:
        fit_forest(X, y, 40, TreeParams(20, 10, 5), seed=5)
    assert "\n" not in str(raised.value)
    _assert_no_child_process()


# ---------------------------------------------------------------------------
# predict_forest

def test_predict_forest_all_up_leaves():
    forest = ForestModel(trees=[node_from_dict({"p_up": 1.0, "n": 1})] * 3,
                         params=TreeParams(100, 100, 5), n_estimators=3, seed=0)
    assert predict_forest(forest, np.zeros((4, 5))).tolist() == [1, 1, 1, 1]


def test_predict_forest_mean_tie_maps_to_one():
    forest = ForestModel(trees=[node_from_dict({"p_up": 0.2, "n": 1}),
                                node_from_dict({"p_up": 0.8, "n": 1})],
                         params=TreeParams(100, 100, 5), n_estimators=2, seed=0)
    assert predict_forest(forest, np.zeros((1, 5))).tolist() == [1]


def test_predict_forest_thresholds_the_mean_of_its_trees():
    X, y = separable_classification(150, seed=12)
    forest = fit_forest(X, y, n_estimators=8, params=TreeParams(8, 4, 3), seed=5)
    Q = np.vstack([X, np.random.default_rng(0).normal(size=(500, 5))])
    mean_p = np.mean([tree_predict_proba(tree, Q) for tree in forest.trees], axis=0)
    assert np.any(mean_p == 0.5)  # ties occur, and they map to 1
    assert np.array_equal(predict_forest(forest, Q), (mean_p >= 0.5).astype(np.int64))


def test_predict_forest_single_tree_equals_thresholded_tree():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 5))
    y = rng.integers(0, 2, size=30)
    tree = fit_tree(X, y, TreeParams(10, 2, 5))
    forest = ForestModel(trees=[tree], params=TreeParams(10, 2, 5),
                         n_estimators=1, seed=0)
    assert np.array_equal(predict_forest(forest, X), tree_predict(tree, X))


# ---------------------------------------------------------------------------
# serialization

def test_node_round_trip():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(50, 5))
    y = rng.integers(0, 2, size=50)
    tree = fit_tree(X, y, TreeParams(6, 2, 5))
    doc = node_to_dict(tree)
    back = node_from_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(tree_predict_proba(back, X), tree_predict_proba(tree, X))


def test_node_json_round_trip_is_exact_and_loads_the_fitted_arrays():
    X, y = separable_classification(150, seed=12)
    dt = fit_tree(X, y, TreeParams(100, 2, 5))
    forest = fit_forest(X, y, n_estimators=6, params=TreeParams(8, 4, 3), seed=5)
    for tree in [dt, *forest.trees]:
        doc = json.loads(json.dumps(node_to_dict(tree)))
        back = node_from_dict(doc)
        assert json.dumps(node_to_dict(back)) == json.dumps(doc)
        for fitted, loaded in zip(tree, back):
            assert fitted.dtype == loaded.dtype and np.array_equal(fitted, loaded)
        Q = _rows_with_ties(back, X)
        assert np.array_equal(tree_predict_proba(back, Q), [predict_tree(back, x) for x in Q])


def test_forest_round_trip():
    X, y = separable_classification(90, seed=6)
    forest = fit_forest(X, y, n_estimators=6, params=TreeParams(8, 4, 3), seed=3)
    doc = json.loads(json.dumps(forest_to_dict(forest)))
    assert set(doc) == {"n_estimators", "seed", "params", "oob_error", "trees"}
    back = forest_from_dict(doc)
    assert back.n_estimators == 6 and back.seed == 3
    assert back.oob_error == forest.oob_error
    assert np.array_equal(predict_forest(back, X), predict_forest(forest, X))


def _assert_same_forest(loaded, expected):
    """The two forests hold equal arrays, dtypes included, and equal fields, types included."""
    assert len(loaded.trees) == len(expected.trees)
    for tree, want in zip(loaded.trees, expected.trees):
        for column, want_column in zip(tree, want):
            assert column.dtype == want_column.dtype
            np.testing.assert_array_equal(column, want_column)
    for field in ("params", "n_estimators", "seed", "oob_error"):
        value, want = getattr(loaded, field), getattr(expected, field)
        assert type(value) is type(want) and value == want


@pytest.fixture(scope="module")
def paper_forest(tmp_path_factory):
    """The forest compare fits, default config and seed, on the seed-7 paper-scale
    walk: 1,200 days, about 14,000 nodes in 250 trees."""
    root = tmp_path_factory.mktemp("paper")
    raw = write_raw_csv(root / "raw.csv", synthetic_candles(1200, seed=7))
    assert cli.main(["prepare", "--data", str(raw), "--out", str(root)]) == 0
    ds = dataset.read_labeled_csv(root / "dataset.csv")
    train = dataset.split_chronological(len(ds), *cli.DEFAULT_CONFIG["split"]).train
    rf = cli.DEFAULT_CONFIG["rf"]
    return fit_forest(ds.rows(train), ds.labels(train), rf["n_estimators"],
                      TreeParams(rf["max_depth"], rf["min_samples_split"], rf["max_features"]),
                      mix64(cli.DEFAULT_CONFIG["seed"], cli.MODEL_NAMES.index("rf")))


def _forest_without_oob_error():
    X, y = separable_classification(120, seed=9)
    with pytest.warns(UserWarning, match="OOB error undefined"):
        forest = fit_forest(X, y, 3, TreeParams(8, 4, 3), seed=4,
                            bootstrap_fn=lambda n, seed: np.arange(n))
    assert forest.oob_error is None
    return forest


def _one_tree_forest():
    X, y = separable_classification(120, seed=10)
    return fit_forest(X, y, 1, TreeParams(8, 4, 5), seed=11)


@pytest.mark.parametrize("make", ["paper", "without_oob_error", "one_tree"])
def test_forest_to_json_writes_the_whole_document_and_gives_what_loading_it_gives(
        make, request):
    forest = {"paper": lambda: request.getfixturevalue("paper_forest"),
              "without_oob_error": _forest_without_oob_error,
              "one_tree": _one_tree_forest}[make]()
    text, checked = forest_to_json(forest)
    assert text == json.dumps(forest_to_dict(forest))
    _assert_same_forest(checked, forest_from_dict(json.loads(text)))


def test_forest_to_json_holds_no_whole_nested_document(paper_forest):
    # Built whole, dumped whole and loaded whole, this forest's document took a
    # 6.5-7.4 MB tracemalloc peak; one tree at a time it takes under 3 MB, the
    # text and the checked arrays (0.66 MB each) included.
    forest_to_json(paper_forest)
    tracemalloc.start()
    try:
        forest_to_json(paper_forest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(tree.feature) for tree in paper_forest.trees) > 10_000
    assert peak < 4_500_000


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_a_node_cache_loads_what_the_model_file_loads(data):
    n = data.draw(st.integers(2, 1500), label="rows")
    X, y = separable_classification(n, seed=data.draw(st.integers(0, 99)), noise=0.3)
    params = TreeParams(data.draw(st.integers(1, 60)), data.draw(st.integers(1, 30)),
                        data.draw(st.integers(1, 5)))
    identity = data.draw(st.booleans())  # every row in bag: no OOB error
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "OOB error undefined", UserWarning)
        forest = fit_forest(X, y, data.draw(st.integers(1, 6)), params,
                            data.draw(st.integers(0, 2**64 - 1)),
                            bootstrap_fn=(lambda n, s: np.arange(n)) if identity
                            else bootstrap_sample)
    expected = forest_from_dict(json.loads(json.dumps(forest_to_dict(forest))))
    _assert_same_forest(trees.forest_from_nodes(trees.forest_to_nodes(expected)), expected)


@pytest.mark.parametrize("max_features", [5, 2])
def test_a_node_cache_holds_trees_above_one_word(max_features):
    X, y = separable_classification(1500, seed=4, noise=0.3)
    forest = fit_forest(X, y, 4, TreeParams(100, 2, max_features), seed=2**64 - 1)
    assert min(np.count_nonzero(tree.feature < 0) for tree in forest.trees) > 64
    expected = forest_from_dict(json.loads(json.dumps(forest_to_dict(forest))))
    payload = trees.forest_to_nodes(expected)
    _assert_same_forest(trees.forest_from_nodes(memoryview(payload)), expected)
    X_test = np.random.default_rng(5).normal(size=(300, 5))
    np.testing.assert_array_equal(predict_forest(trees.forest_from_nodes(payload), X_test),
                                  predict_forest(forest, X_test))


def _small_forest():
    X, y = separable_classification(200, seed=3)
    forest = forest_from_dict(json.loads(json.dumps(forest_to_dict(
        fit_forest(X, y, 3, TreeParams(6, 4, 5), seed=8)))))
    assert (forest.trees[0].feature[:2] >= 0).all()  # the root and node 1 split
    return forest


@pytest.mark.parametrize("case", sorted(NODE_CACHE_FAULTS))
def test_a_node_cache_of_a_forest_node_from_dict_could_not_build_is_refused(case):
    forest = _small_forest()
    assert trees.forest_from_nodes(trees.forest_to_nodes(forest)) is not None
    assert trees.forest_from_nodes(trees.forest_to_nodes(NODE_CACHE_FAULTS[case](forest))) is None


# NODE_CACHE_FAULTS that a model file cannot carry: node_to_dict writes a tree
# by following its child links and keeps only split features and thresholds and
# leaf p_up and n, so these faults are dropped or renumbered on the way out, or
# writing or loading fails on them (IndexError, TypeError) before any rule.
_STRUCTURAL_FAULTS = {
    "child_out_of_range", "left_child_is_the_root", "right_child_points_back_to_the_root",
    "split_is_its_own_child", "children_swapped", "leaf_feature_minus_2",
    "leaf_with_a_left_child", "leaf_with_a_right_child", "leaf_threshold_not_zero",
    "split_p_up_not_zero", "split_n_not_zero", "unreachable_leaf"}


@pytest.mark.parametrize("case", sorted(set(NODE_CACHE_FAULTS) - _STRUCTURAL_FAULTS))
def test_a_model_file_of_a_forest_whose_node_cache_is_refused_is_refused(case):
    assert _STRUCTURAL_FAULTS < set(NODE_CACHE_FAULTS)
    forest = NODE_CACHE_FAULTS[case](_small_forest())
    doc = json.loads(json.dumps(forest_to_dict(forest)))
    with pytest.raises(ValueError):
        forest_from_dict(doc)
    with pytest.raises(ValueError):  # nor does fitting save it
        forest_to_json(forest)


_HEAD = trees._NODES_HEAD.itemsize  # then _small_forest's 3 node counts, then its nodes


def _sizes(payload):
    return [int(size) for size in np.frombuffer(payload, "<i8", 3, _HEAD)]


def _counts(payload, n_estimators, *sizes):
    """_small_forest's payload with its tree count and node counts replaced."""
    return (n_estimators.to_bytes(8, "little", signed=True) + payload[8:_HEAD]
            + np.array(sizes, "<i8").tobytes() + payload[_HEAD + 8 * 3:])


@pytest.mark.parametrize("edit", [
    lambda p: b"", lambda p: p[:_HEAD - 1], lambda p: p[:-1], lambda p: p[:-48],
    lambda p: p + bytes(48), lambda p: p + b"\0", lambda p: bytes(8) + p[8:_HEAD],
    lambda p: _counts(p, 0), lambda p: _counts(p, -1), lambda p: _counts(p, 2**62),
    lambda p: _counts(p, 3, *_sizes(p)[1:], _sizes(p)[0]),
    lambda p: _counts(p, 3, sum(_sizes(p)), 0, 0),
    lambda p: _counts(p, 3, 0, 0, sum(_sizes(p))),
    lambda p: _counts(p, 3, -1, 1, sum(_sizes(p))),
    lambda p: _counts(p, 9, *[2**61] * 8, sum(_sizes(p)))])  # the sum wraps to the count
def test_a_node_cache_of_the_wrong_length_or_counts_is_refused(edit):
    payload = trees.forest_to_nodes(_small_forest())
    assert len(set(_sizes(payload))) > 1  # so rotating them moves the trees' bounds
    assert trees.forest_from_nodes(_counts(payload, 3, *_sizes(payload))) is not None
    assert trees.forest_from_nodes(edit(payload)) is None


@pytest.mark.parametrize("change", [{"seed": 2**64}, {"seed": -1},
                                    {"params": TreeParams(2**63, 2, 5)},
                                    {"params": TreeParams(6, 2**63, 5)}])
def test_a_forest_whose_numbers_pass_64_bits_is_refused(change):
    # so every forest a model file gives fits its node cache's 64-bit fields
    doc = json.loads(json.dumps(forest_to_dict(dataclasses.replace(_small_forest(), **change))))
    with pytest.raises(ValueError, match=r"2\*\*6[34]\)"):
        forest_from_dict(doc)
    if "params" in change:
        X, y = separable_classification(50, seed=1)
        with pytest.raises(ValueError, match=r"must be in \[1, 2\*\*63\)"):
            fit_forest(X, y, 1, change["params"], seed=0)
