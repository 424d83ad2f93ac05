"""Entropy decision tree and seeded bootstrap random forest with OOB error.

Trees consume raw (unstandardized) features; axis-aligned thresholds are
scale-equivariant. All randomness flows through :func:`candlebias.seeding.mix64`,
and tree t of a forest depends only on (master seed, t).

A tree is one :class:`Tree` of parallel node arrays, which fitting builds and
prediction reads; only a model file nests it (node_to_dict, node_from_dict).
Fitting grows trees one depth level at a time: a forest grows a batch of
trees together, each on its bootstrap given as a count per row, and a plain
tree is the one-tree batch in which every row counts once (see _grow).
Nodes keep the order they grow in, breadth first; loading a model file reads
its nested nodes in that order, and neither conversion recurses.
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
_BATCH_ENTRIES = 4096  # (tree, row) entries grown together; bounds the grower's arrays


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
    """Parallel node arrays numbered breadth first, as grown; node 0 is the root.

    Parents come before children, each level in its parents' order, left
    child first. A split sends rows with x[feature] <= threshold to node
    left, others to node right. A leaf has feature, left and right -1 and
    holds p_up, the fraction of class 1 among its n training rows; splits
    hold p_up 0, n 0.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    p_up: np.ndarray
    n: np.ndarray


def _tree(nodes: list) -> Tree:
    """Tree from node rows [feature, threshold, left, right, p_up, n]."""
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

    The split scorer and the tests' impurity oracle share it, so they agree
    on every logarithm; exact divisions make H(k, n) == H(n - k, n).
    """
    p = np.divide(positives, n)
    q = np.divide(np.subtract(n, positives), n)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - q * np.log2(q)
    return np.where((p > 0.0) & (q > 0.0), h, 0.0)


def _best_cuts(values, weight, positive, ids, sizes, candidates=None):
    """The best cut of each segment of presorted entries: (feature, threshold, gain).

    Entry e has row count weight[e], count of class 1 positive[e] and
    feature f value values[f * len(weight) + e]. Row f of ids lists entries
    in segments of sizes[s] entries each, ascending by feature f within a
    segment. The cut after an entry sends that entry and those before it in
    its segment left. Its gain is H - (n_l/n) H_l - (n_r/n) H_r, except that
    it is 0 between equal values and after a segment's last entry. Each
    segment takes the first maximum in (feature, position) order over the
    features that candidates[:, s] allows (all when None), and the midpoint
    of the values either side of that cut. A gain that is not positive means
    no cut. The midpoint is taken as halves, which cannot overflow; where
    it rounds up to the value right of the cut, the value left of it is used.
    """
    n_features, n_open = ids.shape
    starts = np.cumsum(sizes) - sizes
    last = starts + sizes - 1
    seg = np.repeat(np.arange(len(sizes)), sizes)
    n_l = np.cumsum(weight[ids], axis=1)    # through each entry; below, within its segment
    pos_l = np.cumsum(positive[ids], axis=1)
    n_before = n_l[0, starts] - weight[ids[0, starts]]
    pos_before = pos_l[0, starts] - positive[ids[0, starts]]
    n_seg = n_l[0, last] - n_before
    pos_seg = pos_l[0, last] - pos_before
    n_l -= n_before[seg]
    pos_l -= pos_before[seg]
    n = n_seg[seg]
    with np.errstate(divide="ignore", invalid="ignore"):  # n_r is 0 after a last entry
        gain = _entropy(pos_seg, n_seg)[seg] - (n_l / n) * _entropy(pos_l, n_l)
        n_r = np.subtract(n, n_l, out=n_l)                  # in place: saves two arrays
        pos_r = np.subtract(pos_seg[seg], pos_l, out=pos_l)
        gain -= (n_r / n) * _entropy(pos_r, n_r)
    xs = values[ids + np.arange(n_features)[:, None] * len(weight)]
    gain[:, :-1][xs[:, :-1] == xs[:, 1:]] = 0.0
    gain[:, last] = 0.0
    seg_gain = np.maximum.reduceat(gain, starts, axis=1)
    if candidates is not None:
        seg_gain[~candidates] = 0.0
    feature = np.argmax(seg_gain, axis=0)
    best = seg_gain[feature, np.arange(len(sizes))]
    cols = np.arange(n_open)
    at_best = gain.ravel()[feature[seg] * n_open + cols] == best[seg]
    cut = np.minimum.reduceat(np.where(at_best, cols, n_open), starts)
    lo, hi = xs[feature, cut], xs[feature, cut + (best > 0.0)]
    threshold = lo * 0.5 + hi * 0.5
    return feature, np.where(threshold == hi, lo, threshold), best


def best_split(X: np.ndarray, y: np.ndarray, candidate_features=None):
    """Greedy search over midpoints between consecutive distinct feature values.

    Returns (feature_index, threshold, information_gain) for the gain-maximizing
    split, or None when no candidate has strictly positive gain. Ties break to
    the lowest feature index, then the lowest threshold; candidate features are
    scanned in ascending index order regardless of the order supplied. This is
    the grower's scorer, :func:`_best_cuts`, on one segment of unit-count rows.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if len(y) < 2:
        return None
    candidates = None
    if candidate_features is not None:
        candidates = np.zeros((X.shape[1], 1), dtype=bool)
        candidates[np.asarray(candidate_features, dtype=np.intp)] = True
    feature, threshold, gain = _best_cuts(X.T.ravel(), np.ones(len(y)), y,
                                          np.argsort(X, axis=0, kind="stable").T, [len(y)],
                                          candidates)
    if gain[0] <= 0.0:
        return None
    return int(feature[0]), float(threshold[0]), float(gain[0])


def _searched(n, positives, depth: int, params: TreeParams):
    """Which nodes look for a split: impure, above max_depth, min_samples_split rows."""
    return ((positives > 0) & (positives < n) & (n >= params.min_samples_split)
            & (depth < params.max_depth))


def _grow(X, y, counts, params: TreeParams, samplers=None) -> list:
    """One tree per row of counts, grown level by level; see :func:`fit_tree`.

    counts[t, r] is how often row r is in tree t's sample, and a (tree, row)
    pair with a positive count is an entry. Each feature's entries are sorted
    once, by (tree, value), so that every open node's entries form one
    segment. A level scores all open nodes of all trees in one
    :func:`_best_cuts` call, then moves the entries of each split node into
    the segments of those children that are searched next, by a stable sort
    on the child index. A tree with a sampler draws candidate features for the
    nodes it searches in breadth-first order. Nodes are numbered breadth
    first, the order :class:`Tree` keeps.
    """
    n_features = X.shape[1]
    tree_of, row_of = np.nonzero(counts)
    n_entries = len(tree_of)
    weight = counts[tree_of, row_of].astype(float)  # small integers: float sums are exact
    positive = weight * y[row_of]
    values = X[row_of].T.ravel()                     # feature f of entry e at f * n_entries + e
    entry = np.full(counts.shape, -1, dtype=np.intp)
    entry[tree_of, row_of] = np.arange(n_entries)
    ids = entry[:, np.argsort(X, axis=0, kind="stable").T].swapaxes(0, 1)
    ids = ids[ids >= 0].reshape(n_features, n_entries)  # by (tree, value) per feature
    draw = samplers is not None and params.max_features < n_features

    tree = np.arange(len(counts))
    n = np.bincount(tree_of, weight, minlength=len(counts))
    pos = np.bincount(tree_of, positive, minlength=len(counts))
    sizes = np.bincount(tree_of, minlength=len(counts))
    searched = _searched(n, pos, 0, params)
    ids = ids[:, np.repeat(searched, sizes)]
    sizes = sizes[searched]
    levels, splits, first, depth = [], [], 0, 0
    while True:
        levels.append((tree, n, pos))
        nodes = np.flatnonzero(searched)
        if not nodes.size:
            break
        candidates = None
        if draw:
            candidates = np.zeros((n_features, nodes.size), dtype=bool)
            for s, t in enumerate(tree[nodes]):
                candidates[samplers[t].choice(n_features, size=params.max_features,
                                              replace=False), s] = True
        f, thr, gain = _best_cuts(values, weight, positive, ids, sizes, candidates)
        split = gain > 0.0
        parents = nodes[split]
        children = first + len(tree) + 2 * np.arange(parents.size)  # left ones; right is +1
        splits.append((first + parents, children, f[split], thr[split]))
        first += len(tree)

        # the children: 2s is the left and 2s + 1 the right one of open node s
        seg = np.repeat(np.arange(nodes.size), sizes)
        child = 2 * seg + (values[ids + (f * n_entries)[seg]] > thr[seg])
        child_sizes, n, pos = (np.bincount(child[0], w, minlength=2 * nodes.size)
                               for w in (None, weight[ids[0]], positive[ids[0]]))
        made = np.repeat(split, 2)
        tree, n, pos = np.repeat(tree[parents], 2), n[made], pos[made]
        depth += 1
        searched = _searched(n, pos, depth, params)

        # A stable sort on the child moves each searched child's entries into
        # one segment, keeping their order; the rest sort last and are cut off.
        kept = np.zeros(2 * nodes.size, dtype=bool)
        kept[made] = searched
        sizes = child_sizes[kept]
        order = np.argsort(np.where(kept[child], child, 2 * nodes.size), axis=1, kind="stable")
        ids = np.take_along_axis(ids, order[:, :sizes.sum()], axis=1)

    tree, n, pos = (np.concatenate(c) for c in zip(*levels))
    feature = np.full(len(tree), -1, dtype=np.intp)
    threshold = np.zeros(len(tree))
    left = np.full(len(tree), -1, dtype=np.intp)
    for parents, children, f, thr in splits:
        feature[parents], threshold[parents], left[parents] = f, thr, children
    order = np.argsort(tree, kind="stable")  # by tree; breadth first within each
    n_nodes = np.bincount(tree)
    ends = np.cumsum(n_nodes)
    at = np.empty_like(order)                 # index within its tree
    at[order] = np.arange(len(tree)) - np.repeat(ends - n_nodes, n_nodes)
    split = feature >= 0
    columns = (feature, threshold, np.where(split, at[left], -1),
               np.where(split, at[left + 1], -1), np.where(split, 0.0, pos / n),
               np.where(split, 0, n).astype(np.intp))
    return [Tree(*c) for c in zip(*(np.split(c[order], ends[:-1]) for c in columns))]


def fit_tree(X: np.ndarray, y: np.ndarray, params: TreeParams | None = None,
             feature_sampler: np.random.Generator | None = None) -> Tree:
    """Grow a tree greedily, one depth level at a time; x[feature] <= threshold goes left.

    A node becomes a leaf when it is pure, the depth cap is hit, it holds
    fewer than min_samples_split rows, or no split has positive gain. When a
    feature_sampler is given and max_features is below the feature count,
    each node searched draws max_features candidate features without
    replacement, in breadth-first order. Every row counts once, repeated
    rows included.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    params = params or TreeParams()
    params.validate(X.shape[1])
    if len(y) < 1:
        raise ValueError("tree training needs at least 1 row")
    samplers = None if feature_sampler is None else [feature_sampler]
    return _grow(X, y, np.ones((1, len(y)), dtype=np.intp), params, samplers)[0]


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


def bootstrap_sample(n: int, seed: int) -> np.ndarray:
    """n uniform draws with replacement from [0, n), deterministic per seed."""
    if n < 1:
        raise ValueError("bootstrap_sample needs n >= 1")
    return np.random.default_rng(seed).integers(0, n, size=n)


def _batches(n: int, n_estimators: int, seed: int, bootstrap_fn):
    """Row counts and feature samplers of consecutive trees, one batch at a time.

    A batch holds whole trees: one, or as many as fit in _BATCH_ENTRIES
    entries. Tree t depends only on (seed, t), so the batches move no bytes.
    """
    counts, samplers, entries = [], [], 0
    for t in range(n_estimators):
        tree_seed = mix64(seed, t)
        in_bag = np.bincount(np.asarray(bootstrap_fn(n, tree_seed)), minlength=n)
        if counts and entries + np.count_nonzero(in_bag) > _BATCH_ENTRIES:
            yield np.array(counts), samplers
            counts, samplers, entries = [], [], 0
        counts.append(in_bag)
        samplers.append(np.random.default_rng(mix64(tree_seed, _FEATURE_STREAM)))
        entries += np.count_nonzero(in_bag)
    yield np.array(counts), samplers


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
    bootstrap). Trees grow in batches, level by level, each on its bootstrap
    passed as a count per row; tree t equals
    ``fit_tree(X[idx], y[idx], params, sampler)`` for its rows idx and sampler.

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
    for counts, samplers in _batches(n, n_estimators, seed, bootstrap_fn):
        for tree, in_bag in zip(_grow(X, y, counts, params, samplers), counts):
            forest.trees.append(tree)
            oob = in_bag == 0
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
    nodes = [None] * len(feature)
    for i in reversed(range(len(feature))):  # children follow parents, so are built first
        nodes[i] = ({"p_up": p_up[i], "n": n[i]} if feature[i] < 0 else
                    {"feature": feature[i], "threshold": threshold[i],
                     "left": nodes[left[i]], "right": nodes[right[i]]})
    return nodes[0]


def node_from_dict(d: dict) -> Tree:
    """A tree from its nested JSON form, numbered as grown; split features are ints in range."""
    nodes, queue = [], [d]
    for node in queue:  # first in, first out: each split queues its left, then right child
        if "p_up" in node:
            nodes.append([-1, 0.0, -1, -1, float(node["p_up"]), int(node["n"])])
            continue
        feature = node["feature"]
        if type(feature) is not int or not 0 <= feature < N_FEATURES:
            raise ValueError(f"split feature must be an integer in 0..{N_FEATURES - 1}, "
                             f"got {feature!r}")
        nodes.append([feature, float(node["threshold"]), len(queue), len(queue) + 1, 0.0, 0])
        queue += (node["left"], node["right"])
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
