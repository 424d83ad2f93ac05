"""Entropy decision tree and seeded bootstrap random forest with OOB error.

Trees consume raw (unstandardized) features; axis-aligned thresholds are
scale-equivariant. All randomness flows through :func:`candlebias.seeding.mix64`,
and tree t of a forest depends only on (master seed, t).

A tree is one :class:`Tree` of parallel node arrays, which fitting builds and
prediction reads; only a model file nests it (node_to_dict, node_from_dict).
A forest's node cache holds its arrays flat (forest_to_nodes), and loading it
checks that they are a forest node_from_dict could have built
(forest_from_nodes).
Fitting grows trees one depth level at a time: a forest grows a batch of trees
together, each on its bootstrap given as a count per row, and a plain tree is
the one-tree batch in which every row counts once (see _grow). A forest grows
contiguous ranges of its trees, one process per available CPU, and joins them
and sums their out-of-bag probabilities in tree order, so the count of
processes moves no bytes (see fit_forest). Nodes keep the order they grow
in, breadth first, as does loading a model file. Prediction has two scorers
behind one generator (_tree_probas), which gives each tree's probability for
every row. Trees of at most 64 leaves, the bits of one uint64 mask word, are
scored together by bitvectors over each row's rank in each feature column
(_bitvector_probas); a larger tree partitions the rows that reach each split
(_descend). Both send ties left and give the same leaf. The out-of-bag error
takes every row from that generator and keeps each tree's out-of-bag rows
(oob_error). Nothing recurses.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import signal
import warnings
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .dataset import N_FEATURES
from .errors import TrainingDivergedError, json_number
from .seeding import mix64

DEFAULT_N_ESTIMATORS = 250
_FEATURE_STREAM = 1  # stream index for per-node feature sampling, vs 0 for bootstrap
_BATCH_ENTRIES = 8192  # (tree, row) entries grown together; bounds the grower's arrays
_TABLE_ROWS = 1023  # entropy table rows n; a level with a larger node computes entropies
# A node cache's payload: this header, each tree's node count ("<i8"), then each
# Tree column over all nodes in tree order, in Tree's field order, as these types.
_NODES_HEAD = np.dtype([("n_estimators", "<i8"), ("seed", "<u8"), ("max_depth", "<i8"),
                        ("min_samples_split", "<i8"), ("max_features", "<i8"),
                        ("oob_error", "<f8")])  # NaN for none
_NODE_COLUMNS = tuple(map(np.dtype, ("<i8", "<f8", "<i8", "<i8", "<f8", "<i8")))


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

    @classmethod
    def from_dict(cls, d: dict) -> "TreeParams":
        return cls(*(json_number(d[key], f"params {key}", integer=True)
                     for key in ("max_depth", "min_samples_split", "max_features")))


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


def _entropy_table(n_rows: int) -> np.ndarray:
    """_entropy(k, n) for n <= min(n_rows, _TABLE_ROWS) and k <= n / 2, at (n + 1)**2 // 4 + k.

    Row n holds k = 0..n // 2; H(k, n) == H(n - k, n) gives the other half.
    It is filled 16 rows at a time, so filling it holds little beyond it.
    """
    top = min(n_rows, _TABLE_ROWS)
    table = np.empty((top + 2) ** 2 // 4)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 in row 0
        for low in range(0, top + 1, 16):
            n = np.arange(low, min(low + 16, top + 1))
            n = np.repeat(n, n // 2 + 1)
            start = (low + 1) ** 2 // 4
            k = np.arange(start, start + n.size) - (n + 1) ** 2 // 4
            table[start:start + n.size] = _entropy(k, n)
    return table


def _entropies(positives, n, table):
    """_entropy(positives, n) of integer counts, read from table unless it is None."""
    if table is None:
        return _entropy(positives, n)
    at = np.minimum(positives, n - positives)  # H(k, n) == H(n - k, n)
    at += (n + 1) ** 2 >> 2
    return np.take(table, at)


def _gains(weight, positive, ids, starts, seg, table):
    """H - (n_l/n) H_l - (n_r/n) H_r of the cut after each entry; see :func:`_best_cuts`.

    weight and positive hold integer counts. Entropies are read from table
    when its rows reach the largest segment. Rows of ids are scored in blocks
    of about _BATCH_ENTRIES entries, reusing buffers in place, so a large
    level holds few arrays of its size at once. Gathers use np.take, which
    is several times faster than indexing with an array here.
    """
    n_seg = np.add.reduceat(np.take(weight, ids[0]), starts, dtype=weight.dtype)  # one dtype
    pos_seg = np.add.reduceat(np.take(positive, ids[0]), starts, dtype=positive.dtype)
    if table is not None and (int(n_seg.max()) + 2) ** 2 // 4 > len(table):  # lacks that row
        table = None  # squared as a Python int: in int32 it wraps from 46,339 rows
    n, pos = np.take(n_seg, seg), np.take(pos_seg, seg)
    n_before = np.take(np.cumsum(n_seg, dtype=n_seg.dtype) - n_seg, seg)
    pos_before = np.take(np.cumsum(pos_seg, dtype=pos_seg.dtype) - pos_seg, seg)
    h = np.take(_entropies(pos_seg, n_seg, table), seg)
    gain = np.empty(ids.shape)
    step = max(1, _BATCH_ENTRIES // ids.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):  # n_r is 0 after a last entry
        for low in range(0, len(ids), step):
            block, g = ids[low:low + step], gain[low:low + step]
            n_l, pos_l = np.take(weight, block), np.take(positive, block)
            np.cumsum(n_l, axis=1, out=n_l)  # through each entry; below, within its segment
            np.cumsum(pos_l, axis=1, out=pos_l)
            n_l -= n_before
            pos_l -= pos_before
            share = n_l / n
            np.multiply(_entropies(pos_l, n_l, table), share, out=g)
            np.subtract(h, g, out=g)
            n_r = np.subtract(n, n_l, out=n_l)
            pos_r = np.subtract(pos, pos_l, out=pos_l)
            h_r = _entropies(pos_r, n_r, table)
            h_r *= np.divide(n_r, n, out=share)
            g -= h_r
    return gain


def _best_cuts(columns, rows, weight, positive, ids, sizes, candidates=None, table=None):
    """The best cut of each segment of presorted entries: (feature, threshold, gain).

    Entry e has row count weight[e], count of class 1 positive[e] and
    feature f value columns[f, rows[e]]. Row f of ids lists entries
    in segments of sizes[s] entries each, ascending by feature f within a
    segment. The cut after an entry sends that entry and those before it in
    its segment left. Its gain is H - (n_l/n) H_l - (n_r/n) H_r, except that
    it is 0 between equal values and after a segment's last entry. Each
    segment takes the first maximum in (feature, position) order over the
    features that candidates[:, s] allows (all when None), and the midpoint
    of the values either side of that cut. A gain that is not positive means
    no cut. The midpoint is taken as halves, which cannot overflow; where
    it is not finite (-inf and inf either side) or rounds up to the value
    right of the cut, the value left of it is used.
    Counts are integers; entropies are read from table when it is given.
    """
    n_features, n_open = ids.shape
    starts = np.cumsum(sizes) - sizes
    last = starts + sizes - 1
    seg = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    gain = _gains(weight, positive, ids, starts, seg, table)
    at = np.take(rows, ids)
    at += (np.arange(n_features, dtype=at.dtype) * columns.shape[1])[:, None]
    xs = np.take(columns, at)
    gain[:, :-1][xs[:, :-1] == xs[:, 1:]] = 0.0
    gain[:, last] = 0.0
    seg_gain = np.maximum.reduceat(gain, starts, axis=1)
    if candidates is not None:
        seg_gain[~candidates] = 0.0
    feature = np.argmax(seg_gain, axis=0)
    best = seg_gain[feature, np.arange(len(sizes))]
    cols = np.arange(n_open)
    at_best = np.take(gain, np.take(feature, seg) * n_open + cols) == np.take(best, seg)
    cut = np.minimum.reduceat(np.where(at_best, cols, n_open), starts)
    lo, hi = xs[feature, cut], xs[feature, cut + (best > 0.0)]
    with np.errstate(invalid="ignore"):  # -inf + inf
        threshold = lo * 0.5 + hi * 0.5
    return feature, np.where(np.isfinite(threshold) & (threshold != hi), threshold, lo), best


def _searched(n, positives, depth: int, params: TreeParams):
    """Which nodes look for a split: impure, above max_depth, min_samples_split rows."""
    return ((positives > 0) & (positives < n) & (n >= params.min_samples_split)
            & (depth < params.max_depth))


def _grow(X, y, counts, params: TreeParams, samplers, by_value, table) -> list:
    """One tree per row of counts, grown level by level; see :func:`fit_tree`.

    counts[t, r] is how often row r is in tree t's sample, and a (tree, row)
    pair with a positive count is an entry. by_value[f] lists the rows
    ascending by feature f (a stable argsort), and table is
    ``_entropy_table(len(y))`` or None; a fit makes both once for all its batches.
    Each feature's entries are sorted once, by (tree, value), so that every
    open node's entries form one segment. A level scores all open nodes of
    all trees in one :func:`_best_cuts` call, then moves the entries of each
    split node into the segments of those children that are searched next,
    by a stable sort on the child index. A tree with a sampler draws
    candidate features for the nodes it searches in breadth-first order.
    Nodes are numbered breadth first, the order :class:`Tree` keeps.
    """
    n_features, values = X.shape[1], np.ascontiguousarray(X.T)  # feature f of row r at [f, r]
    tree_of, row_of = (a.astype(np.int32) for a in np.nonzero(counts))  # int32: half the bytes
    n_entries = len(tree_of)
    weight = counts[tree_of, row_of].astype(np.int32)
    positive = weight * y[row_of].astype(np.int32)
    entry = np.full(counts.shape, -1, dtype=np.int32)
    entry[tree_of, row_of] = np.arange(n_entries)
    ids = np.empty((n_features, n_entries), dtype=np.int32)  # by (tree, value) per feature
    for f, rows in enumerate(by_value):
        in_order = entry[:, rows]
        ids[f] = in_order[in_order >= 0]
    draw = samplers is not None and params.max_features < n_features

    tree = np.arange(len(counts))
    n = np.bincount(tree_of, weight, minlength=len(counts))
    pos = np.bincount(tree_of, positive, minlength=len(counts))
    sizes = np.bincount(tree_of, minlength=len(counts))
    del entry, in_order, tree_of
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
        f, thr, gain = _best_cuts(values, row_of, weight, positive, ids, sizes, candidates,
                                  table)
        split = gain > 0.0
        parents = nodes[split]
        children = first + len(tree) + 2 * np.arange(parents.size)  # left ones; right is +1
        splits.append((first + parents, children, f[split], thr[split]))
        first += len(tree)

        # the children: 2s is the left and 2s + 1 the right one of open node s
        seg = np.repeat(np.arange(nodes.size, dtype=np.int32), sizes)
        flat = np.take(f, seg) * len(X) + np.take(row_of, ids[0])  # row 0 has each entry once
        child = 2 * seg + (np.take(values, flat) > np.take(thr, seg))
        child_sizes, n, pos = (np.bincount(child, w, minlength=2 * nodes.size)
                               for w in (None, np.take(weight, ids[0]), np.take(positive, ids[0])))
        made = np.repeat(split, 2)
        tree, n, pos = np.repeat(tree[parents], 2), n[made], pos[made]
        depth += 1
        searched = _searched(n, pos, depth, params)

        # A stable sort on the child moves each searched child's entries into
        # one segment, keeping their order; the rest sort last and are cut off.
        kept = np.zeros(2 * nodes.size, dtype=bool)
        kept[made] = searched
        sizes = child_sizes[kept]
        key = np.empty(n_entries, np.int32)
        key[ids[0]] = np.where(kept[child], child, 2 * nodes.size)
        order = np.argsort(np.take(key, ids), axis=1, kind="stable")[:, :sizes.sum()]
        order += (np.arange(n_features) * ids.shape[1])[:, None]
        ids = np.take(ids, order)
        del order, seg, child, flat  # not held through the next level

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
    return _grow(X, y, np.ones((1, len(y)), dtype=np.intp), params, samplers,
                 np.argsort(X.T, axis=1, kind="stable"), None)[0]  # too few reads for a table


def _descend(tree: Tree, columns: np.ndarray) -> np.ndarray:
    """Leaf probability per row of columns, feature f of row r at [f, r], node by node.

    Each split partitions the rows that reach it, ties going left; pending
    (node, rows) pairs are popped, so live row sets are disjoint.
    """
    feature, threshold, left, right, p_up, _ = tree
    proba, pending = np.empty(columns.shape[1]), [(0, np.arange(columns.shape[1]))]
    while pending:
        node, rows = pending.pop()
        if feature[node] < 0:
            proba[rows] = p_up[node]
        elif rows.size:
            goes_left = columns[feature[node]][rows] <= threshold[node]
            pending += ((left[node], rows[goes_left]), (right[node], rows[~goes_left]))
    return proba


def _bitvector_probas(trees: list, columns: np.ndarray):
    """Leaf probabilities of trees of at most 64 leaves per row of columns, in tree order.

    Leaves are numbered left to right within each tree, and a split's mask
    has the bits of the leaves of its left subtree cleared. A row's leaf is
    the lowest set bit of the AND of the masks of the splits it goes right
    at (QuickScorer, Lucchese et al. 2015). With a row's rank r in its column
    (a stable argsort) and q the count of column values <= threshold, x >
    threshold is exactly r >= q, so ties go left and NaN goes right, as in
    :func:`_descend`; a NaN threshold has q = 0. Sorted by q, the splits of
    one tree on one feature that a row goes right at are a prefix, so a table
    of prefix ANDs over ranks, gathered by rank, stands for them. Leaf
    numbers and masks are set up for all trees together, one depth level at
    a time; rows are scored for as many trees at once as keep about
    _BATCH_ENTRIES (tree, row) pairs.
    """
    if not trees:
        return
    n_features, n_rows = columns.shape
    feature, threshold, left, right, p_up = (np.concatenate(c)
                                             for c in zip(*(tree[:5] for tree in trees)))
    sizes = np.array([len(tree.feature) for tree in trees])
    roots = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(len(trees)), sizes)
    left += roots[tree_of]  # node numbers over all trees; leaves' are not read
    right += roots[tree_of]
    levels, level = [], roots
    while level.size:
        level = level[feature[level] >= 0]  # the splits of one depth
        levels.append(level)
        level = np.concatenate((left[level], right[level]))
    n_leaves = np.ones(len(feature), dtype=np.int64)
    for s in reversed(levels):
        n_leaves[s] = n_leaves[left[s]] + n_leaves[right[s]]
    first = np.zeros(len(feature), dtype=np.int64)  # number of the node's leftmost leaf
    for s in levels:
        first[left[s]] = first[s]
        first[right[s]] = first[s] + n_leaves[left[s]]
    ones = np.uint64(2**64 - 1)
    mask = np.full(len(feature), ones)
    splits = np.flatnonzero(feature >= 0)
    width = n_leaves[left[splits]].astype(np.uint64)  # at most 63: the right subtree has one
    mask[splits] = ~(((np.uint64(1) << width) - np.uint64(1)) << first[splits].astype(np.uint64))
    leaf_p = np.zeros((len(trees), 64))
    leaves = np.flatnonzero(feature < 0)
    leaf_p[tree_of[leaves], first[leaves]] = p_up[leaves]

    order = np.argsort(columns, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n_rows), axis=1)
    tables = []  # per feature with splits: ranks, prefix ANDs per tree, rows each spans
    for f in range(n_features):
        s = splits[feature[splits] == f]
        if not s.size:
            continue
        q = np.searchsorted(np.take(columns[f], order[f]), threshold[s], side="right")
        q[np.isnan(threshold[s])] = 0  # x <= NaN is false: every row goes right
        by = np.lexsort((q, tree_of[s]))  # by tree, then threshold
        s, q = s[by], q[by]
        t = tree_of[s]
        count = np.bincount(t, minlength=len(trees))
        at = np.arange(1, s.size + 1) - np.repeat(np.cumsum(count) - count, count)
        ands = np.full((len(trees), count.max() + 1), ones)
        ands[t, at] = mask[s]
        np.bitwise_and.accumulate(ands, axis=1, out=ands)
        bounds = np.full((len(trees), count.max() + 2), n_rows)
        bounds[:, 0] = 0
        bounds[t, at] = q
        tables.append((rank[f], ands, np.diff(bounds, axis=1)))

    step = max(1, _BATCH_ENTRIES // max(n_rows, 1))
    for low in range(0, len(trees), step):
        chunk = slice(low, low + step)
        n_trees = len(leaf_p[chunk])
        word = np.full((n_trees, n_rows), ones)
        for r, ands, spans in tables:
            table = np.repeat(ands[chunk].ravel(), spans[chunk].ravel())
            word &= np.take(table.reshape(n_trees, n_rows), r, axis=1)
        word ^= word - np.uint64(1)  # the bits up to and including the lowest set one
        leaf = np.bitwise_count(word).astype(np.intp)
        leaf += np.arange(-1, 64 * n_trees - 1, 64)[:, None]  # into leaf_p[chunk], flat
        yield from np.take(leaf_p[chunk], leaf)


def _tree_probas(trees: list, X: np.ndarray):
    """Each tree's leaf probability of class 1 per row of X, in tree order. A tree of at
    most 64 leaves, one uint64 word, is scored by bitvectors, all of them together (see
    _bitvector_probas); a larger one descends (_descend)."""
    columns = np.asarray(X, dtype=float).T
    in_word = [len(tree.feature) <= 2 * 64 - 1 for tree in trees]  # L leaves: 2L - 1 nodes
    by_word = _bitvector_probas([tree for tree, w in zip(trees, in_word) if w], columns)
    for tree, w in zip(trees, in_word):
        yield next(by_word) if w else _descend(tree, columns)


def tree_predict_proba(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf probability of class 1 per row; x[feature] <= threshold goes left."""
    return next(_tree_probas([tree], X))


def bootstrap_sample(n: int, seed: int) -> np.ndarray:
    """n uniform draws with replacement from [0, n), deterministic per seed."""
    if n < 1:
        raise ValueError("bootstrap_sample needs n >= 1")
    return np.random.default_rng(seed).integers(0, n, size=n)


def _batches(n: int, trees: range, seed: int, bootstrap_fn):
    """Row counts and feature samplers of the consecutive trees in trees, one batch at a time.

    A batch holds whole trees: one, or as many as fit in _BATCH_ENTRIES
    entries. Tree t depends only on (seed, t), so the batches move no bytes.
    """
    counts, samplers, entries = [], [], 0
    for t in trees:
        tree_seed = mix64(seed, t)
        in_bag = np.bincount(np.asarray(bootstrap_fn(n, tree_seed)), minlength=n)
        if counts and entries + np.count_nonzero(in_bag) > _BATCH_ENTRIES:
            yield np.array(counts), samplers
            counts, samplers, entries = [], [], 0
        counts.append(in_bag)
        samplers.append(np.random.default_rng(mix64(tree_seed, _FEATURE_STREAM)))
        entries += np.count_nonzero(in_bag)
    yield np.array(counts), samplers


def _grow_range(X, y, trees: range, params, seed, bootstrap_fn, by_value, table):
    """The trees of one range of tree indices and their out-of-bag masks, in tree order."""
    grown, oob = [], []
    for counts, samplers in _batches(len(y), trees, seed, bootstrap_fn):
        grown += _grow(X, y, counts, params, samplers, by_value, table)
        oob.append(counts == 0)
    return grown, oob


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where it cannot ask or cannot fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork(work):
    """Start a process that pickles ``work()``, or the exception it raised, to a pipe.

    Returns (pid, the pipe's read end as a binary file). The child shares the
    parent's arrays copy-on-write and leaves through os._exit, so it never
    returns into the caller, runs no exit handler and flushes no inherited
    buffer. work must call no BLAS: a forked child has none of the parent's
    threads, so a BLAS thread pool may wait on them for ever.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    status = 1
    try:
        os.close(read)
        try:
            reply = pickle.dumps((True, work()))
        except Exception as exc:
            reply = pickle.dumps((False, exc))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(reply)
        status = 0
    finally:
        os._exit(status)


def _reply(pid: int, pipe):
    """A started process's result: read to EOF and reaped; its exception is raised here."""
    data = pipe.read()
    pipe.close()
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        ok, value = pickle.loads(data)
    except Exception:  # EOF: it died before replying
        raise TrainingDivergedError(f"a forest-growing process ended without its trees "
                                    f"(exit status {status})") from None
    if not ok:
        raise value
    return value


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

    The trees are split into contiguous, near-equal ranges, one per available
    CPU but no more than the forest could have batches, so a forest of at
    most _BATCH_ENTRIES (tree, row) pairs stays in this process. This process
    grows the first range; a forked process grows each other range from the
    same sorted columns and entropy table, and sends back its trees and
    out-of-bag masks. They are joined in tree order, so the count of processes
    moves no bytes. A process's exception is raised here with its type and
    message; one that ends without a reply raises TrainingDivergedError; and
    none outlives this call.

    Once every tree is grown, :func:`oob_error` scores the joined trees on
    their out-of-bag masks; it is None, with a warning, when no row is out of
    bag.
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
    by_value, table = np.argsort(X.T, axis=1, kind="stable"), _entropy_table(n)
    most_batches = -(-n_estimators // max(1, _BATCH_ENTRIES // n))  # a batch holds whole trees
    n_ranges = min(_cpu_count(), most_batches)
    bounds = [n_estimators * w // n_ranges for w in range(n_ranges + 1)]
    grow = functools.partial(_grow_range, X, y, params=params, seed=seed,
                             bootstrap_fn=bootstrap_fn, by_value=by_value, table=table)
    helpers = []  # (pid, pipe) of each started process not yet reaped
    try:
        for low, high in zip(bounds[1:-1], bounds[2:]):
            helpers.append(_fork(functools.partial(grow, range(low, high))))
        forest.trees, oob = grow(range(bounds[0], bounds[1]))
        while helpers:
            more_trees, more_oob = _reply(*helpers.pop(0))
            forest.trees += more_trees
            oob += more_oob
    finally:
        for pid, pipe in helpers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    forest.oob_error = oob_error(forest.trees, np.concatenate(oob), X, y)
    return forest


def oob_error(trees: list, oob: np.ndarray, X: np.ndarray, y: np.ndarray) -> float | None:
    """Misclassification rate of rows under the trees whose bootstrap excludes them.

    oob[t, r] is True when row r is out of tree t's bootstrap. Each row is
    scored by the mean of those trees' leaf probabilities, summed in tree
    order (ties classify as 1), and rows in every bootstrap are left out of
    the denominator. None, with a warning, when no row is out of bag. One
    scoring pass gives every tree all rows; each tree adds its out-of-bag ones.
    """
    prob_sum = np.zeros(len(y))
    for tree_oob, proba in zip(oob, _tree_probas(trees, X)):
        prob_sum[tree_oob] += proba[tree_oob]
    tree_count = np.count_nonzero(oob, axis=0)
    covered = tree_count > 0
    if not covered.any():
        warnings.warn("OOB error undefined: every sample appears in every bootstrap")
        return None
    pred = (prob_sum[covered] / tree_count[covered] >= 0.5).astype(np.int64)
    return float(np.mean(pred != y[covered]))


def predict_forest(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """Class 1 when the mean leaf probability over trees is at least 0.5."""
    total = sum(_tree_probas(forest.trees, X))  # in tree order, as np.mean
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
    """A tree from its nested JSON form, numbered as grown.

    Split features are ints in range and thresholds finite numbers; leaf p_up
    is a number in [0, 1] and n an int. A string or bool in their place is refused.
    """
    nodes, queue = [], [d]
    for node in queue:  # first in, first out: each split queues its left, then right child
        if "p_up" in node:
            p_up = json_number(node["p_up"], "leaf p_up")
            if not 0.0 <= p_up <= 1.0:
                raise ValueError(f"leaf p_up must be in [0, 1], got {p_up!r}")
            nodes.append([-1, 0.0, -1, -1, p_up, json_number(node["n"], "leaf n", integer=True)])
            continue
        feature = json_number(node["feature"], "split feature", integer=True)
        if not 0 <= feature < N_FEATURES:
            raise ValueError(f"split feature must be in 0..{N_FEATURES - 1}, got {feature!r}")
        threshold = json_number(node["threshold"], "split threshold")
        nodes.append([feature, threshold, len(queue), len(queue) + 1, 0.0, 0])
        queue += (node["left"], node["right"])
    return _tree(nodes)


def forest_to_dict(forest: ForestModel) -> dict:
    return {
        "n_estimators": forest.n_estimators,
        "seed": forest.seed,
        "params": asdict(forest.params),
        "oob_error": forest.oob_error,
        "trees": [node_to_dict(tree) for tree in forest.trees],
    }


def forest_from_dict(d: dict) -> ForestModel:
    n_estimators = json_number(d["n_estimators"], "n_estimators", integer=True)
    if not d["trees"]:
        raise ValueError("forest has no trees")
    if n_estimators != len(d["trees"]):
        raise ValueError(f"n_estimators {n_estimators!r} but {len(d['trees'])} trees")
    return ForestModel(
        trees=[node_from_dict(t) for t in d["trees"]],
        params=TreeParams.from_dict(d["params"]),
        n_estimators=n_estimators,
        seed=json_number(d["seed"], "seed", integer=True),
        oob_error=None if d["oob_error"] is None else json_number(d["oob_error"], "oob_error"),
    )


def forest_to_nodes(forest: ForestModel) -> bytes | None:
    """The payload of the forest's node cache; None when its seed or a count does
    not fit in 64 bits, which leaves the forest to its model file alone."""
    head = np.zeros(1, _NODES_HEAD)
    params = forest.params
    try:
        head[0] = (forest.n_estimators, forest.seed, params.max_depth,
                   params.min_samples_split, params.max_features,
                   math.nan if forest.oob_error is None else forest.oob_error)
    except OverflowError:
        return None
    sizes = np.array([len(tree.feature) for tree in forest.trees], dtype="<i8")
    return b"".join([head.tobytes(), sizes.tobytes(),
                     *(np.concatenate(column).astype(dtype).tobytes()
                       for column, dtype in zip(zip(*forest.trees), _NODE_COLUMNS))])


def forest_from_nodes(payload) -> ForestModel | None:
    """The forest of a node cache's payload; None unless it is one that
    forest_from_dict could have loaded, which these checks, over all nodes at
    once, make sure of. There are n_estimators trees, at least one; params are
    valid, and oob_error is finite or none. Each tree is numbered as
    node_from_dict numbers it: its k-th split (feature 0..4, finite threshold,
    p_up and n 0) has its children at nodes 2k + 1 and 2k + 2, after itself,
    and a tree of s splits has 2s + 1 nodes, so every node but the root has
    one parent, before it, and none is unreachable; a leaf has feature, left
    and right -1, threshold 0, p_up in [0, 1] and n at least 0.
    """
    size, start = len(payload), _NODES_HEAD.itemsize
    if size < start:
        return None
    head = np.frombuffer(payload, _NODES_HEAD, 1)[0]
    params = TreeParams(*(int(head[key]) for key in ("max_depth", "min_samples_split",
                                                     "max_features")))
    n_trees, oob_error = int(head["n_estimators"]), float(head["oob_error"])
    try:
        params.validate(N_FEATURES)
    except ValueError:
        return None
    if math.isinf(oob_error) or not 1 <= n_trees <= (size - start) // 8:
        return None
    sizes = np.frombuffer(payload, "<i8", n_trees, start)
    start += 8 * n_trees
    n_nodes, rest = divmod(size - start, 8 * len(_NODE_COLUMNS))
    if rest or not ((1 <= sizes) & (sizes <= n_nodes)).all() or sizes.sum() != n_nodes:
        return None
    columns = [np.frombuffer(payload, dtype, n_nodes, start + 8 * n_nodes * i)
               for i, dtype in enumerate(_NODE_COLUMNS)]
    feature, threshold, left, right, p_up, n = columns
    firsts = np.cumsum(sizes) - sizes
    split = feature >= 0
    before = np.cumsum(split) - split  # splits before each node, then within its tree
    before -= np.repeat(before[firsts], sizes)
    child = 2 * before + 1
    canonical = np.where(
        split, (feature < N_FEATURES) & (left == child) & (right == child + 1)
        & (np.arange(n_nodes) - np.repeat(firsts, sizes) < child) & np.isfinite(threshold)
        & (p_up == 0.0) & (n == 0),
        (feature == -1) & (left == -1) & (right == -1) & (threshold == 0.0)
        & (0.0 <= p_up) & (p_up <= 1.0) & (n >= 0))
    if not (canonical.all() and np.array_equal(
            sizes, 2 * np.add.reduceat(split, firsts, dtype=np.int64) + 1)):
        return None
    columns = (c.astype(np.intp if c.dtype.kind == "i" else float, copy=False)
               for c in columns)
    return ForestModel(trees=[Tree(*c) for c in zip(*(np.split(c, firsts[1:]) for c in columns))],
                       params=params, n_estimators=n_trees, seed=int(head["seed"]),
                       oob_error=None if math.isnan(oob_error) else oob_error)
