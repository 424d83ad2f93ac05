import csv
import dataclasses
import datetime
from pathlib import Path

import numpy as np
import pytest

from candlebias import cli
from candlebias.dataset import Standardizer

FIXTURE_DIR = Path(__file__).parent / "data"

RAW_HEADER = ["RowId", "Date", "SecuritiesCode", "Open", "High", "Low", "Close",
              "Volume", "AdjustmentFactor"]


def synthetic_candles(n_days, seed, code=6758, start_price=1000.0):
    """Seeded OHLCV random walk with well-formed candles (low <= body <= high)."""
    rng = np.random.default_rng(seed)
    rows = []
    close = start_price
    date = datetime.date(2017, 1, 4)
    for _ in range(n_days):
        open_ = close * (1.0 + rng.normal(0.0, 0.01))
        close = open_ * (1.0 + rng.normal(0.0, 0.02))
        high = max(open_, close) * (1.0 + abs(rng.normal(0.0, 0.005)))
        low = min(open_, close) * (1.0 - abs(rng.normal(0.0, 0.005)))
        volume = float(rng.integers(100_000, 10_000_000))
        rows.append((date, code, open_, high, low, close, volume))
        date += datetime.timedelta(days=1)
        while date.weekday() >= 5:
            date += datetime.timedelta(days=1)
    return rows


def write_raw_csv(path, candle_rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER)
        for i, (date, code, o, h, l, c, v) in enumerate(candle_rows):
            writer.writerow([f"{date}_{code}", date.isoformat(), code, o, h, l, c, v, 1.0])
    return path


@pytest.fixture
def synthetic_csv(tmp_path):
    """400-day synthetic OHLCV file for one security."""
    return write_raw_csv(tmp_path / "synthetic.csv", synthetic_candles(400, seed=7))


@pytest.fixture
def jpx_mini_csv():
    return FIXTURE_DIR / "jpx_mini.csv"


def cli_labels(proba, model, X):
    """Labels of unscaled X from the 0.5 threshold that evaluate and compare apply.

    Scores through an identity standardizer, so ``proba`` sees X itself.
    """
    identity = Standardizer(mean=np.zeros(X.shape[1]), stddev=np.ones(X.shape[1]))
    return cli._score_proba(proba, model, identity, X, np.zeros(len(X)))[0]


def separable_classification(n, seed, noise=0.10):
    """5-feature rows whose label follows a fixed linear rule with label noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] - 0.25 * X[:, 2] > 0.0).astype(np.int64)
    flip = rng.random(n) < noise
    y[flip] = 1 - y[flip]
    return X, y



def _with_first_tree(forest, columns: dict):
    return dataclasses.replace(forest, trees=[type(forest.trees[0])(**columns),
                                              *forest.trees[1:]])


def _set_nodes(*edits):
    """The edit of a forest that sets, in a copy of its first tree, each (column,
    node, value) of edits; node "leaf" is the tree's first leaf."""
    def edit(forest):
        columns = {name: column.copy() for name, column in forest.trees[0]._asdict().items()}
        leaf = int(np.flatnonzero(columns["feature"] < 0)[0])
        for name, node, value in edits:
            columns[name][leaf if node == "leaf" else node] = value
        return _with_first_tree(forest, columns)
    return edit


def _leaf_appended(forest):
    """The forest with a copy of its first tree's first leaf added to that tree."""
    columns = forest.trees[0]._asdict()
    leaf = int(np.flatnonzero(columns["feature"] < 0)[0])
    return _with_first_tree(forest, {k: np.append(v, v[leaf]) for k, v in columns.items()})


# A leaf at node 0 and at node 1 a split whose children are nodes 1 and 2: the
# children of the first split sit at 1 and 2, but node 1 is its own child.
_SELF_CHILD = {"feature": np.array([-1, 0, -1]), "threshold": np.array([0.0, 0.5, 0.0]),
               "left": np.array([-1, 1, -1]), "right": np.array([-1, 2, -1]),
               "p_up": np.array([0.5, 0.0, 1.0]), "n": np.array([1, 0, 2])}

# Edits of a forest whose first tree splits at nodes 0 and 1; each gives a
# forest that node_from_dict could not have built, so its node cache is refused.
NODE_CACHE_FAULTS = {
    "child_out_of_range": _set_nodes(("left", 0, 10**6), ("right", 0, 10**6 + 1)),
    "left_child_is_the_root": _set_nodes(("left", 0, 0)),
    "right_child_points_back_to_the_root": _set_nodes(("right", 1, 0)),
    "split_is_its_own_child": lambda f: _with_first_tree(f, _SELF_CHILD),
    "children_swapped": _set_nodes(("left", 0, 2), ("right", 0, 1)),
    "unreachable_leaf": _leaf_appended,
    "feature_5": _set_nodes(("feature", 0, 5)),
    "leaf_feature_minus_2": _set_nodes(("feature", "leaf", -2)),
    "leaf_with_a_left_child": _set_nodes(("left", "leaf", 1)),
    "leaf_with_a_right_child": _set_nodes(("right", "leaf", 2)),
    "threshold_nan": _set_nodes(("threshold", 0, np.nan)),
    "threshold_infinite": _set_nodes(("threshold", 1, -np.inf)),
    "leaf_threshold_not_zero": _set_nodes(("threshold", "leaf", 0.5)),
    "p_up_1.5": _set_nodes(("p_up", "leaf", 1.5)),
    "p_up_negative": _set_nodes(("p_up", "leaf", -0.25)),
    "p_up_nan": _set_nodes(("p_up", "leaf", np.nan)),
    "split_p_up_not_zero": _set_nodes(("p_up", 0, 0.5)),
    "negative_n": _set_nodes(("n", "leaf", -1)),
    "split_n_not_zero": _set_nodes(("n", 0, 3)),
    "more_trees_than_n_estimators": lambda f: dataclasses.replace(
        f, n_estimators=len(f.trees) - 1),
    "fewer_trees_than_n_estimators": lambda f: dataclasses.replace(
        f, n_estimators=len(f.trees) + 1),
    "max_features_6": lambda f: dataclasses.replace(
        f, params=dataclasses.replace(f.params, max_features=6)),
    "max_depth_0": lambda f: dataclasses.replace(
        f, params=dataclasses.replace(f.params, max_depth=0)),
    "oob_error_infinite": lambda f: dataclasses.replace(f, oob_error=np.inf),
}
