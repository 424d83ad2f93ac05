"""End-to-end acceptance suite.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
live). Criteria 1-3 need the real exchange data and are skipped unless the
CANDLEBIAS_DATA_DIR environment variable points at a directory containing
stock_prices.csv; everything else runs on shipped fixtures and synthetic
generators.
"""

import contextlib
import json
import math
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from candlebias import cli, logistic, metrics, neural, trees
from candlebias.dataset import ingest_csv

from conftest import FIXTURE_DIR, separable_classification, synthetic_candles, write_raw_csv
from test_trees import oracle_best_split, predict_tree, random_instance, tree_predict


def _locate_jpx():
    data_dir = os.environ.get(cli.DATA_DIR_ENV)
    if not data_dir:
        return None
    path = Path(data_dir) / cli.DATA_FILE_NAME
    return path if path.exists() else None


JPX_CSV = _locate_jpx()
needs_jpx = pytest.mark.skipif(
    JPX_CSV is None,
    reason=f"real dataset not available; set {cli.DATA_DIR_ENV} to a directory "
           f"containing {cli.DATA_FILE_NAME}",
)

TABLE_TARGETS = {"LR": (0.55, 0.71), "DT": (0.59, 0.74), "RF": (0.63, 0.74)}


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


@pytest.fixture(scope="module")
def real_compare(tmp_path_factory):
    out = tmp_path_factory.mktemp("real") / "out"
    assert cli.main(["prepare", "--data", str(JPX_CSV), "--out", str(out)]) == 0
    started = time.monotonic()
    assert cli.main(["compare", "--out", str(out), "--format", "json"]) == 0
    elapsed = time.monotonic() - started
    doc = json.loads((out / "report_compare.json").read_text())
    return {m["model"]: m for m in doc["models"]}, elapsed


@needs_jpx
def test_criterion_1_comparison_table_reproduced(real_compare):
    models, elapsed = real_compare
    with criterion(1, "LR/DT/RF validation scores within 0.05 of the reference table"):
        for name, (ref_acc, ref_f1) in TABLE_TARGETS.items():
            acc, score = models[name]["accuracy"], models[name]["f1"]
            assert abs(acc - ref_acc) <= 0.05, f"{name} accuracy {acc:.3f} vs {ref_acc}"
            assert abs(score - ref_f1) <= 0.05, f"{name} F1 {score:.3f} vs {ref_f1}"
        assert elapsed < 300.0, f"compare took {elapsed:.0f}s"


@needs_jpx
def test_criterion_2_fnn_test_scores(real_compare):
    models, _ = real_compare
    with criterion(2, "FNN test accuracy 0.59 +- 0.06 and test loss 0.68 +- 0.08"):
        assert abs(models["FNN"]["accuracy"] - 0.59) <= 0.06
        assert models["FNN"]["loss"] is not None
        assert abs(models["FNN"]["loss"] - 0.68) <= 0.08


@needs_jpx
def test_criterion_3_everything_beats_coin_flip(real_compare):
    models, _ = real_compare
    with criterion(3, "all four models above 0.50 accuracy on their split"):
        for name in ("LR", "DT", "RF", "FNN"):
            assert models[name]["accuracy"] > 0.50, f"{name}: {models[name]['accuracy']}"


def test_criterion_4_lr_gradient_check():
    with criterion(4, "LR analytic gradient vs central differences, 20 seeds"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = np.hstack([np.ones((12, 1)), rng.normal(size=(12, 5))])
            y = rng.integers(0, 2, size=12)
            theta = rng.normal(size=6)
            analytic = logistic.cost_and_gradient(X, y, theta)[1]
            fd = np.empty(6)
            h = 1e-6
            for j in range(6):
                up, down = theta.copy(), theta.copy()
                up[j] += h
                down[j] -= h
                fd[j] = (logistic.cost_and_gradient(X, y, up)[0]
                         - logistic.cost_and_gradient(X, y, down)[0]) / (2 * h)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic),
                                                      np.linalg.norm(fd))
            assert rel < 1e-6, f"seed {seed}: rel {rel}"
            assert abs(logistic.cost_and_gradient(X, y, np.zeros(6))[0] - math.log(2.0)) < 1e-12


def test_criterion_5_nn_gradient_check():
    with criterion(5, "NN gradients within rel 1e-4 of central differences, 10 seeds"):
        h = 1e-5
        for seed in range(10):
            rng = np.random.default_rng(seed)
            model = neural.init_network(seed, (5, 8, 4, 1))
            X = rng.normal(size=(8, 5))
            y = rng.integers(0, 2, size=8).astype(float)
            _, cache = neural.forward(model, X, with_cache=True)
            gw, gb = neural.backward(model, cache, y)
            for arr, analytic in zip(model.weights + model.biases, gw + gb):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = neural.bce_loss(neural.forward(model, X), y)
                    arr[idx] = orig - h
                    down = neural.bce_loss(neural.forward(model, X), y)
                    arr[idx] = orig
                    fd = (up - down) / (2 * h)
                    a = analytic[idx]
                    rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
                    assert rel < 1e-4, f"seed {seed} param {idx}: {a} vs {fd}"


def test_criterion_6_best_split_equals_exhaustive_oracle():
    with criterion(6, "best_split matches the brute-force oracle on 200 instances"):
        checked_splits = 0
        for seed in range(200):
            X, y = random_instance(seed, max_n=64)
            got = trees.best_split(X, y)
            expected = oracle_best_split(X, y)
            if expected is None:
                assert got is None, f"seed {seed}"
            else:
                assert got[:2] == expected[:2], f"seed {seed}: {got} vs {expected}"
                checked_splits += 1
        assert checked_splits > 100  # the corpus must actually exercise splits


def test_criterion_7_single_tree_forest_equals_plain_tree():
    with criterion(7, "1-tree identity-bootstrap forest is bit-identical to the DT"):
        params = trees.TreeParams(max_depth=100, min_samples_split=2, max_features=5)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 64))
            X = rng.normal(size=(n, 5))
            y = rng.integers(0, 2, size=n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # empty OOB set is expected
                forest = trees.fit_forest(X, y, n_estimators=1, params=params,
                                          seed=seed,
                                          bootstrap_fn=lambda n, s: np.arange(n))
            tree = trees.fit_tree(X, y, params)
            queries = rng.normal(size=(32, 5))
            assert np.array_equal(
                np.array([predict_tree(forest.trees[0], q) for q in queries]),
                trees.tree_predict_proba(tree, queries))
            assert np.array_equal(trees.predict_forest(forest, queries),
                                  tree_predict(tree, queries))


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical compare reruns; tree t depends only on (seed, t)"):
        raw = write_raw_csv(tmp_path / "raw.csv", synthetic_candles(400, seed=7))
        blobs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert cli.main(["prepare", "--data", str(raw), "--out", str(out)]) == 0
            assert cli.main(["compare", "--out", str(out), "--seed", "42",
                             "--format", "csv"]) == 0
            blobs.append((out / "report_compare.csv").read_bytes())
        assert blobs[0] == blobs[1]

        X, y = separable_classification(300, seed=5)
        params = trees.TreeParams(max_depth=20, min_samples_split=10, max_features=3)
        full = trees.fit_forest(X, y, n_estimators=24, params=params, seed=3)
        prefix = trees.fit_forest(X, y, n_estimators=8, params=params, seed=3)
        assert json.dumps(trees.forest_to_dict(prefix)["trees"]) == \
            json.dumps(trees.forest_to_dict(full)["trees"][:8])


def test_criterion_9_all_positive_identities():
    with criterion(9, "all-positive predictor identities exact on 100 label vectors"):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            n = int(rng.integers(1, 400))
            y = rng.integers(0, 2, size=n)
            cm = metrics.confusion(y, np.ones(n, dtype=int))
            k = int(y.sum())
            assert cm.fn == 0 and cm.tn == 0
            assert metrics.accuracy(cm) == k / n
            if k == 0:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert metrics.f1(cm) == 0.0
            else:
                assert metrics.f1(cm) == (2 * k) / (n + k)


def test_criterion_10_oob_error_tracks_validation_error():
    with criterion(10, "OOB error within 0.10 of held-out validation error"):
        X, y = separable_classification(2000, seed=123)
        X_val, y_val = separable_classification(1000, seed=456)
        forest = trees.fit_forest(
            X, y, n_estimators=50,
            params=trees.TreeParams(max_depth=100, min_samples_split=20,
                                    max_features=3),
            seed=2024)
        val_error = float(np.mean(trees.predict_forest(forest, X_val) != y_val))
        assert forest.oob_error is not None
        assert abs(forest.oob_error - val_error) < 0.10, \
            f"oob {forest.oob_error:.3f} vs val {val_error:.3f}"


def test_criterion_11_labeling_oracle_over_fixture_corpus(tmp_path):
    with criterion(11, "Target == (Next > Close) on re-scan; one row dropped per series"):
        corpus = [(FIXTURE_DIR / "jpx_mini.csv", 6758)]
        for seed in (3, 19):
            path = tmp_path / f"series_{seed}.csv"
            write_raw_csv(path, synthetic_candles(120 + seed, seed=seed))
            corpus.append((path, 6758))

        for raw_path, code in corpus:
            out = tmp_path / f"out_{raw_path.stem}"
            assert cli.main(["prepare", "--data", str(raw_path), "--code", str(code),
                             "--out", str(out)]) == 0
            (dates, _), _ = ingest_csv(raw_path, code)
            lines = (out / "dataset.csv").read_text().strip().splitlines()[1:]
            assert len(lines) == len(dates) - 1  # exactly one dropped row
            for line in lines:
                cells = line.split(",")
                close, nxt, target = float(cells[4]), float(cells[6]), int(cells[7])
                assert target == (1 if nxt > close else 0)
