import csv
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
