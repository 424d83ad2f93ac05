"""Deterministic JPX-shaped input files for the benchmark workloads.

Everything here is a pure function of its arguments (the workload seed among
them), so the same seed always gives byte-identical files.

``single_security`` reproduces the random walk of the test suite's
``synthetic_candles(n, seed)`` and its CSV layout draw for draw, so the
``paper_compare`` workload at 1200 days and seed 7 is the ROADMAP baseline.
The benchmark keeps its own copy because the program under test never ships
its test helpers. ``sub_seed`` numbers further walks of the same security.

``multi_security`` writes a file in the Kaggle ``stock_prices.csv`` layout:
ordered by date, one row per security per trading day, with ``RowId`` and
``AdjustmentFactor``. It plants a fixed number of defective rows for the
benchmark's code so the ingest row accounting can be checked exactly.
"""

from __future__ import annotations

import csv
import datetime

import numpy as np

START_DATE = datetime.date(2017, 1, 4)
RAW_HEADER = ["RowId", "Date", "SecuritiesCode", "Open", "High", "Low", "Close",
              "Volume", "AdjustmentFactor"]
KAGGLE_HEADER = RAW_HEADER + ["ExpectedDividend", "SupervisionFlag", "Target"]
TARGET_CODE = 6758

# Defects planted in the TARGET_CODE rows, per kind. Empty and unparseable
# price cells are "missing" to the ingester; a High below the candle body is
# "malformed".
PLANTED_PER_KIND = 4
# Share of the other securities' rows that carry the same defects, so the
# parser meets them at a realistic rate everywhere in the file.
DEFECT_SHARE = {"empty": 0.004, "garbage": 0.001, "inconsistent": 0.001}
_GARBAGE = ("n/a", "#VALUE!", "12.3.4", "1O2.0", "-")


def trading_days(n_days: int) -> list[datetime.date]:
    """The first n_days weekdays from START_DATE."""
    days = []
    date = START_DATE
    while len(days) < n_days:
        days.append(date)
        date += datetime.timedelta(days=1)
        while date.weekday() >= 5:
            date += datetime.timedelta(days=1)
    return days


def single_candles(n_days: int, seed: int, code: int = TARGET_CODE,
                   start_price: float = 1000.0) -> list[tuple]:
    """Seeded OHLCV random walk with well-formed candles (low <= body <= high)."""
    rng = np.random.default_rng(seed)
    rows = []
    close = start_price
    for date in trading_days(n_days):
        open_ = close * (1.0 + rng.normal(0.0, 0.01))
        close = open_ * (1.0 + rng.normal(0.0, 0.02))
        high = max(open_, close) * (1.0 + abs(rng.normal(0.0, 0.005)))
        low = min(open_, close) * (1.0 - abs(rng.normal(0.0, 0.005)))
        volume = float(rng.integers(100_000, 10_000_000))
        rows.append((date, code, open_, high, low, close, volume))
    return rows


def sub_seed(seed: int, k: int) -> int:
    """Seed of walk k of a workload; walk 0 uses the workload seed itself."""
    return seed + 100_000 * k


def single_security(path, n_days: int, seed: int, n_walks: int = 1) -> dict:
    """Write one security's candles; returns the row accounting ingest must report.

    With n_walks > 1 the file holds walks 0..n_walks-1 back to back, each
    restarting at the same price, on consecutive trading days. Every walk
    then covers the price range the models were trained on, so scoring cost
    does not hinge on how far one long walk happens to drift.
    """
    rows = [r for k in range(n_walks) for r in single_candles(n_days, sub_seed(seed, k))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_HEADER)
        for date, (_, code, o, h, l, c, v) in zip(trading_days(len(rows)), rows):
            writer.writerow([f"{date}_{code}", date.isoformat(), code, o, h, l, c, v, 1.0])
    return {"input_rows": len(rows), "matched_rows": len(rows),
            "dropped_missing": 0, "dropped_malformed": 0}


def _codes(n_codes: int, rng: np.random.Generator) -> np.ndarray:
    others = rng.choice(np.setdiff1d(np.arange(1300, 10000), [TARGET_CODE]),
                        size=n_codes - 1, replace=False)
    return np.sort(np.append(others, TARGET_CODE))


def _plant(kind_of_cell: np.ndarray, target_col: int, rng: np.random.Generator) -> None:
    """Mark defect kinds (1 empty, 2 garbage, 3 inconsistent) in a days x codes grid."""
    n_days, n_codes = kind_of_cell.shape
    kinds = list(DEFECT_SHARE)
    days = rng.choice(n_days, size=PLANTED_PER_KIND * len(kinds), replace=False)
    for k, day_block in enumerate(np.split(days, len(kinds))):
        kind_of_cell[day_block, target_col] = k + 1
    flat = kind_of_cell.reshape(-1)
    eligible = np.flatnonzero(np.arange(flat.size) % n_codes != target_col)
    counts = [round(DEFECT_SHARE[k] * eligible.size) for k in kinds]
    picked = rng.choice(eligible, size=sum(counts), replace=False)
    start = 0
    for k, count in enumerate(counts):
        flat[picked[start:start + count]] = k + 1
        start += count


def multi_security(path, n_days: int, n_codes: int, seed: int) -> dict:
    """Write a Kaggle-layout file for n_codes securities over n_days trading days.

    Returns the row accounting ``prepare --code TARGET_CODE`` must report.
    Rounding prices to 0.1 is monotone, so candles that are well formed
    before formatting stay well formed after it.
    """
    rng = np.random.default_rng(seed)
    codes = _codes(n_codes, rng)
    target_col = int(np.searchsorted(codes, TARGET_CODE))
    shape = (n_days, n_codes)

    start = np.exp(rng.uniform(np.log(200.0), np.log(20000.0), size=n_codes))
    close = start * np.cumprod(1.0 + rng.normal(0.0, 0.02, size=shape), axis=0)
    prev = np.vstack([start, close[:-1]])
    open_ = prev * (1.0 + rng.normal(0.0, 0.01, size=shape))
    high = np.maximum(open_, close) * (1.0 + np.abs(rng.normal(0.0, 0.005, size=shape)))
    low = np.minimum(open_, close) * (1.0 - np.abs(rng.normal(0.0, 0.005, size=shape)))
    volume = rng.integers(1_000, 5_000_000, size=shape)
    target = rng.normal(0.0, 0.02, size=shape)
    kind = np.zeros(shape, dtype=np.int8)
    _plant(kind, target_col, rng)
    garbage_pick = rng.integers(0, len(_GARBAGE), size=shape)
    garbage_col = rng.integers(0, 4, size=shape)

    good = "%s_%d,%s,%d,%.1f,%.1f,%.1f,%.1f,%d,1.0,,False,%.6f\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(KAGGLE_HEADER) + "\n")
        for d, date in enumerate(trading_days(n_days)):
            iso = date.isoformat()
            stamp = iso.replace("-", "")
            rows = zip(codes.tolist(), open_[d].tolist(), high[d].tolist(),
                       low[d].tolist(), close[d].tolist(), volume[d].tolist(),
                       target[d].tolist(), kind[d].tolist())
            lines = []
            for c, (code, o, h, l, cl, v, t, k) in enumerate(rows):
                if k == 0:
                    lines.append(good % (stamp, code, iso, code, o, h, l, cl, v, t))
                    continue
                prices = ["%.1f" % x for x in (o, h, l, cl)]
                if k == 1:
                    prices = ["", "", "", ""]
                    v = 0
                elif k == 2:
                    prices[int(garbage_col[d, c])] = _GARBAGE[int(garbage_pick[d, c])]
                else:
                    prices[1] = "%.1f" % (min(o, cl) * 0.99)
                lines.append("%s_%d,%s,%d,%s,%d,1.0,,False,%.6f\n"
                             % (stamp, code, iso, code, ",".join(prices), v, t))
            fh.write("".join(lines))

    planted = PLANTED_PER_KIND
    return {"input_rows": n_days * n_codes, "matched_rows": n_days,
            "dropped_missing": 2 * planted, "dropped_malformed": planted}
