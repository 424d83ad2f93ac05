"""OHLCV ingestion, next-day direction labeling, chronological splits, scaling.

The feature matrix column order is fixed package-wide as
(Close, Volume, Open, High, Low); every model module consumes this order.
Dates are kept only for ordering and split bookkeeping, never as a feature.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

FEATURE_COLUMNS = ("Close", "Volume", "Open", "High", "Low")
N_FEATURES = len(FEATURE_COLUMNS)
REQUIRED_COLUMNS = ("Date", "SecuritiesCode", "Open", "High", "Low", "Close", "Volume")
LABELED_COLUMNS = ("Date", "Open", "High", "Low", "Close", "Volume", "Next", "Target")


@dataclass(frozen=True)
class CandleRecord:
    """One trading day for one security."""

    date: datetime.date
    securities_code: int
    open: float
    high: float
    low: float
    close: float
    volume: float


@dataclass(frozen=True)
class IngestStats:
    """Row accounting from one ingestion pass."""

    total_rows: int
    matched_rows: int
    dropped_missing: int
    dropped_malformed: int


@dataclass(frozen=True)
class SplitRanges:
    """Contiguous, time-ordered row ranges covering the whole dataset."""

    train: range
    validation: range
    test: range

    def as_dict(self) -> dict:
        return {
            "train": [self.train.start, self.train.stop],
            "validation": [self.validation.start, self.validation.stop],
            "test": [self.test.start, self.test.stop],
        }


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix, next-day close and binary direction targets.

    ``features`` columns follow :data:`FEATURE_COLUMNS`. ``targets[i]`` is 1
    exactly when ``next_close[i] > features[i, 0]``. Arrays are read-only so
    instances can be shared across threads.
    """

    features: np.ndarray
    next_close: np.ndarray
    targets: np.ndarray
    dates: tuple
    split: SplitRanges | None = None

    def __post_init__(self):
        n = len(self.targets)
        if self.features.shape != (n, 5) or len(self.next_close) != n or len(self.dates) != n:
            raise ValueError("inconsistent LabeledDataset field lengths")
        if not np.array_equal(self.targets, (self.next_close > self.features[:, 0])):
            raise ValueError("targets inconsistent with next_close > close")
        for arr in (self.features, self.next_close, self.targets):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.targets)

    def rows(self, rng: range) -> np.ndarray:
        return self.features[rng.start:rng.stop]

    def labels(self, rng: range) -> np.ndarray:
        return self.targets[rng.start:rng.stop]


@dataclass(frozen=True)
class Standardizer:
    """Per-column mean and population standard deviation of the train range."""

    mean: np.ndarray
    stddev: np.ndarray

    def __post_init__(self):
        self.mean.setflags(write=False)
        self.stddev.setflags(write=False)

    def as_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "stddev": self.stddev.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        mean = np.asarray(d["mean"], dtype=float)
        stddev = np.asarray(d["stddev"], dtype=float)
        if mean.shape != (N_FEATURES,) or stddev.shape != (N_FEATURES,):
            raise ValueError(f"standardizer needs {N_FEATURES} means and stddevs, "
                             f"got shapes {mean.shape} and {stddev.shape}")
        return cls(mean=mean, stddev=stddev)


def _parse_float(cell) -> float | None:
    if cell is None:
        return None
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def ingest_csv(path, code: int) -> tuple[list[CandleRecord], IngestStats]:
    """Read a JPX-style OHLCV CSV and keep the rows of one security.

    Rows with a missing, unparseable or non-finite numeric field are dropped
    and counted, as are rows whose prices violate low <= min(open, close) and
    high >= max(open, close). Output is sorted by date ascending.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    with fh:
        reader = csv.DictReader(fh)
        try:
            records, counts = _ingest_rows(path, reader, code)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc

    if not records:
        raise DataError(f"{path}: no usable rows for securities code {code}")
    records.sort(key=lambda r: r.date)
    return records, IngestStats(*counts)


def _ingest_rows(path, reader: csv.DictReader, code: int):
    """Records of one security and the (total, matched, missing, malformed) counts."""
    header = reader.fieldnames or []
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise DataError(f"{path}: missing required columns {missing}")

    records = []
    total = matched = dropped_missing = dropped_malformed = 0
    for row in reader:
        total += 1
        code_cell = (row.get("SecuritiesCode") or "").strip()
        try:
            if int(code_cell) != code:
                continue
        except ValueError:
            continue
        matched += 1

        try:
            date = datetime.date.fromisoformat((row.get("Date") or "").strip())
        except ValueError:
            dropped_missing += 1
            continue
        values = [_parse_float(row.get(c)) for c in ("Open", "High", "Low", "Close", "Volume")]
        if any(v is None for v in values):
            dropped_missing += 1
            continue
        o, h, l, c, v = values
        if min(o, h, l, c) < 0.0 or v < 0.0 or l > min(o, c) or h < max(o, c):
            dropped_malformed += 1
            continue
        records.append(CandleRecord(date, code, o, h, l, c, v))
    return records, (total, matched, dropped_missing, dropped_malformed)


def write_records_csv(records, path) -> None:
    """Write candle records in the canonical ingestable layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REQUIRED_COLUMNS)
        for r in records:
            writer.writerow(
                [r.date.isoformat(), r.securities_code, r.open, r.high, r.low, r.close, r.volume]
            )


def label(records) -> LabeledDataset:
    """Build features, next-day close and up/down targets from ordered records.

    The final record has no successor and is dropped, so the output has one
    row fewer than the input. Ties (next close equal to close) label 0.
    """
    if len(records) < 2:
        raise DataError("labeling needs at least 2 records")
    dates = tuple(r.date for r in records[:-1])
    for a, b in zip(dates, dates[1:]):
        if a >= b:
            raise DataError(f"dates not strictly increasing at {b}")
    features = np.array(
        [[r.close, r.volume, r.open, r.high, r.low] for r in records[:-1]], dtype=float
    )
    next_close = np.array([r.close for r in records[1:]], dtype=float)
    targets = (next_close > features[:, 0]).astype(np.int64)
    return LabeledDataset(features, next_close, targets, dates)


def split_chronological(ds: LabeledDataset, train_frac: float, val_frac: float) -> LabeledDataset:
    """Partition rows into contiguous train/validation/test ranges, no shuffle."""
    if not (0.0 < train_frac and 0.0 < val_frac and train_frac + val_frac < 1.0):
        raise DataError("split fractions must be positive and sum to less than 1")
    n = len(ds)
    n_train = int(n * train_frac)
    n_val = int(n * val_frac)
    ranges = SplitRanges(
        train=range(0, n_train),
        validation=range(n_train, n_train + n_val),
        test=range(n_train + n_val, n),
    )
    if any(len(r) == 0 for r in (ranges.train, ranges.validation, ranges.test)):
        raise DataError(f"split {train_frac}/{val_frac} leaves an empty range for {n} rows")
    return dataclasses.replace(ds, split=ranges)


def fit_standardizer(ds: LabeledDataset) -> Standardizer:
    """Per-column mean and population stddev computed from the train range only."""
    if ds.split is None or len(ds.split.train) == 0:
        raise DataError("dataset has no train range to fit a standardizer on")
    train = ds.rows(ds.split.train)
    mean = train.mean(axis=0)
    stddev = train.std(axis=0)
    if np.any(stddev <= 0.0):
        bad = [FEATURE_COLUMNS[i] for i in np.nonzero(stddev <= 0.0)[0]]
        raise DataError(f"constant train column(s) {bad}: stddev is zero")
    return Standardizer(mean=mean, stddev=stddev)


def apply_standardizer(s: Standardizer, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != len(s.mean):
        raise ValueError(f"expected (N, {len(s.mean)}) features, got {features.shape}")
    return (features - s.mean) / s.stddev


def write_labeled_csv(ds: LabeledDataset, path) -> None:
    """Write the labeled dataset as Date,Open,High,Low,Close,Volume,Next,Target."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELED_COLUMNS)
        for i, date in enumerate(ds.dates):
            close, volume, open_, high, low = ds.features[i]
            writer.writerow(
                [date.isoformat(), open_, high, low, close, volume,
                 ds.next_close[i], int(ds.targets[i])]
            )


def read_labeled_csv(path) -> LabeledDataset:
    """Read a labeled CSV written by :func:`write_labeled_csv`.

    A row that does not parse raises DataError naming the file and line.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    dates, rows, nexts, targets = [], [], [], []
    with fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader, ()))
            if header != LABELED_COLUMNS:
                raise DataError(f"{path}: expected columns {LABELED_COLUMNS}, got {header}")
            for fields in reader:
                if not fields:
                    continue
                date, open_, high, low, close, volume, next_close, target = fields
                values = [float(close), float(volume), float(open_), float(high), float(low),
                          float(next_close)]
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"non-finite value in {fields[1:7]}")
                dates.append(datetime.date.fromisoformat(date))
                rows.append(values[:5])
                nexts.append(values[5])
                targets.append(int(target))
        except (ValueError, csv.Error) as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc

    if len(rows) == 0:
        raise DataError(f"{path}: empty labeled dataset")
    try:
        return LabeledDataset(
            features=np.array(rows, dtype=float),
            next_close=np.array(nexts, dtype=float),
            targets=np.array(targets, dtype=np.int64),
            dates=tuple(dates),
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
