"""OHLCV ingestion, next-day direction labeling, chronological splits, scaling.

The feature matrix column order is fixed package-wide as (Close, Volume,
Open, High, Low); every model module consumes this order. Dates are kept, as
day ordinals, only for ordering and split bookkeeping, never as a feature.

Beside each dataset.csv it writes, write_labeled_csv always puts a binary row
cache, dataset.csv.rows, bound to the CSV's bytes by the digest rule of
:mod:`candlebias.cachefile`: its payload is one little-endian record (date
ordinal, the seven numbers) per row. Every LabeledDataset reads back from its
CSV, whose repr floats and ISO dates round-trip exactly, so the records are
what parsing the CSV gives. read_labeled_csv takes the records from the cache
when the digest binds it to the CSV it has just read, and otherwise parses the
CSV into records, one line at a time: the cache is never required, and a
stale or damaged one is ignored.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from . import cachefile
from .errors import DataError, json_number, writing

FEATURE_COLUMNS = ("Close", "Volume", "Open", "High", "Low")
N_FEATURES = len(FEATURE_COLUMNS)
REQUIRED_COLUMNS = ("Date", "SecuritiesCode", "Open", "High", "Low", "Close", "Volume")
LABELED_COLUMNS = ("Date", "Open", "High", "Low", "Close", "Volume", "Next", "Target")
# A dataset.csv.rows record, and a parsed row: the date's ordinal, then the other columns.
_RECORD = np.dtype([("Day", "<i8"), *((name, "<f8") for name in LABELED_COLUMNS[1:-1]),
                    (LABELED_COLUMNS[-1], "<i8")])
# The ordinals of datetime64's day 0 and of the last date an ISO date string can hold.
_EPOCH, _LAST_DAY = datetime.date(1970, 1, 1).toordinal(), datetime.date.max.toordinal()
_BLANK = ("\r\n", "\n", "\r")  # the lines csv.reader reads as empty rows
_REFUSED = re.compile(r"[^\x00-\x1b\x20-\x7f]")  # non-ASCII and the separators \x1c-\x1f
# Rows per write_labeled_csv block: whole columns of Python floats for a 12k-row
# history stayed resident after the write and raised the peak RSS of what followed.
_WRITE_BLOCK = 1024


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
    """Feature matrix, next-day close, binary direction targets and dates.

    ``features`` columns follow :data:`FEATURE_COLUMNS`. ``targets[i]``, an
    integer, is 1 exactly when ``next_close[i] > features[i, 0]``. ``dates``
    holds int64 day ordinals (``datetime.date.toordinal``), strictly increasing.
    With at least one row and only finite numbers, a dataset reads back from its
    dataset.csv. Arrays are read-only, so a dataset cannot change after it is built.
    """

    features: np.ndarray
    next_close: np.ndarray
    targets: np.ndarray
    dates: np.ndarray

    def __post_init__(self):
        n = len(self.targets)
        if (self.features.shape != (n, N_FEATURES) or len(self.next_close) != n
                or len(self.dates) != n):
            raise ValueError("inconsistent LabeledDataset field lengths")
        if not n:
            raise ValueError("empty labeled dataset")
        if not (np.isfinite(self.features).all() and np.isfinite(self.next_close).all()):
            raise ValueError("non-finite feature or next close")
        if self.targets.dtype.kind not in "iu":
            raise ValueError(f"targets must be integers, got {self.targets.dtype}")
        if not np.array_equal(self.targets, (self.next_close > self.features[:, 0])):
            raise ValueError("targets inconsistent with next_close > close")
        days = self.dates
        if not (days.dtype == np.int64 and 0 < days[0] <= days[-1] <= _LAST_DAY
                and (days[1:] > days[:-1]).all()):
            raise ValueError("dates must be increasing int64 day ordinals of years 1 to 9999")
        for arr in (self.features, self.next_close, self.targets, self.dates):
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
        if not isinstance(d, dict):
            raise ValueError(f"standardizer must be an object, got {d!r}")
        mean = json_number(d["mean"], "standardizer mean", (N_FEATURES,))
        stddev = json_number(d["stddev"], "standardizer stddev", (N_FEATURES,))
        if not np.all(stddev > 0.0):
            raise ValueError(f"standardizer stddevs must be positive, got {stddev.tolist()}")
        return cls(mean=mean, stddev=stddev)


def _parse_float(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def ingest_csv(path, code: int) -> tuple[tuple[list, list], IngestStats]:
    """Read a JPX-style OHLCV CSV and keep the candles of one security.

    Returns ``((dates, prices), stats)``: ``dates[i]`` is a ``datetime.date``
    and ``prices[i]`` that day's five prices in :data:`FEATURE_COLUMNS` order,
    sorted stably by date ascending. A UTF-8 byte-order mark is skipped.
    Columns are found by header name; a repeated name means its last column. Blank lines are skipped and not
    counted, and the cells a short row lacks count as missing. Rows with a
    missing, unparseable or non-finite field are dropped and counted, as are
    rows with a negative price or volume or whose prices violate
    low <= min(open, close) and high >= max(open, close).
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    with fh:
        reader = csv.reader(fh)
        try:
            dates, prices, counts = _ingest_rows(path, reader, code)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from exc

    if not dates:
        raise DataError(f"{path}: no usable rows for securities code {code}")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return ([dates[i] for i in order], [prices[i] for i in order]), IngestStats(*counts)


def _ingest_rows(path, reader, code: int):
    """Dates and prices of one security and the (total, matched, missing, malformed) counts."""
    index = {name: i for i, name in enumerate(next(reader, []))}
    missing = [c for c in REQUIRED_COLUMNS if c not in index]
    if missing:
        raise DataError(f"{path}: missing required columns {missing}")
    code_at, date_at = index["SecuritiesCode"], index["Date"]
    price_at = [index[c] for c in FEATURE_COLUMNS]
    width = max(index[c] for c in REQUIRED_COLUMNS) + 1

    dates, prices = [], []
    total = matched = dropped_missing = dropped_malformed = 0
    for row in reader:
        if not row:
            continue
        total += 1
        if len(row) < width:
            row += [""] * (width - len(row))
        try:
            if int(row[code_at]) != code:
                continue
        except ValueError:
            continue
        matched += 1

        try:
            date = datetime.date.fromisoformat(row[date_at].strip())
        except ValueError:
            dropped_missing += 1
            continue
        values = [_parse_float(row[i]) for i in price_at]
        if None in values:
            dropped_missing += 1
            continue
        c, v, o, h, l = values
        if min(o, h, l, c) < 0.0 or v < 0.0 or l > min(o, c) or h < max(o, c):
            dropped_malformed += 1
            continue
        dates.append(date)
        prices.append(values)
    return dates, prices, (total, matched, dropped_missing, dropped_malformed)


def label(dates, prices) -> LabeledDataset:
    """Build features, next-day close and up/down targets from date-ordered candles.

    ``prices[i]`` holds day ``dates[i]``'s prices in :data:`FEATURE_COLUMNS`
    order, as :func:`ingest_csv` returns them. The final day has no successor
    and is dropped, so the output has one row fewer than the input. Ties (next
    close equal to close) label 0.
    """
    if len(dates) < 2:
        raise DataError("labeling needs at least 2 records")
    days = np.fromiter(map(datetime.date.toordinal, dates), np.int64, len(dates))
    late = np.flatnonzero(days[1:] <= days[:-1])
    if late.size:
        raise DataError(f"dates not strictly increasing at {dates[late[0] + 1]}")
    prices = np.array(prices, dtype=float)
    features, next_close = prices[:-1], prices[1:, 0]
    targets = (next_close > features[:, 0]).astype(np.int64)
    return LabeledDataset(features, next_close, targets, days[:-1])


def split_chronological(n: int, train_frac: float, val_frac: float) -> SplitRanges:
    """Partition n rows into contiguous train/validation/test ranges, no shuffle."""
    if not (0.0 < train_frac and 0.0 < val_frac and train_frac + val_frac < 1.0):
        raise DataError("split fractions must be positive and sum to less than 1")
    n_train = int(n * train_frac)
    n_val = int(n * val_frac)
    ranges = SplitRanges(
        train=range(0, n_train),
        validation=range(n_train, n_train + n_val),
        test=range(n_train + n_val, n),
    )
    if any(len(r) == 0 for r in (ranges.train, ranges.validation, ranges.test)):
        raise DataError(f"split {train_frac}/{val_frac} leaves an empty range for {n} rows")
    return ranges


def fit_standardizer(train: np.ndarray) -> Standardizer:
    """Per-column mean and population stddev of the train rows, finite and stddev positive."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mean, stddev = train.mean(axis=0), train.std(axis=0)
    finite = np.isfinite(mean) & np.isfinite(stddev)
    for bad, why in ((~finite, "mean or stddev overflows the float range"),
                     (stddev <= 0.0, "stddev is zero")):
        if bad.any():
            columns = [FEATURE_COLUMNS[i] for i in np.flatnonzero(bad)]
            raise DataError(f"train column(s) {columns}: {why}")
    return Standardizer(mean=mean, stddev=stddev)


def apply_standardizer(s: Standardizer, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != len(s.mean):
        raise ValueError(f"expected (N, {len(s.mean)}) features, got {features.shape}")
    return (features - s.mean) / s.stddev


def write_labeled_csv(ds: LabeledDataset, path) -> None:
    """Write the labeled dataset as Date,Open,High,Low,Close,Volume,Next,Target.

    Lines end in CRLF and floats are written as repr, the bytes csv.writer
    writes; no field needs quoting. Then write its row cache ``<path>.rows``
    (see the module docstring). A file that cannot be written raises
    DataError naming it.
    """
    digest = hashlib.sha256()
    with writing(path), open(path, "wb") as fh:
        for block in _csv_blocks(ds):
            data = block.encode("utf-8")
            digest.update(data)
            fh.write(data)

    records = np.empty(len(ds), _RECORD)
    records["Day"] = ds.dates
    for j, name in enumerate(FEATURE_COLUMNS):
        records[name] = ds.features[:, j]
    records["Next"] = ds.next_close
    records["Target"] = ds.targets
    cachefile.write(f"{path}.rows", digest, records.view(np.uint8))


def _csv_blocks(ds: LabeledDataset):
    """The text of dataset.csv, header first, then _WRITE_BLOCK rows at a time."""
    yield ",".join(LABELED_COLUMNS) + "\r\n"
    for start in range(0, len(ds), _WRITE_BLOCK):
        rows = slice(start, start + _WRITE_BLOCK)
        close, volume, open_, high, low = ds.features[rows].T.tolist()
        dates = np.datetime_as_string((ds.dates[rows] - _EPOCH).astype("datetime64[D]"))
        yield "".join(
            f"{d},{o!r},{h!r},{lo!r},{c!r},{v!r},{nx!r},{t}\r\n"
            for d, o, h, lo, c, v, nx, t in zip(dates.tolist(), open_, high, low, close,
                                               volume, ds.next_close[rows].tolist(),
                                               ds.targets[rows].tolist()))


def read_labeled_csv(path) -> LabeledDataset:
    """Read a labeled CSV written by :func:`write_labeled_csv`.

    The file is read once. When its row cache ``<path>.rows`` is bound to those
    bytes by its digest, the records come from the cache; otherwise each
    non-blank line is checked and converted once. A faulty row raises DataError
    naming the file and the line, blank lines counted.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    records = _cached_records(path, raw)
    if records is None:
        records = _parsed(path, raw)
    del raw  # as large as the file: not kept while the columns are built
    try:
        return LabeledDataset(
            np.stack([records[name] for name in FEATURE_COLUMNS], axis=1, dtype=np.float64),
            records["Next"].astype(np.float64), records["Target"].astype(np.int64),
            records["Day"].astype(np.int64))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _cached_records(path, raw: bytes):
    """The records of ``<path>.rows`` when its digest binds them to raw, else None."""
    payload = cachefile.read(f"{path}.rows", raw)
    if payload is None or not payload.nbytes or payload.nbytes % _RECORD.itemsize:
        return None
    return np.frombuffer(payload, _RECORD)


def _parsed(path, raw: bytes) -> np.ndarray:
    """The records of dataset.csv's bytes; DataError names path and any faulty line."""
    try:  # split and decoded as a text-mode open() would, with the same errors
        lines = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="").readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from exc
    try:
        header = tuple(next(csv.reader(lines[:1]), ()))
    except csv.Error as exc:
        raise DataError(f"{path}, line 1: {exc}") from exc
    if header != LABELED_COLUMNS:
        raise DataError(f"{path}: expected columns {LABELED_COLUMNS}, got {header}")
    rows = [(number, line) for number, line in enumerate(lines[1:], 2) if line not in _BLANK]
    if not rows:
        raise DataError(f"{path}: empty labeled dataset")
    records = np.empty(len(rows), _RECORD)
    for i, (number, line) in enumerate(rows):
        try:
            records[i] = _record(line, records[i - 1]["Day"] if i else 0)
        except ValueError as exc:
            raise DataError(f"{path}, line {number}: {exc}") from exc
    return records


def _record(line: str, previous: int) -> tuple:
    """The record of one dataset.csv line. Raises ValueError saying why unless,
    checked in this order, it has eight fields, holds only ASCII characters
    other than the separators \\x1c-\\x1f (which float and int read as
    whitespace), has seven numeric cells that parse and are finite, and has a
    date after the day ordinal ``previous``."""
    cells = line.rstrip("\r\n").split(",")  # not csv.reader: no field size limit
    if len(cells) != len(LABELED_COLUMNS):
        many = "not enough" if len(cells) < len(LABELED_COLUMNS) else "too many"
        raise ValueError(f"{many} values: {len(cells)} fields, expected {len(LABELED_COLUMNS)}")
    refused = _REFUSED.search(line)
    if refused:
        raise ValueError(f"character {refused[0]!r} is not allowed")
    numbers = [_number(cell, float) for cell in cells[1:7]] + [_number(cells[7], int)]
    if not all(map(math.isfinite, numbers[:6])):
        raise ValueError(f"non-finite value in {cells[1:7]}")
    date = datetime.date.fromisoformat(cells[0])
    if date.toordinal() <= previous:
        raise ValueError(f"date {date} does not come after {datetime.date.fromordinal(previous)}")
    return (date.toordinal(), *numbers)


def _number(cell: str, kind):
    """kind(cell) for kind float or int, refusing the underscores both read
    (1_000) and an int outside int64; neither reads a quoted cell."""
    try:
        value = kind(cell.replace("_", ","))  # kind refuses 1,000 where it reads 1_000
        if kind is float or -2**63 <= value < 2**63:
            return value
    except ValueError:
        pass
    raise ValueError(f"could not convert string {repr(cell)[:100]} to {kind.__name__}64")
