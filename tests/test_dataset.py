import csv
import dataclasses
import datetime
import hashlib
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlebias import cli, dataset
from candlebias.dataset import (
    LABELED_COLUMNS,
    IngestStats,
    LabeledDataset,
    Standardizer,
    apply_standardizer,
    fit_standardizer,
    ingest_csv,
    label,
    read_labeled_csv,
    split_chronological,
    write_labeled_csv,
)
from candlebias.errors import DataError

from conftest import synthetic_candles, write_raw_csv


def _candles(closes, start=datetime.date(2020, 1, 1), volume=1000.0):
    """Daily (dates, prices) with the given closes; prices in FEATURE_COLUMNS order."""
    dates = [start + datetime.timedelta(days=i) for i in range(len(closes))]
    prices = [[float(c), volume + i, c, c * 1.01, c * 0.99] for i, c in enumerate(closes)]
    return dates, prices


def _write(tmp_path, rows, header="Date,SecuritiesCode,Open,High,Low,Close,Volume"):
    path = tmp_path / "in.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


# ---------------------------------------------------------------------------
# ingest_csv

def test_ingest_filters_by_code(tmp_path):
    path = _write(tmp_path, [
        "2021-01-04,6758,100,110,95,105,1000",
        "2021-01-05,6758,105,112,100,108,1100",
        "2021-01-05,7203,50,55,48,52,9000",
    ])
    (_, prices), stats = ingest_csv(path, 6758)
    assert [p[0] for p in prices] == [105.0, 108.0]
    assert stats.total_rows == 3 and stats.matched_rows == 2


def test_ingest_drops_and_counts_missing_close(tmp_path):
    path = _write(tmp_path, [
        "2021-01-04,6758,100,110,95,105,1000",
        "2021-01-05,6758,105,112,100,,1100",
        "2021-01-06,6758,104,115,100,110,1200",
    ])
    (dates, _), stats = ingest_csv(path, 6758)
    assert len(dates) == 2
    assert stats.dropped_missing == 1


def test_ingest_drops_and_counts_non_finite(tmp_path):
    path = _write(tmp_path, [
        "2021-01-04,6758,100,110,95,105,1000",
        "2021-01-05,6758,105,112,100,inf,1100",
    ])
    (dates, _), stats = ingest_csv(path, 6758)
    assert len(dates) == 1
    assert stats.dropped_missing == 1


def test_ingest_rejects_malformed_candles(tmp_path):
    # low above the body, then high below the body
    path = _write(tmp_path, [
        "2021-01-04,6758,100,110,102,105,1000",
        "2021-01-05,6758,105,103,100,108,1100",
        "2021-01-06,6758,104,115,100,110,1200",
    ])
    (dates, _), stats = ingest_csv(path, 6758)
    assert len(dates) == 1
    assert stats.dropped_malformed == 2


def test_ingest_sorts_by_date(tmp_path):
    path = _write(tmp_path, [
        "2021-01-06,6758,104,115,100,110,1200",
        "2021-01-04,6758,100,110,95,105,1000",
        "2021-01-05,6758,105,112,100,108,1100",
    ])
    (dates, prices), _ = ingest_csv(path, 6758)
    assert dates == sorted(dates)
    assert [p[0] for p in prices] == [105.0, 108.0, 110.0]


def test_ingest_missing_column_errors(tmp_path):
    path = _write(tmp_path, ["2021-01-04,6758,100,110,95,105"],
                  header="Date,SecuritiesCode,Open,High,Low,Close")
    with pytest.raises(DataError, match="Volume"):
        ingest_csv(path, 6758)


def test_ingest_zero_rows_after_filter_errors(tmp_path):
    path = _write(tmp_path, ["2021-01-04,7203,100,110,95,105,1000"])
    with pytest.raises(DataError, match="no usable rows"):
        ingest_csv(path, 6758)


def test_ingest_unreadable_file_errors(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        ingest_csv(tmp_path / "absent.csv", 6758)


def test_ingest_ignores_extra_columns(jpx_mini_csv):
    (dates, _), stats = ingest_csv(jpx_mini_csv, 6758)
    assert len(dates) == 10
    assert stats == dataclasses.replace(stats, total_rows=12, matched_rows=11,
                                        dropped_missing=1, dropped_malformed=0)


def test_a_byte_order_mark_before_the_first_column_is_skipped(tmp_path, jpx_mini_csv):
    # with Date first, a kept mark would read as part of its header name
    with open(jpx_mini_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    at = rows[0].index("Date")
    text = "".join(",".join([row[at], *row[:at], *row[at + 1:]]) + "\n" for row in rows)
    outputs = []
    for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        raw = tmp_path / f"{name}.csv"
        raw.write_bytes(mark + text.encode("utf-8"))
        out = tmp_path / name
        assert cli.main(["prepare", "--data", str(raw), "--out", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("dataset.csv", "dataset_summary.json")])
    assert text.startswith("Date,")
    assert outputs[0] == outputs[1]


def test_ingest_is_idempotent_on_canonical_output(tmp_path):
    raw = write_raw_csv(tmp_path / "raw.csv", synthetic_candles(60, seed=3))
    candles, _ = ingest_csv(raw, 6758)
    canon = write_raw_csv(tmp_path / "canon.csv", [
        (date, 6758, o, h, l, c, v) for date, (c, v, o, h, l) in zip(*candles)])
    candles2, stats2 = ingest_csv(canon, 6758)
    assert candles2 == candles
    assert stats2.dropped_missing == 0 and stats2.dropped_malformed == 0


# One security's candles behind a duplicated Close header, among every kind of
# row ingest must skip, drop or count. The first Close column is a decoy: a
# repeated header name resolves to its last column.
PARITY_RAW = """RowId,Date,SecuritiesCode,Open,High,Low,Close,Volume,Close
a,2021-01-06,6758,100,110,95,x,1000,105
b,2021-01-04,6758,98,104,97,x,900,101

c,2021-01-05, 6758 ,101,106,99,x,950,103
d,2021-01-07,06758,105,112,100,x,1100,108
e,2021-01-07,7203,50,55,48,x,9000,52
f,2021-01-08,6758,108,115
g,2021-01-11,6758,108,115,104,x,1200,110,extra,cells
h,2021-01-12,6758,110,118,108,x,1300,115
i,2021-01-13,6758,115,117,116,x,1400,116
j,2021-01-14,6758,116,120,112,x,,119
k,2021-01-15,6758,116,120,112,x,1500,inf
l,not-a-date,6758,116,120,112,x,1500,118
m,2021-01-18,6758,-1,120,112,x,1500,118
n,2021-01-19,6758,119,124,117,x,1600,121
"o,1",2021-01-20,6758,121,126,120,x,1700,125
p,2021-01-22,6758,126,127,122,x,1650,123
q,2021-01-21,6758,125,129,123,x,1800,126
r,2021-01-25,6758.0,123,125,120,x,1500,124
s,2021-01-25,6758,123,125,120,x,1500,124
t,2021-01-26,6758,124,122,119,x,1500,121

u,2021-01-27,6758,121,126,120,x,1900,125
v,2021-01-28,,121,126,120,x,1900,125
w
x,2021-01-29,6758,125,130,124,x,2000,129
y,2021-02-01,6758,129,131,127,x,2100,130
"""

# Taken from the DictReader ingest that columnar ingest replaced; edit neither.
PARITY_STATS = IngestStats(total_rows=25, matched_rows=21, dropped_missing=4,
                           dropped_malformed=3)
PARITY_DATASET_SHA256 = "e0010b553cfb13cbb0bb6a0abe5f1c30fbf806907514f5268fb050a34a6ecf0b"


def test_ingest_and_prepare_match_the_dict_reader_ingest(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text(PARITY_RAW, encoding="utf-8")
    _, stats = ingest_csv(raw, 6758)
    assert stats == PARITY_STATS
    assert cli.main(["prepare", "--data", str(raw), "--out", str(tmp_path / "out")]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "dataset.csv").read_bytes()).hexdigest()
    assert digest == PARITY_DATASET_SHA256


def _spelled_rows(cell):
    """Twelve valid candles, then five rows holding cell in one price column
    each: Open, High, Low, Close, then Volume."""
    rows = [f"2021-02-{day:02d},6758,12,13,11,12.{day},{100 + day}" for day in range(1, 13)]
    for j in range(5):
        fields = ["12", "13", "11", "12.5", "100"]
        fields[j] = cell
        rows.append(f"2021-03-{j + 1:02d},6758," + ",".join(fields))
    return rows


_FIVE_MISSING = "f36ecb65e8345e8e0233ea5e99d7d25bf0dd73a833b75d9e5f3c53fca07fd025"
_READ_AS_12 = "8cc04830149cc9f6eb009f2869c64597f1382e3bdfd7312c3229c9721125d726"


# Each price spelling: its (total, matched, missing, malformed) counts and the
# sha256 of the dataset.csv prepare writes. float() reads "1_000", " 12 " and
# Arabic-Indic digits; an unparseable or non-finite cell counts as missing.
# Taken from the per-cell parser that the inline parse replaced; edit neither.
PRICE_SPELLINGS = {
    "nan": ((17, 17, 5, 0), _FIVE_MISSING),
    "inf": ((17, 17, 5, 0), _FIVE_MISSING),
    "-inf": ((17, 17, 5, 0), _FIVE_MISSING),
    "1e309": ((17, 17, 5, 0), _FIVE_MISSING),
    "1_000": ((17, 17, 0, 3),
              "baef11fe42364662382e21047fda1060d00520d50348e2b005eb2df0692eeebc"),
    " 12 ": ((17, 17, 0, 1), _READ_AS_12),
    "": ((17, 17, 5, 0), _FIVE_MISSING),
    "0x10": ((17, 17, 5, 0), _FIVE_MISSING),
    "\u0661\u0662": ((17, 17, 0, 1), _READ_AS_12),
}


@pytest.mark.parametrize("cell", sorted(PRICE_SPELLINGS))
def test_ingest_buckets_each_price_spelling(cell, tmp_path):
    counts, sha256 = PRICE_SPELLINGS[cell]
    raw = _write(tmp_path, _spelled_rows(cell))
    _, stats = ingest_csv(raw, 6758)
    assert stats == IngestStats(*counts)
    assert cli.main(["prepare", "--data", str(raw), "--out", str(tmp_path / "out")]) == 0
    assert hashlib.sha256((tmp_path / "out" / "dataset.csv").read_bytes()).hexdigest() == sha256


# ---------------------------------------------------------------------------
# label

def test_label_up():
    ds = label(*_candles([100.0, 101.5]))
    assert len(ds) == 1
    assert ds.targets.tolist() == [1]
    assert ds.next_close.tolist() == [101.5]


def test_label_tie_is_down():
    ds = label(*_candles([100.0, 100.0]))
    assert ds.targets.tolist() == [0]


def test_label_sequence():
    ds = label(*_candles([5.0, 4.0, 6.0]))
    assert ds.targets.tolist() == [0, 1]
    assert len(ds) == 2


def test_label_requires_two_records():
    with pytest.raises(DataError):
        label(*_candles([100.0]))


def test_label_rejects_a_repeated_last_date(tmp_path):
    # The last day has no successor and is dropped, but its date still counts:
    # otherwise 2017-01-20 would be labeled against its own second close.
    path = _write(tmp_path, [
        "2017-01-18,6758,900,950,890,930,1000",
        "2017-01-19,6758,930,960,920,940,1100",
        "2017-01-20,6758,940,960,920,933.06,1200",
        "2017-01-20,6758,940,1200,920,1119.68,1300",
    ])
    candles, _ = ingest_csv(path, 6758)
    with pytest.raises(DataError, match="not strictly increasing at 2017-01-20"):
        label(*candles)


def test_label_drops_exactly_one_row():
    for n in (2, 7, 50):
        assert len(label(*_candles(list(100.0 + np.arange(n))))) == n - 1


def test_label_feature_column_order(tmp_path):
    path = _write(tmp_path, [
        "2021-01-04,6758,100,110,95,105,1000",
        "2021-01-05,6758,105,112,100,108,1100",
    ])
    candles, _ = ingest_csv(path, 6758)
    ds = label(*candles)
    # Close, Volume, Open, High, Low
    assert ds.features.tolist() == [[105.0, 1000.0, 100.0, 110.0, 95.0]]
    assert ds.next_close.tolist() == [108.0]


def test_label_brute_force_recheck():
    rng = np.random.default_rng(11)
    closes = np.abs(100.0 + np.cumsum(rng.normal(0, 2, size=300)))
    ds = label(*_candles(list(closes)))
    for i in range(len(ds)):
        expected = 1 if ds.next_close[i] > ds.features[i, 0] else 0
        assert ds.targets[i] == expected


# ---------------------------------------------------------------------------
# split_chronological

def _dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    closes = np.abs(100.0 + np.cumsum(rng.normal(0, 1, size=n + 1)))
    return label(*_candles(list(closes)))


def test_split_sizes():
    s = split_chronological(100, 0.7, 0.15)
    assert (len(s.train), len(s.validation), len(s.test)) == (70, 15, 15)


def test_split_empty_range_errors():
    with pytest.raises(DataError):
        split_chronological(10, 0.9, 0.09)


def test_split_invalid_fractions_error():
    for fracs in ((0.0, 0.5), (0.5, 0.0), (0.8, 0.3)):
        with pytest.raises(DataError):
            split_chronological(50, *fracs)


def test_split_is_ordered_contiguous_partition():
    for n, tf, vf in ((100, 0.7, 0.15), (37, 0.5, 0.25), (211, 0.6, 0.2)):
        ds = _dataset(n)
        s = split_chronological(len(ds), tf, vf)
        assert s.train.start == 0 and s.train.stop == s.validation.start
        assert s.validation.stop == s.test.start and s.test.stop == len(ds)
        assert max(ds.dates[i] for i in s.train) < min(ds.dates[i] for i in s.validation)
        assert max(ds.dates[i] for i in s.validation) < min(ds.dates[i] for i in s.test)


# ---------------------------------------------------------------------------
# standardizer

def _train_rows(ds, train_frac, val_frac):
    return ds.rows(split_chronological(len(ds), train_frac, val_frac).train)


def test_standardizer_uses_population_stddev():
    # population stddev of the two-point column [1, 3] is exactly 1
    features = np.array([[1.0, 10.0, 1.0, 2.0, 0.5],
                         [3.0, 20.0, 3.0, 4.0, 2.5],
                         [2.0, 15.0, 2.0, 3.0, 1.5],
                         [4.0, 25.0, 4.0, 5.0, 3.5]])
    next_close = np.array([3.0, 2.0, 4.0, 5.0])
    targets = (next_close > features[:, 0]).astype(np.int64)
    dates = datetime.date(2020, 1, 1).toordinal() + np.arange(4)
    ds = LabeledDataset(features, next_close, targets, dates)
    std = fit_standardizer(_train_rows(ds, 0.5, 0.25))  # train = first 2 rows
    assert std.mean[0] == 2.0 and std.stddev[0] == 1.0
    assert np.array_equal(std.mean, features[:2].mean(axis=0))
    assert np.array_equal(std.stddev, features[:2].std(axis=0))


def test_standardizer_constant_column_errors():
    ds = _dataset(40)
    features = ds.features.copy()
    features[:, 1] = 7.0  # constant volume
    ds = LabeledDataset(features, ds.next_close.copy(), ds.targets.copy(), ds.dates)
    with pytest.raises(DataError, match="Volume"):
        fit_standardizer(_train_rows(ds, 0.5, 0.25))


def test_standardizer_overflowing_columns_error_without_a_warning():
    ds = _dataset(40)
    features = ds.features.copy()
    features[::2, 1] = 1e200  # Volume's squared deviations overflow
    features[:, 2] = 1.7e308  # Open's sum overflows
    ds = LabeledDataset(features, ds.next_close.copy(), ds.targets.copy(), ds.dates)
    with pytest.raises(DataError, match=r"\['Volume', 'Open'\]: mean or stddev overflows"):
        fit_standardizer(_train_rows(ds, 0.5, 0.25))


def test_standardizer_depends_only_on_train_rows(tmp_path):
    # Scaling non-close columns outside the train range leaves model_lr.json,
    # standardizer included, byte for byte the same.
    ds = _dataset(60)
    mutated = ds.features.copy()
    mutated[split_chronological(len(ds), 0.7, 0.15).validation.start:, 1:] *= 3.7
    models = []
    for name, features in (("same", ds.features), ("mutated", mutated)):
        path = tmp_path / f"{name}.csv"
        write_labeled_csv(LabeledDataset(features, ds.next_close.copy(), ds.targets.copy(),
                                         ds.dates), path)
        assert cli.main(["train", "--model", "lr", "--dataset", str(path),
                         "--out", str(tmp_path / name)]) == 0
        models.append((tmp_path / name / "model_lr.json").read_bytes())
    assert models[0] == models[1]
    assert (tmp_path / "same.csv").read_bytes() != (tmp_path / "mutated.csv").read_bytes()


def test_apply_standardizer_centers_train_rows():
    train = _train_rows(_dataset(80), 0.7, 0.15)
    scaled = apply_standardizer(fit_standardizer(train), train)
    assert np.all(np.abs(scaled.mean(axis=0)) < 1e-9)
    assert np.allclose(scaled.std(axis=0), 1.0)


def test_apply_standardizer_identity():
    std = Standardizer(mean=np.zeros(5), stddev=np.ones(5))
    X = np.random.default_rng(5).normal(size=(10, 5))
    assert np.array_equal(apply_standardizer(std, X), X)


def test_apply_standardizer_round_trip():
    ds = _dataset(80)
    std = fit_standardizer(_train_rows(ds, 0.7, 0.15))
    X = ds.features
    back = apply_standardizer(std, X) * std.stddev + std.mean
    assert np.all(np.abs(back - X) < 1e-9 * np.maximum(1.0, np.abs(X)))


def test_apply_standardizer_shape_mismatch():
    std = fit_standardizer(_train_rows(_dataset(40), 0.5, 0.25))
    with pytest.raises(ValueError):
        apply_standardizer(std, np.ones((3, 4)))


def test_standardizer_dict_round_trip():
    std = Standardizer(mean=np.arange(5.0), stddev=np.ones(5) * 2.0)
    back = Standardizer.from_dict(json.loads(json.dumps(std.as_dict())))
    assert np.array_equal(back.mean, std.mean) and np.array_equal(back.stddev, std.stddev)
    for bad in (None, [0.0] * 5, "mean"):
        with pytest.raises(ValueError, match="standardizer must be an object"):
            Standardizer.from_dict(bad)


# ---------------------------------------------------------------------------
# labeled CSV round trip

def test_labeled_csv_round_trip(tmp_path):
    ds = _dataset(50)
    path = tmp_path / "labeled.csv"
    write_labeled_csv(ds, path)
    back = read_labeled_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.next_close, ds.next_close)
    assert np.array_equal(back.targets, ds.targets)
    assert np.array_equal(back.dates, ds.dates)


def test_write_labeled_csv_matches_a_row_by_row_writer(tmp_path):
    # Longer than two write blocks, so every block boundary is crossed.
    ds = _dataset(2 * 1024 + 5)
    path = tmp_path / "labeled.csv"
    write_labeled_csv(ds, path)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELED_COLUMNS)
        for i, day in enumerate(ds.dates.tolist()):
            close, volume, open_, high, low = ds.features[i]
            writer.writerow([datetime.date.fromordinal(day).isoformat(), open_, high, low,
                             close, volume,
                             ds.next_close[i], int(ds.targets[i])])
    assert path.read_bytes() == reference.read_bytes()


def _with_pair(ds, i, next_close_i, close_after):
    """ds with next_close[i] and the Close of row i + 1 (unless None) replaced,
    and targets relabeled to match."""
    features, next_close = ds.features.copy(), ds.next_close.copy()
    next_close[i] = next_close_i
    if close_after is not None:
        features[i + 1, 0] = close_after
    return LabeledDataset(features, next_close, (next_close > features[:, 0]).astype(np.int64),
                          ds.dates.copy())


# A row's Next and the following row's Close (None: left as it is), each pair
# put inside a write block (rows 500 and 501) and across the boundary between
# two blocks (rows 1023 and 1024).
_NEXT_CLOSE_PAIRS = {
    "equal_but_signed_zeros": (0.0, -0.0),
    "equal_but_negative_zero_first": (-0.0, 0.0),
    "next_differs": (123.25, None),
    "next_one_ulp_above": (math.nextafter(100.0, math.inf), 100.0),
}


@pytest.mark.parametrize("row", [500, 1023])
@pytest.mark.parametrize("case", sorted(_NEXT_CLOSE_PAIRS))
def test_next_cells_match_a_row_by_row_writer(case, row, tmp_path):
    ds = _with_pair(_dataset(1030), row, *_NEXT_CLOSE_PAIRS[case])
    path = tmp_path / "labeled.csv"
    write_labeled_csv(ds, path)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABELED_COLUMNS)
        for day, (close, volume, open_, high, low), nx, target in zip(
                ds.dates.tolist(), ds.features.tolist(), ds.next_close.tolist(),
                ds.targets.tolist()):
            writer.writerow([datetime.date.fromordinal(day).isoformat(), open_, high, low,
                             close, volume, nx, target])
    assert path.read_bytes() == reference.read_bytes()


def test_read_labeled_csv_rejects_corrupt_target(tmp_path):
    ds = _dataset(20)
    path = tmp_path / "labeled.csv"
    write_labeled_csv(ds, path)
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[-1] = "1" if fields[-1] == "0" else "0"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="inconsistent"):
        read_labeled_csv(path)


def _corrupt_labeled_csv(tmp_path, line_index, edit):
    path = tmp_path / "labeled.csv"
    write_labeled_csv(_dataset(20), path)
    lines = path.read_text().splitlines()
    lines[line_index] = edit(lines[line_index])
    path.write_text("\n".join(lines) + "\n")
    return path


def test_read_labeled_csv_names_the_line_of_a_non_numeric_cell(tmp_path):
    path = _corrupt_labeled_csv(tmp_path, 3, lambda line: ",".join(
        "abc" if i == 4 else field for i, field in enumerate(line.split(","))))
    with pytest.raises(DataError, match=r"labeled\.csv, line 4: could not convert .*'abc'"):
        read_labeled_csv(path)


def test_read_labeled_csv_names_the_line_of_a_short_row(tmp_path):
    path = _corrupt_labeled_csv(tmp_path, 2, lambda line: ",".join(line.split(",")[:3]))
    with pytest.raises(DataError, match=r"labeled\.csv, line 3: not enough values"):
        read_labeled_csv(path)


def test_read_labeled_csv_names_the_line_of_a_target_outside_int64(tmp_path):
    path = _corrupt_labeled_csv(tmp_path, 3, lambda line: line.rsplit(",", 1)[0] + ",9" + "0" * 19)
    with pytest.raises(DataError, match=r"labeled\.csv, line 4: could not convert string "
                                        r"'90{19}' to int64$"):
        read_labeled_csv(path)


def _reference_read_labeled_csv(path) -> LabeledDataset:
    """The per-row reader that the one-pass read_labeled_csv replaced: csv.reader,
    float() and int() on every cell, with the same checks and line numbers."""
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
                date = datetime.date.fromisoformat(date)
                if dates and date <= dates[-1]:
                    raise ValueError(f"date {date} does not come after {dates[-1]}")
                dates.append(date)
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
            dates=np.array([date.toordinal() for date in dates], dtype=np.int64),
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_or_error(read, path):
    """The dataset read returns, or the message of the DataError it raises."""
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


def _same_dataset(a, b):
    """Equal bit for bit, array by array and date by date."""
    return (a.features.tobytes() == b.features.tobytes() and a.features.shape == b.features.shape
            and a.next_close.tobytes() == b.next_close.tobytes()
            and np.array_equal(a.targets, b.targets) and np.array_equal(a.dates, b.dates))


_PRICE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # 17 significant digits, subnormals
    st.floats(min_value=1e307, max_value=1.7976931348623157e308),
    st.sampled_from([5e-324, 2.2250738585072014e-308, -0.0, 0.1 + 0.2]),
    st.integers(-2**53, 2**53).map(float),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_read_labeled_csv_reads_back_what_write_labeled_csv_wrote(tmp_path_factory, data):
    n = data.draw(st.integers(1, 12))
    features = np.array(data.draw(st.lists(st.lists(_PRICE, min_size=5, max_size=5),
                                           min_size=n, max_size=n)))
    next_close = np.array(data.draw(st.lists(_PRICE, min_size=n, max_size=n)))
    gaps = data.draw(st.lists(st.integers(1, 4000), min_size=n, max_size=n))
    dates = datetime.date(1900, 1, 1).toordinal() + np.cumsum(gaps)
    ds = LabeledDataset(features, next_close, (next_close > features[:, 0]).astype(np.int64),
                        dates)
    path = tmp_path_factory.mktemp("round_trip") / "dataset.csv"
    write_labeled_csv(ds, path)
    assert _rows_path(path).stat().st_size == 32 + 64 * n  # every dataset gets its cache
    back = read_labeled_csv(path)
    assert _same_dataset(back, ds)
    assert _same_dataset(back, _reference_read_labeled_csv(path))


# Cells planted in damaged files: spellings numpy's parsers treat apart from
# float(), int() and date.fromisoformat, and cells every reader refuses. numpy
# reads "\x1f2" as 2.0 and "1\u01fe" as the integer 472; the per-row reader
# refused both.
_DAMAGE_CELLS = ["1_000", '"1.5"', "nan", "inf", "2020", "2020-01", "", "NaT", "\u0663",
                 "2020-01-01T00", " 7 ", "-0", "1e400", "\x1f2", "1\u01fe"]
# The spellings among them that the per-row reader took and read_labeled_csv refuses.
_REFUSED_SPELLINGS = {"1_000", '"1.5"', "\u0663"}


def _damaged_rows(rows, data):
    """Apply 1-3 edits to the data rows (rows[1:]) of a split CSV: plant a cell,
    shorten, lengthen or duplicate a row, or insert a blank line."""
    rows = [list(row) for row in rows]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(1, len(rows) - 1))
        edit = data.draw(st.sampled_from(["cell", "shorten", "lengthen", "duplicate", "blank"]))
        if edit == "cell" and rows[i]:
            rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = data.draw(
                st.sampled_from(_DAMAGE_CELLS))
        elif edit == "shorten" and len(rows[i]) > 1:
            del rows[i][data.draw(st.integers(1, len(rows[i]) - 1)):]
        elif edit == "lengthen":
            rows[i].append(data.draw(st.sampled_from(_DAMAGE_CELLS)))
        elif edit == "duplicate":
            rows.insert(i, list(rows[i]))
        elif edit == "blank":
            rows.insert(i, [])
    return rows


def _line_named(message, path):
    match = re.match(rf"{re.escape(str(path))}, line (\d+): ", message)
    return int(match[1]) if match else None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_read_labeled_csv_refuses_what_the_per_row_reader_refused(tmp_path_factory, data):
    source = tmp_path_factory.mktemp("damaged") / "source.csv"
    write_labeled_csv(_dataset(12), source)
    rows = _damaged_rows([line.split(",") for line in source.read_text().splitlines()], data)
    path = source.with_name("dataset.csv")
    path.write_text("".join(",".join(row) + data.draw(st.sampled_from(["\r\n", "\n"]))
                            for row in rows), encoding="utf-8")
    expected = _read_or_error(_reference_read_labeled_csv, path)
    got = _read_or_error(read_labeled_csv, path)
    refused = [n for n, row in enumerate(rows, 1) if _REFUSED_SPELLINGS.intersection(row)]

    if isinstance(got, LabeledDataset):
        assert isinstance(expected, LabeledDataset) and _same_dataset(got, expected)
    elif isinstance(expected, LabeledDataset):
        assert refused and _line_named(got, path) == refused[0], got
    else:
        # Both refuse the file: at the same line, unless a spelling only the
        # per-row reader took comes first.
        lines = [n for n in [_line_named(expected, path)] + refused[:1] if n is not None]
        if lines:
            assert _line_named(got, path) == min(lines), (got, expected)
        else:
            assert got == expected


# Damage to a long file, as (line index, column, cell); index 0 is the header.
# The faults lie near the end, so the line-by-line pass checks thousands of
# lines before it names one.
_LONG_FILE_EDITS = {
    "unparseable_cell_on_the_last_row": (-1, 4, "abc"),
    "date_out_of_order_near_the_end": (-3, 0, "2020-01-01"),
    "first_row_dated_year_one": (1, 0, "0001-01-01"),
}


@pytest.mark.parametrize("case", sorted(_LONG_FILE_EDITS))
def test_read_labeled_csv_on_a_long_file_names_the_reference_line(tmp_path, case):
    index, column, cell = _LONG_FILE_EDITS[case]
    path = tmp_path / "labeled.csv"
    write_labeled_csv(_dataset(3000), path)
    lines = path.read_text().splitlines()
    fields = lines[index].split(",")
    fields[column] = cell
    lines[index] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    expected = _read_or_error(_reference_read_labeled_csv, path)
    got = _read_or_error(read_labeled_csv, path)
    if isinstance(expected, LabeledDataset):
        assert case == "first_row_dated_year_one"
        assert isinstance(got, LabeledDataset) and _same_dataset(got, expected)
    else:
        line = _line_named(expected, path)
        assert line is not None and _line_named(got, path) == line, (got, expected)


@pytest.mark.parametrize("column, cell", [(2, "\x1f2"), (4, "4\x1c"), (7, "1\u01fe")])
def test_read_labeled_csv_refuses_cells_only_numpy_parses(tmp_path, column, cell):
    # np.loadtxt reads these as 2.0, 4.0 and 472; float() and int() refuse them.
    path = _corrupt_labeled_csv(tmp_path, 3, lambda line: ",".join(
        cell if i == column else field for i, field in enumerate(line.split(","))))
    with pytest.raises(DataError, match=r"labeled\.csv, line 4: character .* is not allowed"):
        read_labeled_csv(path)
    with pytest.raises(DataError, match=r"labeled\.csv, line 4: "):
        _reference_read_labeled_csv(path)


# ---------------------------------------------------------------------------
# dataset.csv.rows, the row cache beside dataset.csv

# The cache's record, spelled out here as the format states it: not the
# module's own dtype, so a change to that shows.
_CACHE_RECORD = np.dtype([("Day", "<i8"), ("Open", "<f8"), ("High", "<f8"), ("Low", "<f8"),
                          ("Close", "<f8"), ("Volume", "<f8"), ("Next", "<f8"),
                          ("Target", "<i8")])


def _rows_path(path):
    return path.with_name(path.name + ".rows")


def _same_layout(a, b):
    """The arrays of a and b have the same dtypes and strides."""
    return all(x.dtype == y.dtype and x.strides == y.strides for x, y in zip(
        (a.features, a.next_close, a.targets), (b.features, b.next_close, b.targets)))


def _read_from_cache(path):
    """read_labeled_csv(path), failing if it parses the CSV instead of taking the cache."""
    with mock.patch.object(dataset, "_parsed", side_effect=AssertionError("parsed the CSV")):
        return read_labeled_csv(path)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data())
def test_a_row_cache_hit_reads_what_parsing_the_csv_reads(tmp_path_factory, data):
    n = data.draw(st.integers(1, 12))
    features = np.array(data.draw(st.lists(st.lists(_PRICE, min_size=5, max_size=5),
                                           min_size=n, max_size=n)))
    next_close = np.array(data.draw(st.lists(_PRICE, min_size=n, max_size=n)))
    first = data.draw(st.sampled_from([1, 2]) | st.integers(1, 3_000_000))  # 1 is 0001-01-01
    gaps = data.draw(st.lists(st.integers(1, 4000), min_size=n - 1, max_size=n - 1))
    dates = np.cumsum([first, *gaps])
    ds = LabeledDataset(features, next_close, (next_close > features[:, 0]).astype(np.int64),
                        dates)
    path = tmp_path_factory.mktemp("row_cache") / "dataset.csv"
    write_labeled_csv(ds, path)
    assert _rows_path(path).stat().st_size == 32 + 64 * n

    hit = _read_from_cache(path)
    _rows_path(path).unlink()
    parsed = read_labeled_csv(path)
    assert _same_dataset(hit, ds) and _same_dataset(hit, parsed)
    assert _same_dataset(hit, _reference_read_labeled_csv(path))
    assert _same_layout(hit, parsed)


def test_the_row_cache_holds_the_digest_then_one_record_per_row(tmp_path):
    ds = _dataset(30)
    path = tmp_path / "labeled.csv"
    write_labeled_csv(ds, path)
    cache = _rows_path(path).read_bytes()
    records = np.frombuffer(cache, _CACHE_RECORD, offset=32)
    assert cache[:32] == hashlib.sha256(path.read_bytes() + cache[32:]).digest()
    assert records["Day"].tolist() == ds.dates.tolist()
    for j, name in enumerate(dataset.FEATURE_COLUMNS):
        assert records[name].tobytes() == ds.features[:, j].astype("<f8").tobytes()
    assert records["Next"].tobytes() == ds.next_close.astype("<f8").tobytes()
    assert records["Target"].tolist() == ds.targets.tolist()


def _with(array, index, value):
    array = array.copy()
    array[index] = value
    return array


def _fields(ds, **changed):
    """The fields of ds as LabeledDataset keywords, those in changed replaced."""
    return {"features": ds.features, "next_close": ds.next_close, "targets": ds.targets,
            "dates": ds.dates, **changed}


def _next_close_inf(ds, i):
    next_close = _with(ds.next_close, i, math.inf)
    return _fields(ds, next_close=next_close,
                   targets=(next_close > ds.features[:, 0]).astype(np.int64))


# Datasets whose dataset.csv read_labeled_csv would refuse, as edits of a
# 20-row dataset, each with what LabeledDataset's refusal says.
_NOT_READ_BACK = {
    "nan_open": (lambda ds: _fields(ds, features=_with(ds.features, (3, 2), math.nan)),
                 "non-finite"),
    "inf_volume": (lambda ds: _fields(ds, features=_with(ds.features, (0, 1), math.inf)),
                   "non-finite"),
    "inf_next": (lambda ds: _next_close_inf(ds, 4), "non-finite"),
    "date_repeated": (lambda ds: _fields(ds, dates=_with(ds.dates, 3, ds.dates[2])),
                      "increasing"),
    "date_earlier": (lambda ds: _fields(ds, dates=_with(
        ds.dates, 3, datetime.date(1999, 1, 1).toordinal())), "increasing"),
    "date_before_year_one": (lambda ds: _fields(ds, dates=ds.dates - ds.dates[0]), "years 1"),
    "date_after_year_9999": (lambda ds: _fields(ds, dates=_with(
        ds.dates, -1, datetime.date.max.toordinal() + 1)), "years 1"),
    "float_dates": (lambda ds: _fields(ds, dates=ds.dates.astype(float)), "int64"),
    "bool_targets": (lambda ds: _fields(ds, targets=ds.targets.astype(bool)), "integers"),
    "empty": (lambda ds: _fields(ds, features=ds.features[:0], next_close=ds.next_close[:0],
                                 targets=ds.targets[:0], dates=ds.dates[:0]), "empty"),
}


@pytest.mark.parametrize("case", sorted(_NOT_READ_BACK))
def test_a_dataset_that_does_not_read_back_gets_no_cache(case, tmp_path):
    # LabeledDataset refuses it, so neither a dataset.csv nor a cache is written.
    edit, message = _NOT_READ_BACK[case]
    with pytest.raises(ValueError, match=message):
        write_labeled_csv(LabeledDataset(**edit(_dataset(20))), tmp_path / "dataset.csv")
    assert not any(tmp_path.iterdir())


# Edits of a written dataset.csv's lines (index 0 the header) to what no
# LabeledDataset writes, each with the line its data error names (None: no line).
_NOT_WRITTEN = {
    "bool_target": (lambda lines: lines[:1] + [lines[1].rsplit(",", 1)[0] + ",True"]
                    + lines[2:], 2),
    "datetime_date": (lambda lines: lines[:1] + ["2020-01-01T00:00:00" + lines[1][10:]]
                      + lines[2:], 2),
    "header_only": (lambda lines: lines[:1], None),
}


@pytest.mark.parametrize("case", sorted(_NOT_WRITTEN))
def test_a_dataset_csv_that_no_dataset_writes_names_its_line(case, tmp_path, capsys):
    edit, line = _NOT_WRITTEN[case]
    path = tmp_path / "dataset.csv"
    write_labeled_csv(_dataset(20), path)
    path.write_text("".join(f"{text}\r\n" for text in edit(path.read_text().splitlines())))

    expected = _read_or_error(_reference_read_labeled_csv, path)
    got = _read_or_error(read_labeled_csv, path)
    assert isinstance(got, str) and _line_named(got, path) == line
    assert _line_named(expected, path) == line
    if line is None:
        assert got == expected == f"{path}: empty labeled dataset"
    rc = cli.main(["train", "--model", "dt", "--dataset", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA and err == f"data error: {got}\n"


def _edit_csv(path, cell):
    """Put cell in the Volume column of dataset.csv's third row."""
    lines = path.read_bytes().split(b"\r\n")
    fields = lines[3].split(b",")
    fields[5] = cell
    lines[3] = b",".join(fields)
    path.write_bytes(b"\r\n".join(lines))


def _flip(offset):
    def flip(path, cache, other):
        data = bytearray(cache.read_bytes())
        data[offset] ^= 0x01
        cache.write_bytes(bytes(data))
    return flip


# Each way a row cache can fail to match its dataset.csv, as an edit of
# (dataset.csv, its cache, a dataset.csv of the same length with another cache).
_BAD_CACHES = {
    "csv_edited_after_the_write": lambda path, cache, other: _edit_csv(path, b"12345.0"),
    "csv_damaged_after_the_write": lambda path, cache, other: _edit_csv(path, b"abc"),
    "cache_truncated_by_a_record": lambda path, cache, other: cache.write_bytes(
        cache.read_bytes()[:-64]),
    "cache_truncated_in_its_digest": lambda path, cache, other: cache.write_bytes(
        cache.read_bytes()[:20]),
    "cache_emptied": lambda path, cache, other: cache.write_bytes(b""),
    "cache_one_byte_longer": lambda path, cache, other: cache.write_bytes(
        cache.read_bytes() + b"\0"),
    "cache_of_the_digest_alone": lambda path, cache, other: cache.write_bytes(
        cache.read_bytes()[:32]),
    "byte_flipped_in_the_digest": _flip(0),
    "byte_flipped_in_a_date": _flip(32 + 64 * 5),
    "byte_flipped_in_a_price": _flip(40),
    "byte_flipped_in_the_last_target": _flip(-8),
    "cache_copied_from_another_csv": lambda path, cache, other: cache.write_bytes(
        _rows_path(other).read_bytes()),
    "cache_missing": lambda path, cache, other: cache.unlink(),
    "cache_is_a_directory": lambda path, cache, other: (cache.unlink(), cache.mkdir()),
}


@pytest.mark.parametrize("case", sorted(_BAD_CACHES))
def test_a_cache_that_does_not_match_gives_the_parse_result(case, tmp_path, capsys):
    path, other = tmp_path / "dataset.csv", tmp_path / "other" / "dataset.csv"
    other.parent.mkdir()
    write_labeled_csv(_dataset(20), path)
    write_labeled_csv(_dataset(20, seed=1), other)
    cache = _rows_path(path)
    _BAD_CACHES[case](path, cache, other)
    left = cache.read_bytes() if cache.is_file() else None

    with mock.patch.object(dataset, "_parsed", wraps=dataset._parsed) as checked:
        got = _read_or_error(read_labeled_csv, path)
    assert checked.called and capsys.readouterr() == ("", "")
    assert (cache.read_bytes() if cache.is_file() else None) == left  # a read writes no cache

    expected = _read_or_error(_reference_read_labeled_csv, path)
    if cache.is_file():
        cache.unlink()
    parsed = _read_or_error(read_labeled_csv, path)
    if isinstance(parsed, str):
        assert got == parsed and _line_named(got, path) == _line_named(expected, path) == 4
    else:
        assert _same_dataset(got, parsed) and _same_dataset(got, expected)
        assert _same_layout(got, parsed)
    if case == "csv_edited_after_the_write":
        assert got.features[2, 1] == 12345.0


def test_two_prepares_of_one_input_write_the_same_cache(tmp_path, synthetic_csv):
    caches = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["prepare", "--data", str(synthetic_csv), "--out", str(out)]) == 0
        caches.append((out / "dataset.csv.rows").read_bytes())
        assert len(read_labeled_csv(out / "dataset.csv")) == (len(caches[-1]) - 32) // 64
    assert caches[0] == caches[1]


def test_dataset_is_immutable():
    ds = _dataset(20)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.targets[0] = 1
