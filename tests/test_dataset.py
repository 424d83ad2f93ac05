import dataclasses
import datetime

import numpy as np
import pytest

from candlebias.dataset import (
    CandleRecord,
    LabeledDataset,
    apply_standardizer,
    fit_standardizer,
    ingest_csv,
    label,
    read_labeled_csv,
    split_chronological,
    write_labeled_csv,
    write_records_csv,
)
from candlebias.errors import DataError

from conftest import synthetic_candles, write_raw_csv


def _records(closes, start=datetime.date(2020, 1, 1), volume=1000.0):
    recs = []
    for i, c in enumerate(closes):
        d = start + datetime.timedelta(days=i)
        recs.append(CandleRecord(d, 6758, c, c * 1.01, c * 0.99, float(c), volume + i))
    return recs


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
    records, stats = ingest_csv(path, 6758)
    assert len(records) == 2
    assert all(r.securities_code == 6758 for r in records)
    assert stats.total_rows == 3 and stats.matched_rows == 2


def test_ingest_drops_and_counts_missing_close(tmp_path):
    path = _write(tmp_path, [
        "2021-01-04,6758,100,110,95,105,1000",
        "2021-01-05,6758,105,112,100,,1100",
        "2021-01-06,6758,104,115,100,110,1200",
    ])
    records, stats = ingest_csv(path, 6758)
    assert len(records) == 2
    assert stats.dropped_missing == 1


def test_ingest_drops_and_counts_non_finite(tmp_path):
    path = _write(tmp_path, [
        "2021-01-04,6758,100,110,95,105,1000",
        "2021-01-05,6758,105,112,100,inf,1100",
    ])
    records, stats = ingest_csv(path, 6758)
    assert len(records) == 1
    assert stats.dropped_missing == 1


def test_ingest_rejects_malformed_candles(tmp_path):
    # low above the body, then high below the body
    path = _write(tmp_path, [
        "2021-01-04,6758,100,110,102,105,1000",
        "2021-01-05,6758,105,103,100,108,1100",
        "2021-01-06,6758,104,115,100,110,1200",
    ])
    records, stats = ingest_csv(path, 6758)
    assert len(records) == 1
    assert stats.dropped_malformed == 2


def test_ingest_sorts_by_date(tmp_path):
    path = _write(tmp_path, [
        "2021-01-06,6758,104,115,100,110,1200",
        "2021-01-04,6758,100,110,95,105,1000",
        "2021-01-05,6758,105,112,100,108,1100",
    ])
    records, _ = ingest_csv(path, 6758)
    dates = [r.date for r in records]
    assert dates == sorted(dates)


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
    records, stats = ingest_csv(jpx_mini_csv, 6758)
    assert len(records) == 10
    assert stats == dataclasses.replace(stats, total_rows=12, matched_rows=11,
                                        dropped_missing=1, dropped_malformed=0)


def test_ingest_is_idempotent_on_canonical_output(tmp_path):
    raw = write_raw_csv(tmp_path / "raw.csv", synthetic_candles(60, seed=3))
    records, _ = ingest_csv(raw, 6758)
    canon = tmp_path / "canon.csv"
    write_records_csv(records, canon)
    records2, stats2 = ingest_csv(canon, 6758)
    assert records2 == records
    assert stats2.dropped_missing == 0 and stats2.dropped_malformed == 0


# ---------------------------------------------------------------------------
# label

def test_label_up():
    ds = label(_records([100.0, 101.5]))
    assert len(ds) == 1
    assert ds.targets.tolist() == [1]
    assert ds.next_close.tolist() == [101.5]


def test_label_tie_is_down():
    ds = label(_records([100.0, 100.0]))
    assert ds.targets.tolist() == [0]


def test_label_sequence():
    ds = label(_records([5.0, 4.0, 6.0]))
    assert ds.targets.tolist() == [0, 1]
    assert len(ds) == 2


def test_label_requires_two_records():
    with pytest.raises(DataError):
        label(_records([100.0]))


def test_label_drops_exactly_one_row():
    for n in (2, 7, 50):
        recs = _records(list(100.0 + np.arange(n)))
        assert len(label(recs)) == n - 1


def test_label_feature_column_order():
    recs = _records([100.0, 105.0])
    ds = label(recs)
    r = recs[0]
    assert ds.features[0].tolist() == [r.close, r.volume, r.open, r.high, r.low]


def test_label_brute_force_recheck():
    rng = np.random.default_rng(11)
    closes = np.abs(100.0 + np.cumsum(rng.normal(0, 2, size=300)))
    ds = label(_records(list(closes)))
    for i in range(len(ds)):
        expected = 1 if ds.next_close[i] > ds.features[i, 0] else 0
        assert ds.targets[i] == expected


# ---------------------------------------------------------------------------
# split_chronological

def _dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    closes = np.abs(100.0 + np.cumsum(rng.normal(0, 1, size=n + 1)))
    return label(_records(list(closes)))


def test_split_sizes():
    ds = split_chronological(_dataset(100), 0.7, 0.15)
    s = ds.split
    assert (len(s.train), len(s.validation), len(s.test)) == (70, 15, 15)


def test_split_empty_range_errors():
    with pytest.raises(DataError):
        split_chronological(_dataset(10), 0.9, 0.09)


def test_split_invalid_fractions_error():
    ds = _dataset(50)
    for fracs in ((0.0, 0.5), (0.5, 0.0), (0.8, 0.3)):
        with pytest.raises(DataError):
            split_chronological(ds, *fracs)


def test_split_is_ordered_contiguous_partition():
    for n, tf, vf in ((100, 0.7, 0.15), (37, 0.5, 0.25), (211, 0.6, 0.2)):
        ds = split_chronological(_dataset(n), tf, vf)
        s = ds.split
        assert s.train.start == 0 and s.train.stop == s.validation.start
        assert s.validation.stop == s.test.start and s.test.stop == len(ds)
        assert max(ds.dates[i] for i in s.train) < min(ds.dates[i] for i in s.validation)
        assert max(ds.dates[i] for i in s.validation) < min(ds.dates[i] for i in s.test)


# ---------------------------------------------------------------------------
# standardizer

def test_standardizer_uses_population_stddev():
    # population stddev of the two-point column [1, 3] is exactly 1
    features = np.array([[1.0, 10.0, 1.0, 2.0, 0.5],
                         [3.0, 20.0, 3.0, 4.0, 2.5],
                         [2.0, 15.0, 2.0, 3.0, 1.5],
                         [4.0, 25.0, 4.0, 5.0, 3.5]])
    next_close = np.array([3.0, 2.0, 4.0, 5.0])
    targets = (next_close > features[:, 0]).astype(np.int64)
    dates = tuple(datetime.date(2020, 1, 1) + datetime.timedelta(days=i) for i in range(4))
    ds = LabeledDataset(features, next_close, targets, dates)
    ds = split_chronological(ds, 0.5, 0.25)  # train = first 2 rows
    std = fit_standardizer(ds)
    assert std.mean[0] == 2.0 and std.stddev[0] == 1.0
    assert np.array_equal(std.mean, features[:2].mean(axis=0))
    assert np.array_equal(std.stddev, features[:2].std(axis=0))


def test_standardizer_constant_column_errors():
    ds = _dataset(40)
    features = ds.features.copy()
    features[:, 1] = 7.0  # constant volume
    ds = LabeledDataset(features, ds.next_close.copy(), ds.targets.copy(), ds.dates)
    ds = split_chronological(ds, 0.5, 0.25)
    with pytest.raises(DataError, match="Volume"):
        fit_standardizer(ds)


def test_standardizer_depends_only_on_train_rows():
    ds = split_chronological(_dataset(60), 0.5, 0.25)
    std = fit_standardizer(ds)
    # perturb non-close feature columns outside the train range and refit
    features = ds.features.copy()
    features[ds.split.validation.start:, 1:] *= 3.7
    mutated = LabeledDataset(features, ds.next_close.copy(), ds.targets.copy(),
                             ds.dates, split=ds.split)
    std2 = fit_standardizer(mutated)
    assert np.array_equal(std.mean, std2.mean)
    assert np.array_equal(std.stddev, std2.stddev)


def test_apply_standardizer_centers_train_rows():
    ds = split_chronological(_dataset(80), 0.7, 0.15)
    std = fit_standardizer(ds)
    scaled = apply_standardizer(std, ds.rows(ds.split.train))
    assert np.all(np.abs(scaled.mean(axis=0)) < 1e-9)
    assert np.allclose(scaled.std(axis=0), 1.0)


def test_apply_standardizer_identity():
    from candlebias.dataset import Standardizer
    std = Standardizer(mean=np.zeros(5), stddev=np.ones(5))
    X = np.random.default_rng(5).normal(size=(10, 5))
    assert np.array_equal(apply_standardizer(std, X), X)


def test_apply_standardizer_round_trip():
    ds = split_chronological(_dataset(80), 0.7, 0.15)
    std = fit_standardizer(ds)
    X = ds.features
    back = apply_standardizer(std, X) * std.stddev + std.mean
    assert np.all(np.abs(back - X) < 1e-9 * np.maximum(1.0, np.abs(X)))


def test_apply_standardizer_shape_mismatch():
    ds = split_chronological(_dataset(40), 0.5, 0.25)
    std = fit_standardizer(ds)
    with pytest.raises(ValueError):
        apply_standardizer(std, np.ones((3, 4)))


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
    assert back.dates == ds.dates


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


def test_dataset_is_immutable():
    ds = _dataset(20)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.targets[0] = 1
