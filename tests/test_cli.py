import argparse
import contextlib
import datetime
import functools
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlebias import cachefile, cli, dataset, logistic, neural, trees

from conftest import NODE_CACHE_FAULTS, synthetic_candles, write_raw_csv

REPORT_SCHEMA = {
    "type": "object",
    "required": ["models", "metadata"],
    "properties": {
        "models": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["model", "accuracy", "f1", "tp", "fp", "tn", "fn", "loss"],
                "properties": {
                    "model": {"type": "string"},
                    "accuracy": {"type": "number", "minimum": 0, "maximum": 1},
                    "f1": {"type": "number", "minimum": 0, "maximum": 1},
                    "tp": {"type": "integer", "minimum": 0},
                    "fp": {"type": "integer", "minimum": 0},
                    "tn": {"type": "integer", "minimum": 0},
                    "fn": {"type": "integer", "minimum": 0},
                    "loss": {"type": ["number", "null"]},
                },
            },
        },
        "metadata": {"type": "object"},
    },
}

FAST_CONFIG = {
    "lr": {"epochs": 120},
    "rf": {"n_estimators": 20, "min_samples_split": 20, "max_depth": 12},
    "fnn": {"epochs": 3},
}


# sha256 of every file a seed-42 `compare --format json` under FAST_CONFIG
# writes, taken before the CLI's model table replaced its per-model branches;
# any change to these bytes must be deliberate and recorded in CHANGES.md.
GOLDEN_COMPARE = {
    "fnn_loss_history.csv": "e73fee2ee7f7b55782dc3bd97a5dde5bb8bf7690f0328146351bc8a20e1f8f8f",
    "model_dt.json": "6f8f38f471cbb11e5819e11faf0d1fb5a89166eda30162de45ea09082eec674b",
    "model_fnn.json": "c36fa11714f8ff849f28c508e9d75b9503140ca02f4cd739017e28aadf34f97e",
    "model_lr.json": "82cdb5c5a941c25314327fecb721dfdd7348fa1e93669f5016f35443646beb04",
    "model_rf.json": "ce4a5c68a2b6373ccc058499c6447cdcd9b95b086325dbe30e5a3ddf039e2710",
    "model_rf.json.nodes": "4a1b5f16e27a3e9112efe8ed0e817d3dac196fbea7b6b73f30b44c92c5d65c1d",
    "report_compare.json": "328905f39dd7da24ebe1a9c8f8d17a02baa74b6cb18426d2164ae34653d2038f",
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    raw = write_raw_csv(root / "raw.csv", synthetic_candles(400, seed=7))
    out = root / "out"
    assert cli.main(["prepare", "--data", str(raw), "--out", str(out)]) == 0
    config_path = root / "fast.json"
    config_path.write_text(json.dumps(FAST_CONFIG))
    return SimpleNamespace(root=root, raw=raw, out=out,
                           dataset=out / "dataset.csv", config=config_path)


@pytest.fixture(scope="module")
def trained(workspace):
    """All four models trained with default hyperparameters into workspace.out."""
    for model in cli.MODEL_NAMES:
        rc = cli.main(["train", "--model", model, "--out", str(workspace.out)])
        assert rc == 0
    return workspace


# ---------------------------------------------------------------------------
# prepare

def test_prepare_mini_fixture_hand_trace(tmp_path, jpx_mini_csv):
    out = tmp_path / "out"
    rc = cli.main(["prepare", "--data", str(jpx_mini_csv), "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "dataset_summary.json").read_text())
    # 12 raw rows, 1 foreign code, 1 missing close, 1 without successor -> 9
    assert summary["input_rows"] == 12
    assert summary["matched_rows"] == 11
    assert summary["dropped_missing"] == 1
    assert summary["dropped_malformed"] == 0
    assert summary["labeled_rows"] == 9
    assert summary["split"] == {"train": [0, 6], "validation": [6, 7], "test": [7, 9]}
    lines = (out / "dataset.csv").read_text().strip().splitlines()
    assert len(lines) == 10
    assert lines[0] == "Date,Open,High,Low,Close,Volume,Next,Target"
    targets = [int(line.split(",")[-1]) for line in lines[1:]]
    assert targets == [0, 0, 1, 1, 1, 0, 0, 1, 1]
    assert summary["ties"] == 0


def test_prepare_counts_ties_and_labels_them_down(tmp_path):
    # Labeled rows 0, 3 and 4 close where the next day closes: three ties.
    closes = [100.0, 100.0, 101.0, 99.0, 99.0, 99.0, 102.0, 103.0]
    start = datetime.date(2021, 1, 4)
    raw = write_raw_csv(tmp_path / "ties.csv", [
        (start + datetime.timedelta(days=i), 6758, c, c + 1.0, c - 1.0, c, 1000.0)
        for i, c in enumerate(closes)])
    out = tmp_path / "out"
    assert cli.main(["prepare", "--data", str(raw), "--split", "0.5,0.25",
                     "--out", str(out)]) == 0
    summary = json.loads((out / "dataset_summary.json").read_text())
    assert summary["labeled_rows"] == 7
    assert summary["ties"] == 3
    rows = [line.split(",") for line in (out / "dataset.csv").read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["0", "1", "0", "0", "0", "1", "1"]
    assert [i for i, row in enumerate(rows) if float(row[4]) == float(row[6])] == [0, 3, 4]


def test_prepare_is_byte_deterministic(tmp_path, synthetic_csv):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["prepare", "--data", str(synthetic_csv), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("dataset.csv", "dataset_summary.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_prepare_empty_after_filter_fails(tmp_path, synthetic_csv, capsys):
    rc = cli.main(["prepare", "--data", str(synthetic_csv), "--code", "9999",
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert "no usable rows" in capsys.readouterr().err


def test_prepare_without_data_source_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
    rc = cli.main(["prepare", "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert cli.DATA_DIR_ENV in capsys.readouterr().err


def test_flags_override_the_config_file_and_the_data_dir_is_the_last_resort(
        tmp_path, monkeypatch):
    # raw_a holds 100 days of 7203 and 50 of 6758; the data dir's file 70 of 7203.
    raw_a = write_raw_csv(tmp_path / "a.csv", synthetic_candles(100, seed=5, code=7203)
                          + synthetic_candles(50, seed=6))
    data_dir = tmp_path / "datadir"
    data_dir.mkdir()
    write_raw_csv(data_dir / cli.DATA_FILE_NAME, synthetic_candles(70, seed=8, code=7203))
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(data_dir))
    out = tmp_path / "out"
    file_cfg = {**FAST_CONFIG, "data": str(raw_a), "code": 7203, "seed": 9,
                "split": [0.6, 0.2], "format": "csv", "out": str(out)}
    config = tmp_path / "run.json"
    config.write_text(json.dumps(file_cfg))

    def prepared(*flags):
        assert cli.main(["prepare", "--config", str(config), *flags]) == 0
        return json.loads((out / "dataset_summary.json").read_text())

    assert prepared("--data", str(data_dir / cli.DATA_FILE_NAME))["input_rows"] == 70
    config.write_text(json.dumps({key: value for key, value in file_cfg.items()
                                  if key != "data"}))
    assert prepared()["input_rows"] == 70
    config.write_text(json.dumps(file_cfg))
    summary = prepared("--split", "0.65,0.15")
    assert (summary["input_rows"], summary["labeled_rows"]) == (150, 99)
    assert summary["securities_code"] == 7203
    assert summary["split"] == {"train": [0, 64], "validation": [64, 78], "test": [78, 99]}

    assert cli.main(["compare", "--config", str(config), "--split", "0.65,0.15",
                     "--seed", "3", "--format", "json"]) == 0
    assert not (out / "report_compare.csv").exists()
    metadata = json.loads((out / "report_compare.json").read_text())["metadata"]
    assert metadata["securities_code"] == 7203
    assert metadata["master_seed"] == 3
    assert metadata["split_fractions"] == [0.65, 0.15]


def test_prepare_uses_env_data_dir(tmp_path, monkeypatch):
    data_dir = tmp_path / "datadir"
    data_dir.mkdir()
    write_raw_csv(data_dir / cli.DATA_FILE_NAME, synthetic_candles(60, seed=5))
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(data_dir))
    out = tmp_path / "out"
    assert cli.main(["prepare", "--out", str(out)]) == 0
    assert (out / "dataset.csv").exists()


# ---------------------------------------------------------------------------
# train

def test_train_lr_writes_full_cost_history(trained):
    doc = json.loads((trained.out / "model_lr.json").read_text())
    assert len(doc["theta"]) == 6
    assert len(doc["cost_history"]) == 1000
    assert doc["alpha"] == 0.01
    assert list(doc)[-1] == "standardizer"
    assert set(doc["standardizer"]) == {"mean", "stddev"}
    lines = (trained.out / "lr_cost_history.csv").read_text().strip().splitlines()
    assert len(lines) == 1001


def test_train_rf_defaults(trained):
    doc = json.loads((trained.out / "model_rf.json").read_text())
    assert doc["n_estimators"] == 250
    assert len(doc["trees"]) == 250
    assert doc["params"] == {"max_depth": 100, "min_samples_split": 100,
                             "max_features": 5}
    assert 0.0 <= doc["oob_error"] <= 1.0


def test_train_fnn_defaults(trained):
    doc = json.loads((trained.out / "model_fnn.json").read_text())
    assert doc["layer_dims"] == [5, 128, 64, 1]
    assert doc["config"]["epochs"] == 10 and doc["config"]["batch_size"] == 32
    assert list(doc)[-1] == "standardizer"
    assert set(doc["standardizer"]) == {"mean", "stddev"}
    lines = (trained.out / "fnn_loss_history.csv").read_text().strip().splitlines()
    assert len(lines) == 11  # header + 10 epochs


def test_train_dt_writes_node_document(trained):
    doc = json.loads((trained.out / "model_dt.json").read_text())
    assert "p_up" in doc or "feature" in doc


def test_train_without_prepared_dataset_fails(tmp_path, capsys):
    rc = cli.main(["train", "--model", "lr", "--out", str(tmp_path / "nothing")])
    assert rc == cli.EXIT_DATA
    assert "prepare" in capsys.readouterr().err


def test_train_invalid_hyperparameters_exit_training(workspace, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"rf": {"n_estimators": 0}}))
    rc = cli.main(["train", "--model", "rf", "--config", str(config),
                   "--dataset", str(workspace.dataset), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_TRAINING
    assert "training error" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("batch_size", 0), ("epochs", -1)])
def test_train_fnn_out_of_range_hyperparameter_names_it(key, value, workspace, tmp_path,
                                                        capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"fnn": {key: value}}))
    rc = cli.main(["train", "--model", "fnn", "--config", str(config),
                   "--dataset", str(workspace.dataset), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_TRAINING
    assert err.startswith("training error: ") and err.count("\n") == 1
    assert f"{key}={value}" in err


# Both sizes (7.1 and 3.6 PiB) exceed a 64-bit process's user address space
# (128 TiB on x86-64 Linux), so the allocation fails at once without touching
# memory. Never use a size that could really be allocated.
@pytest.mark.parametrize("model,section", [("lr", {"epochs": 10**15}),
                                           ("fnn", {"layer_dims": [5, 10**14, 1]})])
def test_train_impossible_allocation_exits_training(model, section, workspace, tmp_path,
                                                    capsys):
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({model: section}))
    rc = cli.main(["train", "--model", model, "--config", str(config),
                   "--dataset", str(workspace.dataset), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_TRAINING
    assert err.startswith(f"training error: cannot train {model}: ") and err.count("\n") == 1


def test_train_diverging_fit_prints_one_line(tmp_path):
    # On this walk the cost turns NaN at epoch 384. A subprocess, because
    # pytest would capture numpy's RuntimeWarnings in-process.
    raw = write_raw_csv(tmp_path / "raw.csv", synthetic_candles(200, seed=7))
    assert cli.main(["prepare", "--data", str(raw), "--out", str(tmp_path)]) == 0
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"lr": {"alpha": 1e308}}))
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "candlebias.cli", "train", "--model", "lr",
         "--config", str(config), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == cli.EXIT_TRAINING
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("training error: cannot train lr: non-finite cost")


@pytest.mark.parametrize("command", [["train", "--model", "lr"], ["compare"]])
def test_a_fitted_document_its_loader_refuses_exits_training(command, workspace, tmp_path,
                                                             monkeypatch, capsys):
    to_dict = logistic.to_dict  # looked up when LR is fitted, so the patch reaches it
    monkeypatch.setattr(logistic, "to_dict", lambda model: {
        **to_dict(model), "theta": [float("inf")] + model.theta.tolist()[1:]})
    out = tmp_path / "out"
    rc = cli.main(command + ["--config", str(workspace.config),
                             "--dataset", str(workspace.dataset), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_TRAINING
    assert err.startswith("training error: cannot train lr: theta ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["train", "--model", "lr"], ["train", "--model", "fnn"],
                                     ["compare"]])
def test_an_overflowing_train_column_exits_data(command, workspace, tmp_path, capsys):
    # Volume alternates 1.0 and 1e200, so its squared deviations overflow.
    header, *rows = workspace.dataset.read_text().splitlines()
    data = tmp_path / "dataset.csv"
    data.write_text("\n".join([header] + [
        ",".join(f[:5] + [("1.0", "1e200")[i % 2]] + f[6:])
        for i, f in enumerate(row.split(",") for row in rows)]) + "\n")
    out = tmp_path / "out"
    rc = cli.main(command + ["--config", str(workspace.config),
                             "--dataset", str(data), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == ("data error: train column(s) ['Volume']: "
                                       "mean or stddev overflows the float range\n")
    assert not out.exists()


def _fail(kind):
    if kind == "error":
        raise ValueError("no bootstrap in a forked process")
    os._exit(1)


@pytest.mark.parametrize("kind, message", [
    ("error", "no bootstrap in a forked process"),
    ("exit", "a forest-growing process ended without its trees (exit status 1)"),
])
def test_train_rf_failing_in_a_forked_range_prints_one_line(kind, message, workspace, tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.setattr(trees, "_cpu_count", lambda: 2)
    parent = os.getpid()

    def bootstrap(n, seed):  # fails only in the process growing the second half
        return trees.bootstrap_sample(n, seed) if os.getpid() == parent else _fail(kind)

    monkeypatch.setattr(trees, "fit_forest",
                        functools.partial(trees.fit_forest, bootstrap_fn=bootstrap))
    rc = cli.main(["train", "--model", "rf", "--dataset", str(workspace.dataset),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_TRAINING
    assert capsys.readouterr().err == f"training error: cannot train rf: {message}\n"
    assert not (tmp_path / "out" / "model_rf.json").exists()
    with pytest.raises(ChildProcessError):  # no process outlives the fit
        os.waitpid(-1, os.WNOHANG)


def test_train_tree_too_deep_to_recurse_exits_training(tmp_path, capsys):
    # Rising features and alternating targets: every split peels off one row,
    # so the tree would be about 2,100 levels deep.
    n = 3000
    close = 100.0 + np.arange(n)
    features = np.column_stack([close, 1000.0 + np.arange(n), close, close + 1.0, close - 1.0])
    next_close = close + np.where(np.arange(n) % 2 == 0, 0.5, -0.5)
    dates = datetime.date(2000, 1, 1).toordinal() + np.arange(n)
    data = tmp_path / "deep.csv"
    dataset.write_labeled_csv(dataset.LabeledDataset(
        features, next_close, (next_close > close).astype(np.int64), dates), data)
    config = tmp_path / "deep.json"
    config.write_text(json.dumps({"dt": {"max_depth": 5000, "min_samples_split": 2}}))
    rc = cli.main(["train", "--model", "dt", "--config", str(config), "--dataset", str(data),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_TRAINING
    assert err.startswith("training error: cannot train dt: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "model_dt.json").exists()


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_memorizing_tree_on_train_split(workspace, tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "memorize.json"
    config.write_text(json.dumps({"dt": {"min_samples_split": 2}}))
    assert cli.main(["train", "--model", "dt", "--config", str(config),
                     "--dataset", str(workspace.dataset), "--out", str(out)]) == 0
    rc = cli.main(["evaluate", "--model", "dt", "--eval-split", "train",
                   "--dataset", str(workspace.dataset), "--out", str(out),
                   "--format", "json"])
    assert rc == 0
    doc = json.loads((out / "report_dt_train.json").read_text())
    assert doc["models"][0]["accuracy"] == 1.0
    assert doc["models"][0]["f1"] == 1.0


def test_evaluate_csv_report_columns(trained, capsys):
    rc = cli.main(["evaluate", "--model", "lr", "--eval-split", "validation",
                   "--out", str(trained.out), "--format", "csv"])
    assert rc == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "model,accuracy,f1,tp,fp,tn,fn,loss"


def test_evaluate_uses_identical_rows_across_models(trained):
    for model in ("lr", "rf"):
        rc = cli.main(["evaluate", "--model", model, "--eval-split", "validation",
                       "--out", str(trained.out), "--format", "json"])
        assert rc == 0
    totals = []
    for model in ("lr", "rf"):
        doc = json.loads((trained.out / f"report_{model}_validation.json").read_text())
        m = doc["models"][0]
        totals.append(m["tp"] + m["fp"] + m["tn"] + m["fn"])
    assert totals[0] == totals[1] == 59  # floor(399 * 0.15)


def test_evaluate_missing_model_file_fails(workspace, tmp_path, capsys):
    rc = cli.main(["evaluate", "--model", "rf", "--dataset", str(workspace.dataset),
                   "--out", str(tmp_path / "empty")])
    assert rc == cli.EXIT_DATA


def test_evaluate_model_file_flag(trained, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["evaluate", "--model-file", str(trained.out / "model_dt.json"),
                   "--eval-split", "test", "--dataset", str(trained.dataset),
                   "--out", str(out), "--format", "json"])
    assert rc == 0
    doc = json.loads((out / "report_dt_test.json").read_text())
    assert doc["models"][0]["model"] == "DT"


def test_evaluate_model_flag_refuses_a_file_holding_another_model(trained, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(trained.out / "model_dt.json", out / "model_lr.json")
    rc, err = _run_quietly(["evaluate", "--model", "lr", "--dataset", str(trained.dataset),
                            "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert err == f"data error: model file {out / 'model_lr.json'}: holds a DT model, not LR\n"
    assert sorted(p.name for p in out.iterdir()) == ["model_lr.json"]


def test_evaluate_fnn_in_blocks_writes_the_one_pass_report(tmp_path, monkeypatch):
    # 98% of 2,499 rows are scored: more than two blocks, the last one longer
    out = tmp_path / "out"
    raw = write_raw_csv(tmp_path / "raw.csv", synthetic_candles(2500, seed=7))
    config = tmp_path / "fast.json"
    config.write_text(json.dumps(FAST_CONFIG))
    assert cli.main(["prepare", "--data", str(raw), "--out", str(out)]) == 0
    assert cli.main(["train", "--model", "fnn", "--config", str(config), "--out", str(out)]) == 0
    block = neural._SCORE_ROWS
    reports = []
    for score_rows in (block, 10**9):
        monkeypatch.setattr(neural, "_SCORE_ROWS", score_rows)
        assert cli.main(["evaluate", "--model", "fnn", "--split", "0.01,0.01",
                         "--eval-split", "test", "--format", "json", "--out", str(out)]) == 0
        reports.append((out / "report_fnn_test.json").read_bytes())
    m = json.loads(reports[0])["models"][0]
    assert m["tp"] + m["fp"] + m["tn"] + m["fn"] > 2 * block
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", [["evaluate", "--model", "lr"], ["compare"]])
def test_library_warning_is_one_line_without_a_source_location(command, tmp_path,
                                                               jpx_mini_csv, capsys):
    # the mini fixture's one validation row is down, so F1 is undefined
    out = tmp_path / "out"
    config = tmp_path / "fnn.json"
    config.write_text(json.dumps({"fnn": {"batch_size": 2}}))  # below the 6 train rows
    assert cli.main(["prepare", "--data", str(jpx_mini_csv), "--out", str(out)]) == 0
    assert cli.main(["train", "--model", "lr", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main([*command, "--config", str(config), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: F1 undefined for LR (no positive predictions or labels); reporting 0.0"]
    assert ".py:" not in err


# ---------------------------------------------------------------------------
# compare

def test_compare_emits_fixed_row_order_and_schema(workspace, tmp_path):
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(workspace.config),
                   "--dataset", str(workspace.dataset),
                   "--out", str(out), "--format", "json"])
    assert rc == 0
    doc = json.loads((out / "report_compare.json").read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert [m["model"] for m in doc["models"]] == ["LR", "DT", "RF", "FNN"]
    assert doc["metadata"]["evaluation_splits"] == {
        "LR": "validation", "DT": "validation", "RF": "validation", "FNN": "test"}


def test_compare_byte_identical_reruns(workspace, tmp_path):
    texts = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = cli.main(["compare", "--config", str(workspace.config),
                       "--dataset", str(workspace.dataset),
                       "--out", str(out), "--seed", "42"])
        assert rc == 0
        texts.append((out / "report_compare.txt").read_bytes())
        for model in cli.MODEL_NAMES:
            assert (out / f"model_{model}.json").exists()
    assert texts[0] == texts[1]


def test_compare_table_format(workspace, tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(workspace.config),
                   "--dataset", str(workspace.dataset), "--out", str(out)])
    assert rc == 0
    table = (out / "report_compare.txt").read_text()
    lines = table.splitlines()
    assert lines[0].split() == ["Model", "Accuracy", "F1", "Score"]
    assert [line.split()[0] for line in lines[2:6]] == ["LR", "DT", "RF", "FNN"]
    assert "FNN scored on the test range" in table


def test_compare_all_test_flag(workspace, tmp_path):
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(workspace.config),
                   "--dataset", str(workspace.dataset), "--out", str(out),
                   "--format", "json", "--eval-all-test"])
    assert rc == 0
    doc = json.loads((out / "report_compare.json").read_text())
    assert set(doc["metadata"]["evaluation_splits"].values()) == {"test"}


def test_compare_golden_hashes(workspace, tmp_path):
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(workspace.config),
                   "--dataset", str(workspace.dataset),
                   "--out", str(out), "--format", "json", "--seed", "42"])
    assert rc == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_COMPARE}
    assert digests == GOLDEN_COMPARE


def test_compare_reports_the_code_of_the_dataset_it_scores(tmp_path):
    raw = write_raw_csv(tmp_path / "two.csv", synthetic_candles(300, seed=3) + synthetic_candles(
        300, seed=4, code=7203))
    out = tmp_path / "out"
    config = tmp_path / "fast.json"
    config.write_text(json.dumps(FAST_CONFIG))
    assert cli.main(["prepare", "--data", str(raw), "--code", "7203", "--out", str(out)]) == 0
    assert _run_quietly(["compare", "--config", str(config), "--format", "json",
                         "--out", str(out)])[0] == 0
    doc = json.loads((out / "report_compare.json").read_text())
    assert doc["metadata"]["securities_code"] == 7203 != cli.DEFAULT_CONFIG["code"]


def test_compare_matches_individual_train_and_evaluate(workspace, tmp_path):
    common = ["--config", str(workspace.config), "--dataset", str(workspace.dataset),
              "--format", "json", "--seed", "11"]
    cmp_out = tmp_path / "cmp"
    assert cli.main(["compare", "--out", str(cmp_out)] + common) == 0
    combined = json.loads((cmp_out / "report_compare.json").read_text())
    splits = combined["metadata"]["evaluation_splits"]

    solo_out = tmp_path / "solo"
    for name in cli.MODEL_NAMES:
        label = name.upper()
        model_file = f"model_{name}.json"
        assert cli.main(["train", "--model", name, "--out", str(solo_out)] + common) == 0
        assert (cmp_out / model_file).read_bytes() == (solo_out / model_file).read_bytes()
        if name == "rf":
            assert ((cmp_out / f"{model_file}.nodes").read_bytes()
                    == (solo_out / f"{model_file}.nodes").read_bytes())
        assert cli.main(["evaluate", "--model-file", str(cmp_out / model_file),
                         "--eval-split", splits[label], "--out", str(solo_out)] + common) == 0
        solo = json.loads((solo_out / f"report_{name}_{splits[label]}.json").read_text())
        assert solo["models"] == [m for m in combined["models"] if m["model"] == label]

    # The model that fitting checks predicts, row by row, what its saved file does.
    args = cli._build_parser().parse_args(["compare", "--out", str(cmp_out)] + common)
    config = cli._merge_config(args)
    ds, split = cli._load_split_dataset(config, args)
    for name in cli.MODEL_NAMES:
        path, scored = cmp_out / f"model_{name}.json", getattr(split, splits[name.upper()])
        fitted = cli._score(name, cli._fit(name, ds, split.train, config)[0], ds, scored, path)
        saved = cli._score(*cli._load_model(path), ds, scored, path)
        np.testing.assert_array_equal(fitted[1], saved[1])
        assert fitted[0] == saved[0]


def test_compare_scores_without_reading_its_model_files(workspace, tmp_path, monkeypatch):
    def read_back(path):
        raise AssertionError(f"compare read {path} back")

    monkeypatch.setattr(cli, "_load_model", read_back)
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--config", str(workspace.config),
                   "--dataset", str(workspace.dataset),
                   "--out", str(out), "--format", "json", "--seed", "42"])
    assert rc == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_COMPARE} == GOLDEN_COMPARE


def test_compare_scoring_fault_names_the_model_file(workspace, tmp_path):
    # Train Volume alternates 1e-150 and 2e-150 (stddev 5e-151) and later rows
    # hold 1e200, so LR's standardizer scales the scored rows past the float range.
    lines = workspace.dataset.read_text().splitlines()
    train = dataset.split_chronological(len(lines) - 1, *cli.DEFAULT_CONFIG["split"]).train
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        fields[5] = ("2e-150", "1e-150")[i % 2] if i - 1 in train else "1e200"
        lines[i] = ",".join(fields)
    data = tmp_path / "dataset.csv"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc, err = _run_quietly(["compare", "--config", str(workspace.config),
                            "--dataset", str(data), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: model file {out / 'model_lr.json'}: "
                          "standardizer with stddevs ") and err.count("\n") == 1
    assert err.endswith(" scales the features past the float range\n")


def test_compare_writes_the_history_files_train_writes(workspace, tmp_path):
    common = ["--config", str(workspace.config), "--dataset", str(workspace.dataset)]
    assert cli.main(["compare", "--out", str(tmp_path / "cmp")] + common) == 0
    for name in ("lr", "fnn"):
        assert cli.main(["train", "--model", name, "--out", str(tmp_path / "solo")] + common) == 0
    for fname, header in (("lr_cost_history.csv", b"epoch,cost\r\n"),
                          ("fnn_loss_history.csv", b"epoch,train_loss,val_loss\r\n")):
        data = (tmp_path / "cmp" / fname).read_bytes()
        assert data.startswith(header) and data.count(b"\n") == data.count(b"\r\n")
        assert data == (tmp_path / "solo" / fname).read_bytes()


def test_a_compare_that_fails_writes_no_model_file(workspace, tmp_path):
    # LR, DT and RF fit and score; the FNN's layer_dims is refused.
    config = tmp_path / "bad_fnn.json"
    config.write_text(json.dumps({**FAST_CONFIG, "lr": {"epochs": 60},
                                  "fnn": {"epochs": 3, "layer_dims": [5, 0, 1]}}))
    failing = ["compare", "--config", str(config), "--dataset", str(workspace.dataset)]
    fresh = tmp_path / "fresh"
    rc, err = _run_quietly(failing + ["--out", str(fresh)])
    assert rc == cli.EXIT_TRAINING and err.count("\n") == 1
    assert err.startswith("training error: cannot train fnn: layer_dims must run from 5 inputs")
    assert not list(fresh.glob("model_*.json")) and not list(fresh.glob("*_history.csv"))

    earlier = tmp_path / "earlier"
    assert cli.main(["compare", "--config", str(workspace.config), "--dataset",
                     str(workspace.dataset), "--out", str(earlier), "--seed", "11"]) == 0
    left = {path.name: path.read_bytes() for path in earlier.iterdir()}
    assert _run_quietly(failing + ["--out", str(earlier)])[0] == cli.EXIT_TRAINING
    assert {path.name: path.read_bytes() for path in earlier.iterdir()} == left


# ---------------------------------------------------------------------------
# exit statuses

def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    assert cli.main(["bogus"]) == cli.EXIT_USAGE
    assert cli.main(["train"]) == cli.EXIT_USAGE  # --model is required
    assert cli.main(["evaluate"]) == cli.EXIT_USAGE  # needs --model or --model-file
    assert cli.main(["evaluate", "--model", "rf",  # not both
                     "--model-file", "model_lr.json"]) == cli.EXIT_USAGE
    assert cli.main(["prepare", "--split", "0.7"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_unknown_config_keys_fail(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"bogus_section": {}}))
    rc = cli.main(["prepare", "--config", str(config), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_DATA
    assert "unknown keys" in capsys.readouterr().err


def test_flag_overrides_keep_zero_and_ignore_empty_paths():
    args = argparse.Namespace(config=None, data="", code=0, seed=0, split=None,
                              format=None, out="")
    config = cli._merge_config(args)
    assert list(config) == list(cli.DEFAULT_CONFIG)
    assert (config["code"], config["seed"]) == (0, 0)
    assert config["out"] == Path(cli.DEFAULT_CONFIG["out"])
    assert config["split"] == cli.DEFAULT_CONFIG["split"]


def test_readme_cli_and_modules_share_one_set_of_default_hyperparameters():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    documented = json.loads(readme.split("```json\n")[1].split("```")[0])
    del documented["data"]  # an example path: the default is none
    assert documented == {key: value for key, value in cli.DEFAULT_CONFIG.items()
                          if key != "data"}
    tree, fnn = trees.TreeParams(), neural.TrainConfig()
    assert {name: cli.DEFAULT_CONFIG[name] for name in cli.MODEL_NAMES} == {
        "lr": {"alpha": logistic.DEFAULT_ALPHA, "epochs": logistic.DEFAULT_EPOCHS},
        "dt": {"max_depth": tree.max_depth, "min_samples_split": tree.min_samples_split},
        "rf": {"n_estimators": trees.DEFAULT_N_ESTIMATORS, "max_features": tree.max_features,
               "max_depth": tree.max_depth, "min_samples_split": tree.min_samples_split},
        "fnn": {"epochs": fnn.epochs, "batch_size": fnn.batch_size,
                "validation_fraction": fnn.validation_fraction,
                "layer_dims": list(neural.DEFAULT_LAYER_DIMS)},
    }


def _dataset_with_line(workspace, index, edit):
    lines = workspace.dataset.read_text().splitlines()
    lines[index] = edit(lines[index].split(","))
    return "\n".join(lines) + "\n"


def _dataset_with_lines_swapped(workspace, i, j):
    lines = workspace.dataset.read_text().splitlines()
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


_LR_THETA = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
_LEAF = {"p_up": 1.0, "n": 2}
_TREE_PARAMS = {"max_depth": 2, "min_samples_split": 2, "max_features": 5}


def _lr_model(theta, width):
    return json.dumps({"theta": theta, "alpha": 0.01, "epochs": 1, "cost_history": [0.5],
                       "standardizer": {"mean": [0.0] * width, "stddev": [1.0] * width}})


def _split(feature):
    return {"feature": feature, "threshold": 0.0, "left": _LEAF, "right": _LEAF}


def _rf_model(trees):
    return json.dumps({"n_estimators": 1, "seed": 0, "params": _TREE_PARAMS,
                       "oob_error": None, "trees": trees})


def _fnn_model(layer_dims, shapes):
    """An FNN document with the given layer_dims and (out, in) weight shapes."""
    return json.dumps({"layer_dims": layer_dims,
                       "weights": [[[0.0] * n_in] * n_out for n_out, n_in in shapes],
                       "biases": [[0.0] * n_out for n_out, _ in shapes],
                       "seed": 0, "config": None,
                       "standardizer": {"mean": [0.0] * 5, "stddev": [1.0] * 5}})


def _with_keys(document: str, **changed) -> str:
    """The JSON document with the given top-level keys replaced."""
    return json.dumps({**json.loads(document), **changed})


# Each bad input file, by the command that reads it; every one must exit 2
# with one line on stderr that names the file.
BAD_INPUT_FILES = {
    "rf_model_without_params": ("model", lambda ws: json.dumps(
        {"n_estimators": 1, "seed": 0, "oob_error": None, "trees": [{"p_up": 1.0, "n": 2}]})),
    "lr_model_without_alpha": ("model", lambda ws: json.dumps(
        {"theta": _LR_THETA, "epochs": 1, "cost_history": [0.5],
         "standardizer": {"mean": [0.0] * 5, "stddev": [1.0] * 5}})),
    "model_not_json": ("model", lambda ws: "{not json"),
    "dt_model_feature_out_of_range": ("model", lambda ws: json.dumps(_split(9))),
    "dt_model_fractional_feature": ("model", lambda ws: json.dumps(_split(1.7))),
    "rf_model_negative_feature": ("model", lambda ws: _rf_model([_split(-1)])),
    "rf_model_without_trees": ("model", lambda ws: _rf_model([])),
    "rf_model_n_estimators_disagrees_with_trees": ("model", lambda ws: _rf_model(
        [_LEAF, _split(0)])),
    "dt_leaf_p_up_above_one": ("model", lambda ws: json.dumps(
        {**_split(2), "right": {"p_up": 1.5, "n": 2}})),
    "rf_leaf_p_up_negative": ("model", lambda ws: _rf_model([_split(1)]).replace(
        '"p_up": 1.0', '"p_up": -0.25', 1)),
    "lr_model_short_theta": ("model", lambda ws: _lr_model([1.0, 0.0], 5)),
    "lr_model_narrow_standardizer": ("model", lambda ws: _lr_model(_LR_THETA, 2)),
    "lr_model_null_standardizer": ("model", lambda ws: json.dumps(
        {**json.loads(_lr_model(_LR_THETA, 5)), "standardizer": None})),
    "lr_standardizer_zero_stddev": ("model", lambda ws: _lr_model(_LR_THETA, 5).replace(
        '"stddev": [1.0', '"stddev": [0.0', 1)),
    "lr_standardizer_subnormal_stddev": ("model", lambda ws: _lr_model(_LR_THETA, 5).replace(
        '"stddev": [1.0', '"stddev": [1e-320', 1)),
    "fnn_standardizer_negative_stddev": ("model", lambda ws: _fnn_model(
        [5, 1], [(1, 5)]).replace('"stddev": [1.0', '"stddev": [-1.0', 1)),
    "fnn_model_without_standardizer": ("model", lambda ws: json.dumps(
        {key: value for key, value in json.loads(_fnn_model([5, 1], [(1, 5)])).items()
         if key != "standardizer"})),
    "fnn_model_weights_cut_short": ("model", lambda ws: _fnn_model([5, 3, 1], [(3, 5)])),
    "fnn_model_dims_disagree_with_weights": ("model", lambda ws: _fnn_model(
        [5, 4, 1], [(3, 5), (1, 3)])),
    "fnn_model_bool_layer_width": ("model", lambda ws: _fnn_model(
        [5, True, 1], [(1, 5), (1, 1)])),
    "fnn_model_float_layer_width": ("model", lambda ws: _fnn_model(
        [5, 1.0, 1], [(1, 5), (1, 1)])),
    "lr_theta_nan": ("model", lambda ws: _lr_model(_LR_THETA, 5).replace("1.0", "NaN", 1)),
    "lr_theta_overflows_to_nan": ("model", lambda ws: _lr_model(
        [0.0, 1e308, 0.0, -1e308, 0.0, 0.0], 5)),
    "fnn_weights_overflow_to_nan": ("model", lambda ws: json.dumps(
        {**json.loads(_fnn_model([5, 1], [(1, 5)])),
         "weights": [[[1e308, 0.0, -1e308, 0.0, 0.0]]]})),
    "rf_leaf_infinity": ("model", lambda ws: _rf_model([_LEAF]).replace("1.0", "Infinity", 1)),
    "dt_threshold_overflows_float": ("model", lambda ws: json.dumps(_split(0)).replace(
        "0.0", "1e400", 1)),
    "dt_threshold_nan_string": ("model", lambda ws: json.dumps(
        {**_split(0), "threshold": "nan"})),
    "dt_threshold_overflowing_string": ("model", lambda ws: json.dumps(
        {**_split(0), "threshold": "1.5e999"})),
    "rf_threshold_bool": ("model", lambda ws: _rf_model([{**_split(3), "threshold": True}])),
    "dt_leaf_p_up_string": ("model", lambda ws: json.dumps(
        {**_split(1), "left": {"p_up": "0.5", "n": 2}})),
    "rf_leaf_n_string": ("model", lambda ws: _rf_model([{"p_up": 1.0, "n": "7"}])),
    "lr_theta_strings": ("model", lambda ws: _with_keys(
        _lr_model(_LR_THETA, 5), theta=[str(x) for x in _LR_THETA])),
    "lr_standardizer_bool_mean": ("model", lambda ws: _lr_model(_LR_THETA, 5).replace(
        '"mean": [0.0', '"mean": [true', 1)),
    "fnn_bias_strings": ("model", lambda ws: _with_keys(
        _fnn_model([5, 1], [(1, 5)]), biases=[["0.0"]])),
    "fnn_fractional_seed": ("model", lambda ws: _with_keys(_fnn_model([5, 1], [(1, 5)]),
                                                           seed=1.7)),
    "lr_cost_history_overflows_float": ("model", lambda ws: _lr_model(_LR_THETA, 5).replace(
        '"cost_history": [0.5]', '"cost_history": [1e400]', 1)),
    "rf_oob_error_nan": ("model", lambda ws: _rf_model([_LEAF]).replace(
        '"oob_error": null', '"oob_error": NaN', 1)),
    "fnn_validation_fraction_infinity": ("model", lambda ws: _with_keys(
        _fnn_model([5, 1], [(1, 5)]), config={"epochs": 1, "batch_size": 2,
                                              "validation_fraction": float("inf"),
                                              "shuffle_seed": 0})),
    "fnn_config_false": ("model", lambda ws: _with_keys(_fnn_model([5, 1], [(1, 5)]),
                                                         config=False)),
    "fnn_config_empty_object": ("model", lambda ws: _with_keys(_fnn_model([5, 1], [(1, 5)]),
                                                                config={})),
    "rf_oob_error_string": ("model", lambda ws: _with_keys(_rf_model([_LEAF]), oob_error="0.4")),
    "rf_oob_error_negative": ("model", lambda ws: _with_keys(_rf_model([_LEAF]), oob_error=-0.5)),
    "rf_oob_error_above_one": ("model", lambda ws: _with_keys(_rf_model([_LEAF]), oob_error=1.5)),
    "rf_fractional_seed": ("model", lambda ws: _with_keys(_rf_model([_LEAF]), seed=2.5)),
    "rf_max_depth_string": ("model", lambda ws: _with_keys(
        _rf_model([_LEAF]), params={**_TREE_PARAMS, "max_depth": "7"})),
    "rf_max_depth_zero": ("model", lambda ws: _with_keys(
        _rf_model([_LEAF]), params={**_TREE_PARAMS, "max_depth": 0})),
    "rf_min_samples_split_negative": ("model", lambda ws: _with_keys(
        _rf_model([_LEAF]), params={**_TREE_PARAMS, "min_samples_split": -3})),
    "rf_max_features_above_the_feature_count": ("model", lambda ws: _with_keys(
        _rf_model([_LEAF]), params={**_TREE_PARAMS, "max_features": 9})),
    "rf_negative_seed": ("model", lambda ws: _with_keys(_rf_model([_LEAF]), seed=-5)),
    "rf_seed_past_64_bits": ("model", lambda ws: _with_keys(_rf_model([_LEAF]), seed=2**64)),
    "rf_leaf_n_negative": ("model", lambda ws: _rf_model([{"p_up": 1.0, "n": -7}])),
    "dt_leaf_n_negative": ("model", lambda ws: json.dumps(
        {**_split(2), "left": {"p_up": 0.5, "n": -1}})),
    "raw_not_utf8": ("raw", lambda ws: b"\xff\xfe" + ws.raw.read_bytes()),
    "config_section_not_object": ("config", lambda ws: json.dumps({"lr": 5})),
    "config_split_one_fraction": ("config", lambda ws: json.dumps({"split": [0.7]})),
    "config_misspelt_model_key": ("config", lambda ws: json.dumps({"rf": {"n_estimator": 3}})),
    "dataset_non_numeric_cell": ("dataset", lambda ws: _dataset_with_line(
        ws, 5, lambda f: ",".join(f[:4] + ["abc"] + f[5:]))),
    "dataset_short_row": ("dataset", lambda ws: _dataset_with_line(
        ws, 5, lambda f: ",".join(f[:3]))),
    "dataset_nan_open": ("dataset", lambda ws: _dataset_with_line(
        ws, 5, lambda f: ",".join(f[:1] + ["nan"] + f[2:]))),
    "dataset_inf_next": ("dataset", lambda ws: _dataset_with_line(
        ws, 5, lambda f: ",".join(f[:6] + ["inf"] + f[7:]))),
    "dataset_dates_out_of_order": ("dataset", lambda ws: _dataset_with_lines_swapped(ws, 5, 6)),
    "dataset_date_repeated": ("dataset", lambda ws: _dataset_with_line(
        ws, 6, lambda f: ws.dataset.read_text().splitlines()[5])),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_FILES))
def test_bad_input_files_exit_data_with_one_line(case, trained, tmp_path, capsys):
    kind, content = BAD_INPUT_FILES[case]
    bad = tmp_path / "bad_input"
    data = content(trained)
    bad.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    argv = {
        "raw": ["prepare", "--data", str(bad)],
        "model": ["evaluate", "--model-file", str(bad), "--dataset", str(trained.dataset)],
        "config": ["prepare", "--data", str(trained.raw), "--config", str(bad)],
        "dataset": ["train", "--model", "dt", "--dataset", str(bad)],
    }[kind] + ["--out", str(tmp_path / "out")]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert str(bad) in err
    if "standardizer" in case:
        assert "standardizer" in err
    if kind == "model":  # a stale node cache beside the file changes nothing
        shutil.copy(trained.out / "model_rf.json.nodes", f"{bad}.nodes")
        assert cli.main(argv) == rc and capsys.readouterr().err == err


def test_a_refused_forest_file_names_the_rule_the_tree_and_the_node(trained, tmp_path, capsys):
    # breadth first, tree 1 has splits at nodes 0, 1 and 3, and leaves at 2, 4, 5 and 6
    deep = {**_split(0), "left": {**_split(1), "left": {**_split(2),
                                                         "right": {"p_up": 1.5, "n": 2}}}}
    bad = tmp_path / "model_rf.json"
    bad.write_text(json.dumps({"n_estimators": 2, "seed": 0, "oob_error": None,
                               "params": {**_TREE_PARAMS, "max_depth": 3},
                               "trees": [_LEAF, deep]}))
    rc = cli.main(["evaluate", "--model-file", str(bad), "--dataset", str(trained.dataset),
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err == f"data error: model file {bad}: tree 1 node 6: leaf p_up must be in [0, 1]\n"


def _with_cell(lines, index, column, cell):
    fields = lines[index].split(",")
    fields[column] = cell
    return lines[:index] + [",".join(fields)] + lines[index + 1:]


# Each damaged dataset.csv, as an edit of its lines (index 0 the header), and
# the file line its data error must name. The date cells are all ones that
# numpy's datetime64 parser would take.
DATASET_FAULTS = {
    "blank_line_before_a_short_row": (lambda lines: lines[:3] + [""] + lines[3:5] + [
        ",".join(lines[5].split(",")[:4])] + lines[6:], 7),
    "nine_fields": (lambda lines: lines[:5] + [lines[5] + ",1"] + lines[6:], 6),
    "inf_next": (lambda lines: _with_cell(lines, 5, 6, "inf"), 6),
    "date_equal_to_the_one_before": (lambda lines: _with_cell(
        lines, 5, 0, lines[4].split(",")[0]), 6),
    **{f"date_{cell or 'empty'}": (lambda lines, cell=cell: _with_cell(lines, 5, 0, cell), 6)
       for cell in ("2020", "2020-01", "", "NaT", "2020-01-01T00")},
}


@pytest.mark.parametrize("case", sorted(DATASET_FAULTS))
def test_dataset_fault_names_its_line(case, trained, tmp_path):
    edit, line = DATASET_FAULTS[case]
    bad = tmp_path / "dataset.csv"
    bad.write_text("\n".join(edit(trained.dataset.read_text().splitlines())) + "\n")
    rc, err = _run_quietly(["evaluate", "--model-file", str(trained.out / "model_lr.json"),
                            "--dataset", str(bad), "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: {bad}, line {line}: ") and err.count("\n") == 1


def test_out_dir_that_cannot_be_created_exits_data(workspace, tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    rc = cli.main(["prepare", "--data", str(workspace.raw), "--out", str(blocker / "sub")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: cannot write {blocker / 'sub'}") and err.count("\n") == 1


# A file each command writes, made a directory so that writing it fails.
UNWRITABLE_FILES = {
    "prepare_dataset": ("prepare", "dataset.csv"),
    "prepare_row_cache": ("prepare", "dataset.csv.rows"),
    "prepare_summary": ("prepare", "dataset_summary.json"),
    "train_model": ("train", "model_lr.json"),
    "train_history": ("train", "lr_cost_history.csv"),
    "compare_model": ("compare", "model_lr.json"),
    "compare_forest_cache": ("compare", "model_rf.json.nodes"),
    "compare_report": ("compare", "report_compare.txt"),
    "evaluate_report": ("evaluate", "report_lr_validation.txt"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_FILES))
def test_a_write_that_fails_exits_data_with_one_line(case, trained, tmp_path, capsys):
    command, name = UNWRITABLE_FILES[case]
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = {
        "prepare": ["prepare", "--data", str(trained.raw)],
        "train": ["train", "--model", "lr", "--dataset", str(trained.dataset)],
        "compare": ["compare", "--config", str(trained.config),
                    "--dataset", str(trained.dataset)],
        "evaluate": ["evaluate", "--model-file", str(trained.out / "model_lr.json"),
                     "--dataset", str(trained.dataset)],
    }[command]
    rc = cli.main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: cannot write {out / name}: ") and err.count("\n") == 1
    assert ".py:" not in err


def test_a_failed_history_write_leaves_no_model_file(trained, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "lr_cost_history.csv").mkdir(parents=True)
    rc = cli.main(["train", "--model", "lr", "--dataset", str(trained.dataset),
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: cannot write {out / 'lr_cost_history.csv'}: ")
    assert not (out / "model_lr.json").exists()


def test_a_failed_summary_write_leaves_no_dataset(trained, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "dataset_summary.json").mkdir(parents=True)
    rc = cli.main(["prepare", "--data", str(trained.raw), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"data error: cannot write {out / 'dataset_summary.json'}: ")
    assert err.count("\n") == 1
    assert not (out / "dataset.csv").exists() and not (out / "dataset.csv.rows").exists()


# ---------------------------------------------------------------------------
# the forest's node cache

@pytest.fixture(scope="module")
def fast_forest(workspace, tmp_path_factory):
    """A FAST_CONFIG forest trained into a directory of its own: its model file."""
    out = tmp_path_factory.mktemp("fast_forest")
    assert cli.main(["train", "--model", "rf", "--config", str(workspace.config),
                     "--dataset", str(workspace.dataset), "--out", str(out)]) == 0
    return out / "model_rf.json"


def _evaluate_forest(model: Path, workspace, out: Path):
    """evaluate's exit status, stderr and JSON report bytes (None if none) for model."""
    rc, err = _run_quietly(["evaluate", "--model-file", str(model), "--format", "json",
                            "--dataset", str(workspace.dataset), "--out", str(out)])
    report = out / "report_rf_validation.json"
    result = rc, err, report.read_bytes() if report.exists() else None
    report.unlink(missing_ok=True)
    return result


def test_evaluate_takes_a_forest_from_its_node_cache(fast_forest, workspace, tmp_path,
                                                     monkeypatch):
    model = tmp_path / "model_rf.json"
    shutil.copy(fast_forest, model)
    from_json = _evaluate_forest(model, workspace, tmp_path)
    shutil.copy(f"{fast_forest}.nodes", f"{model}.nodes")

    def refused(doc):
        raise AssertionError("the model file was decoded beside a matching node cache")

    monkeypatch.setattr(trees, "forest_from_dict", refused)
    assert _evaluate_forest(model, workspace, tmp_path) == from_json
    assert from_json[0] == cli.EXIT_OK


def _stale_all_up(text: str) -> str:
    """The forest document with every leaf's p_up set to 1.0."""
    doc = json.loads(text)
    nodes = list(doc["trees"])
    for node in nodes:
        if "p_up" in node:
            node["p_up"] = 1.0
        else:
            nodes += (node["left"], node["right"])
    return json.dumps(doc) + "\n"


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


# Each way a node cache beside a model file can fail to stand for it: a
# function of (model file, its own node cache) that edits either or both.
NODE_CACHE_MISMATCHES = {
    "missing": lambda model, cache: cache.unlink(),
    "stale_model_file_edited": lambda model, cache: model.write_text(
        _stale_all_up(model.read_text())),
    "truncated": lambda model, cache: cache.write_bytes(cache.read_bytes()[:-1]),
    "digest_byte_flipped": lambda model, cache: cache.write_bytes(_flip(cache.read_bytes(), 3)),
    "payload_byte_flipped": lambda model, cache: cache.write_bytes(
        _flip(cache.read_bytes(), 40)),
    **{f"crafted_{case}": lambda model, cache, fault=fault: cachefile.write(
        cache, hashlib.sha256(model.read_bytes()), trees.forest_to_nodes(
            fault(trees.forest_from_dict(json.loads(model.read_text())))))
       for case, fault in NODE_CACHE_FAULTS.items()},
}


@pytest.mark.parametrize("case", sorted(NODE_CACHE_MISMATCHES))
def test_a_node_cache_that_does_not_stand_for_its_model_file_decides_nothing(
        case, fast_forest, workspace, tmp_path, monkeypatch):
    assert (trees.forest_from_dict(json.loads(fast_forest.read_text())).trees[0].feature[:2]
            >= 0).all()  # the crafted faults edit splits at nodes 0 and 1
    model, cache = tmp_path / "model_rf.json", tmp_path / "model_rf.json.nodes"
    shutil.copy(fast_forest, model)
    shutil.copy(f"{fast_forest}.nodes", cache)
    NODE_CACHE_MISMATCHES[case](model, cache)
    decoded = []
    monkeypatch.setattr(trees, "forest_from_dict", lambda doc, load=trees.forest_from_dict: (
        decoded.append(doc) or load(doc)))
    with_cache = _evaluate_forest(model, workspace, tmp_path)
    assert len(decoded) == 1  # the cache was refused and the model file decoded
    cache.unlink(missing_ok=True)
    assert with_cache == _evaluate_forest(model, workspace, tmp_path)
    assert with_cache[0] == cli.EXIT_OK


def test_a_failed_node_cache_write_leaves_no_model_file(workspace, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "model_rf.json.nodes").mkdir(parents=True)
    rc = cli.main(["train", "--model", "rf", "--config", str(workspace.config),
                   "--dataset", str(workspace.dataset), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA and err.count("\n") == 1
    assert err.startswith(f"data error: cannot write {out / 'model_rf.json.nodes'}: ")
    assert not (out / "model_rf.json").exists()


def test_a_forest_whose_params_pass_64_bits_is_saved_without_a_node_cache(workspace,
                                                                          tmp_path):
    config = tmp_path / "deep.json"
    config.write_text(json.dumps({"rf": {**FAST_CONFIG["rf"], "max_depth": 2**70}}))
    out = tmp_path / "out"
    assert cli.main(["train", "--model", "rf", "--config", str(config),
                     "--dataset", str(workspace.dataset), "--out", str(out)]) == 0
    assert json.loads((out / "model_rf.json").read_text())["params"]["max_depth"] == 2**70
    assert not (out / "model_rf.json.nodes").exists()
    assert _evaluate_forest(out / "model_rf.json", workspace, out)[0] == cli.EXIT_OK


# ---------------------------------------------------------------------------
# saved model files under random damage

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


def _damage(doc, data):
    """Drop one key of, or put random JSON at, a random path below doc's root.

    The walk enters the document and then goes one level deeper with
    probability 3/4, so array entries are reached as well as whole sections.
    """
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (
            parent is None or data.draw(st.integers(0, 3))):
        parent = node
        key = data.draw(st.sampled_from(sorted(node)) if isinstance(node, dict)
                        else st.integers(0, len(node) - 1))
        node = node[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(_JSON)
    return doc


@pytest.mark.parametrize("name", cli.MODEL_NAMES)
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_damaged_model_file_exits_ok_or_data(trained, name, data):
    source = (trained.out / f"model_{name}.json").read_text()
    bad = trained.root / f"damaged_{name}.json"
    bad.write_text(json.dumps(_damage(json.loads(source), data)))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = cli.main(["evaluate", "--model-file", str(bad), "--dataset",
                       str(trained.dataset), "--out", str(trained.root / "damaged_out")])
    assert rc in (cli.EXIT_OK, cli.EXIT_DATA)
    if rc == cli.EXIT_DATA:
        err = stderr.getvalue()
        assert err.startswith("data error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# config files with random values in a model's section

# Values stay small so that no example trains for long or allocates much.
_ANY_VALUE = (st.integers(-3, 40) | st.floats(-2.0, 2.0) | st.just(float("nan"))
              | st.text(max_size=3) | st.lists(st.integers(-3, 12), max_size=4))
_VALUE_LIKE = {int: st.integers(-3, 40), float: st.floats(-2.0, 2.0) | st.just(float("nan")),
               list: st.tuples(st.just(5), st.integers(-3, 12), st.just(1)).map(list)}


@pytest.mark.parametrize("name", cli.MODEL_NAMES)
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_random_model_config_exits_ok_or_with_one_line(workspace, name, data):
    keys = data.draw(st.lists(st.sampled_from(sorted(cli.DEFAULT_CONFIG[name])),
                              min_size=1, max_size=3, unique=True))
    section = dict(FAST_CONFIG.get(name, {}))
    for key in keys:  # half the values take the type of the key's default
        like = _VALUE_LIKE[type(cli.DEFAULT_CONFIG[name][key])]
        section[key] = data.draw(like if data.draw(st.booleans()) else _ANY_VALUE)
    config = workspace.root / f"fuzz_{name}.json"
    config.write_text(json.dumps({**FAST_CONFIG, name: section}))
    common = ["--dataset", str(workspace.dataset), "--out", str(workspace.root / "fuzz_out")]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = cli.main(["train", "--model", name, "--config", str(config), *common])
        # a model file that train wrote must load and score
        evaluated = cli.main(["evaluate", "--model", name, *common]) if rc == 0 else 0
    assert rc in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_TRAINING) and evaluated == 0
    if rc != cli.EXIT_OK:
        err = stderr.getvalue()
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("data error: " if rc == cli.EXIT_DATA else "training error: ")


# ---------------------------------------------------------------------------
# raw CSVs and prepared datasets under random damage

_CELL = (st.text(max_size=5)
         | st.sampled_from(["", " ", "nan", "inf", "-1", "0", "1e400", " 6758 ", "06758",
                            "6758", "2021-02-30", "2021-01-04", '"', ",", "\n"]))


def _damage_lines(lines, data):
    """Apply 1-4 random edits to the cells and rows of comma-joined lines.

    An edit replaces, drops or appends a cell, or inserts a blank or random row.
    Cells are joined without quoting, so random text can also break the CSV.
    """
    rows = [line.split(",") for line in lines]
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(rows) - 1))
        edit = data.draw(st.sampled_from(["cell", "drop", "append", "blank", "row"]))
        if edit == "cell" and rows[i]:
            rows[i][data.draw(st.integers(0, len(rows[i]) - 1))] = data.draw(_CELL)
        elif edit == "drop" and rows[i]:
            del rows[i][data.draw(st.integers(0, len(rows[i]) - 1))]
        elif edit == "append":
            rows[i].append(data.draw(_CELL))
        elif edit == "blank":
            rows.insert(i, [])
        elif edit == "row":
            rows.insert(i, data.draw(st.lists(_CELL, max_size=10)))
    return "".join(",".join(row) + "\n" for row in rows)


def _run_quietly(argv):
    """cli.main's exit status and stderr, with stdout discarded."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    return rc, stderr.getvalue()


def _assert_ok_or_one_data_error_line(rc, err):
    assert rc in (cli.EXIT_OK, cli.EXIT_DATA)
    if rc == cli.EXIT_DATA:
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(data=st.data())
def test_damaged_raw_csv_prepares_or_exits_data(workspace, data):
    raw = workspace.root / "damaged_raw.csv"
    lines = workspace.raw.read_text(encoding="utf-8").splitlines()[:30]
    raw.write_text(_damage_lines(lines, data), encoding="utf-8")
    _assert_ok_or_one_data_error_line(*_run_quietly(
        ["prepare", "--data", str(raw), "--out", str(workspace.root / "damaged_raw_out")]))


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(data=st.data())
def test_damaged_dataset_evaluates_or_exits_data(trained, data):
    bad = trained.root / "damaged_dataset.csv"
    lines = trained.dataset.read_text(encoding="utf-8").splitlines()[:40]
    bad.write_text(_damage_lines(lines, data), encoding="utf-8")
    _assert_ok_or_one_data_error_line(*_run_quietly(
        ["evaluate", "--model-file", str(trained.out / "model_lr.json"), "--dataset", str(bad),
         "--out", str(trained.root / "damaged_dataset_out")]))
