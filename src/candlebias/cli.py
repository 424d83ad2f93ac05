"""Pipeline driver: prepare data, train a model, evaluate it, compare all four.

Subcommands
    prepare   ingest raw OHLCV CSV, label it, write dataset.csv, its row cache
              dataset.csv.rows and summary JSON
    train     fit lr | dt | rf | fnn on the prepared dataset's train range; a
              forest also gets its node cache, model_rf.json.nodes
    evaluate  score a saved model file (--model or --model-file) on a dataset split
    compare   train all four models and emit one combined report, scoring each
              fitted document as evaluate scores a file, without reading it back;
              it writes nothing unless all four fit and score

A model file's bytes are read once. A forest is taken from the node cache
beside its file when the cache's digest binds it to those bytes and its
arrays pass forest_from_nodes's checks; otherwise the JSON is decoded, so the
model file stays the only one evaluate needs.

Exit statuses: 0 success, 1 usage error, 2 data error (a file that cannot be
read or written included), 3 training error. A library warning (an undefined
F1 or OOB error) is one "warning: ..." line on stderr, without a source
location, and leaves the status as it is. Every command is deterministic given
(inputs, config, master seed); per-model seeds fan out from the master seed
through seeding.mix64.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import cachefile, dataset, logistic, metrics, neural, trees
from .errors import DataError, TrainingDivergedError, writing
from .seeding import mix64

DATA_DIR_ENV = "CANDLEBIAS_DATA_DIR"
DATA_FILE_NAME = "stock_prices.csv"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3

DEFAULT_CONFIG = {
    "data": None,
    "code": 6758,
    "split": [0.70, 0.15],
    "seed": 42,
    "out": "out",
    "format": "table",
    "lr": {"alpha": 0.01, "epochs": 1000},
    "dt": {"max_depth": 100, "min_samples_split": 100},
    "rf": {"n_estimators": 250, "max_features": 5, "max_depth": 100,
           "min_samples_split": 100},
    "fnn": {"epochs": 10, "batch_size": 32, "validation_fraction": 0.20,
            "layer_dims": [5, 128, 64, 1]},
}


def _same_kind(value, default) -> bool:
    """True when a config value has its default's JSON type; an int passes for a float."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_kind(v, default[0]) for v in value)
    if default is None or isinstance(default, str):
        return isinstance(value, str) or (default is None and value is None)
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(default, float) and isinstance(value, float))


def _check_config(cfg, default: dict, source: str, prefix: str = "") -> None:
    """Raise DataError unless cfg uses only default's keys, each with its type."""
    if not isinstance(cfg, dict):
        raise DataError(f"config {source}: {prefix.rstrip('.') or 'top level'} "
                        f"must be an object, got {cfg!r}")
    unknown = sorted(prefix + key for key in set(cfg) - set(default))
    if unknown:
        raise DataError(f"config {source}: unknown keys {unknown}")
    for key, value in cfg.items():
        if isinstance(default[key], dict):
            _check_config(value, default[key], source, f"{prefix}{key}.")
        elif not _same_kind(value, default[key]) or (key == "split" and len(value) != 2):
            like = "a string" if default[key] is None else repr(default[key])
            raise DataError(f"config {source}: {prefix}{key} must be shaped like {like}, "
                            f"got {value!r}")


def _merge_config(args) -> dict:
    """The run's config: DEFAULT_CONFIG, then the config file, then the flags,
    with $CANDLEBIAS_DATA_DIR for data when neither sets it; out is a Path."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {args.config}: {exc}") from exc
        except ValueError as exc:
            raise DataError(f"config {args.config} is not valid JSON: {exc}") from exc
        _check_config(file_cfg, DEFAULT_CONFIG, args.config)
        for key, value in file_cfg.items():
            if isinstance(cfg[key], dict):
                cfg[key].update(value)
            else:
                cfg[key] = value

    for key in ("data", "code", "seed", "split", "format", "out"):
        value = getattr(args, key, None)
        if value is not None and value != "":
            cfg[key] = value

    if cfg["data"] is None:
        data_dir = os.environ.get(DATA_DIR_ENV)
        if data_dir:
            cfg["data"] = os.path.join(data_dir, DATA_FILE_NAME)

    if cfg["format"] not in metrics.REPORT_FORMATS:
        raise DataError(f"unknown report format {cfg['format']!r}")
    cfg["out"] = Path(cfg["out"])
    return cfg


def _parse_split(text: str):
    parts = text.replace("/", ",").split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected TRAIN,VAL e.g. 0.7,0.15")
    return [float(parts[0]), float(parts[1])]


# ---------------------------------------------------------------------------
# dataset plumbing

def _make_out_dir(config: dict) -> None:
    with writing(config["out"]):
        config["out"].mkdir(parents=True, exist_ok=True)


def _dataset_path(config: dict, args) -> Path:
    return Path(args.dataset) if args.dataset else config["out"] / "dataset.csv"


def _load_split_dataset(config: dict, args):
    """The prepared dataset and its chronological split."""
    path = _dataset_path(config, args)
    if not path.exists():
        raise DataError(f"prepared dataset {path} not found; run `prepare` first")
    ds = dataset.read_labeled_csv(path)
    return ds, dataset.split_chronological(len(ds), *config["split"])


# ---------------------------------------------------------------------------
# the four models, as `train`, `evaluate` and `compare` drive them
#
# Fit, load and score functions look up the model modules' functions at call
# time, never at import, so wrapping a module attribute (as a tracer does)
# reaches every call.

def _standardize(X: np.ndarray):
    std = dataset.fit_standardizer(X)
    return std, dataset.apply_standardizer(std, X)


def _fit_lr(X, y, params: dict, seed: int):
    std, X_std = _standardize(X)
    model = logistic.train(X_std, y, float(params["alpha"]), int(params["epochs"]))
    return ({**logistic.to_dict(model), "standardizer": std.as_dict()},
            {"cost": model.cost_history.tolist()})


def _tree_params(params: dict):
    return trees.TreeParams(**{k: int(v) for k, v in params.items() if k != "n_estimators"})


def _fit_dt(X, y, params: dict, seed: int):
    return trees.node_to_dict(trees.fit_tree(X, y, _tree_params(params))), None


def _fit_rf(X, y, params: dict, seed: int):
    forest = trees.fit_forest(X, y, int(params["n_estimators"]), _tree_params(params), seed)
    return trees.forest_to_dict(forest), None


def _fit_fnn(X, y, params: dict, seed: int):
    std, X_std = _standardize(X)
    train_config = neural.TrainConfig(int(params["epochs"]), int(params["batch_size"]),
                                      float(params["validation_fraction"]), mix64(seed, 1))
    model, history = neural.train_network(X_std, y, train_config, seed=seed,
                                          layer_dims=tuple(params["layer_dims"]))
    return ({**neural.to_dict(model, train_config), "standardizer": std.as_dict()},
            {"train_loss": history.train, "val_loss": history.validation})


def _with_standardizer(model, doc: dict):
    """The model paired with the standardizer that ends its document."""
    return model, dataset.Standardizer.from_dict(doc["standardizer"])


def _score_proba(proba, model, std, X, y):
    """Standardize, take the probability, threshold it at 0.5 and report BCE loss."""
    with np.errstate(all="ignore"):  # a tiny stddev or huge weights overflow; checked below
        X = dataset.apply_standardizer(std, X)
        if not np.isfinite(X).all():
            raise DataError(f"standardizer with stddevs {std.stddev.tolist()} "
                            "scales the features past the float range")
        p = proba(model, X)
    if np.isnan(p).any():
        raise DataError("weights overflow the float range: a probability is NaN")
    return (p >= 0.5).astype(np.int64), logistic.bce_loss(p, y.astype(float))


@dataclass(frozen=True)
class ModelSpec:
    label: str            # row name in reports
    markers: tuple        # JSON keys found only in this model's documents
    fit: Callable         # (X, y, config section, seed) -> (document, history columns)
    load: Callable        # document -> model, paired with its standardizer for LR and FNN
    score: Callable       # (loaded model, X, y) -> (predicted labels, loss or None)
    history_file: str | None = None


MODELS = {
    "lr": ModelSpec("LR", ("theta",), _fit_lr,
                    lambda doc: _with_standardizer(logistic.from_dict(doc), doc),
                    lambda m, X, y: _score_proba(logistic.predict_proba, *m, X, y),
                    "lr_cost_history.csv"),
    "dt": ModelSpec("DT", ("p_up", "feature"), _fit_dt,
                    lambda doc: trees.node_from_dict(doc),
                    lambda m, X, y: ((trees.tree_predict_proba(m, X) >= 0.5).astype(np.int64),
                                     None)),
    "rf": ModelSpec("RF", ("trees",), _fit_rf,
                    lambda doc: trees.forest_from_dict(doc),
                    lambda m, X, y: (trees.predict_forest(m, X), None)),
    "fnn": ModelSpec("FNN", ("layer_dims",), _fit_fnn,
                     lambda doc: _with_standardizer(neural.from_dict(doc)[0], doc),
                     lambda m, X, y: _score_proba(neural.forward, *m, X, y),
                     "fnn_loss_history.csv"),
}
MODEL_NAMES = tuple(MODELS)


def _fit(name: str, ds: dataset.LabeledDataset, train: range, config: dict):
    """Fit one model on rows train and check its document as a model file is
    checked, writing nothing; return (loaded model, JSON text, history columns)."""
    spec = MODELS[name]
    try:
        with np.errstate(all="ignore"):  # a diverging fit shows as a non-finite cost
            doc, history = spec.fit(ds.rows(train), ds.labels(train), config[name],
                                    mix64(config["seed"], MODEL_NAMES.index(name)))
        return spec.load(doc), json.dumps(doc), history
    except (ValueError, TrainingDivergedError, RecursionError,  # too deep to nest
            MemoryError) as exc:  # a config asking for more than the address space
        raise TrainingDivergedError(f"cannot train {name}: {exc}") from exc


def _nodes_path(model_path: Path) -> Path:
    return model_path.with_name(model_path.name + ".nodes")


def _nodes(name: str, model):
    """The node-cache payload of a fitted forest; None for the other models."""
    return trees.forest_to_nodes(model) if name == "rf" else None


def _save(name: str, text: str, history, config: dict, nodes) -> list:
    """Write a fitted model's history CSV, then the forest's node cache when
    nodes holds its payload, then its model file, so a failed write leaves no
    fresh model file; return the paths written, model first."""
    _make_out_dir(config)
    data = (text + "\n").encode("utf-8")
    written = [config["out"] / f"model_{name}.json"]
    if MODELS[name].history_file:
        written.append(config["out"] / MODELS[name].history_file)
        with writing(written[-1]):
            metrics.write_history_csv(written[-1], history)
    if nodes is not None:
        written.append(_nodes_path(written[0]))
        cachefile.write(written[-1], hashlib.sha256(data), nodes)
    with writing(written[0]):
        written[0].write_bytes(data)
    return written


def detect_model_kind(doc) -> str:
    if isinstance(doc, dict):
        for name, spec in MODELS.items():
            if any(key in doc for key in spec.markers):
                return name
    raise DataError("unrecognized model file format")


def _load_model(path: Path):
    """Read and decode a model file; returns (model name, model).

    A forest comes from the node cache beside the file when the cache is
    bound to the file's bytes and passes its checks; otherwise the JSON is
    decoded. Every unreadable or malformed file raises DataError naming the
    file, and so does a number it reads that is NaN, infinite or too large
    for a float.
    """
    try:
        raw = path.read_bytes()
        payload = cachefile.read(_nodes_path(path), raw)
        forest = None if payload is None else trees.forest_from_nodes(payload)
        if forest is not None:
            return "rf", forest
        # decoded as read_text decodes, newlines translated
        doc = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
        name = detect_model_kind(doc)
        return name, MODELS[name].load(doc)
    except KeyError as exc:
        raise DataError(f"model file {path}: missing key {exc}") from exc
    except (DataError, OSError, ValueError, TypeError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise DataError(f"model file {path}: {exc}") from exc


def _score(name: str, model, ds: dataset.LabeledDataset, rng: range, path: Path):
    """Score a loaded model on rows rng: (report, predicted labels); a scoring
    fault names path, its model file."""
    y = ds.labels(rng)
    try:
        y_pred, loss = MODELS[name].score(model, ds.rows(rng), y)
    except DataError as exc:
        raise DataError(f"model file {path}: {exc}") from exc
    return metrics.evaluate(MODELS[name].label, y, y_pred, loss=loss), y_pred


def _write_report(config: dict, stem: str, text: str) -> Path:
    extension, _ = metrics.REPORT_FORMATS[config["format"]]
    path = config["out"] / f"{stem}.{extension}"
    with writing(path):
        path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# subcommands

def cmd_prepare(config: dict, args) -> int:
    if not config["data"]:
        raise DataError(
            f"no input CSV: pass --data, set it in the config file, or set ${DATA_DIR_ENV}")
    candles, stats = dataset.ingest_csv(config["data"], config["code"])
    ds = dataset.label(*candles)
    split = dataset.split_chronological(len(ds), *config["split"])

    n_up = int(ds.targets.sum())
    summary = {
        "securities_code": config["code"],
        "input_rows": stats.total_rows,
        "matched_rows": stats.matched_rows,
        "dropped_missing": stats.dropped_missing,
        "dropped_malformed": stats.dropped_malformed,
        "labeled_rows": len(ds),
        "class_balance": {"up": n_up, "down": len(ds) - n_up,
                          "prevalence": n_up / len(ds)},
        "ties": int((ds.next_close == ds.features[:, 0]).sum()),  # labeled down
        "split": split.as_dict(),
    }
    # dataset.csv, which later commands read, is written last: a failed
    # summary write leaves no fresh dataset behind
    _make_out_dir(config)
    summary_path = config["out"] / "dataset_summary.json"
    with writing(summary_path):
        summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    csv_path = config["out"] / "dataset.csv"
    dataset.write_labeled_csv(ds, csv_path)
    print(f"wrote {csv_path} ({len(ds)} rows) and {summary_path}")
    return EXIT_OK


def cmd_train(config: dict, args) -> int:
    ds, split = _load_split_dataset(config, args)
    model, text, history = _fit(args.model, ds, split.train, config)
    written = _save(args.model, text, history, config, _nodes(args.model, model))
    print(f"trained {args.model}: " + ", ".join(str(p) for p in written))
    return EXIT_OK


def cmd_evaluate(config: dict, args) -> int:
    ds, split = _load_split_dataset(config, args)
    model_path = (config["out"] / f"model_{args.model}.json" if args.model
                  else Path(args.model_file))
    name, model = _load_model(model_path)
    if args.model and name != args.model:
        raise DataError(f"model file {model_path}: holds a {MODELS[name].label} model, "
                        f"not {MODELS[args.model].label}")
    report, _ = _score(name, model, ds, getattr(split, args.eval_split), model_path)

    text = metrics.render([report], config["format"], metadata={"split": args.eval_split})
    _make_out_dir(config)
    _write_report(config, f"report_{name}_{args.eval_split}", text)
    print(text, end="")
    return EXIT_OK


def _securities_code(config: dict, args):
    """The integer code in the dataset_summary.json that prepare wrote beside
    the dataset, or else the config's."""
    path = _dataset_path(config, args).with_name("dataset_summary.json")
    try:
        code = json.loads(path.read_text(encoding="utf-8"))["securities_code"]
    except (OSError, ValueError, KeyError, TypeError):  # none, or not prepare's
        return config["code"]
    return code if type(code) is int else config["code"]


def cmd_compare(config: dict, args) -> int:
    ds, split = _load_split_dataset(config, args)
    eval_split = {name: "test" if (args.eval_all_test or name == "fnn") else "validation"
                  for name in MODEL_NAMES}

    reports, fitted = [], []
    for name in MODEL_NAMES:  # each fitted model scored as evaluate scores its file
        model, text, history = _fit(name, ds, split.train, config)
        path = config["out"] / f"model_{name}.json"
        reports.append(_score(name, model, ds, getattr(split, eval_split[name]), path)[0])
        fitted.append((name, text, history, _nodes(name, model)))
        del model  # one loaded model at a time; of the others only what _save writes
    for name, text, history, nodes in fitted:  # nothing is written unless all four fit and score
        _save(name, text, history, config, nodes)

    metadata = {
        "securities_code": _securities_code(config, args),
        "master_seed": config["seed"],
        "split_fractions": config["split"],
        "evaluation_splits": {MODELS[n].label: eval_split[n] for n in MODEL_NAMES},
        "note": "all models share one chronological split; scores on different "
                "ranges are not directly comparable",
    }
    footnote = ("all models scored on the test range" if args.eval_all_test else
                "LR, DT, RF scored on the validation range; FNN scored on the test range")
    text = metrics.render(reports, config["format"], metadata=metadata,
                          footnote=footnote)
    path = _write_report(config, "report_compare", text)
    print(text, end="")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data", help="raw OHLCV CSV (default: $%s/%s)"
                        % (DATA_DIR_ENV, DATA_FILE_NAME))
    common.add_argument("--code", type=int, help="securities code to keep (default 6758)")
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--seed", type=int, help="master seed (default 42)")
    common.add_argument("--split", type=_parse_split,
                        help="train,validation fractions, e.g. 0.7,0.15")
    common.add_argument("--format", choices=list(metrics.REPORT_FORMATS),
                        help="report format (default table)")
    common.add_argument("--out", help="output directory (default ./out)")
    common.add_argument("--dataset", help="prepared dataset CSV "
                        "(default <out>/dataset.csv)")

    parser = _Parser(prog="candlebias",
                     description="Label OHLCV candles up/down and compare four "
                                 "from-scratch classifiers.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("prepare", parents=[common],
                       help="ingest, label and split the raw CSV")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", parents=[common], help="train one model")
    p.add_argument("--model", choices=MODEL_NAMES, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="score a saved model")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--model", choices=MODEL_NAMES,
                       help="model trained into <out>/model_<name>.json")
    which.add_argument("--model-file", help="explicit model JSON path")
    p.add_argument("--eval-split", choices=["train", "validation", "test"],
                   default="validation")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", parents=[common],
                       help="train all four models and emit one report")
    p.add_argument("--eval-all-test", action="store_true",
                   help="score every model on the test range")
    p.set_defaults(func=cmd_compare)
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():  # puts the previous showwarning back on return
        warnings.showwarning = _warning_line
        return _run(argv)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _merge_config(args)
        return args.func(config, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDivergedError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
