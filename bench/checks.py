"""Output checks that decide whether a benchmark command counts as failed.

Each check returns a list of problems; an empty list means the output is
correct. A command fails when the CLI exits non-zero or any check on its
outputs reports a problem.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

MODEL_LABELS = {"lr": "LR", "dt": "DT", "rf": "RF", "fnn": "FNN"}
ACCOUNTING_KEYS = ("input_rows", "matched_rows", "dropped_missing", "dropped_malformed")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Ledger:
    """Digest checks over repeated commands.

    Every output must hash the same on every repeat within a run, and, where
    ``pinned`` names it, the same as the digest pinned for the seed.
    """

    def __init__(self, pinned: dict | None = None):
        self.pinned = dict(pinned or {})
        self.first: dict[str, str] = {}

    def check(self, key: str, path) -> list[str]:
        path = Path(path)
        if not path.is_file():
            return [f"{key}: missing"]
        digest = sha256(path)
        problems = []
        pinned = self.pinned.get(key)
        if pinned is not None and pinned != digest:
            problems.append(f"{key}: sha256 {digest[:12]} differs from pinned {pinned[:12]}")
        if self.first.setdefault(key, digest) != digest:
            problems.append(f"{key}: differs from its first repeat in this run")
        return problems


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8")), None
    except (OSError, ValueError) as exc:
        return None, f"{path}: cannot read JSON ({exc})"


def split_length(summary: dict, split: str) -> int:
    start, stop = summary["split"][split]
    return stop - start


def check_summary(out_dir, expected: dict) -> list[str]:
    """dataset_summary.json row accounting against what the generator planted."""
    summary, err = _load_json(Path(out_dir) / "dataset_summary.json")
    if err:
        return [err]
    problems = [f"summary {k}: {summary.get(k)} != expected {expected[k]}"
                for k in ACCOUNTING_KEYS if summary.get(k) != expected[k]]
    labeled = (expected["matched_rows"] - expected["dropped_missing"]
               - expected["dropped_malformed"] - 1)
    if summary.get("labeled_rows") != labeled:
        problems.append(f"summary labeled_rows: {summary.get('labeled_rows')} != {labeled}")
    elif sum(split_length(summary, s) for s in ("train", "validation", "test")) != labeled:
        problems.append("summary split ranges do not cover the labeled rows")
    try:
        with open(Path(out_dir) / "dataset.csv", encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
    except OSError as exc:
        return problems + [f"dataset.csv: {exc}"]
    if lines != labeled + 1:
        problems.append(f"dataset.csv has {lines - 1} rows, expected {labeled}")
    return problems


def _check_row(row: dict, n_scored: int) -> list[str]:
    total = row["tp"] + row["fp"] + row["tn"] + row["fn"]
    if total != n_scored:
        return [f"{row['model']}: confusion counts sum to {total}, scored range has {n_scored}"]
    if row["accuracy"] != (row["tp"] + row["tn"]) / total:
        return [f"{row['model']}: accuracy does not match its confusion counts"]
    return []


def check_compare_report(out_dir) -> list[str]:
    """Every model is reported once and scored over its whole evaluation range."""
    report, err = _load_json(Path(out_dir) / "report_compare.json")
    if err:
        return [err]
    summary, err = _load_json(Path(out_dir) / "dataset_summary.json")
    if err:
        return [err]
    rows = report.get("models", [])
    if [r["model"] for r in rows] != list(MODEL_LABELS.values()):
        return [f"report_compare.json models {[r['model'] for r in rows]}"]
    splits = report["metadata"]["evaluation_splits"]
    problems = []
    for row in rows:
        problems += _check_row(row, split_length(summary, splits[row["model"]]))
    return problems


def check_eval_report(report_path, summary_path, split: str, model: str) -> list[str]:
    """A single-model evaluate report covers the whole requested split."""
    report, err = _load_json(report_path)
    if err:
        return [err]
    summary, err = _load_json(summary_path)
    if err:
        return [err]
    rows = report.get("models", [])
    if len(rows) != 1 or rows[0]["model"] != MODEL_LABELS[model]:
        return [f"{report_path}: expected one {MODEL_LABELS[model]} row"]
    return _check_row(rows[0], split_length(summary, split))


def check_reproduces(report_path, compare_report_path, model: str) -> list[str]:
    """Re-evaluating a saved model on its compare range gives its compare row."""
    report, err = _load_json(report_path)
    if err:
        return [err]
    compare, err = _load_json(compare_report_path)
    if err:
        return [err]
    label = MODEL_LABELS[model]
    wanted = [r for r in compare["models"] if r["model"] == label]
    if report.get("models") != wanted:
        return [f"{label}: evaluate of the saved model does not reproduce its compare row"]
    return []


def count_tree_nodes(model_dir) -> int:
    """Nodes of the DT and every RF tree, read from the saved model files."""
    def count(node):
        return 1 if "p_up" in node else 1 + count(node["left"]) + count(node["right"])

    dt, _ = _load_json(Path(model_dir) / "model_dt.json")
    rf, _ = _load_json(Path(model_dir) / "model_rf.json")
    if dt is None or rf is None:
        return 0
    return count(dt) + sum(count(t) for t in rf["trees"])
