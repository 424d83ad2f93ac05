"""Binary classification metrics and the comparison-report renderers.

The positive class is 1 ("up"). F1 is reported for the positive class only;
when its denominator is zero (no positive predictions or labels anywhere) it
is 0.0 and a warning is emitted instead of an error so batch reports stay
total.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

REPORT_FIELDS = ("model", "accuracy", "f1", "tp", "fp", "tn", "fn", "loss")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class EvalReport:
    model_name: str
    accuracy: float
    f1: float
    confusion: ConfusionMatrix
    loss: float | None = None


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("confusion matrix of empty input is undefined")
    return ConfusionMatrix(
        tp=int(np.sum((y_true == 1) & (y_pred == 1))),
        fp=int(np.sum((y_true == 0) & (y_pred == 1))),
        tn=int(np.sum((y_true == 0) & (y_pred == 0))),
        fn=int(np.sum((y_true == 1) & (y_pred == 0))),
    )


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ValueError("accuracy of zero samples is undefined")
    return (cm.tp + cm.tn) / cm.total


def f1(cm: ConfusionMatrix, model_name: str = "") -> float:
    """F1 of the positive class; when undefined, 0.0 and a warning naming model_name."""
    denom = 2 * cm.tp + cm.fp + cm.fn
    if denom == 0:
        subject = f" for {model_name}" if model_name else ""
        warnings.warn(f"F1 undefined{subject} (no positive predictions or labels); "
                      "reporting 0.0")
        return 0.0
    return 2 * cm.tp / denom


def evaluate(model_name: str, y_true, y_pred, loss: float | None = None) -> EvalReport:
    cm = confusion(y_true, y_pred)
    return EvalReport(model_name, accuracy(cm), f1(cm, model_name), cm, loss)


def _round2(x: float) -> str:
    return str(Decimal(str(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def render_csv(reports) -> str:
    lines = [",".join(REPORT_FIELDS)]
    for r in reports:
        cm = r.confusion
        loss = "" if r.loss is None else str(r.loss)
        lines.append(
            f"{r.model_name},{r.accuracy},{r.f1},{cm.tp},{cm.fp},{cm.tn},{cm.fn},{loss}"
        )
    return "\n".join(lines) + "\n"


def render_json(reports, metadata: dict | None = None) -> str:
    doc = {
        "models": [
            {
                "model": r.model_name,
                "accuracy": r.accuracy,
                "f1": r.f1,
                "tp": r.confusion.tp,
                "fp": r.confusion.fp,
                "tn": r.confusion.tn,
                "fn": r.confusion.fn,
                "loss": r.loss,
            }
            for r in reports
        ]
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2) + "\n"


def render_table(reports, footnote: str | None = None) -> str:
    """Aligned text table with Model / Accuracy / F1 Score columns.

    Scores are rounded half-up to 2 decimals.
    """
    rows = [("Model", "Accuracy", "F1 Score")]
    rows += [(r.model_name, _round2(r.accuracy), _round2(r.f1)) for r in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    out = "\n".join(lines) + "\n"
    if footnote:
        out += f"\n{footnote}\n"
    return out


def write_history_csv(path, columns: dict) -> None:
    """Write per-epoch traces as ``epoch,<column>...`` rows, epochs counted from 1.

    Lines end in CRLF (the csv module's default); floats are written by repr.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", *columns])
        for epoch, row in enumerate(zip(*columns.values()), start=1):
            writer.writerow([epoch, *row])


# report format -> (file extension, renderer of (reports, metadata, footnote))
REPORT_FORMATS = {
    "csv": ("csv", lambda reports, metadata, footnote: render_csv(reports)),
    "json": ("json", lambda reports, metadata, footnote: render_json(reports, metadata)),
    "table": ("txt", lambda reports, metadata, footnote: render_table(reports, footnote)),
}


def render(reports, fmt: str, metadata: dict | None = None,
           footnote: str | None = None) -> str:
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    _, renderer = REPORT_FORMATS[fmt]
    return renderer(reports, metadata, footnote)
