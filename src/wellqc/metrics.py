"""Confusion matrix, classification metrics, prediction, and QC reports.

The positive class is "defective" (label 1), so precision and recall describe
how well defects are caught. With TP/TN/FP/FN counted over an evaluation:

    accuracy  = (TP + TN) / (TP + FP + TN + FN)
    precision = TP / (TP + FP)
    recall    = TP / (TP + FN)
    f1        = 2*TP / (2*TP + FP + FN)

Zero-denominator precision/recall are reported as None (JSON null) rather
than 0.0 so degenerate evaluations stay visible; f1 is None when either is.

A ``MetricsReport`` holds an evaluation as its columns (ids, true labels,
predicted labels, p(defective)); the confusion matrix and the metrics are
derived from them, so they cannot disagree.
"""

import csv
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from wellqc.configio import write_json
from wellqc.errors import EmptyEvaluation, LabelError
from wellqc.nn.arch import logistic_architecture
from wellqc.nn.model import predict_probs

REPORT_SCHEMA_VERSION = 1
TEXT_HEADER = "Method, Accuracy, Precision, Recall, F1 score"


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


class MetricValues(NamedTuple):
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None


def confusion(true_labels, predicted_labels) -> ConfusionMatrix:
    """Count TP/TN/FP/FN over paired binary label sequences."""
    t = np.asarray(true_labels)
    p = np.asarray(predicted_labels)
    if t.shape != p.shape:
        raise LabelError(f"label sequences differ in length: {t.shape} vs {p.shape}")
    for name, arr in (("true", t), ("predicted", p)):
        if arr.size and not np.isin(arr, (0, 1)).all():
            bad = arr[~np.isin(arr, (0, 1))][0]
            raise LabelError(f"{name} labels must be 0 or 1, found {bad}")
    return ConfusionMatrix(
        tp=int(np.sum((t == 1) & (p == 1))),
        tn=int(np.sum((t == 0) & (p == 0))),
        fp=int(np.sum((t == 0) & (p == 1))),
        fn=int(np.sum((t == 1) & (p == 0))),
    )


def metrics(cm: ConfusionMatrix) -> MetricValues:
    """Accuracy, precision, recall, f1 from a confusion matrix."""
    if cm.total == 0:
        raise EmptyEvaluation("cannot compute metrics over zero examples")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else None
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else None
    if precision is None or recall is None:
        f1 = None
    else:
        f1 = 2 * cm.tp / (2 * cm.tp + cm.fp + cm.fn)
    return MetricValues(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


def check_threshold(threshold: float) -> None:
    """Reject a decision threshold outside [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


def predict(checkpoint, images, threshold: float = 0.5):
    """Labels and defect probabilities for a stack of images.

    label = 1 iff p(defective) >= threshold; the boundary is inclusive, so a
    tie at exactly ``threshold`` is called defective. At the default 0.5 this
    matches argmax except on exact ties.
    """
    check_threshold(threshold)
    probs = predict_probs(checkpoint.to_model(), np.asarray(images))
    p1 = probs[:, 1]
    labels = (p1 >= threshold).astype(np.int64)
    return labels, p1


@dataclass
class MetricsReport:
    """One evaluation, stored as its per-example columns.

    The confusion matrix is counted from the label columns when the report
    is built, so a label outside {0, 1} raises LabelError before any report
    file is written; ``values`` derives the metrics from it.
    """

    method: str
    threshold: float
    ids: list[str]
    true_labels: np.ndarray
    predicted_labels: np.ndarray
    prob_defective: np.ndarray
    cm: ConfusionMatrix = field(init=False)

    def __post_init__(self):
        self.cm = confusion(self.true_labels, self.predicted_labels)

    @property
    def values(self) -> MetricValues:
        return metrics(self.cm)

    def rows(self):
        """(id, true label, predicted label, p(defective)) per example, as Python scalars."""
        return zip(self.ids, self.true_labels.tolist(), self.predicted_labels.tolist(), self.prob_defective.tolist())

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "method": self.method,
            "threshold": self.threshold,
            "confusion_matrix": asdict(self.cm),
            "metrics": self.values._asdict(),
            "examples": [
                {"id": i, "true_label": t, "predicted_label": p, "prob_defective": prob}
                for i, t, p, prob in self.rows()
            ],
        }


def method_name(spec) -> str:
    """The report's name for a model: "logistic" for the baseline's architecture, "CNN" for any other."""
    return "logistic" if spec == logistic_architecture(spec.input_shape) else "CNN"


def evaluate_checkpoint(checkpoint, dataset, threshold: float = 0.5, method: str | None = None) -> MetricsReport:
    """Predict over a dataset and assemble the full QC report.

    ``method`` names the model in the report; by default it follows the
    checkpoint's architecture (``method_name``).
    """
    if len(dataset) == 0:
        raise EmptyEvaluation("cannot evaluate an empty dataset")
    labels, p1 = predict(checkpoint, dataset.images, threshold)
    return MetricsReport(
        method=method or method_name(checkpoint.spec),
        threshold=threshold,
        ids=dataset.ids,
        true_labels=dataset.labels,
        predicted_labels=labels,
        prob_defective=p1,
    )


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def report_text(report: MetricsReport) -> str:
    """Plain-text summary, one row per method."""
    row = ", ".join([report.method, *map(_fmt, report.values)])
    return f"{TEXT_HEADER}\n{row}\n"


def emit_report(report: MetricsReport, path, format: str = "json") -> None:
    """Write the report: canonical JSON, per-example CSV, or summary text."""
    if format == "json":
        write_json(path, report.to_dict(), sort_keys=True)
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "true_label", "predicted_label", "prob_defective"])
            for example_id, true_label, predicted_label, prob in report.rows():
                writer.writerow([example_id, true_label, predicted_label, f"{prob:.6f}"])
    elif format == "text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report_text(report))
    else:
        raise ValueError(f"unknown report format {format!r}; expected json, csv, or text")
