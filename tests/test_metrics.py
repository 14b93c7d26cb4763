"""Confusion matrix and metric formulas vs an independent tally."""

import json

import numpy as np
import pytest

from wellqc.errors import EmptyEvaluation, LabelError
from wellqc.metrics import (
    TEXT_HEADER,
    ConfusionMatrix,
    MetricsReport,
    confusion,
    emit_report,
    metrics,
    report_text,
)


def tally_reference(true_labels, predicted_labels):
    """Brute-force pairwise counting, independent of the library."""
    tp = tn = fp = fn = 0
    for t, p in zip(true_labels, predicted_labels):
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 0:
            tn += 1
        elif t == 0 and p == 1:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


class TestConfusion:
    def test_all_correct_has_no_false_counts(self):
        cm = confusion([1, 1, 0, 0], [1, 1, 0, 0])
        assert cm.fp == 0 and cm.fn == 0
        assert cm.tp == 2 and cm.tn == 2

    def test_one_of_each_quadrant(self):
        cm = confusion([1, 1, 0, 0], [1, 0, 1, 0])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_random_pairs_match_counting_oracle(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 2, 200)
        p = rng.integers(0, 2, 200)
        cm = confusion(t, p)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == tuple(
            tally_reference(t, p)[i] for i in (0, 1, 2, 3)
        )
        assert cm.total == 200

    def test_out_of_range_label_raises(self):
        with pytest.raises(LabelError):
            confusion([0, 2], [0, 1])
        with pytest.raises(LabelError):
            confusion([0, 1], [0, -1])

    def test_length_mismatch_raises(self):
        with pytest.raises(LabelError):
            confusion([0, 1], [0])

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        t = rng.integers(0, 2, 60)
        p = rng.integers(0, 2, 60)
        perm = rng.permutation(60)
        assert confusion(t, p) == confusion(t[perm], p[perm])


class TestMetricFormulas:
    def test_reported_row_is_self_consistent(self):
        # F1 from precision 0.92 / recall 0.88 lands on 0.90
        f1 = 2 * 0.92 * 0.88 / (0.92 + 0.88)
        assert f1 == pytest.approx(0.90, abs=0.005)

    def test_perfect_classifier_scores_one(self):
        vals = metrics(ConfusionMatrix(tp=5, tn=5, fp=0, fn=0))
        assert vals == (1.0, 1.0, 1.0, 1.0)

    def test_hand_computed_case(self):
        vals = metrics(ConfusionMatrix(tp=88, fn=12, fp=8, tn=92))
        assert vals.accuracy == pytest.approx(0.90)
        assert vals.precision == pytest.approx(88 / 96)
        assert vals.recall == pytest.approx(0.88)
        assert vals.f1 == pytest.approx(2 * 88 / (2 * 88 + 8 + 12))

    def test_1000_random_matrices_match_tally_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            t = rng.integers(0, 2, n)
            p = rng.integers(0, 2, n)
            tp, tn, fp, fn = tally_reference(t, p)
            vals = metrics(confusion(t, p))
            assert vals.accuracy == pytest.approx((tp + tn) / n, abs=1e-12)
            if tp + fp > 0:
                assert vals.precision == pytest.approx(tp / (tp + fp), abs=1e-12)
            else:
                assert vals.precision is None
            if tp + fn > 0:
                assert vals.recall == pytest.approx(tp / (tp + fn), abs=1e-12)
            else:
                assert vals.recall is None

    def test_both_f1_forms_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            cm = ConfusionMatrix(
                tp=int(rng.integers(1, 50)),
                tn=int(rng.integers(0, 50)),
                fp=int(rng.integers(0, 50)),
                fn=int(rng.integers(0, 50)),
            )
            vals = metrics(cm)
            assert vals.precision is not None and vals.recall is not None
            if vals.precision + vals.recall > 0:
                harmonic = 2 * vals.precision * vals.recall / (vals.precision + vals.recall)
                assert vals.f1 == pytest.approx(harmonic, abs=1e-12)

    def test_zero_denominators_yield_null_sentinels(self):
        vals = metrics(ConfusionMatrix(tp=0, tn=10, fp=0, fn=0))
        assert vals.precision is None and vals.recall is None and vals.f1 is None
        assert vals.accuracy == 1.0

    def test_empty_evaluation_raises(self):
        with pytest.raises(EmptyEvaluation):
            metrics(ConfusionMatrix(tp=0, tn=0, fp=0, fn=0))

    def test_class_swap_maps_precision_recall_to_negative_class(self):
        rng = np.random.default_rng(4)
        t = rng.integers(0, 2, 120)
        p = rng.integers(0, 2, 120)
        vals = metrics(confusion(t, p))
        swapped = metrics(confusion(1 - t, 1 - p))
        assert swapped.accuracy == pytest.approx(vals.accuracy, abs=1e-12)
        # positives and negatives trade places
        cm = confusion(t, p)
        assert swapped.precision == pytest.approx(cm.tn / (cm.tn + cm.fn), abs=1e-12)
        assert swapped.recall == pytest.approx(cm.tn / (cm.tn + cm.fp), abs=1e-12)

    def test_accuracy_equals_matching_fraction(self):
        rng = np.random.default_rng(5)
        t = rng.integers(0, 2, 90)
        p = rng.integers(0, 2, 90)
        assert metrics(confusion(t, p)).accuracy == pytest.approx(float((t == p).mean()), abs=1e-12)


def small_report():
    return MetricsReport(
        method="CNN",
        threshold=0.5,
        ids=["a.pgm", "b.pgm", "c.pgm", "d.pgm"],
        true_labels=np.array([1, 0, 1, 0]),
        predicted_labels=np.array([1, 1, 0, 0]),
        prob_defective=np.array([0.9, 0.7, 0.2, 0.1]),
    )


def all_negative_report():
    """Two true negatives: precision, recall and f1 are undefined."""
    return MetricsReport(
        method="CNN",
        threshold=0.5,
        ids=["a.pgm", "b.pgm"],
        true_labels=np.array([0, 0]),
        predicted_labels=np.array([0, 0]),
        prob_defective=np.array([0.2, 0.1]),
    )


class TestReports:
    def test_json_round_trip(self, tmp_path):
        report = small_report()
        path = tmp_path / "report.json"
        emit_report(report, path, format="json")
        assert json.loads(path.read_text()) == report.to_dict()

    def test_text_header_is_exact(self):
        assert TEXT_HEADER == "Method, Accuracy, Precision, Recall, F1 score"
        text = report_text(small_report())
        assert text.splitlines()[0] == TEXT_HEADER

    def test_text_row_carries_method_and_values(self):
        row = report_text(small_report()).splitlines()[1]
        assert row.startswith("CNN, 0.5000")

    def test_csv_row_count_is_examples_plus_header(self, tmp_path):
        report = small_report()
        path = tmp_path / "report.csv"
        emit_report(report, path, format="csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(report.ids) + 1
        assert lines[0] == "id,true_label,predicted_label,prob_defective"

    def test_null_metrics_render_as_na_in_text(self):
        assert "n/a" in report_text(all_negative_report())

    def test_json_nulls_for_undefined_metrics(self, tmp_path):
        path = tmp_path / "r.json"
        emit_report(all_negative_report(), path, format="json")
        data = json.loads(path.read_text())
        assert data["metrics"]["precision"] is None
        assert data["metrics"]["f1"] is None

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(small_report(), tmp_path / "x", format="xml")
