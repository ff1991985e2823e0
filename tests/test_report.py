import pytest

from posebench.errors import ValidationError
from posebench.metrics import MetricReport
from posebench.report import (
    CSV_COLUMNS,
    context_label,
    csv_line,
    emit_report,
    format_cells,
    render_markdown,
    render_csv,
)
from posebench.runner import ContinualResult


def report(auc_roc=0.9, auc_pr=0.8, eer=0.1, ten_er=0.2, n_pos=50, n_neg=50):
    return MetricReport(
        auc_roc=auc_roc, auc_pr=auc_pr, eer=eer, ten_er=ten_er, n_pos=n_pos, n_neg=n_neg
    )


def result():
    steps = tuple(report(auc_roc=0.80 + 0.01 * i) for i in range(3))
    return ContinualResult(
        camera_id="cam0",
        baseline=report(auc_roc=0.70),
        per_step=steps,
        batch_training=report(auc_roc=0.85),
    )


class TestFormatting:
    def test_context_labels(self):
        assert context_label("baseline") == "Baseline"
        assert context_label("batch_training") == "Batch Training"
        assert context_label("step_average") == "Step Average"
        assert context_label("step_best") == "Step Best"
        assert context_label("step_3") == "Step 3"
        assert context_label("standard") == "Standard"

    def test_two_decimal_scaling(self):
        cells = format_cells(report(auc_roc=0.7957, auc_pr=0.6234, eer=0.305, ten_er=0.4))
        assert cells["auc_roc"] == "79.57"
        assert cells["auc_pr"] == "62.34"
        assert cells["eer"] == "0.30"
        assert cells["ten_er"] == "0.40"

    def test_csv_line_layout(self):
        # CSV keeps machine-readable context keys; markdown applies labels.
        line = csv_line("cam0", "baseline", report())
        parts = line.split(",")
        assert len(parts) == len(CSV_COLUMNS)
        assert parts[0] == "cam0"
        assert parts[1] == "baseline"


def result_rows(res):
    from posebench.report import continual_rows

    return [(res.camera_id, ctx, rep) for ctx, rep in continual_rows(res)]


class TestRenderers:
    def test_csv_row_count(self):
        text = render_csv(result_rows(result()))
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        # baseline + 3 steps + batch + average + best
        assert len(lines) - 1 == 1 + 3 + 1 + 1 + 1

    def test_markdown_structure(self):
        text = render_markdown([result()])
        assert text.startswith("# Continual evaluation report")
        assert "## Camera cam0" in text
        assert "| Case | AUC-ROC | AUC-PR | EER | 10ER |" in text
        assert text.endswith("\n")

    def test_row_order(self):
        text = render_csv(result_rows(result()))
        contexts = [line.split(",")[1] for line in text.strip().splitlines()[1:]]
        assert contexts == [
            "baseline",
            "step_1",
            "step_2",
            "step_3",
            "batch_training",
            "step_average",
            "step_best",
        ]


class TestEmit:
    def test_writes_both_formats(self, tmp_path):
        paths = emit_report([result()], tmp_path)
        assert set(paths) == {"csv", "markdown"}
        assert paths["csv"].endswith("report.csv")
        assert (tmp_path / "report.csv").read_text().startswith(",".join(CSV_COLUMNS))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_report([result()], tmp_path, formats=("yaml",))

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_report([], tmp_path)

    def test_emit_is_deterministic(self, tmp_path):
        emit_report([result()], tmp_path / "a")
        emit_report([result()], tmp_path / "b")
        assert (tmp_path / "a" / "report.csv").read_bytes() == (
            tmp_path / "b" / "report.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "report.md").read_bytes() == (
            tmp_path / "b" / "report.md"
        ).read_bytes()
