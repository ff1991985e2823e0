"""Report rendering: CSV rows and markdown tables.

AUC values are reported as percentages with two decimals; EER and ten_er
stay fractions with two decimals. Full-precision values live in
results.json (see runner.save_results), so reports are presentation only.
"""

from __future__ import annotations

import os

from .errors import ValidationError
from .metrics import MetricReport

CSV_COLUMNS = ("camera_id", "context", "auc_roc", "auc_pr", "eer", "ten_er", "n_pos", "n_neg")


def context_label(context: str) -> str:
    """The markdown label of a case: "step_3" is "Step 3", "batch_training" is "Batch Training"."""
    return context.replace("_", " ").title()


def format_cells(report: MetricReport) -> dict[str, str]:
    return {
        "auc_roc": f"{100.0 * report.auc_roc:.2f}",
        "auc_pr": f"{100.0 * report.auc_pr:.2f}",
        "eer": f"{report.eer:.2f}",
        "ten_er": f"{report.ten_er:.2f}",
        "n_pos": str(report.n_pos),
        "n_neg": str(report.n_neg),
    }


def render_csv(rows) -> str:
    """rows: iterable of (camera_id, context, MetricReport)."""
    lines = [",".join(CSV_COLUMNS)]
    for camera_id, context, report in rows:
        cells = {"camera_id": camera_id, "context": context, **format_cells(report)}
        lines.append(",".join(cells[c] for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def cases(result):
    """A result's camera id, its ordered (context, MetricReport) rows and its step count.

    A continual result gives its baseline, each step, batch training, step average and step best, and its k; a
    standard result is a (camera_id, MetricReport) pair, one "standard" row and no steps (None).
    """
    if isinstance(result, tuple):
        camera_id, report = result
        return camera_id, [("standard", report)], None
    rows = [("baseline", result.baseline)]
    rows += [(f"step_{i}", rep) for i, rep in enumerate(result.per_step, start=1)]
    rows += [("batch_training", result.batch_training)]
    rows += [("step_average", result.step_average), ("step_best", result.step_best)]
    return result.camera_id, rows, result.k


def render_markdown(results) -> str:
    """The markdown report of a list of results of one protocol (see ``cases``)."""
    lines = []
    for result in results:
        camera_id, rows, steps = cases(result)
        if not lines:
            lines += [f"# {'Standard' if steps is None else 'Continual'} evaluation report", ""]
        head = rows[0][1]
        lines.append(f"## Camera {camera_id}")
        lines.append("")
        lines.append(
            f"Test set: {head.n_pos} anomalous / {head.n_neg} normal frames"
            + ("." if steps is None else f", {steps} training steps.")
        )
        lines.append("")
        lines.append("| Case | AUC-ROC | AUC-PR | EER | 10ER |")
        lines.append("| --- | --- | --- | --- | --- |")
        for context, report in rows:
            c = format_cells(report)
            lines.append(
                f"| {context_label(context)} | {c['auc_roc']} | {c['auc_pr']} | {c['eer']} | {c['ten_er']} |"
            )
        lines.append("")
    return "\n".join(lines)


def _write(path, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def emit_report(results, out_dir, formats=("csv", "markdown")) -> dict[str, str]:
    """Write report.csv / report.md for a list of results of one protocol (see ``cases``).

    Returns a mapping from format name to the written path. Errors on an
    empty result list or an unknown format name.
    """
    results = list(results)
    if not results:
        raise ValidationError("emit_report requires at least one result")
    for fmt in formats:
        if fmt not in ("csv", "markdown"):
            raise ValidationError(f"unknown report format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    if "csv" in formats:
        rows = [(camera_id, *row) for camera_id, case_rows, _ in map(cases, results) for row in case_rows]
        paths["csv"] = _write(os.path.join(out_dir, "report.csv"), render_csv(rows))
    if "markdown" in formats:
        paths["markdown"] = _write(os.path.join(out_dir, "report.md"), render_markdown(results))
    return paths


def write_step_csv(out_dir, step: int, camera_id: str, report: MetricReport) -> str:
    steps_dir = os.path.join(out_dir, "steps")
    os.makedirs(steps_dir, exist_ok=True)
    return _write(os.path.join(steps_dir, f"step_{step}.csv"), render_csv([(camera_id, f"step_{step}", report)]))
