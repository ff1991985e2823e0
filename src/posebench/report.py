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

_CONTEXT_LABELS = {
    "standard": "Standard",
    "baseline": "Baseline",
    "batch_training": "Batch Training",
    "step_average": "Step Average",
    "step_best": "Step Best",
}


def context_label(context: str) -> str:
    if context.startswith("step_") and context[5:].isdigit():
        return f"Step {int(context[5:])}"
    return _CONTEXT_LABELS.get(context, context)


def format_cells(report: MetricReport) -> dict[str, str]:
    return {
        "auc_roc": f"{100.0 * report.auc_roc:.2f}",
        "auc_pr": f"{100.0 * report.auc_pr:.2f}",
        "eer": f"{report.eer:.2f}",
        "ten_er": f"{report.ten_er:.2f}",
        "n_pos": str(report.n_pos),
        "n_neg": str(report.n_neg),
    }


def csv_line(camera_id: str, context: str, report: MetricReport) -> str:
    cells = format_cells(report)
    return ",".join([camera_id, context] + [cells[c] for c in CSV_COLUMNS[2:]])


def render_csv(rows) -> str:
    """rows: iterable of (camera_id, context, MetricReport)."""
    lines = [",".join(CSV_COLUMNS)]
    for camera_id, context, report in rows:
        lines.append(csv_line(camera_id, context, report))
    return "\n".join(lines) + "\n"


def continual_rows(result):
    """Ordered (context, MetricReport) pairs for one continual result."""
    rows = [("baseline", result.baseline)]
    for i, rep in enumerate(result.per_step, start=1):
        rows.append((f"step_{i}", rep))
    rows.append(("batch_training", result.batch_training))
    rows.append(("step_average", result.step_average))
    rows.append(("step_best", result.step_best))
    return rows


def _cases(result):
    """A result's camera id, its (context, MetricReport) rows and its step count.

    A continual result gives every case and its k; a standard result is a
    (camera_id, MetricReport) pair, one "standard" row and no steps (None).
    """
    if isinstance(result, tuple):
        camera_id, report = result
        return camera_id, [("standard", report)], None
    return result.camera_id, continual_rows(result), result.k


def _markdown_table(rows) -> list[str]:
    lines = [
        "| Case | AUC-ROC | AUC-PR | EER | 10ER |",
        "| --- | --- | --- | --- | --- |",
    ]
    for context, report in rows:
        c = format_cells(report)
        lines.append(
            f"| {context_label(context)} | {c['auc_roc']} | {c['auc_pr']} | {c['eer']} | {c['ten_er']} |"
        )
    return lines


def render_markdown(results) -> str:
    """The markdown report of a list of results of one protocol (see ``_cases``)."""
    lines = []
    for result in results:
        camera_id, rows, steps = _cases(result)
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
        lines.extend(_markdown_table(rows))
        lines.append("")
    return "\n".join(lines)


def emit_report(results, out_dir, formats=("csv", "markdown")) -> dict[str, str]:
    """Write report.csv / report.md for a list of results of one protocol (see ``_cases``).

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
        rows = []
        for result in results:
            camera_id, cases, _ = _cases(result)
            rows.extend((camera_id, context, rep) for context, rep in cases)
        path = os.path.join(out_dir, "report.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_csv(rows))
        paths["csv"] = path
    if "markdown" in formats:
        path = os.path.join(out_dir, "report.md")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_markdown(results))
        paths["markdown"] = path
    return paths


def write_step_csv(out_dir, step: int, camera_id: str, report: MetricReport) -> str:
    steps_dir = os.path.join(out_dir, "steps")
    os.makedirs(steps_dir, exist_ok=True)
    path = os.path.join(steps_dir, f"step_{step}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_csv([(camera_id, f"step_{step}", report)]))
    return path
