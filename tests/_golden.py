"""Handcrafted continual results backing the frozen report goldens.

The numbers are arbitrary but fixed; they exercise two-decimal rounding,
multi-camera layout, and different step counts per camera. Regenerating
tests/data/golden_report.{csv,md} is only legitimate when the report
layout itself changes on purpose.
"""

from posebench.metrics import MetricReport
from posebench.runner import ContinualResult


def _rep(auc_roc, auc_pr, eer, ten_er, n_pos, n_neg):
    return MetricReport(
        auc_roc=auc_roc, auc_pr=auc_pr, eer=eer, ten_er=ten_er, n_pos=n_pos, n_neg=n_neg
    )


def golden_results():
    steps_a = (
        _rep(0.6405, 0.4212, 0.395, 0.685, 26093, 26052),
        _rep(0.7038, 0.4951, 0.34, 0.61, 26093, 26052),
        _rep(0.7957, 0.6234, 0.295, 0.52, 26093, 26052),
    )
    cam_a = ContinualResult(
        camera_id="c0",
        baseline=_rep(0.6125, 0.405, 0.41, 0.72, 26093, 26052),
        per_step=steps_a,
        batch_training=_rep(0.8269, 0.6608, 0.27, 0.485, 26093, 26052),
    )

    steps_b = (
        _rep(0.5501, 0.31, 0.46, 0.9, 4402, 4391),
        _rep(0.62995, 0.3875, 0.42, 0.815, 4402, 4391),
    )
    cam_b = ContinualResult(
        camera_id="c7",
        baseline=_rep(0.5083, 0.2744, 0.495, 0.955, 4402, 4391),
        per_step=steps_b,
        batch_training=_rep(0.7112, 0.4589, 0.38, 0.69, 4402, 4391),
    )
    return [cam_a, cam_b]
