"""Protocol runners: standard single-fit evaluation and continual stream training.

The standard protocol fits a scorer once on all-normal training data and
evaluates once on the mixed test set. The continual protocol pretrains on a
separate origin dataset, rearranges the target split into an unlabeled
training stream plus a balanced test set, then ingests the stream slice by
slice, evaluating after every slice. A fresh scorer fitted on the whole
stream at once ("batch training") provides the conventional reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import report as report_mod
from .errors import ValidationError
from .metrics import AGGREGATORS, MetricReport, aggregate_frame_scores, compute_all
from .model import CameraDataset, SplitSet
from .preprocess import extract_windows
from .rearrange import (
    STREAM_TAGS,
    ContinualSplit,
    RearrangePlan,
    rearrange,
    verify,
)
from .scorers import SCORER_KINDS, make_scorer

MODES = ("standard", "continual")

RESULT_FORMAT = "posebench-continual-result"
RESULT_VERSION = 1


def derive_seed(root: int, label: str) -> int:
    """Derive a per-module seed from the run seed and a stream label."""
    if root < 0:
        raise ValidationError(f"seed must be non-negative, got {root}")
    ss = np.random.SeedSequence([root, zlib.crc32(label.encode("utf-8"))])
    return int(ss.generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the datasets themselves."""

    mode: str
    scorer: str = "gaussian"
    scorer_params: dict = field(default_factory=dict)
    window_length: int = 24
    window_stride: int = 6
    max_gap: int = 14
    smoothing_window: int = 15
    aggregator: str = "max"
    fnr_target: float = 0.10
    seed: int = 0
    plan: RearrangePlan | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.scorer not in SCORER_KINDS:
            raise ValidationError(f"scorer must be one of {SCORER_KINDS}, got {self.scorer!r}")
        if self.window_length < 2:
            raise ValidationError(f"window_length must be >= 2, got {self.window_length}")
        if self.window_stride < 1:
            raise ValidationError(f"window_stride must be >= 1, got {self.window_stride}")
        if self.max_gap < 1:
            raise ValidationError(f"max_gap must be >= 1, got {self.max_gap}")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ValidationError(
                f"smoothing_window must be a positive odd integer, got {self.smoothing_window}"
            )
        if self.aggregator not in AGGREGATORS:
            raise ValidationError(f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}")
        if not 0.0 <= self.fnr_target < 1.0:
            raise ValidationError(f"fnr_target must be in [0, 1), got {self.fnr_target}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.plan is not None and not isinstance(self.plan, RearrangePlan):
            raise ValidationError("plan must be a RearrangePlan (use from_dict for raw dicts)")
        if self.mode == "continual" and self.plan is None:
            raise ValidationError("continual mode requires a rearrange plan")

    def to_dict(self) -> dict:
        d = {
            "mode": self.mode,
            "scorer": self.scorer,
            "scorer_params": dict(self.scorer_params),
            "window_length": self.window_length,
            "window_stride": self.window_stride,
            "max_gap": self.max_gap,
            "smoothing_window": self.smoothing_window,
            "aggregator": self.aggregator,
            "fnr_target": self.fnr_target,
            "seed": self.seed,
        }
        if self.plan is not None:
            d["plan"] = {
                "seed": self.plan.seed,
                "inject_count": self.plan.inject_count,
                "target_train_anomaly_ratio": self.plan.target_train_anomaly_ratio,
                "k": self.plan.k,
                "balance_tolerance": self.plan.balance_tolerance,
            }
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {
            "mode",
            "scorer",
            "scorer_params",
            "window_length",
            "window_stride",
            "max_gap",
            "smoothing_window",
            "aggregator",
            "fnr_target",
            "seed",
            "plan",
        }
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        plan_raw = kwargs.pop("plan", None)
        if plan_raw is not None:
            plan_known = {"seed", "inject_count", "target_train_anomaly_ratio", "k", "balance_tolerance"}
            plan_unknown = set(plan_raw) - plan_known
            if plan_unknown:
                raise ValidationError(f"unknown plan keys: {sorted(plan_unknown)}")
            kwargs["plan"] = RearrangePlan(**plan_raw)
        return cls(**kwargs)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ContinualResult:
    """Baseline, per-step, summary and batch-training reports for one camera."""

    camera_id: str
    baseline: MetricReport
    per_step: tuple[MetricReport, ...]
    step_average: MetricReport
    step_best: MetricReport
    batch_training: MetricReport

    def __post_init__(self):
        if not self.per_step:
            raise ValidationError("continual result needs at least one step report")
        tol = 1e-9
        if self.step_best.auc_roc < self.step_average.auc_roc - tol:
            raise ValidationError("step_best auc_roc must dominate step_average")
        if self.step_best.auc_pr < self.step_average.auc_pr - tol:
            raise ValidationError("step_best auc_pr must dominate step_average")
        if self.step_best.eer > self.step_average.eer + tol:
            raise ValidationError("step_best eer must dominate step_average")
        if self.step_best.ten_er > self.step_average.ten_er + tol:
            raise ValidationError("step_best ten_er must dominate step_average")

    @property
    def k(self) -> int:
        return len(self.per_step)


def summarize_steps(per_step) -> tuple[MetricReport, MetricReport]:
    """Per-metric mean and per-metric best (max AUCs, min error rates)."""
    per_step = list(per_step)
    if not per_step:
        raise ValidationError("cannot summarize zero steps")
    n_pos = per_step[0].n_pos
    n_neg = per_step[0].n_neg
    roc = np.array([r.auc_roc for r in per_step])
    pr = np.array([r.auc_pr for r in per_step])
    er = np.array([r.eer for r in per_step])
    ten = np.array([r.ten_er for r in per_step])
    average = MetricReport(
        auc_roc=float(roc.mean()),
        auc_pr=float(pr.mean()),
        eer=float(er.mean()),
        ten_er=float(ten.mean()),
        n_pos=n_pos,
        n_neg=n_neg,
    )
    best = MetricReport(
        auc_roc=float(roc.max()),
        auc_pr=float(pr.max()),
        eer=float(er.min()),
        ten_er=float(ten.min()),
        n_pos=n_pos,
        n_neg=n_neg,
    )
    return average, best


def _windows_for(frames, camera_id: str, cfg: RunConfig):
    return extract_windows(
        frames,
        camera_id,
        length=cfg.window_length,
        stride=cfg.window_stride,
        max_gap=cfg.max_gap,
        smoothing_window=cfg.smoothing_window,
    )


def evaluate_windows(scorer, test_windows, test_dataset: CameraDataset, cfg: RunConfig) -> MetricReport:
    """Score test windows, fold onto frames, compute all metrics.

    Interpolation may synthesize observations at frame indices missing from
    the evaluation set (dropped frames leave structural gaps), so window
    scores are mapped only onto frames the dataset actually contains.
    """
    scores = scorer.score_batch(test_windows)
    covered = [w.covered_frames for w in test_windows]
    frames = np.fromiter(chain.from_iterable(covered), dtype=np.int64)
    entry_scores = np.repeat(scores, [len(c) for c in covered])
    present = np.isin(frames, test_dataset.frames.frame_index)
    series = aggregate_frame_scores(frames[present], entry_scores[present], test_dataset, cfg.aggregator)
    return compute_all(series, cfg.fnr_target)


def run_standard(cfg: RunConfig, split: SplitSet, out_dir=None) -> MetricReport:
    """Fit once on the split's normal train frames, evaluate once on its test set."""
    if cfg.mode != "standard":
        raise ValidationError(f"run_standard needs mode 'standard', got {cfg.mode!r}")
    if not len(split.train.frames):
        raise ValidationError("standard run requires a non-empty train dataset")
    if not len(split.test.frames):
        raise ValidationError("standard run requires a non-empty test dataset")
    train_windows = _windows_for(split.train.frames, split.camera_id, cfg)
    if not train_windows:
        raise ValidationError("training data produced zero pose windows")
    scorer = make_scorer(cfg.scorer, seed=derive_seed(cfg.seed, "scorer"), params=cfg.scorer_params)
    scorer.fit(train_windows)
    test_windows = _windows_for(split.test.frames, split.camera_id, cfg)
    result = evaluate_windows(scorer, test_windows, split.test, cfg)
    if out_dir is not None:
        report_mod.write_standard_report(split.camera_id, result, out_dir)
    return result


def _assert_training_allowed(frames, provenance):
    for fi in frames.frame_index.tolist():
        tag = provenance.get(fi)
        if tag not in STREAM_TAGS:
            raise ValidationError(f"test leakage: frame {fi} (tag {tag!r}) must not be trained on")


def run_continual(
    cfg: RunConfig,
    split: SplitSet,
    origin: CameraDataset,
    out_dir=None,
) -> tuple[ContinualResult, ContinualSplit]:
    """Pretrain on origin normals, then train slice by slice on the rearranged stream.

    Returns the result plus the rearranged split (for provenance export).
    Ingested-window accounting is asserted after every slice, and training
    refuses any frame whose provenance tag marks it as test data.
    """
    if cfg.mode != "continual":
        raise ValidationError(f"run_continual needs mode 'continual', got {cfg.mode!r}")
    if not len(origin.frames):
        raise ValidationError("continual run requires a non-empty origin dataset")
    origin_normals = origin.frames.take(np.flatnonzero(~origin.frames.anomalous))
    if not len(origin_normals):
        raise ValidationError("origin dataset has no normal frames to pretrain on")

    cs = rearrange(split, cfg.plan)
    verify(cs)

    scorer_seed = derive_seed(cfg.seed, "scorer")
    scorer = make_scorer(cfg.scorer, seed=scorer_seed, params=cfg.scorer_params)
    pretrain_windows = _windows_for(origin_normals, origin.camera_id, cfg)
    if not pretrain_windows:
        raise ValidationError("origin dataset produced zero pretraining windows")
    scorer.fit(pretrain_windows)

    test_windows = _windows_for(cs.test.frames, cs.camera_id, cfg)
    baseline = evaluate_windows(scorer, test_windows, cs.test, cfg)

    per_step = []
    expected_seen = scorer.windows_seen
    for i, rows in enumerate(cs.slices, start=1):
        sl = cs.frames.take(rows)
        _assert_training_allowed(sl, cs.provenance)
        slice_windows = _windows_for(sl, cs.camera_id, cfg)
        scorer.partial_fit(slice_windows)
        expected_seen += len(slice_windows)
        if scorer.windows_seen != expected_seen:
            raise ValidationError(
                f"ingestion accounting broken at step {i}: "
                f"scorer saw {scorer.windows_seen}, expected {expected_seen}"
            )
        step_report = evaluate_windows(scorer, test_windows, cs.test, cfg)
        per_step.append(step_report)
        if out_dir is not None:
            ckpt_dir = os.path.join(out_dir, "checkpoints")
            os.makedirs(ckpt_dir, exist_ok=True)
            scorer.save_checkpoint(os.path.join(ckpt_dir, f"step_{i}.ckpt"))
            report_mod.write_step_csv(out_dir, i, cs.camera_id, step_report)

    batch_scorer = make_scorer(cfg.scorer, seed=scorer_seed, params=cfg.scorer_params)
    batch_windows = _windows_for(cs.frames.take(cs.train_stream), cs.camera_id, cfg)
    if not batch_windows:
        raise ValidationError("training stream produced zero pose windows")
    batch_scorer.fit(batch_windows)
    batch_report = evaluate_windows(batch_scorer, test_windows, cs.test, cfg)

    step_average, step_best = summarize_steps(per_step)
    result = ContinualResult(
        camera_id=cs.camera_id,
        baseline=baseline,
        per_step=tuple(per_step),
        step_average=step_average,
        step_best=step_best,
        batch_training=batch_report,
    )
    if out_dir is not None:
        report_mod.emit_report([result], out_dir)
        save_results(result, os.path.join(out_dir, "results.json"))
    return result, cs


def result_to_dict(result: ContinualResult) -> dict:
    return {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "camera_id": result.camera_id,
        "k": result.k,
        "baseline": result.baseline.as_dict(),
        "per_step": [r.as_dict() for r in result.per_step],
        "batch_training": result.batch_training.as_dict(),
        "step_average": result.step_average.as_dict(),
        "step_best": result.step_best.as_dict(),
    }


def result_from_dict(raw: dict) -> ContinualResult:
    if not isinstance(raw, dict) or raw.get("format") != RESULT_FORMAT:
        raise ValidationError("not a continual result file")
    if raw.get("version") != RESULT_VERSION:
        raise ValidationError(f"unsupported result version {raw.get('version')!r}")

    def field(name):
        if name not in raw:
            raise ValidationError(f"missing field {name!r}")
        return raw[name]

    def rep(name, d):
        try:
            return MetricReport(
                auc_roc=float(d["auc_roc"]),
                auc_pr=float(d["auc_pr"]),
                eer=float(d["eer"]),
                ten_er=float(d["ten_er"]),
                n_pos=int(d["n_pos"]),
                n_neg=int(d["n_neg"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"field {name!r} is not a metric report: {exc!r}") from None

    steps = field("per_step")
    if not isinstance(steps, list):
        raise ValidationError(f"field 'per_step' must be a list, got {type(steps).__name__}")
    return ContinualResult(
        camera_id=field("camera_id"),
        baseline=rep("baseline", field("baseline")),
        per_step=tuple(rep(f"per_step[{i}]", d) for i, d in enumerate(steps)),
        step_average=rep("step_average", field("step_average")),
        step_best=rep("step_best", field("step_best")),
        batch_training=rep("batch_training", field("batch_training")),
    )


def save_results(result: ContinualResult, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(result), fh, indent=2)
        fh.write("\n")


def load_results(path) -> ContinualResult:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        raw = json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None
    except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
        raise ValidationError(f"{path}: malformed JSON: {getattr(exc, 'msg', exc)}") from None
    try:
        return result_from_dict(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
