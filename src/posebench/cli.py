"""Command line interface.

Subcommands: stats, rearrange, run-standard, run-continual, report, synth.
Exit codes: 0 success, 1 usage error, 2 data validation error, 3 runtime
failure. Results go to files (or stdout for stats); diagnostics go to
stderr. Every writing subcommand drops a manifest.json with the tool
version, a hash of the effective configuration, the seed, a timestamp and
the subcommand name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import PosebenchError, ValidationError
from .io import load_dataset, write_dataset, write_frames
from .rearrange import RearrangePlan, rearrange, verify
from .report import emit_report, render_csv
from .runner import RunConfig, derive_seed, load_results, run_continual, run_standard
from .stats import STATS_CSV_COLUMNS, compute_stats
from .synthetic import generate_normals, generate_split


def _params_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _write_manifest(out_dir, subcommand: str, seed: int, config_hash: str):
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "tool_version": __version__,
        "config_hash": config_hash,
        "seed": seed,
        "started_at": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load(path):
    try:
        return load_dataset(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None


def _read_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config {path}: not UTF-8 text ({exc.reason})") from None
    except ValueError as exc:  # JSONDecodeError, or an integer literal past the digit limit
        raise ValidationError(f"config {path}: malformed JSON: {getattr(exc, 'msg', exc)}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return raw


_RUN_FLAG_KEYS = (
    ("scorer", "scorer"),
    ("window_length", "window_length"),
    ("window_stride", "window_stride"),
    ("max_gap", "max_gap"),
    ("smoothing_window", "smoothing_window"),
    ("aggregator", "aggregator"),
    ("fnr_target", "fnr_target"),
    ("seed", "seed"),
)

_PLAN_FLAG_KEYS = (
    ("k", "k"),
    ("inject_count", "inject_count"),
    ("target_ratio", "target_train_anomaly_ratio"),
    ("balance_tolerance", "balance_tolerance"),
)


def _build_run_config(args, mode: str):
    """Merge defaults < config file < explicit flags into a RunConfig plus data paths."""
    merged = _read_config_file(args.config) if args.config else {}
    paths = {}
    for key in ("train", "test", "origin"):
        if key in merged:
            paths[key] = merged.pop(key)
        flag = getattr(args, key, None)
        if flag is not None:
            paths[key] = flag
    if "mode" in merged and merged["mode"] != mode:
        raise ValidationError(f"config mode {merged['mode']!r} does not match subcommand {mode!r}")
    merged["mode"] = mode
    for flag_name, key in _RUN_FLAG_KEYS:
        value = getattr(args, flag_name, None)
        if value is not None:
            merged[key] = value
    if mode == "continual":
        plan = dict(merged.get("plan") or {})
        for flag_name, key in _PLAN_FLAG_KEYS:
            value = getattr(args, flag_name, None)
            if value is not None:
                plan[key] = value
        plan.setdefault("seed", derive_seed(int(merged.get("seed", 0)), "rearrange"))
        merged["plan"] = plan
    return RunConfig.from_dict(merged), paths


def _cmd_stats(args) -> int:
    rows = []
    iou_rows = []
    for path in args.datasets:
        ds = _load(path)
        if args.camera is not None and ds.camera_id != args.camera:
            continue
        st = compute_stats(ds)
        rows.append(st)
        if args.iou_out:
            iou_rows.extend((st.camera_id, v) for v in st.max_iou_per_frame)
    if not rows:
        raise ValidationError(
            f"no dataset matched camera {args.camera!r}" if args.camera else "no datasets given"
        )
    print(",".join(STATS_CSV_COLUMNS))
    for st in rows:
        row = st.csv_row()
        print(",".join(row[c] for c in STATS_CSV_COLUMNS))
    if args.iou_out:
        with open(args.iou_out, "w", encoding="utf-8") as fh:
            fh.write("camera_id,max_iou\n")
            for camera_id, v in iou_rows:
                fh.write(f"{camera_id},{v:.6f}\n")
    return 0


def _cmd_rearrange(args) -> int:
    split_train = _load(args.train)
    split_test = _load(args.test)
    from .model import SplitSet

    split = SplitSet(train=split_train, test=split_test)
    plan = RearrangePlan(
        seed=derive_seed(args.seed, "rearrange"),
        inject_count=args.inject_count,
        target_train_anomaly_ratio=args.target_ratio,
        k=args.k,
        balance_tolerance=args.balance_tolerance,
    )
    cs = rearrange(split, plan)
    verify(cs)
    os.makedirs(args.out, exist_ok=True)
    width = max(2, len(str(plan.k)))
    for i, rows in enumerate(cs.slices, start=1):
        write_frames(cs.frames.take(rows), os.path.join(args.out, f"slice_{i:0{width}d}.jsonl"))
    write_dataset(cs.test, os.path.join(args.out, "test.jsonl"))
    slice_of = np.repeat(np.arange(1, plan.k + 1), [len(rows) for rows in cs.slices])
    stream = zip(cs.frames.frame_index[cs.train_stream].tolist(), slice_of.tolist())
    with open(os.path.join(args.out, "provenance.csv"), "w", encoding="utf-8") as fh:
        fh.write("frame_index,origin,slice\n")
        for fi, i in stream:
            fh.write(f"{fi},{cs.provenance[fi]},{i}\n")
        for fi in cs.test.frames.frame_index.tolist():
            fh.write(f"{fi},{cs.provenance[fi]},\n")
    params = {
        "train": str(args.train),
        "test": str(args.test),
        "plan": {
            "seed": plan.seed,
            "inject_count": plan.inject_count,
            "target_train_anomaly_ratio": plan.target_train_anomaly_ratio,
            "k": plan.k,
            "balance_tolerance": plan.balance_tolerance,
        },
    }
    _write_manifest(args.out, "rearrange", args.seed, _params_hash(params))
    print(f"wrote {plan.k} slices, test.jsonl and provenance.csv to {args.out}", file=sys.stderr)
    return 0


def _cmd_run_standard(args) -> int:
    cfg, paths = _build_run_config(args, "standard")
    for key in ("train", "test"):
        if key not in paths:
            raise ValidationError(f"run-standard requires a {key} dataset (flag --{key} or config)")
    from .model import SplitSet

    split = SplitSet(train=_load(paths["train"]), test=_load(paths["test"]))
    _write_manifest(args.out, "run-standard", cfg.seed, cfg.config_hash())
    run_standard(cfg, split, out_dir=args.out)
    print(f"wrote report.csv and report.md to {args.out}", file=sys.stderr)
    return 0


def _cmd_run_continual(args) -> int:
    cfg, paths = _build_run_config(args, "continual")
    for key in ("train", "test", "origin"):
        if key not in paths:
            raise ValidationError(f"run-continual requires a {key} dataset (flag --{key} or config)")
    from .model import SplitSet

    split = SplitSet(train=_load(paths["train"]), test=_load(paths["test"]))
    origin = _load(paths["origin"])
    _write_manifest(args.out, "run-continual", cfg.seed, cfg.config_hash())
    run_continual(cfg, split, origin, out_dir=args.out)
    print(f"wrote report, steps and checkpoints to {args.out}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    result = load_results(args.results)
    formats = tuple(args.formats.split(","))
    emit_report([result], args.out, formats=formats)
    params = {"results": str(args.results), "formats": list(formats)}
    _write_manifest(args.out, "report", 0, _params_hash(params))
    return 0


def _cmd_synth(args) -> int:
    kinds = tuple(args.kinds.split(","))
    split = generate_split(
        args.train_normal,
        args.test_normal,
        args.test_anomaly,
        seed=args.seed,
        camera_id=args.camera,
        persons=args.persons,
        anomaly_kinds=kinds,
        segment_length=args.segment_length,
        anomaly_boost=args.boost,
        pose_variant=args.pose_variant,
    )
    os.makedirs(args.out, exist_ok=True)
    write_dataset(split.train, os.path.join(args.out, "train.jsonl"))
    write_dataset(split.test, os.path.join(args.out, "test.jsonl"))
    params = {
        "train_normal": args.train_normal,
        "test_normal": args.test_normal,
        "test_anomaly": args.test_anomaly,
        "camera": args.camera,
        "persons": args.persons,
        "kinds": list(kinds),
        "segment_length": args.segment_length,
        "boost": args.boost,
        "pose_variant": args.pose_variant,
        "origin_normal": args.origin_normal,
        "origin_variant": args.origin_variant,
        "origin_step_sigma": args.origin_step_sigma,
        "origin_jitter_sigma": args.origin_jitter_sigma,
    }
    if args.origin_normal:
        origin = generate_normals(
            args.origin_normal,
            seed=derive_seed(args.seed, "synth-origin"),
            camera_id=f"{args.camera}-origin",
            persons=args.persons,
            step_sigma=args.origin_step_sigma,
            jitter_sigma=args.origin_jitter_sigma,
            pose_variant=args.origin_variant,
        )
        write_dataset(origin, os.path.join(args.out, "origin.jsonl"))
    _write_manifest(args.out, "synth", args.seed, _params_hash(params))
    print(f"wrote synthetic datasets to {args.out}", file=sys.stderr)
    return 0


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--train", help="training dataset (JSONL)")
    p.add_argument("--test", help="test dataset (JSONL)")
    p.add_argument("--scorer", choices=("gaussian", "knn"))
    p.add_argument("--window-length", dest="window_length", type=int)
    p.add_argument("--window-stride", dest="window_stride", type=int)
    p.add_argument("--max-gap", dest="max_gap", type=int)
    p.add_argument("--smoothing-window", dest="smoothing_window", type=int)
    p.add_argument("--aggregator", choices=("max", "mean"))
    p.add_argument("--fnr-target", dest="fnr_target", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="posebench", description=__doc__)
    parser.add_argument("--version", action="version", version=f"posebench {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stats", help="dataset statistics as CSV on stdout")
    p.add_argument("datasets", nargs="+", help="JSONL dataset files")
    p.add_argument("--camera", help="only report this camera id")
    p.add_argument("--iou-out", dest="iou_out", help="write per-frame max-IoU samples to this CSV")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("rearrange", help="build a continual training stream and balanced test set")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-count", dest="inject_count", type=int)
    p.add_argument("--target-ratio", dest="target_ratio", type=float, default=0.01)
    p.add_argument("--k", type=int, default=9)
    p.add_argument("--balance-tolerance", dest="balance_tolerance", type=float, default=0.002)
    p.set_defaults(func=_cmd_rearrange)

    p = sub.add_parser("run-standard", help="fit on normal train data, evaluate once")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_run_standard)

    p = sub.add_parser("run-continual", help="pretrain, rearrange, train slice by slice")
    _add_run_flags(p)
    p.add_argument("--origin", help="origin dataset for pretraining (JSONL)")
    p.add_argument("--k", type=int)
    p.add_argument("--inject-count", dest="inject_count", type=int)
    p.add_argument("--target-ratio", dest="target_ratio", type=float)
    p.add_argument("--balance-tolerance", dest="balance_tolerance", type=float)
    p.set_defaults(func=_cmd_run_continual)

    p = sub.add_parser("report", help="re-render reports from a results.json")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--formats", default="csv,markdown")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("synth", help="generate synthetic datasets")
    p.add_argument("--train-normal", dest="train_normal", type=int, required=True)
    p.add_argument("--test-normal", dest="test_normal", type=int, required=True)
    p.add_argument("--test-anomaly", dest="test_anomaly", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--camera", default="synthcam")
    p.add_argument("--persons", type=int, default=2)
    p.add_argument("--kinds", default="velocity")
    p.add_argument("--segment-length", dest="segment_length", type=int, default=60)
    p.add_argument("--boost", type=float, default=6.0)
    p.add_argument("--pose-variant", dest="pose_variant", choices=("default", "wide"), default="default")
    p.add_argument("--origin-normal", dest="origin_normal", type=int, default=0)
    p.add_argument("--origin-variant", dest="origin_variant", choices=("default", "wide"), default="default")
    p.add_argument("--origin-step-sigma", dest="origin_step_sigma", type=float, default=3.0)
    p.add_argument("--origin-jitter-sigma", dest="origin_jitter_sigma", type=float, default=1.5)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PosebenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - map any runtime failure to exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
