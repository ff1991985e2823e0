"""Acceptance suite: nine end-to-end checks with a printed scoreboard.

Every test prints exactly one `acceptance N: PASS|FAIL ...` line on the
real terminal (capture is suspended for the print), then asserts. Bodies
run inside a try/except so the scoreboard line appears even when a check
blows up instead of failing cleanly; the captured problem text carries
the detail into the assertion message.
"""

import time
from pathlib import Path

import numpy as np

import _oracles
from _golden import golden_results
from conftest import make_obs, make_track

from posebench.metrics import ScoreSeries, auc_pr, auc_roc, compute_all, eer, fpr_at_fnr
from posebench.model import CameraDataset, FrameRecord, FrameTable, SplitSet, Track
from posebench.preprocess import PoseWindow, interpolate_track, smooth_track, window_track
from posebench.rearrange import RearrangePlan, rearrange, verify
from posebench.report import emit_report
from posebench.runner import RunConfig, derive_seed, run_continual, run_standard
from posebench.scorers import GaussianScorer
from posebench.synthetic import generate_normals, generate_split


def _verdict(capsys, num, label, problems):
    ok = not problems
    with capsys.disabled():
        print(f"acceptance {num}: {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"acceptance {num} ({label}): " + " | ".join(str(p) for p in problems[:10])


def _run(body, problems):
    try:
        body()
    except Exception as exc:
        problems.append(f"unexpected {type(exc).__name__}: {exc}")


def test_01_metric_oracle_agreement(capsys):
    problems = []

    def body():
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for trial in range(1000):
            scores, labels = _oracles.random_series(rng)
            series = ScoreSeries(np.arange(len(scores)), scores, labels.astype(bool))
            got_roc = auc_roc(series)
            for name, want in (
                ("pairwise", _oracles.roc_auc_pairwise(scores, labels)),
                ("trapezoid", _oracles.roc_auc_trapezoid(scores, labels)),
            ):
                if abs(got_roc - want) > 1e-9:
                    problems.append(f"trial {trial}: auc_roc {got_roc} vs {name} {want}")
            want_pr = _oracles.average_precision(scores, labels)
            if abs(auc_pr(series) - want_pr) > 1e-6:
                problems.append(f"trial {trial}: auc_pr {auc_pr(series)} vs {want_pr}")
            want_eer = _oracles.eer_scan(scores, labels)
            if abs(eer(series) - want_eer) > 1e-9:
                problems.append(f"trial {trial}: eer {eer(series)} vs {want_eer}")
            want_ten = _oracles.fpr_at_fnr_scan(scores, labels, 0.10)
            if abs(fpr_at_fnr(series, 0.10) - want_ten) > 1e-9:
                problems.append(f"trial {trial}: ten_er {fpr_at_fnr(series, 0.10)} vs {want_ten}")
            if problems:
                break
        elapsed = time.perf_counter() - t0
        if elapsed >= 30.0:
            problems.append(f"took {elapsed:.1f}s, limit 30s")

    _run(body, problems)
    _verdict(capsys, 1, "metrics match exhaustive oracles on 1000 tied series", problems)


def test_02_four_point_fixture(capsys):
    problems = []

    def body():
        series = ScoreSeries(
            np.array([0, 1, 2, 3]),
            np.array([0.9, 0.8, 0.7, 0.6]),
            np.array([True, False, True, False]),
        )
        report = compute_all(series)
        if abs(report.auc_roc - 0.75) > 1e-12:
            problems.append(f"auc_roc {report.auc_roc} != 0.75")
        if abs(report.auc_pr - 5.0 / 6.0) > 1e-4:
            problems.append(f"auc_pr {report.auc_pr} != 0.8333")
        if abs(report.eer - 0.5) > 1e-12:
            problems.append(f"eer {report.eer} != 0.5")
        if abs(report.ten_er - 0.5) > 1e-12:
            problems.append(f"ten_er {report.ten_er} != 0.5")

    _run(body, problems)
    _verdict(capsys, 2, "four-point series hits its known metric values", problems)


def test_03_large_rearrangement_fixture(capsys):
    problems = []

    def body():
        t0 = time.perf_counter()
        shared = make_obs(track_id=0)
        n_train_normal = 483_220
        n_test_normal = 26_093
        n_test_anom = 30_667
        train = tuple(
            FrameRecord(camera_id="c0", frame_index=i, label="normal", persons=(shared,))
            for i in range(n_train_normal)
        )
        base = n_train_normal
        test = []
        for j in range(n_test_normal):
            test.append(
                FrameRecord(camera_id="c0", frame_index=base + j, label="normal", persons=(shared,))
            )
        base += n_test_normal
        for j in range(n_test_anom):
            test.append(
                FrameRecord(camera_id="c0", frame_index=base + j, label="anomalous", persons=(shared,))
            )
        split = SplitSet(
            train=CameraDataset(camera_id="c0", frames=FrameTable.from_records(train)),
            test=CameraDataset(camera_id="c0", frames=FrameTable.from_records(test)),
        )
        if len(train) + n_test_normal != 509_313:
            problems.append("fixture normals do not total 509313")

        plan = RearrangePlan(seed=0, inject_count=4_615, k=9)
        cs = rearrange(split, plan)
        verify(cs)

        stream_total = len(cs.train_stream)
        if stream_total != 487_835:
            problems.append(f"train total {stream_total} != 487835")
        stream_anoms = int(cs.frames.anomalous[cs.train_stream].sum())
        anom_pct = 100.0 * stream_anoms / stream_total
        if abs(anom_pct - 0.95) > 0.005:
            problems.append(f"train anomaly percentage {anom_pct:.4f} outside 0.95±0.005")
        test_anom = int(cs.test.frames.anomalous.sum())
        test_norm = len(cs.test.frames) - test_anom
        if (test_norm, test_anom) != (26_093, 26_052):
            problems.append(f"test counts {test_norm}/{test_anom} != 26093/26052")
        balance = 100.0 * test_anom / (test_norm + test_anom)
        if abs(balance - 49.96) > 0.05:
            problems.append(f"balance {balance:.4f} outside 49.96±0.05")

        in_idx = set(split.train.frames.frame_index.tolist())
        in_idx |= set(split.test.frames.frame_index.tolist())
        out_stream = cs.frames.frame_index[cs.train_stream].tolist()
        out_test = cs.test.frames.frame_index.tolist()
        if set(out_stream) & set(out_test):
            problems.append("stream and test share frames")
        if set(out_stream) | set(out_test) != in_idx:
            problems.append("conservation broken: output indices differ from input")
        if len(out_stream) + len(out_test) != len(in_idx):
            problems.append("conservation broken: a frame appears twice")
        out_anoms = stream_anoms + test_anom
        if out_anoms != n_test_anom:
            problems.append(f"anomaly count changed: {out_anoms} != {n_test_anom}")

        elapsed = time.perf_counter() - t0
        if elapsed >= 60.0:
            problems.append(f"took {elapsed:.1f}s, limit 60s")

    _run(body, problems)
    _verdict(capsys, 3, "half-million-frame rearrangement hits exact targets", problems)


def test_04_rearrangement_invariants(capsys):
    problems = []

    def body():
        rng = np.random.default_rng(404)
        for trial in range(100):
            tn = int(rng.integers(150, 400))
            sn = int(rng.integers(100, 260))
            sa = int(rng.integers(20, max(21, sn // 2)))
            seed = int(rng.integers(0, 2**31))
            split = generate_split(tn, sn, sa, seed=seed)
            plan = RearrangePlan(seed=seed + 1, k=int(rng.integers(2, 8)))
            cs = rearrange(split, plan)
            try:
                verify(cs)
            except Exception as exc:
                problems.append(f"trial {trial}: verify rejected: {exc}")
                break

            n_inj = int(cs.frames.anomalous[cs.train_stream].sum())
            if n_inj / len(cs.train_stream) >= plan.target_train_anomaly_ratio:
                problems.append(f"trial {trial}: anomaly cap broken")
            t_anom = int(cs.test.frames.anomalous.sum())
            t_norm = len(cs.test.frames) - t_anom
            if abs(t_norm - t_anom) / (t_norm + t_anom) > plan.balance_tolerance:
                problems.append(f"trial {trial}: balance tolerance broken")
            if not np.array_equal(np.concatenate(cs.slices), cs.train_stream):
                problems.append(f"trial {trial}: slices do not partition the stream")
            in_idx = sorted(split.train.frames.frame_index.tolist() + split.test.frames.frame_index.tolist())
            out_idx = sorted(
                cs.frames.frame_index[cs.train_stream].tolist() + cs.test.frames.frame_index.tolist()
            )
            if in_idx != out_idx:
                problems.append(f"trial {trial}: multiset conservation broken")

            again = rearrange(split, plan)
            same_stream = np.array_equal(
                again.frames.frame_index[again.train_stream], cs.frames.frame_index[cs.train_stream]
            )
            same_test = np.array_equal(again.test.frames.frame_index, cs.test.frames.frame_index)
            if not (same_stream and same_test):
                problems.append(f"trial {trial}: rearrangement not deterministic")
            if problems:
                break

    _run(body, problems)
    _verdict(capsys, 4, "100 random splits keep every rearrangement invariant", problems)


def test_05_preprocessing_properties(capsys):
    problems = []

    def body():
        # Midpoint: a gap of one frame lands exactly between its endpoints.
        track = make_track([0, 2], origins=[(10.0, 20.0), (14.0, 28.0)])
        filled = interpolate_track(track)
        lo, hi = track.keypoints
        if np.max(np.abs(filled.keypoints[1] - (lo + hi) / 2)) > 1e-9:
            problems.append("midpoint interpolation off")

        # Random gaps against the np.interp oracle.
        rng = np.random.default_rng(505)
        for trial in range(50):
            n = int(rng.integers(12, 40))
            drop = set(int(i) for i in rng.choice(np.arange(1, n - 1), size=3, replace=False))
            kept = [i for i in range(n) if i not in drop]
            origins = [(20.0 + float(rng.uniform(0, 5)) * i, 30.0 + float(rng.uniform(0, 3)) * i) for i in kept]
            track = make_track(kept, origins=origins)
            filled = interpolate_track(track)
            row_of = {fi: r for r, fi in enumerate(filled.frames.tolist())}
            want = _oracles.interp_positions(kept, track.keypoints, sorted(drop))
            for row, fi in zip(want, sorted(drop)):
                if np.max(np.abs(filled.keypoints[row_of[fi]] - row)) > 1e-9:
                    problems.append(f"trial {trial}: interpolation differs from oracle")
                    break
            if problems:
                break

        # Impulse response: +1 at the middle frame spreads as 1/15.
        n = 61
        center = n // 2
        origins = [(100.0 + (1.0 if i == center else 0.0), 80.0) for i in range(n)]
        track = make_track(list(range(n)), origins=origins)
        smoothed = smooth_track(track, 15)
        base = track.keypoints[0, 0, 0]
        got = smoothed.keypoints[center, 0, 0]
        if abs(got - (base + 1.0 / 15.0)) > 1e-9:
            problems.append(f"impulse response {got - base} != 1/15")

        # Window-count formula across 1000 random triples.
        base_track = make_track(list(range(220)))
        columns = (base_track.frames, base_track.keypoints, base_track.bbox, base_track.interpolated)
        for trial in range(1000):
            n = int(rng.integers(1, 220))
            length = int(rng.integers(2, 40))
            stride = int(rng.integers(1, 12))
            sub = Track(0, "cam0", *(col[:n] for col in columns))
            want = _oracles.window_count(n, length, stride)
            if len(window_track(sub, length=length, stride=stride)) != want:
                problems.append(f"window count off at (n={n}, length={length}, stride={stride})")
                break

    _run(body, problems)
    _verdict(capsys, 5, "interpolation, smoothing and window counts check out", problems)


def _random_windows(rng, count):
    out = []
    for i in range(count):
        feats = rng.normal(loc=0.5, scale=0.2, size=(24, 17, 2))
        out.append(
            PoseWindow(
                track_id=i,
                camera_id="acc",
                start_frame=0,
                length=24,
                features=feats,
                covered_frames=tuple(range(24)),
            )
        )
    return out


def test_06_streaming_fit_consistency(capsys):
    problems = []

    def body():
        rng = np.random.default_rng(606)
        for trial in range(100):
            n = int(rng.integers(5, 60))
            windows = _random_windows(rng, n)
            whole = GaussianScorer()
            whole.fit(windows)
            part = GaussianScorer()
            i = 0
            while i < n:
                j = i + int(rng.integers(1, n - i + 1))
                part.partial_fit(windows[i:j])
                i = j
            if np.max(np.abs(part.mean - whole.mean)) > 1e-9:
                problems.append(f"trial {trial}: means differ")
                break
            rel = np.max(np.abs(part.variance - whole.variance) / np.abs(whole.variance))
            if rel > 1e-6:
                problems.append(f"trial {trial}: variances differ (rel {rel:.2e})")
                break

    _run(body, problems)
    _verdict(capsys, 6, "incremental fitting matches whole-batch fitting 100x", problems)


def test_07_standard_run_separates_synthetic_anomalies(capsys):
    problems = []

    def body():
        t0 = time.perf_counter()
        split = generate_split(3000, 2000, 500, seed=0)
        cfg = RunConfig(mode="standard", seed=0)
        report = run_standard(cfg, split)
        if report.auc_roc < 0.95:
            problems.append(f"auc_roc {report.auc_roc:.4f} < 0.95")
        if report.ten_er > 0.2:
            problems.append(f"ten_er {report.ten_er:.4f} > 0.2")
        elapsed = time.perf_counter() - t0
        if elapsed >= 120.0:
            problems.append(f"took {elapsed:.1f}s, limit 120s")

    _run(body, problems)
    _verdict(capsys, 7, "standard run on separable data scores auc>=0.95", problems)


def test_08_continual_run_adapts_and_reproduces(capsys, tmp_path):
    problems = []

    def body():
        split = generate_split(2400, 1200, 400, seed=0, anomaly_boost=2.5)
        origin = generate_normals(
            1200, seed=derive_seed(0, "synth-origin"), step_sigma=16, jitter_sigma=8
        )
        k = 9
        cfg = RunConfig(
            mode="continual",
            seed=0,
            plan=RearrangePlan(seed=derive_seed(0, "rearrange"), k=k),
        )
        dir_a = tmp_path / "a"
        result, _ = run_continual(cfg, split, origin, out_dir=dir_a)

        if len(result.per_step) != k:
            problems.append(f"{len(result.per_step)} step reports, expected {k}")
        for i in range(1, k + 1):
            if not (dir_a / "steps" / f"step_{i}.csv").exists():
                problems.append(f"missing step report {i}")

        steps = result.per_step
        checks = [
            ("auc_roc", max, result.step_best.auc_roc, result.step_average.auc_roc),
            ("auc_pr", max, result.step_best.auc_pr, result.step_average.auc_pr),
            ("eer", min, result.step_best.eer, result.step_average.eer),
            ("ten_er", min, result.step_best.ten_er, result.step_average.ten_er),
        ]
        for name, pick, best_got, avg_got in checks:
            vals = [getattr(r, name) for r in steps]
            if abs(best_got - pick(vals)) > 1e-9:
                problems.append(f"step_best.{name} not the per-step extremum")
            if abs(avg_got - float(np.mean(vals))) > 1e-9:
                problems.append(f"step_average.{name} not the per-step mean")

        if not steps[-1].auc_roc > result.baseline.auc_roc:
            problems.append(
                f"no adaptation: final {steps[-1].auc_roc:.4f} <= baseline {result.baseline.auc_roc:.4f}"
            )

        dir_b = tmp_path / "b"
        run_continual(cfg, split, origin, out_dir=dir_b)
        names = ["report.csv", "report.md", "results.json"]
        names += [f"steps/step_{i}.csv" for i in range(1, k + 1)]
        for name in names:
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
                problems.append(f"rerun changed {name}")

    _run(body, problems)
    _verdict(capsys, 8, "continual run adapts, summaries exact, rerun identical", problems)


def test_09_report_layout_matches_goldens(capsys, tmp_path):
    problems = []

    def body():
        golden_dir = Path(__file__).parent / "data"
        emit_report(golden_results(), tmp_path)
        for fresh, golden in (
            ("report.csv", "golden_report.csv"),
            ("report.md", "golden_report.md"),
        ):
            got = (tmp_path / fresh).read_bytes()
            want = (golden_dir / golden).read_bytes()
            if got != want:
                problems.append(f"{fresh} drifted from {golden}")

    _run(body, problems)
    _verdict(capsys, 9, "report layout is byte-identical to the golden files", problems)
