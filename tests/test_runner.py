import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posebench.errors import InputError, PosebenchError, ValidationError
from posebench.metrics import MetricReport
from posebench.model import SplitSet
from posebench import _kernels, runner
from posebench.rearrange import ContinualSplit, RearrangePlan
from posebench.runner import (
    ContinualResult,
    RunConfig,
    derive_seed,
    load_results,
    result_from_dict,
    result_to_dict,
    run_continual,
    run_standard,
    save_results,
    summarize_steps,
)
from posebench.scorers import GaussianScorer, KnnScorer
from posebench.synthetic import generate_normals, generate_split
from conftest import make_frame, make_obs, table


def report(auc_roc=0.8, auc_pr=0.7, eer=0.2, ten_er=0.3):
    return MetricReport(
        auc_roc=auc_roc, auc_pr=auc_pr, eer=eer, ten_er=ten_er, n_pos=10, n_neg=10
    )


def metric_reports():
    """Metric reports as a run computes them: AUCs and error rates in [0, 1], any label counts."""
    unit, count = st.floats(0.0, 1.0), st.integers(0, 10**6)
    return st.builds(MetricReport, auc_roc=unit, auc_pr=unit, eer=unit, ten_er=unit, n_pos=count, n_neg=count)


def small_split(seed=0):
    return generate_split(400, 260, 80, seed=seed)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "scorer") == derive_seed(0, "scorer")

    def test_label_separates_streams(self):
        assert derive_seed(0, "scorer") != derive_seed(0, "rearrange")

    def test_root_separates_streams(self):
        assert derive_seed(0, "scorer") != derive_seed(1, "scorer")

    def test_negative_root_rejected(self):
        with pytest.raises(ValidationError):
            derive_seed(-1, "scorer")


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(mode="standard")
        assert cfg.window_length == 24
        assert cfg.window_stride == 6
        assert cfg.max_gap == 14
        assert cfg.smoothing_window == 15
        assert cfg.aggregator == "max"

    def test_continual_needs_plan(self):
        with pytest.raises(ValidationError):
            RunConfig(mode="continual")

    def test_roundtrip(self):
        cfg = RunConfig(mode="continual", seed=3, plan=RearrangePlan(seed=11, k=4))
        back = RunConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig.from_dict({"mode": "standard", "windowing": 3})
        with pytest.raises(ValidationError):
            RunConfig.from_dict(
                {"mode": "continual", "plan": {"seed": 0, "slices": 9}}
            )

    def test_config_hash_stable_and_sensitive(self):
        a = RunConfig(mode="standard", seed=1)
        b = RunConfig(mode="standard", seed=1)
        c = RunConfig(mode="standard", seed=2)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


class TestSummarize:
    def test_average_and_best(self):
        steps = (
            report(auc_roc=0.8, auc_pr=0.6, eer=0.3, ten_er=0.5),
            report(auc_roc=0.9, auc_pr=0.5, eer=0.1, ten_er=0.2),
        )
        avg, best = summarize_steps(steps)
        assert avg.auc_roc == pytest.approx(0.85)
        assert best.auc_roc == pytest.approx(0.9)
        assert best.auc_pr == pytest.approx(0.6)
        # Error metrics take the minimum as "best".
        assert best.eer == pytest.approx(0.1)
        assert best.ten_er == pytest.approx(0.2)

    def test_result_summaries_derive_from_per_step(self):
        steps = (report(auc_roc=0.8, eer=0.3), report(auc_roc=0.9, eer=0.1))
        result = ContinualResult(camera_id="cam0", baseline=report(), per_step=steps, batch_training=report())
        assert (result.step_average, result.step_best) == summarize_steps(steps)

    def test_a_result_summarizes_its_steps_once(self, monkeypatch, tmp_path):
        # Both reports and results.json read the step average and best; the pair is computed once per result.
        calls = []
        monkeypatch.setattr(runner, "summarize_steps", lambda steps: calls.append(1) or summarize_steps(steps))
        result = ContinualResult("cam0", report(), (report(auc_roc=0.8), report(auc_roc=0.9)), report())
        runner.report_mod.emit_report([result], tmp_path)
        save_results(result, tmp_path / "results.json")
        assert len(calls) == 1


class TestRunStandard:
    def test_produces_report(self):
        rep = run_standard(RunConfig(mode="standard", seed=0), small_split())
        assert isinstance(rep, MetricReport)
        assert rep.n_pos > 0 and rep.n_neg > 0

    def test_deterministic(self):
        a = run_standard(RunConfig(mode="standard", seed=0), small_split())
        b = run_standard(RunConfig(mode="standard", seed=0), small_split())
        assert a == b

    def test_mode_mismatch(self):
        cfg = RunConfig(mode="continual", plan=RearrangePlan(seed=0))
        with pytest.raises(ValidationError):
            run_standard(cfg, small_split())

    def test_writes_reports(self, tmp_path):
        run_standard(RunConfig(mode="standard", seed=0), small_split(), out_dir=tmp_path)
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.md").exists()

    def test_knn_scorer_works_too(self):
        cfg = RunConfig(mode="standard", seed=0, scorer="knn", scorer_params={"k_nn": 3})
        rep = run_standard(cfg, small_split())
        assert 0.0 <= rep.auc_roc <= 1.0

    @pytest.mark.parametrize("scorer", ["gaussian", "knn"])
    def test_train_windows_are_freed_before_the_test_windows_are_built(self, monkeypatch, scorer):
        built = []
        windows = runner._windows

        def spy(frames, cfg, *roles):
            if built:  # the test windows: nothing holds the train batch any more
                assert built[0]() is None
            batch = windows(frames, cfg, *roles)
            built.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(runner, "_windows", spy)
        run_standard(RunConfig(mode="standard", seed=0, scorer=scorer), small_split())
        assert len(built) == 2

    def test_too_short_train_errors(self):
        frames = small_split().test.take(np.arange(50))
        frames = replace(frames, frame_index=frames.frame_index + 100)
        # Camera ids must match within the split, so build the train side for it.
        train = table([make_frame(i, camera_id="synthcam") for i in range(5)])
        split = SplitSet(train=train, test=frames)
        with pytest.raises(ValidationError):
            run_standard(RunConfig(mode="standard", seed=0), split)


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    split = generate_split(600, 360, 120, seed=0, anomaly_boost=2.5)
    origin = generate_normals(
        400, seed=derive_seed(0, "synth-origin"), camera_id="synthcam-origin",
        step_sigma=16.0, jitter_sigma=8.0,
    )
    cfg = RunConfig(
        mode="continual", seed=0, plan=RearrangePlan(seed=derive_seed(0, "rearrange"), k=4)
    )
    out = tmp_path_factory.mktemp("continual")
    result, cs = run_continual(cfg, split, origin, out_dir=out)
    return result, cs, out


class TestRunContinual:
    def test_step_count(self, outcome):
        result, _, _ = outcome
        assert result.k == 4
        assert len(result.per_step) == 4

    def test_summaries_satisfy_definitions(self, outcome):
        result, _, _ = outcome
        per = result.per_step
        assert result.step_average.auc_roc == pytest.approx(
            np.mean([r.auc_roc for r in per]), abs=1e-12
        )
        assert result.step_best.auc_roc == pytest.approx(max(r.auc_roc for r in per))
        assert result.step_best.eer == pytest.approx(min(r.eer for r in per))

    def test_artifacts_written(self, outcome):
        _, _, out = outcome
        assert (out / "report.csv").exists()
        assert (out / "report.md").exists()
        assert (out / "results.json").exists()
        for i in range(1, 5):
            assert (out / "steps" / f"step_{i}.csv").exists()
            assert (out / "checkpoints" / f"step_{i}.ckpt").exists()

    def test_results_json_roundtrip(self, outcome):
        result, _, out = outcome
        loaded = load_results(out / "results.json")
        assert loaded == result

    def test_step_checkpoint_counts_the_windows_seen(self, outcome):
        # The run's gaussian scorer writes the windows it has seen as ``count``; each step adds some.
        _, _, out = outcome
        counts = []
        for i in (1, 2):
            with np.load(out / "checkpoints" / f"step_{i}.ckpt") as data:
                counts.append(json.loads(str(data["meta"]))["count"])
        assert 0 < counts[0] < counts[1]

    def test_origin_must_hold_normals(self):
        split = small_split()
        cfg = RunConfig(mode="continual", seed=0, plan=RearrangePlan(seed=1))
        with pytest.raises(ValidationError, match="non-empty origin"):
            run_continual(cfg, split, table([]), None)
        anomalous = make_frame(0, label="anomalous", persons=(make_obs(),), camera_id="x")
        anomalous_only = table([anomalous])
        with pytest.raises(ValidationError, match="no normal frames to pretrain on"):
            run_continual(cfg, split, anomalous_only, None)

    def test_origin_must_not_hold_a_test_frame(self):
        # Pretraining is training: an origin of the split's camera that holds a test frame_index is refused.
        split = small_split()
        cfg = RunConfig(mode="continual", seed=0, plan=RearrangePlan(seed=1, k=2))
        origin = split.test.take(np.flatnonzero(~split.test.anomalous)[5:])
        message = rf"^origin and test share frame indices \(e.g. {origin.frame_index[0]}\)$"
        with pytest.raises(InputError, match=message) as excinfo:
            run_continual(cfg, split, origin)
        assert excinfo.value.roles == ("origin", "test")
        # The same frame indices under another camera are other frames.
        run_continual(cfg, split, generate_normals(300, seed=2, start_index=int(split.test.frame_index[0])))

    def test_ingestion_accounting_is_a_program_fault(self, monkeypatch):
        monkeypatch.setattr(GaussianScorer, "windows_seen", property(lambda self: 0))  # under-reports every slice
        cfg = RunConfig(mode="continual", seed=0, plan=RearrangePlan(seed=1, k=3))
        message = r"^ingestion accounting broken at step 1: scorer saw 0, expected [1-9]\d*$"
        with pytest.raises(PosebenchError, match=message) as excinfo:
            run_continual(cfg, small_split(), generate_normals(300, seed=2))
        assert excinfo.type is PosebenchError  # a program fault, not a data error

    def test_every_fit_reads_its_frames_through_the_guard(self, monkeypatch):
        guarded = []
        guard = ContinualSplit.training_frames

        def spy(cs, rows):
            guarded.append(rows)
            return guard(cs, rows)

        monkeypatch.setattr(ContinualSplit, "training_frames", spy)
        cfg = RunConfig(mode="continual", seed=0, plan=RearrangePlan(seed=1, k=3))
        _, cs = run_continual(cfg, small_split(), generate_normals(300, seed=2))
        # One call per slice, then one for batch training on the whole stream.
        assert len(guarded) == 4
        for rows, want in zip(guarded, [*cs.slices, cs.train_stream]):
            assert np.array_equal(rows, want)

    def test_pretraining_windows_and_frames_are_freed_after_the_fit(self, monkeypatch):
        # The origin's normal frames (here a new table: the origin holds anomalous frames) and their windows.
        origin = generate_split(100, 200, 100, seed=3).test
        held, windows = [], runner._windows

        def spy(frames, cfg, *roles):
            if held:  # the test windows, built after the pretraining fit
                assert [ref() for ref in held] == [None, None]
            batch = windows(frames, cfg, *roles)
            if not held:
                held.extend((weakref.ref(frames), weakref.ref(batch)))
            return batch

        monkeypatch.setattr(runner, "_windows", spy)
        cfg = RunConfig(mode="continual", seed=0, plan=RearrangePlan(seed=0, k=2))
        run_continual(cfg, small_split(), origin)
        assert len(held) == 2

    @pytest.mark.parametrize("scorer", ["gaussian", "knn"])
    def test_slice_windows_are_freed_before_batch_training(self, monkeypatch, scorer):
        built, freed = [], []
        windows, fitted = runner._windows, runner._fitted

        def build(frames, cfg, *roles):
            batch = windows(frames, cfg, *roles)
            if roles == ("train", "test"):  # each slice's windows, then the stream's
                built.append(weakref.ref(batch))
            return batch

        def fit(cfg, batch, empty, *roles):
            if roles == ("train", "test"):  # batch training, on the stream's windows: the slices' are freed
                freed.extend(ref() is None for ref in built[:-1])
            return fitted(cfg, batch, empty, *roles)

        monkeypatch.setattr(runner, "_windows", build)
        monkeypatch.setattr(runner, "_fitted", fit)
        cfg = RunConfig(mode="continual", seed=0, scorer=scorer, plan=RearrangePlan(seed=1, k=3))
        run_continual(cfg, small_split(), generate_normals(300, seed=2))
        assert freed == [True, True, True]

    def test_batch_training_windows_are_freed_before_its_scoring(self, monkeypatch):
        last, scored = [], []
        extract, evaluate = runner.extract_windows, runner.evaluate_windows

        def build(frames, **kwargs):
            batch = extract(frames, **kwargs)
            last[:] = [weakref.ref(batch)]
            return batch

        def score(scorer, test_windows, test, cfg, *fitted):
            scored.append((fitted, last[0]() is None))
            return evaluate(scorer, test_windows, test, cfg, *fitted)

        monkeypatch.setattr(runner, "extract_windows", build)
        monkeypatch.setattr(runner, "evaluate_windows", score)
        cfg = RunConfig(mode="continual", seed=0, plan=RearrangePlan(seed=1, k=3))
        run_continual(cfg, small_split(), generate_normals(300, seed=2))
        # The baseline, three steps, then batch training, by which time nothing holds the stream's windows.
        assert scored[-1] == (("train", "test"), True) and len(scored) == 5

    def test_refuses_to_train_on_a_test_frame(self, monkeypatch):
        rearrange = runner.rearrange

        def leaky(split, plan):
            cs = rearrange(split, plan)
            cs.slices[-1] = np.append(cs.slices[-1], len(cs.split.train) + cs.test_rows[0])
            return cs

        monkeypatch.setattr(runner, "rearrange", leaky)
        monkeypatch.setattr(runner, "verify", lambda cs: None)
        cfg = RunConfig(mode="continual", seed=0, plan=RearrangePlan(seed=1, k=3))
        message = r"test leakage: frame \d+ \(tag 'test_(normal|anomaly)'\)"
        with pytest.raises(PosebenchError, match=message) as excinfo:
            run_continual(cfg, small_split(), generate_normals(300, seed=2))
        assert excinfo.type is PosebenchError  # a program fault, not a data error


class TestContinualKnnScoring:
    def cfg(self):
        return RunConfig(
            mode="continual", seed=0, scorer="knn", scorer_params={"k_nn": 3}, plan=RearrangePlan(seed=1, k=3)
        )

    def test_steps_scan_only_new_rows_and_match_fresh_scans(self, monkeypatch):
        cfg = self.cfg()
        score = KnnScorer.score_batch

        def fresh_scan(sc, batch):
            sc._scored = None  # forget the last scoring, so every call scans the whole store
            return score(sc, batch)

        monkeypatch.setattr(KnnScorer, "score_batch", fresh_scan)
        fresh, _ = run_continual(cfg, small_split(), generate_normals(300, seed=2))
        monkeypatch.setattr(KnnScorer, "score_batch", score)
        scans = []
        k_smallest = _kernels.knn_k_smallest

        def spy(rows, index, queries, k, prior=None):
            scans.append(prior is not None)
            return k_smallest(rows, index, queries, k, prior)

        monkeypatch.setattr(_kernels, "knn_k_smallest", spy)
        incremental, _ = run_continual(cfg, small_split(), generate_normals(300, seed=2))
        # The baseline and batch training scan a whole store; each of the 3 steps merges its new rows.
        assert scans == [False, True, True, True, False]
        assert result_to_dict(incremental) == result_to_dict(fresh)

    def test_step_scorer_is_freed_before_batch_training(self, monkeypatch):
        cfg = self.cfg()
        made = []
        make = runner.make_scorer

        def spy(*args, **kwargs):
            if made:  # the batch-training scorer: the step scorer and what it kept of its last scoring are gone
                assert made[0]() is None
            scorer = make(*args, **kwargs)
            made.append(weakref.ref(scorer))
            return scorer

        monkeypatch.setattr(runner, "make_scorer", spy)
        run_continual(cfg, small_split(), generate_normals(300, seed=2))
        assert len(made) == 2


class TestResultSerialization:
    def build(self):
        steps = (report(auc_roc=0.7), report(auc_roc=0.9))
        return ContinualResult(
            camera_id="cam0", baseline=report(auc_roc=0.5), per_step=steps, batch_training=report(auc_roc=0.95)
        )

    def test_roundtrip(self):
        res = self.build()
        assert result_from_dict(result_to_dict(res)) == res

    def test_save_load(self, tmp_path):
        res = self.build()
        path = tmp_path / "results.json"
        save_results(res, path)
        assert load_results(path) == res
        payload = json.loads(path.read_text())
        assert payload["format"] == "posebench-continual-result"

    @settings(deadline=None, max_examples=100)
    @given(steps=st.lists(metric_reports(), min_size=1, max_size=12), others=st.tuples(metric_reports(), metric_reports()))
    def test_every_written_result_loads_back(self, steps, others):
        # No results.json this program writes is refused: its summaries are exactly what its per_step gives.
        res = ContinualResult("cam0", others[0], tuple(steps), others[1])
        assert result_from_dict(json.loads(json.dumps(result_to_dict(res)))) == res

    def test_bad_format_rejected(self, tmp_path):
        res = self.build()
        d = result_to_dict(res)
        d["format"] = "something-else"
        with pytest.raises(ValidationError):
            result_from_dict(d)
