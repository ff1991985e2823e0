import json

import numpy as np
import pytest

from posebench.errors import ValidationError
from posebench.metrics import MetricReport
from posebench.model import SplitSet
from posebench.rearrange import RearrangePlan
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
from posebench.synthetic import generate_normals, generate_split
from conftest import dataset, make_frame, make_obs


def report(auc_roc=0.8, auc_pr=0.7, eer=0.2, ten_er=0.3):
    return MetricReport(
        auc_roc=auc_roc, auc_pr=auc_pr, eer=eer, ten_er=ten_er, n_pos=10, n_neg=10
    )


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

    def test_best_dominates_average_enforced(self):
        steps = (report(auc_roc=0.8), report(auc_roc=0.9))
        avg, best = summarize_steps(steps)
        bad_best = report(auc_roc=0.5)
        with pytest.raises(ValidationError):
            ContinualResult(
                camera_id="cam0",
                baseline=report(),
                per_step=steps,
                step_average=avg,
                step_best=bad_best,
                batch_training=report(),
            )


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

    def test_too_short_train_errors(self):
        test = small_split().test
        frames = [
            make_frame(f.frame_index + 100, label=f.label, persons=f.persons, camera_id="synthcam")
            for f in test.frames.records()[:50]
        ]
        # Camera ids must match within the split, so build the train side for it.
        train = dataset([make_frame(i, camera_id="synthcam") for i in range(5)], "synthcam")
        split = SplitSet(train=train, test=dataset(frames, "synthcam"))
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

    def test_checkpoints_restore_and_score(self, outcome):
        from posebench.scorers import load_checkpoint

        _, _, out = outcome
        sc = load_checkpoint(out / "checkpoints" / "step_2.ckpt")
        assert sc.windows_seen > 0

    def test_origin_must_hold_normals(self):
        split = small_split()
        cfg = RunConfig(mode="continual", seed=0, plan=RearrangePlan(seed=1))
        with pytest.raises(ValidationError, match="non-empty origin"):
            run_continual(cfg, split, dataset([], "x"), None)
        anomalous = make_frame(0, label="anomalous", persons=(make_obs(),), camera_id="x")
        anomalous_only = dataset([anomalous], "x")
        with pytest.raises(ValidationError, match="no normal frames to pretrain on"):
            run_continual(cfg, split, anomalous_only, None)


class TestResultSerialization:
    def build(self):
        steps = (report(auc_roc=0.7), report(auc_roc=0.9))
        avg, best = summarize_steps(steps)
        return ContinualResult(
            camera_id="cam0",
            baseline=report(auc_roc=0.5),
            per_step=steps,
            step_average=avg,
            step_best=best,
            batch_training=report(auc_roc=0.95),
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

    def test_bad_format_rejected(self, tmp_path):
        res = self.build()
        d = result_to_dict(res)
        d["format"] = "something-else"
        with pytest.raises(ValidationError):
            result_from_dict(d)
