import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psrkit import (
    AsdModel,
    ConfigError,
    ErrorModel,
    OcclusionModel,
    SimConfig,
    TemporalModel,
    cumulative_state,
    evaluate,
    heavy_occlusion_config,
    run_experiment,
    run_filter,
    simulate,
    toy_motorcycle,
)
from psrkit.simulator import _occlusion_mask
from psrkit.state_inference import asd_stream_probs

import oracles


def quiet_config(seed=0, n_videos=2, **overrides):
    base = dict(
        procedure=toy_motorcycle(),
        n_videos=n_videos,
        fps=10.0,
        step_gap=80.0,
        occlusion=OcclusionModel(0.0, 0.5),
        asd=AsdModel(confidence=0.9),
        temporal=TemporalModel(hit_prob=1.0, fp_rate=0.0),
        errors=ErrorModel(0.0),
        seed=seed,
        tail_frames=120,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestConfigValidation:
    def test_absorbing_occlusion_rejected(self):
        with pytest.raises(ConfigError):
            OcclusionModel(p_occlude=1.0, p_reveal=0.0)

    def test_probability_range(self):
        with pytest.raises(ConfigError):
            OcclusionModel(p_occlude=1.5, p_reveal=0.5)
        with pytest.raises(ConfigError):
            AsdModel(confidence=-0.1)
        with pytest.raises(ConfigError):
            TemporalModel(hit_prob=2.0)

    def test_step_gap_positive(self):
        with pytest.raises(ConfigError):
            quiet_config(step_gap=0)

    @pytest.mark.parametrize("fps", [0, -1.0, math.nan, math.inf, -math.inf])
    def test_fps_must_be_finite_positive(self, fps):
        with pytest.raises(ConfigError) as err:
            quiet_config(fps=fps)
        assert err.value.field == "fps"

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError) as err:
            quiet_config(seed=seed)
        assert err.value.field == "seed"

    def test_procedure_rebuilt_at_config_fps(self):
        toy = toy_motorcycle()
        assert quiet_config().procedure == toy
        cfg = quiet_config(fps=25.0)
        assert cfg.procedure == dataclasses.replace(toy, fps=25.0)
        assert dataclasses.replace(cfg, seed=1).procedure == cfg.procedure

    def test_procedure_needs_states(self):
        proc = toy_motorcycle()
        stateless = dataclasses.replace(proc, states=None)
        with pytest.raises(ConfigError):
            quiet_config(procedure=stateless)

    def test_procedure_must_realize_every_transition(self):
        toy = toy_motorcycle()
        # drop "install headlamp" (action 8), which the first transition needs
        actions = tuple(a for a in toy.actions if a != 8)
        lacking = dataclasses.replace(
            toy, actions=actions, action_effects={a: toy.effect(a) for a in actions}
        )
        with pytest.raises(ConfigError, match=r"no action for \(8, install\)") as err:
            quiet_config(procedure=lacking)
        assert err.value.field == "procedure"

    def test_error_model_needs_remove_actions(self):
        toy = toy_motorcycle()
        installs = tuple(a for a in toy.actions if toy.effect(a)[1] == "install")
        installs_only = dataclasses.replace(
            toy, actions=installs, action_effects={a: toy.effect(a) for a in installs}
        )
        # refused whatever the seed, before any video is simulated
        for seed in range(6):
            quiet_config(seed=seed, n_videos=1, procedure=installs_only)
            with pytest.raises(ConfigError, match="needs a remove action for component") as err:
                quiet_config(seed=seed, n_videos=1, procedure=installs_only,
                             errors=ErrorModel(0.05))
            assert err.value.field == "procedure"


class TestSimulate:
    @settings(max_examples=200, deadline=None)
    @given(
        p_occlude=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        p_reveal=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        length=st.integers(0, 400),
        seed=st.integers(0, 2**32),
    )
    def test_occlusion_mask_is_the_frame_by_frame_chain(self, p_occlude, p_reveal, length, seed):
        assume(p_occlude == 0.0 or p_reveal > 0.0)  # an absorbing chain is refused
        model = OcclusionModel(p_occlude, p_reveal)
        mask = _occlusion_mask(length, model, np.random.default_rng(seed))
        draws = np.random.default_rng(seed).random(length).tolist()
        assert mask.dtype == bool
        assert mask.tolist() == oracles.occlusion_mask(draws, p_occlude, p_reveal)

    def test_deterministic(self):
        cfg = heavy_occlusion_config(seed=3, n_videos=2)
        a, b = simulate(cfg), simulate(cfg)
        assert len(a) == len(b) == 2
        for ta, tb in zip(a, b):
            assert ta.ground_truth == tb.ground_truth
            assert ta.asd_detections == tb.asd_detections
            assert ta.temporal_frames == tb.temporal_frames
            assert ta.occlusion_mask == tb.occlusion_mask

    def test_different_seeds_differ(self):
        a = simulate(heavy_occlusion_config(seed=1, n_videos=1))[0]
        b = simulate(heavy_occlusion_config(seed=2, n_videos=1))[0]
        assert a.ground_truth != b.ground_truth

    def test_no_detection_on_occluded_frames(self):
        for trace in simulate(heavy_occlusion_config(seed=5, n_videos=3)):
            assert trace.asd_detections, "detector should fire somewhere"
            for det in trace.asd_detections:
                assert not trace.occlusion_mask[det.frame]

    def test_ground_truth_walks_known_states(self):
        proc = toy_motorcycle()
        for trace in simulate(quiet_config(seed=8, n_videos=3)):
            gt = trace.ground_truth
            for frame in sorted({e.frame for e in gt.events}):
                state = cumulative_state(gt, proc, frame)
                assert state.state_id is not None
            final = cumulative_state(gt, proc, gt.events[-1].frame)
            assert final.state_id == 11

    def test_no_occlusion_means_instant_detection(self):
        proc = toy_motorcycle()
        trace = simulate(quiet_config(seed=9, n_videos=1))[0]
        probs = asd_stream_probs(trace.asd_detections, proc, trace.video_len)
        pred = run_filter(probs, proc, threshold=0.5)
        report = evaluate(trace.ground_truth, pred)
        assert report.f1 == 1.0
        assert report.tau_s == 0.0

    def test_error_model_produces_corrections(self):
        cfg = quiet_config(seed=10, n_videos=1, errors=ErrorModel(1.0))
        trace = simulate(cfg)[0]
        gt = trace.ground_truth
        assert len(gt) == 17 * 3
        kinds = {(e.kind, e.correct) for e in gt.events}
        assert ("install", False) in kinds
        assert ("remove", True) in kinds
        # corrections are invisible to state diffs, so removals surface only
        # in the temporal stream; the pipeline must still run end to end
        result = run_experiment(cfg)
        assert result.summaries["asd"].f1 > 0

    def test_false_detections_report_other_known_states(self):
        proc = toy_motorcycle()
        clean = simulate(quiet_config(seed=4, n_videos=1))[0]
        noisy = simulate(quiet_config(seed=4, n_videos=1, asd=AsdModel(0.9, 0.3)))[0]
        # the detector's own draws leave the other substreams unchanged
        assert noisy.ground_truth == clean.ground_truth
        assert noisy.occlusion_mask == clean.occlusion_mask
        assert noisy.temporal_frames == clean.temporal_frames
        assert [d.frame for d in noisy.asd_detections] == [d.frame for d in clean.asd_detections]
        gt = noisy.ground_truth

        def wrong(dets):
            return [d for d in dets if d.state != cumulative_state(gt, proc, d.frame)]

        assert wrong(clean.asd_detections) == []
        false = wrong(noisy.asd_detections)
        assert 0.15 * len(noisy.asd_detections) < len(false) < 0.45 * len(noisy.asd_detections)
        assert all(d.state in proc.states for d in false)

    def test_config_fps_differs_from_procedure(self):
        # toy_motorcycle() is at 10 fps; the config's 25 fps times everything
        cfg10 = quiet_config(seed=16, n_videos=1, temporal=TemporalModel(hit_prob=1.0))
        cfg25 = dataclasses.replace(cfg10, fps=25.0)
        trace10, trace25 = simulate(cfg10)[0], simulate(cfg25)[0]
        gt10, gt25 = trace10.ground_truth, trace25.ground_truth
        assert gt25.fps == 25.0 and gt10.fps == 10.0
        assert [e.frame for e in gt25] == [e.frame for e in gt10]
        rep10 = run_experiment(cfg10, traces=[trace10]).per_video["sim000"]
        rep25 = run_experiment(cfg25, traces=[trace25]).per_video["sim000"]
        for name in ("asd", "temporal", "fused"):
            assert rep25[name].ledger == rep10[name].ledger, name
        assert rep10["temporal"].tau_s > 0
        assert rep25["temporal"].tau_s == pytest.approx(rep10["temporal"].tau_s * 10 / 25)

    def test_mask_has_both_phases(self):
        trace = simulate(heavy_occlusion_config(seed=11, n_videos=1))[0]
        mask = trace.occlusion_mask
        assert any(mask) and not all(mask)


class TestRunExperiment:
    def test_zero_noise_perfect_scores(self):
        result = run_experiment(quiet_config(seed=12, n_videos=2))
        for name in ("asd", "temporal", "fused"):
            s = result.summaries[name]
            assert s.pos == 1.0, name
            assert s.f1 == 1.0, name

    def test_reproducible(self):
        cfg = heavy_occlusion_config(seed=13, n_videos=2)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.to_dict() == b.to_dict()

    def test_fused_beats_asd_delay_under_occlusion(self):
        cfg = heavy_occlusion_config(seed=14, n_videos=2)
        result = run_experiment(cfg)
        assert result.summaries["fused"].tau_s < result.summaries["asd"].tau_s

    def test_config_echoed(self):
        cfg = heavy_occlusion_config(seed=15, n_videos=1)
        doc = run_experiment(cfg).to_dict()
        assert doc["config"]["seed"] == 15
        assert doc["config"]["occlusion"]["p_occlude"] == 0.15
        assert doc["thresholds"]["asd"] == 0.5
        assert set(doc["videos"]) == {"sim000"}


class TestOcclusionMonotonicity:
    def test_more_occlusion_never_speeds_up_state_stream(self):
        proc = toy_motorcycle()
        grid = [0.03, 0.15, 0.35]
        means = []
        for p_occ in grid:
            delays = []
            for seed in range(8):
                cfg = heavy_occlusion_config(seed=seed, n_videos=1)
                cfg = SimConfig(
                    procedure=cfg.procedure,
                    n_videos=1,
                    fps=cfg.fps,
                    step_gap=cfg.step_gap,
                    occlusion=OcclusionModel(p_occ, 0.02),
                    asd=cfg.asd,
                    temporal=cfg.temporal,
                    errors=cfg.errors,
                    seed=seed,
                    tail_frames=cfg.tail_frames,
                )
                trace = simulate(cfg)[0]
                probs = asd_stream_probs(trace.asd_detections, proc, trace.video_len)
                pred = run_filter(probs, proc, threshold=0.5)
                report = evaluate(trace.ground_truth, pred)
                if report.tau_s is not None:
                    delays.append(report.tau_s)
            means.append(sum(delays) / len(delays))
        assert means[0] <= means[1] <= means[2]
