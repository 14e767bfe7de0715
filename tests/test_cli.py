import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psrkit
from psrkit import fileio
from psrkit.cli import main
from psrkit import (
    ProbStream,
    evaluate,
    fuse_streams,
    nominal_events,
    run_filter,
    simulate,
    toy_motorcycle,
)
from psrkit.state_inference import StateDetection, asd_stream_probs

from oracles import filter_fold
from util import constant_stream, seq_of


def write_labels(path, seqs):
    fileio.serialize_labels(seqs, path)
    return str(path)


def sim_config_doc(seed=7, n_videos=1):
    return {
        "schema": fileio.SIM_CONFIG_SCHEMA,
        "version": 1,
        "procedure": "toy-motorcycle",
        "n_videos": n_videos,
        "seed": seed,
        "step_gap": 40,
        "tail_frames": 150,
        "occlusion": {"p_occlude": 0.1, "p_reveal": 0.05},
        "temporal": {"hit_prob": 0.9, "fp_rate": 0.0005},
    }


SRC = str(Path(psrkit.__file__).resolve().parents[1])


def run_alone(argv, cwd, **env):
    """`psrkit argv` in a fresh interpreter: (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "psrkit.cli", *argv], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC, **env},
    )
    return proc.returncode, proc.stdout, proc.stderr


def written(directory):
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


class TestEvaluateCommand:
    def test_perfect_fixture(self, tmp_path, capsys):
        gt = {"v": seq_of([(0, 100), (1, 200)], video_id="v")}
        labels = write_labels(tmp_path / "gt.jsonl", gt)
        preds = write_labels(tmp_path / "pred.jsonl", gt)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--labels", labels, "--predictions", preds,
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["aggregate"]["pos"] == 1.0
        assert doc["aggregate"]["f1"] == 1.0
        assert doc["aggregate"]["tau_s"] == 0.0
        assert (tmp_path / "report.csv").exists()
        assert "pos=1.0000" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [[], ["--csv", "./r.csv"]])
    def test_csv_over_the_report_is_a_usage_error(self, tmp_path, capsys, monkeypatch, extra):
        """`--out r.csv` would have its report overwritten by the default CSV
        (`<out>` with suffix .csv), and so would an explicit `--csv` naming it."""
        gt = {"v": seq_of([(0, 100)], video_id="v")}
        labels = write_labels(tmp_path / "gt.jsonl", gt)
        out = tmp_path / "r.csv"
        monkeypatch.chdir(tmp_path)
        assert main(["evaluate", "--labels", labels, "--predictions", labels,
                     "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert "--csv" in err and "--out" in err
        assert not out.exists()

    def test_composition_fixture_csv(self, tmp_path):
        gt = {"v": seq_of([(0, 100), (1, 200)], video_id="v")}
        pred = {"v": seq_of([(0, 120), (2, 150)], video_id="v")}
        labels = write_labels(tmp_path / "gt.jsonl", gt)
        preds = write_labels(tmp_path / "pred.jsonl", pred)
        out = tmp_path / "report.json"
        csv_path = tmp_path / "metrics.csv"
        assert main(["evaluate", "--labels", labels, "--predictions", preds,
                     "--out", str(out), "--csv", str(csv_path)]) == 0
        row = csv_path.read_text().splitlines()[1].split(",")
        assert row[0] == "v"
        assert float(row[4]) == 0.5  # f1
        assert float(row[5]) == 2.0  # tau seconds

    def test_optimal_matching_with_scipy(self, tmp_path):
        pytest.importorskip("scipy")
        gt = {"v": seq_of([(0, 0), (0, 100)], video_id="v")}
        pred = {"v": seq_of([(0, 120)], video_id="v")}
        labels = write_labels(tmp_path / "gt.jsonl", gt)
        preds = write_labels(tmp_path / "pred.jsonl", pred)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--labels", labels, "--predictions", preds,
                     "--out", str(out), "--optimal-matching"]) == 0
        assert json.loads(out.read_text())["aggregate"]["tau_s"] == 2.0

    def test_optimal_matching_without_scipy(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)  # if imported before
        gt = {"v": seq_of([(0, 100)], video_id="v")}
        labels = write_labels(tmp_path / "gt.jsonl", gt)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--labels", labels, "--predictions", labels,
                     "--out", str(out), "--optimal-matching"]) == 2
        assert capsys.readouterr().err == (
            "error: optimal matching needs scipy: install psrkit[matching]\n"
        )
        assert not out.exists()
        assert main(["evaluate", "--labels", labels, "--predictions", labels,
                     "--out", str(out)]) == 0

    def test_empty_ground_truth_exit_code(self, tmp_path):
        gt = {"v": seq_of([(0, 100, False)], video_id="v")}
        labels = write_labels(tmp_path / "gt.jsonl", gt)
        preds = write_labels(tmp_path / "pred.jsonl", {"v": seq_of([(0, 120)])})
        assert main(["evaluate", "--labels", labels, "--predictions", preds,
                     "--out", str(tmp_path / "r.json")]) == 4

    def test_missing_predictions_file(self, tmp_path):
        gt = {"v": seq_of([(0, 100)], video_id="v")}
        labels = write_labels(tmp_path / "gt.jsonl", gt)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--labels", labels,
                     "--predictions", str(tmp_path / "missing.jsonl"),
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_predictions_for_an_unlabelled_video(self, tmp_path, capsys):
        labels = write_labels(tmp_path / "gt.jsonl", {"v": seq_of([(0, 100)], video_id="v")})
        preds = write_labels(tmp_path / "pred.jsonl", {
            "v": seq_of([(0, 100)], video_id="v"), "w": seq_of([(0, 100)], video_id="w"),
        })
        out = tmp_path / "report.json"
        assert main(["evaluate", "--labels", labels, "--predictions", preds,
                     "--out", str(out)]) == 4
        assert "no ground truth: ['w']" in capsys.readouterr().err
        assert not out.exists()

    def test_frame_rates_must_match(self, tmp_path, capsys):
        """Simulated at 25 fps, recognized with the builtin 10 fps procedure:
        evaluate refuses; with the procedure saved at 25 fps, the report is
        comparison.json's fused block."""
        doc = {**sim_config_doc(seed=5, n_videos=2), "fps": 25.0}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path), "--out", str(sim)]) == 0
        p25 = tmp_path / "p25.json"
        fileio.save_procedure(toy_motorcycle(fps=25.0), p25)
        streams = [str(sim / "asd_stream.jsonl"), str(sim / "temporal_stream.jsonl")]
        for procedure, code in (("toy-motorcycle", 2), (str(p25), 0)):
            pred, report = tmp_path / "pred.jsonl", tmp_path / "report.json"
            assert main(["recognize", "--streams", *streams, "--procedure", procedure,
                         "--fuse", "--threshold", "0.4", "--out", str(pred)]) == 0
            assert main(["evaluate", "--labels", str(sim / "gt_labels.jsonl"),
                         "--predictions", str(pred), "--out", str(report)]) == code
            assert report.exists() == (code == 0)
        assert "predictions at 10.0 fps, labels at 25.0 fps" in capsys.readouterr().err
        comparison = json.loads((sim / "comparison.json").read_text())
        doc = json.loads(report.read_text())
        assert doc["aggregate"] == comparison["summary"]["fused"]
        for vid, reps in comparison["videos"].items():
            assert doc["videos"][vid] == reps["fused"]

    def test_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["evaluate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("weights", ["insert=nan", "transpose=inf", "delete=-inf"])
    def test_non_finite_weight_is_a_usage_error(self, tmp_path, capsys, weights):
        gt = {"v": seq_of([(0, 100)], video_id="v")}
        labels = write_labels(tmp_path / "gt.jsonl", gt)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--labels", labels, "--predictions", labels,
                     "--out", str(out), "--weights", weights]) == 2
        assert weights.split("=")[0] in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("fps", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_fps_is_a_parse_failure(self, tmp_path, capsys, fps):
        labels = tmp_path / "gt.jsonl"
        labels.write_text(
            '{"schema":"psrkit/labels","version":1}\n'
            '{"action":0,"component":0,"correct":true,"fps":%s,"frame":100,'
            '"kind":"install","video_id":"v"}\n' % fps
        )
        out = tmp_path / "report.json"
        assert main(["evaluate", "--labels", str(labels), "--predictions", str(labels),
                     "--out", str(out)]) == 3
        assert f"{labels}:2: fps" in capsys.readouterr().err
        assert not out.exists()


class TestRecognizeCommand:
    def test_state_stream_golden(self, tmp_path):
        toy = toy_motorcycle()
        frames = [100 * (i + 1) for i in range(11)]
        dets = {
            "v": [
                StateDetection(frame=f, state=toy.states[i + 1], confidence=0.9)
                for i, f in enumerate(frames)
            ]
        }
        stream = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream(dets, stream)
        out = tmp_path / "pred.jsonl"
        assert main(["recognize", "--streams", str(stream),
                     "--procedure", "toy-motorcycle",
                     "--threshold", "0.5", "--out", str(out)]) == 0
        pred = fileio.parse_labels(out)["v"]
        gt = nominal_events(toy, frames, video_id="v")
        assert [e.action for e in pred.events] == [e.action for e in gt.events]
        report = evaluate(gt, pred)
        assert report.pos == 1.0 and report.f1 == 1.0

    def test_all_zero_streams_empty_predictions(self, tmp_path):
        stream = tmp_path / "temporal.jsonl"
        fileio.serialize_temporal_stream({"v": constant_stream(34, 0, 0.0, range(20))}, stream)
        out = tmp_path / "pred.jsonl"
        assert main(["recognize", "--streams", str(stream),
                     "--procedure", "toy-motorcycle", "--out", str(out)]) == 0
        assert fileio.parse_labels(out) == {}

    def test_fused_matches_library_pipeline(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(sim_config_doc(seed=21)))
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(out_dir)]) == 0

        pred_path = tmp_path / "pred.jsonl"
        assert main(["recognize",
                     "--streams", str(out_dir / "asd_stream.jsonl"),
                     str(out_dir / "temporal_stream.jsonl"),
                     "--procedure", "toy-motorcycle", "--fuse",
                     "--threshold", "0.4", "--out", str(pred_path)]) == 0
        cli_pred = fileio.parse_labels(pred_path)["sim000"]

        config, _ = fileio.load_sim_config(config_path)
        trace = simulate(config)[0]
        proc = toy_motorcycle()
        asd_probs = asd_stream_probs(trace.asd_detections, proc, trace.video_len)
        fused = fuse_streams(asd_probs, list(trace.temporal_frames))
        lib_pred = run_filter(fused, proc, threshold=0.4, video_id="sim000")
        assert cli_pred == lib_pred

    def test_fuse_needs_both_streams(self, tmp_path):
        toy = toy_motorcycle()
        dets = {"v": [StateDetection(frame=5, state=toy.states[1], confidence=0.9)]}
        stream = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream(dets, stream)
        assert main(["recognize", "--streams", str(stream),
                     "--procedure", "toy-motorcycle", "--fuse",
                     "--out", str(tmp_path / "p.jsonl")]) == 2

    def test_fuse_video_missing_from_one_stream(self, tmp_path):
        # The state detector never sees the object, so the state stream has
        # no records; fusing must still halve the temporal evidence, as
        # simulate's fused pipeline does.
        doc = sim_config_doc(seed=3, n_videos=2)
        doc["occlusion"] = {"p_occlude": 1.0, "p_reveal": 1e-9}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path), "--out", str(sim)]) == 0
        assert fileio.parse_asd_stream(sim / "asd_stream.jsonl", toy_motorcycle()) == {}
        pred = tmp_path / "pred.jsonl"
        assert main(["recognize", "--streams", str(sim / "asd_stream.jsonl"),
                     str(sim / "temporal_stream.jsonl"),
                     "--procedure", "toy-motorcycle", "--fuse",
                     "--threshold", "0.4", "--out", str(pred)]) == 0
        report = tmp_path / "report.json"
        assert main(["evaluate", "--labels", str(sim / "gt_labels.jsonl"),
                     "--predictions", str(pred), "--out", str(report)]) == 0
        comparison = json.loads((sim / "comparison.json").read_text())
        doc = json.loads(report.read_text())
        assert doc["aggregate"] == comparison["summary"]["fused"]
        for vid, reps in comparison["videos"].items():
            assert doc["videos"][vid] == reps["fused"]

    @pytest.mark.parametrize("flag", ["--threshold", "--decay", "--evidence-floor",
                                      "--min-confidence"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_flag_is_a_usage_error(self, tmp_path, capsys, flag, value):
        toy = toy_motorcycle()
        dets = {"v": [StateDetection(frame=5, state=toy.states[1], confidence=0.9)]}
        stream = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream(dets, stream)
        with pytest.raises(SystemExit) as exit_:
            main(["recognize", "--streams", str(stream), "--procedure", "toy-motorcycle",
                  f"{flag}={value}", "--out", str(tmp_path / "p.jsonl")])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and repr(value) in err

    def test_out_of_range_threshold_exits_2(self, tmp_path, capsys):
        toy = toy_motorcycle()
        dets = {"v": [StateDetection(frame=5, state=toy.states[1], confidence=0.9)]}
        stream = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream(dets, stream)
        assert main(["recognize", "--streams", str(stream), "--procedure", "toy-motorcycle",
                     "--threshold", "0", "--out", str(tmp_path / "p.jsonl")]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_two_state_streams_rejected(self, tmp_path, capsys):
        toy = toy_motorcycle()
        dets = {"v": [StateDetection(frame=5, state=toy.states[1], confidence=0.9)]}
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        fileio.serialize_asd_stream(dets, a)
        fileio.serialize_asd_stream(dets, b)
        out = tmp_path / "p.jsonl"
        assert main(["recognize", "--streams", str(a), str(b),
                     "--procedure", "toy-motorcycle", "--out", str(out)]) == 3
        assert "more than one psrkit/asd-stream stream" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_stream_schema_rejected(self, tmp_path, capsys):
        gt = {"v": seq_of([(0, 100)], video_id="v")}
        labels = write_labels(tmp_path / "gt.jsonl", gt)
        out = tmp_path / "p.jsonl"
        assert main(["recognize", "--streams", labels,
                     "--procedure", "toy-motorcycle", "--out", str(out)]) == 3
        assert "not a recognized stream schema: 'psrkit/labels'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["state", "temporal"])
    def test_video_too_long_for_memory(self, tmp_path, capsys, kind):
        # 10**15 rows of 34 float64 values exceed any address space, so the
        # allocation fails at once.
        toy = toy_motorcycle()
        stream = tmp_path / "stream.jsonl"
        if kind == "state":
            det = StateDetection(frame=10**15, state=toy.states[1], confidence=0.9)
            fileio.serialize_asd_stream({"v": [det]}, stream)
        else:
            fileio.serialize_temporal_stream({"v": constant_stream(34, 0, 0.5, [10**15])}, stream)
        out = tmp_path / "p.jsonl"
        assert main(["recognize", "--streams", str(stream), "--procedure", "toy-motorcycle",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: video 'v': 1000000000000001 frames do not fit in memory\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["state", "temporal"])
    def test_video_past_numpy_size_limit(self, tmp_path, capsys, kind):
        # 2**62 rows of 34 float64 values pass numpy's byte limit, where
        # numpy raises a ValueError of its own; nothing is allocated.
        toy = toy_motorcycle()
        stream = tmp_path / "stream.jsonl"
        if kind == "state":
            det = StateDetection(frame=2**62, state=toy.states[1], confidence=0.9)
            fileio.serialize_asd_stream({"v": [det]}, stream)
        else:
            fileio.serialize_temporal_stream({"v": constant_stream(34, 0, 0.5, [2**62])}, stream)
        out = tmp_path / "p.jsonl"
        assert main(["recognize", "--streams", str(stream), "--procedure", "toy-motorcycle",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: video 'v': {2**62 + 1} frames do not fit in memory\n"
        )
        assert not out.exists()

    def test_state_frame_beyond_int64_is_a_parse_failure(self, tmp_path, capsys):
        toy = toy_motorcycle()
        stream = tmp_path / "asd.jsonl"
        det = StateDetection(frame=2**70, state=toy.states[1], confidence=0.9)
        fileio.serialize_asd_stream({"v": [det]}, stream)
        expected = f"error: {stream}:2: frame must be an integer in [0, 2**63), got {2**70}\n"
        assert main(["validate", "--streams", str(stream), "--procedure", "toy-motorcycle"]) == 3
        assert capsys.readouterr().err == expected
        out = tmp_path / "p.jsonl"
        assert main(["recognize", "--streams", str(stream), "--procedure", "toy-motorcycle",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_series_output(self, tmp_path):
        toy = toy_motorcycle()
        dets = {"v": [StateDetection(frame=5, state=toy.states[1], confidence=0.9)]}
        stream = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream(dets, stream)
        series = tmp_path / "series.csv"
        assert main(["recognize", "--streams", str(stream),
                     "--procedure", "toy-motorcycle", "--threshold", "0.5",
                     "--out", str(tmp_path / "p.jsonl"),
                     "--series-out", str(series)]) == 0
        lines = series.read_text().splitlines()
        assert lines[0] == "video_id,frame,step,action,prob,accumulator"
        assert len(lines) > 1

    def test_series_accumulators_follow_the_fold_under_decay_and_floor(self, tmp_path):
        """The series replays the filter with the run's decay and evidence floor:
        its accumulator column is the reference fold's, step by step, through a
        crossing, a held step and fused cells at and under the floor."""
        toy = toy_motorcycle()
        asd = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream({"v": [StateDetection(3, toy.states[1], 0.9)]}, asd)
        temporal = np.zeros((12, toy.n_steps))
        temporal[2:5, 0] = 0.6  # step 0 crosses at frame 3 with the state stream's 0.9
        temporal[5:7, 4] = 0.08  # fused 0.04, under the floor: decays
        temporal[8, 12] = 0.1  # fused 0.05, at the floor: decays
        temporal[9, 12] = 0.7
        tmp = tmp_path / "temporal.jsonl"
        fileio.serialize_temporal_stream({"v": ProbStream.dense(temporal, "temporal")}, tmp)
        series, out = tmp_path / "series.csv", tmp_path / "p.jsonl"
        assert main(["recognize", "--streams", str(asd), str(tmp), "--procedure", "toy-motorcycle",
                     "--fuse", "--threshold", "0.9", "--decay", "0.5", "--evidence-floor", "0.05",
                     "--out", str(out), "--series-out", str(series)]) == 0
        fused = fuse_streams(asd_stream_probs(fileio.parse_asd_stream(asd, toy)["v"], toy, 12),
                             fileio.parse_temporal_stream(tmp)["v"])
        events, history, _, _ = filter_fold(toy, range(12), fused.probs, 0.9, 0.5, 0.05)
        assert [(e.action, e.frame) for e in events] == [(0, 3)]
        assert fileio.parse_labels(out)["v"].events == tuple(events)
        steps = [0, 4, 8, 12]
        with open(series, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(int(r[1]), int(r[2])) for r in rows] == [(t, k) for t in range(12) for k in steps]
        assert [float(r[5]) for r in rows] == [history[t][k] for t in range(12) for k in steps]

    def test_series_over_the_predictions_is_a_usage_error(self, tmp_path, capsys):
        toy = toy_motorcycle()
        stream = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream(
            {"v": [StateDetection(frame=5, state=toy.states[1], confidence=0.9)]}, stream)
        out = tmp_path / "p.jsonl"
        assert main(["recognize", "--streams", str(stream), "--procedure", "toy-motorcycle",
                     "--out", str(out), "--series-out", str(tmp_path / "." / "p.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "--series-out" in err and "--out" in err
        assert not out.exists()


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(sim_config_doc(seed=31)))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(config_path), "--out", str(out_b)]) == 0
        names = [
            "gt_labels.jsonl",
            "asd_stream.jsonl",
            "temporal_stream.jsonl",
            "occlusion.jsonl",
            "comparison.json",
        ]
        for name in names:
            assert (out_a / name).exists()
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        doc = json.loads((out_a / "comparison.json").read_text())
        assert doc["schema"] == fileio.COMPARISON_SCHEMA
        assert set(doc["summary"]) == {"asd", "temporal", "fused"}
        assert doc["config"]["seed"] == 31

    def test_seed_override(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(sim_config_doc(seed=31)))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out", str(out),
                     "--seed", "99"]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["config"]["seed"] == 99

    def test_malformed_config_names_field(self, tmp_path, capsys):
        doc = sim_config_doc()
        doc["occlusion"]["p_occlude"] = "often"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == 3
        assert "p_occlude" in capsys.readouterr().err

    def test_malformed_config_names_the_file(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**sim_config_doc(), "n_videos": "three"}))
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"error: {config_path}: config field 'n_videos': must be an integer, got 'three'\n"
        )

    def test_null_temporal_threshold_is_the_fused_one(self, tmp_path):
        config_path = tmp_path / "config.json"
        outputs = []
        for temporal in ({}, {"temporal": None}):
            doc = {**sim_config_doc(), "thresholds": {"asd": 0.5, "fused": 0.4, **temporal}}
            config_path.write_text(json.dumps(doc))
            out = tmp_path / f"o{len(outputs)}"
            assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert outputs[0] == outputs[1]

    def test_procedure_lacking_an_action(self, tmp_path, capsys):
        toy = toy_motorcycle()
        actions = tuple(a for a in toy.actions if a != 8)  # no "install headlamp"
        proc_path = tmp_path / "proc.json"
        fileio.save_procedure(dataclasses.replace(
            toy, actions=actions, action_effects={a: toy.effect(a) for a in actions}
        ), proc_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**sim_config_doc(), "procedure": str(proc_path)}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 3
        assert "'procedure': no action for (8, install)" in capsys.readouterr().err
        assert not out.exists()

    def test_error_model_needs_remove_actions(self, tmp_path, capsys):
        toy = toy_motorcycle()
        installs = tuple(a for a in toy.actions if toy.effect(a)[1] == "install")
        proc_path = tmp_path / "proc.json"
        fileio.save_procedure(dataclasses.replace(
            toy, actions=installs, action_effects={a: toy.effect(a) for a in installs}
        ), proc_path)
        doc = {**sim_config_doc(), "procedure": str(proc_path)}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "a")]) == 0
        config_path.write_text(json.dumps({**doc, "errors": {"p_incorrect": 0.05}}))
        out = tmp_path / "b"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 3
        assert "error model needs a remove action for component" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(sim_config_doc(seed=-1)))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {config_path}: config field 'seed': must be a non-negative integer, got -1\n"
        )
        assert not out.exists()

    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(sim_config_doc()))
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o"),
                  "--seed", "-1"])
        assert err.value.code == 2
        assert "argument --seed: must be a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_finite_config_is_a_config_error(self, tmp_path, capsys):
        doc = sim_config_doc()
        doc["step_gap"] = float("inf")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "o")]) == 3
        assert "step_gap" in capsys.readouterr().err


class TestSampleCommand:
    @pytest.fixture()
    def labels_path(self, tmp_path):
        toy = toy_motorcycle()
        seqs = {
            f"v{i}": nominal_events(
                toy, [60 * (j + 1) + i for j in range(11)], video_id=f"v{i}"
            )
            for i in range(2)
        }
        return write_labels(tmp_path / "labels.jsonl", seqs)

    def test_kcas(self, tmp_path, labels_path):
        out = tmp_path / "clips.jsonl"
        args = ["sample", "--labels", labels_path, "--mode", "kcas",
                "--video-len", "1200", "--n", "50", "--seed", "5",
                "--out", str(out)]
        assert main(args) == 0
        config, specs = fileio.parse_clip_samples(out)
        assert config["seed"] == 5
        assert set(specs) == {"v0", "v1"}
        assert all(len(v) == 50 for v in specs.values())
        out2 = tmp_path / "clips2.jsonl"
        assert main(args[:-1] + [str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("mode", ["kcas", "kfs"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, labels_path, capsys, mode):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--labels", labels_path, "--mode", mode, "--video-len", "1200",
                  "--procedure", "toy-motorcycle", "--seed", "-5",
                  "--out", str(tmp_path / "s.jsonl")])
        assert err.value.code == 2
        assert "argument --seed: must be a non-negative integer, got '-5'" in capsys.readouterr().err

    def test_kcas_needs_video_len(self, labels_path, tmp_path):
        assert main(["sample", "--labels", labels_path, "--mode", "kcas",
                     "--out", str(tmp_path / "c.jsonl")]) == 2

    def test_kfs(self, tmp_path, labels_path):
        out = tmp_path / "batch.jsonl"
        assert main(["sample", "--labels", labels_path, "--mode", "kfs",
                     "--procedure", "toy-motorcycle", "--tf", "2.0",
                     "--n-sample", "16", "--seed", "9", "--out", str(out)]) == 0
        spec = fileio.parse_kfs_batch(out)
        assert len(spec.entries) == 176
        assert spec.n_state == 11

    def test_kfs_with_synthetic_pool(self, tmp_path, labels_path):
        pool_path = tmp_path / "pool.json"
        pool_path.write_text(
            json.dumps({str(s): [f"ref-{s}-{i}" for i in range(4)] for s in range(1, 12)})
        )
        out = tmp_path / "batch.jsonl"
        assert main(["sample", "--labels", labels_path, "--mode", "kfs",
                     "--procedure", "toy-motorcycle", "--n-sample", "8",
                     "--n-syn", "8", "--synthetic-pool", str(pool_path),
                     "--out", str(out)]) == 0
        spec = fileio.parse_kfs_batch(out)
        assert sum(1 for e in spec.entries if e.source == "synthetic") == 88


    @pytest.mark.parametrize("args", [
        ["--mode", "kcas", "--video-len", "900", "--sigma=nan"],
        ["--mode", "kcas", "--video-len", "900", "--delta=inf"],
        ["--mode", "kfs", "--procedure", "toy-motorcycle", "--tf=inf"],
    ])
    def test_non_finite_flag_is_a_usage_error(self, tmp_path, labels_path, capsys, args):
        with pytest.raises(SystemExit) as exit_:
            main(["sample", "--labels", labels_path, *args,
                  "--out", str(tmp_path / "o.jsonl")])
        assert exit_.value.code == 2
        assert args[-1].split("=")[1] in capsys.readouterr().err

    def test_kfs_malformed_pool_is_a_parse_failure(self, tmp_path, labels_path, capsys):
        pool_path = tmp_path / "pool.json"
        pool_path.write_text("{not json")
        assert main(["sample", "--labels", labels_path, "--mode", "kfs",
                     "--procedure", "toy-motorcycle", "--n-syn", "8",
                     "--synthetic-pool", str(pool_path),
                     "--out", str(tmp_path / "batch.jsonl")]) == 3
        assert str(pool_path) in capsys.readouterr().err

    def test_kfs_pool_of_non_strings_is_a_parse_failure(self, tmp_path, labels_path, capsys):
        pool_path = tmp_path / "pool.json"
        pool_path.write_text(json.dumps({str(s): [None, 5] for s in range(1, 12)}))
        out = tmp_path / "batch.jsonl"
        assert main(["sample", "--labels", labels_path, "--mode", "kfs",
                     "--procedure", "toy-motorcycle", "--n-syn", "8",
                     "--synthetic-pool", str(pool_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {pool_path}: state 1: references must be a list of strings, got [None, 5]\n"
        )
        assert not out.exists()


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        gt = {"v": seq_of([(0, 100)], video_id="v")}
        labels = write_labels(tmp_path / "gt.jsonl", gt)
        assert main(["validate", "--labels", labels]) == 0
        assert "OK" in capsys.readouterr().out

    def test_broken_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema":"psrkit/labels","version":1}\n{"nope":1}\n')
        assert main(["validate", "--labels", str(path)]) == 3

    def test_streams_with_procedure(self, tmp_path):
        toy = toy_motorcycle()
        dets = {"v": [StateDetection(frame=5, state=toy.states[1], confidence=0.9)]}
        stream = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream(dets, stream)
        assert main(["validate", "--streams", str(stream),
                     "--procedure", "toy-motorcycle"]) == 0
        assert main(["validate", "--streams", str(stream)]) == 3

    @pytest.mark.parametrize("field,value", [
        ("fps", math.nan), ("components", []), ("components", "abcdefghijklmnopq"),
    ])
    def test_malformed_procedure_file(self, toy, tmp_path, capsys, field, value):
        path = tmp_path / "proc.json"
        fileio.save_procedure(toy, path)
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        assert main(["validate", "--procedure", str(path)]) == 3
        assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag,schema", [
        ("--labels", fileio.LABELS_SCHEMA),
        ("--streams", fileio.TEMPORAL_SCHEMA),
        ("--procedure", fileio.PROCEDURE_SCHEMA),
    ])
    def test_non_utf8_file_is_a_parse_failure(self, tmp_path, capsys, flag, schema):
        path = tmp_path / "file.json"
        header = json.dumps({"schema": schema, "version": 1}).encode()
        path.write_bytes(header + b'\n{"video_id": "\xff"}\n')
        assert main(["validate", flag, str(path)]) == 3
        assert f"error: {path}:2: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,text,where,message", [
        ("--labels", '{"schema":"psrkit/labels","version":1}\n{"frame":' + "9" * 5000 + "}",
         ":2", "Exceeds the limit (4300 digits)"),
        ("--labels", "[" * 100_000, ":1", "maximum recursion depth exceeded"),
        ("--streams", '{"schema":"psrkit/temporal-stream","version":1}\n{"frame":0,"probs":'
         + "[" * 100_000, ":2", "maximum recursion depth exceeded"),
        ("--streams", '{"schema":"psrkit/temporal-stream","version":1}\n{"frame":0,"probs":'
         + "[" * 100_000 + '],"video_id":"v"}', ":2", "maximum recursion depth exceeded"),
        ("--procedure", '{"schema":"psrkit/procedure","version":1,"fps":' + "9" * 5000 + "}",
         "", "Exceeds the limit (4300 digits)"),
        ("--procedure", "[" * 100_000, "", "maximum recursion depth exceeded"),
    ], ids=["labels-long-int", "labels-deep-header", "temporal-deep", "temporal-deep-probs",
            "procedure-long-int", "procedure-deep"])
    def test_decoder_limits_are_a_parse_failure(self, tmp_path, capsys, flag, text, where,
                                                message):
        path = tmp_path / "file.json"
        path.write_text(text + "\n")
        assert main(["validate", flag, str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}{where}: invalid JSON: {message}")
        assert err.count("\n") == 1

    def test_undecodable_header_is_not_a_stream_schema(self, tmp_path, capsys):
        path = tmp_path / "file.jsonl"
        path.write_text("[" * 100_000 + "\n")
        assert fileio.peek_schema(path) is None
        assert main(["validate", "--streams", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {path}: not a recognized stream schema: None\n"

    def test_frame_beyond_int64_is_a_parse_failure(self, tmp_path, capsys):
        path = tmp_path / "temporal.jsonl"
        path.write_text('{"schema":"psrkit/temporal-stream","version":1}\n'
                        '{"frame":99999999999999999999999,"probs":[0.5],"video_id":"v"}\n')
        assert main(["validate", "--streams", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}:2: frame must be an integer in [0, 2**63), "
            "got 99999999999999999999999\n"
        )

    def test_temporal_stream(self, tmp_path, capsys):
        stream = tmp_path / "temporal.jsonl"
        fileio.serialize_temporal_stream({"v": constant_stream(34, 2, 0.5, range(7))}, stream)
        assert main(["validate", "--streams", str(stream)]) == 0
        assert f"{stream}: OK (1 video(s), 7 frame(s))" in capsys.readouterr().out
        # with a procedure, the row width is checked against its step count
        narrow = tmp_path / "narrow.jsonl"
        fileio.serialize_temporal_stream({"v": constant_stream(3, 0, 0.5, range(2))}, narrow)
        assert main(["validate", "--streams", str(narrow)]) == 0
        assert main(["validate", "--streams", str(narrow),
                     "--procedure", "toy-motorcycle"]) == 3


class TestOneProcess:
    def test_calls_in_one_process_match_calls_run_alone(self, tmp_path, capsys, monkeypatch):
        """`main` reuses one parser: validate with and then without --labels,
        recognize with and then without --series-out, and a usage error in
        between each write the files and stdout, and exit with the code, of
        the same command run alone."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        (inputs / "config.json").write_text(json.dumps(sim_config_doc(seed=11)))
        monkeypatch.chdir(inputs)
        assert main(["simulate", "--config", "config.json", "--out", "sim"]) == 0
        capsys.readouterr()
        streams = ["sim/asd_stream.jsonl", "sim/temporal_stream.jsonl"]
        recognize = ["recognize", "--streams", *streams, "--procedure", "toy-motorcycle",
                     "--fuse", "--threshold", "0.4", "--out", "pred.jsonl"]
        argvs = [
            ["validate", "--labels", "sim/gt_labels.jsonl", "--streams", *streams,
             "--procedure", "toy-motorcycle"],
            ["validate", "--streams", streams[1]],
            [*recognize, "--series-out", "series.csv"],
            ["evaluate", "--labels", "sim/gt_labels.jsonl"],
            recognize,
            ["validate", "--procedure", "toy-motorcycle"],
        ]
        codes = []
        for i, argv in enumerate(argvs):
            here, alone = tmp_path / f"here{i}", tmp_path / f"alone{i}"
            for directory in (here, alone):
                shutil.copytree(inputs, directory)
            monkeypatch.chdir(here)
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            out = capsys.readouterr().out
            assert (code, out) == run_alone(argv, alone)[:2], argv
            assert written(here) == written(alone), argv
            codes.append(code)
        assert codes == [0, 0, 0, 2, 0, 0]

    def test_no_parser_is_built_at_import(self):
        """Importing psrkit.cli builds no argparse parser; the first `main`
        builds one and later calls build none."""
        script = """if True:
            import argparse, json
            built = []
            init = argparse.ArgumentParser.__init__
            def counting(self, *args, **kwargs):
                built.append(1)
                init(self, *args, **kwargs)
            argparse.ArgumentParser.__init__ = counting
            import psrkit.cli
            counts = [len(built)]
            for _ in range(2):
                psrkit.cli.main(["validate"])
                counts.append(len(built))
            print(json.dumps(counts))
        """
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC}, check=True)
        before, first, second = json.loads(proc.stdout)
        assert before == 0 and first > 0 and second == first


class TestTextEncoding:
    def test_csv_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        """Under the C locale, with UTF-8 mode off, evaluate and recognize
        --series-out write a non-ASCII video id to their CSV files as UTF-8."""
        gt = {"vidé": seq_of([(0, 100), (1, 200)], video_id="vidé")}
        write_labels(tmp_path / "gt.jsonl", gt)
        stream = {"vidé": constant_stream(34, 0, 0.6, range(100, 104))}
        fileio.serialize_temporal_stream(stream, tmp_path / "temporal.jsonl")
        ascii_locale = {"PYTHONUTF8": "0", "LC_ALL": "C"}
        assert run_alone(["evaluate", "--labels", "gt.jsonl", "--predictions", "gt.jsonl",
                          "--out", "report.json"], tmp_path, **ascii_locale)[0] == 0
        assert (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()[1].startswith(
            "vidé,1.0,")
        assert run_alone(["recognize", "--streams", "temporal.jsonl", "--procedure",
                          "toy-motorcycle", "--out", "pred.jsonl", "--series-out", "series.csv"],
                         tmp_path, **ascii_locale)[0] == 0
        rows = (tmp_path / "series.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) > 1 and all(row.startswith("vidé,") for row in rows[1:])
