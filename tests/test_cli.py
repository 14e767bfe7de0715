import dataclasses
import json
import math

import pytest

from psrkit import fileio
from psrkit.cli import main
from psrkit import (
    evaluate,
    fuse_streams,
    nominal_events,
    run_filter,
    simulate,
    toy_motorcycle,
)
from psrkit.state_inference import StateDetection, asd_stream_probs

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
        from psrkit import ConfidenceFrame

        frames = {
            "v": [
                ConfidenceFrame(frame=f, probs=(0.0,) * 34, stream_id="temporal")
                for f in range(20)
            ]
        }
        stream = tmp_path / "temporal.jsonl"
        fileio.serialize_temporal_stream(frames, stream)
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
