import dataclasses
import json
import math
import re
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psrkit import (
    AssemblyState,
    ClipSpec,
    ConfidenceFrame,
    ConfigError,
    EditWeights,
    EventSequence,
    KfsBatchSpec,
    KfsEntry,
    ProbStream,
    SchemaError,
    StateDetection,
    StructureError,
    aggregate,
    evaluate,
    kfs_batch,
    nominal_events,
    toy_motorcycle,
)
from psrkit.simulator import (
    AsdModel,
    ErrorModel,
    OcclusionModel,
    SimConfig,
    TemporalModel,
)
from psrkit import fileio
from psrkit.sampling import clip_indices

from util import random_event_set, seq_of


@pytest.fixture()
def labels(toy):
    rng = np.random.default_rng(0)
    return {
        f"v{i}": random_event_set(rng, toy, n_events=8, max_frame=300)
        for i in range(3)
    }


def rewrite_video_ids(seqs):
    # random_event_set fixes video_id="rand"; keep map keys authoritative
    import dataclasses

    return {
        vid: dataclasses.replace(seq, video_id=vid) for vid, seq in seqs.items()
    }


class TestLabelsCodec:
    def test_round_trip(self, toy, labels, tmp_path):
        labels = rewrite_video_ids(labels)
        path = tmp_path / "labels.jsonl"
        fileio.serialize_labels(labels, path)
        parsed = fileio.parse_labels(path, proc=toy)
        assert parsed == labels

    def test_round_trip_bytes(self, labels, tmp_path):
        labels = rewrite_video_ids(labels)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        fileio.serialize_labels(labels, a)
        fileio.serialize_labels(fileio.parse_labels(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert fileio.parse_labels(path) == {}

    @staticmethod
    def _corrupt_first_install(path):
        lines = path.read_text().splitlines()
        target = next(i for i, ln in enumerate(lines) if '"kind":"install"' in ln)
        lines[target] = lines[target].replace('"install"', '"installl"')
        path.write_text("\n".join(lines) + "\n")
        return target + 1  # 1-based line number

    def test_typo_kind_names_line(self, labels, tmp_path):
        labels = rewrite_video_ids(labels)
        path = tmp_path / "labels.jsonl"
        fileio.serialize_labels(labels, path)
        lineno = self._corrupt_first_install(path)
        with pytest.raises(SchemaError) as err:
            fileio.parse_labels(path)
        assert f":{lineno}:" in str(err.value)
        assert "installl" in str(err.value)

    def test_lenient_skips_bad_lines(self, labels, tmp_path, caplog):
        labels = rewrite_video_ids(labels)
        path = tmp_path / "labels.jsonl"
        fileio.serialize_labels(labels, path)
        self._corrupt_first_install(path)
        with caplog.at_level("WARNING"):
            parsed = fileio.parse_labels(path, strict=False)
        assert "skipping" in caplog.text
        assert sum(len(s) for s in parsed.values()) == 23

    def test_duplicate_event_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        fileio.serialize_labels({"v": seq_of([(1, 10)])}, path)
        line = path.read_text().splitlines()[1]
        path.write_text(
            path.read_text().splitlines()[0] + "\n" + line + "\n" + line + "\n"
        )
        with pytest.raises(SchemaError) as err:
            fileio.parse_labels(path)
        assert "duplicate" in str(err.value)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"schema":"psrkit/temporal-stream","version":1}\n')
        with pytest.raises(SchemaError):
            fileio.parse_labels(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"schema":"psrkit/labels","version":2}\n')
        with pytest.raises(SchemaError) as err:
            fileio.parse_labels(path)
        assert "version" in str(err.value)

    def test_cross_checks_against_procedure(self, toy, tmp_path):
        path = tmp_path / "labels.jsonl"
        bad = {"v": seq_of([(0, 10)])}  # component 0 but kind install matches action 0
        fileio.serialize_labels(bad, path)
        text = path.read_text().replace('"component":0', '"component":3')
        path.write_text(text)
        with pytest.raises(SchemaError):
            fileio.parse_labels(path, proc=toy)


class TestStreamCodecs:
    def test_asd_round_trip(self, toy, tmp_path):
        dets = {
            "v0": [
                StateDetection(frame=5, state=toy.states[1], confidence=0.9),
                StateDetection(frame=9, state=toy.states[2], confidence=0.8),
            ]
        }
        path = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream(dets, path)
        assert fileio.parse_asd_stream(path, toy) == dets

    def test_unknown_state_lists_known_ids(self, toy, tmp_path):
        path = tmp_path / "asd.jsonl"
        fileio.write_jsonl(
            path,
            fileio.ASD_SCHEMA,
            [{"confidence": 0.9, "frame": 1, "state_id": 99, "video_id": "v"}],
        )
        with pytest.raises(SchemaError) as err:
            fileio.parse_asd_stream(path, toy)
        assert "99" in str(err.value)
        assert "[0, 1, 2" in str(err.value)

    def test_asd_order_enforced(self, toy, tmp_path):
        path = tmp_path / "asd.jsonl"
        fileio.write_jsonl(
            path,
            fileio.ASD_SCHEMA,
            [
                {"confidence": 0.9, "frame": 9, "state_id": 1, "video_id": "v"},
                {"confidence": 0.9, "frame": 3, "state_id": 1, "video_id": "w"},
                {"confidence": 0.9, "frame": 5, "state_id": 2, "video_id": "v"},
            ],
        )
        with pytest.raises(SchemaError, match=r"asd.jsonl:4: video 'v': frame 5 not after"):
            fileio.parse_asd_stream(path, toy)

    def test_temporal_round_trip(self, tmp_path):
        frames = {
            "v0": [
                ConfidenceFrame(frame=0, probs=(0.25, 0.0), stream_id="temporal"),
                ConfidenceFrame(frame=1, probs=(0.5, 1.0), stream_id="temporal"),
            ]
        }
        path = tmp_path / "temporal.jsonl"
        fileio.serialize_temporal_stream(frames, path)
        assert fileio.parse_temporal_stream(path, n_steps=2) == {
            "v0": ProbStream.from_frames(frames["v0"])
        }

    def test_temporal_wrong_length_names_frame(self, tmp_path):
        path = tmp_path / "temporal.jsonl"
        fileio.write_jsonl(
            path,
            fileio.TEMPORAL_SCHEMA,
            [{"frame": 17, "probs": [0.5], "video_id": "v"}],
        )
        with pytest.raises(SchemaError) as err:
            fileio.parse_temporal_stream(path, n_steps=3)
        assert "frame 17" in str(err.value)

    def test_random_temporal_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        for trial in range(10):
            frames = {
                "v": [
                    ConfidenceFrame(
                        frame=f, probs=tuple(rng.random(4)), stream_id="temporal"
                    )
                    for f in range(int(rng.integers(1, 20)))
                ]
            }
            path = tmp_path / f"t{trial}.jsonl"
            fileio.serialize_temporal_stream(frames, path)
            assert fileio.parse_temporal_stream(path, 4) == {
                "v": ProbStream.from_frames(frames["v"])
            }

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_temporal_codec_is_the_identity(self, tmp_path, data):
        """serialize -> parse returns the streams, gappy frames and all, and
        serializing the parsed streams again writes the same bytes."""
        streams = {}
        for video_id in data.draw(st.sets(st.text(min_size=1, max_size=6),
                                          min_size=1, max_size=3)):
            gaps = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=12))
            frames = list(accumulate(gaps, initial=data.draw(st.integers(0, 10**9))))[:-1]
            width = data.draw(st.integers(0, 5))
            row = st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width)
            probs = [data.draw(row) for _ in frames]
            streams[video_id] = ProbStream(
                frames, np.array(probs).reshape(len(frames), width), "temporal"
            )
        path = tmp_path / "t.jsonl"
        fileio.serialize_temporal_stream(streams, path)
        parsed = fileio.parse_temporal_stream(path)
        assert parsed == streams
        again = tmp_path / "again.jsonl"
        fileio.serialize_temporal_stream(parsed, again)
        assert again.read_bytes() == path.read_bytes()

    def test_ragged_rows_name_the_line(self, tmp_path, caplog):
        path = tmp_path / "temporal.jsonl"
        fileio.write_jsonl(path, fileio.TEMPORAL_SCHEMA, [
            {"frame": 0, "probs": [0.5, 0.0], "video_id": "v"},
            {"frame": 1, "probs": [0.5], "video_id": "w"},
            {"frame": 2, "probs": [0.5, 0.0, 0.25], "video_id": "v"},
            {"frame": 3, "probs": [0.0, 1.0], "video_id": "v"},
        ])
        with pytest.raises(SchemaError, match=r":4: frame 2: probs has length 3, expected 2"):
            fileio.parse_temporal_stream(path)
        parsed = fileio.parse_temporal_stream(path, strict=False)
        assert parsed["v"] == ProbStream([0, 3], [[0.5, 0.0], [0.0, 1.0]], "temporal")
        assert parsed["w"] == ProbStream([1], [[0.5]], "temporal")
        assert "frame 2" in caplog.text

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1.5", "-0.5", "2", "1e400"])
    def test_temporal_bad_probability_names_the_line(self, tmp_path, bad):
        path = tmp_path / "temporal.jsonl"
        path.write_text(
            '{"schema":"psrkit/temporal-stream","version":1}\n'
            '{"frame":0,"probs":[0.5,0.0],"video_id":"v"}\n'
            f'{{"frame":4,"probs":[0.5,{bad}],"video_id":"v"}}\n'
        )
        with pytest.raises(SchemaError, match=r":3: frame 4: probabilities outside"):
            fileio.parse_temporal_stream(path)
        assert len(fileio.parse_temporal_stream(path, strict=False)["v"]) == 1
        path.write_text(
            '{"schema":"psrkit/temporal-stream","version":1}\n'
            f'{{"frame":4,"probs":[0.5,{bad}],"video_id":"v"}}\n'
        )
        assert fileio.parse_temporal_stream(path, strict=False) == {}

    def test_temporal_order_names_the_line(self, tmp_path):
        path = tmp_path / "temporal.jsonl"
        fileio.write_jsonl(path, fileio.TEMPORAL_SCHEMA, [
            {"frame": 5, "probs": [0.5], "video_id": "v"},
            {"frame": 5, "probs": [0.5], "video_id": "v"},
        ])
        with pytest.raises(SchemaError, match=r":3: video 'v': frame 5 not after frame 5"):
            fileio.parse_temporal_stream(path)

    @pytest.mark.parametrize("fps", [math.nan, math.inf, -math.inf, 0, 10**400, "10"])
    def test_labels_fps_must_be_finite_positive(self, tmp_path, fps):
        path = tmp_path / "labels.jsonl"
        fileio.write_jsonl(path, fileio.LABELS_SCHEMA, [
            self.VALID_RECORDS["labels"], {**self.VALID_RECORDS["labels"], "frame": 9, "fps": fps},
        ])
        with pytest.raises(SchemaError, match=r":3: fps must be a finite positive number"):
            fileio.parse_labels(path)

    VALID_RECORDS = {
        "labels": {"action": 0, "component": 0, "correct": True, "fps": 10.0,
                   "frame": 5, "kind": "install", "video_id": "v"},
        "asd": {"confidence": 0.9, "frame": 5, "state_id": 1, "video_id": "v"},
        "temporal": {"frame": 5, "probs": [0.5, 0.0], "video_id": "v"},
    }

    @pytest.mark.parametrize("kind,field", [
        ("labels", "frame"),
        ("labels", "action"),
        ("labels", "component"),
        ("asd", "frame"),
        ("asd", "state_id"),
        ("asd", "confidence"),
        ("temporal", "frame"),
    ])
    def test_boolean_is_not_a_number(self, toy, tmp_path, kind, field):
        schema, parse = {
            "labels": (fileio.LABELS_SCHEMA, lambda path: fileio.parse_labels(path)),
            "asd": (fileio.ASD_SCHEMA, lambda path: fileio.parse_asd_stream(path, toy)),
            "temporal": (fileio.TEMPORAL_SCHEMA, fileio.parse_temporal_stream),
        }[kind]
        path = tmp_path / "records.jsonl"
        fileio.write_jsonl(path, schema, [self.VALID_RECORDS[kind]])
        parse(path)
        fileio.write_jsonl(path, schema, [{**self.VALID_RECORDS[kind], field: True}])
        with pytest.raises(SchemaError) as err:
            parse(path)
        assert field in str(err.value)
        assert ":2:" in str(err.value)

    def test_peek_schema(self, toy, tmp_path):
        path = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream({}, path)
        assert fileio.peek_schema(path) == fileio.ASD_SCHEMA

    def test_peek_schema_reads_only_the_first_line(self, tmp_path):
        path = tmp_path / "asd.jsonl"
        path.write_bytes(b'\n{"schema":"psrkit/asd-stream","version":1}\n\xff\xfe not text\n')
        assert fileio.peek_schema(path) == fileio.ASD_SCHEMA
        path.write_bytes(b"\xff\xfe\n")
        assert fileio.peek_schema(path) is None

    def test_parse_stream_dispatches_on_schema(self, toy, tmp_path):
        dets = {"v": [StateDetection(frame=5, state=toy.states[1], confidence=0.9)]}
        asd = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream(dets, asd)
        assert fileio.parse_stream(asd, toy) == (fileio.ASD_SCHEMA, dets)
        with pytest.raises(SchemaError, match="needs a procedure"):
            fileio.parse_stream(asd, None)
        temporal = tmp_path / "temporal.jsonl"
        stream = ProbStream([0, 3], [[0.5] * 34, [0.0] * 34], "temporal")
        fileio.serialize_temporal_stream({"v": stream}, temporal)
        for proc in (toy, None):
            assert fileio.parse_stream(temporal, proc) == (
                fileio.TEMPORAL_SCHEMA, {"v": stream}
            )
        labels = tmp_path / "labels.jsonl"
        fileio.serialize_labels({"v": seq_of([(0, 1)])}, labels)
        with pytest.raises(SchemaError, match="not a recognized stream schema"):
            fileio.parse_stream(labels, toy)


class TestProcedureCodec:
    def test_round_trip(self, toy, tmp_path):
        path = tmp_path / "proc.json"
        fileio.save_procedure(toy, path)
        loaded = fileio.load_procedure(path)
        assert loaded == toy

    def test_resolve_builtin(self):
        proc = fileio.resolve_procedure("toy-motorcycle")
        assert proc.n_components == 17

    @pytest.mark.parametrize("change,message", [
        (lambda d: d.update(fps=math.nan), "fps must be a finite positive number"),
        (lambda d: d.update(fps=True), "fps must be a finite positive number"),
        (lambda d: d.pop("fps"), "missing field 'fps'"),
        (lambda d: d.update(components=[]), "at least one component"),
        (lambda d: d.update(components="abcdefghijklmnopq"), "components must be a list"),
        (lambda d: d.update(components=[1, 2]), "components must be a list"),
        (lambda d: d["actions"][1].update(id=True), "id must be an integer"),
        (lambda d: d["actions"][1].update(id=2.9), "id must be an integer"),
        (lambda d: d["actions"][1].update(component=-1), "component must be"),
        (lambda d: d["actions"][1].update(kind="paint"), "invalid kind"),
        (lambda d: d["actions"][1].pop("kind"), "missing field 'kind'"),
        (lambda d: d.update(actions={"id": 0}), "actions must be a list"),
        (lambda d: d["states"][1].update(bits=5), "bit string must be non-empty 0/1, got 5"),
        (lambda d: d["states"][1].update(bits="10x"), "bit string must be"),
        (lambda d: d["states"][1].update(state_id="one"), "state_id must be an integer"),
        (lambda d: d.update(states=[5]), "states must be a list"),
        (lambda d: d.update(name=7), "name must be a string"),
    ])
    def test_malformed_file_names_the_file(self, toy, tmp_path, change, message):
        path = tmp_path / "proc.json"
        fileio.save_procedure(toy, path)
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(message)) as err:
            fileio.load_procedure(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_state_ids_may_be_null(self, toy, tmp_path):
        proc = dataclasses.replace(toy, states=tuple(
            AssemblyState(s.bits) for s in toy.states
        ))
        path = tmp_path / "proc.json"
        fileio.save_procedure(proc, path)
        assert fileio.load_procedure(path) == proc

    def test_resolve_missing(self):
        with pytest.raises(SchemaError) as err:
            fileio.resolve_procedure("no-such-thing")
        assert "toy-motorcycle" in str(err.value)


class TestSamplerCodecs:
    def test_clip_samples_round_trip(self, tmp_path):
        specs = {"v0": [clip_indices(300, 256, 64), clip_indices(400, 256, 64)]}
        path = tmp_path / "clips.jsonl"
        fileio.write_clip_samples(path, specs, {"seed": 1})
        config, parsed = fileio.parse_clip_samples(path)
        assert config == {"seed": 1}
        assert parsed == specs

    def test_kfs_round_trip(self, toy, tmp_path):
        videos = {"v": nominal_events(toy, [50 * (i + 1) for i in range(11)], "v")}
        spec = kfs_batch(videos, toy, t_f=2.0, n_sample=4, seed=3)
        path = tmp_path / "batch.jsonl"
        fileio.write_kfs_batch(path, spec, {"seed": 3})
        assert fileio.parse_kfs_batch(path) == spec

    @pytest.mark.parametrize("source,field,value", [
        ("real", "frame", True),
        ("real", "frame", "7"),
        ("real", "frame", 7.9),
        ("real", "frame", None),
        ("real", "frame", -1),
        ("real", "state_id", "zz"),
        ("real", "state_id", True),
        ("synthetic", "state_id", None),
        ("synthetic", "state_id", 1.0),
    ])
    def test_kfs_bad_integer_names_the_line(self, tmp_path, source, field, value):
        record = {"source": "real", "state_id": 1, "video_id": "v", "frame": 7}
        if source == "synthetic":
            record = {"source": "synthetic", "state_id": 1, "ref": "r"}
        header = {"t_f": 2.0, "n_sample": 1, "n_syn": 1, "n_state": 1, "fps": 10.0}
        path = tmp_path / "batch.jsonl"
        fileio.write_jsonl(path, fileio.KFS_BATCH_SCHEMA, [record], header_extra=header)
        fileio.parse_kfs_batch(path)
        fileio.write_jsonl(path, fileio.KFS_BATCH_SCHEMA, [{**record, field: value}],
                           header_extra=header)
        with pytest.raises(SchemaError, match=f":2: {field} must be"):
            fileio.parse_kfs_batch(path)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"x": ["a"]}', '{"1": "a"}'])
    def test_bad_synthetic_pool_names_the_file(self, tmp_path, text):
        path = tmp_path / "pool.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match="pool.json"):
            fileio.load_synthetic_pool(path)

    @pytest.mark.parametrize("field,value", [
        ("end_frame", True), ("window", True), ("window", 2.0), ("end_frame", None),
        ("indices", [True, 300]), ("indices", [299.0, 300]), ("indices", "299"),
    ])
    def test_clip_record_integers(self, tmp_path, field, value):
        record = {"end_frame": 300, "indices": [299, 300], "video_id": "v", "window": 2}
        path = tmp_path / "clips.jsonl"
        fileio.write_jsonl(path, fileio.CLIP_SAMPLES_SCHEMA, [record])
        assert fileio.parse_clip_samples(path)[1] == {"v": [ClipSpec(300, 2, (299, 300))]}
        fileio.write_jsonl(path, fileio.CLIP_SAMPLES_SCHEMA, [{**record, field: value}])
        with pytest.raises(SchemaError, match=f":2: {field} must be"):
            fileio.parse_clip_samples(path)

    def test_clip_record_outside_its_window(self, tmp_path):
        path = tmp_path / "clips.jsonl"
        fileio.write_jsonl(path, fileio.CLIP_SAMPLES_SCHEMA, [
            {"end_frame": 300, "indices": [10], "video_id": "v", "window": 2}
        ])
        with pytest.raises(SchemaError, match=":2: malformed clip record"):
            fileio.parse_clip_samples(path)

    @pytest.mark.parametrize("mask", [5, None, ["0", "1"], "01x"])
    def test_occlusion_mask_must_be_a_bit_string(self, tmp_path, mask):
        path = tmp_path / "occ.jsonl"
        fileio.write_jsonl(path, fileio.OCCLUSION_SCHEMA, [{"mask": mask, "video_id": "v"}])
        with pytest.raises(SchemaError, match=":2: mask must be a 0/1 string"):
            fileio.parse_occlusion_masks(path)

    def test_second_occlusion_mask_for_a_video(self, tmp_path):
        path = tmp_path / "occ.jsonl"
        fileio.write_jsonl(path, fileio.OCCLUSION_SCHEMA, [
            {"mask": "01", "video_id": "v"}, {"mask": "1", "video_id": "w"},
            {"mask": "10", "video_id": "v"},
        ])
        with pytest.raises(SchemaError, match=":4: second mask for video 'v'"):
            fileio.parse_occlusion_masks(path)

    def test_occlusion_round_trip(self, tmp_path):
        masks = {"v0": [True, False, True], "v1": [False]}
        path = tmp_path / "occ.jsonl"
        fileio.write_occlusion_masks(masks, path)
        assert fileio.parse_occlusion_masks(path) == masks


def _round_trip(tmp_path, write, parse, value):
    """parse(write(value)) == value, and writing the parsed value again gives
    the same bytes."""
    path, again = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write(value, path)
    parsed = parse(path)
    assert parsed == value
    write(parsed, again)
    assert again.read_bytes() == path.read_bytes()


video_ids = st.text(min_size=1, max_size=6)
frame_numbers = st.integers(0, 10**9)
finite_positive = st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False)
codec_settings = settings(max_examples=40, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestCodecProperties:
    @codec_settings
    @given(data=st.data())
    def test_labels(self, toy, tmp_path, data):
        seqs = {}
        for vid in data.draw(st.sets(video_ids, min_size=1, max_size=3)):
            keys = data.draw(st.sets(
                st.tuples(frame_numbers, st.sampled_from(toy.actions)), min_size=1, max_size=8
            ))
            events = [toy.make_event(a, f, correct=data.draw(st.booleans())) for f, a in keys]
            seqs[vid] = EventSequence.from_events(events, vid, data.draw(finite_positive))
        _round_trip(tmp_path, fileio.serialize_labels,
                    lambda path: fileio.parse_labels(path, proc=toy), seqs)

    @codec_settings
    @given(data=st.data())
    def test_state_stream(self, toy, tmp_path, data):
        dets = {}
        for vid in data.draw(st.sets(video_ids, min_size=1, max_size=3)):
            frames = sorted(data.draw(st.sets(frame_numbers, min_size=1, max_size=8)))
            dets[vid] = [
                StateDetection(f, data.draw(st.sampled_from(toy.states)),
                               data.draw(st.floats(0.0, 1.0)))
                for f in frames
            ]
        _round_trip(tmp_path, fileio.serialize_asd_stream,
                    lambda path: fileio.parse_asd_stream(path, toy), dets)

    @codec_settings
    @given(data=st.data())
    def test_kfs_batch(self, tmp_path, data):
        state_ids = st.integers(-5, 50)
        real = st.builds(lambda s, v, f: KfsEntry(s, "real", video_id=v, frame=f),
                         state_ids, video_ids, frame_numbers)
        synthetic = st.builds(lambda s, r: KfsEntry(s, "synthetic", ref=r),
                              state_ids, st.text(max_size=8))
        spec = KfsBatchSpec(
            entries=tuple(data.draw(st.lists(real | synthetic, max_size=10))),
            t_f=data.draw(st.floats(0.0, 60.0)),
            n_sample=data.draw(st.integers(1, 64)),
            n_syn=data.draw(st.integers(0, 64)),
            n_state=data.draw(st.integers(0, 12)),
            fps=data.draw(finite_positive),
        )
        config = data.draw(st.dictionaries(st.text(max_size=5), st.integers()))
        _round_trip(tmp_path, lambda value, path: fileio.write_kfs_batch(path, value, config),
                    fileio.parse_kfs_batch, spec)

    @codec_settings
    @given(data=st.data())
    def test_clip_samples(self, tmp_path, data):
        def clip(window, end):
            lo = max(0, end - window + 1)
            indices = data.draw(st.sets(st.integers(lo, end), max_size=6))
            return ClipSpec(end, window, tuple(sorted(indices)))

        specs = {
            vid: [clip(data.draw(st.integers(1, 300)), data.draw(frame_numbers))
                  for _ in range(data.draw(st.integers(1, 4)))]
            for vid in data.draw(st.sets(video_ids, min_size=1, max_size=3))
        }
        config = data.draw(st.dictionaries(st.text(max_size=5), st.integers()))
        _round_trip(tmp_path, lambda value, path: fileio.write_clip_samples(path, value, config),
                    lambda path: fileio.parse_clip_samples(path)[1], specs)
        assert fileio.parse_clip_samples(tmp_path / "a.jsonl")[0] == config


class TestLossLoaders:
    def test_embeddings(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("# comment\n0 1.0 0.0\n0 0.0 1.0\n1 -1.0 0.0\n")
        batch = fileio.load_embedding_batch(path, temperature=0.1)
        assert batch.vectors.shape == (3, 2)
        assert batch.labels.tolist() == [0, 0, 1]
        assert batch.temperature == 0.1

    def test_probs(self, tmp_path):
        path = tmp_path / "probs.txt"
        path.write_text("2\n1 0 0.9 0.2\n0 1 0.1 0.6\n")
        batch = fileio.load_prob_batch(path)
        assert batch.targets.tolist() == [[1, 0], [0, 1]]
        assert batch.predictions.tolist() == [[0.9, 0.2], [0.1, 0.6]]

    @pytest.mark.parametrize("row,message", [
        ("1 0 0.9 nan", "predictions"),
        ("1 0 0.9 inf", "predictions"),
        ("1 nan 0.9 0.2", "binary"),
        ("1 0.5 0.9 0.2", "binary"),
    ])
    def test_probs_non_finite_or_non_binary(self, tmp_path, row, message):
        path = tmp_path / "probs.txt"
        path.write_text(f"2\n{row}\n")
        with pytest.raises(StructureError, match=message):
            fileio.load_prob_batch(path)

    def test_embeddings_nan_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("0 1.0 0.0\n0 nan 0.0\n")
        with pytest.raises(StructureError, match="row norms"):
            fileio.load_embedding_batch(path)

    def test_probs_bad_width(self, tmp_path):
        path = tmp_path / "probs.txt"
        path.write_text("2\n1 0 0.9\n")
        with pytest.raises(SchemaError):
            fileio.load_prob_batch(path)


class TestReportsAndWeights:
    def test_report_document(self, tmp_path):
        gt = seq_of([(0, 100), (1, 200)])
        pred = seq_of([(0, 120)])
        reports = {"v": evaluate(gt, pred)}
        summary = aggregate(reports)
        doc = fileio.build_report(reports, summary, {"command": "evaluate"})
        assert doc["schema"] == fileio.REPORT_SCHEMA
        assert doc["videos"]["v"]["tp"] == 1
        assert doc["aggregate"]["n_videos"] == 1
        path = tmp_path / "report.json"
        fileio.write_json(path, doc)
        again = json.loads(path.read_text())
        assert again == doc

    def test_metrics_csv(self, tmp_path):
        gt = seq_of([(0, 100)])
        reports = {"v": evaluate(gt, gt)}
        path = tmp_path / "metrics.csv"
        fileio.write_metrics_csv(reports, aggregate(reports), path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("video_id,pos")
        assert lines[1].startswith("v,1.0")
        assert lines[2].startswith("ALL,")

    def test_csv_undefined_delay_blank(self, tmp_path):
        gt = seq_of([(0, 100)])
        pred = seq_of([(1, 50)])
        reports = {"v": evaluate(gt, pred)}
        path = tmp_path / "metrics.csv"
        fileio.write_metrics_csv(reports, aggregate(reports), path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[5] == ""

    def test_parse_weights(self):
        assert fileio.parse_weights("") == EditWeights()
        w = fileio.parse_weights("insert=2,transpose=0.5")
        assert w == EditWeights(insert=2, transpose=0.5)
        with pytest.raises(ValueError):
            fileio.parse_weights("bogus=1")
        for spec in ("insert=nan", "delete=inf", "substitute=-inf", "transpose=-1"):
            name = spec.partition("=")[0]
            with pytest.raises(ValueError, match=f"edit weight {name} must be a finite"):
                fileio.parse_weights(spec)



class TestSimConfigLoader:
    def write(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def base_doc(self):
        return {
            "schema": fileio.SIM_CONFIG_SCHEMA,
            "version": 1,
            "procedure": "toy-motorcycle",
            "n_videos": 2,
            "seed": 7,
            "occlusion": {"p_occlude": 0.15, "p_reveal": 0.02},
        }

    def test_valid(self, tmp_path):
        config, thresholds = fileio.load_sim_config(self.write(tmp_path, self.base_doc()))
        assert config.n_videos == 2
        assert config.seed == 7
        assert config.occlusion.p_occlude == 0.15
        assert thresholds == {"asd": 0.5, "fused": 0.4, "decay": 0.75, "temporal": None}

    def test_missing_required_names_field(self, tmp_path):
        doc = self.base_doc()
        del doc["occlusion"]["p_reveal"]
        with pytest.raises(ConfigError) as err:
            fileio.load_sim_config(self.write(tmp_path, doc))
        assert "p_reveal" in str(err.value)

    def test_unknown_field_rejected(self, tmp_path):
        doc = self.base_doc()
        doc["does_not_exist"] = 1
        with pytest.raises(ConfigError) as err:
            fileio.load_sim_config(self.write(tmp_path, doc))
        assert "does_not_exist" in str(err.value)

    def test_wrong_type_named(self, tmp_path):
        doc = self.base_doc()
        doc["n_videos"] = "three"
        with pytest.raises(ConfigError) as err:
            fileio.load_sim_config(self.write(tmp_path, doc))
        assert "n_videos" in str(err.value)

    def test_thresholds_override(self, tmp_path):
        doc = self.base_doc()
        doc["thresholds"] = {"asd": 1.0, "fused": 2.0, "temporal": 3.0, "decay": 0.5}
        _, thresholds = fileio.load_sim_config(self.write(tmp_path, doc))
        assert thresholds == {"asd": 1.0, "fused": 2.0, "temporal": 3.0, "decay": 0.5}

    @pytest.mark.parametrize("key,value,field", [
        ("asd", {"confidnce": 0.9}, "asd.confidnce"),
        ("temporal", {"hitprob": 0.5}, "temporal.hitprob"),
        ("errors", {"p_incorect": 0.1}, "errors.p_incorect"),
        ("occlusion", {"p_occlude": 0.1, "p_reveal": 0.1, "p": 1}, "occlusion.p"),
        ("thresholds", {"fusd": 0.4}, "thresholds.fusd"),
        ("step_gap", math.inf, "step_gap"),
        pytest.param("step_gap", 10**400, "step_gap", id="step_gap-overflows-float"),
        ("fps", -math.inf, "fps"),
        ("asd", {"confidence": math.nan}, "asd.confidence"),
        ("occlusion", {"p_occlude": 0.1, "p_reveal": math.inf}, "occlusion.p_reveal"),
        ("thresholds", {"fused": math.nan}, "thresholds.fused"),
        ("thresholds", {"temporal": math.inf}, "thresholds.temporal"),
        ("temporal", {"response_frames": True}, "temporal.response_frames"),
        ("temporal", {"response_frames": 30.0}, "temporal.response_frames"),
        ("asd", [0.9], "asd"),
        ("thresholds", 0.4, "thresholds"),
    ])
    def test_bad_input_names_field(self, tmp_path, key, value, field):
        doc = self.base_doc()
        doc[key] = value
        with pytest.raises(ConfigError) as err:
            fileio.load_sim_config(self.write(tmp_path, doc))
        assert err.value.field == field

    def test_readme_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"cat > config\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S)
        doc = json.loads(block.group(1))
        config, thresholds = fileio.load_sim_config(self.write(tmp_path, doc))
        assert config.n_videos == doc["n_videos"]
        assert config.seed == doc["seed"]
        assert config.occlusion == OcclusionModel(**doc["occlusion"])
        assert config.asd == AsdModel(**doc["asd"])
        assert config.temporal == TemporalModel(**doc["temporal"])
        assert thresholds["fused"] == doc["thresholds"]["fused"]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_to_dict_round_trip(self, tmp_path, data):
        prob = st.floats(0.0, 1.0)
        positive = st.floats(1e-6, 1e6)
        fp_low, fp_high = sorted(data.draw(st.tuples(prob, prob)))
        config = SimConfig(
            procedure=toy_motorcycle(),
            n_videos=data.draw(st.integers(1, 1000)),
            fps=data.draw(positive),
            step_gap=data.draw(positive),
            occlusion=OcclusionModel(data.draw(prob), data.draw(st.floats(1e-9, 1.0))),
            asd=AsdModel(data.draw(prob), data.draw(prob)),
            temporal=TemporalModel(
                response_frames=data.draw(st.integers(1, 500)),
                peak_prob=data.draw(prob),
                hit_prob=data.draw(prob),
                fp_rate=data.draw(prob),
                fp_low=fp_low,
                fp_high=fp_high,
            ),
            errors=ErrorModel(data.draw(prob)),
            seed=data.draw(st.integers(0, 2**64)),
            tail_frames=data.draw(st.integers(1, 10**6)),
        )
        doc = {"schema": fileio.SIM_CONFIG_SCHEMA, "version": 1, **config.to_dict()}
        loaded, _ = fileio.load_sim_config(self.write(tmp_path, doc))
        assert loaded == config
