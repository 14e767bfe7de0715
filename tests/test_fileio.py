import builtins
import dataclasses
import io
import json
import math
import re
import string
import typing
from itertools import accumulate
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psrkit import (
    KINDS,
    AssemblyState,
    ClipSpec,
    ConfigError,
    EditWeights,
    EventSequence,
    KfsBatchSpec,
    KfsEntry,
    ProbStream,
    Procedure,
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
    Thresholds,
)
from psrkit import fileio
from psrkit.sampling import clip_indices

from oracles import state_stream_text, temporal_stream_text
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


# Probabilities the float strategy never draws: a negative zero, the least
# subnormal, a repeating binary fraction and the top of the range.
EDGE_PROBS = (-0.0, 0.0, 5e-324, 1 / 3, 1.0)
LINE_STYLES = ("canonical", "spaced", "reordered", "integers", "escaped")


def draw_temporal_streams(data, video_ids=st.text(min_size=1, max_size=6), widths=st.integers(0, 5)):
    """Up to 3 temporal streams with gappy frames and rows of up to 5 steps."""
    streams = {}
    for video_id in data.draw(st.sets(video_ids, min_size=1, max_size=3)):
        gaps = data.draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=12))
        frames = list(accumulate(gaps, initial=data.draw(st.integers(0, 10**9))))[:-1]
        width = data.draw(widths)
        value = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_PROBS))
        row = st.lists(value, min_size=width, max_size=width)
        probs = [data.draw(row) for _ in frames]
        streams[video_id] = ProbStream(
            frames, np.array(probs).reshape(len(frames), width), "temporal"
        )
    return streams


def reencode(rec, style):
    """A temporal record as one JSON line in `style`; "canonical" is the
    layout the writer uses."""
    probs = rec["probs"]
    if style == "integers":  # +0.0 and 1.0 as the JSON integers 0 and 1
        probs = [int(p) if p == 1.0 or (p == 0.0 and math.copysign(1, p) > 0) else p
                 for p in probs]
    probs = json.dumps(probs, separators=(",", ":"))
    video_id = json.dumps(rec["video_id"])
    if style == "escaped":  # every UTF-16 code unit as a \u escape
        units = rec["video_id"].encode("utf-16-be")
        video_id = '"' + "".join(
            f"\\u{int.from_bytes(units[i:i + 2], 'big'):04x}" for i in range(0, len(units), 2)
        ) + '"'
    if style == "reordered":
        return f'{{"video_id":{video_id},"probs":{probs},"frame":{rec["frame"]}}}'
    if style == "spaced":
        probs = probs.replace(",", ", ")
        return f'{{ "frame": {rec["frame"]}, "probs": {probs}, "video_id": {video_id} }}'
    return f'{{"frame":{rec["frame"]},"probs":{probs},"video_id":{video_id}}}'


def _edit_cells(line, edit):
    """A canonical temporal line whose `probs` cell texts are `edit(cells)`."""
    head, _, rest = line.partition('"probs":[')
    cells, _, tail = rest.partition("]")
    return f'{head}"probs":[{",".join(edit(cells.split(",") if cells else []))}]{tail}'


def _edit_frame(line, text):
    """A canonical line whose frame value text is `text`."""
    return re.sub(r'"frame":[0-9]+', lambda _: f'"frame":{text}', line, count=1)


def _second_probs(line):
    """The line with a second `probs` after the first, its first cell 0.5: JSON keeps the last."""
    cells = line.partition('"probs":[')[2].partition("]")[0].split(",")
    return line.replace('],"video_id"', '],"probs":[' + ",".join(["0.5", *cells[1:]]) + '],"video_id"', 1)


def _among_zeros(token):
    """An edit that makes the middle cell `token` and every other cell `0.0`."""
    return lambda c: [*["0.0"] * (len(c) // 2), token, *["0.0"] * ((len(c) - 1) // 2)]


# Corruptions shared by both streams: a character at which `splitlines`
# breaks a line, raw in a video id, frames JSON refuses, and a frame text
# that holds two integers.
LINE_CORRUPTIONS = {
    **{f"raw U+{ord(char):04X} in video id": lambda line, char=char: [
        line.replace('"video_id":"', '"video_id":"' + char, 1)] for char in "\u2028\x85"},
    "frame with a leading zero": lambda line: [_edit_frame(line, f'0{json.loads(line)["frame"]}')],
    "frame in Arabic-Indic digits": lambda line: [_edit_frame(line, "\u0663")],
    "frame with a comma": lambda line: [_edit_frame(line, "1,2")],
}

# One line's corruptions, as the lines that replace it: a bad probability in
# the first cell, a wrong width, a frame that is not an integer, a repeated
# frame, broken JSON, a blank line before it, a layout other than the
# writer's, a line break inside `probs`, a second `probs` in one line (also
# one whose next line has none), and cells that are zero but not `0.0`.
CORRUPTIONS = {
    **{f"first cell {token}": lambda line, token=token: [_edit_cells(line, lambda c: [token, *c[1:]])]
       for token in ("1.5", "NaN", "true", "1e999")},
    "wider": lambda line: [_edit_cells(line, lambda c: [*c, "0.5"])],
    "narrower": lambda line: [_edit_cells(line, lambda c: c[:-1])],
    "empty probs": lambda line: [_edit_cells(line, lambda c: [])],
    "float frame": lambda line: [line.replace(',"probs"', '.0,"probs"', 1)],
    "frame 2**63": lambda line: [_edit_frame(line, str(2**63))],
    "repeated frame": lambda line: [line, line],
    "broken JSON": lambda line: [line[:-1]],
    "blank line": lambda line: ["", line],
    "spaced": lambda line: [reencode(json.loads(line), "spaced")],
    **{f"{name} between cells": lambda line, char=char: [  # before the first cell, or the second
        _edit_cells(line, lambda c: [*c[:-1], char + c[-1]] if len(c) < 2 else [c[0], char + c[1], *c[2:]])]
       for name, char in (("\\n", "\n"), ("\\r", "\r"))},
    "second probs": lambda line: [_second_probs(line)],
    "second probs, then a line with none": lambda line: [
        line + ',"probs":[' + str(json.loads(line)["frame"] + 1),
        '{"frame":' + line.partition(',"probs":[')[2]],
    **{f"cell {token} among 0.0": lambda line, token=token: [_edit_cells(line, _among_zeros(token))]
       for token in ("-0.0", "0.00", "0e0")},
    **LINE_CORRUPTIONS,
}


def reencode_state(rec, style):
    """A state record as one JSON line in `style`, none of them the writer's:
    "escaped" is its layout with a video id of \\u escapes only."""
    if style == "escaped":  # every UTF-16 code unit as a \u escape
        units = rec["video_id"].encode("utf-16-be")
        video_id = '"' + "".join(
            f"\\u{int.from_bytes(units[i:i + 2], 'big'):04x}" for i in range(0, len(units), 2)
        ) + '"'
        return fileio.canonical_dumps({**rec, "video_id": "@"}).replace('"@"', video_id)
    if style == "reordered":
        return json.dumps(dict(reversed(rec.items())), separators=(",", ":"))
    return json.dumps(rec, sort_keys=True)  # spaced


def _edit_state(line, field, text):
    """A canonical state line whose `field` value text is `text`."""
    return re.sub(f'"{field}":[^,}}]*', lambda _: f'"{field}":{text}', line, count=1)


# One state line's corruptions, as the lines that replace it.
STATE_CORRUPTIONS = {
    **{f"confidence {token}": lambda line, token=token: [_edit_state(line, "confidence", token)]
       for token in ("1.5", "NaN", "true", "1e999")},
    "unknown state id": lambda line: [_edit_state(line, "state_id", "99")],
    **{f"frame {token}": lambda line, token=token: [_edit_state(line, "frame", token)]
       for token in (str(2**63), "1.5")},
    "repeated frame": lambda line: [line, line],
    "broken JSON": lambda line: [line[:-1]],
    "blank line": lambda line: ["", line],
    "spaced": lambda line: [reencode_state(json.loads(line), "spaced")],
    "escaped video id": lambda line: [reencode_state(json.loads(line), "escaped")],
    **LINE_CORRUPTIONS,
}


def draw_state_streams(data, toy, video_ids=st.text(min_size=1, max_size=6)):
    """Up to 3 videos of up to 8 detections with gappy frames."""
    confidence = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_PROBS))
    dets = {}
    for video_id in data.draw(st.sets(video_ids, min_size=1, max_size=3)):
        frames = sorted(data.draw(st.sets(st.integers(0, 2**63 - 1), min_size=1, max_size=8)))
        dets[video_id] = [StateDetection(f, data.draw(st.sampled_from(toy.states)),
                                         data.draw(confidence)) for f in frames]
    return dets


class TestStreamCodecs:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_state_writer_is_canonical_dumps(self, toy, tmp_path, data):
        """Byte for byte one canonical JSON object per record, also for
        confidences that are not floats."""
        dets = draw_state_streams(data, toy)
        odd = st.sampled_from([0, 1, np.float64(0.25)])
        for video_dets in dets.values():
            if data.draw(st.booleans()):
                det = video_dets[0]
                video_dets[0] = StateDetection(det.frame, det.state, data.draw(odd))
        path = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream(dets, path)
        assert path.read_bytes() == state_stream_text(dets).encode()

    @pytest.mark.parametrize("kind", sorted(STATE_CORRUPTIONS))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_bad_state_line_reads_as_every_line_re_encoded(self, toy, tmp_path, caplog,
                                                               kind, data):
        """A canonical state stream with one corrupted line gives what the
        same file gives with every line re-encoded, and so read record by
        record: in strict mode the same error text on the same line; in
        lenient mode the same detections and warnings. Lines are those that
        `splitlines` gives, as the record reader reads them."""
        ids = st.text(string.ascii_letters + '_-"\\é', min_size=1, max_size=6)
        dets = draw_state_streams(data, toy, ids)
        path = tmp_path / "asd.jsonl"
        fileio.serialize_asd_stream(dets, path)
        header, *lines = path.read_text().splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = STATE_CORRUPTIONS[kind](lines[i])

        def re_encoded(line):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                return line  # broken or blank: the same text in both files
            return reencode_state(rec, data.draw(st.sampled_from(["spaced", "reordered", "escaped"])))

        text = "\n".join([header, *lines]) + "\n"
        outcomes = []
        for text in (text, "\n".join([header, *map(re_encoded, text.splitlines()[1:])]) + "\n"):
            path.write_text(text)
            for strict in (True, False):
                caplog.clear()
                try:
                    result = fileio.parse_asd_stream(path, toy, strict=strict)
                except SchemaError as e:
                    result = str(e)
                outcomes.append((result, [r.getMessage() for r in caplog.records]))
        assert outcomes[:2] == outcomes[2:]


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
        streams = {"v0": ProbStream([0, 1], [[0.25, 0.0], [0.5, 1.0]], "temporal")}
        path = tmp_path / "temporal.jsonl"
        fileio.serialize_temporal_stream(streams, path)
        assert fileio.parse_temporal_stream(path, n_steps=2) == streams

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
            n_frames = int(rng.integers(1, 20))
            streams = {"v": ProbStream.dense(
                [rng.random(4) for _ in range(n_frames)], "temporal"
            )}
            path = tmp_path / f"t{trial}.jsonl"
            fileio.serialize_temporal_stream(streams, path)
            assert fileio.parse_temporal_stream(path, 4) == streams

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_temporal_codec_is_the_identity(self, tmp_path, data):
        """serialize -> parse returns the streams, gappy frames and all,
        serializing writes the bytes of one canonical JSON object per row, and
        serializing the parsed streams again writes the same bytes."""
        streams = draw_temporal_streams(data)
        path = tmp_path / "t.jsonl"
        fileio.serialize_temporal_stream(streams, path)
        assert path.read_bytes() == temporal_stream_text(streams).encode()
        parsed = fileio.parse_temporal_stream(path)
        assert parsed == streams
        again = tmp_path / "again.jsonl"
        fileio.serialize_temporal_stream(parsed, again)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_json_layout_parses_as_the_canonical_file(self, tmp_path, data):
        """Lines re-encoded with spaces, other key orders, integer
        probabilities or escaped video ids, alone or mixed with canonical
        lines, parse to the same streams."""
        streams = draw_temporal_streams(data)
        path = tmp_path / "t.jsonl"
        fileio.serialize_temporal_stream(streams, path)
        header, *lines = path.read_text().splitlines()
        styles = data.draw(st.lists(st.sampled_from(LINE_STYLES), min_size=1, unique=True))
        lines = [reencode(json.loads(line), data.draw(st.sampled_from(styles))) for line in lines]
        path.write_text("\n".join([header, *lines]) + "\n")
        assert fileio.parse_temporal_stream(path) == streams

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_bad_line_reads_as_every_line_re_encoded(self, tmp_path, caplog, kind, data):
        """A canonical file with one corrupted line gives what the same file
        gives with every line re-encoded, and so read record by record: in
        strict mode the same error text, naming the same file and line; in
        lenient mode the same streams and warnings. Lines are those that
        `splitlines` gives, as the record reader reads them. The videos share
        a width and their ids seldom need escapes, so that most uncorrupted
        files are read in whole-text passes."""
        ids = st.text(string.ascii_letters + '_-"\\é', min_size=1, max_size=6)
        streams = draw_temporal_streams(data, ids, st.just(data.draw(st.integers(1, 5))))
        path = tmp_path / "t.jsonl"
        fileio.serialize_temporal_stream(streams, path)
        header, *lines = path.read_text().splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = CORRUPTIONS[kind](lines[i])
        styles = [style for style in LINE_STYLES if style != "canonical"]

        def re_encoded(line):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                return line  # broken or blank: the same text in both files
            if set(map(type, rec["probs"])) - {float}:
                return reencode(rec, "reordered")  # "integers" would make true a 1
            return reencode(rec, data.draw(st.sampled_from(styles)))

        text = "\n".join([header, *lines]) + "\n"
        outcomes = []
        for text in (text, "\n".join([header, *map(re_encoded, text.splitlines()[1:])]) + "\n"):
            path.write_text(text)
            for strict in (True, False):
                caplog.clear()
                try:
                    result = fileio.parse_temporal_stream(path, strict=strict)
                except SchemaError as e:
                    result = str(e)
                outcomes.append((result, [r.getMessage() for r in caplog.records]))
        assert outcomes[:2] == outcomes[2:]

    @pytest.mark.parametrize("seed", range(3))
    def test_long_streams_are_written_in_blocks(self, tmp_path, seed):
        """Hundreds of mostly all-zero rows, more evidence rows than one writer
        block, and EDGE_PROBS cells: the writer's bytes are the oracle's, and
        they read back as the streams."""
        rng = np.random.default_rng(seed)
        streams = {}
        for video_id, n_rows, evidence_share in (
            ("sparse", 700, 0.1), ("dense", 2 * fileio._EVIDENCE_BLOCK + 37, 1.0), ("half", 900, 0.5)
        ):
            evidence = (rng.random(n_rows) < evidence_share)[:, None]
            probs = np.where(evidence & (rng.random((n_rows, 34)) < 0.3), rng.random((n_rows, 34)), 0.0)
            edge = evidence & (rng.random(probs.shape) < 0.1)
            probs[edge] = rng.choice(EDGE_PROBS, edge.sum())
            frames = np.cumsum(rng.integers(1, 4, n_rows))
            streams[video_id] = ProbStream(frames, probs, "temporal")
        live = (streams["dense"].probs != 0.0) | np.signbit(streams["dense"].probs)
        assert live.any(axis=1).sum() > fileio._EVIDENCE_BLOCK
        path = tmp_path / "t.jsonl"
        fileio.serialize_temporal_stream(streams, path)
        assert path.read_bytes() == temporal_stream_text(streams).encode()
        assert fileio.parse_temporal_stream(path, n_steps=34) == streams

    def test_signed_zero_rows(self, tmp_path):
        path = tmp_path / "t.jsonl"
        stream = ProbStream([0, 1], [[-0.0, 0.0], [0.0, 0.0]], "temporal")
        fileio.serialize_temporal_stream({"v": stream}, path)
        assert path.read_text().splitlines()[1:] == [
            '{"frame":0,"probs":[-0.0,0.0],"video_id":"v"}',
            '{"frame":1,"probs":[0.0,0.0],"video_id":"v"}',
        ]
        probs = fileio.parse_temporal_stream(path)["v"].probs
        assert np.signbit(probs).tolist() == [[True, False], [False, False]]

    def test_repeated_probs_of_the_wrong_width_name_their_line(self, tmp_path, caplog):
        path = tmp_path / "temporal.jsonl"
        lines = [
            '{"schema":"psrkit/temporal-stream","version":1}',
            '{"frame":0,"probs":[0.5,0.0],"video_id":"v"}',
            '{"frame":1,"probs":[0.25],"video_id":"v"}',  # first [0.25], too short for v
            '{"frame":0,"probs":[0.25],"video_id":"w"}',
            '{"frame":1,"probs":[0.5,0.0],"video_id":"w"}',  # line 2's text, too long for w
            '{"frame":2,"probs":[0.25],"video_id":"w"}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=r":3: frame 1: probs has length 1, expected 2$"):
            fileio.parse_temporal_stream(path)
        assert fileio.parse_temporal_stream(path, strict=False) == {
            "v": ProbStream([0], [[0.5, 0.0]], "temporal"),
            "w": ProbStream([0, 2], [[0.25], [0.25]], "temporal"),
        }
        assert ":3: frame 1: probs has length 1" in caplog.text
        assert ":5: frame 1: probs has length 2, expected 1" in caplog.text
        path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        with pytest.raises(SchemaError, match=r":4: frame 1: probs has length 2, expected 1$"):
            fileio.parse_temporal_stream(path)

    @pytest.mark.parametrize("bad", ["2", '"0.5"', "true", "null", "[0.5]",
                                     pytest.param("1" + "0" * 400, id="10**400")])
    def test_repeated_bad_probs_name_each_line(self, tmp_path, caplog, bad):
        path = tmp_path / "temporal.jsonl"
        path.write_text(
            '{"schema":"psrkit/temporal-stream","version":1}\n'
            f'{{"frame":0,"probs":[0.5,{bad}],"video_id":"v"}}\n'
            '{"frame":1,"probs":[0.5,0.0],"video_id":"v"}\n'
            f'{{"frame":2,"probs":[0.5,{bad}],"video_id":"v"}}\n'
        )
        with pytest.raises(SchemaError, match=r":2: frame 0: probabilities outside"):
            fileio.parse_temporal_stream(path)
        parsed = fileio.parse_temporal_stream(path, strict=False)
        assert parsed == {"v": ProbStream([1], [[0.5, 0.0]], "temporal")}
        assert ":2: frame 0" in caplog.text and ":4: frame 2" in caplog.text

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

    @pytest.mark.parametrize("style", ["canonical", "spaced"])
    @pytest.mark.parametrize("kind, records, error", [
        *[pytest.param(kind, [("a", 1, 0.5), ("b", 5, 0.5), ("b", 3, 0.5), ("a", 0, 0.5)],
                       r":4: video 'b': frame 3 not after frame 5$", id=f"{kind} order, order")
          for kind in ("state", "temporal")],
        pytest.param("temporal", [("a", 1, 0.5), ("b", 0, 1.5), ("a", 0, 0.5)],
                     r":3: frame 0: probabilities outside \[0, 1\]$", id="temporal range, order"),
    ])
    def test_strict_read_names_the_first_bad_line_in_the_file(self, toy, tmp_path, style, kind,
                                                              records, error):
        """Each video has an error, and the later-listed video's is on the
        earlier line: that line is the one named, in either layout."""
        schema = fileio.ASD_SCHEMA if kind == "state" else fileio.TEMPORAL_SCHEMA
        lines = [fileio.canonical_dumps({"schema": schema, "version": 1})]
        for video_id, frame, p in records:
            rec = ({"confidence": p, "frame": frame, "state_id": 1, "video_id": video_id}
                   if kind == "state" else {"frame": frame, "probs": [p], "video_id": video_id})
            lines.append(fileio.canonical_dumps(rec) if style == "canonical" else json.dumps(rec))
        path = tmp_path / "stream.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=error):
            fileio.parse_stream(path, toy if kind == "state" else None)

    def test_probs_repeated_across_videos_read_back(self, tmp_path):
        row = [0.25, 0.0, 1.0]
        streams = {"a": ProbStream([0, 3], [row, [0.5, 0.0, 0.0]], "temporal"),
                   "b": ProbStream([1, 2, 4], [[0.0] * 3, row, row], "temporal")}
        path = tmp_path / "t.jsonl"
        fileio.serialize_temporal_stream(streams, path)
        assert fileio.parse_temporal_stream(path) == streams

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

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_parse_stream_reads_a_file_once(self, toy, tmp_path, monkeypatch, newline):
        """A file led by a header in the writer's layout is opened once; any
        other first line is read by `peek_schema` too, so that a file of CRLF
        line ends is read, and one of CR line ends has no JSON first line."""
        dets = {"v": [StateDetection(frame=5, state=toy.states[1], confidence=0.9)]}
        stream = ProbStream([0, 3], [[0.5] * 34, [0.0] * 34], "temporal")
        opened, io_open = [], io.open

        def counted(file, *args, **kwargs):
            opened.append(file)
            return io_open(file, *args, **kwargs)

        for write, data in ((fileio.serialize_asd_stream, dets),
                            (fileio.serialize_temporal_stream, {"v": stream})):
            path = tmp_path / "stream.jsonl"
            write(data, path)
            path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
            opened.clear()
            monkeypatch.setattr(io, "open", counted)  # as pathlib opens a file
            monkeypatch.setattr(builtins, "open", counted)
            if newline == "\r":
                with pytest.raises(SchemaError, match="not a recognized stream schema: None"):
                    fileio.parse_stream(path, toy)
            else:
                assert fileio.parse_stream(path, toy)[1] == data
                assert len(opened) == (1 if newline == "\n" else 2)
            monkeypatch.undo()


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
        (lambda d: d["actions"][1].update(kind="paint"),
         "kind must be one of ['install', 'remove'], got 'paint'"),
        (lambda d: d["actions"][1].pop("kind"), "missing field 'kind'"),
        (lambda d: d.update(actions={"id": 0}), "actions must be a list"),
        (lambda d: d["states"][1].update(bits=5), "bits must be a string, got 5"),
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

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"x": ["a"]}', '{"1": "a"}',
                                      '{"1": [null, 5]}', '{"1": ["a", ["b"]]}'])
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


# Bad values for the field kinds of the field tables: a wrong JSON type, a
# boolean and null where a number goes, and non-integral or non-finite numbers.
NOT_AN_INTEGER = ("7", "zz", True, None, 1.0, 2.0, 7.9, math.nan, math.inf)
NOT_A_COUNT = NOT_AN_INTEGER + (-1,)
NOT_A_NUMBER = ("0.5", True, None, math.nan, math.inf, -math.inf)
NOT_AN_FPS = NOT_A_NUMBER + (0, -10.0)
NOT_A_STRING = (7, True, None, ["v"])
NOT_A_KIND = ("paint", 7, None)
MISSING = object()

TOY = toy_motorcycle()
TOY_DOC = {
    "name": TOY.name, "fps": TOY.fps, "components": list(TOY.components),
    "actions": [{"id": a, "component": c, "kind": k} for a, (c, k) in TOY.action_effects.items()],
    "states": [{"bits": s.to_string(), "state_id": s.state_id} for s in TOY.states],
}
REAL_ENTRY = {"frame": 7, "source": "real", "state_id": 1, "video_id": "v"}
CLIP = {"end_frame": 300, "indices": [299, 300], "video_id": "v", "window": 2}
KFS_HEADER = {"fps": 10.0, "n_sample": 1, "n_state": 1, "n_syn": 1, "t_f": 2.0}


def record_file(schema):
    """Writes one record of `schema`, on line 2."""
    return lambda path, rec: fileio.write_jsonl(path, schema, [rec])


def header_file(schema, record):
    """Writes a header of `schema` holding `rec`'s fields, then `record`."""
    return lambda path, rec: fileio.write_jsonl(path, schema, [record], header_extra=rec)


def procedure_file(part=None):
    """Writes a procedure document: `rec` is the document, or `part`'s second element."""
    def write(path, rec):
        doc = {**TOY_DOC, part: [TOY_DOC[part][0], rec, *TOY_DOC[part][2:]]} if part else rec
        fileio.write_json(path, {"schema": fileio.PROCEDURE_SCHEMA, "version": 1, **doc})
    return write


class TableCase(NamedTuple):
    name: str
    schema: str
    table: tuple
    valid: dict
    write: Callable
    parse: Callable
    line: int | None  # None for a JSON document, whose fields have no line
    bad: dict  # bad values for each field of the table


TABLE_CASES = [
    TableCase("labels", fileio.LABELS_SCHEMA, fileio._LABEL_FIELDS,
              {"action": 0, "component": 0, "correct": True, "fps": 10.0, "frame": 5,
               "kind": "install", "video_id": "v"},
              record_file(fileio.LABELS_SCHEMA), fileio.parse_labels, 2,
              {"video_id": NOT_A_STRING, "fps": NOT_AN_FPS, "action": NOT_AN_INTEGER,
               "component": NOT_A_COUNT, "kind": NOT_A_KIND, "correct": (1, "true", None),
               "frame": NOT_A_COUNT}),
    TableCase("asd", fileio.ASD_SCHEMA, fileio._ASD_FIELDS,
              {"confidence": 0.9, "frame": 5, "state_id": 1, "video_id": "v"},
              record_file(fileio.ASD_SCHEMA), lambda path: fileio.parse_asd_stream(path, TOY), 2,
              {"video_id": NOT_A_STRING, "frame": NOT_A_COUNT, "state_id": NOT_AN_INTEGER,
               "confidence": NOT_A_NUMBER + (1.5, -0.1)}),
    TableCase("temporal", fileio.TEMPORAL_SCHEMA, fileio._TEMPORAL_FIELDS,
              {"frame": 5, "probs": [0.5, 0.0], "video_id": "v"},
              record_file(fileio.TEMPORAL_SCHEMA), fileio.parse_temporal_stream, 2,
              {"video_id": NOT_A_STRING, "frame": NOT_A_COUNT + (2**63,),
               "probs": ("0.5", 0.5, None, {})}),
    TableCase("procedure", fileio.PROCEDURE_SCHEMA, fileio._PROCEDURE_FIELDS, TOY_DOC,
              procedure_file(), fileio.load_procedure, None,
              {"name": (7, None, ["a"]), "fps": NOT_AN_FPS,
               "components": ("abc", [1, 2], None, [["a"]]), "actions": ({"id": 0}, [5], None),
               "states": ("0101", [5], 5)}),
    TableCase("procedure-action", fileio.PROCEDURE_SCHEMA, fileio._ACTION_FIELDS,
              TOY_DOC["actions"][1], procedure_file("actions"), fileio.load_procedure, None,
              {"id": NOT_AN_INTEGER, "component": NOT_A_COUNT, "kind": NOT_A_KIND}),
    TableCase("procedure-state", fileio.PROCEDURE_SCHEMA, fileio._STATE_FIELDS,
              TOY_DOC["states"][1], procedure_file("states"), fileio.load_procedure, None,
              {"bits": (5, None, ["1"]),
               "state_id": tuple(v for v in NOT_AN_INTEGER if v is not None)}),  # null: no id
    TableCase("clip", fileio.CLIP_SAMPLES_SCHEMA, (fileio._VIDEO_ID, *fileio._CLIP_FIELDS), CLIP,
              record_file(fileio.CLIP_SAMPLES_SCHEMA), fileio.parse_clip_samples, 2,
              {"video_id": NOT_A_STRING, "end_frame": NOT_A_COUNT, "window": NOT_A_COUNT,
               "indices": ("299", [True, 300], [299.0, 300], None)}),
    TableCase("clip-header", fileio.CLIP_SAMPLES_SCHEMA, fileio._CLIP_HEADER, {"config": {"seed": 1}},
              header_file(fileio.CLIP_SAMPLES_SCHEMA, CLIP), fileio.parse_clip_samples, 1,
              {"config": ([1], "x", 5)}),
    TableCase("kfs-header", fileio.KFS_BATCH_SCHEMA, fileio._KFS_HEADER, KFS_HEADER,
              header_file(fileio.KFS_BATCH_SCHEMA, REAL_ENTRY), fileio.parse_kfs_batch, 1,
              {"t_f": NOT_A_NUMBER + ("abc", -1.0), "n_sample": NOT_A_COUNT,
               "n_syn": NOT_A_COUNT + (-3,), "n_state": NOT_A_COUNT, "fps": NOT_AN_FPS}),
    TableCase("kfs-real", fileio.KFS_BATCH_SCHEMA,
              fileio._KFS_ENTRY + fileio._KFS_REFERENCE["real"], REAL_ENTRY,
              lambda path, rec: fileio.write_jsonl(path, fileio.KFS_BATCH_SCHEMA, [rec],
                                                   header_extra=KFS_HEADER),
              fileio.parse_kfs_batch, 2,
              {"source": ("x", 7, None), "state_id": NOT_AN_INTEGER, "video_id": NOT_A_STRING,
               "frame": NOT_A_COUNT}),
    TableCase("kfs-synthetic", fileio.KFS_BATCH_SCHEMA,
              fileio._KFS_ENTRY + fileio._KFS_REFERENCE["synthetic"],
              {"ref": "r", "source": "synthetic", "state_id": 1},
              lambda path, rec: fileio.write_jsonl(path, fileio.KFS_BATCH_SCHEMA, [rec],
                                                   header_extra=KFS_HEADER),
              fileio.parse_kfs_batch, 2,
              {"source": ("x", 7, None), "state_id": NOT_AN_INTEGER, "ref": NOT_A_STRING}),
    TableCase("occlusion", fileio.OCCLUSION_SCHEMA, fileio._OCCLUSION_FIELDS,
              {"mask": "0110", "video_id": "v"},
              record_file(fileio.OCCLUSION_SCHEMA), fileio.parse_occlusion_masks, 2,
              {"video_id": NOT_A_STRING, "mask": (5, None, ["0", "1"], "01x")}),
]


def table_variants():
    for case in TABLE_CASES:
        for field, _, what, default in case.table:
            required = (MISSING,) if default is fileio._REQUIRED else ()
            for value in required + case.bad[field]:
                label = "missing" if value is MISSING else repr(value)
                yield pytest.param(case, field, what, value, id=f"{case.name}-{field}-{label}")


def sim_config_fields(cls=SimConfig, section=()):
    """(field path, is an integer, is required, admits null) for each number a
    sim config holds."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.name == "procedure":  # a name or a path, read by load_sim_config
            continue
        if dataclasses.is_dataclass(hints[f.name]):
            yield from sim_config_fields(hints[f.name], section + (f.name,))
        else:
            required = f.default is f.default_factory is dataclasses.MISSING
            nullable = type(None) in typing.get_args(hints[f.name])
            yield section + (f.name,), hints[f.name] is int, required, nullable
    if cls is SimConfig:
        yield from sim_config_fields(Thresholds, ("thresholds",))


class TestFieldTables:
    """Every field of every file schema: a missing field or a bad value is
    refused, naming the file, the line and the field."""

    def test_every_schema_with_a_reader_is_covered(self):
        schemas = {v for k, v in vars(fileio).items() if k.endswith("_SCHEMA")}
        written_only = {fileio.REPORT_SCHEMA, fileio.COMPARISON_SCHEMA}
        covered = {case.schema for case in TABLE_CASES} | {fileio.SIM_CONFIG_SCHEMA}
        assert covered == schemas - written_only
        for case in TABLE_CASES:
            assert set(case.bad) == {row[0] for row in case.table}, case.name

    @pytest.mark.parametrize("case,field,what,value", table_variants())
    def test_bad_field(self, tmp_path, case, field, what, value):
        path = tmp_path / "file"
        case.write(path, case.valid)
        case.parse(path)
        rec = {k: v for k, v in case.valid.items() if k != field}
        if value is not MISSING:
            rec[field] = value
        case.write(path, rec)
        with pytest.raises(SchemaError) as err:
            case.parse(path)
        where = f"{path}:{case.line}: " if case.line else f"{path}: "
        if value is MISSING:
            assert str(err.value) == f"{where}missing field {field!r}"
        else:
            assert str(err.value) == f"{where}{field} must be {what}, got {value!r}"

    @pytest.mark.parametrize("field,integral,required,nullable", [
        pytest.param(*f, id=".".join(f[0])) for f in sim_config_fields()
    ])
    def test_bad_sim_config_field(self, tmp_path, field, integral, required, nullable):
        bad = ("7", True, 7.9, 2.0, math.nan, math.inf) if integral else NOT_A_NUMBER
        bad = tuple(v for v in bad if not (nullable and v is None))
        what = "an integer" if integral else "a finite number"
        path = tmp_path / "config.json"
        for value in (MISSING,) * required + bad:
            doc = {"schema": fileio.SIM_CONFIG_SCHEMA, "version": 1,
                   "occlusion": {"p_occlude": 0.1, "p_reveal": 0.1}}
            section = doc
            for name in field[:-1]:
                section = section.setdefault(name, {})
            section.pop(field[-1], None)
            if value is not MISSING:
                section[field[-1]] = value
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError) as err:
                fileio.load_sim_config(path)
            assert err.value.field == ".".join(field)
            assert str(err.value).startswith(f"{path}: config field ")
            if value is not MISSING:
                assert str(err.value).endswith(f"must be {what}, got {value!r}")


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
any_frame = frame_numbers | frame_numbers.map(np.int64)  # the codecs write a numpy frame as an int
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
                st.tuples(any_frame, st.sampled_from(toy.actions)), min_size=1, max_size=8
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
            frames = sorted(data.draw(st.sets(any_frame, min_size=1, max_size=8)))
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

    @codec_settings
    @given(data=st.data())
    def test_occlusion_masks(self, tmp_path, data):
        masks = data.draw(st.dictionaries(video_ids, st.lists(st.booleans(), max_size=40),
                                          min_size=1, max_size=3))
        _round_trip(tmp_path, fileio.write_occlusion_masks, fileio.parse_occlusion_masks, masks)

    @codec_settings
    @given(data=st.data())
    def test_procedure(self, tmp_path, data):
        n = data.draw(st.integers(1, 6))
        effects = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(KINDS)),
                                     unique=True, max_size=2 * n))
        ids = data.draw(st.lists(st.integers(-10**6, 10**6), unique=True,
                                 min_size=len(effects), max_size=len(effects)))
        states = None
        if data.draw(st.booleans()):
            bits = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=6))
            bits = [b for i, b in enumerate(bits) if i == 0 or b != bits[i - 1]]
            state_ids = data.draw(st.lists(st.integers(-50, 50), unique=True,
                                           min_size=len(bits), max_size=len(bits)))
            states = tuple(
                AssemblyState(b, i if data.draw(st.booleans()) else None)
                for b, i in zip(bits, state_ids)
            )
        proc = Procedure(
            components=tuple(data.draw(st.lists(st.text(max_size=6), min_size=n, max_size=n))),
            actions=tuple(ids),
            action_effects=dict(zip(ids, effects)),
            fps=data.draw(finite_positive),
            states=states,
            name=data.draw(st.text(max_size=8)),
        )
        _round_trip(tmp_path, fileio.save_procedure, fileio.load_procedure, proc)


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

    @pytest.mark.parametrize("load", [fileio.load_embedding_batch, fileio.load_prob_batch])
    def test_non_utf8_names_the_file_and_line(self, tmp_path, load):
        path = tmp_path / "batch.txt"
        path.write_bytes(b"2\n1 0 0.9 0.2\n0 1 0.1 \xff\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:3: not UTF-8 text"):
            load(path)

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
