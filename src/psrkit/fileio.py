"""File formats: JSONL streams, JSON documents, and flat CSV tables.

Every emitted file starts with a schema header (JSONL) or carries schema
fields (JSON documents); parsers reject other schemas and future versions.
Serialization is canonical (sorted keys, shortest round-trip floats) so that
reruns with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import logging
import re
import sys
from itertools import repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, get_args, get_type_hints

import numpy as np

from .errors import ConfigError, SchemaError, StructureError
from .filtering import ProbStream, in_unit_interval
from .losses import EmbeddingBatch, ProbBatch
from .metrics import DatasetSummary, EditWeights, EvaluationReport
from .procedure import (
    KINDS,
    AssemblyState,
    EventSequence,
    Procedure,
    StepEvent,
    toy_motorcycle,
)
from .sampling import ClipSpec, KfsBatchSpec, KfsEntry
from .state_inference import StateDetection

log = logging.getLogger(__name__)

VERSION = 1

LABELS_SCHEMA = "psrkit/labels"
ASD_SCHEMA = "psrkit/asd-stream"
TEMPORAL_SCHEMA = "psrkit/temporal-stream"
PROCEDURE_SCHEMA = "psrkit/procedure"
REPORT_SCHEMA = "psrkit/report"
CLIP_SAMPLES_SCHEMA = "psrkit/clip-samples"
KFS_BATCH_SCHEMA = "psrkit/kfs-batch"
OCCLUSION_SCHEMA = "psrkit/occlusion"
SIM_CONFIG_SCHEMA = "psrkit/sim-config"
COMPARISON_SCHEMA = "psrkit/comparison"


canonical_dumps: Callable[[Any], str] = json.JSONEncoder(
    sort_keys=True, separators=(",", ":")
).encode


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _read_text(path: str | Path, data: bytes | None = None) -> str:
    try:  # with universal newlines, as `open` reads text
        text = (Path(path).read_bytes() if data is None else data).decode("utf-8")
    except UnicodeDecodeError as e:
        line = e.object.count(b"\n", 0, e.start) + 1
        raise SchemaError(f"not UTF-8 text: {e}", str(path), line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _decode(text: str | bytes, path: str, line: int | None = None, decode=json.loads) -> Any:
    """`decode(text)`; text that is not JSON, or that nests or counts past the
    decoder's limits, is a SchemaError naming the file and the line."""
    try:
        return decode(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e.msg}", path, line or e.lineno) from None
    except (ValueError, RecursionError) as e:  # not text, or an integer or a nesting too long
        raise SchemaError(f"invalid JSON: {e}", path, line) from None


def _read_object(path: str | Path) -> dict:
    doc = _decode(_read_text(path), str(path))
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object", path=str(path))
    return doc


def read_json(path: str | Path, schema: str) -> dict:
    doc = _read_object(path)
    _check_header(doc, schema, str(path), 1)
    return doc


# A field table declares the fields a reader takes from a record, header or
# document, one (name, check, what it must be, default) row each; `_record`
# returns their values in table order. A row whose default is _REQUIRED is a
# required field. The (check, what) pairs below are the shared kinds; JSON
# booleans are not numbers, so the checks compare type() and not isinstance().
_REQUIRED = object()
_NUMBER_TYPES = frozenset((int, float))
_FLOAT_MAX = sys.float_info.max

_INTEGER = (lambda v: type(v) is int, "an integer")
_COUNT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_FINITE = (lambda v: type(v) in _NUMBER_TYPES and -_FLOAT_MAX <= v <= _FLOAT_MAX, "a finite number")
_STRING = (lambda v: type(v) is str, "a string")


def _list_of(item_type: type, what: str) -> tuple:
    return (lambda v: type(v) is list and all(type(i) is item_type for i in v), what)


_VIDEO_ID = ("video_id", *_STRING, _REQUIRED)
_FRAME = ("frame", *_COUNT, _REQUIRED)
_STREAM_FRAME = (  # a stream's frame is an int64 index of its dense array
    "frame", lambda v: type(v) is int and 0 <= v < 2**63, "an integer in [0, 2**63)", _REQUIRED)
_STATE_ID = ("state_id", *_INTEGER, _REQUIRED)
_FPS = ("fps", lambda v: type(v) in _NUMBER_TYPES and 0 < v <= _FLOAT_MAX,
        "a finite positive number", _REQUIRED)
_KIND = ("kind", lambda v: v in KINDS, f"one of {list(KINDS)}", _REQUIRED)
_VERSION = ("version", lambda v: type(v) is int and v == VERSION, str(VERSION), _REQUIRED)


def _record(rec: dict, spec: tuple, path: str, line: int | None) -> list:
    """The values of `spec`'s fields in `rec`, in table order, each checked."""
    values = []
    for name, check, what, default in spec:
        value = rec.get(name, default)
        if value is _REQUIRED:
            raise SchemaError(f"missing field {name!r}", path, line)
        if not check(value) and value is not default:
            raise SchemaError(f"{name} must be {what}, got {value!r}", path, line)
        values.append(value)
    return values


def _names(spec: tuple) -> tuple[str, ...]:
    return tuple(row[0] for row in spec)


_EVENT_FIELDS = (  # StepEvent's fields in its order, as a labels record holds them
    ("action", *_INTEGER, _REQUIRED), ("component", *_COUNT, _REQUIRED), _KIND,
    ("correct", lambda v: type(v) is bool, "a boolean", _REQUIRED), _FRAME,
)
_EVENT_NAMES = _names(_EVENT_FIELDS)
_LABEL_FIELDS = (_VIDEO_ID, _FPS, *_EVENT_FIELDS)
_ASD_FIELDS = (_VIDEO_ID, _STREAM_FRAME, _STATE_ID, (
    "confidence", lambda v: type(v) in _NUMBER_TYPES and 0 <= v <= 1, "a number in [0, 1]", _REQUIRED
))
_TEMPORAL_FIELDS = (_VIDEO_ID, _STREAM_FRAME, ("probs", lambda v: type(v) is list, "a list", _REQUIRED))
_PROCEDURE_FIELDS = (
    ("name", *_STRING, "procedure"), _FPS,
    ("components", *_list_of(str, "a list of strings"), _REQUIRED),
    ("actions", *_list_of(dict, "a list of objects"), _REQUIRED),
    ("states", *_list_of(dict, "a list of objects or null"), None),
)
_ACTION_FIELDS = (("id", *_INTEGER, _REQUIRED), ("component", *_COUNT, _REQUIRED), _KIND)
_STATE_FIELDS = (  # AssemblyState.from_string's arguments
    ("bits", *_STRING, _REQUIRED), ("state_id", *_INTEGER, None))
_CLIP_FIELDS = (  # ClipSpec's fields in its order
    ("end_frame", *_COUNT, _REQUIRED), ("window", *_COUNT, _REQUIRED),
    ("indices", *_list_of(int, "a list of integers"), _REQUIRED),
)
_CLIP_NAMES = _names(_CLIP_FIELDS)
_CLIP_HEADER = (("config", lambda v: type(v) is dict, "an object", None),)
_KFS_HEADER = (  # KfsBatchSpec's fields after its entries, in its order
    ("t_f", lambda v: type(v) in _NUMBER_TYPES and 0 <= v <= _FLOAT_MAX,
     "a finite non-negative number", _REQUIRED),
    ("n_sample", *_COUNT, _REQUIRED), ("n_syn", *_COUNT, _REQUIRED),
    ("n_state", *_COUNT, _REQUIRED), _FPS,
)
_KFS_ENTRY = (_STATE_ID, (
    "source", lambda v: v in ("real", "synthetic"), "'real' or 'synthetic'", _REQUIRED
))
_KFS_REFERENCE = {  # the rest of a KfsEntry's fields, by source
    "real": (_VIDEO_ID, _FRAME), "synthetic": (("ref", *_STRING, _REQUIRED),),
}
_OCCLUSION_FIELDS = (
    _VIDEO_ID, ("mask", lambda v: type(v) is str and not v.strip("01"), "a 0/1 string", _REQUIRED)
)


def _check_header(header: dict, schema: str, path: str, line: int) -> None:
    _record(header, (("schema", lambda v: v == schema, repr(schema), _REQUIRED), _VERSION), path, line)


def write_jsonl(
    path: str | Path,
    schema: str,
    records: Iterable[dict],
    header_extra: Mapping[str, Any] | None = None,
) -> None:
    header: dict[str, Any] = {"schema": schema, "version": VERSION}
    if header_extra:
        header.update(header_extra)
    lines = [canonical_dumps(header)]
    lines.extend(canonical_dumps(r) for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def peek_schema(path: str | Path) -> str | None:
    """The schema name declared by a file's first non-blank line (read no further), if any."""
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                try:
                    obj = _decode(line, str(path))
                except SchemaError:
                    return None
                return obj.get("schema") if isinstance(obj, dict) else None
    return None


def _collect(
    path: str | Path,
    schema: str,
    parse_one: Callable[[dict, int], Any],
    strict: bool,
    header_spec: tuple = (),
    text: str | None = None,
) -> tuple[list, list]:
    """The header's `header_spec` values and `parse_one(record, line number)`
    of each later record, in one pass over a JSONL file (its `text`, if read).
    An empty file yields no records, and its header fields their defaults."""
    spath = str(path)
    header = None
    out = []
    for lineno, line in enumerate((_read_text(path) if text is None else text).splitlines(), start=1):
        if not line.strip():
            continue
        rec = _decode(line, spath, lineno)
        if not isinstance(rec, dict):
            raise SchemaError("each line must be a JSON object", spath, lineno)
        if header is None:
            _check_header(rec, schema, spath, lineno)
            header = _record(rec, header_spec, spath, lineno)
            continue
        try:
            out.append(parse_one(rec, lineno))
        except SchemaError as e:
            if strict:
                raise
            log.warning("skipping bad record: %s", e)
    return _record({}, header_spec, spath, 1) if header is None else header, out


# ---------------------------------------------------------------------------
# step-completion labels / predictions


def serialize_labels(sequences: Mapping[str, EventSequence], path: str | Path) -> None:
    event_fields = attrgetter(*_EVENT_NAMES)
    records = (
        dict(zip(_EVENT_NAMES, event_fields(e)), fps=sequences[video_id].fps, video_id=video_id)
        for video_id in sorted(sequences)
        for e in sequences[video_id].events
    )
    write_jsonl(path, LABELS_SCHEMA, records)


def parse_labels(
    path: str | Path,
    proc: Procedure | None = None,
    strict: bool = True,
) -> dict[str, EventSequence]:
    """Load per-video event sequences from a labels/predictions file.

    In strict mode any malformed record aborts with its line number; lenient
    mode logs and skips it. Duplicate (video, frame, action) triples are
    always an error.
    """
    spath = str(path)

    def parse_one(rec: dict, lineno: int):
        video_id, fps, action, component, kind, correct, frame = _record(rec, _LABEL_FIELDS, spath, lineno)
        if proc is not None:
            if action not in proc.action_effects:
                raise SchemaError(f"unknown action {action} for procedure {proc.name!r}", spath, lineno)
            if proc.effect(action) != (component, kind):
                raise SchemaError(
                    f"action {action} should be {proc.action_label(action)!r}, "
                    f"record says component {component} / {kind}",
                    spath,
                    lineno,
                )
        return lineno, video_id, float(fps), StepEvent(action, component, kind, correct, frame)

    _, rows = _collect(path, LABELS_SCHEMA, parse_one, strict)
    by_video: dict[str, list] = {}
    fps_of: dict[str, float] = {}
    seen: dict[tuple[str, int, int], int] = {}
    for lineno, video_id, fps, event in rows:
        key = (video_id, event.frame, event.action)
        if key in seen:
            raise SchemaError(
                f"duplicate (video, frame, action) = {key}, first seen on line {seen[key]}",
                spath,
                lineno,
            )
        seen[key] = lineno
        if video_id in fps_of and fps_of[video_id] != fps:
            raise SchemaError(
                f"video {video_id!r} declares conflicting fps values", spath, lineno
            )
        fps_of[video_id] = fps
        by_video.setdefault(video_id, []).append(event)
    return {
        vid: EventSequence.from_events(events, video_id=vid, fps=fps_of[vid])
        for vid, events in by_video.items()
    }


# ---------------------------------------------------------------------------
# detector streams


def serialize_asd_stream(
    detections: Mapping[str, Sequence[StateDetection]], path: str | Path
) -> None:
    """The canonical records, each built as text as the JSON encoder writes it."""
    lines = [_ASD_HEADER]
    for video_id in sorted(detections):
        tail = f',"video_id":{canonical_dumps(video_id)}}}'
        for det in detections[video_id]:
            frame, state_id, confidence = det.frame, det.state.state_id, det.confidence
            if state_id is None:
                raise ValueError(f"detection at frame {frame} has no state id; cannot serialize")
            plain = type(confidence) is float and type(frame) is int and type(state_id) is int
            lines.append(f'{{"confidence":{confidence!r},"frame":{frame},"state_id":{state_id}{tail}' if plain
                         else canonical_dumps({"confidence": confidence, "frame": frame,
                                               "state_id": state_id, "video_id": video_id}))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# A state record in the writer's layout: a JSON number, a frame of at most 18 digits (it fits an
# int64), an integer state id, and a video id with no escapes and no `str.splitlines` line break.
_VIDEO_ID_TEXT = r'"([^"\\\x00-\x1f\x85\u2028\u2029]*)"'
_ASD_HEADER = canonical_dumps({"schema": ASD_SCHEMA, "version": VERSION})
_ASD_LINES = re.compile(
    r'^\{"confidence":((?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?),'
    r'"frame":(0|[1-9][0-9]{0,17}),"state_id":(-?(?:0|[1-9][0-9]{0,17})),'
    rf'"video_id":{_VIDEO_ID_TEXT}\}}$', re.MULTILINE)


def _writer_layout_detections(text: str, states_by_id: dict) -> Iterable[tuple] | None:
    """The (line number, video id, detection) rows of a file in the writer's
    layout, by one multiline findall. None if a line is in another layout or
    fails a check: `_collect` then reads the file and names each error where it is."""
    records = _ASD_LINES.findall(text)  # one per line after the header, unless a line is in another layout
    if not text.startswith(_ASD_HEADER + "\n") or len(records) + 1 != text.count("\n") + (text[-1] != "\n"):
        return None
    confidences, frames, states, video_ids = zip(*records) if records else ((),) * 4
    confidence_of = {c: float(c) for c in dict.fromkeys(confidences)}
    state_of = {s: states_by_id.get(int(s)) for s in dict.fromkeys(states)}
    if not in_unit_interval(list(confidence_of.values())) or None in state_of.values():
        return None
    frames = json.loads(f"[{','.join(frames)}]")
    return zip(range(2, len(frames) + 2), video_ids, map(
        _detection, frames, map(state_of.__getitem__, states), map(confidence_of.__getitem__, confidences)))


def _detection(frame: int, state: AssemblyState, confidence: float) -> StateDetection:
    """A detection of checked fields, made without checking them again."""
    det = object.__new__(StateDetection)
    det.__dict__.update(frame=frame, state=state, confidence=confidence)
    return det


def parse_asd_stream(
    path: str | Path, proc: Procedure, strict: bool = True, text: str | None = None
) -> dict[str, list[StateDetection]]:
    """Per video its detections (of `text`, if read); the writer's layout is read in whole-text passes."""
    spath = str(path)
    states_by_id = {s.state_id: s for s in (proc.states or ()) if s.state_id is not None}

    def parse_one(rec: dict, lineno: int):
        video_id, frame, state_id, confidence = _record(rec, _ASD_FIELDS, spath, lineno)
        if state_id not in states_by_id:
            raise SchemaError(f"unknown state_id {state_id!r}; known ids: {sorted(states_by_id)}",
                              spath, lineno)
        return lineno, video_id, StateDetection(frame, states_by_id[state_id], float(confidence))

    text = _read_text(path) if text is None else text
    rows = _writer_layout_detections(text, states_by_id)
    if rows is None:
        rows = _collect(path, ASD_SCHEMA, parse_one, strict, text=text)[1]
    out: dict[str, list[StateDetection]] = {}
    for lineno, video_id, det in rows:  # in file order, so the first late frame is the file's first
        dets = out.setdefault(video_id, [])
        if dets and det.frame <= dets[-1].frame:
            raise SchemaError(f"video {video_id!r}: frame {det.frame} not after frame {dets[-1].frame}",
                              spath, lineno)
        dets.append(det)
    return out


def parse_stream(
    path: str | Path, proc: Procedure | None, strict: bool = True
) -> tuple[str, dict]:
    """A detector stream of either kind, read by the schema its header declares.

    Returns the schema and the per-video data: `StateDetection` lists for a
    state stream (which needs `proc` for its state ids), `ProbStream`s for a
    temporal stream (rows checked against `proc.n_steps` when `proc` is given).
    A file led by a header as the writers write it is read once, no other.
    """
    data = Path(path).read_bytes()
    schema = _STREAM_HEADERS.get(data[:64].partition(b"\n")[0]) or peek_schema(path)
    if schema not in (ASD_SCHEMA, TEMPORAL_SCHEMA):
        raise SchemaError(f"not a recognized stream schema: {schema!r}", str(path))
    if schema == ASD_SCHEMA and proc is None:
        raise SchemaError("a state stream needs a procedure for its state ids", str(path))
    text, data = _read_text(path, data), None  # one copy of the file
    if schema == ASD_SCHEMA:
        return schema, parse_asd_stream(path, proc, strict, text)
    return schema, parse_temporal_stream(path, proc.n_steps if proc is not None else None, strict, text)


_TEMPORAL_HEADER = canonical_dumps({"schema": TEMPORAL_SCHEMA, "version": VERSION})
_STREAM_HEADERS = {_ASD_HEADER.encode(): ASD_SCHEMA, _TEMPORAL_HEADER.encode(): TEMPORAL_SCHEMA}
_EVIDENCE_BLOCK = 256  # rows whose cells are held as Python objects at once, written or read
_ZERO_CELL = np.array("0.0", dtype=object)  # fills as an object; a str fill is cast cell by cell


def serialize_temporal_stream(streams: Mapping[str, ProbStream], path: str | Path) -> None:
    """The canonical records, written as text, floats as the JSON encoder does.
    A +0.0 cell is the literal `0.0`, `float.__repr__(0.0)`: only the other
    cells of an evidence row are formatted, a block of rows at a time."""
    video_ids = sorted(streams)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TEMPORAL_HEADER + "\n")
        for video_id in video_ids:
            stream = streams[video_id]
            probs = stream.probs
            live = (probs != 0.0) | np.signbit(probs)
            evidence = np.flatnonzero(live.any(axis=1))
            rows = np.full(len(stream), np.array(",".join(["0.0"] * probs.shape[1]), dtype=object))
            for start in range(0, len(evidence), _EVIDENCE_BLOCK):
                block = evidence[start:start + _EVIDENCE_BLOCK]
                cells = np.full((len(block), probs.shape[1]), _ZERO_CELL)
                cells[live[block]] = list(map(float.__repr__, probs[block][live[block]].tolist()))
                rows[block] = list(map(",".join, cells.tolist()))
            tail = '],"video_id":' + canonical_dumps(video_id) + "}\n"
            fh.write("".join([f'{{"frame":{frame},"probs":[{row}{tail}'
                              for frame, row in zip(stream.frames.tolist(), rows.tolist())]))


# A temporal record in the writer's layout is `{"frame":` at a line start and
# a frame that fits an int64, `_PROBS_START`, the `probs` text, and a tail:
# `_PROBS_END` and a video id as `_VIDEO_ID_TEXT` allows.
_LINE_START, _PROBS_START, _PROBS_END = '\n{"frame":', ',"probs":[', '],"video_id":'
_TAIL = re.compile(rf'\],"video_id":{_VIDEO_ID_TEXT}\}}')
_ZERO_WORD = int.from_bytes(b"0.0,", "little")  # a `0.0` cell and its comma, read as "<u4"


def _unit_numbers(probs: list) -> bool:
    """JSON numbers only, integers 0 or 1: floats are range checked later, as an array."""
    types = set(map(type, probs))
    return types <= _NUMBER_TYPES and (int not in types or in_unit_interval(probs))


def _float_cells(texts: list[str], width: int) -> np.ndarray | None:
    """The rows `texts`, `width` comma-separated JSON floats each, as a `(rows, width)` array:
    only the cells other than `0.0` are decoded. None if a cell is no float or breaks a line."""
    data = f"{','.join(texts)},...".encode()  # 3 bytes past the last comma
    text = np.frombuffer(data, np.uint8, len(data) - 3)
    ends = np.flatnonzero(text == ord(","))  # one per cell, after it
    sizes = np.diff(ends, prepend=-1)  # each cell's, with its comma
    other = np.ndarray(len(text), "<u4", data, strides=(1,))[ends - sizes + 1] != _ZERO_WORD
    block = text[np.repeat(other, sizes)].tobytes()[:-1].decode()
    try:  # floats only, so the text holds one more value than it has commas
        values = json.loads(f"[{block}]")
    except (ValueError, RecursionError):
        return None
    if ("\n" in block or set(map(type, values)) - {float}  # JSON whitespace, but a line break
            or len(other) != len(texts) * width or len(values) != np.count_nonzero(other)):
        return None  # a row of another width, or a blank cell
    cells = np.zeros((len(texts), width))
    cells.reshape(-1)[other] = values
    return cells


def _writer_layout_rows(text: str, n_steps: int | None) -> dict | None:
    """Per video of a file in the writer's layout its (line numbers, frames, probs array), in
    whole-text passes. None if a line is in another layout, holds other than floats or differs
    in width: `_collect` then reads the file record by record."""
    header, *lines = map(str.partition, text.split(_LINE_START), repeat(_PROBS_START))
    frames = ",".join(map(itemgetter(0), lines))  # one comma fewer than lines, unless a frame holds one
    if (header[0] != _TEMPORAL_HEADER or header[1] or frames.count(",") >= len(lines)
            or not frames.encode().translate(None, b",").isdigit()):
        return None
    try:  # JSON refuses leading zeros, and int64 frames from 2**63
        frames = np.array(json.loads(f"[{frames}]"), np.int64)
    except (ValueError, OverflowError):
        return None
    rests = list(map(itemgetter(2), lines))
    rests[-1] = rests[-1].removesuffix("\n")
    key_of = {rest: key for key, rest in enumerate(dict.fromkeys(rests))}
    keys = np.fromiter(map(key_of.__getitem__, rests), np.intp, len(rests))
    split = [rest.rpartition(_PROBS_END) for rest in key_of]
    del lines, rests, key_of  # of the lines, only the split distinct rests are kept
    texts = [probs_text for probs_text, _, _ in split]
    tails = [_TAIL.fullmatch(end + tail) for _, end, tail in split]
    width = max(map(str.count, texts, repeat(","))) + 1  # the cell count checks it is every row's
    if None in tails or n_steps not in (None, width) or (probs := _float_cells(texts, width)) is None:
        return None
    code_of = {video_id: code for code, video_id in enumerate(dict.fromkeys(m[1] for m in tails))}
    codes = np.array([code_of[m[1]] for m in tails])[keys]
    at = {video_id: np.flatnonzero(codes == code) for video_id, code in code_of.items()}
    return {video_id: (i + 2, frames[i], probs[keys[i]]) for video_id, i in at.items()}


def parse_temporal_stream(
    path: str | Path,
    n_steps: int | None = None,
    strict: bool = True,
    text: str | None = None,
) -> dict[str, ProbStream]:
    """One "temporal" stream per video, from the file or its `text` when
    already read. Every row of a video has the same length: `n_steps` if
    given, else that of the video's first row. A file in the writer's layout
    is read in whole-text passes; any other file record by record. A strict
    read names the first bad line in the file."""
    spath = str(path)
    text = _read_text(path) if text is None else text
    read = _writer_layout_rows(text, n_steps)
    if read is None:
        width_of: dict[str, int] = {}

        def parse_one(rec: dict, lineno: int):
            video_id, frame, probs = _record(rec, _TEMPORAL_FIELDS, spath, lineno)
            width = width_of.setdefault(video_id, len(probs) if n_steps is None else n_steps)
            if len(probs) != width:
                raise SchemaError(f"frame {frame}: probs has length {len(probs)}, expected {width}",
                                  spath, lineno)
            if not _unit_numbers(probs):
                raise SchemaError(f"frame {frame}: probabilities outside [0, 1]", spath, lineno)
            return video_id, (lineno, frame, probs)

        grouped: dict[str, list] = {}
        for video_id, record in _collect(path, TEMPORAL_SCHEMA, parse_one, strict, text=text)[1]:
            grouped.setdefault(video_id, []).append(record)
        read = {}
        for video_id, records in grouped.items():
            lines, frames, probs = zip(*records)
            read[video_id] = np.array(lines), np.array(frames, np.int64), np.array(probs, np.float64)
    out, errors = {}, []  # errors: each video's first
    for video_id, (lines, frames, probs) in read.items():
        keep = ((probs >= 0.0) & (probs <= 1.0)).all(axis=1)
        for t in np.flatnonzero(~keep).tolist():
            err = SchemaError(f"frame {frames[t]}: probabilities outside [0, 1]", spath, int(lines[t]))
            if strict:
                errors.append(err)
                break
            log.warning("skipping bad record: %s", err)
        if not (strict or keep.all()):
            lines, frames, probs = lines[keep], frames[keep], probs[keep]
        for t in np.flatnonzero(frames[1:] <= frames[:-1])[:1].tolist():
            errors.append(SchemaError(f"video {video_id!r}: frame {frames[t + 1]} not after "
                                      f"frame {frames[t]}", spath, int(lines[t + 1])))
        if len(frames):  # unless every row of this video was skipped
            out[video_id] = ProbStream._adopt(frames, probs, "temporal")
    if errors:
        raise min(errors, key=attrgetter("line"))
    return out


# ---------------------------------------------------------------------------
# procedures


BUILTIN_PROCEDURES: dict[str, Callable[[], Procedure]] = {  # each built once: procedures are immutable
    "toy-motorcycle": functools.cache(toy_motorcycle),
}


def save_procedure(proc: Procedure, path: str | Path) -> None:
    doc = {
        "schema": PROCEDURE_SCHEMA,
        "version": VERSION,
        "name": proc.name,
        "fps": proc.fps,
        "components": list(proc.components),
        "actions": [
            {"id": a, "component": proc.effect(a)[0], "kind": proc.effect(a)[1]}
            for a in proc.actions
        ],
        "states": None
        if proc.states is None
        else [{"state_id": s.state_id, "bits": s.to_string()} for s in proc.states],
    }
    write_json(path, doc)


def load_procedure(path: str | Path) -> Procedure:
    """A procedure document; a malformed one is a SchemaError naming the file."""
    doc = read_json(path, PROCEDURE_SCHEMA)
    spath = str(path)
    name, fps, components, actions, states = _record(doc, _PROCEDURE_FIELDS, spath, None)
    actions = [_record(a, _ACTION_FIELDS, spath, None) for a in actions]
    try:
        return Procedure(
            components=tuple(components),
            actions=tuple(i for i, _, _ in actions),
            action_effects={i: (c, k) for i, c, k in actions},
            fps=float(fps),
            states=None if states is None else tuple(
                AssemblyState.from_string(*_record(s, _STATE_FIELDS, spath, None)) for s in states
            ),
            name=name,
        )
    except StructureError as e:
        raise SchemaError(f"malformed procedure: {e}", spath) from e


def resolve_procedure(spec: str) -> Procedure:
    """A builtin procedure name or a path to a procedure JSON file."""
    if spec in BUILTIN_PROCEDURES:
        return BUILTIN_PROCEDURES[spec]()
    if Path(spec).exists():
        return load_procedure(spec)
    raise SchemaError(
        f"{spec!r} is neither a builtin procedure ({sorted(BUILTIN_PROCEDURES)}) "
        "nor an existing file"
    )


# ---------------------------------------------------------------------------
# reports


def build_report(
    per_video: Mapping[str, EvaluationReport],
    summary: DatasetSummary,
    config: Mapping[str, Any],
) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "version": VERSION,
        "config": dict(config),
        "videos": {vid: per_video[vid].to_dict() for vid in sorted(per_video)},
        "aggregate": summary.to_dict(),
    }


_METRICS_COLUMNS = ("pos", "precision", "recall", "f1", "tau_s", "tp", "fp", "fn")


def write_metrics_csv(
    per_video: Mapping[str, EvaluationReport],
    summary: DatasetSummary,
    path: str | Path,
) -> None:
    """One row per video, then an ALL row; an undefined delay is an empty cell."""
    rows = [(vid, per_video[vid]) for vid in sorted(per_video)] + [("ALL", summary)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("video_id",) + _METRICS_COLUMNS)
        for name, scores in rows:
            d = scores.to_dict()
            writer.writerow([name] + [d[k] for k in _METRICS_COLUMNS])


def write_series_csv(rows: Iterable[tuple], path: str | Path) -> None:
    """Per-step confidence and accumulator values over time, for plotting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id", "frame", "step", "action", "prob", "accumulator"])
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# sampler outputs


def write_clip_samples(
    path: str | Path, specs: Mapping[str, Sequence[ClipSpec]], config: Mapping[str, Any]
) -> None:
    clip_fields = attrgetter(*_CLIP_NAMES)
    records = (
        dict(zip(_CLIP_NAMES, clip_fields(s)), video_id=video_id)
        for video_id in sorted(specs)
        for s in specs[video_id]
    )
    write_jsonl(path, CLIP_SAMPLES_SCHEMA, records, header_extra={"config": dict(config)})


def parse_clip_samples(path: str | Path) -> tuple[dict, dict[str, list[ClipSpec]]]:
    spath = str(path)

    def parse_one(rec: dict, lineno: int):
        video_id, end_frame, window, indices = _record(rec, (_VIDEO_ID, *_CLIP_FIELDS), spath, lineno)
        try:
            return video_id, ClipSpec(end_frame, window, tuple(indices))
        except StructureError as e:
            raise SchemaError(f"malformed clip record: {e}", spath, lineno) from e

    (config,), rows = _collect(path, CLIP_SAMPLES_SCHEMA, parse_one, True, _CLIP_HEADER)
    out: dict[str, list[ClipSpec]] = {}
    for video_id, spec in rows:
        out.setdefault(video_id, []).append(spec)
    return config or {}, out


def write_kfs_batch(path: str | Path, spec: KfsBatchSpec, config: Mapping[str, Any]) -> None:
    extra = {name: getattr(spec, name) for name in _names(_KFS_HEADER)}
    extra["config"] = dict(config)
    records = (
        {name: getattr(e, name) for name in _names(_KFS_ENTRY + _KFS_REFERENCE[e.source])}
        for e in spec.entries
    )
    write_jsonl(path, KFS_BATCH_SCHEMA, records, header_extra=extra)


def parse_kfs_batch(path: str | Path) -> KfsBatchSpec:
    spath = str(path)

    def parse_one(rec: dict, lineno: int):
        state_id, source = _record(rec, _KFS_ENTRY, spath, lineno)
        spec = _KFS_REFERENCE[source]
        return KfsEntry(state_id, source, **dict(zip(_names(spec), _record(rec, spec, spath, lineno))))

    header, entries = _collect(path, KFS_BATCH_SCHEMA, parse_one, True, _KFS_HEADER)
    return KfsBatchSpec(tuple(entries), *header)


def load_synthetic_pool(path: str | Path) -> dict[int, list[str]]:
    """A JSON object mapping each state id (a string key) to a list of reference strings."""
    raw = _read_object(path)
    check, what = _list_of(str, "a list of strings")
    pool = {}
    for key, refs in raw.items():
        try:
            state_id = int(key)
        except ValueError:
            raise SchemaError(f"state id {key!r} is not an integer", path=str(path)) from None
        if not check(refs):
            raise SchemaError(f"state {key}: references must be {what}, got {refs!r}", str(path))
        pool[state_id] = refs
    return pool


# ---------------------------------------------------------------------------
# simulator outputs


def write_occlusion_masks(masks: Mapping[str, Sequence[bool]], path: str | Path) -> None:
    records = [
        {"mask": "".join("1" if b else "0" for b in masks[vid]), "video_id": vid}
        for vid in sorted(masks)
    ]
    write_jsonl(path, OCCLUSION_SCHEMA, records)


def parse_occlusion_masks(path: str | Path) -> dict[str, list[bool]]:
    """One mask per video; a second record for a video is an error."""
    spath = str(path)
    masks: dict[str, list[bool]] = {}

    def parse_one(rec: dict, lineno: int):
        video_id, mask = _record(rec, _OCCLUSION_FIELDS, spath, lineno)
        if video_id in masks:
            raise SchemaError(f"second mask for video {video_id!r}", spath, lineno)
        masks[video_id] = [c == "1" for c in mask]

    _collect(path, OCCLUSION_SCHEMA, parse_one, strict=True)
    return masks


# ---------------------------------------------------------------------------
# loss batch loaders (columnar text)


def load_embedding_batch(path: str | Path, temperature: float = 0.07) -> EmbeddingBatch:
    """Rows of `<label> <v1> ... <vd>`; blank lines and #-comments ignored."""
    labels = []
    rows = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            labels.append(int(parts[0]))
            rows.append([float(x) for x in parts[1:]])
        except ValueError as e:
            raise SchemaError(f"bad embedding row: {e}", str(path), lineno) from e
    if rows and len({len(r) for r in rows}) != 1:
        raise SchemaError("embedding rows differ in dimension", str(path))
    return EmbeddingBatch(
        vectors=np.array(rows, dtype=float),
        labels=np.array(labels),
        temperature=temperature,
    )


def load_prob_batch(path: str | Path) -> ProbBatch:
    """First data line is the step count C; each row then holds C binary
    targets followed by C predicted probabilities."""
    lines = [
        (no, ln.strip())
        for no, ln in enumerate(_read_text(path).splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise SchemaError("empty probability batch", str(path))
    try:
        c = int(lines[0][1])
    except ValueError as e:
        raise SchemaError("first line must be the step count", str(path), lines[0][0]) from e
    targets, preds = [], []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2 * c:
            raise SchemaError(f"expected {2 * c} columns, got {len(parts)}", str(path), lineno)
        try:
            values = [float(x) for x in parts]
        except ValueError as e:
            raise SchemaError(f"bad number: {e}", str(path), lineno) from e
        targets.append(values[:c])
        preds.append(values[c:])
    return ProbBatch(predictions=np.array(preds), targets=np.array(targets))


# ---------------------------------------------------------------------------
# simulator config


_type_hints = functools.cache(get_type_hints)  # a dataclass's string annotations, compiled once


def _from_json(cls, doc, section: str = "", **defaults):
    """An instance of dataclass `cls` read from a JSON object.

    Names, types and defaults come from the dataclass fields: a field with no
    default is required, a dataclass-typed field is a nested object read the
    same way (absent means empty), and `defaults` overrides a field's default.
    A null value is taken where the hint admits None. Unknown keys are
    rejected; errors name the field as `section.field`.
    """
    if not isinstance(doc, dict):
        raise ConfigError(section, "must be an object")
    prefix = f"{section}." if section else ""
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in doc:
        if key not in names:
            raise ConfigError(prefix + key, "is not a recognized config field")
    hints = _type_hints(cls)
    kwargs = {}
    for f in fields:
        where = prefix + f.name
        if dataclasses.is_dataclass(hints[f.name]) and f.name not in defaults:
            kwargs[f.name] = _from_json(hints[f.name], doc.get(f.name, {}), where)
        elif f.name in doc:
            value = doc[f.name]
            check, what = _INTEGER if hints[f.name] is int else _FINITE
            null = value is None and type(None) in get_args(hints[f.name])
            if not (check(value) or null):
                raise ConfigError(where, f"must be {what}, got {value!r}")
            kwargs[f.name] = value if hints[f.name] is int or null else float(value)
        elif f.name in defaults:
            kwargs[f.name] = defaults[f.name]
        elif f.default is dataclasses.MISSING:
            raise ConfigError(where, "is required")
    return cls(**kwargs)


def load_sim_config(path: str | Path):
    """(SimConfig, thresholds dict) from a JSON config document; errors name the file."""
    from .simulator import SimConfig, Thresholds

    doc = read_json(path, SIM_CONFIG_SCHEMA)
    body = {k: v for k, v in doc.items() if k not in ("schema", "version")}
    proc_spec = body.pop("procedure", "toy-motorcycle")
    thresholds = body.pop("thresholds", {})
    try:
        if not isinstance(proc_spec, str):
            raise ConfigError("procedure", "must be a builtin name or a file path")
        proc = resolve_procedure(proc_spec)
        config = _from_json(SimConfig, body, procedure=proc, fps=float(proc.fps))
        return config, dataclasses.asdict(_from_json(Thresholds, thresholds, "thresholds"))
    except ConfigError as e:
        raise ConfigError(e.field, e.message, str(path)) from None


def parse_weights(spec: str) -> EditWeights:
    """Parse `insert=1,delete=1,substitute=1,transpose=1` style weight strings."""
    if not spec.strip():
        return EditWeights()
    values = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"bad weight component {part!r}; expected name=value")
        name, _, raw = part.partition("=")
        name = name.strip()
        if name not in ("insert", "delete", "substitute", "transpose"):
            raise ValueError(f"unknown edit weight {name!r}")
        values[name] = float(raw)
    return EditWeights(**values)
