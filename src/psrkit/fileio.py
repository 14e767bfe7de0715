"""File formats: JSONL streams, JSON documents, and flat CSV tables.

Every emitted file starts with a schema header (JSONL) or carries schema
fields (JSON documents); parsers reject other schemas and future versions.
Serialization is canonical (sorted keys, shortest round-trip floats) so that
reruns with identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, get_type_hints

import numpy as np

from .errors import ConfigError, SchemaError
from .filtering import ConfidenceFrame, ProbStream, as_stream, in_unit_interval
from .losses import EmbeddingBatch, ProbBatch
from .metrics import DatasetSummary, EditWeights, EvaluationReport
from .procedure import (
    KINDS,
    AssemblyState,
    EventSequence,
    Procedure,
    StepEvent,
    frame_to_seconds,
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
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _read_object(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}", path=str(path)) from e
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object", path=str(path))
    return doc


def read_json(path: str | Path, schema: str) -> dict:
    doc = _read_object(Path(path))
    _check_header(doc, schema, str(path), 1)
    return doc


def _check_header(header: dict, schema: str, path: str, line: int) -> None:
    if header.get("schema") != schema:
        raise SchemaError(
            f"expected schema {schema!r}, found {header.get('schema')!r}",
            path=path,
            line=line,
        )
    version = header.get("version")
    if version != VERSION:
        raise SchemaError(
            f"file declares version {version!r}; this reader supports {VERSION}",
            path=path,
            line=line,
        )


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
    Path(path).write_text("\n".join(lines) + "\n")


def read_jsonl(path: str | Path, schema: str) -> tuple[dict, list[tuple[int, dict]]]:
    """Header plus (line number, record) pairs. An empty file yields no records."""
    path = Path(path)
    lines = path.read_text().splitlines()
    body: list[tuple[int, dict]] = []
    header: dict = {}
    seen_header = False
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid JSON: {e.msg}", path=str(path), line=lineno) from e
        if not isinstance(obj, dict):
            raise SchemaError("each line must be a JSON object", path=str(path), line=lineno)
        if not seen_header:
            _check_header(obj, schema, str(path), lineno)
            header = obj
            seen_header = True
        else:
            body.append((lineno, obj))
    return header, body


def peek_schema(path: str | Path) -> str | None:
    """The schema name declared by a file's first non-blank line, if any."""
    for line in Path(path).read_text().splitlines():
        if line.strip():
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                return None
            return obj.get("schema") if isinstance(obj, dict) else None
    return None


def _field(rec: dict, name: str, path: str, lineno: int):
    if name not in rec:
        raise SchemaError(f"missing field {name!r}", path=path, line=lineno)
    return rec[name]


def _int_field(rec: dict, name: str, path: str, lineno: int, non_negative: bool = True) -> int:
    """A required integer field; JSON booleans are not integers."""
    value = _field(rec, name, path, lineno)
    if isinstance(value, bool) or not isinstance(value, int) or (non_negative and value < 0):
        kind = "a non-negative integer" if non_negative else "an integer"
        raise SchemaError(f"{name} must be {kind}, got {value!r}", path, lineno)
    return value


# JSON numbers; bool is an int subclass, so type() rather than isinstance()
_NUMBER_TYPES = frozenset((int, float))


def _collect(
    path: str | Path,
    schema: str,
    parse_one: Callable[[dict, int], Any],
    strict: bool,
) -> tuple[dict, list]:
    header, body = read_jsonl(path, schema)
    out = []
    for lineno, rec in body:
        try:
            out.append(parse_one(rec, lineno))
        except SchemaError as e:
            if strict:
                raise
            log.warning("skipping bad record: %s", e)
    return header, out


# ---------------------------------------------------------------------------
# step-completion labels / predictions


def serialize_labels(sequences: Mapping[str, EventSequence], path: str | Path) -> None:
    records = []
    for video_id in sorted(sequences):
        seq = sequences[video_id]
        for e in seq.events:
            records.append(
                {
                    "action": e.action,
                    "component": e.component,
                    "correct": e.correct,
                    "fps": seq.fps,
                    "frame": e.frame,
                    "kind": e.kind,
                    "video_id": video_id,
                }
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
        video_id = _field(rec, "video_id", spath, lineno)
        frame = _int_field(rec, "frame", spath, lineno)
        fps = _field(rec, "fps", spath, lineno)
        action = _int_field(rec, "action", spath, lineno, non_negative=False)
        component = _int_field(rec, "component", spath, lineno)
        kind = _field(rec, "kind", spath, lineno)
        correct = _field(rec, "correct", spath, lineno)
        if kind not in KINDS:
            raise SchemaError(f"kind must be one of {list(KINDS)}, got {kind!r}", spath, lineno)
        if not isinstance(correct, bool):
            raise SchemaError(f"correct must be a boolean, got {correct!r}", spath, lineno)
        if not isinstance(fps, (int, float)) or isinstance(fps, bool) or fps <= 0:
            raise SchemaError(f"fps must be a positive number, got {fps!r}", spath, lineno)
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
        event = StepEvent(
            action=action,
            component=component,
            kind=kind,
            correct=correct,
            frame=frame,
            time_s=frame_to_seconds(frame, float(fps)),
        )
        return lineno, str(video_id), float(fps), event

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
    records = []
    for video_id in sorted(detections):
        for det in detections[video_id]:
            if det.state.state_id is None:
                raise ValueError(
                    f"detection at frame {det.frame} has no state id; cannot serialize"
                )
            records.append(
                {
                    "confidence": det.confidence,
                    "frame": det.frame,
                    "state_id": det.state.state_id,
                    "video_id": video_id,
                }
            )
    write_jsonl(path, ASD_SCHEMA, records)


def parse_asd_stream(
    path: str | Path, proc: Procedure, strict: bool = True
) -> dict[str, list[StateDetection]]:
    spath = str(path)
    states_by_id = {
        s.state_id: s for s in (proc.states or ()) if s.state_id is not None
    }

    def parse_one(rec: dict, lineno: int):
        video_id = str(_field(rec, "video_id", spath, lineno))
        frame = _int_field(rec, "frame", spath, lineno)
        state_id = _int_field(rec, "state_id", spath, lineno, non_negative=False)
        confidence = _field(rec, "confidence", spath, lineno)
        if state_id not in states_by_id:
            raise SchemaError(
                f"unknown state_id {state_id!r}; known ids: {sorted(states_by_id)}",
                spath,
                lineno,
            )
        if isinstance(confidence, bool) or not isinstance(confidence, (int, float)) or not 0 <= confidence <= 1:
            raise SchemaError(f"confidence must be in [0, 1], got {confidence!r}", spath, lineno)
        return video_id, StateDetection(
            frame=frame, state=states_by_id[state_id], confidence=float(confidence)
        )

    _, rows = _collect(path, ASD_SCHEMA, parse_one, strict)
    out: dict[str, list[StateDetection]] = {}
    last: dict[str, int] = {}
    for video_id, det in rows:
        if video_id in last and det.frame <= last[video_id]:
            raise SchemaError(
                f"video {video_id!r}: frame {det.frame} not after frame {last[video_id]}",
                spath,
            )
        last[video_id] = det.frame
        out.setdefault(video_id, []).append(det)
    return out


def serialize_temporal_stream(
    frames: Mapping[str, ProbStream | Sequence[ConfidenceFrame]], path: str | Path
) -> None:
    records = []
    for video_id in sorted(frames):
        stream = as_stream(frames[video_id])
        records.extend(
            {"frame": frame, "probs": probs, "video_id": video_id}
            for frame, probs in zip(stream.frames.tolist(), stream.probs.tolist())
        )
    write_jsonl(path, TEMPORAL_SCHEMA, records)


def parse_temporal_stream(
    path: str | Path,
    n_steps: int | None = None,
    strict: bool = True,
) -> dict[str, ProbStream]:
    """One "temporal" stream per video. Every row of a video has the same
    length: `n_steps` if given, else that of the video's first row."""
    spath = str(path)
    width_of: dict[str, int] = {}

    def parse_one(rec: dict, lineno: int):
        video_id = str(_field(rec, "video_id", spath, lineno))
        frame = _int_field(rec, "frame", spath, lineno)
        probs = _field(rec, "probs", spath, lineno)
        if not isinstance(probs, list):
            raise SchemaError("probs must be a list", spath, lineno)
        width = width_of.setdefault(video_id, len(probs) if n_steps is None else n_steps)
        if len(probs) != width:
            raise SchemaError(
                f"frame {frame}: probs has length {len(probs)}, expected {width}",
                spath,
                lineno,
            )
        types = set(map(type, probs))
        # Ranges are checked per video below, once the floats are an array;
        # a JSON integer other than 0 or 1 may not even fit in one.
        if not types <= _NUMBER_TYPES or (int in types and not in_unit_interval(probs)):
            raise SchemaError(f"frame {frame}: probabilities outside [0, 1]", spath, lineno)
        return video_id, lineno, frame, probs

    _, rows = _collect(path, TEMPORAL_SCHEMA, parse_one, strict)
    by_video: dict[str, list] = {}
    for video_id, *row in rows:
        by_video.setdefault(video_id, []).append(row)
    out = {}
    for video_id, video_rows in by_video.items():
        lines, frames, probs = zip(*video_rows)
        probs = np.array(probs, dtype=np.float64).reshape(len(lines), width_of[video_id])
        keep = ((probs >= 0.0) & (probs <= 1.0)).all(axis=1)
        for t in np.flatnonzero(~keep).tolist():
            err = SchemaError(f"frame {frames[t]}: probabilities outside [0, 1]", spath, lines[t])
            if strict:
                raise err
            log.warning("skipping bad record: %s", err)
        if not keep.any():
            continue  # every row of this video was skipped
        lines = [line for line, ok in zip(lines, keep.tolist()) if ok]
        frames = np.array(frames, dtype=np.int64)[keep]
        late = np.flatnonzero(frames[1:] <= frames[:-1]) + 1
        if late.size:
            t = late[0]
            raise SchemaError(
                f"video {video_id!r}: frame {frames[t]} not after frame {frames[t - 1]}",
                spath,
                lines[t],
            )
        out[video_id] = ProbStream(frames, probs[keep], "temporal")
    return out


# ---------------------------------------------------------------------------
# procedures


BUILTIN_PROCEDURES: dict[str, Callable[[], Procedure]] = {
    "toy-motorcycle": toy_motorcycle,
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
    doc = read_json(path, PROCEDURE_SCHEMA)
    spath = str(path)
    try:
        states = None
        if doc.get("states") is not None:
            states = tuple(
                AssemblyState.from_string(s["bits"], s.get("state_id"))
                for s in doc["states"]
            )
        return Procedure(
            components=tuple(doc["components"]),
            actions=tuple(a["id"] for a in doc["actions"]),
            action_effects={a["id"]: (a["component"], a["kind"]) for a in doc["actions"]},
            fps=doc["fps"],
            states=states,
            name=doc.get("name", "procedure"),
        )
    except (KeyError, TypeError) as e:
        raise SchemaError(f"malformed procedure document: {e}", path=spath) from e


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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return str(value)


def write_metrics_csv(
    per_video: Mapping[str, EvaluationReport],
    summary: DatasetSummary,
    path: str | Path,
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["video_id", "pos", "precision", "recall", "f1", "tau_s", "tp", "fp", "fn"]
        )
        for vid in sorted(per_video):
            r = per_video[vid]
            writer.writerow(
                [vid, r.pos, r.precision, r.recall, r.f1, _csv_cell(r.tau_s)]
                + list(r.counts)
            )
        writer.writerow(
            ["ALL", summary.pos, summary.precision, summary.recall, summary.f1,
             _csv_cell(summary.tau_s)] + list(summary.counts)
        )


def write_series_csv(rows: Iterable[tuple], path: str | Path) -> None:
    """Per-step confidence and accumulator values over time, for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id", "frame", "step", "action", "prob", "accumulator"])
        for row in rows:
            writer.writerow(list(row))


# ---------------------------------------------------------------------------
# sampler outputs


def write_clip_samples(
    path: str | Path, specs: Mapping[str, Sequence[ClipSpec]], config: Mapping[str, Any]
) -> None:
    records = []
    for video_id in sorted(specs):
        for s in specs[video_id]:
            records.append(
                {
                    "end_frame": s.end_frame,
                    "indices": list(s.indices),
                    "video_id": video_id,
                    "window": s.window,
                }
            )
    write_jsonl(path, CLIP_SAMPLES_SCHEMA, records, header_extra={"config": dict(config)})


def parse_clip_samples(path: str | Path) -> tuple[dict, dict[str, list[ClipSpec]]]:
    spath = str(path)

    def parse_one(rec: dict, lineno: int):
        try:
            return str(rec["video_id"]), ClipSpec(
                end_frame=rec["end_frame"],
                window=rec["window"],
                indices=tuple(rec["indices"]),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"malformed clip record: {e}", spath, lineno) from e

    header, rows = _collect(path, CLIP_SAMPLES_SCHEMA, parse_one, strict=True)
    out: dict[str, list[ClipSpec]] = {}
    for video_id, spec in rows:
        out.setdefault(video_id, []).append(spec)
    return header.get("config", {}), out


def write_kfs_batch(path: str | Path, spec: KfsBatchSpec, config: Mapping[str, Any]) -> None:
    extra = {
        "config": dict(config),
        "t_f": spec.t_f,
        "n_sample": spec.n_sample,
        "n_syn": spec.n_syn,
        "n_state": spec.n_state,
        "fps": spec.fps,
    }
    records = []
    for e in spec.entries:
        rec: dict[str, Any] = {"source": e.source, "state_id": e.state_id}
        if e.source == "real":
            rec["video_id"] = e.video_id
            rec["frame"] = e.frame
        else:
            rec["ref"] = e.ref
        records.append(rec)
    write_jsonl(path, KFS_BATCH_SCHEMA, records, header_extra=extra)


def parse_kfs_batch(path: str | Path) -> KfsBatchSpec:
    spath = str(path)

    def parse_one(rec: dict, lineno: int):
        source = _field(rec, "source", spath, lineno)
        state_id = _int_field(rec, "state_id", spath, lineno, non_negative=False)
        if source == "real":
            return KfsEntry(
                state_id=state_id,
                source="real",
                video_id=str(_field(rec, "video_id", spath, lineno)),
                frame=_int_field(rec, "frame", spath, lineno),
            )
        if source == "synthetic":
            return KfsEntry(
                state_id=state_id, source="synthetic", ref=_field(rec, "ref", spath, lineno)
            )
        raise SchemaError(f"unknown source {source!r}", spath, lineno)

    header, entries = _collect(path, KFS_BATCH_SCHEMA, parse_one, strict=True)
    try:
        return KfsBatchSpec(
            entries=tuple(entries),
            t_f=header["t_f"],
            n_sample=header["n_sample"],
            n_syn=header["n_syn"],
            n_state=header["n_state"],
            fps=header["fps"],
        )
    except KeyError as e:
        raise SchemaError(f"batch header missing {e}", spath, line=1) from e


def load_synthetic_pool(path: str | Path) -> dict[int, list]:
    """A JSON object mapping each state id (a string key) to a list of references."""
    path = Path(path)
    raw = _read_object(path)
    pool = {}
    for key, refs in raw.items():
        try:
            state_id = int(key)
        except ValueError:
            raise SchemaError(f"state id {key!r} is not an integer", path=str(path)) from None
        if not isinstance(refs, list):
            raise SchemaError(f"state {key}: references must be a list", path=str(path))
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
    spath = str(path)

    def parse_one(rec: dict, lineno: int):
        try:
            mask = rec["mask"]
            if any(c not in "01" for c in mask):
                raise SchemaError("mask must be a 0/1 string", spath, lineno)
            return str(rec["video_id"]), [c == "1" for c in mask]
        except KeyError as e:
            raise SchemaError(f"missing field {e}", spath, lineno) from e

    _, rows = _collect(path, OCCLUSION_SCHEMA, parse_one, strict=True)
    return dict(rows)


# ---------------------------------------------------------------------------
# loss batch loaders (columnar text)


def load_embedding_batch(path: str | Path, temperature: float = 0.07) -> EmbeddingBatch:
    """Rows of `<label> <v1> ... <vd>`; blank lines and #-comments ignored."""
    labels = []
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
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
        for no, ln in enumerate(Path(path).read_text().splitlines(), start=1)
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
    return ProbBatch(predictions=np.array(preds), targets=np.array(targets, dtype=int))


# ---------------------------------------------------------------------------
# simulator config


def _json_number(value, hint, where: str):
    """A JSON number checked for a field annotated `hint`: an int field takes
    an integer, any other (float) field a finite number, converted to float."""
    if isinstance(value, bool) or not isinstance(value, int if hint is int else (int, float)):
        raise ConfigError(where, f"has the wrong type: {value!r}")
    if hint is int:
        return value
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(where, f"must be a finite number, got {value!r}")
    return value


def _from_json(cls, doc, section: str = "", **defaults):
    """An instance of dataclass `cls` read from a JSON object.

    Names, types and defaults come from the dataclass fields: a field with no
    default is required, a dataclass-typed field is a nested object read the
    same way (absent means empty), and `defaults` overrides a field's default.
    Unknown keys are rejected; errors name the field as `section.field`.
    """
    if not isinstance(doc, dict):
        raise ConfigError(section, "must be an object")
    prefix = f"{section}." if section else ""
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in doc:
        if key not in names:
            raise ConfigError(prefix + key, "is not a recognized config field")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields:
        where = prefix + f.name
        if dataclasses.is_dataclass(hints[f.name]) and f.name not in defaults:
            kwargs[f.name] = _from_json(hints[f.name], doc.get(f.name, {}), where)
        elif f.name in doc:
            kwargs[f.name] = _json_number(doc[f.name], hints[f.name], where)
        elif f.name in defaults:
            kwargs[f.name] = defaults[f.name]
        elif f.default is dataclasses.MISSING:
            raise ConfigError(where, "is required")
    return cls(**kwargs)


def load_sim_config(path: str | Path):
    """(SimConfig, thresholds dict) from a JSON config document."""
    from .simulator import SimConfig, Thresholds

    doc = read_json(path, SIM_CONFIG_SCHEMA)
    body = {k: v for k, v in doc.items() if k not in ("schema", "version")}
    proc_spec = body.pop("procedure", "toy-motorcycle")
    thresholds = body.pop("thresholds", {})
    if not isinstance(proc_spec, str):
        raise ConfigError("procedure", "must be a builtin name or a file path")
    proc = resolve_procedure(proc_spec)
    config = _from_json(SimConfig, body, procedure=proc, fps=float(proc.fps))
    return config, dataclasses.asdict(_from_json(Thresholds, thresholds, "thresholds"))


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
