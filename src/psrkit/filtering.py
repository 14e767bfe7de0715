"""Streaming confidence-accumulation filter.

Per-frame step probabilities are summed per step until the running total
reaches a threshold, at which point a timestamped step completion is emitted
and the accumulator resets. Steps that receive no evidence on a frame decay
multiplicatively instead. A step that has emitted stays ineligible until the
opposing event kind for the same component is emitted (install unlocks after
remove and vice versa), which stops a single long burst from firing twice.

A whole stream is a `ProbStream`: frame indices and one validated `(T, K)`
array. `filter_stream` runs the filter over such a block; `filter_step`
advances it by a single `ConfidenceFrame`, for online use. Both share the
emission code and give bitwise-equal results for any chunking of a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import AlignmentError, StreamOrderError, StructureError
from .procedure import EventSequence, Procedure, StepEvent

STREAM_IDS = ("asd", "temporal", "fused")

# Accumulated float sums may sit a hair under the threshold they mathematically
# reach (e.g. ten adds of 0.1); treat anything this close as a crossing.
EMIT_TOL = 1e-9


def in_unit_interval(values: Sequence[float]) -> bool:
    """Whether every value lies in [0, 1]; NaN never does."""
    # min/max may pass over a NaN, but a NaN makes the sum NaN.
    return not values or (
        min(values) >= 0.0 and max(values) <= 1.0 and not math.isnan(sum(values))
    )


@dataclass(frozen=True)
class ConfidenceFrame:
    """Per-step completion probabilities for one frame of one stream.

    `stream_id` is checked against `STREAM_IDS` when frames become a
    `ProbStream`, as the stream's kind.
    """

    frame: int
    probs: tuple[float, ...]
    stream_id: str = "fused"

    def __post_init__(self):
        probs = tuple(map(float, self.probs))
        object.__setattr__(self, "probs", probs)
        if self.frame < 0:
            raise StructureError(f"frame must be non-negative, got {self.frame}")
        if not in_unit_interval(probs):
            raise ValueError(f"probabilities outside [0, 1] at frame {self.frame}")


@dataclass(frozen=True, eq=False)
class ProbStream:
    """A per-frame probability stream: frame indices, a `(T, K)` array, its source.

    Validated once at construction: frames are strictly increasing
    non-negative integers, one per row, and every probability lies in
    [0, 1] (NaN rejected). Both arrays are read-only copies, and streams
    compare by value. Indexing and iteration yield `ConfidenceFrame`s;
    slicing yields a stream.
    """

    frames: np.ndarray
    probs: np.ndarray
    kind: str = "fused"

    def __post_init__(self):
        frames = np.asarray(self.frames)
        if frames.size and frames.dtype.kind not in "iu":
            raise StructureError(f"frame indices must be integers, got {frames.dtype}")
        frames = frames.astype(np.int64)
        probs = np.array(self.probs, dtype=np.float64)
        if self.kind not in STREAM_IDS:
            raise StructureError(f"kind must be one of {STREAM_IDS}, got {self.kind!r}")
        if probs.ndim != 2 or frames.shape != probs.shape[:1]:
            raise StructureError(
                f"need one frame index per row of a 2-D array, got "
                f"{frames.shape} indices for an array of shape {probs.shape}"
            )
        if frames.size and frames[0] < 0:
            raise StructureError(f"frame must be non-negative, got {frames[0]}")
        late = np.flatnonzero(frames[1:] <= frames[:-1])
        if late.size:
            t = late[0]
            raise StreamOrderError(f"frame {frames[t + 1]} arrived after frame {frames[t]}")
        bad = np.flatnonzero(~((probs >= 0.0) & (probs <= 1.0)).all(axis=1))
        if bad.size:
            raise ValueError(f"probabilities outside [0, 1] at frame {frames[bad[0]]}")
        frames.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def dense(cls, probs, kind: str = "fused") -> ProbStream:
        """A stream whose row t is frame t."""
        return cls(np.arange(len(probs)), probs, kind)

    @classmethod
    def from_frames(cls, frames: Iterable[ConfidenceFrame]) -> ProbStream:
        """The stream of a sequence of frames; its kind is the first frame's."""
        frames = list(frames)
        width = len(frames[0].probs) if frames else 0
        for f in frames:
            if len(f.probs) != width:
                raise StructureError(
                    f"frame {f.frame} carries {len(f.probs)} probs, expected {width}"
                )
        return cls(
            np.array([f.frame for f in frames], dtype=np.int64),
            np.array([f.probs for f in frames], dtype=np.float64).reshape(len(frames), width),
            frames[0].stream_id if frames else "fused",
        )

    @property
    def n_steps(self) -> int:
        return self.probs.shape[1]

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ProbStream(self.frames[i], self.probs[i], self.kind)
        return ConfidenceFrame(int(self.frames[i]), tuple(self.probs[i].tolist()), self.kind)

    def __iter__(self):
        for frame, row in zip(self.frames.tolist(), self.probs.tolist()):
            yield ConfidenceFrame(frame, tuple(row), self.kind)

    def __eq__(self, other):
        if not isinstance(other, ProbStream):
            return NotImplemented
        return (
            self.kind == other.kind
            and np.array_equal(self.frames, other.frames)
            and np.array_equal(self.probs, other.probs)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"ProbStream(kind={self.kind!r}, frames={len(self)}, n_steps={self.n_steps})"


def as_stream(frames: ProbStream | Iterable[ConfidenceFrame]) -> ProbStream:
    """`frames` itself if it is a stream, else the stream of its frames."""
    return frames if isinstance(frames, ProbStream) else ProbStream.from_frames(frames)


@dataclass
class FilterState:
    """Mutable per-video accumulator state; single-owner, one stream at a time."""

    procedure: Procedure
    threshold: float
    decay: float = 0.75
    evidence_floor: float = 0.0
    accumulators: np.ndarray = field(init=False)
    last_kind: list = field(init=False)
    last_frame: int | None = field(default=None, init=False)

    def __post_init__(self):
        if not 0.0 < self.threshold < math.inf:
            raise ValueError(
                f"threshold must be a positive finite number, got {self.threshold}"
            )
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay retention must be in (0, 1], got {self.decay}")
        if not 0.0 <= self.evidence_floor < math.inf:
            raise ValueError(
                "evidence floor must be a non-negative finite number, "
                f"got {self.evidence_floor}"
            )
        self.accumulators = np.zeros(self.procedure.n_steps)
        self.last_kind = [None] * self.procedure.n_components


def _advance(acc: np.ndarray, evidence: np.ndarray, probs: np.ndarray, decay: float):
    """Accumulators after a row: evidence adds its probability, the rest decays."""
    return np.where(evidence, acc + probs, acc * decay)


def _emit(state: FilterState, frame: int) -> tuple[list[StepEvent], bool]:
    """Emit every eligible step whose accumulator reached the threshold.

    Crossings emit in ascending step index and reset their accumulator, and
    eligibility updates from those emissions apply immediately. Returns the
    events and whether an ineligible crossing was held back, which is the
    only way an accumulator stays at or above the threshold.
    """
    proc = state.procedure
    acc = state.accumulators
    emitted: list[StepEvent] = []
    held = False
    for k in np.flatnonzero(acc >= state.threshold - EMIT_TOL).tolist():
        action = proc.actions[k]
        component, kind = proc.effect(action)
        if state.last_kind[component] == kind:
            held = True  # already recognized; wait for the opposing event
            continue
        emitted.append(proc.make_event(action, frame))
        state.last_kind[component] = kind
        acc[k] = 0.0
    return emitted, held


def filter_step(
    state: FilterState, frame: ConfidenceFrame
) -> tuple[FilterState, list[StepEvent]]:
    """Advance the filter by one frame, returning it and any emitted events.

    The state is updated in place and returned for chaining. Within a frame,
    simultaneous crossings emit in ascending step index, and eligibility
    updates from those emissions apply immediately.
    """
    if len(frame.probs) != state.procedure.n_steps:
        raise StructureError(
            f"frame {frame.frame} carries {len(frame.probs)} probs, "
            f"expected {state.procedure.n_steps}"
        )
    if state.last_frame is not None and frame.frame <= state.last_frame:
        raise StreamOrderError(
            f"frame {frame.frame} arrived after frame {state.last_frame}"
        )
    probs = np.array(frame.probs)
    state.accumulators = _advance(
        state.accumulators, probs > state.evidence_floor, probs, state.decay
    )
    emitted, _ = _emit(state, frame.frame)
    state.last_frame = frame.frame
    return state, emitted


def filter_stream(
    state: FilterState, stream: ProbStream, record: np.ndarray | None = None
) -> list[StepEvent]:
    """Advance the filter over every row of `stream`, returning the emitted events.

    Bitwise equal to folding `filter_step` over the stream's frames. A row
    without evidence only decays, in place; the threshold is checked on it
    only while a held-back crossing may still be over the threshold. With
    `record`, an array of the stream's shape, row t receives the
    accumulators after row t.
    """
    if not len(stream):
        return []
    n_steps = state.procedure.n_steps
    if stream.n_steps != n_steps:
        raise StructureError(
            f"frame {stream.frames[0]} carries {stream.n_steps} probs, expected {n_steps}"
        )
    frames = stream.frames.tolist()
    if state.last_frame is not None and frames[0] <= state.last_frame:
        raise StreamOrderError(f"frame {frames[0]} arrived after frame {state.last_frame}")
    probs = stream.probs
    decay = state.decay
    evidence = probs > state.evidence_floor
    acc = state.accumulators = np.array(state.accumulators, dtype=np.float64)
    events: list[StepEvent] = []
    hot = True  # a state carried over may hold a crossing
    for t, has_evidence in enumerate(evidence.any(axis=1).tolist()):
        if has_evidence:
            acc = state.accumulators = _advance(acc, evidence[t], probs[t], decay)
            hot = True
        else:
            acc *= decay  # never raises a value, so a cold state stays cold
        if hot:
            emitted, hot = _emit(state, frames[t])
            events.extend(emitted)
        if record is not None:
            record[t] = acc
    state.last_frame = frames[-1]
    return events


def run_filter(
    frames: ProbStream | Iterable[ConfidenceFrame],
    proc: Procedure,
    threshold: float,
    decay: float = 0.75,
    evidence_floor: float = 0.0,
    video_id: str = "video",
    record: np.ndarray | None = None,
) -> EventSequence:
    """Filter a whole ordered stream into an event sequence.

    Equivalent to folding `filter_step` over the frames in any chunking.
    `record` is passed on to `filter_stream`.
    """
    state = FilterState(
        procedure=proc,
        threshold=threshold,
        decay=decay,
        evidence_floor=evidence_floor,
    )
    events = filter_stream(state, as_stream(frames), record)
    return EventSequence.from_events(events, video_id=video_id, fps=proc.fps)


def _check_weights(w_asd: float, w_temporal: float) -> None:
    if w_asd < 0 or w_temporal < 0 or abs(w_asd + w_temporal - 1.0) > 1e-12:
        raise ValueError("fusion weights must be non-negative and sum to 1")


def fuse(
    asd: ConfidenceFrame,
    temporal: ConfidenceFrame,
    w_asd: float = 0.5,
    w_temporal: float = 0.5,
) -> ConfidenceFrame:
    """Element-wise weighted average of two aligned frames (default 0.5/0.5).

    Weights may sum to a hair over 1, so fused values are clamped at 1.
    """
    _check_weights(w_asd, w_temporal)
    if asd.frame != temporal.frame:
        raise AlignmentError(
            f"frame mismatch: {asd.frame} vs {temporal.frame}"
        )
    if len(asd.probs) != len(temporal.probs):
        raise AlignmentError(
            f"length mismatch at frame {asd.frame}: "
            f"{len(asd.probs)} vs {len(temporal.probs)}"
        )
    fused = [w_asd * a + w_temporal * t for a, t in zip(asd.probs, temporal.probs)]
    if fused and max(fused) > 1.0:
        fused = [min(p, 1.0) for p in fused]
    return ConfidenceFrame(frame=asd.frame, probs=fused, stream_id="fused")


def fuse_streams(
    asd_frames: ProbStream | Sequence[ConfidenceFrame],
    temporal_frames: ProbStream | Sequence[ConfidenceFrame],
    w_asd: float = 0.5,
    w_temporal: float = 0.5,
) -> ProbStream:
    """Fuse two streams frame by frame, as `fuse` does; both must cover the same frames."""
    _check_weights(w_asd, w_temporal)
    if len(asd_frames) != len(temporal_frames):
        raise AlignmentError(
            f"streams differ in length: {len(asd_frames)} vs {len(temporal_frames)}"
        )
    a, b = as_stream(asd_frames), as_stream(temporal_frames)
    apart = np.flatnonzero(a.frames != b.frames)
    if apart.size:
        t = apart[0]
        raise AlignmentError(f"frame mismatch: {a.frames[t]} vs {b.frames[t]}")
    if len(a) and a.n_steps != b.n_steps:
        raise AlignmentError(
            f"length mismatch at frame {a.frames[0]}: {a.n_steps} vs {b.n_steps}"
        )
    fused = w_asd * a.probs + w_temporal * b.probs
    np.minimum(fused, 1.0, out=fused)
    return ProbStream(a.frames, fused, "fused")
