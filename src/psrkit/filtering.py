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
`filter_stream` spends Python time per evidence row and per possible
crossing: it calls the emission code only where a bound on the eligible
accumulators reaches the threshold, and decays a run of silent rows in bulk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .errors import AlignmentError, StreamOrderError, StructureError
from .procedure import EventSequence, Procedure, StepEvent, check_frame

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
        if type(self.frame) is not int or self.frame < 0:  # the common case without a call
            check_frame(self.frame)
        if not in_unit_interval(probs):
            raise ValueError(f"probabilities outside [0, 1] at frame {self.frame}")


@dataclass(frozen=True, eq=False)
class ProbStream:
    """A per-frame probability stream: frame indices, a `(T, K)` array, its source.

    Validated once at construction: frames are strictly increasing
    non-negative integers, one per row, and every probability lies in
    [0, 1] (NaN rejected). Both arrays are read-only copies, and streams
    compare by value. Iteration yields `ConfidenceFrame`s; slicing yields a
    stream, and `stream.probs[t]` is row t.
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
        frames.flags.writeable = probs.flags.writeable = False
        self.__dict__.update(frames=frames, probs=probs)

    @classmethod
    def _adopt(cls, frames: np.ndarray, probs: np.ndarray, kind: str) -> ProbStream:
        """A stream of arrays psrkit built and checked, shared with no caller: made read-only."""
        frames.flags.writeable = probs.flags.writeable = False
        stream = object.__new__(cls)
        stream.__dict__.update(frames=frames, probs=probs, kind=kind)
        return stream

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

    def __getitem__(self, i: slice) -> ProbStream:
        if not isinstance(i, slice):
            raise TypeError(f"index a stream by slice, not {i!r}; stream.probs[t] is row t")
        return ProbStream(self.frames[i], self.probs[i], self.kind)

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

    def __post_init__(self):  # a bool compares as 0 or 1, but is no number here
        if isinstance(self.threshold, bool) or not 0.0 < self.threshold < math.inf:
            raise ValueError(
                f"threshold must be a positive finite number, got {self.threshold}"
            )
        if isinstance(self.decay, bool) or not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay retention must be in (0, 1], got {self.decay}")
        if isinstance(self.evidence_floor, bool) or not 0.0 <= self.evidence_floor < math.inf:
            raise ValueError(
                "evidence floor must be a non-negative finite number, "
                f"got {self.evidence_floor}"
            )
        self.accumulators = np.zeros(self.procedure.n_steps)
        self.last_kind = [None] * self.procedure.n_components


def _emit(state: FilterState, frame: int) -> list[StepEvent]:
    """Emit every eligible step whose accumulator reached the threshold.

    Crossings emit in ascending step index and reset their accumulator, and
    eligibility updates from those emissions apply immediately.
    """
    proc = state.procedure
    acc = state.accumulators
    floor = state.threshold - EMIT_TOL
    if acc.max(initial=0.0) < floor:  # accumulators are >= 0; there may be no steps
        return []
    emitted: list[StepEvent] = []
    for k in np.flatnonzero(acc >= floor).tolist():
        action = proc.actions[k]
        component, kind = proc.effect(action)
        if state.last_kind[component] == kind:
            continue  # already recognized; wait for the opposing event
        emitted.append(proc.make_event(action, frame))
        state.last_kind[component] = kind
        acc[k] = 0.0
    return emitted


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
    probs = np.fromiter(frame.probs, np.float64, state.procedure.n_steps)
    acc = state.accumulators
    state.accumulators = np.where(probs > state.evidence_floor, acc + probs, acc * state.decay)
    emitted = _emit(state, frame.frame)
    state.last_frame = frame.frame
    return state, emitted


def filter_stream(state: FilterState, stream: ProbStream) -> list[StepEvent]:
    """Advance the filter over every row of `stream`, returning the emitted events.

    Bitwise equal to folding `filter_step` over the stream's frames. Python
    work is per evidence row and per possible crossing: `_emit` runs only where
    a bound on the eligible accumulators, grown by each evidence row's largest
    add (the runner-up's if that step is held) and then tightened, reaches the
    threshold; silent runs decay in bulk.
    """
    n, proc = len(stream), state.procedure
    if not n:
        return []
    frames, n_steps = stream.frames, proc.n_steps
    if stream.n_steps != n_steps:
        raise StructureError(f"frame {frames[0]} carries {stream.n_steps} probs, expected {n_steps}")
    if state.last_frame is not None and frames[0] <= state.last_frame:
        raise StreamOrderError(f"frame {frames[0]} arrived after frame {state.last_frame}")
    decay, floor = state.decay, state.threshold - EMIT_TOL
    evidence = stream.probs > state.evidence_floor
    rows = np.flatnonzero(np.bincount(np.flatnonzero(evidence) // max(n_steps, 1)))
    # x * 1.0 + p == x + p, and x * decay + 0.0 == x * decay as no accumulator is -0.0
    scale = np.where(evidence[rows], 1.0, decay)
    add = np.where(evidence[rows], stream.probs[rows], 0.0)
    top_step = add.argmax(axis=1) if rows.size else rows
    others = add.T.copy()
    top = others[top_step, np.arange(rows.size)].tolist()
    others[top_step, np.arange(rows.size)] = 0.0
    second, top_step = others.max(axis=0, initial=0.0).tolist(), top_step.tolist()
    effects = list(map(proc.action_effects.__getitem__, proc.actions))
    silent = None  # made at the first silent run to decay: row 0 takes the accumulators, 256 rows decay them
    acc = state.accumulators = np.array(state.accumulators, dtype=np.float64)
    events: list[StepEvent] = []

    def opened() -> list[bool]:  # the steps that may emit, as the last kinds stand
        return [state.last_kind[c] != kind for c, kind in effects]

    def settle(frame: int) -> float:  # the bound tightened; `_emit` if it still reaches T
        nonlocal is_open
        bound = max(compress(acc.tolist(), is_open), default=0.0)
        if bound >= floor and (emitted := _emit(state, frame)):
            events.extend(emitted)
            is_open = opened()
            bound = max(compress(acc.tolist(), is_open), default=0.0)
        return bound

    is_open = opened()
    bound, zero, t = math.inf, not acc.any(), 0  # the first row tightens the bound
    for i, e in enumerate([*rows.tolist(), n]):  # t is the next row to advance
        while t < e and bound >= floor:  # a crossing may be eligible: row by row
            acc *= decay
            bound = settle(int(frames[t]))
            t += 1
        if t < e and not zero:  # the rest of a silent run in bulk, 256 rows at a time; 0.0 * decay is 0.0
            silent = np.full((257, n_steps), decay) if silent is None else silent
            for lo in range(t, e, 256):
                run = silent[:min(e - lo, 256) + 1]
                run[0] = acc
                np.multiply.reduce(run, axis=0, out=acc)  # row by row, in order, as the fold multiplies
        if e == n:
            break
        acc *= scale[i]
        acc += add[i]
        zero = False
        bound += top[i] if is_open[top_step[i]] else second[i]
        if bound >= floor:
            bound = settle(int(frames[e]))
        t = e + 1
    state.last_frame = int(frames[-1])
    return events


def run_filter(
    stream: ProbStream,
    proc: Procedure,
    threshold: float,
    decay: float = 0.75,
    evidence_floor: float = 0.0,
    video_id: str = "video",
) -> EventSequence:
    """Filter a whole ordered stream into an event sequence.

    Equivalent to folding `filter_step` over the stream's frames in any chunking.
    """
    state = FilterState(
        procedure=proc,
        threshold=threshold,
        decay=decay,
        evidence_floor=evidence_floor,
    )
    events = filter_stream(state, stream)
    return EventSequence.from_events(events, video_id=video_id, fps=proc.fps)


def fuse(asd: ConfidenceFrame, temporal: ConfidenceFrame) -> ConfidenceFrame:
    """Element-wise average of two aligned frames."""
    if asd.frame != temporal.frame:
        raise AlignmentError(
            f"frame mismatch: {asd.frame} vs {temporal.frame}"
        )
    if len(asd.probs) != len(temporal.probs):
        raise AlignmentError(
            f"length mismatch at frame {asd.frame}: "
            f"{len(asd.probs)} vs {len(temporal.probs)}"
        )
    fused = object.__new__(ConfidenceFrame)  # checked inputs bound their average: no check
    fused.__dict__.update(frame=asd.frame, stream_id="fused", probs=tuple(
        [0.5 * a + 0.5 * t for a, t in zip(asd.probs, temporal.probs)]))
    return fused


def fuse_streams(
    asd: ProbStream | Sequence[ConfidenceFrame],
    temporal: ProbStream | Sequence[ConfidenceFrame],
) -> ProbStream:
    """Fuse two streams frame by frame, as `fuse` does; both must cover the same frames."""
    if len(asd) != len(temporal):
        raise AlignmentError(f"streams differ in length: {len(asd)} vs {len(temporal)}")
    a, b = (s if isinstance(s, ProbStream) else ProbStream.from_frames(s) for s in (asd, temporal))
    apart = np.flatnonzero(a.frames != b.frames)
    if apart.size:
        t = apart[0]
        raise AlignmentError(f"frame mismatch: {a.frames[t]} vs {b.frames[t]}")
    if len(a) and a.n_steps != b.n_steps:
        raise AlignmentError(f"length mismatch at frame {a.frames[0]}: {a.n_steps} vs {b.n_steps}")
    probs = np.multiply(b.probs, 0.5)  # checked inputs bound their average: no check
    for lo in range(0, len(probs), 256):  # + is commutative; a block at a time, no dense temporary
        probs[lo:lo + 256] += 0.5 * a.probs[lo:lo + 256]
    return ProbStream._adopt(a.frames, probs, "fused")
