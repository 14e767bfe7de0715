"""Core domain model: procedures, assembly states, and step-event sequences.

Frames are the canonical time unit everywhere in this package: an event
stores only its frame, and its time in seconds is ``event.frame / seq.fps``.
All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import groupby, takewhile
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import StructureError, UnknownTransitionError

ActionId = int

INSTALL = "install"
REMOVE = "remove"
KINDS = (INSTALL, REMOVE)


def check_frame(frame: int) -> None:
    """A frame index is a non-negative integer, Python or numpy; a bool is none."""
    if type(frame) is not int and (not isinstance(frame, numbers.Integral) or isinstance(frame, bool)):
        raise StructureError(f"frame must be an integer, got {frame!r}")
    if frame < 0:
        raise StructureError(f"frame must be non-negative, got {frame}")


def _check_fps(fps: float) -> None:
    if not 0 < fps < math.inf:
        raise StructureError(f"fps must be a finite positive number, got {fps}")


@dataclass(frozen=True)
class AssemblyState:
    """A fixed-width component bit-vector; bit c is 1 iff component c is installed."""

    bits: tuple[int, ...]
    state_id: int | None = None

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if not bits:
            raise StructureError("assembly state needs at least one component bit")
        if any(b not in (0, 1) for b in bits):
            raise StructureError(f"bits must be 0/1, got {self.bits!r}")
        object.__setattr__(self, "bits", bits)

    @property
    def width(self) -> int:
        return len(self.bits)

    @classmethod
    def from_string(cls, text: str, state_id: int | None = None) -> "AssemblyState":
        bits = text.strip() if isinstance(text, str) else ""
        if not bits or any(c not in "01" for c in bits):
            raise StructureError(f"bit string must be non-empty 0/1, got {text!r}")
        return cls(tuple(int(c) for c in bits), state_id)

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __str__(self) -> str:
        return self.to_string()


def state_diff(prev: AssemblyState, next: AssemblyState) -> list[tuple[int, str]]:
    """Component changes turning `prev` into `next`.

    One entry per differing bit, ordered by component index ascending;
    a 0->1 flip is an install, a 1->0 flip is a remove.
    """
    if prev.width != next.width:
        raise StructureError(
            f"bit width mismatch: {prev.width} vs {next.width}"
        )
    diff = []
    for c, (a, b) in enumerate(zip(prev.bits, next.bits)):
        if a != b:
            diff.append((c, INSTALL if b else REMOVE))
    return diff


@dataclass(frozen=True)
class StepEvent:
    """One completed (or attempted) procedure step at a specific frame.

    Its time in seconds is `frame / fps` of the sequence holding it.
    """

    action: ActionId
    component: int
    kind: str
    correct: bool
    frame: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise StructureError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not type(self.action) is type(self.component) is type(self.frame) is int:
            for name in ("action", "component", "frame"):  # a numpy integer is stored as the int JSON writes
                if not isinstance(value := getattr(self, name), numbers.Integral) or type(value) is bool:
                    raise StructureError(f"{name} must be an integer, got {value!r}")
                object.__setattr__(self, name, int(value))
        check_frame(self.frame)
        if self.component < 0:
            raise StructureError(f"component must be non-negative, got {self.component}")
        if type(self.correct) is not bool:
            raise StructureError(f"correct must be a boolean, got {self.correct!r}")


@dataclass(frozen=True)
class Procedure:
    """The action vocabulary, component set, and optional nominal state sequence.

    `actions` fixes step indexing: the probability vector handed to the
    recognition filter has one slot per action, in this order. Action ids are
    plain integers so that the deterministic tie order for simultaneous events
    (ascending action id) is also the emission order of the filter.
    """

    components: tuple[str, ...]
    actions: tuple[ActionId, ...]
    action_effects: Mapping[ActionId, tuple[int, str]]
    fps: float
    states: tuple[AssemblyState, ...] | None = None
    name: str = "procedure"

    # derived lookups, built once in __post_init__
    _index_of: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _action_of_effect: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _state_of_bits: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        components = tuple(str(c) for c in self.components)
        actions = tuple(int(a) for a in self.actions)
        effects = {int(a): (int(c), str(k)) for a, (c, k) in self.action_effects.items()}
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "action_effects", effects)
        if not components:
            raise StructureError("procedure needs at least one component")
        _check_fps(self.fps)
        if len(set(actions)) != len(actions):
            raise StructureError("action ids must be unique")
        if set(effects) != set(actions):
            raise StructureError("action_effects must cover exactly the declared actions")
        for a, (c, k) in effects.items():
            if not 0 <= c < len(components):
                raise StructureError(f"action {a} references component {c} >= C={len(components)}")
            if k not in KINDS:
                raise StructureError(f"action {a} has invalid kind {k!r}")
        if len(set(effects.values())) != len(effects):
            raise StructureError("two actions share the same (component, kind) effect")
        if self.states is not None:
            states = tuple(self.states)
            object.__setattr__(self, "states", states)
            ids = [s.state_id for s in states if s.state_id is not None]
            if len(set(ids)) != len(ids):
                raise StructureError("state ids must be unique within a procedure")
            for s in states:
                if s.width != len(components):
                    raise StructureError(
                        f"state {s.state_id} width {s.width} != C={len(components)}"
                    )
            for a, b in zip(states, states[1:]):
                if a.bits == b.bits:
                    raise StructureError(
                        f"consecutive states {a.state_id} and {b.state_id} are identical"
                    )
            object.__setattr__(
                self, "_state_of_bits", {s.bits: s for s in states}
            )
        object.__setattr__(self, "_index_of", {a: i for i, a in enumerate(actions)})
        object.__setattr__(self, "_action_of_effect", {e: a for a, e in effects.items()})

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def n_steps(self) -> int:
        return len(self.actions)

    def step_index(self, action: ActionId) -> int:
        return self._index_of[action]

    def effect(self, action: ActionId) -> tuple[int, str]:
        return self.action_effects[action]

    def action_for(self, component: int, kind: str) -> ActionId | None:
        """The action producing this effect, or None if the procedure has no such step."""
        return self._action_of_effect.get((component, kind))

    def action_label(self, action: ActionId) -> str:
        c, k = self.action_effects[action]
        return f"{k} {self.components[c]}"

    def state_for_bits(self, bits: tuple[int, ...]) -> AssemblyState | None:
        return self._state_of_bits.get(tuple(bits))

    def transition_actions(self, prev: AssemblyState, next: AssemblyState) -> list[ActionId]:
        """The actions turning `prev` into `next`, in ascending component order.

        A changed component that no action covers raises UnknownTransitionError.
        """
        actions = []
        for component, kind in state_diff(prev, next):
            action = self._action_of_effect.get((component, kind))
            if action is None:
                raise UnknownTransitionError(component, kind)
            actions.append(action)
        return actions

    def make_event(
        self, action: ActionId, frame: int, correct: bool = True
    ) -> StepEvent:
        """Build a StepEvent for `action` at `frame`, deriving component and kind."""
        c, k = self.action_effects[action]
        return StepEvent(action=action, component=c, kind=k, correct=correct, frame=frame)


@dataclass(frozen=True)
class EventSequence:
    """Step events of one video, sorted by frame with ties broken by action id."""

    events: tuple[StepEvent, ...]
    video_id: str = "video"
    fps: float = 10.0

    def __post_init__(self):
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        _check_fps(self.fps)
        keys = [(e.frame, e.action) for e in events]
        if keys != sorted(keys):
            raise StructureError("events must be sorted by (frame, action)")
        if len(set(keys)) != len(keys):
            raise StructureError("two events share the same (frame, action)")

    @classmethod
    def from_events(
        cls, events: Iterable[StepEvent], video_id: str = "video", fps: float = 10.0
    ) -> "EventSequence":
        """Sort events into canonical order and validate."""
        ordered = sorted(events, key=lambda e: (e.frame, e.action))
        return cls(tuple(ordered), video_id=video_id, fps=fps)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[StepEvent]:
        return iter(self.events)

    def actions(self) -> list[ActionId]:
        return [e.action for e in self.events]

    def correct_only(self) -> "EventSequence":
        """The sub-sequence of correctly executed steps (the metric ground truth)."""
        return EventSequence(
            tuple(e for e in self.events if e.correct),
            video_id=self.video_id,
            fps=self.fps,
        )


def replay(
    events: Iterable[StepEvent], proc: Procedure
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(frame, component bits) after all of `events` at each distinct frame.

    `events` come in sequence order. Each sets its component's bit (1 for an
    install, 0 for a remove); components no event touched are 0.
    """
    bits = [0] * proc.n_components
    for frame, group in groupby(events, key=attrgetter("frame")):
        for e in group:
            if e.component >= proc.n_components:
                raise StructureError(
                    f"event references component {e.component} >= C={proc.n_components}"
                )
            bits[e.component] = 1 if e.kind == INSTALL else 0
        yield frame, tuple(bits)


def cumulative_state(seq: EventSequence, proc: Procedure, frame: int) -> AssemblyState:
    """The component state implied by all events at or before `frame`.

    The returned state carries a state_id when the bit pattern matches one of
    the procedure's known states.
    """
    if frame < 0:
        raise StructureError(f"frame must be non-negative, got {frame}")
    bits = (0,) * proc.n_components
    for _, bits in replay(takewhile(lambda e: e.frame <= frame, seq.events), proc):
        pass
    known = proc.state_for_bits(bits)
    return known if known is not None else AssemblyState(bits)


def nominal_events(
    proc: Procedure, transition_frames: Sequence[int], video_id: str = "video"
) -> EventSequence:
    """Ground truth for a nominal execution of the procedure's state sequence.

    `transition_frames[i]` is the completion frame of the transition from
    state i to state i+1; every step of a transition completes at that frame.
    """
    if proc.states is None:
        raise StructureError("procedure has no nominal state sequence")
    if len(transition_frames) != len(proc.states) - 1:
        raise StructureError(
            f"need {len(proc.states) - 1} transition frames, got {len(transition_frames)}"
        )
    events = [
        proc.make_event(action, int(frame))
        for prev, nxt, frame in zip(proc.states, proc.states[1:], transition_frames)
        for action in proc.transition_actions(prev, nxt)
    ]
    return EventSequence.from_events(events, video_id=video_id, fps=proc.fps)


_TOY_COMPONENTS = (
    "left damping fork",
    "right damping fork",
    "left rear chassis",
    "right rear chassis",
    "left frame",
    "right frame",
    "left tail wing",
    "right tail wing",
    "headlamp",
    "left handle",
    "right handle",
    "front wheel",
    "rear wheel",
    "swingarm",
    "fuel tank",
    "tail wing pin",
    "driving shaft",
)

_TOY_STATES = (
    "00000000000000000",
    "10001000100000000",
    "11001100100000000",
    "11001100111000000",
    "11101110111000000",
    "11111110111001000",
    "11111111111001000",
    "11111111111001001",
    "11111111111001101",
    "11111111111101101",
    "11111111111111101",
    "11111111111111111",
)


def toy_motorcycle(fps: float = 10.0) -> Procedure:
    """The 17-component toy motorcycle build with its 12 nominal assembly states.

    Action ids 0..16 install component i; ids 17..33 remove component i-17.
    """
    n = len(_TOY_COMPONENTS)
    effects: dict[ActionId, tuple[int, str]] = {}
    for c in range(n):
        effects[c] = (c, INSTALL)
        effects[n + c] = (c, REMOVE)
    states = tuple(
        AssemblyState.from_string(bits, state_id=i) for i, bits in enumerate(_TOY_STATES)
    )
    return Procedure(
        components=_TOY_COMPONENTS,
        actions=tuple(range(2 * n)),
        action_effects=effects,
        fps=fps,
        states=states,
        name="toy-motorcycle",
    )
