"""Step inference from assembly-state detections.

A state detector only says which construction state it currently sees. The
steps are recovered by diffing each newly accepted state against the last
accepted one and mapping the changed components through the procedure's
action table. The result is a per-frame probability stream that feeds the
same recognition filter as any other stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StreamOrderError, StructureError, UnknownTransitionError
from .filtering import ProbStream
from .procedure import ActionId, AssemblyState, Procedure


@dataclass(frozen=True)
class StateDetection:
    """One detector observation: the assembly state seen at a frame."""

    frame: int
    state: AssemblyState
    confidence: float

    def __post_init__(self):
        if self.frame < 0:
            raise StructureError(f"frame must be non-negative, got {self.frame}")
        if not 0.0 <= self.confidence <= 1.0:
            raise StructureError(
                f"confidence must be in [0, 1], got {self.confidence}"
            )


def infer_steps(
    prev: StateDetection | None,
    next: StateDetection,
    proc: Procedure,
) -> list[ActionId]:
    """Actions required to transform the previous state into the new one, in
    ascending component order; each action's kind is `proc.effect(action)[1]`.

    `prev=None` means the all-zero initial state. A changed component with no
    matching action raises UnknownTransitionError rather than being dropped.
    """
    prev_state = (
        prev.state if prev is not None else AssemblyState((0,) * proc.n_components)
    )
    if prev_state.width != proc.n_components or next.state.width != proc.n_components:
        raise StructureError("detection bit width does not match the procedure")
    try:
        return proc.transition_actions(prev_state, next.state)
    except UnknownTransitionError as e:
        raise UnknownTransitionError(e.component, e.kind, frame=next.frame) from None


def asd_stream_probs(
    detections: Sequence[StateDetection],
    proc: Procedure,
    video_len: int,
    min_confidence: float = 0.0,
) -> ProbStream:
    """Per-frame step probabilities implied by a detection sequence.

    Returns a dense "asd" stream, one row per frame in [0, video_len): on
    a frame whose detection implies a state transition, every inferred step
    carries the detection's confidence; all other frames are all-zero,
    driving decay downstream. The remembered previous state is the last
    detection whose steps were emitted, so a flickering detector cannot
    re-infer the same transition.
    """
    if video_len <= 0:
        raise ValueError(f"video_len must be positive, got {video_len}")
    if math.isnan(min_confidence):
        raise ValueError("min_confidence must be a number, got nan")
    probs = np.zeros((video_len, proc.n_steps))
    accepted: StateDetection | None = None
    last_frame = -1
    for det in detections:
        if det.frame <= last_frame:
            raise StreamOrderError(
                f"detection at frame {det.frame} arrived after frame {last_frame}"
            )
        last_frame = det.frame
        if det.frame >= video_len:
            raise StructureError(
                f"detection frame {det.frame} outside video of length {video_len}"
            )
        if det.confidence < min_confidence:
            continue
        steps = infer_steps(accepted, det, proc)
        if not steps:
            continue
        for action in steps:
            probs[det.frame, proc.step_index(action)] = det.confidence
        accepted = det
    return ProbStream.dense(probs, "asd")
