"""Shared builders for tests."""

from __future__ import annotations

import numpy as np

from psrkit import INSTALL, EventSequence, ProbStream, StepEvent


def seq_of(pairs, fps=10.0, video_id="v"):
    """Build a sequence from (action, frame) or (action, frame, correct) tuples.

    Component is set equal to the action id and kind to install; metric tests
    do not care about effects, only ids and times.
    """
    events = []
    for p in pairs:
        action, frame, *rest = p
        correct = rest[0] if rest else True
        events.append(
            StepEvent(action=action, component=action, kind=INSTALL, correct=correct, frame=frame)
        )
    return EventSequence.from_events(events, video_id=video_id, fps=fps)


def random_event_set(rng: np.random.Generator, proc, n_events: int, max_frame: int):
    """Random valid events over a real procedure: unique (frame, action) pairs."""
    events = []
    seen = set()
    actions = proc.actions
    for _ in range(n_events):
        for _attempt in range(50):
            action = int(actions[rng.integers(len(actions))])
            frame = int(rng.integers(0, max_frame))
            if (frame, action) not in seen:
                seen.add((frame, action))
                events.append(proc.make_event(action, frame, correct=bool(rng.random() < 0.9)))
                break
    return EventSequence.from_events(events, video_id="rand", fps=proc.fps)


def constant_stream(n_steps, step, p, frames, kind="temporal"):
    """A stream carrying probability p at one step index on `frames`, zero elsewhere."""
    frames = list(frames)
    probs = np.zeros((len(frames), n_steps))
    probs[:, step] = p
    return ProbStream(frames, probs, kind)
