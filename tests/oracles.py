"""Independent reference implementations the real code is checked against.

Everything here is deliberately naive: uniform-cost search instead of dynamic
programming, double loops instead of vectorized math, dict replays instead of
the library's own state walk. None of it imports the implementation paths it
verifies.
"""

from __future__ import annotations

import heapq
import json
import math

import numpy as np


def filter_fold(proc, frames, rows, threshold, decay=0.75, evidence_floor=0.0):
    """The recognition filter one frame at a time, as first written.

    Returns (events, accumulators after each frame, last kind per component,
    last frame).
    """
    acc = np.zeros(proc.n_steps)
    last_kind = [None] * proc.n_components
    events, history = [], []
    last_frame = None
    for frame, row in zip(frames, rows):
        probs = np.asarray(row, dtype=float)
        evidence = probs > evidence_floor
        acc = np.where(evidence, acc + probs, acc * decay)
        for k in np.nonzero(acc >= threshold - 1e-9)[0]:
            action = proc.actions[int(k)]
            component, kind = proc.effect(action)
            if last_kind[component] == kind:
                continue  # already recognized; wait for the opposing event
            events.append(proc.make_event(action, frame))
            last_kind[component] = kind
            acc[int(k)] = 0.0
        history.append(acc.copy())
        last_frame = frame
    return events, history, last_kind, last_frame


def occlusion_mask(draws, p_occlude, p_reveal):
    """The two-state occlusion chain one frame at a time, as first written:
    a visible frame occludes on a draw under p_occlude, an occluded one is
    revealed on a draw under p_reveal."""
    mask, occluded = [], False
    for draw in draws:
        occluded = draw >= p_reveal if occluded else draw < p_occlude
        mask.append(occluded)
    return mask


def naive_asd_probs(detections, proc, video_len, min_confidence=0.0):
    """State-stream probabilities with a transition inferred on every detection.

    `asd_stream_probs` skips a detection that repeats the accepted state;
    this calls `infer_steps` on each one that passes the confidence gate.
    Returns a (video_len, n_steps) array.
    """
    from psrkit.errors import StreamOrderError, StructureError
    from psrkit.state_inference import infer_steps

    probs = np.zeros((video_len, proc.n_steps))
    accepted, last_frame = None, -1
    for det in detections:
        if det.frame <= last_frame:
            raise StreamOrderError(f"detection at frame {det.frame} arrived after frame {last_frame}")
        last_frame = det.frame
        if det.frame >= video_len:
            raise StructureError(f"detection frame {det.frame} outside video of length {video_len}")
        if det.confidence < min_confidence:
            continue
        steps = infer_steps(accepted, det, proc)
        for action in steps:
            probs[det.frame, proc.step_index(action)] = det.confidence
        if steps:
            accepted = det
    return probs


def brute_edit_distance(a, b, ins=1.0, delete=1.0, sub=1.0, trans=1.0):
    """Cheapest op sequence turning `a` into `b`, by uniform-cost search.

    Ops: delete any item, substitute any item, insert any alphabet item,
    swap two adjacent items. Intermediate strings are allowed to grow a
    little beyond the longer input, which is more than optimal paths need.
    """
    a, b = tuple(a), tuple(b)
    alphabet = sorted(set(a) | set(b))
    max_len = max(len(a), len(b)) + 2
    best = {a: 0.0}
    heap = [(0.0, a)]
    while heap:
        cost, s = heapq.heappop(heap)
        if s == b:
            return cost
        if cost > best.get(s, math.inf):
            continue
        neighbors = []
        n = len(s)
        for i in range(n):
            neighbors.append((s[:i] + s[i + 1 :], delete))
            for x in alphabet:
                if x != s[i]:
                    neighbors.append((s[:i] + (x,) + s[i + 1 :], sub))
        if n < max_len:
            for i in range(n + 1):
                for x in alphabet:
                    neighbors.append((s[:i] + (x,) + s[i:], ins))
        for i in range(n - 1):
            if s[i] != s[i + 1]:
                neighbors.append((s[:i] + (s[i + 1], s[i]) + s[i + 2 :], trans))
        for t, w in neighbors:
            c = cost + w
            if c < best.get(t, math.inf):
                best[t] = c
                heapq.heappush(heap, (c, t))
    return math.inf


def greedy_match_pairs(gt, pred):
    """Transcription of the matching rule over (action, frame) tuples.

    Returns (matched pairs, false positive indices, false negative indices).
    """
    used = set()
    pairs = []
    for pi, (pa, pf) in enumerate(pred):
        found = None
        for gi, (ga, gf) in enumerate(gt):
            if gi in used or ga != pa:
                continue
            if gf <= pf:
                found = gi
                break
        if found is None:
            continue
        used.add(found)
        pairs.append((pi, found))
    fps = [pi for pi in range(len(pred)) if pi not in {p for p, _ in pairs}]
    fns = [gi for gi in range(len(gt)) if gi not in used]
    return pairs, fps, fns


def max_matching_count(gt, pred):
    """Size of the largest feasible matching, by exhaustive search."""
    feasible = [
        [gi for gi, (ga, gf) in enumerate(gt) if ga == pa and gf <= pf]
        for (pa, pf) in pred
    ]
    best = 0

    def rec(pi, used, count):
        nonlocal best
        if count + len(feasible) - pi <= best:
            return
        if pi == len(feasible):
            best = max(best, count)
            return
        rec(pi + 1, used, count)
        for gi in feasible[pi]:
            if gi not in used:
                rec(pi + 1, used | {gi}, count + 1)

    rec(0, frozenset(), 0)
    return best


def naive_supcon(vectors, labels, tau, inside=True):
    """Literal double-loop contrastive loss, no numerical stabilization."""

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    n = len(vectors)
    total = 0.0
    for i in range(n):
        positives = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if not positives:
            continue
        denom = sum(
            math.exp(dot(vectors[i], vectors[a]) / tau) for a in range(n) if a != i
        )
        if inside:
            num = (
                sum(math.exp(dot(vectors[i], vectors[p]) / tau) for p in positives)
                / len(positives)
            )
            total += -math.log(num / denom)
        else:
            total += -sum(
                math.log(math.exp(dot(vectors[i], vectors[p]) / tau) / denom)
                for p in positives
            ) / len(positives)
    return total


def naive_bce(predictions, targets, clamp=1e-7):
    """Literal double-loop multi-label cross entropy."""
    n = len(predictions)
    total = 0.0
    for i in range(n):
        for j in range(len(predictions[i])):
            p = min(max(predictions[i][j], clamp), 1.0 - clamp)
            y = targets[i][j]
            total += y * math.log(p) + (1 - y) * math.log(1.0 - p)
    return -total / n


def naive_bits(events, n_components, frame):
    """Replay (frame, component, kind) tuples up to `frame`, last write wins."""
    bits = [0] * n_components
    for f, component, kind in sorted(events):
        if f > frame:
            break
        bits[component] = 1 if kind == "install" else 0
    return tuple(bits)


def naive_clip_label(events, n_components, start, end):
    a = naive_bits(events, n_components, start)
    b = naive_bits(events, n_components, end)
    return tuple(x ^ y for x, y in zip(a, b))


def naive_occurrences(events, n_components, known):
    """(frame, state id) at each distinct event frame whose replayed bits are
    a known state; `known` maps a bit tuple to its state id."""
    out = []
    for f in sorted({f for f, _, _ in events}):
        bits = naive_bits(events, n_components, f)
        if bits in known:
            out.append((f, known[bits]))
    return out


def state_stream_text(detections):
    """The state-stream file of `detections` (video id -> StateDetections)
    as the codec first wrote it: a canonical JSON object per line, header
    first."""
    dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lines = [dumps({"schema": "psrkit/asd-stream", "version": 1})]
    for video_id in sorted(detections):
        lines.extend(
            dumps({"confidence": det.confidence, "frame": det.frame,
                   "state_id": det.state.state_id, "video_id": video_id})
            for det in detections[video_id]
        )
    return "\n".join(lines) + "\n"


def temporal_stream_text(streams):
    """The temporal-stream file of `streams` (video id -> ProbStream) as the
    codec first wrote it: a canonical JSON object per line, header first."""
    dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lines = [dumps({"schema": "psrkit/temporal-stream", "version": 1})]
    for video_id in sorted(streams):
        stream = streams[video_id]
        lines.extend(
            dumps({"frame": frame, "probs": probs, "video_id": video_id})
            for frame, probs in zip(stream.frames.tolist(), stream.probs.tolist())
        )
    return "\n".join(lines) + "\n"
