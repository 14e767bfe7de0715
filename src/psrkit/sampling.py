"""Training-time samplers: clip-end sampling and key-frame batches.

Everything here is a deterministic, seedable index generator. No pixels are
touched; samplers emit frame references for external training code.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import StructureError
from .procedure import EventSequence, Procedure, cumulative_state, replay

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class KcasDistribution:
    """Normalized PMF over valid clip-end frames of one video.

    Built from two Gaussians per completion, centered `delta` frames before
    and after it, so clips ending just before a completion (hard negatives)
    and just after it (positives) are over-sampled while the ambiguous
    completion moment itself sits in a local dip.
    """

    pmf: np.ndarray
    start: int
    video_len: int
    sigma: float
    delta: float
    window: int
    completion_frames: tuple[int, ...]

    @property
    def support(self) -> np.ndarray:
        """Clip-end frames the PMF is defined over: [window, video_len)."""
        return np.arange(self.start, self.video_len)


def _gaussian(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def kcas_pmf(
    completions: Sequence[int],
    video_len: int,
    sigma: float = 45.0,
    delta: float = 80.0,
    w: int = 256,
) -> KcasDistribution:
    """Bimodal clip-end sampling distribution for one video.

    Coincident completions merge into a single mode pair. Mass falling on
    invalid ends (x < w or x >= video_len) is dropped before normalization.
    With no completions at all the distribution falls back to uniform.
    """
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be a finite positive number, got {sigma}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be a finite number, got {delta}")
    if w <= 0:
        raise ValueError(f"window must be positive, got {w}")
    if video_len <= w:
        raise ValueError(
            f"video of {video_len} frames cannot fit a clip of {w} frames"
        )
    merged = tuple(sorted(set(int(t) for t in completions)))
    x = np.arange(w, video_len, dtype=float)
    if not merged:
        log.warning("no completions given; falling back to a uniform clip-end PMF")
        pmf = np.full(len(x), 1.0 / len(x))
    else:
        pmf = np.zeros(len(x))
        for t in merged:
            pmf += _gaussian(x, t - delta, sigma) + _gaussian(x, t + delta, sigma)
        total = pmf.sum()
        if total <= 0:
            log.warning(
                "all completion mass fell outside valid clip ends; using uniform"
            )
            pmf = np.full(len(x), 1.0 / len(x))
        else:
            pmf = pmf / total
    return KcasDistribution(
        pmf=pmf,
        start=w,
        video_len=video_len,
        sigma=float(sigma),
        delta=float(delta),
        window=w,
        completion_frames=merged,
    )


def sample_clip_ends(dist: KcasDistribution, n: int, seed: int) -> np.ndarray:
    """Draw `n` i.i.d. clip-end frames by inverse CDF with a seeded generator."""
    if n < 1:
        raise ValueError(f"need at least one draw, got n={n}")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(dist.pmf)
    cdf[-1] = 1.0  # guard against cumulative rounding
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    return dist.start + idx


@dataclass(frozen=True)
class ClipSpec:
    """A clip ending at `end_frame` and the frame indices sampled from it."""

    end_frame: int
    window: int
    indices: tuple[int, ...]

    def __post_init__(self):
        lo = self.end_frame - self.window + 1
        if any(not lo <= i <= self.end_frame for i in self.indices):
            raise StructureError("clip indices fall outside the window")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise StructureError("clip indices must be strictly increasing")


def clip_indices(end_frame: int, w: int, n_w: int) -> ClipSpec:
    """Equally spaced frame indices inside the window ending at `end_frame`.

    The stride is floor(w / n_w) and indices are anchored at the clip end, so
    w=256 with n_w=64 samples every 4th frame: end-252, end-248, ..., end.
    """
    if n_w < 1:
        raise ValueError(f"need at least one sampled frame, got {n_w}")
    if n_w > w:
        raise ValueError(f"cannot sample {n_w} frames from a window of {w}")
    if end_frame < w - 1:
        raise ValueError(
            f"end frame {end_frame} leaves no room for a window of {w}"
        )
    stride = w // n_w
    indices = tuple(end_frame - stride * (n_w - 1 - i) for i in range(n_w))
    return ClipSpec(end_frame=end_frame, window=w, indices=indices)


def clip_label(
    events: EventSequence, proc: Procedure, start_frame: int, end_frame: int
) -> tuple[int, ...]:
    """Net component changes within a clip: XOR of the endpoint states.

    A remove followed by a reinstall of the same component inside the clip
    cancels out; two distinct completions set both bits.
    """
    if start_frame > end_frame:
        raise ValueError(
            f"start frame {start_frame} is after end frame {end_frame}"
        )
    a = cumulative_state(events, proc, start_frame)
    b = cumulative_state(events, proc, end_frame)
    return tuple(x ^ y for x, y in zip(a.bits, b.bits))


def state_occurrences(
    seq: EventSequence, proc: Procedure
) -> list[tuple[int, int]]:
    """(frame, state_id) pairs where the cumulative state lands on a known state.

    Simultaneous events at one frame are applied together before the check,
    so a multi-component transition completed in one frame counts once.
    """
    if proc.states is None:
        raise StructureError("procedure has no state table")
    occurrences = []
    for frame, bits in replay(seq.events, proc):
        state = proc.state_for_bits(bits)
        if state is not None and state.state_id is not None:
            occurrences.append((frame, state.state_id))
    return occurrences


def _eligible(
    sequences: Mapping[str, EventSequence], proc: Procedure, t_f: float, fps: float
) -> tuple[int, dict[int, set[tuple[str, int]]]]:
    """The key-frame window in frames, and per state id the (video, frame)
    pairs within that window after an occurrence of the state."""
    window = max(1, int(round(t_f * fps)))
    pools: dict[int, set[tuple[str, int]]] = {}
    for video_id, seq in sequences.items():
        for frame, state_id in state_occurrences(seq, proc):
            pools.setdefault(state_id, set()).update(
                (video_id, f) for f in range(frame, frame + window)
            )
    return window, pools


@dataclass(frozen=True)
class KfsEntry:
    """One batch element: a real video frame or a synthetic asset, with its state."""

    state_id: int
    source: str  # "real" | "synthetic"
    video_id: str | None = None
    frame: int | None = None
    ref: str | None = None


@dataclass(frozen=True)
class KfsBatchSpec:
    """A key-frame mini-batch: per state, fixed counts of real and synthetic refs."""

    entries: tuple[KfsEntry, ...]
    t_f: float
    n_sample: int
    n_syn: int
    n_state: int
    fps: float


def kfs_batch(
    sequences: Mapping[str, EventSequence],
    proc: Procedure,
    t_f: float,
    n_sample: int,
    n_syn: int = 0,
    synthetic_pool: Mapping[int, Sequence[str]] | None = None,
    seed: int = 0,
) -> KfsBatchSpec:
    """Build one weakly supervised key-frame mini-batch.

    For each state id that occurs in the label data, the eligible real frames
    are those within `t_f` seconds after any occurrence of that state, across
    all videos. `n_sample` real frames are drawn without replacement (with
    replacement when the pool is smaller, logged) plus `n_syn` synthetic
    references per state. States that never occur are skipped with a warning.
    """
    if not 0 <= t_f < math.inf:
        raise ValueError(f"t_f must be a finite non-negative number, got {t_f}")
    if n_sample < 1:
        raise ValueError(f"n_sample must be at least 1, got {n_sample}")
    if n_syn < 0:
        raise ValueError(f"n_syn must be non-negative, got {n_syn}")
    if n_syn > 0 and not synthetic_pool:
        raise ValueError("n_syn > 0 requires a synthetic pool")
    if proc.states is None:
        raise StructureError("procedure has no state table")

    _, pools = _eligible(sequences, proc, t_f, proc.fps)
    rng = np.random.default_rng(seed)
    entries: list[KfsEntry] = []
    for state_id in sorted(pools):
        pool = sorted(pools[state_id])
        replace = len(pool) < n_sample
        if replace:
            log.warning(
                "state %d has only %d eligible frames for n_sample=%d; "
                "drawing with replacement",
                state_id,
                len(pool),
                n_sample,
            )
        picks = rng.choice(len(pool), size=n_sample, replace=replace)
        for p in picks:
            video_id, frame = pool[int(p)]
            entries.append(
                KfsEntry(state_id=state_id, source="real", video_id=video_id, frame=frame)
            )
        if n_syn:
            refs = list(synthetic_pool.get(state_id, ()))
            if not refs:
                raise ValueError(
                    f"state {state_id} has no synthetic references but n_syn={n_syn}"
                )
            syn_picks = rng.choice(len(refs), size=n_syn, replace=len(refs) < n_syn)
            for p in syn_picks:
                entries.append(
                    KfsEntry(state_id=state_id, source="synthetic", ref=refs[int(p)])
                )
    for state_id in (s.state_id for s in proc.states if s.state_id is not None):
        if state_id not in pools and state_id != 0:
            log.warning("state %d never occurs in the label data; skipped", state_id)
    return KfsBatchSpec(
        entries=tuple(entries),
        t_f=float(t_f),
        n_sample=n_sample,
        n_syn=n_syn,
        n_state=len(pools),
        fps=proc.fps,
    )


def audit_kfs_batch(
    spec: KfsBatchSpec,
    sequences: Mapping[str, EventSequence],
    proc: Procedure,
) -> None:
    """Replay a batch spec against the label data; raise if any entry is invalid.

    Every real entry must lie within the sampling window after an occurrence
    of its claimed state, and per-state counts must match the spec.
    """
    window, pools = _eligible(sequences, proc, spec.t_f, spec.fps)
    counts: dict[int, dict[str, int]] = {}
    for e in spec.entries:
        per = counts.setdefault(e.state_id, {"real": 0, "synthetic": 0})
        per[e.source] += 1
        if e.source != "real":
            continue
        if (e.video_id, e.frame) not in pools.get(e.state_id, ()):
            raise StructureError(
                f"batch entry ({e.video_id}, {e.frame}) is not within "
                f"{window} frames after any occurrence of state {e.state_id}"
            )
    if len(counts) != spec.n_state:
        raise StructureError(
            f"batch covers {len(counts)} states, spec claims {spec.n_state}"
        )
    for state_id, per in counts.items():
        if per["real"] != spec.n_sample or per["synthetic"] != spec.n_syn:
            raise StructureError(
                f"state {state_id} has {per['real']} real / {per['synthetic']} "
                f"synthetic entries, expected {spec.n_sample}/{spec.n_syn}"
            )
