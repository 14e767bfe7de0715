"""Seeded generator of synthetic procedure executions and detector streams.

The point of the simulator is a desk-scale, fully controlled comparison of
three recognition pipelines on the same ground truth: a state-detection
stream that goes silent whenever the object is occluded, a temporal stream
that responds to step completions within a short window regardless of
visibility (plus background false positives), and their fused average. Under
heavy occlusion the fused pipeline recognizes completions earlier; that
ordering is the modelled mechanism, not a finding.

Occlusion is a two-state Markov chain per frame. The temporal stream's
response is a triangular probability ramp after each completion, which
exercises the accumulator more realistically than a single spike.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigError, UnknownTransitionError
from .filtering import STREAM_IDS, ProbStream, fuse_streams, run_filter
from .metrics import DatasetSummary, EvaluationReport, aggregate, evaluate
from .procedure import INSTALL, REMOVE, EventSequence, Procedure, StepEvent, replay, toy_motorcycle
from .state_inference import StateDetection, asd_stream_probs


def _check_prob(field_name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(field_name, f"must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class OcclusionModel:
    """Per-frame two-state Markov chain: occlude when visible, reveal when not."""

    p_occlude: float
    p_reveal: float

    def __post_init__(self):
        _check_prob("occlusion.p_occlude", self.p_occlude)
        _check_prob("occlusion.p_reveal", self.p_reveal)
        if self.p_occlude > 0 and self.p_reveal == 0:
            raise ConfigError(
                "occlusion.p_reveal",
                "occlusion would be absorbing (p_occlude > 0 with p_reveal = 0)",
            )


@dataclass(frozen=True)
class AsdModel:
    confidence: float = 0.9
    false_detection_rate: float = 0.0

    def __post_init__(self):
        _check_prob("asd.confidence", self.confidence)
        _check_prob("asd.false_detection_rate", self.false_detection_rate)


@dataclass(frozen=True)
class TemporalModel:
    """Response ramp length/height, per-completion hit probability, and noise."""

    response_frames: int = 30
    peak_prob: float = 0.6
    hit_prob: float = 0.7
    fp_rate: float = 1e-3
    fp_low: float = 0.1
    fp_high: float = 0.4

    def __post_init__(self):
        if self.response_frames < 1:
            raise ConfigError("temporal.response_frames", "must be at least 1")
        _check_prob("temporal.peak_prob", self.peak_prob)
        _check_prob("temporal.hit_prob", self.hit_prob)
        _check_prob("temporal.fp_rate", self.fp_rate)
        _check_prob("temporal.fp_low", self.fp_low)
        _check_prob("temporal.fp_high", self.fp_high)
        if self.fp_low > self.fp_high:
            raise ConfigError("temporal.fp_low", "must not exceed temporal.fp_high")


@dataclass(frozen=True)
class ErrorModel:
    """Chance that an install is first done incorrectly, then removed and redone."""

    p_incorrect: float = 0.0

    def __post_init__(self):
        _check_prob("errors.p_incorrect", self.p_incorrect)


@dataclass(frozen=True)
class SimConfig:
    """A simulated suite. `procedure` is rebuilt at `fps` when its own differs."""

    procedure: Procedure
    n_videos: int = 3
    fps: float = 10.0
    step_gap: float = 120.0
    occlusion: OcclusionModel = field(default_factory=lambda: OcclusionModel(0.15, 0.02))
    asd: AsdModel = field(default_factory=AsdModel)
    temporal: TemporalModel = field(default_factory=TemporalModel)
    errors: ErrorModel = field(default_factory=ErrorModel)
    seed: int = 0
    tail_frames: int = 600

    def __post_init__(self):
        if self.n_videos < 1:
            raise ConfigError("n_videos", "must be at least 1")
        if not 0 < self.fps < math.inf:
            raise ConfigError("fps", f"must be a finite positive number, got {self.fps}")
        if self.step_gap <= 0:
            raise ConfigError("step_gap", "must be positive")
        if self.tail_frames < 1:
            raise ConfigError("tail_frames", "must be at least 1")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError("seed", f"must be a non-negative integer, got {self.seed!r}")
        states = self.procedure.states
        if states is None:
            raise ConfigError("procedure", "needs a nominal state sequence to simulate")
        for prev, nxt in zip(states, states[1:]):
            try:
                actions = self.procedure.transition_actions(prev, nxt)
            except UnknownTransitionError as e:
                raise ConfigError("procedure", f"no action for ({e.component}, {e.kind})") from None
            if self.errors.p_incorrect == 0:
                continue
            for component, kind in map(self.procedure.effect, actions):
                # an erred install is undone by the component's remove action
                if kind == INSTALL and self.procedure.action_for(component, REMOVE) is None:
                    raise ConfigError(
                        "procedure", f"error model needs a remove action for component {component}"
                    )
        if self.procedure.fps != self.fps:
            object.__setattr__(self, "procedure", dataclasses.replace(self.procedure, fps=self.fps))

    def to_dict(self) -> dict:
        """Every field as a sim-config document holds it; the procedure by name."""
        doc = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Procedure):
                value = value.name
            elif dataclasses.is_dataclass(value):
                value = dataclasses.asdict(value)
            doc[f.name] = value
        return doc


@dataclass(frozen=True)
class SimTrace:
    """One simulated video: ground truth, both detector streams, and the mask."""

    ground_truth: EventSequence
    asd_detections: tuple[StateDetection, ...]
    temporal_frames: ProbStream
    occlusion_mask: tuple[bool, ...]

    @property
    def video_len(self) -> int:
        return len(self.occlusion_mask)


def heavy_occlusion_config(seed: int, n_videos: int = 3) -> SimConfig:
    """The documented heavy-occlusion setup used by the trend experiment.

    It is the SimConfig defaults on the builtin toy procedure.
    """
    return SimConfig(procedure=toy_motorcycle(), n_videos=n_videos, seed=seed)


def _ground_truth(proc: Procedure, cfg: SimConfig, rng: np.random.Generator, video_id: str):
    """Events of one execution. Each transition completes at one frame; an
    erroneous install spawns a remove + reinstall pair afterwards."""
    events: list[StepEvent] = []
    cursor = 0
    for prev, nxt in zip(proc.states, proc.states[1:]):
        cursor += max(1, int(round(rng.exponential(cfg.step_gap))))
        frame = cursor
        fix_cursor = frame
        for action in proc.transition_actions(prev, nxt):
            component, kind = proc.effect(action)
            erred = kind == INSTALL and rng.random() < cfg.errors.p_incorrect
            events.append(proc.make_event(action, frame, correct=not erred))
            if erred:
                fix_cursor += max(1, int(round(rng.exponential(cfg.step_gap / 4))))
                events.append(proc.make_event(proc.action_for(component, REMOVE), fix_cursor))
                fix_cursor += max(1, int(round(rng.exponential(cfg.step_gap / 4))))
                events.append(proc.make_event(action, fix_cursor, correct=True))
        cursor = max(cursor, fix_cursor)
    return EventSequence.from_events(events, video_id=video_id, fps=proc.fps)


def _occlusion_mask(length: int, model: OcclusionModel, rng: np.random.Generator):
    """One draw per frame, walked from change to change: a visible frame occludes
    on a draw under `p_occlude`, an occluded one is revealed on one under `p_reveal`."""
    draws = rng.random(length)
    occlude = np.flatnonzero(draws < model.p_occlude).tolist()
    reveal = np.flatnonzero(draws < model.p_reveal).tolist()
    mask = np.zeros(length, dtype=bool)
    t = 0  # the next visible frame
    while (i := bisect_left(occlude, t)) < len(occlude):
        j = bisect_left(reveal, occlude[i] + 1)
        end = reveal[j] if j < len(reveal) else length
        mask[occlude[i]:end] = True
        t = end + 1
    return mask


def _asd_detections(
    gt: EventSequence, mask, proc: Procedure, model: AsdModel, rng: np.random.Generator
):
    """A detection on every visible frame whose true state is a known one."""
    detections = []
    states = proc.states or ()
    changes = [(0, (0,) * proc.n_components), *replay(gt.events, proc)]
    ends = [frame for frame, _ in changes[1:]] + [len(mask)]
    for (start, bits), end in zip(changes, ends):
        state = proc.state_for_bits(bits)
        if state is None:
            continue  # half-finished corrections are not a recognizable state
        for t in (np.flatnonzero(~mask[start:end]) + start).tolist():
            seen = state
            if model.false_detection_rate > 0 and rng.random() < model.false_detection_rate:
                others = [s for s in states if s.bits != state.bits]
                seen = others[int(rng.integers(len(others)))]
            detections.append(StateDetection(frame=t, state=seen, confidence=model.confidence))
    return tuple(detections)


def _temporal_stream(
    gt: EventSequence,
    proc: Procedure,
    length: int,
    model: TemporalModel,
    rng: np.random.Generator,
):
    probs = np.zeros((length, proc.n_steps))
    r = model.response_frames
    apex = (r + 1) / 2.0
    ramp = model.peak_prob * (1.0 - np.abs(np.arange(1, r + 1) - apex) / apex)
    for e in gt.events:
        if not e.correct:
            continue  # the stream models correctly completed steps only
        if rng.random() >= model.hit_prob:
            continue
        lo = e.frame + 1
        hi = min(length, lo + r)
        if lo >= length:
            continue
        probs[lo:hi, proc.step_index(e.action)] += ramp[: hi - lo]
    if model.fp_rate > 0:
        hits = rng.random((length, proc.n_steps)) < model.fp_rate
        probs[hits] += rng.uniform(model.fp_low, model.fp_high, size=int(hits.sum()))
    np.clip(probs, 0.0, 1.0, out=probs)
    return ProbStream._adopt(np.arange(length, dtype=np.int64), probs, "temporal")


def simulate(config: SimConfig) -> list[SimTrace]:
    """Generate `config.n_videos` traces, bit-reproducible given the seed.

    Each video derives four independent substreams (ground truth, occlusion,
    state detector, temporal detector) so changing one model's parameters
    keeps the other draws identical (common random numbers).
    """
    proc = config.procedure
    traces = []
    for v, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.n_videos)):
        gt_ss, occ_ss, asd_ss, temp_ss = child.spawn(4)
        video_id = f"sim{v:03d}"
        gt = _ground_truth(proc, config, np.random.default_rng(gt_ss), video_id)
        length = (gt.events[-1].frame if gt.events else 0) + config.tail_frames
        mask = _occlusion_mask(length, config.occlusion, np.random.default_rng(occ_ss))
        detections = _asd_detections(
            gt, mask, proc, config.asd, np.random.default_rng(asd_ss)
        )
        temporal = _temporal_stream(
            gt, proc, length, config.temporal, np.random.default_rng(temp_ss)
        )
        traces.append(
            SimTrace(
                ground_truth=gt,
                asd_detections=detections,
                temporal_frames=temporal,
                occlusion_mask=tuple(mask.tolist()),
            )
        )
    return traces


@dataclass(frozen=True)
class Thresholds:
    """Filter thresholds of the three pipelines and their shared decay.

    The fused default (0.4) sits below half the detector confidence so a lone
    revealed-state observation still counts at fused weight 0.5. A temporal
    threshold of None means the fused one.
    """

    asd: float = 0.5
    fused: float = 0.4
    decay: float = 0.75
    temporal: float | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """Three-pipeline comparison over one simulated suite."""

    summaries: Mapping[str, DatasetSummary]
    per_video: Mapping[str, Mapping[str, EvaluationReport]]
    config: dict
    thresholds: dict

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "thresholds": self.thresholds,
            "summary": {k: s.to_dict() for k, s in self.summaries.items()},
            "videos": {
                vid: {k: r.to_dict() for k, r in reps.items()}
                for vid, reps in self.per_video.items()
            },
        }


def run_experiment(
    config: SimConfig,
    t_asd: float = Thresholds.asd,
    t_fused: float = Thresholds.fused,
    t_temporal: float | None = Thresholds.temporal,
    decay: float = Thresholds.decay,
    traces: list[SimTrace] | None = None,
) -> ExperimentResult:
    """Evaluate the state-only, temporal-only, and fused pipelines per trace.

    Threshold defaults are those of `Thresholds`. Pass `traces` to reuse an
    existing simulate(config) result.
    """
    proc = config.procedure
    if t_temporal is None:
        t_temporal = t_fused
    per_video: dict[str, dict[str, EvaluationReport]] = {}
    for trace in traces if traces is not None else simulate(config):
        vid = trace.ground_truth.video_id
        asd_probs = asd_stream_probs(trace.asd_detections, proc, trace.video_len)
        preds = {
            "asd": run_filter(asd_probs, proc, t_asd, decay, video_id=vid),
            "temporal": run_filter(
                trace.temporal_frames, proc, t_temporal, decay, video_id=vid
            ),
            "fused": run_filter(
                fuse_streams(asd_probs, trace.temporal_frames),
                proc,
                t_fused,
                decay,
                video_id=vid,
            ),
        }
        per_video[vid] = {
            name: evaluate(trace.ground_truth, pred) for name, pred in preds.items()
        }
    return ExperimentResult(
        summaries={
            name: aggregate({vid: reps[name] for vid, reps in per_video.items()})
            for name in STREAM_IDS
        },
        per_video=per_video,
        config=config.to_dict(),
        thresholds=dataclasses.asdict(
            Thresholds(asd=t_asd, fused=t_fused, decay=decay, temporal=t_temporal)
        ),
    )
