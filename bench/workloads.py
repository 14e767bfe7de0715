"""The three benchmark workloads, their output checks and the traced layers.

Every workload makes its inputs from the workload seed, outside the timed
region, runs one closed-loop caller on one thread, and checks every op's
output between ops.

- ``cli-roundtrip``: the README round trip (heavy occlusion, fused T 0.4)
  through ``psrkit.cli.main`` on temporary files, one 1-video config per op.
  It is the only workload whose timed ops read and write detector files.
- ``threshold-sweep``: ``run_experiment`` on 1-video traces with dense
  detector noise, one new trace per op and T cycling over 1, 2, 4 and 6.
  The traces are made between ops, so no file I/O and no generation is
  timed, and state inference, fusion and the filter dominate.
- ``online-stream``: 16 interleaved dense streams fed one frame at a time
  through ``ConfidenceFrame``, ``fuse`` and ``filter_step`` (T 2.0).

Ops run in passes: a workload whose ops are all new repeats its first pass's
ops, and ``online-stream`` repeats passes over the same frames.

The two library workloads have no CLI stage of their own; between ops they
repeat one CLI round trip on a fixed dense config, which gives their
``recognize_ms_p50`` and ``simulate_ms_p50``.

``BENCHMARK.json`` lists ``cli-roundtrip`` and ``online-stream`` only. Runs
must be long for their op repeats to steady them, and the benchmark's time
limit leaves room for ~55 s runs of two workloads but only ~35 s runs of
three, at which all three spread too far between runs of the same code.
``threshold-sweep`` was the one left out: every layer it times is also timed
by ``cli-roundtrip``'s simulate stage. It still runs on request.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
import time
import traceback
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from psrkit import cli, filtering, fileio, metrics, simulator, state_inference
from psrkit.procedure import EventSequence, toy_motorcycle

_now = time.perf_counter_ns

HEAVY_OCCLUSION = {"p_occlude": 0.15, "p_reveal": 0.02}
README_TEMPORAL = {"hit_prob": 0.7, "fp_rate": 0.001}
DENSE_TEMPORAL = {"hit_prob": 0.7, "fp_rate": 0.5, "fp_low": 0.005, "fp_high": 0.05}
SWEEP_THRESHOLDS = (1.0, 2.0, 4.0, 6.0)
ONLINE_THRESHOLD = 2.0
T_ASD = 0.5
DECAY = 0.75

# The benchmark's own calls into psrkit go through this namespace, so the
# traced run can wrap them without touching psrkit's module globals (which
# run_filter and fuse_streams use for their per-frame inner calls).
api = SimpleNamespace(
    run_experiment=simulator.run_experiment,
    ConfidenceFrame=filtering.ConfidenceFrame,
    fuse=filtering.fuse,
    filter_step=filtering.filter_step,
)


def sim_doc(seed: int, temporal: dict, t_fused: float) -> dict:
    """A 1-video ``psrkit/sim-config`` document under heavy occlusion."""
    return {
        "schema": fileio.SIM_CONFIG_SCHEMA,
        "version": fileio.VERSION,
        "procedure": "toy-motorcycle",
        "n_videos": 1,
        "seed": seed,
        "step_gap": 120,
        "occlusion": HEAVY_OCCLUSION,
        "asd": {"confidence": 0.9},
        "temporal": temporal,
        "thresholds": {"asd": T_ASD, "fused": t_fused},
    }


def dense_config(seed: int) -> simulator.SimConfig:
    """The library form of ``sim_doc(seed, DENSE_TEMPORAL, ...)``."""
    return simulator.SimConfig(
        procedure=toy_motorcycle(),
        n_videos=1,
        step_gap=120.0,
        occlusion=simulator.OcclusionModel(**HEAVY_OCCLUSION),
        asd=simulator.AsdModel(confidence=0.9),
        temporal=simulator.TemporalModel(**DENSE_TEMPORAL),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the CLI round trip


@contextlib.contextmanager
def _inside(directory: Path):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def round_trip(tmp: Path, doc: dict, tracer=None) -> dict:
    """simulate -> recognize --fuse -> evaluate through ``cli.main``.

    Runs inside ``tmp`` with relative paths, so the paths recorded in
    report.json, and with them every file digest, depend only on the config.
    Returns the wall time of each stage in ns. Only the three calls are
    timed; writing the config and reading outputs are not.
    """
    tmp.mkdir(parents=True)
    (tmp / "config.json").write_text(json.dumps(doc))
    argvs = {
        "simulate": ["simulate", "--config", "config.json", "--out", "sim"],
        "recognize": [
            "recognize", "--streams", "sim/asd_stream.jsonl", "sim/temporal_stream.jsonl",
            "--procedure", "toy-motorcycle",
            "--threshold", repr(doc["thresholds"]["fused"]), "--fuse",
            "--out", "predictions.jsonl",
        ],
        "evaluate": [
            "evaluate", "--labels", "sim/gt_labels.jsonl",
            "--predictions", "predictions.jsonl", "--out", "report.json",
        ],
    }
    stage_ns = {}
    with contextlib.redirect_stdout(io.StringIO()), _inside(tmp):
        for stage, argv in argvs.items():
            span = tracer.span("cli." + stage) if tracer else contextlib.nullcontext()
            with span:
                t0 = _now()
                rc = cli.main(argv)
                stage_ns[stage] = _now() - t0
            if rc != 0:
                raise RuntimeError(f"psrkit {stage} exited with {rc}")
    return stage_ns


def round_trip_outputs(tmp: Path) -> dict:
    """What a round trip wrote: report, comparison, frame count, file digests."""
    sim = tmp / "sim"
    with open(sim / "temporal_stream.jsonl") as fh:
        frames = sum(1 for _ in fh) - 1
    digests = {
        str(p.relative_to(tmp)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp.rglob("*"))
        if p.is_file() and p.name != "config.json"
    }
    return {
        "frames": frames,
        "report": json.loads((tmp / "report.json").read_text()),
        "comparison": json.loads((sim / "comparison.json").read_text()),
        "digests": digests,
    }


def check_round_trip(out: dict) -> bool:
    """report.json must equal the fused block of comparison.json."""
    report, comparison = out["report"], out["comparison"]
    fused = {vid: v["fused"] for vid, v in comparison["videos"].items()}
    return report["videos"] == fused and report["aggregate"] == comparison["summary"]["fused"]


def corrupt_round_trip(out: dict) -> dict:
    bad = copy.deepcopy(out)
    bad["report"]["aggregate"]["tp"] += 1
    return bad


class _RoundTrips:
    """Shared by every workload: numbered round trips in one scratch directory."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.n = 0

    def run(self, doc: dict, tracer=None) -> tuple[dict, dict]:
        op_dir = self.tmp / f"rt{self.n}"
        self.n += 1
        try:
            stage_ns = round_trip(op_dir, doc, tracer)
            return stage_ns, round_trip_outputs(op_dir)
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# workloads


class CliRoundTrip:
    name = "cli-roundtrip"
    cycle = None  # every op is a new config
    stage_threshold = None  # its ops are the CLI stages

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.trips = _RoundTrips(tmp)

    def ops(self):
        i = 0
        while True:
            yield i
            i += 1

    def doc_seed(self, i: int) -> int:
        return self.seed * 100_000 + i

    def doc(self, i: int) -> dict:
        return sim_doc(self.doc_seed(i), README_TEMPORAL, 0.4)

    def run_op(self, i: int, tracer=None):
        stage_ns, out = self.trips.run(self.doc(i), tracer)
        out["stage_ns"] = stage_ns
        return sum(stage_ns.values()), out["frames"], out

    def check(self, i: int, out: dict) -> bool:
        return check_round_trip(out)

    corrupt = staticmethod(corrupt_round_trip)


class _DenseStageSample:
    """CLI round trips on one dense detector config, for a library workload's stage metrics.

    Every trip, in every run, simulates config seed ``STAGE_DOC_SEED`` (1785
    frames) at ``stage_threshold``, so the mean over a run's trips compares
    runs rather than the lengths of seeded videos.
    """

    STAGE_DOC_SEED = 0
    stage_threshold: float

    def stage_trip(self, tracer=None) -> dict | None:
        """One round trip; None if it raised."""
        doc = sim_doc(self.STAGE_DOC_SEED, DENSE_TEMPORAL, self.stage_threshold)
        try:
            stage_ns, out = self.trips.run(doc, tracer)
        except Exception:
            traceback.print_exc()
            return None
        out["stage_ns"] = stage_ns
        return out


class ThresholdSweep(_DenseStageSample):
    name = "threshold-sweep"
    cycle = None  # every op is a new trace
    stage_threshold = SWEEP_THRESHOLDS[1]

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.trips = _RoundTrips(tmp)
        self._expected = {}  # op k's recomputed result, for its later passes

    def ops(self):
        """Op k runs a new trace, generated between ops, at the k-th swept T.

        One trace per op, rather than one trace at every T, puts four times
        as many videos into a run, which keeps the op latency median from
        following the lengths of a few seeded videos.
        """
        k = 0
        while True:
            config = dense_config(self.seed * 100_000 + k)
            trace = simulator.simulate(config)[0]
            yield k, SWEEP_THRESHOLDS[k % len(SWEEP_THRESHOLDS)], config, trace
            k += 1

    def run_op(self, op, tracer=None):
        _, t, config, trace = op
        t0 = _now()
        result = api.run_experiment(config, traces=[trace], t_fused=t)
        ns = _now() - t0
        return ns, trace.video_len, result.to_dict()

    def check(self, op, out: dict) -> bool:
        k, t, config, trace = op
        if k not in self._expected:
            self._expected[k] = self._recompute(t, config, trace)
        return out == self._expected[k]

    @staticmethod
    def _fold(frames, proc, threshold: float, vid: str) -> EventSequence:
        state = filtering.FilterState(procedure=proc, threshold=threshold, decay=DECAY)
        events = []
        for f in frames:
            events.extend(filtering.filter_step(state, f)[1])
        return EventSequence.from_events(events, video_id=vid, fps=proc.fps)

    def _recompute(self, t: float, config, trace) -> dict:
        """``ExperimentResult.to_dict()`` of one trace at T ``t``, rebuilt
        from fuse, a filter_step fold and evaluate."""
        proc = config.procedure
        gt = trace.ground_truth
        vid = gt.video_id
        asd = state_inference.asd_stream_probs(trace.asd_detections, proc, trace.video_len)
        fused = [filtering.fuse(a, b) for a, b in zip(asd, trace.temporal_frames)]
        reports = {
            "asd": metrics.evaluate(gt, self._fold(asd, proc, T_ASD, vid)),
            "temporal": metrics.evaluate(gt, self._fold(trace.temporal_frames, proc, t, vid)),
            "fused": metrics.evaluate(gt, self._fold(fused, proc, t, vid)),
        }
        return {
            "config": config.to_dict(),
            "thresholds": {"asd": T_ASD, "temporal": t, "fused": t, "decay": DECAY},
            "summary": {
                name: metrics.aggregate({vid: r}).to_dict() for name, r in reports.items()
            },
            "videos": {vid: {name: r.to_dict() for name, r in reports.items()}},
        }

    @staticmethod
    def corrupt(out: dict) -> dict:
        bad = copy.deepcopy(out)
        bad["summary"]["fused"]["f1"] += 0.5
        return bad


class OnlineStream(_DenseStageSample):
    name = "online-stream"
    STREAMS = 16
    stage_threshold = ONLINE_THRESHOLD

    def __init__(self, seed: int, tmp: Path):
        self.trips = _RoundTrips(tmp)
        self.seeds = [seed * 100_000 + 50_000 + j for j in range(self.STREAMS)]
        self.proc = toy_motorcycle()
        self.asd_rows, self.temporal_rows, self.expected = [], [], []
        shared = {}  # one tuple per distinct row: most state-stream rows are all zero
        for s in self.seeds:
            trace = simulator.simulate(dense_config(s))[0]
            asd = state_inference.asd_stream_probs(
                trace.asd_detections, self.proc, trace.video_len
            )
            self.asd_rows.append([shared.setdefault(f.probs, f.probs) for f in asd])
            self.temporal_rows.append([f.probs for f in trace.temporal_frames])
            whole = filtering.run_filter(
                filtering.fuse_streams(asd, list(trace.temporal_frames)),
                self.proc, ONLINE_THRESHOLD, DECAY,
            )
            by_frame: dict[int, list] = {}
            for e in whole:
                by_frame.setdefault(e.frame, []).append(e)
            self.expected.append(by_frame)
        self.cycle = sum(len(r) for r in self.asd_rows)  # frames in one pass
        self.states = []

    def ops(self):
        """One pass: every frame in arrival order, streams interleaved, from new filters."""
        lengths = [len(r) for r in self.asd_rows]
        self.states = [
            filtering.FilterState(procedure=self.proc, threshold=ONLINE_THRESHOLD, decay=DECAY)
            for _ in self.seeds
        ]
        for t in range(max(lengths)):
            for j, n in enumerate(lengths):
                if t < n:
                    yield j, t

    def run_op(self, op, tracer=None):
        j, t = op
        cf, fuse, step = api.ConfidenceFrame, api.fuse, api.filter_step
        a, b, state = self.asd_rows[j][t], self.temporal_rows[j][t], self.states[j]
        t0 = _now()
        _, emitted = step(state, fuse(cf(t, a, "asd"), cf(t, b, "temporal")))
        ns = _now() - t0
        return ns, 1, emitted

    def check(self, op, emitted) -> bool:
        """Per frame, the events ``run_filter`` emits over the whole fused stream."""
        j, t = op
        return sorted(emitted, key=lambda e: e.action) == self.expected[j].get(t, [])

    def corrupt(self, emitted):
        return list(emitted) + [self.proc.make_event(self.proc.actions[0], 0)]


WORKLOADS = {w.name: w for w in (CliRoundTrip, ThresholdSweep, OnlineStream)}


# ---------------------------------------------------------------------------
# measuring


class Pass:
    """One pass over a workload's ops: per-op latency, frames and kept output."""

    def __init__(self):
        # 4-byte items keep the peak RSS of a run from growing much with
        # its pass count; float32 holds ns to 1e-7 of the value.
        self.lat_ns = array("f")  # -1 where the op raised
        self.frames = array("i")
        self.kept = []  # filled only when measure() is given ``keep``
        self.failed = 0
        self.canary_rejected = None

    @property
    def ops(self) -> int:
        return len(self.lat_ns)


def measure(workload, deadline: float = float("inf"), n_ops: int | None = None,
            tracer=None, keep=None, between=None) -> Pass:
    """Run ops until ``time.perf_counter()`` passes ``deadline`` or ``n_ops`` are done.

    Every pass starts again from the workload's first op, so passes of equal
    length run identical ops. Input generation (inside ``workload.ops()``)
    and checks run between ops, untimed and uncounted by the tracer.
    ``keep(output)`` picks what to store per op. ``between()`` runs after
    every op. The first successful output is corrupted once and must fail
    its check.
    """
    m = Pass()
    ops = workload.ops()
    while (n_ops is None or m.ops < n_ops) and time.perf_counter() < deadline:
        with _uncounted(tracer):
            op = next(ops, None)
        if op is None:
            break
        try:
            ns, frames, out = workload.run_op(op, tracer)
        except Exception:
            m.failed += 1
            if m.failed <= 3:
                traceback.print_exc()
            m.lat_ns.append(-1)
            m.frames.append(0)
            if keep is not None:
                m.kept.append(None)
            continue
        m.lat_ns.append(ns)
        m.frames.append(frames)
        with _uncounted(tracer):
            ok = workload.check(op, out)
            if not ok:
                m.failed += 1
            if m.canary_rejected is None and ok:
                m.canary_rejected = not workload.check(op, workload.corrupt(out))
        if keep is not None:
            m.kept.append(keep(out))
        if between is not None:
            between()
    return m


def slow_quartile(runs, axis=None):
    """The upper quartile of repeated runs, rounded to the slower run.

    That is the slowest of up to 4 runs, the 2nd slowest of 5-8, and so on.
    Load from other tenants of a shared host moves this process between a
    fast and a ~1.8x slower speed in stretches of seconds to minutes; over a
    minute the fast share was seen anywhere from 0 to ~75%. A mean or median
    of runs follows that share, and a minimum takes the fast speed only
    while there is some. The slow speed is nearly always there to be taken,
    so an upper quantile of runs spread over the run stays put; the quartile
    rather than the maximum, so that the few runs of a microsecond op that a
    garbage collection or an interrupt lands on are passed over. NaN marks a
    missing run.
    """
    return np.nanpercentile(runs, 75, axis=axis, method="higher")


def per_op(passes: list[Pass]) -> tuple[np.ndarray, np.ndarray]:
    """Per op, the upper quartile of its runs across passes, and its frame count."""
    width = max(p.ops for p in passes)
    lat = np.full((len(passes), width), np.nan)
    frames = np.zeros(width, dtype=np.int64)
    for row, p in zip(lat, passes):
        ns = np.frombuffer(p.lat_ns, dtype=np.float32)
        row[:len(ns)] = np.where(ns >= 0, ns, np.nan)
        frames[:len(ns)] = np.maximum(frames[:len(ns)], np.frombuffer(p.frames, dtype=np.int32))
    ran = ~np.isnan(lat).all(axis=0)
    return slow_quartile(lat[:, ran], axis=0), frames[ran]


@contextlib.contextmanager
def _uncounted(tracer):
    if tracer is None:
        yield
        return
    tracer.counting = False
    try:
        yield
    finally:
        tracer.counting = True


# ---------------------------------------------------------------------------
# traced layers


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count(key, fn):
    def count(counts, args, kwargs, result):
        counts[key] += fn(args, kwargs, result)
    return count


def _serialize_temporal(counts, args, kwargs, result):
    counts["fileio.serialize_temporal_stream.frames"] += sum(len(v) for v in args[0].values())
    counts["fileio.serialize_temporal_stream.bytes"] += Path(args[1]).stat().st_size


def _run_filter(counts, args, kwargs, result):
    counts["filtering.run_filter.frames"] += len(args[0])
    counts["filtering.events"] += len(result)


def _filter_step(counts, args, kwargs, result):
    counts["filtering.events"] += len(result[1])


def _evaluate(counts, args, kwargs, result):
    gt, pred = args[0], args[1]
    if not kwargs.get("include_incorrect", False):
        gt = gt.correct_only()
    counts["metrics.dl_cells"] += len(gt) * len(pred)


def install_layers(tracer) -> None:
    """Wrap each public function where its caller looks it up."""
    video_len = _count(
        "state_inference.asd_stream_probs.frames",
        lambda a, k, r: _arg(a, k, 2, "video_len"),
    )
    fuse_len = _count("filtering.fuse_streams.frames", lambda a, k, r: len(a[0]))
    experiment_len = _count(
        "simulator.run_experiment.frames",
        lambda a, k, r: sum(t.video_len for t in k["traces"]),
    )
    tracer.wrap(fileio, "parse_temporal_stream", "fileio.parse_temporal_stream", _count(
        "fileio.parse_temporal_stream.frames", lambda a, k, r: sum(map(len, r.values()))
    ))
    tracer.wrap(fileio, "serialize_temporal_stream", "fileio.serialize_temporal_stream",
                _serialize_temporal)
    tracer.wrap(fileio, "parse_asd_stream", "fileio.parse_asd_stream")
    tracer.wrap(fileio, "parse_labels", "fileio.parse_labels", _count(
        "fileio.parse_labels.events", lambda a, k, r: sum(map(len, r.values()))
    ))
    tracer.wrap(cli, "simulate", "simulator.simulate", _count(
        "simulator.simulate.frames", lambda a, k, r: sum(t.video_len for t in r)
    ))
    for owner in (cli, api):
        tracer.wrap(owner, "run_experiment", "simulator.run_experiment", experiment_len)
        tracer.wrap(owner, "filter_step", "filtering.filter_step", _filter_step)
    for owner in (cli, simulator):
        tracer.wrap(owner, "asd_stream_probs", "state_inference.asd_stream_probs", video_len)
        tracer.wrap(owner, "fuse_streams", "filtering.fuse_streams", fuse_len)
        tracer.wrap(owner, "evaluate", "metrics.evaluate", _evaluate)
    tracer.wrap(simulator, "run_filter", "filtering.run_filter", _run_filter)
    tracer.wrap(api, "fuse", "filtering.fuse")
    tracer.count_calls(filtering.ConfidenceFrame, "__post_init__", "filtering.confidence_frames")
