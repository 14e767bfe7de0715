"""psrkit benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root; psrkit is imported from ``src/``:

    python3 bench/run.py --workload cli-roundtrip --seed 1 --seconds 55 --trace 0

A run lasts ``--seconds`` of wall time after the workload's set-up: ops,
their checks, input generation between ops, set-up probes and stage trips
all fit in it. ``cli-roundtrip`` and ``threshold-sweep`` run a new input per
op for the first FIRST_PASS_SHARE of the time and then repeat those ops;
``online-stream`` repeats passes over the same frames. Passes go on until
the time is up, so that an op's runs are spread over the whole run.

Each op's latency is the upper quartile of its runs (see
``workloads.slow_quartile`` for why). ``op_ms_p50``/``op_ms_p99`` are
percentiles of the per-op latencies, ``frames_per_s`` is video frames over
their sum, ``recognize_ms_p50``/``simulate_ms_p50`` are medians over round
trip configs of each config's upper-quartile stage time, ``setup_s`` is the
median of TICKS fresh-interpreter import probes spread evenly over the run,
and ``peak_rss_mb`` is this process's maximum resident set size.

``--trace 1`` alternates untraced and traced passes over the same ops and
prints the per-layer metrics and the tracing overhead between them.

The last stdout line is the result object; the line before it holds the run
context. Both, the per-op file digests and (traced) all spans are also
written under ``.bench_out/``. The exit status is non-zero when psrkit's
sources cannot be loaded from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TICKS = 20  # set-up probes per run and stage trips per untraced library run
FIRST_PASS_SHARE = 0.3  # of the time, for new ops in workloads whose ops are all new
REF_LOOP_ITERS = 1_000_000

# Runs in a fresh interpreter: the cost a user pays before the first frame.
SETUP_PROBE = """
import sys, time, json
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import psrkit.cli
psrkit.cli.fileio.resolve_procedure("toy-motorcycle")
t2 = time.perf_counter()
print(json.dumps({"numpy": t1 - t0, "psrkit": t2 - t1, "file": psrkit.__file__}))
"""

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "recognize_ms_p50": "ms",
    "simulate_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fileio.parse_temporal_us_per_frame": "us",
    "fileio.serialize_temporal_us_per_frame": "us",
    "fileio.temporal_bytes_per_frame": "count",
    "fileio.parse_asd_us_per_frame": "us",
    "fileio.parse_labels_us_per_event": "us",
    "simulator.simulate_us_per_frame": "us",
    "simulator.run_experiment_us_per_frame": "us",
    "simulator.run_experiment_self_us_per_frame": "us",
    "state_inference.asd_stream_probs_us_per_frame": "us",
    "filtering.fuse_streams_us_per_frame": "us",
    "filtering.fuse_us_per_frame": "us",
    "filtering.run_filter_us_per_frame": "us",
    "filtering.filter_step_us_per_call": "us",
    "filtering.confidence_frames_per_frame": "count",
    "filtering.events_emitted": "count",
    "cli.simulate_ms": "ms",
    "cli.recognize_ms": "ms",
    "cli.recognize_self_ms": "ms",
    "cli.evaluate_ms": "ms",
    "metrics.evaluate_us_per_video": "us",
    "metrics.dl_cells_per_video": "count",
    "setup.import_numpy_s": "s",
    "setup.import_psrkit_s": "s",
    "trace.overhead_pct": "%",
}


def load_psrkit() -> None:
    """Import psrkit from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "psrkit" / "__init__.py").is_file():
        sys.exit(f"error: no psrkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import psrkit

    if Path(psrkit.__file__).resolve().parent != SRC / "psrkit":
        sys.exit(f"error: psrkit was imported from {psrkit.__file__}, not {SRC}")


def measure_setup() -> dict:
    """Import cost in a fresh interpreter, split numpy / psrkit."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    probe = json.loads(proc.stdout)
    if Path(probe["file"]).resolve().parent != SRC / "psrkit":
        sys.exit(f"error: setup probe imported psrkit from {probe['file']}")
    return probe


def summarize_setup(runs: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(r["numpy"] + r["psrkit"] for r in runs),
        "import_numpy_s": statistics.median(r["numpy"] for r in runs),
        "import_psrkit_s": statistics.median(r["psrkit"] for r in runs),
    }


def run_context() -> dict:
    """Where and on what the run happened. The loop time is context only."""
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        head = None
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOP_ITERS):
        x += i & 7
    ref_loop_s = time.perf_counter() - t0
    return {
        "git_head": head,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ref_loop_s": ref_loop_s,
        "ref_loop_iters": REF_LOOP_ITERS,
    }


def _median_ms(ns) -> float:
    return statistics.median(ns) / 1e6


def _p99_ms(ns) -> float:
    # "inclusive" stays within the samples; the default extrapolates past
    # the largest one when a workload has fewer than 100 ops.
    return statistics.quantiles(ns, n=100, method="inclusive")[98] / 1e6


def stage_ms(configs) -> dict[str, float]:
    """Per stage, the median over round trip configs of the upper quartile
    of its times in ms, like ``workloads.per_op``.

    ``configs`` holds, per config, the outputs of its repeated round trips
    (None where one raised).
    """
    import workloads

    per_config: dict[str, list[float]] = {}
    for repeats in configs:
        done = [r["stage_ns"] for r in repeats if r is not None]
        for stage in done[0] if done else ():
            per_config.setdefault(stage, []).append(
                float(workloads.slow_quartile([d[stage] for d in done])))
    return {stage: statistics.median(v) / 1e6 for stage, v in per_config.items()}


def end_to_end(op_ns, frames, stages: dict, setup: dict, peak_rss_mb: float) -> dict:
    return {
        "setup_s": setup["setup_s"],
        "frames_per_s": float(frames.sum()) / (float(op_ns.sum()) / 1e9),
        "op_ms_p50": _median_ms(op_ns.tolist()),
        "op_ms_p99": _p99_ms(op_ns.tolist()),
        "recognize_ms_p50": stages["recognize"],
        "simulate_ms_p50": stages["simulate"],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, video_frames: int, roundtrip_frames: int, setup: dict,
              overhead_pct: float) -> dict:
    """Self time per layer over the work counted at that layer's boundary."""
    spans = tracer.summary()
    c = tracer.counts

    def span(name, field="self_ns"):
        return spans.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def us_per(name, den, field="self_ns"):
        return ratio(span(name, field) / 1e3, den)

    def per_call(name, scale, field="self_ns"):
        return ratio(span(name, field) / scale, span(name, "calls"))

    return {
        "fileio.parse_temporal_us_per_frame": us_per(
            "fileio.parse_temporal_stream", c["fileio.parse_temporal_stream.frames"]),
        "fileio.serialize_temporal_us_per_frame": us_per(
            "fileio.serialize_temporal_stream", c["fileio.serialize_temporal_stream.frames"]),
        "fileio.temporal_bytes_per_frame": ratio(
            c["fileio.serialize_temporal_stream.bytes"],
            c["fileio.serialize_temporal_stream.frames"]),
        "fileio.parse_asd_us_per_frame": us_per("fileio.parse_asd_stream", roundtrip_frames),
        "fileio.parse_labels_us_per_event": us_per(
            "fileio.parse_labels", c["fileio.parse_labels.events"]),
        "simulator.simulate_us_per_frame": us_per(
            "simulator.simulate", c["simulator.simulate.frames"]),
        "simulator.run_experiment_us_per_frame": us_per(
            "simulator.run_experiment", c["simulator.run_experiment.frames"], "incl_ns"),
        "simulator.run_experiment_self_us_per_frame": us_per(
            "simulator.run_experiment", c["simulator.run_experiment.frames"]),
        "state_inference.asd_stream_probs_us_per_frame": us_per(
            "state_inference.asd_stream_probs", c["state_inference.asd_stream_probs.frames"]),
        "filtering.fuse_streams_us_per_frame": us_per(
            "filtering.fuse_streams", c["filtering.fuse_streams.frames"]),
        "filtering.fuse_us_per_frame": ratio(
            (span("filtering.fuse_streams") + span("filtering.fuse")) / 1e3,
            c["filtering.fuse_streams.frames"] + span("filtering.fuse", "calls")),
        "filtering.run_filter_us_per_frame": us_per(
            "filtering.run_filter", c["filtering.run_filter.frames"]),
        "filtering.filter_step_us_per_call": per_call("filtering.filter_step", 1e3),
        "filtering.confidence_frames_per_frame": ratio(
            c["filtering.confidence_frames"], video_frames),
        "filtering.events_emitted": c["filtering.events"],
        "cli.simulate_ms": per_call("cli.simulate", 1e6, "incl_ns"),
        "cli.recognize_ms": per_call("cli.recognize", 1e6, "incl_ns"),
        "cli.recognize_self_ms": per_call("cli.recognize", 1e6),
        "cli.evaluate_ms": per_call("cli.evaluate", 1e6, "incl_ns"),
        "metrics.evaluate_us_per_video": per_call("metrics.evaluate", 1e3),
        "metrics.dl_cells_per_video": ratio(
            c["metrics.dl_cells"], span("metrics.evaluate", "calls")),
        "setup.import_numpy_s": setup["import_numpy_s"],
        "setup.import_psrkit_s": setup["import_psrkit_s"],
        "trace.overhead_pct": overhead_pct,
    }


def run_passes(w, start: float, deadline: float, tracer=None, **kw) -> tuple[list, list]:
    """Passes over the same ops until the deadline: (untraced, traced).

    A workload whose ops are all new runs new ops for the first
    FIRST_PASS_SHARE of the time and then repeats them; the others repeat
    whole passes. With a tracer, passes alternate between untraced and
    traced, so that both see the machine at the same moments.
    """
    import workloads

    passes = ([], [])

    def run(stop, n_ops):
        traced = tracer is not None and len(passes[0]) > len(passes[1])
        if traced:
            workloads.install_layers(tracer)
        try:
            passes[int(traced)].append(workloads.measure(
                w, stop, n_ops=n_ops, tracer=tracer if traced else None, **kw))
        finally:
            if traced:
                tracer.uninstall()

    if w.cycle is None:
        run(start + (deadline - start) * FIRST_PASS_SHARE, None)
    else:
        run(deadline, w.cycle)
    n_ops = passes[0][0].ops
    while time.perf_counter() < deadline or (tracer is not None and not passes[1]):
        run(deadline, n_ops)
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_psrkit()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    context = run_context()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    is_cli = args.workload == "cli-roundtrip"
    keep = (lambda out: {"digests": out["digests"], "stage_ns": out["stage_ns"]}) \
        if is_cli else None
    tracer = tracing.Tracer() if args.trace else None
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, tmp)
        sample_stages = w.stage_threshold is not None and not args.trace
        probes, trips = [], []
        # Probes and stage trips run at evenly spaced moments of the run, so
        # that they see the machine as the ops do.
        start = time.perf_counter()
        ticks = [start + args.seconds * (k + 0.5) / TICKS for k in range(TICKS)]

        def tick():
            ticks.pop(0)
            probes.append(measure_setup())
            if sample_stages:
                trips.append(w.stage_trip())

        def between():
            if ticks and time.perf_counter() >= ticks[0]:
                tick()

        untraced, traced = run_passes(
            w, start, start + args.seconds, tracer, keep=keep, between=between
        )
        if args.trace and w.stage_threshold is not None:
            workloads.install_layers(tracer)
            try:
                trips.append(w.stage_trip(tracer))
            finally:
                tracer.uninstall()
        while ticks:
            tick()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup = summarize_setup(probes)

    all_passes = untraced + traced
    attempted = sum(p.ops for p in all_passes) + len(trips)
    failed = sum(p.failed for p in all_passes) + sum(
        1 for r in trips if r is None or not workloads.check_round_trip(r)
    )
    canary = [p.canary_rejected for p in all_passes]
    if is_cli:
        # Passes rerun the same configs; each run must write identical files.
        for runs in zip(*(p.kept for p in all_passes)):
            done = [r["digests"] for r in runs if r is not None]
            failed += sum(1 for d in done[1:] if d != done[0])
    correct = failed == 0 and all(c is True for c in canary)

    op_ns, frames = workloads.per_op(untraced)
    if args.trace:
        traced_ns, _ = workloads.per_op(traced)
        both = min(len(op_ns), len(traced_ns))  # ops that ran both ways
        sample_frames = sum(r["frames"] for r in trips if r is not None)
        pass_frames = sum(sum(p.frames) for p in traced)
        metrics = per_layer(
            tracer,
            video_frames=pass_frames + sample_frames,
            roundtrip_frames=pass_frames if is_cli else sample_frames,
            setup=setup,
            overhead_pct=float(traced_ns[:both].sum() / op_ns[:both].sum() - 1) * 100,
        )
        units = PER_LAYER
    else:
        configs = zip_longest(*(p.kept for p in untraced)) if is_cli else [trips]
        metrics = end_to_end(op_ns, frames, stage_ms(configs), setup, peak_rss_mb)
        units = END_TO_END

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "ops": attempted,
        "ops_failed": failed,
        "ops_per_pass": untraced[0].ops,
        "passes": len(untraced),
        "stage_trips": len(trips),
        "canary_rejected": canary,
    }
    record = dict(summary, metrics=metrics, setup_probes=probes,
                  stage_trip_ns=[r and r["stage_ns"] for r in trips])
    if is_cli:
        record["op_digests"] = {
            f"seed{w.doc_seed(i)}": kept["digests"]
            for i, kept in enumerate(untraced[0].kept) if kept is not None
        }
    if tracer is not None:
        record["spans"] = tracer.summary()
        record["counts"] = dict(tracer.counts)
        tracer.write(OUT / f"{tag}.spans.jsonl")
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
