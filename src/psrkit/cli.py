"""Command-line surface: evaluate, recognize, simulate, sample, validate.

Exit codes: 0 success, 2 usage error, 3 parse/config failure, 4 undefined
metric (e.g. empty ground truth). Set PSR_LOG to control log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import (
    ConfigError,
    PsrError,
    SchemaError,
    UndefinedMetricError,
)
from .filtering import FilterState, ProbStream, filter_step, fuse_streams, run_filter
from .metrics import aggregate, evaluate
from .procedure import EventSequence
from .sampling import clip_indices, kcas_pmf, kfs_batch, sample_clip_ends
from .simulator import run_experiment, simulate
from .state_inference import asd_stream_probs

log = logging.getLogger(__name__)


def _add_parse_mode(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--strict", dest="strict", action="store_true", default=True,
        help="abort on any malformed record (default)",
    )
    group.add_argument(
        "--lenient", dest="strict", action="store_false",
        help="log and skip malformed records",
    )


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        if (value := int(text)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psrkit",
        description="Streaming procedure-step recognition engine and evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="score predictions against ground-truth labels")
    p.add_argument("--labels", required=True, help="ground-truth labels JSONL")
    p.add_argument("--predictions", required=True, help="predicted events JSONL")
    p.add_argument("--out", required=True, help="report JSON output path")
    p.add_argument("--csv", help="per-video metrics CSV (default: <out>.csv)")
    p.add_argument("--weights", default="", help="edit costs, e.g. insert=1,transpose=2")
    p.add_argument("--include-incorrect", action="store_true",
                   help="keep incorrect completions in the ground truth (diagnostics)")
    p.add_argument("--optimal-matching", action="store_true",
                   help="experimental assignment-based matching instead of greedy")
    p.add_argument("--procedure", help="procedure name or file (to validate records)")
    _add_parse_mode(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recognize", help="turn detector streams into step predictions")
    p.add_argument("--streams", nargs="+", required=True,
                   help="stream files; kind is read from each file's schema header")
    p.add_argument("--procedure", required=True, help="procedure name or file")
    p.add_argument("--threshold", type=_finite_float, default=1.0,
                   help="cumulative confidence threshold T (default 1.0)")
    p.add_argument("--decay", type=_finite_float, default=0.75,
                   help="retention multiplier on evidence-free frames (default 0.75)")
    p.add_argument("--evidence-floor", type=_finite_float, default=0.0,
                   help="probabilities at or below this count as no evidence")
    p.add_argument("--fuse", action="store_true",
                   help="require a state and a temporal stream; given both, every "
                        "video is fused, against zeros where one stream lacks it")
    p.add_argument("--min-confidence", type=_finite_float, default=0.0,
                   help="ignore state detections below this confidence")
    p.add_argument("--out", required=True, help="predictions JSONL output path")
    p.add_argument("--series-out", help="per-step confidence/accumulator CSV")
    _add_parse_mode(p)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("simulate", help="generate traces and the pipeline comparison")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sample", help="emit clip-end draws or a key-frame batch")
    p.add_argument("--labels", required=True, help="ground-truth labels JSONL")
    p.add_argument("--mode", required=True, choices=["kcas", "kfs"])
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--procedure", help="procedure name or file (required for kfs)")
    p.add_argument("--video-len", type=int, help="frames per video (required for kcas)")
    p.add_argument("--sigma", type=_finite_float, default=45.0, help="Gaussian std in frames")
    p.add_argument("--delta", type=_finite_float, default=80.0,
                   help="separation of the two Gaussians from each completion")
    p.add_argument("--window", type=int, default=256, help="clip window w in frames")
    p.add_argument("--clip-frames", type=int, default=64,
                   help="frames sampled per clip (N_w)")
    p.add_argument("--n", type=int, default=100, help="clip draws per video")
    p.add_argument("--tf", type=_finite_float, default=2.0,
                   help="seconds after a completion eligible for key frames")
    p.add_argument("--n-sample", type=int, default=16, help="real frames per state")
    p.add_argument("--n-syn", type=int, default=0, help="synthetic refs per state")
    p.add_argument("--synthetic-pool",
                   help="JSON file mapping state_id to synthetic references")
    _add_parse_mode(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("validate", help="check files against their schemas")
    p.add_argument("--labels", nargs="*", default=(), help="label files to validate")
    p.add_argument("--streams", nargs="*", default=(), help="stream files to validate")
    p.add_argument("--procedure", help="procedure name or file for cross-checks")
    p.set_defaults(func=cmd_validate)

    return parser


def _load_streams(paths, proc, strict):
    """Split stream files by declared schema into (asd map, temporal map)."""
    loaded = {}
    for path in paths:
        schema, data = fileio.parse_stream(path, proc, strict)
        if schema in loaded:
            raise SchemaError(f"more than one {schema} stream given", path=str(path))
        loaded[schema] = data
    return loaded.get(fileio.ASD_SCHEMA), loaded.get(fileio.TEMPORAL_SCHEMA)


def _densify(stream: ProbStream | None, video_len: int, n_steps: int) -> ProbStream:
    """A temporal stream with a row for every frame: `stream` if it has them all, else zero-filled."""
    if stream is not None and len(stream) == video_len:
        return stream
    probs = np.zeros((video_len, n_steps))
    if stream is not None:
        probs[stream.frames] = stream.probs
    return ProbStream._adopt(np.arange(video_len, dtype=np.int64), probs, "temporal")


def _series_rows(vid, stream: ProbStream, state: FilterState):
    """Per frame, each step that is ever positive: its prob and the accumulator
    that folding `filter_step` from `state` over `stream` leaves after the frame."""
    active = np.flatnonzero((stream.probs > 0).any(axis=0)).tolist()
    actions = [state.procedure.actions[k] for k in active]
    accs = (filter_step(state, f)[0].accumulators.tolist() for f in stream)
    return [
        (vid, frame, k, action, p, acc[k])
        for frame, prow, acc in zip(stream.frames.tolist(), stream.probs[:, active].tolist(), accs)
        for k, action, p in zip(active, actions, prow)
    ]


def cmd_evaluate(args) -> int:
    csv_path = args.csv or str(Path(args.out).with_suffix(".csv"))
    if Path(csv_path).resolve() == Path(args.out).resolve():  # the CSV would overwrite the report
        raise ValueError(f"--csv {csv_path} and --out {args.out} name the same file")
    proc = fileio.resolve_procedure(args.procedure) if args.procedure else None
    weights = fileio.parse_weights(args.weights)
    gt = fileio.parse_labels(args.labels, proc=proc, strict=args.strict)
    preds = fileio.parse_labels(args.predictions, proc=proc, strict=args.strict)
    orphans = sorted(set(preds) - set(gt))
    if orphans:
        raise UndefinedMetricError(
            f"predictions reference videos with no ground truth: {orphans}"
        )
    reports = {}
    for vid in sorted(gt):
        pred = preds.get(vid) or EventSequence((), video_id=vid, fps=gt[vid].fps)
        reports[vid] = evaluate(
            gt[vid],
            pred,
            weights=weights,
            include_incorrect=args.include_incorrect,
            optimal_matching=args.optimal_matching,
        )
    summary = aggregate(reports)
    config = {
        "command": "evaluate",
        "labels": str(args.labels),
        "predictions": str(args.predictions),
        "weights": dataclasses.asdict(weights),
        "include_incorrect": args.include_incorrect,
        "optimal_matching": args.optimal_matching,
        "strict": args.strict,
    }
    fileio.write_json(args.out, fileio.build_report(reports, summary, config))
    fileio.write_metrics_csv(reports, summary, csv_path)
    tau = "undefined" if summary.tau_s is None else f"{summary.tau_s:.3f}s"
    print(
        f"evaluated {summary.n_videos} video(s): pos={summary.pos:.4f} "
        f"f1={summary.f1:.4f} tau={tau}"
    )
    return 0


def cmd_recognize(args) -> int:
    if args.series_out and Path(args.series_out).resolve() == Path(args.out).resolve():
        raise ValueError(f"--series-out {args.series_out} and --out {args.out} name the same file")
    proc = fileio.resolve_procedure(args.procedure)
    asd, temporal = _load_streams(args.streams, proc, args.strict)
    if args.fuse and (asd is None or temporal is None):
        raise ValueError("--fuse needs one state stream and one temporal stream")
    if asd is None and temporal is None:
        raise ValueError("no usable streams given")
    videos = sorted(set(asd or {}) | set(temporal or {}))
    predictions = {}
    series_rows = []
    for vid in videos:
        dets = (asd or {}).get(vid, [])
        temp = (temporal or {}).get(vid)
        video_len = max(
            dets[-1].frame + 1 if dets else 0,
            int(temp.frames[-1]) + 1 if temp is not None else 0,
        )
        try:  # dense float64 arrays of video_len rows; numpy refuses past sys.maxsize bytes
            if video_len * max(proc.n_steps, 1) * 8 > sys.maxsize:
                raise MemoryError
            stream = _densify(temp, video_len, proc.n_steps) if temporal is not None else None
            if asd is not None:
                asd_probs = asd_stream_probs(dets, proc, video_len, min_confidence=args.min_confidence)
                stream = asd_probs if stream is None else fuse_streams(asd_probs, stream)
        except MemoryError:
            raise ValueError(f"video {vid!r}: {video_len} frames do not fit in memory") from None
        filter_args = (proc, args.threshold, args.decay, args.evidence_floor)
        predictions[vid] = run_filter(stream, *filter_args, video_id=vid)
        if args.series_out:
            series_rows.extend(_series_rows(vid, stream, FilterState(*filter_args)))
    fileio.serialize_labels(predictions, args.out)
    if args.series_out:
        fileio.write_series_csv(series_rows, args.series_out)
    total = sum(len(p) for p in predictions.values())
    print(f"recognized {total} step completion(s) across {len(videos)} video(s)")
    return 0


def cmd_simulate(args) -> int:
    config, thresholds = fileio.load_sim_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = simulate(config)
    result = run_experiment(
        config,
        t_asd=thresholds["asd"],
        t_fused=thresholds["fused"],
        t_temporal=thresholds["temporal"],
        decay=thresholds["decay"],
        traces=traces,
    )
    gt = {t.ground_truth.video_id: t.ground_truth for t in traces}
    fileio.serialize_labels(gt, out_dir / "gt_labels.jsonl")
    fileio.serialize_asd_stream(
        {t.ground_truth.video_id: t.asd_detections for t in traces},
        out_dir / "asd_stream.jsonl",
    )
    fileio.serialize_temporal_stream(
        {t.ground_truth.video_id: t.temporal_frames for t in traces},
        out_dir / "temporal_stream.jsonl",
    )
    fileio.write_occlusion_masks(
        {t.ground_truth.video_id: t.occlusion_mask for t in traces},
        out_dir / "occlusion.jsonl",
    )
    doc = {"schema": fileio.COMPARISON_SCHEMA, "version": fileio.VERSION}
    doc.update(result.to_dict())
    fileio.write_json(out_dir / "comparison.json", doc)
    for name, s in result.summaries.items():
        tau = "undefined" if s.tau_s is None else f"{s.tau_s:.3f}s"
        print(f"{name:9s} pos={s.pos:.4f} f1={s.f1:.4f} tau={tau}")
    return 0


def cmd_sample(args) -> int:
    labels = fileio.parse_labels(args.labels, strict=args.strict)
    if args.mode == "kcas":
        if args.video_len is None:
            raise ValueError("--video-len is required for kcas sampling")
        specs = {}
        children = np.random.SeedSequence(args.seed).spawn(len(labels))
        for child, vid in zip(children, sorted(labels)):
            completions = [e.frame for e in labels[vid].correct_only()]
            dist = kcas_pmf(
                completions, args.video_len, sigma=args.sigma, delta=args.delta,
                w=args.window,
            )
            ends = sample_clip_ends(dist, args.n, seed=child)
            specs[vid] = [
                clip_indices(int(e), args.window, args.clip_frames) for e in ends
            ]
        config = {
            "command": "sample-kcas",
            "sigma": args.sigma,
            "delta": args.delta,
            "window": args.window,
            "clip_frames": args.clip_frames,
            "n": args.n,
            "seed": args.seed,
            "video_len": args.video_len,
        }
        fileio.write_clip_samples(args.out, specs, config)
        print(f"sampled {args.n} clip(s) for each of {len(specs)} video(s)")
        return 0
    # kfs
    if not args.procedure:
        raise ValueError("--procedure is required for kfs sampling")
    proc = fileio.resolve_procedure(args.procedure)
    pool = fileio.load_synthetic_pool(args.synthetic_pool) if args.synthetic_pool else None
    spec = kfs_batch(
        labels,
        proc,
        t_f=args.tf,
        n_sample=args.n_sample,
        n_syn=args.n_syn,
        synthetic_pool=pool,
        seed=args.seed,
    )
    config = {
        "command": "sample-kfs",
        "seed": args.seed,
        "procedure": args.procedure,
        "synthetic_pool": args.synthetic_pool,
    }
    fileio.write_kfs_batch(args.out, spec, config)
    print(f"built a batch of {len(spec.entries)} entries over {spec.n_state} state(s)")
    return 0


def cmd_validate(args) -> int:
    proc = fileio.resolve_procedure(args.procedure) if args.procedure else None
    for path in args.labels:
        seqs = fileio.parse_labels(path, proc=proc, strict=True)
        events = sum(len(s) for s in seqs.values())
        print(f"{path}: OK ({len(seqs)} video(s), {events} event(s))")
    for path in args.streams:
        schema, data = fileio.parse_stream(path, proc, strict=True)
        count = sum(map(len, data.values()))
        unit = "detection(s)" if schema == fileio.ASD_SCHEMA else "frame(s)"
        print(f"{path}: OK ({len(data)} video(s), {count} {unit})")
    return 0


_parser = functools.cache(build_parser)  # one parser per process, built on first use


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    level = os.environ.get("PSR_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        return args.func(args)
    except UndefinedMetricError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (SchemaError, ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (PsrError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
