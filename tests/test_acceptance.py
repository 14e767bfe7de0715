"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest output.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from psrkit import (
    ConfidenceFrame,
    EventSequence,
    FilterState,
    INSTALL,
    Procedure,
    average_delay,
    damerau_levenshtein,
    evaluate,
    f1_score,
    filter_step,
    fuse_streams,
    heavy_occlusion_config,
    kcas_pmf,
    kfs_batch,
    match_predictions,
    nominal_events,
    pos_score,
    audit_kfs_batch,
    run_filter,
    sample_clip_ends,
    simulate,
    clip_label,
    state_occurrences,
    toy_motorcycle,
)
from psrkit import fileio
from psrkit.cli import main as cli_main
from psrkit.losses import EmbeddingBatch, ProbBatch, multilabel_bce, supcon_loss
from psrkit.state_inference import StateDetection, asd_stream_probs

from oracles import (
    brute_edit_distance,
    greedy_match_pairs,
    max_matching_count,
    naive_bce,
    naive_clip_label,
    naive_supcon,
)
from util import random_event_set, seq_of


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, name


def random_pairs(rng, n, max_len=5, alphabet=3, min_gt=0):
    for _ in range(n):
        la = int(rng.integers(min_gt, max_len + 1))
        lb = int(rng.integers(0, max_len + 1))
        a = [int(x) for x in rng.integers(0, alphabet, size=la)]
        b = [int(x) for x in rng.integers(0, alphabet, size=lb)]
        yield a, b


def timed_sequences(rng, n_events, alphabet=3, span=60):
    pairs = set()
    while len(pairs) < n_events:
        pairs.add((int(rng.integers(alphabet)), int(rng.integers(span))))
    return seq_of(sorted(pairs, key=lambda p: (p[1], p[0])))


def test_criterion_1_metric_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    checked = 0
    for a, b in random_pairs(rng, 1000):
        assert damerau_levenshtein(a, b) == brute_edit_distance(a, b), (a, b)
        checked += 1

    for _ in range(100):
        gt = timed_sequences(rng, int(rng.integers(1, 6)))
        pred = timed_sequences(rng, int(rng.integers(0, 6)))
        y = gt.actions()
        expected_pos = 1.0 - min(brute_edit_distance(y, pred.actions()) / len(y), 1.0)
        assert pos_score(gt, pred) == pytest.approx(expected_pos, abs=1e-12)

        flat_gt = [(e.action, e.frame) for e in gt.events]
        flat_pred = [(e.action, e.frame) for e in pred.events]
        pairs, fps, fns = greedy_match_pairs(flat_gt, flat_pred)
        ledger = match_predictions(gt, pred)
        assert list(ledger.matches) == pairs
        assert ledger.tp == max_matching_count(flat_gt, flat_pred)
        tp, fp, fn = len(pairs), len(fps), len(fns)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert f1_score(ledger) == (precision, recall, f1)

        delay = average_delay(ledger, gt, pred)
        if pairs:
            expected = sum(
                pred.events[pi].frame / pred.fps - gt.events[gi].frame / gt.fps
                for pi, gi in pairs
            ) / len(pairs)
            assert delay == pytest.approx(expected, abs=1e-12)
        else:
            assert delay is None
    elapsed = time.monotonic() - start
    verdict(
        "criterion 1: edit distance matches exhaustive search on 1000 pairs; "
        "pos/f1/delay match enumeration on 100 instances",
        checked == 1000 and elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_criterion_2_metric_fixtures():
    swap = pos_score(seq_of([(0, 10), (1, 20), (2, 30)]), seq_of([(0, 10), (2, 20), (1, 30)]))
    ok_pos = abs(swap - (1 - 1 / 3)) <= 1e-9

    gt = seq_of([(0, 100), (1, 200)])  # completions at 10s and 20s
    pred = seq_of([(0, 120), (2, 150)])
    report = evaluate(gt, pred)
    ok_f1 = report.f1 == 0.5
    ok_tau = report.tau_s == pytest.approx(2.0, abs=1e-12)

    no_tp = evaluate(seq_of([(0, 100)]), seq_of([(1, 120)]))
    ok_undefined = no_tp.tau_s is None and no_tp.tau_s != 0.0
    verdict(
        "criterion 2: pos=0.6667 on the swapped triple, f1=0.5 and tau=2.0s on "
        "the two-event fixture, tau undefined without matches",
        ok_pos and ok_f1 and ok_tau and ok_undefined,
        f"pos={swap:.10f}",
    )


def test_criterion_3_clip_end_distribution():
    start = time.monotonic()
    t, w = 1200, 256
    video_len = 2 * t - (w - 1)  # support symmetric around t
    dist = kcas_pmf([t], video_len=video_len, sigma=45, delta=80, w=w)

    ok_sum = abs(dist.pmf.sum() - 1.0) < 1e-9

    center = t - dist.start
    sym_dev = max(
        abs(dist.pmf[center - k] - dist.pmf[center + k]) for k in range(1, center)
    )
    ok_sym = sym_dev < 1e-12

    left = int(np.argmax(dist.pmf[:center]))
    right = center + int(np.argmax(dist.pmf[center:]))
    ok_modes = (dist.start + left == t - 80) and (dist.start + right == t + 80)
    ok_dip = dist.pmf[center] < dist.pmf[center - 80] and dist.pmf[center] < dist.pmf[center + 80]

    draws = sample_clip_ends(dist, 1_000_000, seed=77)
    freq = np.bincount(draws - dist.start, minlength=len(dist.pmf)) / 1_000_000
    max_dev = float(np.abs(freq - dist.pmf).max())
    ok_draws = max_dev < 3e-3

    elapsed = time.monotonic() - start
    verdict(
        "criterion 3: bimodal clip-end PMF normalized, symmetric, modes at "
        "completion +/- 80, dip at the completion, draws track the PMF",
        ok_sum and ok_sym and ok_modes and ok_dip and ok_draws and elapsed < 30,
        f"sym={sym_dev:.1e} draw_dev={max_dev:.1e} {elapsed:.1f}s",
    )


def test_criterion_4_key_frame_batch_law():
    toy = toy_motorcycle()
    rng = np.random.default_rng(44)
    videos = {}
    for v in range(3):
        cursor, frames = 0, []
        for _ in range(11):
            cursor += int(rng.integers(30, 150))
            frames.append(cursor)
        videos[f"v{v}"] = nominal_events(toy, frames, video_id=f"v{v}")
    occurrences = {}
    for vid, seq in videos.items():
        for frame, sid in state_occurrences(seq, toy):
            occurrences.setdefault(sid, []).append((vid, frame))

    all_ok = True
    for seed in range(100):
        spec = kfs_batch(videos, toy, t_f=2.0, n_sample=16, n_syn=0, seed=seed)
        counts = {}
        for entry in spec.entries:
            counts[entry.state_id] = counts.get(entry.state_id, 0) + 1
            within = any(
                vid == entry.video_id and 0 <= entry.frame - f < 20
                for vid, f in occurrences[entry.state_id]
            )
            all_ok = all_ok and within
        all_ok = all_ok and len(spec.entries) == 176
        all_ok = all_ok and set(counts) == set(range(1, 12))
        all_ok = all_ok and all(c == 16 for c in counts.values())
        audit_kfs_batch(spec, videos, toy)
    verdict(
        "criterion 4: 100 seeded key-frame batches each hold 176 entries, 16 per "
        "state, all within 20 frames after an occurrence",
        all_ok,
    )


def test_criterion_5_clip_labeling():
    toy = toy_motorcycle()
    rng = np.random.default_rng(55)
    all_ok = True
    for _ in range(10_000):
        seq = random_event_set(rng, toy, n_events=int(rng.integers(0, 10)), max_frame=150)
        s = int(rng.integers(0, 150))
        e = s + int(rng.integers(0, 150))
        flat = [(ev.frame, ev.component, ev.kind) for ev in seq.events]
        if clip_label(seq, toy, s, e) != naive_clip_label(flat, 17, s, e):
            all_ok = False
            break

    remove_reinstall = EventSequence.from_events(
        [toy.make_event(3, 10), toy.make_event(20, 40), toy.make_event(3, 70)],
        fps=10,
    )
    zero = clip_label(remove_reinstall, toy, 20, 100)
    all_ok = all_ok and sum(zero) == 0
    verdict(
        "criterion 5: clip labels equal the endpoint-state XOR on 10000 random "
        "event sets, including the remove-then-reinstall cancellation",
        all_ok,
    )


def test_criterion_6_loss_oracles():
    rng = np.random.default_rng(66)
    ok = True
    for _ in range(100):
        n = int(rng.integers(3, 17))
        d = int(rng.integers(2, 9))
        vectors = rng.normal(size=(n, d))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=n)
        labels[1] = labels[0]
        batch = EmbeddingBatch(vectors=vectors, labels=labels, temperature=0.07)
        expected = naive_supcon(vectors.tolist(), labels.tolist(), 0.07)
        ok = ok and abs(supcon_loss(batch) - expected) < 1e-6

        c = int(rng.integers(1, 7))
        preds = rng.random((n, c))
        targets = rng.integers(0, 2, size=(n, c))
        pb = ProbBatch(predictions=preds, targets=targets)
        ok = ok and abs(multilabel_bce(pb) - naive_bce(preds.tolist(), targets.tolist())) < 1e-9

    inv_ok = True
    for _ in range(20):
        n, d = 10, 6
        vectors = rng.normal(size=(n, d))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=n)
        labels[1] = labels[0]
        batch = EmbeddingBatch(vectors=vectors, labels=labels, temperature=0.07)
        base = supcon_loss(batch)
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        q = q * np.sign(np.diag(r))
        rotated = EmbeddingBatch(vectors=vectors @ q, labels=labels, temperature=0.07)
        inv_ok = inv_ok and abs(supcon_loss(rotated) - base) < 1e-6
        perm = rng.permutation(n)
        shuffled = EmbeddingBatch(
            vectors=vectors[perm], labels=labels[perm], temperature=0.07
        )
        inv_ok = inv_ok and abs(supcon_loss(shuffled) - base) < 1e-6
    verdict(
        "criterion 6: contrastive and cross-entropy losses match double-loop "
        "transcriptions; rotation and permutation invariance hold",
        ok and inv_ok,
    )


def test_criterion_7_filter_semantics():
    proc = Procedure(
        components=tuple("abcdef"),
        actions=tuple(range(6)),
        action_effects={i: (i, INSTALL) for i in range(6)},
        fps=10,
    )
    rng = np.random.default_rng(7)

    def constant_emission_frame(t, p):
        frames = [
            ConfidenceFrame(frame=f, probs=(p,) + (0.0,) * 5, stream_id="temporal")
            for f in range(1, 400)
        ]
        seq = run_filter(frames, proc, threshold=t)
        return seq.events[0].frame if seq.events else None

    closed_ok = True
    grid = [(1.0, 0.4), (1.0, 0.5), (2.0, 0.25), (6.0, 0.9), (1.0, 1.0), (0.9, 0.3)]
    for _ in range(40):
        grid.append((round(float(rng.uniform(0.2, 4.0)), 3), round(float(rng.uniform(0.05, 1.0)), 3)))
    for t, p in grid:
        expected = int(math.ceil(Fraction(str(t)) / Fraction(str(p))))
        closed_ok = closed_ok and constant_emission_frame(t, p) == expected

    state = FilterState(procedure=proc, threshold=10.0)
    filter_step(state, ConfidenceFrame(frame=0, probs=(1.0,) + (0.0,) * 5))
    filter_step(state, ConfidenceFrame(frame=1, probs=(0.0,) * 6))
    decay_ok = state.accumulators[0] == 0.75

    chunk_ok = True
    for _ in range(100):
        frames = []
        for f in range(int(rng.integers(20, 120))):
            probs = np.where(rng.random(6) < 0.35, rng.random(6), 0.0)
            frames.append(ConfidenceFrame(frame=f, probs=tuple(probs)))
        whole = run_filter(frames, proc, threshold=1.1)
        st = FilterState(procedure=proc, threshold=1.1)
        events = []
        i = 0
        while i < len(frames):
            size = int(rng.integers(1, 13))
            for fr in frames[i : i + size]:
                _, out = filter_step(st, fr)
                events.extend(out)
            i += size
        chunked = EventSequence.from_events(events, video_id=whole.video_id, fps=proc.fps)
        chunk_ok = chunk_ok and whole == chunked
    verdict(
        "criterion 7: ceil(T/p) emission law, one silent frame decays 1.0 to "
        "0.75, chunked and whole-stream filtering agree on 100 streams",
        closed_ok and decay_ok and chunk_ok,
    )


def test_criterion_8_state_inference_golden():
    toy = toy_motorcycle()
    frames = [100 * (i + 1) for i in range(11)]
    detections = [
        StateDetection(frame=f, state=toy.states[i + 1], confidence=0.9)
        for i, f in enumerate(frames)
    ]
    stream = asd_stream_probs(detections, toy, video_len=1200)
    pred = run_filter(stream, toy, threshold=0.5)
    gt = nominal_events(toy, frames)
    expected_actions = [0, 4, 8, 1, 5, 9, 10, 2, 6, 3, 13, 7, 16, 14, 11, 12, 15]
    report = evaluate(gt, pred)
    verdict(
        "criterion 8: nominal state walk yields the 17 installs in table order "
        "with pos=1 and f1=1",
        len(pred) == 17
        and [e.action for e in pred.events] == expected_actions
        and all(e.kind == INSTALL for e in pred.events)
        and report.pos == 1.0
        and report.f1 == 1.0,
        f"tau={report.tau_s}",
    )


def test_criterion_9_delay_reduction_trend():
    start = time.monotonic()
    wins = 0
    pos_gaps = []
    n_seeds = 50
    for seed in range(n_seeds):
        config = heavy_occlusion_config(seed=seed, n_videos=3)
        proc = config.procedure
        asd_delays, fused_delays = [], []
        asd_pos, fused_pos = [], []
        for trace in simulate(config):
            asd_probs = asd_stream_probs(trace.asd_detections, proc, trace.video_len)
            asd_pred = run_filter(asd_probs, proc, threshold=0.5,
                                  video_id=trace.ground_truth.video_id)
            fused = fuse_streams(asd_probs, list(trace.temporal_frames))
            fused_pred = run_filter(fused, proc, threshold=0.4,
                                    video_id=trace.ground_truth.video_id)
            ra = evaluate(trace.ground_truth, asd_pred)
            rf = evaluate(trace.ground_truth, fused_pred)
            if ra.tau_s is not None:
                asd_delays.append((ra.tau_s, ra.counts[0]))
            if rf.tau_s is not None:
                fused_delays.append((rf.tau_s, rf.counts[0]))
            asd_pos.append(ra.pos)
            fused_pos.append(rf.pos)
        mean_asd = sum(t * n for t, n in asd_delays) / sum(n for _, n in asd_delays)
        mean_fused = sum(t * n for t, n in fused_delays) / sum(n for _, n in fused_delays)
        if mean_fused < mean_asd:
            wins += 1
        pos_gaps.append(
            sum(fused_pos) / len(fused_pos) - sum(asd_pos) / len(asd_pos)
        )
    mean_gap = sum(pos_gaps) / len(pos_gaps)
    elapsed = time.monotonic() - start
    verdict(
        "criterion 9: fused pipeline beats the state-only pipeline on mean "
        f"delay in {wins}/{n_seeds} seeds (need >= 45) with order kept within 0.05",
        wins >= 45 and mean_gap >= -0.05 and elapsed < 300,
        f"pos_gap={mean_gap:+.4f} {elapsed:.1f}s",
    )


def test_criterion_10_byte_identical_reruns(tmp_path):
    import json

    toy = toy_motorcycle()
    frames = [60 * (i + 1) for i in range(11)]
    gt = {"v": nominal_events(toy, frames, video_id="v")}
    labels = tmp_path / "gt.jsonl"
    fileio.serialize_labels(gt, labels)

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "schema": fileio.SIM_CONFIG_SCHEMA,
        "version": 1,
        "procedure": "toy-motorcycle",
        "n_videos": 2,
        "seed": 5,
        "step_gap": 40,
        "tail_frames": 150,
        "occlusion": {"p_occlude": 0.12, "p_reveal": 0.04},
    }))

    sim_dir = tmp_path / "sim"
    pred = tmp_path / "pred.jsonl"
    series = tmp_path / "series.csv"
    report = tmp_path / "report.json"
    clips = tmp_path / "clips.jsonl"
    batch = tmp_path / "batch.jsonl"
    commands = [
        (
            ["simulate", "--config", str(config_path), "--out", str(sim_dir)],
            [sim_dir / n for n in ("gt_labels.jsonl", "asd_stream.jsonl",
                                   "temporal_stream.jsonl", "occlusion.jsonl",
                                   "comparison.json")],
        ),
        (
            ["recognize", "--streams", str(sim_dir / "asd_stream.jsonl"),
             str(sim_dir / "temporal_stream.jsonl"),
             "--procedure", "toy-motorcycle", "--threshold", "0.4",
             "--out", str(pred), "--series-out", str(series)],
            [pred, series],
        ),
        (
            ["evaluate", "--labels", str(sim_dir / "gt_labels.jsonl"),
             "--predictions", str(pred), "--out", str(report)],
            [report, tmp_path / "report.csv"],
        ),
        (
            ["sample", "--labels", str(labels), "--mode", "kcas",
             "--video-len", "900", "--n", "40", "--seed", "3",
             "--out", str(clips)],
            [clips],
        ),
        (
            ["sample", "--labels", str(labels), "--mode", "kfs",
             "--procedure", "toy-motorcycle", "--n-sample", "4",
             "--seed", "3", "--out", str(batch)],
            [batch],
        ),
    ]
    identical = True
    checked = 0
    for argv, outputs in commands:
        assert cli_main(argv) == 0
        first = [p.read_bytes() for p in outputs]
        assert cli_main(argv) == 0
        second = [p.read_bytes() for p in outputs]
        identical = identical and first == second
        checked += len(outputs)
    verdict(
        "criterion 10: simulate, recognize, evaluate and both samplers rerun "
        "byte-identically with fixed seeds",
        identical and checked == 11,
    )
