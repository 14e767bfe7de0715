import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from psrkit import (
    EditWeights,
    EventSequence,
    StructureError,
    UndefinedMetricError,
    aggregate,
    average_delay,
    damerau_levenshtein,
    evaluate,
    f1_score,
    match_predictions,
    pos_score,
)

from oracles import brute_edit_distance, greedy_match_pairs, max_matching_count
from util import seq_of

A, B, C = 0, 1, 2

seqs = st.lists(st.sampled_from([A, B, C]), max_size=6)


class TestDamerauLevenshtein:
    def test_identical(self):
        assert damerau_levenshtein([A, B, C], [A, B, C]) == 0

    def test_adjacent_transposition(self):
        assert damerau_levenshtein([A, B, C], [A, C, B]) == 1

    def test_delete_all(self):
        assert damerau_levenshtein([A, B, C], []) == 3

    def test_unrestricted_variant(self):
        # transpose then insert inside the swapped pair; the restricted
        # alignment variant would need 3 edits here
        assert damerau_levenshtein([C, A], [A, B, C]) == 2

    def test_weighted_costs(self):
        w = EditWeights(insert=2, delete=3, substitute=5, transpose=0.5)
        assert damerau_levenshtein([A], [A, B], w) == 2
        assert damerau_levenshtein([A, B], [A], w) == 3
        assert damerau_levenshtein([A, B], [B, A], w) == 0.5
        assert damerau_levenshtein([A], [B], w) == 5

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            EditWeights(insert=-1)

    @pytest.mark.parametrize("name", ["insert", "delete", "substitute", "transpose"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"edit weight {name}"):
            EditWeights(**{name: value})

    @given(seqs, seqs)
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive_search(self, a, b):
        assert damerau_levenshtein(a, b) == brute_edit_distance(a, b)

    def test_weighted_matches_exhaustive_search(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            ins, dele, sub = rng.uniform(0.5, 2.0, size=3).round(2)
            trans = round(float(rng.uniform((ins + dele) / 2, 2.5)), 2)
            w = EditWeights(insert=ins, delete=dele, substitute=sub, transpose=trans)
            a = [int(x) for x in rng.integers(0, 3, size=rng.integers(0, 5))]
            b = [int(x) for x in rng.integers(0, 3, size=rng.integers(0, 5))]
            got = damerau_levenshtein(a, b, w)
            expected = brute_edit_distance(a, b, ins=ins, delete=dele, sub=sub, trans=trans)
            assert got == pytest.approx(expected, abs=1e-9), (a, b, w)

    @given(seqs, seqs)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        assert damerau_levenshtein(a, b) == damerau_levenshtein(b, a)

    @given(seqs, seqs, seqs)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        ab = damerau_levenshtein(a, b)
        bc = damerau_levenshtein(b, c)
        ac = damerau_levenshtein(a, c)
        assert ac <= ab + bc + 1e-12


class TestPosScore:
    def test_perfect(self):
        gt = seq_of([(A, 10), (B, 20), (C, 30)])
        assert pos_score(gt, gt) == 1.0

    def test_single_swap(self):
        gt = seq_of([(A, 10), (B, 20), (C, 30)])
        pred = seq_of([(A, 10), (C, 20), (B, 30)])
        assert pos_score(gt, pred) == pytest.approx(1 - 1 / 3, abs=1e-9)

    def test_empty_prediction_clamps(self):
        gt = seq_of([(A, 10), (B, 20), (C, 30)])
        pred = EventSequence((), video_id="v", fps=10)
        assert pos_score(gt, pred) == 0.0

    def test_empty_gt_undefined(self):
        gt = EventSequence((), video_id="v", fps=10)
        with pytest.raises(UndefinedMetricError):
            pos_score(gt, gt)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n_gt, n_pred = rng.integers(1, 6), rng.integers(0, 6)
            gt_pairs = [(int(rng.integers(3)), 10 * i) for i in range(n_gt)]
            pred_pairs = [(int(rng.integers(3)), 10 * i + 3) for i in range(n_pred)]
            shift = int(rng.integers(1, 500))
            base = pos_score(seq_of(gt_pairs), seq_of(pred_pairs))
            shifted = pos_score(
                seq_of([(a, f + shift) for a, f in gt_pairs]),
                seq_of([(a, f + shift) for a, f in pred_pairs]),
            )
            assert base == shifted


class TestMatching:
    def test_mixed_outcome(self):
        gt = seq_of([(A, 100), (B, 200)])  # 10s, 20s at fps 10
        pred = seq_of([(A, 120), (C, 150)])
        ledger = match_predictions(gt, pred)
        assert ledger.matches == ((0, 0),)
        assert ledger.false_positives == (1,)
        assert ledger.false_negatives == (1,)

    def test_identical(self):
        gt = seq_of([(A, 10), (B, 20)])
        ledger = match_predictions(gt, gt)
        assert ledger.tp == 2 and ledger.fp == 0 and ledger.fn == 0

    def test_early_prediction_is_fp(self):
        gt = seq_of([(A, 100)])
        pred = seq_of([(A, 50)])
        ledger = match_predictions(gt, pred)
        assert ledger.tp == 0 and ledger.fp == 1 and ledger.fn == 1

    def test_equal_time_is_tp(self):
        gt = seq_of([(A, 100)])
        ledger = match_predictions(gt, seq_of([(A, 100)]))
        assert ledger.tp == 1

    def test_duplicate_prediction_is_fp(self):
        gt = seq_of([(A, 10)])
        pred = seq_of([(A, 20), (A, 30)])
        ledger = match_predictions(gt, pred)
        assert ledger.tp == 1 and ledger.fp == 1

    def test_matched_pred_never_precedes_gt(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            gt = seq_of(
                {(int(rng.integers(3)), int(rng.integers(50))) for _ in range(4)}
            )
            pred = seq_of(
                {(int(rng.integers(3)), int(rng.integers(50))) for _ in range(4)}
            )
            ledger = match_predictions(gt, pred)
            for pi, gi in ledger.matches:
                assert pred.events[pi].frame >= gt.events[gi].frame
                assert pred.events[pi].action == gt.events[gi].action

    def test_greedy_achieves_max_matching(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            gt_pairs = {(int(rng.integers(3)), int(rng.integers(40))) for _ in range(5)}
            pred_pairs = {(int(rng.integers(3)), int(rng.integers(40))) for _ in range(5)}
            gt, pred = seq_of(gt_pairs), seq_of(pred_pairs)
            ledger = match_predictions(gt, pred)
            flat_gt = [(e.action, e.frame) for e in gt.events]
            flat_pred = [(e.action, e.frame) for e in pred.events]
            assert ledger.tp == max_matching_count(flat_gt, flat_pred)

    def test_optimal_flag_same_counts_smaller_delay(self):
        gt = seq_of([(A, 0), (A, 100)])
        pred = seq_of([(A, 120)])
        greedy = match_predictions(gt, pred)
        optimal = match_predictions(gt, pred, optimal=True)
        assert greedy.tp == optimal.tp == 1
        assert greedy.matches[0][1] == 0  # earliest-unmatched rule
        assert optimal.matches[0][1] == 1  # delay-minimizing assignment

    def test_ledger_partition_checks(self):
        gt = seq_of([(A, 10), (B, 20)])
        pred = seq_of([(A, 30)])
        ledger = match_predictions(gt, pred)
        ledger.check(len(pred.events), len(gt.events))


class TestF1AndDelay:
    def test_balanced(self):
        gt = seq_of([(A, 100), (B, 200)])
        pred = seq_of([(A, 120), (C, 150)])
        ledger = match_predictions(gt, pred)
        assert f1_score(ledger) == (0.5, 0.5, 0.5)
        assert average_delay(ledger, gt, pred) == pytest.approx(2.0)

    def test_all_zero_convention(self):
        gt = seq_of([(A, 10)])
        empty = EventSequence((), video_id="v", fps=10)
        ledger = match_predictions(empty, empty)
        assert f1_score(ledger) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        gt = seq_of([(A, 10), (B, 20), (C, 30)])
        ledger = match_predictions(gt, gt)
        assert f1_score(ledger) == (1.0, 1.0, 1.0)
        assert average_delay(ledger, gt, gt) == 0.0

    def test_no_match_undefined(self):
        gt = seq_of([(A, 100)])
        pred = seq_of([(B, 120)])
        ledger = match_predictions(gt, pred)
        assert average_delay(ledger, gt, pred) is None

    def test_delay_mean(self):
        gt = seq_of([(A, 100), (B, 200)])
        pred = seq_of([(A, 120), (B, 240)])
        ledger = match_predictions(gt, pred)
        assert average_delay(ledger, gt, pred) == pytest.approx(3.0)

    def test_matches_transcribed_rule(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            gt = seq_of({(int(rng.integers(3)), int(rng.integers(40))) for _ in range(4)})
            pred = seq_of({(int(rng.integers(3)), int(rng.integers(40))) for _ in range(4)})
            ledger = match_predictions(gt, pred)
            flat_gt = [(e.action, e.frame) for e in gt.events]
            flat_pred = [(e.action, e.frame) for e in pred.events]
            pairs, fps, fns = greedy_match_pairs(flat_gt, flat_pred)
            assert list(ledger.matches) == pairs
            assert list(ledger.false_positives) == fps
            assert list(ledger.false_negatives) == fns

    def test_delay_never_negative_when_defined(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            gt = seq_of({(int(rng.integers(3)), int(rng.integers(60))) for _ in range(5)})
            pred = seq_of({(int(rng.integers(3)), int(rng.integers(60))) for _ in range(5)})
            ledger = match_predictions(gt, pred)
            tau = average_delay(ledger, gt, pred)
            assert tau is None or tau >= 0.0


# Small random sequences: a few actions over a short span, so that matches,
# early predictions, duplicates and incorrect completions all occur.
events = st.sets(st.tuples(st.integers(0, 3), st.integers(0, 40), st.booleans()), max_size=8)


def _unique_seq(triples, fps):
    """seq_of over triples, keeping one event per (action, frame)."""
    return seq_of({(a, f): (a, f, c) for a, f, c in triples}.values(), fps=fps)


class TestProperties:
    @given(events, events, st.sampled_from([10.0, 25.0, 29.97]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_scores_in_unit_interval(self, gt_events, pred_events, fps, optimal):
        gt, pred = _unique_seq(gt_events, fps), _unique_seq(pred_events, fps)
        assume(gt.correct_only().events)  # else undefined, as TestEvaluate checks
        report = evaluate(gt, pred, optimal_matching=optimal)
        for name in ("pos", "precision", "recall", "f1"):
            assert 0.0 <= getattr(report, name) <= 1.0, name
        assert report.tau_s is None or report.tau_s >= 0.0

    @given(events, events, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_ledger_partitions_both_event_sets(self, gt_events, pred_events, optimal):
        gt, pred = _unique_seq(gt_events, 10.0), _unique_seq(pred_events, 10.0)
        ledger = match_predictions(gt, pred, optimal=optimal)
        pred_side = [p for p, _ in ledger.matches] + list(ledger.false_positives)
        gt_side = [g for _, g in ledger.matches] + list(ledger.false_negatives)
        assert sorted(pred_side) == list(range(len(pred)))
        assert sorted(gt_side) == list(range(len(gt)))
        for p, g in ledger.matches:
            assert pred.events[p].action == gt.events[g].action
            assert pred.events[p].frame >= gt.events[g].frame


class TestEvaluate:
    def test_perfect(self):
        gt = seq_of([(A, 10), (B, 20)])
        report = evaluate(gt, gt)
        assert report.pos == 1.0 and report.f1 == 1.0 and report.tau_s == 0.0

    def test_frame_rates_must_match(self):
        gt = seq_of([(A, 10), (B, 20)], fps=25.0, video_id="clip")
        with pytest.raises(StructureError, match=r"'clip'.* 10.0 fps.* 25.0 fps"):
            evaluate(gt, seq_of([(A, 10)], fps=10.0, video_id="clip"))

    def test_empty_prediction(self):
        gt = seq_of([(A, 10), (B, 20)])
        report = evaluate(gt, EventSequence((), video_id="v", fps=10))
        assert report.pos == 0.0 and report.f1 == 0.0 and report.tau_s is None

    def test_composition_fixture(self):
        gt = seq_of([(A, 100), (B, 200)])
        pred = seq_of([(A, 120), (C, 150)])
        report = evaluate(gt, pred)
        assert report.f1 == 0.5
        assert report.tau_s == pytest.approx(2.0)
        assert report.pos == pytest.approx(0.5)
        assert report.counts == (1, 1, 1)

    def test_incorrect_gt_excluded_by_default(self):
        gt = seq_of([(A, 10), (B, 20, False)])
        pred = seq_of([(A, 15)])
        report = evaluate(gt, pred)
        assert report.counts == (1, 0, 0)
        diag = evaluate(gt, pred, include_incorrect=True)
        assert diag.counts == (1, 0, 1)

    def test_all_incorrect_gt_is_undefined(self):
        gt = seq_of([(A, 10, False)])
        with pytest.raises(UndefinedMetricError):
            evaluate(gt, gt)

    def test_deterministic(self):
        gt = seq_of([(A, 100), (B, 200), (C, 250)])
        pred = seq_of([(A, 120), (C, 150), (B, 260)])
        r1, r2 = evaluate(gt, pred), evaluate(gt, pred)
        assert r1 == r2


class TestAggregate:
    def test_macro_average_and_pooled_delay(self):
        gt1 = seq_of([(A, 100), (B, 200)])
        pred1 = seq_of([(A, 110), (B, 210)])  # two matches, delay 1s each
        gt2 = seq_of([(A, 100)])
        pred2 = seq_of([(A, 140)])  # one match, delay 4s
        reports = {"v1": evaluate(gt1, pred1), "v2": evaluate(gt2, pred2)}
        summary = aggregate(reports)
        assert summary.pos == 1.0
        assert summary.f1 == 1.0
        assert summary.tau_s == pytest.approx((1.0 + 1.0 + 4.0) / 3)
        assert summary.counts == (3, 0, 0)
        assert summary.n_videos == 2

    def test_no_tp_pool_undefined(self):
        gt = seq_of([(A, 100)])
        pred = seq_of([(B, 120)])
        summary = aggregate({"v": evaluate(gt, pred)})
        assert summary.tau_s is None

    def test_empty_rejected(self):
        with pytest.raises(UndefinedMetricError):
            aggregate({})
