"""Evaluation metrics for procedure step recognition.

Three metrics are computed from a ground-truth and a predicted event sequence:

* order similarity: 1 - min(editdist(Y, Yhat) / |Y|, 1), where the edit
  distance is a weighted Damerau-Levenshtein over action-id strings;
* F1 over temporally matched true/false positives and false negatives
  (a prediction is a TP only at or after the actual completion);
* average delay tau: mean seconds between each matched completion and its
  recognition, defined only when at least one match exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import PsrError, StructureError, UndefinedMetricError
from .procedure import ActionId, EventSequence


@dataclass(frozen=True)
class EditWeights:
    """Costs of the four edit operations. Unit costs give the classic distance.

    The dynamic program assumes 2 * transpose >= insert + delete (true for
    the defaults); cheaper transpositions would make repeated adjacent swaps
    beat the modelled single-transposition step.
    """

    insert: float = 1.0
    delete: float = 1.0
    substitute: float = 1.0
    transpose: float = 1.0

    def __post_init__(self):
        for name in ("insert", "delete", "substitute", "transpose"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(
                    f"edit weight {name} must be a finite non-negative number, got {value}"
                )


def damerau_levenshtein(
    a: Sequence[ActionId],
    b: Sequence[ActionId],
    weights: EditWeights | None = None,
) -> float:
    """Minimal total cost transforming `a` into `b`.

    Operations: insert, delete, substitute, and transpose of adjacent items.
    Unlike the restricted "optimal string alignment" variant, a transposed
    pair may be edited again later, so e.g. [C,A] -> [A,B,C] costs 2 under
    unit weights (swap, then insert).
    """
    w = weights or EditWeights()
    la, lb = len(a), len(b)
    inf = math.inf
    # rows 0..la+1, cols 0..lb+1; row/col 0 is an infinite sentinel border
    d = [[inf] * (lb + 2) for _ in range(la + 2)]
    d[1][1] = 0.0
    for i in range(1, la + 1):
        d[i + 1][1] = i * w.delete
    for j in range(1, lb + 1):
        d[1][j + 1] = j * w.insert
    last_row: dict = {}
    for i in range(1, la + 1):
        ch_a = a[i - 1]
        last_col = 0
        for j in range(1, lb + 1):
            ch_b = b[j - 1]
            i_prev = last_row.get(ch_b, 0)
            j_prev = last_col
            sub = 0.0 if ch_a == ch_b else w.substitute
            best = min(
                d[i][j] + sub,
                d[i + 1][j] + w.insert,
                d[i][j + 1] + w.delete,
            )
            if i_prev > 0 and j_prev > 0:
                best = min(
                    best,
                    d[i_prev][j_prev]
                    + (i - i_prev - 1) * w.delete
                    + w.transpose
                    + (j - j_prev - 1) * w.insert,
                )
            d[i + 1][j + 1] = best
            if ch_a == ch_b:
                last_col = j
        last_row[ch_a] = i
    return d[la + 1][lb + 1]


def pos_score(
    gt: EventSequence,
    pred: EventSequence,
    weights: EditWeights | None = None,
) -> float:
    """Order similarity between executed and recognized step sequences.

    Both sequences are projected to action ids in completion order. The score
    is 1 - min(dist / |gt|, 1); an empty ground truth leaves it undefined.
    """
    y = gt.actions()
    if not y:
        raise UndefinedMetricError("order similarity is undefined for empty ground truth")
    dist = damerau_levenshtein(y, pred.actions(), weights)
    return 1.0 - min(dist / len(y), 1.0)


@dataclass(frozen=True)
class MatchLedger:
    """Which predictions matched which ground-truth events, and the leftovers."""

    matches: tuple[tuple[int, int], ...]
    false_positives: tuple[int, ...]
    false_negatives: tuple[int, ...]

    @property
    def tp(self) -> int:
        return len(self.matches)

    @property
    def fp(self) -> int:
        return len(self.false_positives)

    @property
    def fn(self) -> int:
        return len(self.false_negatives)

    def check(self, n_pred: int, n_gt: int) -> None:
        """Validate the ledger partitions both event sets exactly once."""
        pred_side = [m[0] for m in self.matches] + list(self.false_positives)
        gt_side = [m[1] for m in self.matches] + list(self.false_negatives)
        if sorted(pred_side) != list(range(n_pred)):
            raise StructureError("ledger does not partition predictions")
        if sorted(gt_side) != list(range(n_gt)):
            raise StructureError("ledger does not partition ground truth")


def match_predictions(
    gt: EventSequence, pred: EventSequence, optimal: bool = False
) -> MatchLedger:
    """Temporal matching of predictions against correct completions.

    Greedy rule (default): predictions in ascending time each claim the
    earliest unmatched ground-truth event with the same action id whose
    completion is at or before the prediction. Unmatched predictions are
    false positives (including any prediction that precedes every candidate
    completion); unmatched ground truth is a false negative.

    With `optimal=True` an assignment solver maximizes the number of matches
    and, among those, minimizes total delay. Experimental; the greedy rule is
    the documented semantics.
    """
    if optimal:
        return _match_optimal(gt, pred)
    taken = [False] * len(gt.events)
    matches: list[tuple[int, int]] = []
    false_pos: list[int] = []
    for pi, p in enumerate(pred.events):
        hit = None
        for gi, g in enumerate(gt.events):
            if taken[gi] or g.action != p.action:
                continue
            if g.frame <= p.frame:
                hit = gi
                break
        if hit is None:
            false_pos.append(pi)
        else:
            taken[hit] = True
            matches.append((pi, hit))
    false_neg = [gi for gi, t in enumerate(taken) if not t]
    return MatchLedger(tuple(matches), tuple(false_pos), tuple(false_neg))


_INFEASIBLE = 1e12


def _match_optimal(gt: EventSequence, pred: EventSequence) -> MatchLedger:
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError:
        raise PsrError("optimal matching needs scipy: install psrkit[matching]") from None

    matches: list[tuple[int, int]] = []
    matched_pred: set[int] = set()
    matched_gt: set[int] = set()
    by_action: dict[ActionId, tuple[list[int], list[int]]] = {}
    for gi, g in enumerate(gt.events):
        by_action.setdefault(g.action, ([], []))[1].append(gi)
    for pi, p in enumerate(pred.events):
        by_action.setdefault(p.action, ([], []))[0].append(pi)
    for action in sorted(by_action):
        pis, gis = by_action[action]
        if not pis or not gis:
            continue
        cost = [
            [
                (pred.events[pi].frame / pred.fps - gt.events[gi].frame / gt.fps)
                if pred.events[pi].frame >= gt.events[gi].frame
                else _INFEASIBLE
                for gi in gis
            ]
            for pi in pis
        ]
        rows, cols = linear_sum_assignment(cost)
        for r, c in zip(rows, cols):
            if cost[r][c] < _INFEASIBLE:
                matches.append((pis[r], gis[c]))
                matched_pred.add(pis[r])
                matched_gt.add(gis[c])
    matches.sort()
    false_pos = tuple(i for i in range(len(pred.events)) if i not in matched_pred)
    false_neg = tuple(i for i in range(len(gt.events)) if i not in matched_gt)
    return MatchLedger(tuple(matches), false_pos, false_neg)


def f1_score(ledger: MatchLedger) -> tuple[float, float, float]:
    """(precision, recall, f1) with zero-denominator cases scored 0."""
    tp, fp, fn = ledger.tp, ledger.fp, ledger.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


def average_delay(
    ledger: MatchLedger, gt: EventSequence, pred: EventSequence
) -> float | None:
    """Mean seconds from completion to recognition over matched pairs.

    Returns None (never 0.0) when there are no matches.
    """
    if not ledger.matches:
        return None
    total = sum(
        pred.events[pi].frame / pred.fps - gt.events[gi].frame / gt.fps
        for pi, gi in ledger.matches
    )
    return total / len(ledger.matches)


def _scores(r: EvaluationReport | DatasetSummary) -> dict:
    """The metric fields shared by a video's report and a dataset summary."""
    tp, fp, fn = r.counts
    return {"pos": r.pos, "precision": r.precision, "recall": r.recall, "f1": r.f1,
            "tau_s": r.tau_s, "tp": tp, "fp": fp, "fn": fn}


@dataclass(frozen=True)
class EvaluationReport:
    """All three metrics plus the match ledger for one video."""

    pos: float
    precision: float
    recall: float
    f1: float
    tau_s: float | None
    ledger: MatchLedger

    @property
    def counts(self) -> tuple[int, int, int]:
        """(tp, fp, fn) of the ledger."""
        return self.ledger.tp, self.ledger.fp, self.ledger.fn

    def to_dict(self) -> dict:
        return {
            **_scores(self),
            "matches": [list(m) for m in self.ledger.matches],
            "false_positives": list(self.ledger.false_positives),
            "false_negatives": list(self.ledger.false_negatives),
        }


def evaluate(
    gt: EventSequence,
    pred: EventSequence,
    weights: EditWeights | None = None,
    include_incorrect: bool = False,
    optimal_matching: bool = False,
) -> EvaluationReport:
    """Score one video's predictions against its ground truth.

    Incorrect completions are dropped from the ground truth unless
    `include_incorrect` is set (diagnostics only). Both sequences must share
    an fps, since delays compare their frames in seconds.
    """
    if pred.fps != gt.fps:
        raise StructureError(
            f"video {gt.video_id!r}: predictions at {pred.fps} fps, labels at {gt.fps} fps"
        )
    y = gt if include_incorrect else gt.correct_only()
    if not y.events:
        raise UndefinedMetricError(
            f"video {gt.video_id!r}: no correct ground-truth completions"
        )
    ledger = match_predictions(y, pred, optimal=optimal_matching)
    ledger.check(len(pred.events), len(y.events))
    precision, recall, f1 = f1_score(ledger)
    return EvaluationReport(
        pos=pos_score(y, pred, weights),
        precision=precision,
        recall=recall,
        f1=f1,
        tau_s=average_delay(ledger, y, pred),
        ledger=ledger,
    )


@dataclass(frozen=True)
class DatasetSummary:
    """Aggregate over videos: macro-averaged scores, delay pooled over matches."""

    pos: float
    precision: float
    recall: float
    f1: float
    tau_s: float | None
    counts: tuple[int, int, int]
    n_videos: int

    def to_dict(self) -> dict:
        return {**_scores(self), "n_videos": self.n_videos}


def aggregate(reports: Mapping[str, EvaluationReport]) -> DatasetSummary:
    """Combine per-video reports into one dataset summary.

    POS/precision/recall/F1 are macro-averaged over videos; tau is the mean
    over all matched pairs pooled across videos, so videos contribute in
    proportion to their true positives.
    """
    if not reports:
        raise UndefinedMetricError("cannot aggregate zero videos")
    ordered = [reports[k] for k in sorted(reports)]
    n = len(ordered)
    tp, fp, fn = (sum(column) for column in zip(*(r.counts for r in ordered)))
    pooled_delay = None
    if tp:
        pooled_delay = (
            sum(r.tau_s * r.counts[0] for r in ordered if r.tau_s is not None) / tp
        )
    return DatasetSummary(
        pos=sum(r.pos for r in ordered) / n,
        precision=sum(r.precision for r in ordered) / n,
        recall=sum(r.recall for r in ordered) / n,
        f1=sum(r.f1 for r in ordered) / n,
        tau_s=pooled_delay,
        counts=(tp, fp, fn),
        n_videos=n,
    )
