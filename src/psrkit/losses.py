"""Gradient-free reference evaluation of the two training losses.

These are numeric oracles for external training code to cross-check against:
a supervised contrastive loss over unit-norm embeddings, and a multi-label
binary cross-entropy over per-step probabilities. No gradients, no
parameters.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBatchError, StructureError

log = logging.getLogger(__name__)

UNIT_NORM_TOL = 1e-6
PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class EmbeddingBatch:
    """N unit-norm embedding rows with integer state labels and a temperature."""

    vectors: np.ndarray
    labels: np.ndarray
    temperature: float = 0.07

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=float)
        labels = np.asarray(self.labels)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)
        if vectors.ndim != 2 or vectors.shape[0] < 2:
            raise StructureError("need an (N, d) matrix with N >= 2")
        if labels.shape != (vectors.shape[0],):
            raise StructureError("labels must have one entry per embedding row")
        if not 0 < self.temperature < math.inf:
            raise StructureError(
                f"temperature must be a finite positive number, got {self.temperature}"
            )
        norms = np.linalg.norm(vectors, axis=1)
        off = np.abs(norms - 1.0)
        if not off.max() <= UNIT_NORM_TOL:  # a NaN row fails too
            raise StructureError(
                f"row norms deviate from 1 by up to {off.max():.2e} (tol {UNIT_NORM_TOL})"
            )


def supcon_loss(batch: EmbeddingBatch, mean_inside_log: bool = True) -> float:
    """Supervised contrastive loss over the batch.

    Per anchor i, with positives P(i) = same-label rows and contrast set A(i)
    = every other row:

        -log[ (1/|P(i)|) * sum_p exp(z_i.z_p / T) / sum_a exp(z_i.z_a / T) ]

    summed over anchors. `mean_inside_log=False` moves the positive average
    outside the logarithm (the alternative formulation used by some
    implementations). Anchors without positives are excluded and logged; an
    all-anchorless batch raises DegenerateBatchError. Log-sum-exps are
    stabilized by max subtraction.
    """
    z = batch.vectors
    labels = batch.labels
    n = z.shape[0]
    scores = (z @ z.T) / batch.temperature
    same = labels[:, None] == labels[None, :]
    eye = np.eye(n, dtype=bool)
    positives = same & ~eye

    total = 0.0
    used = 0
    for i in range(n):
        p_mask = positives[i]
        n_pos = int(p_mask.sum())
        if n_pos == 0:
            log.warning("anchor %d has no positives; excluded from the loss", i)
            continue
        row = scores[i]
        contrast = ~eye[i]
        m = row[contrast].max()
        denom = np.exp(row[contrast] - m).sum()
        if mean_inside_log:
            num = np.exp(row[p_mask] - m).sum() / n_pos
            total += -(np.log(num) - np.log(denom))
        else:
            log_denom = m + np.log(denom)
            total += -np.mean(row[p_mask] - log_denom)
        used += 1
    if used == 0:
        raise DegenerateBatchError("no anchor has a positive partner")
    return float(total)


@dataclass(frozen=True)
class ProbBatch:
    """Predicted probabilities and binary targets of shape (N, C)."""

    predictions: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        preds = np.asarray(self.predictions, dtype=float)
        targets = np.asarray(self.targets)
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "targets", targets)
        if preds.ndim != 2:
            raise StructureError("predictions must be an (N, C) matrix")
        if targets.shape != preds.shape:
            raise StructureError(
                f"shape mismatch: predictions {preds.shape}, targets {targets.shape}"
            )
        if not ((preds >= 0.0) & (preds <= 1.0)).all():
            raise StructureError("predictions must lie in [0, 1]")
        if not np.isin(targets, (0, 1)).all():
            raise StructureError("targets must be binary")


def multilabel_bce(batch: ProbBatch) -> float:
    """Multi-label binary cross-entropy, averaged over samples, summed over steps.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logarithms.
    """
    p = np.clip(batch.predictions, PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = batch.targets
    n = p.shape[0]
    ll = y * np.log(p) + (1 - y) * np.log(1.0 - p)
    return float(-ll.sum() / n)
