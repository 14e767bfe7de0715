import math

import numpy as np
import pytest

from psrkit import (
    DegenerateBatchError,
    EmbeddingBatch,
    ProbBatch,
    StructureError,
    multilabel_bce,
    supcon_loss,
)

from oracles import naive_bce, naive_supcon


def normalize(rows):
    rows = np.asarray(rows, dtype=float)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_batch(rng, n, d, n_classes, tau=0.07):
    vectors = normalize(rng.normal(size=(n, d)))
    labels = rng.integers(0, n_classes, size=n)
    # guarantee at least one positive pair
    labels[1] = labels[0]
    return EmbeddingBatch(vectors=vectors, labels=labels, temperature=tau)


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


class TestSupcon:
    def test_identical_positives_zero_loss(self):
        v = normalize([[1.0, 0.0], [1.0, 0.0]])
        batch = EmbeddingBatch(vectors=v, labels=np.array([5, 5]), temperature=0.07)
        assert supcon_loss(batch) == pytest.approx(0.0, abs=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            batch = random_batch(rng, int(rng.integers(4, 10)), 4, 3)
            expected = naive_supcon(
                batch.vectors.tolist(), batch.labels.tolist(), batch.temperature
            )
            assert supcon_loss(batch) == pytest.approx(expected, abs=1e-6)

    def test_outside_log_variant(self):
        rng = np.random.default_rng(1)
        batch = random_batch(rng, 6, 4, 3)
        expected = naive_supcon(
            batch.vectors.tolist(), batch.labels.tolist(), batch.temperature,
            inside=False,
        )
        assert supcon_loss(batch, mean_inside_log=False) == pytest.approx(
            expected, abs=1e-6
        )

    def test_sharper_temperature_reduces_dominant_positive_loss(self):
        # one tight positive pair, negatives far away: lowering the
        # temperature sharpens the softmax toward the positive
        v = normalize([[1.0, 0.01], [1.0, -0.01], [-1.0, 0.3], [-1.0, -0.4]])
        labels = np.array([0, 0, 1, 2])
        warm = supcon_loss(EmbeddingBatch(v, labels, temperature=0.07))
        cold = supcon_loss(EmbeddingBatch(v, labels, temperature=0.007))
        assert cold < warm

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            batch = random_batch(rng, 8, 5, 3)
            rot = random_orthogonal(rng, 5)
            rotated = EmbeddingBatch(
                vectors=batch.vectors @ rot,
                labels=batch.labels,
                temperature=batch.temperature,
            )
            assert supcon_loss(rotated) == pytest.approx(supcon_loss(batch), abs=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        batch = random_batch(rng, 10, 4, 3)
        perm = rng.permutation(10)
        shuffled = EmbeddingBatch(
            vectors=batch.vectors[perm],
            labels=batch.labels[perm],
            temperature=batch.temperature,
        )
        assert supcon_loss(shuffled) == pytest.approx(supcon_loss(batch), abs=1e-9)

    def test_anchor_without_positive_excluded(self, caplog):
        v = normalize([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.2]])
        labels = np.array([0, 0, 7])
        with caplog.at_level("WARNING"):
            loss = supcon_loss(EmbeddingBatch(v, labels, temperature=0.1))
        assert "no positives" in caplog.text
        expected = naive_supcon(v.tolist(), labels.tolist(), 0.1)
        assert loss == pytest.approx(expected, abs=1e-9)

    def test_all_singleton_labels_degenerate(self):
        v = normalize([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateBatchError):
            supcon_loss(EmbeddingBatch(v, np.array([0, 1]), temperature=0.1))

    def test_unit_norm_enforced(self):
        with pytest.raises(StructureError):
            EmbeddingBatch(
                vectors=np.array([[2.0, 0.0], [1.0, 0.0]]),
                labels=np.array([0, 0]),
            )

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, 0.0, -0.1])
    def test_temperature_must_be_finite_positive(self, temperature):
        v = normalize([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(StructureError, match="temperature"):
            EmbeddingBatch(v, np.array([0, 0]), temperature=temperature)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_row_rejected(self, bad):
        with pytest.raises(StructureError, match="row norms"):
            EmbeddingBatch(np.array([[1.0, 0.0], [bad, 0.0]]), np.array([0, 0]))

    def test_numerically_stable_at_tiny_temperature(self):
        v = normalize([[1.0, 0.0], [1.0, 1e-4], [-1.0, 0.1]])
        labels = np.array([0, 0, 1])
        loss = supcon_loss(EmbeddingBatch(v, labels, temperature=1e-3))
        assert math.isfinite(loss)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng, 12, 6, 3)
        assert supcon_loss(batch) == supcon_loss(batch)
        preds = rng.random((5, 4))
        targets = rng.integers(0, 2, size=(5, 4))
        pb = ProbBatch(predictions=preds, targets=targets)
        assert multilabel_bce(pb) == multilabel_bce(pb)


class TestMultilabelBce:
    def test_perfect_prediction_near_zero(self):
        targets = np.array([[1, 0, 1], [0, 0, 1]])
        batch = ProbBatch(predictions=targets.astype(float), targets=targets)
        assert multilabel_bce(batch) == pytest.approx(0.0, abs=3 * 1e-6)

    def test_uniform_prediction_closed_form(self):
        c = 7
        batch = ProbBatch(
            predictions=np.full((4, c), 0.5), targets=np.zeros((4, c), dtype=int)
        )
        assert multilabel_bce(batch) == pytest.approx(c * math.log(2), rel=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n, c = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            preds = rng.random((n, c))
            targets = rng.integers(0, 2, size=(n, c))
            batch = ProbBatch(predictions=preds, targets=targets)
            assert multilabel_bce(batch) == pytest.approx(
                naive_bce(preds.tolist(), targets.tolist()), abs=1e-9
            )

    def test_minimized_at_targets(self):
        rng = np.random.default_rng(5)
        targets = rng.integers(0, 2, size=(3, 4))
        base = multilabel_bce(
            ProbBatch(predictions=targets.astype(float), targets=targets)
        )
        for i in range(3):
            for j in range(4):
                perturbed = targets.astype(float)
                perturbed[i, j] = abs(perturbed[i, j] - 0.01)
                loss = multilabel_bce(ProbBatch(predictions=perturbed, targets=targets))
                assert loss > base

    def test_shape_mismatch(self):
        with pytest.raises(StructureError):
            ProbBatch(predictions=np.zeros((2, 3)), targets=np.zeros((2, 4), dtype=int))

    def test_out_of_range_predictions(self):
        with pytest.raises(StructureError):
            ProbBatch(predictions=np.array([[1.5]]), targets=np.array([[1]]))

    def test_non_binary_targets(self):
        with pytest.raises(StructureError):
            ProbBatch(predictions=np.array([[0.5]]), targets=np.array([[2]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_predictions_rejected(self, bad):
        with pytest.raises(StructureError, match="predictions"):
            ProbBatch(predictions=np.array([[0.5, bad]]), targets=np.array([[1, 0]]))

    def test_nan_target_rejected(self):
        with pytest.raises(StructureError, match="binary"):
            ProbBatch(predictions=np.array([[0.5]]), targets=np.array([[math.nan]]))
