import numpy as np
import pytest

from temporalkit.metrics import (
    LabelMatrix,
    PredictionMatrix,
    average_precision,
    ensemble_average,
    map_eval,
)


def ap_by_counting(scores, labels):
    """Brute-force AP oracle: ranks computed by pairwise comparison.

    An item outranks item i when its score is larger, or equal with a smaller
    original index (the pinned tie rule). Written independently of the sort
    implementation under test.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    positives = np.flatnonzero(labels == 1.0)
    if positives.size == 0:
        return None
    precisions = []
    for i in positives:
        rank = 1
        hits = 1
        for j in range(scores.size):
            if j == i:
                continue
            above = scores[j] > scores[i] or (scores[j] == scores[i] and j < i)
            if above:
                rank += 1
                if labels[j] == 1.0:
                    hits += 1
        precisions.append(hits / rank)
    return float(np.mean(precisions))


def map_by_counting(probs, labels, mode):
    aps = []
    if mode == "sample":
        for s in range(probs.shape[0]):
            aps.append(ap_by_counting(probs[s], labels[s]))
    else:
        for c in range(probs.shape[1]):
            aps.append(ap_by_counting(probs[:, c], labels[:, c]))
    aps = [a for a in aps if a is not None]
    return float(np.mean(aps))


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.1, 0.8], [1, 0, 1]) == 1.0

    def test_mixed_ranking_is_seven_twelfths(self):
        got = average_precision([0.9, 0.8, 0.1], [0, 1, 1])
        np.testing.assert_allclose(got, 7.0 / 12.0, rtol=1e-12)

    def test_all_positive_is_one(self):
        for seed in range(5):
            scores = np.random.default_rng(seed).normal(size=6)
            assert average_precision(scores, np.ones(6)) == 1.0

    def test_no_positives_reports_skip(self):
        assert average_precision([0.4, 0.2], [0, 0]) is None

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.normal(size=8)
            y = (rng.random(8) < 0.5).astype(float)
            if y.sum() == 0:
                y[0] = 1.0
            assert average_precision(s, y) == average_precision(2.0 * s + 1.0, y)

    def test_one_iff_positives_outrank_negatives(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = rng.normal(size=7)
            y = (rng.random(7) < 0.4).astype(float)
            if y.sum() == 0:
                y[3] = 1.0
            ap = average_precision(s, y)
            assert 0.0 <= ap <= 1.0
            worst_pos = min(s[y == 1.0])
            clean = y.sum() == 7 or worst_pos > max(s[y == 0.0])
            assert (ap == 1.0) == clean

    def test_tie_broken_by_original_index(self):
        # positive at index 1 ties the negative at index 0: negative wins
        np.testing.assert_allclose(average_precision([0.5, 0.5], [0, 1]), 0.5)
        np.testing.assert_allclose(average_precision([0.5, 0.5], [1, 0]), 1.0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            s = np.round(rng.normal(size=n), 1)  # rounded to force ties
            y = (rng.random(n) < 0.5).astype(float)
            assert average_precision(s, y) == pytest.approx(
                ap_by_counting(s, y), abs=1e-12
            ) or (average_precision(s, y) is None and ap_by_counting(s, y) is None)


class TestMapEval:
    def _random_instance(self, rng):
        s = int(rng.integers(1, 9))
        c = int(rng.integers(1, 7))
        probs = np.round(rng.random((s, c)), 2)
        labels = (rng.random((s, c)) < 0.4).astype(float)
        ids = tuple(f"v{i}" for i in range(s))
        return PredictionMatrix(ids, probs), LabelMatrix(ids, labels)

    @pytest.mark.parametrize("mode", ["sample", "class"])
    def test_matches_counting_oracle_on_1000_instances(self, mode):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(1000):
            preds, labels = self._random_instance(rng)
            if labels.labels.sum() == 0:
                continue
            want = map_by_counting(preds.probs, labels.labels, mode)
            got = map_eval(preds, labels, mode)
            assert abs(got - want) <= 1e-12
            checked += 1
        assert checked > 900

    def test_perfect_predictions_score_one(self):
        rng = np.random.default_rng(12)
        labels = (rng.random((6, 5)) < 0.5).astype(float)
        labels[0] = [1, 0, 0, 0, 0]
        ids = tuple(f"v{i}" for i in range(6))
        pm = PredictionMatrix(ids, labels)
        lm = LabelMatrix(ids, labels)
        assert map_eval(pm, lm, "sample") == 1.0
        assert map_eval(pm, lm, "class") == 1.0

    def test_single_row_reduces_to_average_precision(self):
        probs = np.array([[0.9, 0.8, 0.1]])
        labels = np.array([[0.0, 1.0, 1.0]])
        pm = PredictionMatrix(("a",), probs)
        lm = LabelMatrix(("a",), labels)
        assert map_eval(pm, lm, "sample") == pytest.approx(average_precision(probs[0], labels[0]))

    def test_rows_without_positives_are_skipped(self):
        ids = ("a", "b")
        pm = PredictionMatrix(ids, np.array([[0.9, 0.1], [0.3, 0.7]]))
        lm = LabelMatrix(ids, np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert map_eval(pm, lm, "sample") == 1.0

    def test_misaligned_ids_name_the_offender(self):
        pm = PredictionMatrix(("a", "b"), np.zeros((2, 2)))
        lm = LabelMatrix(("a", "c"), np.ones((2, 2)))
        with pytest.raises(ValueError, match="'b'.*'c'|'c'"):
            map_eval(pm, lm, "sample")

    @pytest.mark.parametrize("mode", ["sample", "class"])
    def test_same_ids_in_another_order_are_misaligned(self, mode):
        # the same set of ids is not enough: rows pair up by position
        pm = PredictionMatrix(("a", "b", "c"), np.eye(3))
        lm = LabelMatrix(("a", "c", "b"), np.eye(3))
        with pytest.raises(ValueError, match=r"^misaligned ids: prediction 'b' vs label 'c'$"):
            map_eval(pm, lm, mode)

    def test_no_positives_anywhere_rejected(self):
        pm = PredictionMatrix(("a",), np.array([[0.5]]))
        lm = LabelMatrix(("a",), np.array([[0.0]]))
        with pytest.raises(ValueError, match="undefined"):
            map_eval(pm, lm, "sample")


class TestEnsembleAverage:
    def _pm(self, probs, ids=("a", "b")):
        return PredictionMatrix(ids, np.asarray(probs, dtype=float))

    def test_uniform_average(self):
        a = self._pm([[0.2, 0.8], [0.5, 0.5]])
        b = self._pm([[0.4, 0.6], [0.5, 0.5]])
        out = ensemble_average([a, b])
        np.testing.assert_allclose(out.probs[0], [0.3, 0.7])

    def test_single_input_identity(self):
        a = self._pm([[0.2, 0.8], [0.1, 0.9]])
        np.testing.assert_array_equal(ensemble_average([a]).probs, a.probs)

    def test_degenerate_weights_select_first(self):
        a = self._pm([[0.25, 0.75], [0.5, 0.5]])
        b = self._pm([[0.9, 0.1], [0.9, 0.1]])
        out = ensemble_average([a, b], weights=[1.0, 0.0])
        np.testing.assert_array_equal(out.probs, a.probs)

    def test_output_stays_in_unit_interval(self):
        rng = np.random.default_rng(13)
        mats = [self._pm(rng.random((2, 4)), ids=("a", "b")) for _ in range(4)]
        out = ensemble_average(mats, weights=[0.1, 0.2, 0.3, 0.4])
        assert np.all(out.probs >= 0) and np.all(out.probs <= 1)
        stacked = np.stack([m.probs for m in mats])
        assert np.all(out.probs <= stacked.max(axis=0) + 1e-15)
        assert np.all(out.probs >= stacked.min(axis=0) - 1e-15)

    def test_id_mismatch_rejected(self):
        a = self._pm([[0.1, 0.9]], ids=("a",))
        b = self._pm([[0.1, 0.9]], ids=("b",))
        with pytest.raises(ValueError, match="id mismatch"):
            ensemble_average([a, b])

    def test_weights_must_sum_to_one(self):
        a = self._pm([[0.1, 0.9], [0.2, 0.8]])
        with pytest.raises(ValueError, match="sum to 1"):
            ensemble_average([a, a], weights=[0.7, 0.7])

    @pytest.mark.parametrize("weights,named", [((2.0, -1.0), "weight 1 is -1.0"),
                                               ((np.nan, 1.0), "weight 0 is nan")])
    def test_negative_or_non_finite_weight_rejected(self, weights, named):
        a = self._pm([[0.1, 0.9], [0.2, 0.8]])
        b = self._pm([[0.6, 0.4], [0.3, 0.7]])
        with pytest.raises(ValueError, match=f"{named}; weights must be finite and non-negative"):
            ensemble_average([a, b], weights=weights)


class TestMatrixTypes:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            PredictionMatrix(("a", "a"), np.zeros((2, 2)))

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError, match="0, 1"):
            PredictionMatrix(("a",), np.array([[1.5]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            PredictionMatrix(("x",), np.array([[value, 0.5]]))

    def test_labels_must_be_binary(self):
        with pytest.raises(ValueError, match="binary"):
            LabelMatrix(("a",), np.array([[0.5]]))
