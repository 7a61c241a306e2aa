"""Hand-made cases for the benchmark's reference computations.

    python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import reference


class TestNMMask:
    def test_keeps_largest_magnitudes(self):
        w = [[3.0, -1.0, 2.0, 0.5], [-4.0, 0.1, 0.2, 5.0]]
        assert reference.nm_mask(w, 2, 4).tolist() == [[1, 0, 1, 0], [1, 0, 0, 1]]

    def test_sign_does_not_matter(self):
        assert reference.nm_mask([[-9.0, 1.0, 2.0, -3.0]], 1, 4).tolist() == [[1, 0, 0, 0]]

    def test_ties_go_to_the_lower_index(self):
        assert reference.nm_mask([[1.0, 1.0, 1.0, 1.0]], 2, 4).tolist() == [[1, 1, 0, 0]]
        assert reference.nm_mask([[0.5, -2.0, 2.0, 2.0]], 2, 4).tolist() == [[0, 1, 1, 0]]
        assert reference.nm_mask([[0.0, -0.0, 0.0, 0.0]], 1, 4).tolist() == [[1, 0, 0, 0]]

    def test_groups_run_along_the_last_axis(self):
        w = np.array([[1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0]])
        assert reference.nm_mask(w, 1, 4).tolist() == [[0, 0, 0, 1, 1, 0, 0, 0]]
        assert reference.nm_mask(w, 1, 2).tolist() == [[0, 1, 0, 1, 1, 0, 1, 0]]

    def test_shape_and_sparsity(self):
        w = np.arange(24.0).reshape(2, 3, 4)
        mask = reference.nm_mask(w, 1, 4)
        assert mask.shape == w.shape
        assert np.count_nonzero(mask == 0) / mask.size == 0.75

    def test_n_equal_m_keeps_everything(self):
        assert reference.nm_mask([[1.0, 0.0, -1.0]], 3, 3).tolist() == [[1, 1, 1]]

    @pytest.mark.parametrize("w, n, m", [([[1.0, 2.0, 3.0]], 1, 4), ([[1.0]], 2, 1), (1.0, 1, 1)])
    def test_rejects_bad_shapes_and_ratios(self, w, n, m):
        with pytest.raises(ValueError):
            reference.nm_mask(w, n, m)


class TestMLPLoss:
    def test_uniform_logits_give_log_classes(self):
        layers = [(np.zeros((3, 2)), np.zeros(3))]
        loss = reference.mlp_loss(layers, [[1.0, 2.0], [3.0, 4.0]], [0.0, 2.0])
        assert loss == pytest.approx(math.log(3.0), rel=1e-15)

    def test_two_logits(self):
        # logits (1, 0): -log softmax picks log(1 + e^-1) for class 0, log(1 + e) for class 1
        layers = [(np.array([[1.0], [0.0]]), np.zeros(2))]
        loss = reference.mlp_loss(layers, [[1.0], [1.0]], [0, 1])
        expected = 0.5 * (math.log1p(math.exp(-1.0)) + math.log1p(math.exp(1.0)))
        assert loss == pytest.approx(expected, rel=1e-14)

    def test_hidden_relu_and_bias(self):
        # x = 2: hidden = relu([2, -2] + [0, 1]) = [2, 0]; logits = [2, 0] + [0, 1] = [2, 1]
        layers = [(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0])),
                  (np.eye(2), np.array([0.0, 1.0]))]
        loss = reference.mlp_loss(layers, [[2.0]], [1])
        assert loss == pytest.approx(math.log1p(math.exp(1.0)), rel=1e-15)

    def test_large_logits_stay_finite(self):
        layers = [(np.array([[1000.0], [0.0]]), np.zeros(2))]
        assert reference.mlp_loss(layers, [[1.0]], [0]) == 0.0
        assert reference.mlp_loss(layers, [[1.0]], [1]) == pytest.approx(1000.0, rel=1e-15)

    def test_rejects_fractional_labels(self):
        with pytest.raises(ValueError):
            reference.mlp_loss([(np.eye(2), np.zeros(2))], [[0.0, 0.0]], [0.7])


class TestBounds:
    def test_drift_bound_closed_form(self):
        # 4 * 1 * 1e-6 * 10000 * log(200) = 0.04 * 5.298317366548036
        expected = math.sqrt(0.04 * 5.298317366548036)
        assert reference.drift_bound(1.0, 0.999, 12000, 2000, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_drift_bound_scales(self):
        base = reference.drift_bound(1.0, 0.99, 101, 1, 0.1)
        assert reference.drift_bound(2.0, 0.99, 101, 1, 0.1) == pytest.approx(2 * base, rel=1e-14)
        assert reference.drift_bound(1.0, 0.99, 401, 1, 0.1) == pytest.approx(2 * base, rel=1e-14)
        assert reference.drift_bound(1.0, 0.98, 101, 1, 0.1) == pytest.approx(2 * base, rel=1e-12)

    def test_drift_bound_vanishes_at_delta_two(self):
        assert reference.drift_bound(1.0, 0.999, 12000, 2000, 2.0) == 0.0

    def test_per_step_bound(self):
        assert reference.per_step_bound(1.0, 0.999) == pytest.approx(math.sqrt(2) * 1e-3, rel=1e-12)
        assert reference.per_step_bound(0.5, 0.5) == pytest.approx(math.sqrt(2) / 4, rel=1e-15)

    def test_rel_error(self):
        assert reference.rel_error(0.0, 0.0) == 0.0
        assert reference.rel_error(1.0, 1.0 + 1e-10) == pytest.approx(1e-10, rel=1e-5)
        assert reference.rel_error(-2.0, 2.0) == 2.0
