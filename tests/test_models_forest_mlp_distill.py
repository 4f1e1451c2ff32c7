"""Tests for RandomForestClassifier, MLPClassifier, RandomForestDistiller."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.models import (
    MLPClassifier,
    RandomForestClassifier,
    RandomForestDistiller,
)
from repro.models.mlp import network_proba
from repro.nn.layers import LayerNorm, Linear, Sequential
from repro.tensor import Tensor


class TestRandomForest:
    def test_accuracy(self, fitted_forest, blobs):
        X, y = blobs
        assert fitted_forest.score(X, y) > 0.85

    def test_probas_are_vote_fractions(self, fitted_forest, blobs):
        """v_k must equal (number of trees predicting k) / n_trees — §II-A."""
        X, _ = blobs
        v = fitted_forest.predict_proba(X[:10])
        n_trees = len(fitted_forest.trees_)
        votes = v * n_trees
        np.testing.assert_allclose(votes, np.round(votes), atol=1e-9)
        np.testing.assert_allclose(v.sum(axis=1), 1.0)

    def test_manual_vote_count_matches(self, fitted_forest, blobs):
        X, _ = blobs
        x = X[:3]
        v = fitted_forest.predict_proba(x)
        manual = np.zeros_like(v)
        for tree in fitted_forest.trees_:
            labels = tree.predict(x)
            manual[np.arange(3), labels] += 1
        np.testing.assert_allclose(v, manual / len(fitted_forest.trees_))

    def test_deterministic_with_seed(self, blobs):
        X, y = blobs
        a = RandomForestClassifier(n_trees=5, rng=7).fit(X, y).predict_proba(X[:5])
        b = RandomForestClassifier(n_trees=5, rng=7).fit(X, y).predict_proba(X[:5])
        np.testing.assert_array_equal(a, b)

    def test_trees_differ(self, fitted_forest):
        structures = fitted_forest.tree_structures()
        roots = {(int(s.feature[0]), round(float(s.threshold[0]), 6)) for s in structures}
        assert len(roots) > 1  # bootstrap + feature subsampling decorrelate

    def test_depth_cap(self, fitted_forest):
        assert all(s.depth <= 3 for s in fitted_forest.tree_structures())

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict_proba(np.ones((1, 2)))

    def test_no_bootstrap_option(self, blobs):
        X, y = blobs
        model = RandomForestClassifier(n_trees=3, bootstrap=False, rng=0).fit(X, y)
        assert model.score(X, y) > 0.8


class TestMLP:
    def test_accuracy(self, fitted_mlp, blobs):
        X, y = blobs
        assert fitted_mlp.score(X, y) > 0.85

    def test_probas_sum_to_one(self, fitted_mlp, blobs):
        X, _ = blobs
        np.testing.assert_allclose(fitted_mlp.predict_proba(X[:10]).sum(axis=1), 1.0)

    def test_forward_tensor_matches_predict_proba(self, fitted_mlp, blobs):
        X, _ = blobs
        out = fitted_mlp.forward_tensor(Tensor(X[:5]))
        np.testing.assert_allclose(out.data, fitted_mlp.predict_proba(X[:5]), atol=1e-12)

    def test_forward_tensor_gradients_reach_input(self, fitted_mlp, blobs):
        X, _ = blobs
        x = Tensor(X[:2], requires_grad=True)
        fitted_mlp.forward_tensor(x).sum().backward()
        assert x.grad is not None

    def test_dropout_model_trains(self, blobs):
        X, y = blobs
        model = MLPClassifier(
            hidden_sizes=(16,), epochs=20, lr=3e-3, dropout=0.3, rng=0
        ).fit(X, y)
        assert model.score(X, y) > 0.6

    def test_dropout_inactive_at_prediction(self, blobs):
        X, y = blobs
        model = MLPClassifier(hidden_sizes=(16,), epochs=3, dropout=0.5, rng=0).fit(X, y)
        a = model.predict_proba(X[:5])
        b = model.predict_proba(X[:5])
        np.testing.assert_array_equal(a, b)

    def test_invalid_hyperparams(self):
        with pytest.raises(ValidationError):
            MLPClassifier(hidden_sizes=(0,))
        with pytest.raises(ValidationError):
            MLPClassifier(dropout=1.5)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            MLPClassifier().predict_proba(np.ones((1, 2)))


class TestDistiller:
    @pytest.fixture(scope="class")
    def distilled(self, fitted_forest):
        distiller = RandomForestDistiller(
            hidden_sizes=(128, 32), n_dummy=2500, epochs=12, rng=0
        )
        return distiller.distill(fitted_forest, fitted_forest.n_features_)

    def test_fidelity_on_data(self, distilled, blobs):
        X, _ = blobs
        assert distilled.fidelity(X) > 0.7

    def test_probas_sum_to_one(self, distilled, blobs):
        X, _ = blobs
        np.testing.assert_allclose(distilled.predict_proba(X[:10]).sum(axis=1), 1.0)

    def test_forward_tensor_is_differentiable(self, distilled, blobs):
        X, _ = blobs
        x = Tensor(X[:2], requires_grad=True)
        # Backprop a single class score: the *sum* of a softmax is the
        # constant 1, whose gradient is identically zero.
        distilled.forward_tensor(x)[:, 0].sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0

    def test_fit_is_not_the_entry_point(self):
        with pytest.raises(NotImplementedError):
            RandomForestDistiller().fit(np.ones((2, 2)), np.array([0, 1]))

    def test_undistilled_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestDistiller().forward_tensor(Tensor(np.ones((1, 2))))
        with pytest.raises(NotFittedError):
            RandomForestDistiller().fidelity(np.ones((1, 2)))

    def test_extra_inputs_shape_checked(self, fitted_forest):
        distiller = RandomForestDistiller(n_dummy=100, epochs=1, rng=0)
        with pytest.raises(ValidationError):
            distiller.distill(fitted_forest, 6, extra_inputs=np.ones((3, 4)))

    def test_mse_loss_mode(self, fitted_forest):
        distiller = RandomForestDistiller(
            hidden_sizes=(32,), n_dummy=500, epochs=3, loss="mse", rng=0
        )
        distiller.distill(fitted_forest, fitted_forest.n_features_)
        assert distiller.n_classes_ == fitted_forest.n_classes_

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValidationError):
            RandomForestDistiller(loss="huber")


class TestNumpyInference:
    """``predict_proba`` runs plain NumPy; ``forward_tensor`` is the reference."""

    @staticmethod
    def probe_inputs(model, blobs):
        """Rows whose first-layer pre-activations hit exact zeros.

        Zeroing half of the first layer's biases makes an all-zero row
        (and a row of ``-0.0``) produce pre-activations that are exactly
        ``0.0`` or ``-0.0``, the ReLU's edge.
        """
        X, _ = blobs
        model.network_[0].bias.data[::2] = 0.0
        d = X.shape[1]
        return np.vstack([X[:37], np.zeros((1, d)), np.full((1, d), -0.0), X[37:40] * -1.0])

    @staticmethod
    def assert_matches_graph(model, X):
        for order in ("C", "F"):
            Xo = np.asarray(X, order=order)
            reference = model.forward_tensor(Tensor(Xo)).data
            assert model.predict_proba(Xo).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    def test_mlp_matches_graph(self, blobs, dropout):
        X, y = blobs
        model = MLPClassifier(hidden_sizes=(16, 8), epochs=2, dropout=dropout, rng=0).fit(X, y)
        model.network_.train()
        self.assert_matches_graph(model, self.probe_inputs(model, blobs))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_widths_match_graph(self, blobs, seed):
        X, y = blobs
        rng = np.random.default_rng(seed)
        widths = tuple(int(w) for w in rng.integers(1, 40, size=rng.integers(1, 4)))
        model = MLPClassifier(hidden_sizes=widths, epochs=1, rng=seed).fit(X, y)
        self.assert_matches_graph(model, self.probe_inputs(model, blobs))

    def test_distiller_matches_graph(self, fitted_forest, blobs):
        distiller = RandomForestDistiller(hidden_sizes=(24, 12), n_dummy=200, epochs=2, rng=0)
        distiller.distill(fitted_forest, fitted_forest.n_features_)
        self.assert_matches_graph(distiller, self.probe_inputs(distiller, blobs))

    def test_leaves_train_flags_alone(self, blobs):
        X, y = blobs
        model = MLPClassifier(hidden_sizes=(8,), epochs=1, dropout=0.5, rng=0).fit(X, y)
        model.network_.train()
        model.predict_proba(X[:3])
        assert all(m.training for m in model.network_.modules())

    def test_unsupported_layer_rejected(self):
        network = Sequential(Linear(3, 3, rng=0), LayerNorm(3))
        with pytest.raises(ValidationError, match="LayerNorm"):
            network_proba(network, np.ones((2, 3)))
