"""Tests for the §VII countermeasures."""

import numpy as np
import pytest

from repro.attacks import EqualitySolvingAttack
from repro.defenses import (
    LeakageVerifier,
    NoisyModel,
    RoundedModel,
    drop_flagged_features,
    noise_confidence_scores,
    round_confidence_scores,
    screen_collaboration,
)
from repro.exceptions import ValidationError
from repro.federated import FeaturePartition
from repro.models import DecisionTreeClassifier, LogisticRegression


class TestRounding:
    def test_rounds_down(self):
        v = np.array([[0.8766, 0.1234]])
        np.testing.assert_allclose(round_confidence_scores(v, 1), [[0.8, 0.1]])
        np.testing.assert_allclose(round_confidence_scores(v, 3), [[0.876, 0.123]])

    def test_never_rounds_up(self):
        rng = np.random.default_rng(0)
        v = rng.random((50, 3))
        for digits in (1, 2, 3):
            assert (round_confidence_scores(v, digits) <= v).all()

    def test_idempotent(self):
        v = np.random.default_rng(1).random((10, 2))
        once = round_confidence_scores(v, 2)
        np.testing.assert_array_equal(once, round_confidence_scores(once, 2))

    def test_invalid_digits(self):
        with pytest.raises(ValidationError):
            round_confidence_scores(np.ones((1, 2)), 0)

    def test_rounded_model_wraps(self, fitted_lr, blobs):
        X, _ = blobs
        wrapped = RoundedModel(fitted_lr, digits=2)
        v = wrapped.predict_proba(X[:5])
        np.testing.assert_array_equal(v, np.floor(fitted_lr.predict_proba(X[:5]) * 100) / 100)

    def test_rounded_model_predict_uses_inner_argmax(self, fitted_lr, blobs):
        X, _ = blobs
        wrapped = RoundedModel(fitted_lr, digits=1)
        np.testing.assert_array_equal(wrapped.predict(X[:10]), fitted_lr.predict(X[:10]))

    def test_rounded_model_rejects_refit(self, fitted_lr):
        wrapped = RoundedModel(fitted_lr, 2)
        with pytest.raises(ValidationError):
            wrapped.fit(np.ones((2, 6)), np.array([0, 1]))

    def test_rounding_degrades_esa_by_aggressiveness(self, drive_small):
        """Fig. 11a-b's shape: no rounding → exact; b=1 destroys the attack
        (worse than guessing the feature mean); b=3 sits in between."""
        ds = drive_small
        model = LogisticRegression(epochs=100, lr=1.0, rng=0).fit(ds.X, ds.y)
        partition = FeaturePartition.adversary_target(ds.n_features, 0.2, rng=1)
        view = partition.adversary_view()
        X_adv, X_target = view.split(ds.X)
        attack = EqualitySolvingAttack(model, view)

        exact_v = model.predict_proba(ds.X)
        mse_exact = np.mean((attack.run(X_adv, exact_v).x_target_hat - X_target) ** 2)

        coarse_v = round_confidence_scores(exact_v, 1)
        mse_coarse = np.mean((attack.run(X_adv, coarse_v).x_target_hat - X_target) ** 2)

        fine_v = round_confidence_scores(exact_v, 3)
        mse_fine = np.mean((attack.run(X_adv, fine_v).x_target_hat - X_target) ** 2)

        assert mse_exact < 1e-10  # exact below the threshold
        assert mse_fine < mse_coarse  # milder rounding leaks more
        assert mse_coarse > 0.15  # b=1 pushes ESA to random-guess territory


class TestNoise:
    def test_zero_scale_identity(self):
        v = np.random.default_rng(0).random((5, 3))
        np.testing.assert_array_equal(noise_confidence_scores(v, 0.0), v)

    def test_output_is_valid_distribution(self):
        rng = np.random.default_rng(1)
        v = rng.dirichlet(np.ones(4), size=50)
        noisy = noise_confidence_scores(v, 0.3, rng=0)
        assert noisy.min() >= 0.0
        np.testing.assert_allclose(noisy.sum(axis=1), 1.0)

    def test_gaussian_kind(self):
        v = np.full((10, 2), 0.5)
        noisy = noise_confidence_scores(v, 0.1, kind="gaussian", rng=0)
        assert not np.array_equal(noisy, v)

    def test_invalid_kind(self):
        with pytest.raises(ValidationError):
            noise_confidence_scores(np.ones((1, 2)) / 2, 0.1, kind="uniform")

    def test_noisy_model_wraps(self, fitted_lr, blobs):
        X, _ = blobs
        wrapped = NoisyModel(fitted_lr, scale=0.05, rng=0)
        v = wrapped.predict_proba(X[:5])
        assert v.shape == (5, 3)
        np.testing.assert_allclose(v.sum(axis=1), 1.0)

    def test_noisy_model_rejects_refit(self, fitted_lr):
        wrapped = NoisyModel(fitted_lr, 0.1)
        with pytest.raises(ValidationError):
            wrapped.fit(np.ones((2, 6)), np.array([0, 1]))


class TestScreening:
    def test_flags_correlated_features(self):
        rng = np.random.default_rng(0)
        shared = rng.normal(size=500)
        X_other = np.column_stack([shared, rng.normal(size=500)])
        X_own = np.column_stack([shared + 0.05 * rng.normal(size=500), rng.normal(size=500)])
        report = screen_collaboration(X_other, X_own, n_classes=2, correlation_threshold=0.4)
        assert 0 in report.flagged_features
        assert 1 not in report.flagged_features

    def test_esa_risk_detected(self):
        rng = np.random.default_rng(1)
        X_other = rng.normal(size=(100, 5))
        X_own = rng.normal(size=(100, 2))
        report = screen_collaboration(X_other, X_own, n_classes=11)
        assert report.esa_exact_risk  # d_own = 2 <= 11 - 1

    def test_no_esa_risk_with_few_classes(self):
        rng = np.random.default_rng(1)
        report = screen_collaboration(
            rng.normal(size=(50, 3)), rng.normal(size=(50, 4)), n_classes=2
        )
        assert not report.esa_exact_risk

    def test_drop_flagged(self):
        rng = np.random.default_rng(2)
        shared = rng.normal(size=300)
        X_other = shared[:, None]
        X_own = np.column_stack([shared, rng.normal(size=300)])
        report = screen_collaboration(X_other, X_own, n_classes=2, correlation_threshold=0.5)
        kept = drop_flagged_features(X_own, report)
        assert kept.shape[1] == 2 - report.flagged_features.size

    def test_invalid_threshold(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError):
            screen_collaboration(
                rng.normal(size=(10, 2)), rng.normal(size=(10, 2)),
                n_classes=2, correlation_threshold=1.5,
            )


class TestLeakageVerifier:
    def test_blocks_exact_lr_leakage(self, drive_small):
        """When ESA is exact the verifier must refuse to release the output."""
        ds = drive_small
        model = LogisticRegression(epochs=20, rng=0).fit(ds.X, ds.y)
        partition = FeaturePartition.adversary_target(ds.n_features, 0.15, rng=1)
        view = partition.adversary_view()
        verifier = LeakageVerifier(view)
        x = ds.X[:1]
        decision = verifier.verify_lr_output(
            model,
            x[:, view.adversary_indices],
            x[:, view.target_indices],
            model.predict_proba(x),
        )
        assert not decision.release
        assert "ESA" in decision.reason

    def test_releases_ambiguous_lr_output(self, bank_small):
        ds = bank_small
        model = LogisticRegression(epochs=20, rng=0).fit(ds.X, ds.y)
        partition = FeaturePartition.adversary_target(ds.n_features, 0.5, rng=1)
        view = partition.adversary_view()
        verifier = LeakageVerifier(view)
        x = ds.X[:1]
        decision = verifier.verify_lr_output(
            model,
            x[:, view.adversary_indices],
            x[:, view.target_indices],
            model.predict_proba(x),
            min_mse=1e-4,
        )
        assert decision.release

    def test_tree_verifier_counts_paths(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=4, rng=0).fit(X, y)
        structure = tree.tree_structure()
        view = FeaturePartition.adversary_target(6, 0.5, rng=2).adversary_view()
        verifier = LeakageVerifier(view)
        label = int(tree.predict(X[:1])[0])
        decision = verifier.verify_tree_output(
            structure, X[0, view.adversary_indices], label, min_candidate_paths=1
        )
        assert decision.release  # >= 1 path always survives for the true class
        assert decision.estimated_leakage >= 1

    def test_tree_verifier_blocks_pinned_path(self, blobs):
        X, y = blobs
        tree = DecisionTreeClassifier(max_depth=4, rng=0).fit(X, y)
        structure = tree.tree_structure()
        view = FeaturePartition.adversary_target(6, 0.2, rng=2).adversary_view()
        verifier = LeakageVerifier(view)
        label = int(tree.predict(X[:1])[0])
        decision = verifier.verify_tree_output(
            structure, X[0, view.adversary_indices], label,
            min_candidate_paths=10_000,
        )
        assert not decision.release

    def test_invalid_min_paths(self, blobs):
        view = FeaturePartition.adversary_target(6, 0.5, rng=0).adversary_view()
        with pytest.raises(ValidationError):
            LeakageVerifier(view).verify_tree_output(None, np.ones(3), 0, min_candidate_paths=0)
