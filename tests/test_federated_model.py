"""Tests for Party objects, the VFL model protocol, and PSI."""

import hashlib

import numpy as np
import pytest

from repro.exceptions import ProtocolError, ValidationError
from repro.federated import (
    ActiveParty,
    FeaturePartition,
    PassiveParty,
    VerticalFLModel,
    align_datasets,
    build_parties,
    private_set_intersection,
    train_vertical_model,
)
from repro.models import LogisticRegression


@pytest.fixture()
def vfl_setup(blobs):
    X, y = blobs
    partition = FeaturePartition.contiguous(6, [3, 3])
    model = LogisticRegression(epochs=30, rng=0)
    vfl = train_vertical_model(model, X[:300], y[:300], X[300:], y[300:], partition)
    return vfl, X[300:], y[300:]


class TestParties:
    def test_active_party_holds_labels(self):
        party = ActiveParty(0, np.array([0, 1]), np.ones((4, 2)), np.array([0, 1, 0, 1]))
        np.testing.assert_array_equal(party.local_labels(np.array([1, 3])), [1, 1])

    def test_passive_party_has_no_labels(self):
        party = PassiveParty(1, np.array([0]), np.ones((3, 1)))
        assert not hasattr(party, "local_labels")

    def test_feature_count_must_match(self):
        with pytest.raises(ValidationError):
            PassiveParty(1, np.array([0, 1]), np.ones((3, 1)))

    def test_label_length_must_match(self):
        with pytest.raises(ValidationError):
            ActiveParty(0, np.array([0]), np.ones((3, 1)), np.array([0, 1]))

    def test_out_of_range_sample_rejected(self):
        party = PassiveParty(1, np.array([0]), np.ones((3, 1)))
        with pytest.raises(ProtocolError):
            party.local_features(np.array([5]))

    def test_negative_party_id_rejected(self):
        with pytest.raises(ValidationError):
            PassiveParty(-1, np.array([0]), np.ones((2, 1)))


class TestBuildParties:
    def test_structure(self, blobs):
        X, y = blobs
        partition = FeaturePartition.contiguous(6, [2, 4])
        parties = build_parties(X, y, partition)
        assert isinstance(parties[0], ActiveParty)
        assert isinstance(parties[1], PassiveParty)
        assert parties[0].n_features == 2 and parties[1].n_features == 4

    def test_wrong_width_rejected(self, blobs):
        X, y = blobs
        partition = FeaturePartition.contiguous(5, [2, 3])
        with pytest.raises(ValidationError):
            build_parties(X, y, partition)


class TestVerticalFLModel:
    def test_predict_returns_confidences(self, vfl_setup):
        vfl, X_pool, _ = vfl_setup
        v = vfl.predict(np.array([0, 1, 2]))
        assert v.shape == (3, 3)
        np.testing.assert_allclose(v.sum(axis=1), 1.0)

    def test_protocol_matches_centralized_prediction(self, vfl_setup):
        """The joint protocol must compute exactly f(x) on assembled columns."""
        vfl, X_pool, _ = vfl_setup
        idx = np.arange(10)
        np.testing.assert_allclose(
            vfl.predict(idx), vfl.model.predict_proba(X_pool[idx])
        )

    def test_predict_all(self, vfl_setup):
        vfl, X_pool, _ = vfl_setup
        assert vfl.predict_all().shape == (X_pool.shape[0], 3)

    def test_prediction_log_records_requests(self, vfl_setup):
        vfl, _, _ = vfl_setup
        vfl.prediction_log_.clear()
        vfl.predict(np.array([4, 7]))
        assert vfl.prediction_log_ == [4, 7]

    def test_empty_request_rejected(self, vfl_setup):
        vfl, _, _ = vfl_setup
        with pytest.raises(ProtocolError):
            vfl.predict(np.array([], dtype=int))

    def test_row_digests_equal_sha1_of_assembled_rows(self, vfl_setup):
        vfl, X_pool, _ = vfl_setup
        ids = np.array([5, 0, 5, X_pool.shape[0] - 1, 17])
        expected = [
            hashlib.sha1(np.ascontiguousarray(row).tobytes()).hexdigest()
            for row in X_pool[ids]
        ]
        assert vfl.sample_hashes(ids) == expected
        every = np.arange(X_pool.shape[0])
        assert vfl.sample_hashes(every) == [
            hashlib.sha1(row.tobytes()).hexdigest() for row in vfl._assemble(every)
        ]

    def test_row_digests_built_once_per_deployment(self, blobs, fitted_lr, monkeypatch):
        X, y = blobs
        partition = FeaturePartition.contiguous(6, [3, 3])
        vfl = VerticalFLModel(fitted_lr, partition, build_parties(X, y, partition))
        first = vfl.sample_hashes(np.array([3, 1]))

        def no_assembly(ids):
            raise AssertionError("sample_hashes assembled rows after the first call")

        monkeypatch.setattr(vfl, "_assemble", no_assembly)
        assert vfl.sample_hashes(np.array([1, 3])) == first[::-1]

    @pytest.mark.parametrize("sizes", [[3, 3], [2, 1, 2, 1]])
    @pytest.mark.parametrize("bad", [[-1], [7, 10_000], [[0, -3]], [2**40]])
    def test_bad_ids_raise_before_any_row_is_read(
        self, blobs, fitted_lr, monkeypatch, sizes, bad
    ):
        X, y = blobs
        partition = FeaturePartition.contiguous(6, sizes)
        vfl = VerticalFLModel(fitted_lr, partition, build_parties(X, y, partition))
        for party in vfl.parties:
            monkeypatch.setattr(
                party, "gather", lambda ids: pytest.fail("row read for a bad request")
            )
        with pytest.raises(ProtocolError, match="out of range"):
            vfl.predict(np.array(bad))
        with pytest.raises(ProtocolError, match="out of range"):
            vfl.sample_hashes(np.array(bad))
        assert vfl.prediction_log_ == []

    def test_ground_truth_matches_pool(self, vfl_setup):
        vfl, X_pool, _ = vfl_setup
        view = vfl.partition.adversary_view()
        np.testing.assert_array_equal(
            vfl.ground_truth_target(), X_pool[:, view.target_indices]
        )

    def test_adversary_features_match_pool(self, vfl_setup):
        vfl, X_pool, _ = vfl_setup
        view = vfl.partition.adversary_view()
        np.testing.assert_array_equal(
            vfl.adversary_features(), X_pool[:, view.adversary_indices]
        )

    def test_adversary_features_with_collusion(self, blobs):
        X, y = blobs
        partition = FeaturePartition.random_split(6, [2, 2, 2], rng=0)
        model = LogisticRegression(epochs=10, rng=0)
        vfl = train_vertical_model(model, X[:200], y[:200], X[200:], y[200:], partition)
        view = partition.adversary_view(colluders=(1,))
        np.testing.assert_array_equal(
            vfl.adversary_features(colluders=(1,)),
            X[200:][:, view.adversary_indices],
        )

    def test_unfitted_model_rejected(self, blobs):
        X, y = blobs
        partition = FeaturePartition.contiguous(6, [3, 3])
        parties = build_parties(X, y, partition)
        with pytest.raises(Exception):
            VerticalFLModel(LogisticRegression(), partition, parties)

    def test_party_zero_must_be_active(self, blobs, fitted_lr):
        X, y = blobs
        partition = FeaturePartition.contiguous(6, [3, 3])
        bad = [
            PassiveParty(0, partition.indices(0), X[:, :3]),
            PassiveParty(1, partition.indices(1), X[:, 3:]),
        ]
        with pytest.raises(ProtocolError):
            VerticalFLModel(fitted_lr, partition, bad)

    def test_unaligned_parties_rejected(self, blobs, fitted_lr):
        X, y = blobs
        partition = FeaturePartition.contiguous(6, [3, 3])
        bad = [
            ActiveParty(0, partition.indices(0), X[:, :3], y),
            PassiveParty(1, partition.indices(1), X[:10, 3:]),
        ]
        with pytest.raises(ProtocolError):
            VerticalFLModel(fitted_lr, partition, bad)


class TestPSI:
    def test_intersection_basic(self):
        common = private_set_intersection(
            [np.array([1, 2, 3, 4]), np.array([3, 4, 5])]
        )
        np.testing.assert_array_equal(common, [3, 4])

    def test_three_parties(self):
        common = private_set_intersection(
            [np.array([1, 2, 3]), np.array([2, 3, 4]), np.array([3, 9])]
        )
        np.testing.assert_array_equal(common, [3])

    def test_empty_intersection_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="empty intersection"):
            private_set_intersection([np.array([1]), np.array([2])])

    def test_duplicates_rejected_with_offenders_named(self):
        with pytest.raises(ProtocolError, match=r"party 0.*duplicate.*\[1\]"):
            private_set_intersection([np.array([1, 1]), np.array([1])])

    def test_single_party_rejected(self):
        with pytest.raises(ValidationError):
            private_set_intersection([np.array([1])])

    def test_align_datasets_reorders_rows(self):
        ids_a = np.array([10, 20, 30])
        ids_b = np.array([30, 10, 40])
        data_a = np.array([[1.0], [2.0], [3.0]])
        data_b = np.array([[33.0], [11.0], [44.0]])
        common, (al_a, al_b) = align_datasets([ids_a, ids_b], [data_a, data_b])
        np.testing.assert_array_equal(common, [10, 30])
        np.testing.assert_array_equal(al_a, [[1.0], [3.0]])
        np.testing.assert_array_equal(al_b, [[11.0], [33.0]])

    def test_align_empty_intersection_raises(self):
        with pytest.raises(ProtocolError):
            align_datasets(
                [np.array([1]), np.array([2])], [np.ones((1, 1)), np.ones((1, 1))]
            )

    def test_align_rows_ids_mismatch(self):
        with pytest.raises(ProtocolError):
            align_datasets(
                [np.array([1, 2]), np.array([1, 2])],
                [np.ones((3, 1)), np.ones((2, 1))],
            )

    def test_align_list_length_mismatch(self):
        with pytest.raises(ValidationError):
            align_datasets([np.array([1])], [np.ones((1, 1)), np.ones((1, 1))])
