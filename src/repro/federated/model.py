"""The vertical FL model wrapper and its simulated prediction protocol.

Per §VI-A the paper "generates the vertical FL models using centralized
training and gives the trained models to the adversary", because the threat
model assumes the *training* computation is perfectly protected and only
the final model (plus predictions) leaks. :func:`train_vertical_model`
therefore assembles the parties' aligned column blocks and fits the
underlying model centrally — the fidelity-relevant part is the *prediction*
interface below.

:class:`VerticalFLModel.predict` simulates the secure prediction protocol:
the active party names sample ids, each party feeds its columns into the
protocol, and **only the confidence-score vector v is revealed** (§II-B).
The adversary additionally receives the plaintext model parameters through
:meth:`VerticalFLModel.release_model`, mirroring the paper's assumption
that θ is released to the active party for interpretability (§III-B).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import ProtocolError, ValidationError
from repro.federated.partition import FeaturePartition
from repro.federated.party import ActiveParty, Party, PassiveParty
from repro.models.base import BaseClassifier


class VerticalFLModel:
    """A trained model jointly served by vertically partitioned parties."""

    def __init__(
        self,
        model: BaseClassifier,
        partition: FeaturePartition,
        parties: list[Party],
    ) -> None:
        model._check_fitted()
        if partition.n_features != model.n_features_:
            raise ValidationError(
                f"partition covers {partition.n_features} features, model uses "
                f"{model.n_features_}"
            )
        if len(parties) != partition.n_parties:
            raise ValidationError(
                f"{len(parties)} parties but partition defines {partition.n_parties}"
            )
        if not isinstance(parties[0], ActiveParty):
            raise ProtocolError("party 0 must be the active (label-owning) party")
        for p in parties[1:]:
            if isinstance(p, ActiveParty):
                raise ProtocolError("only party 0 may be active")
        n = parties[0].n_samples
        for p in parties:
            if p.n_samples != n:
                raise ProtocolError(
                    "parties hold unaligned datasets; run PSI alignment first"
                )
            if not np.array_equal(
                np.sort(p.feature_indices), partition.indices(p.party_id)
            ):
                raise ValidationError(
                    f"party {p.party_id}'s feature indices disagree with the partition"
                )
        self.model = model
        self.partition = partition
        self.parties = parties
        self._n_samples = n
        self.prediction_log_: list[int] = []
        self._row_digests: np.ndarray | None = None
        #: Gate for :attr:`prediction_log_`. The log exists for protocol
        #: forensics at scenario scale; a workload replay pushing millions
        #: of requests through one deployment turns it into an unbounded
        #: allocation, so the workload layer switches it off.
        self.log_predictions: bool = True

    # ------------------------------------------------------------------
    # Prediction protocol
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of aligned samples in the joint prediction dataset."""
        return self._n_samples

    @property
    def n_classes(self) -> int:
        """Number of classes of the underlying model."""
        return self.model.n_classes_

    def predict(self, sample_indices: np.ndarray) -> np.ndarray:
        """Jointly compute confidence scores for the requested samples.

        Simulates the secure protocol: feature values are assembled only
        inside this call and never returned; the caller (the active party)
        sees just the confidence-score matrix.
        """
        sample_indices = self._request_ids(sample_indices, "prediction")
        joint = self._assemble(sample_indices)
        if self.log_predictions:
            self.prediction_log_.extend(sample_indices.tolist())
        return self.model.predict_proba(joint)

    def predict_all(self) -> np.ndarray:
        """Confidence scores for every sample in the prediction dataset."""
        return self.predict(np.arange(self._n_samples))

    def sample_hashes(self, sample_indices: np.ndarray) -> list[str]:
        """Content fingerprints of the requested samples' joint rows.

        The serving layer keys its response cache and its duplicate-query
        audit on these: two requests for byte-identical joint feature
        rows collide even under different sample ids. Each digest is the
        sha1 of one joint row's bytes; the table of all of them is built
        on the first request and then only looked up. That is sound
        because the parties' data is validated and fixed when the
        deployment is built. Like :meth:`predict`, rows are assembled
        only inside the protocol — a digest reveals equality, never
        values.
        """
        sample_indices = self._request_ids(sample_indices, "hash")
        if self._row_digests is None:
            joint = self._assemble(np.arange(self._n_samples))
            self._row_digests = np.array(
                [hashlib.sha1(row.tobytes()).hexdigest() for row in joint], dtype=object
            )
        return self._row_digests[sample_indices].tolist()

    def _request_ids(self, sample_indices: np.ndarray, what: str) -> np.ndarray:
        """A request's ids as int64, checked once against the deployment."""
        ids = np.asarray(sample_indices, dtype=np.int64).ravel()
        if ids.size == 0:
            raise ProtocolError(f"{what} request with no sample ids")
        if ids.min() < 0 or ids.max() >= self._n_samples:
            raise ProtocolError(
                f"{what} request names a sample index out of range "
                f"[0, {self._n_samples})"
            )
        return ids

    def _assemble(self, sample_indices: np.ndarray) -> np.ndarray:
        """The joint rows of already validated ids (C order)."""
        joint = np.empty((sample_indices.size, self.partition.n_features))
        for party in self.parties:
            joint[:, party.feature_indices] = party.gather(sample_indices)
        return joint

    # ------------------------------------------------------------------
    # What the adversary legitimately receives
    # ------------------------------------------------------------------
    def release_model(self) -> BaseClassifier:
        """Hand the plaintext trained model to the active party (§III-B)."""
        return self.model

    def ground_truth_target(self, colluders: tuple[int, ...] = ()) -> np.ndarray:
        """Target-party feature values — for *evaluation only*.

        The attacks never see this; experiment code uses it to score MSE and
        CBR against ground truth.
        """
        view = self.partition.adversary_view(colluders)
        joint = self._assemble(np.arange(self._n_samples))
        return joint[:, view.target_indices]

    def adversary_features(self, colluders: tuple[int, ...] = ()) -> np.ndarray:
        """The adversary coalition's own feature values for all samples."""
        coalition = sorted({0, *colluders})
        all_rows = np.arange(self._n_samples)
        stacked = np.hstack(
            [self.parties[pid].local_features(all_rows) for pid in coalition]
        )
        joint_cols = np.concatenate(
            [self.parties[pid].feature_indices for pid in coalition]
        )
        # Reorder the coalition's columns into ascending global-column order
        # so they line up with adversary_view().adversary_indices.
        return stacked[:, np.argsort(joint_cols)]


def build_parties(
    X: np.ndarray,
    y: np.ndarray,
    partition: FeaturePartition,
) -> list[Party]:
    """Split a joint dataset into one party object per partition block."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != partition.n_features:
        raise ValidationError(
            f"X must be (n, {partition.n_features}), got {np.shape(X)}"
        )
    parties: list[Party] = []
    for pid in range(partition.n_parties):
        indices = partition.indices(pid)
        block = X[:, indices]
        if pid == 0:
            parties.append(ActiveParty(pid, indices, block, y))
        else:
            parties.append(PassiveParty(pid, indices, block))
    return parties


def train_vertical_model(
    model: BaseClassifier,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_pred: np.ndarray,
    y_pred: np.ndarray,
    partition: FeaturePartition,
) -> VerticalFLModel:
    """Train ``model`` on the joint training data and serve the prediction set.

    Training is centralized (matching the paper's evaluation protocol, which
    assumes a perfectly secure training phase); the returned
    :class:`VerticalFLModel` wraps the *prediction* dataset, which is what
    the attacks operate on.
    """
    model.fit(np.asarray(X_train, dtype=np.float64), np.asarray(y_train, dtype=np.int64))
    parties = build_parties(X_pred, y_pred, partition)
    return VerticalFLModel(model, partition, parties)
