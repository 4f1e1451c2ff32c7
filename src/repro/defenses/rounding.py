"""Confidence-score rounding defense (§VII, Fig. 11a-d).

The active party receives confidence scores rounded *down* to ``b``
floating-point digits. Rounding to one digit destroys ESA (its equations
involve ``ln v``, so coarse v perturbs the right-hand side wildly) but
barely affects GRNA, which learns coarse correlations (the paper's
conclusion from Fig. 11).
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import ModelWrapper
from repro.models.base import BaseClassifier
from repro.utils.validation import check_positive_int


def round_confidence_scores(v: np.ndarray, digits: int) -> np.ndarray:
    """Round confidence scores *down* to ``digits`` decimal digits.

    Matches the paper's "round v down to b floating point digits"; the
    resulting rows may sum to slightly less than 1, exactly as a deployed
    truncation would behave.
    """
    digits = check_positive_int(digits, name="digits")
    v = np.asarray(v, dtype=np.float64)
    scale = 10.0 ** digits
    return np.floor(v * scale) / scale


class RoundedModel(ModelWrapper):
    """Wrap a fitted model so its confidence outputs are truncated.

    The ``"rounding"`` entry of :mod:`repro.api`'s defense registry
    builds this wrapper and lets it chain with other output defenses.
    """

    def __init__(self, model: BaseClassifier, digits: int) -> None:
        super().__init__(model)
        self.digits = check_positive_int(digits, name="digits")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return round_confidence_scores(self.model.predict_proba(X), self.digits)

    def predict(self, X: np.ndarray) -> np.ndarray:
        # Truncation is monotone per entry but can create argmax ties;
        # resolve them the way the untruncated model would.
        return self.model.predict(X)
