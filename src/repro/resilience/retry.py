"""Retry policies: bounded attempts, seeded backoff, simulated timeouts.

A :class:`RetryPolicy` is plain frozen data consumed by the federation
runtime's resilient exchange: how many attempts a party gets per round,
how long (in *simulated* seconds) the exchange backs off between retry
waves, how much seeded jitter decorrelates the backoffs, and the
per-attempt latency bound past which a reply counts as timed out. The
jitter draw comes from the chaos engine's pure decision streams
(:func:`~repro.resilience.chaos.decision_rng` with the jitter salt), so
two runs — or a checkpoint-resumed run — compute byte-identical
backoff schedules.

Policies JSON round-trip (:meth:`to_payload` / :meth:`from_payload`)
so :class:`~repro.api.ScenarioConfig` can persist them; the
:meth:`from_spec` normalizer additionally accepts the ``int`` shorthand
(``retry=3`` means three attempts with the default backoff).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import ValidationError
from repro.resilience.chaos import JITTER_SALT, decision_rng

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the resilient exchange spends attempts on a failing party.

    Attributes
    ----------
    max_attempts:
        Total attempts per party per round (1 = no retries).
    backoff_base:
        Simulated seconds slept before the first retry wave.
    backoff_factor:
        Multiplier applied per further wave (exponential backoff).
    jitter:
        Fraction of the backoff added as a seeded uniform draw in
        ``[0, jitter]`` — decorrelates per-party retry schedules
        without wall-clock entropy. ``0.0`` disables jitter.
    timeout:
        Per-attempt simulated-latency bound; a reply slower than this
        is discarded and the attempt counts as a timeout. ``None``
        waits forever (latency still accrues on the clock).
    seed:
        Seed for the jitter decision streams.
    """

    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.0
    timeout: "float | None" = None
    seed: int = 0

    def validate(self) -> None:
        """Reject malformed policies with actionable messages."""
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ValidationError(
                f"retry max_attempts must be an int >= 1, got {self.max_attempts!r}"
            )
        if self.backoff_base < 0.0:
            raise ValidationError(
                f"retry backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise ValidationError(
                "retry backoff_factor must be >= 1 (backoff never shrinks), "
                f"got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValidationError(
                f"retry jitter must lie in [0, 1], got {self.jitter}"
            )
        if self.timeout is not None and self.timeout <= 0.0:
            raise ValidationError(
                f"retry timeout must be positive seconds or None, got {self.timeout}"
            )
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValidationError(
                f"retry seed must be a non-negative int, got {self.seed!r}"
            )

    def backoff(self, party: int, round_id: int, attempt: int) -> float:
        """Simulated backoff before ``attempt`` (>= 1) at one party.

        ``base * factor**(attempt-1)``, stretched by the party's seeded
        jitter draw for this exact ``(round, attempt)`` cell — a pure
        function, like every chaos decision.
        """
        if attempt < 1:
            raise ValidationError(
                f"backoff precedes retry attempts only; attempt must be >= 1, "
                f"got {attempt}"
            )
        delay = self.backoff_base * self.backoff_factor ** (attempt - 1)
        if self.jitter > 0.0:
            draw = decision_rng(self.seed, party, round_id, attempt, JITTER_SALT)
            delay *= 1.0 + self.jitter * float(draw.random())
        return delay

    # ------------------------------------------------------------------
    # Persistence / normalization
    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """JSON-ready dict mirroring the field layout."""
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "jitter": self.jitter,
            "timeout": self.timeout,
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "RetryPolicy":
        """Rebuild (and validate) a policy from :meth:`to_payload` output."""
        policy = cls(
            max_attempts=int(payload["max_attempts"]),
            backoff_base=float(payload["backoff_base"]),
            backoff_factor=float(payload["backoff_factor"]),
            jitter=float(payload["jitter"]),
            timeout=(
                None if payload.get("timeout") is None else float(payload["timeout"])
            ),
            seed=int(payload.get("seed", 0)),
        )
        policy.validate()
        return policy

    @classmethod
    def from_spec(cls, spec: "RetryPolicy | int | dict | None") -> "RetryPolicy":
        """Normalize the scenario-facing shorthand into a valid policy.

        ``None`` means the single-attempt default, an ``int`` is
        ``max_attempts`` with default backoff, a dict is a
        :meth:`to_payload`-shaped payload (missing keys defaulted), and
        a policy instance passes through validated.
        """
        if spec is None:
            policy = cls()
        elif isinstance(spec, RetryPolicy):
            policy = spec
        elif isinstance(spec, bool):
            raise ValidationError(f"retry spec {spec!r} is not a policy")
        elif isinstance(spec, int):
            policy = cls(max_attempts=spec)
        elif isinstance(spec, dict):
            defaults = cls().to_payload()
            unknown = set(spec) - set(defaults)
            if unknown:
                raise ValidationError(
                    f"unknown retry policy keys {sorted(unknown)}; choose from "
                    f"{sorted(defaults)}"
                )
            policy = cls.from_payload({**defaults, **spec})
        else:
            raise ValidationError(
                f"retry must be a RetryPolicy, an int attempt count, a payload "
                f"dict, or None, got {type(spec).__name__}"
            )
        policy.validate()
        return policy
