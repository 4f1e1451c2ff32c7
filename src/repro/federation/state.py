"""Checkpoint codec for federation state: the communication ledger.

Registered in :data:`repro.checkpoint.CHECKPOINTS` on federation-package
import. Snapshots are taken at round boundaries — a round never
suspends midway — so the resumable protocol state is exactly the
ledger: budgets, per-edge message/byte tallies, and the round counter.
Edge keys are ``(sender, receiver)`` int tuples, which JSON cannot key;
they travel as an ordered list of ``[sender, receiver, messages, bytes]``
rows instead.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.checkpoint.codec import CHECKPOINTS, StateCodec
from repro.federation.ledger import CommLedger

__all__ = ["CommLedgerCodec"]


@CHECKPOINTS.register("federation/ledger")
class CommLedgerCodec(StateCodec):
    """Snapshot a :class:`CommLedger`: budgets, edges, round counter."""

    kind = "federation/ledger"
    target = CommLedger
    state_fields = (
        "byte_budget",
        "message_budget",
        "_edges",
        "_rounds",
        "_retries",
        "_timeouts",
    )

    def capture(self, obj: Any) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
        meta = {
            "byte_budget": obj.byte_budget,
            "message_budget": obj.message_budget,
            "rounds": obj._rounds,
            "retries": obj._retries,
            "timeouts": obj._timeouts,
            "edges": [
                [sender, receiver, stats["messages"], stats["bytes"]]
                for (sender, receiver), stats in obj._edges.items()
            ],
        }
        return meta, {}

    def restore(
        self, obj: Any, meta: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> None:
        obj.byte_budget = meta["byte_budget"]
        obj.message_budget = meta["message_budget"]
        obj._rounds = int(meta["rounds"])
        # .get: snapshots written before the resilience layer lack the
        # retry/timeout counters — they resume with zero of each.
        obj._retries = int(meta.get("retries", 0))
        obj._timeouts = int(meta.get("timeouts", 0))
        obj._edges = {
            (int(sender), int(receiver)): {"messages": int(m), "bytes": int(b)}
            for sender, receiver, m, b in meta["edges"]
        }
