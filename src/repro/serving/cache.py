"""Response cache with an optional LRU bound and exact eviction accounting.

The PR-3 response cache memoized by sample hash into a bare dict — fine
for a single attack consumer accumulating a few hundred predictions,
fatal for a deployment replaying millions of multi-tenant requests: the
dict grows without bound, and a "cache hit count" stops being auditable
the moment anyone manually prunes it. :class:`ResponseCache` closes both
holes:

- ``max_entries=None`` (the default) is byte-for-byte the old unbounded
  dict — insertion order is preserved and nothing is ever dropped, so
  every pre-existing cache-hit count reproduces exactly;
- a finite ``max_entries`` turns the store into a true LRU: every hit
  refreshes recency, every insert past the bound evicts the least
  recently used entry, and :attr:`evictions` counts exactly how many
  responses were dropped — the number the
  :class:`~repro.serving.ledger.QueryLedger` records so a lower hit
  count is always explainable as "evicted, recomputed, recharged"
  rather than silent bookkeeping drift.

The cache is deliberately not thread-safe: the serving layer scales
out as share-nothing shards (see :mod:`repro.workload.sharded`), each
owning its caches outright and served on the calling thread.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["ResponseCache"]


class ResponseCache:
    """Sample-hash → response-row store, optionally LRU-bounded.

    Parameters
    ----------
    max_entries:
        ``None`` stores every response forever (the historical unbounded
        behavior); a positive int bounds the store, evicting the least
        recently used entry on overflow and counting the eviction.
    """

    def __init__(self, max_entries: "int | None" = None) -> None:
        self.max_entries = (
            None
            if max_entries is None
            else check_positive_int(max_entries, name="max_entries")
        )
        self._rows: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, digest: str) -> bool:
        return digest in self._rows

    def get(self, digest: str) -> np.ndarray:
        """The stored row for ``digest``; a hit refreshes its recency."""
        row = self._rows[digest]
        if self.max_entries is not None:
            self._rows.move_to_end(digest)
        return row

    def put(self, digest: str, row: np.ndarray) -> int:
        """Store ``row``; returns how many entries were evicted (0 or 1).

        Re-inserting an existing digest refreshes recency but never
        evicts — the store's size did not grow.
        """
        existed = digest in self._rows
        self._rows[digest] = row
        if self.max_entries is None:
            return 0
        if existed:
            self._rows.move_to_end(digest)
            return 0
        evicted = 0
        while len(self._rows) > self.max_entries:
            self._rows.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        return evicted

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ResponseCache(entries={len(self)}, max_entries={self.max_entries}, "
            f"evictions={self.evictions})"
        )
