"""Sharded multi-tenant serving: share-nothing shards, merged accounting.

:class:`ShardedPredictionService` runs ``n_shards`` independent
:class:`~repro.serving.PredictionService` instances over one deployed
model. The design is **share-nothing**: every shard owns its
:class:`~repro.serving.QueryLedger`, its (LRU-bounded) response caches,
and its own :class:`~repro.api.defenses.DefenseStack` instances, and
every consumer is pinned to exactly one shard by a stable content hash
of its name (``crc32``, never Python's salted ``hash``). Replay serves
the shards one after another on the calling thread, each shard its
consumers' requests in trace order.

The merged accounting does not depend on the *shard count* at all
(``N`` shards == 1 shard, asserted bit-for-bit) exactly when
all serving state is consumer-scoped: ``cache_scope="consumer"`` (the
default here), per-consumer budgets only, and consumer-scoped defense
signals. Deployment-wide state (a shared cache, ``rate_limit``'s global
cap, ``query_audit``'s cross-tenant ``seen`` tally) is legitimately
per-shard and changes with the layout; the per-consumer tallies the
anomaly ranking uses do not.

Replay deliberately returns accounting, not score matrices — a workload
is a load test of the metered boundary, and keeping a million response
rows would be an unbounded allocation for numbers nobody reads. For the
same reason the deployment's forensic
:attr:`~repro.federated.VerticalFLModel.prediction_log_` is gated off
for the duration of a replay.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.defenses import DefenseStack, QueryAuditDefense
from repro.checkpoint import CheckpointPlan, content_fingerprint, raw_fragment
from repro.exceptions import (
    QueryBudgetExceededError,
    ServiceUnavailableError,
    ValidationError,
)
from repro.federated.model import VerticalFLModel
from repro.serving.ledger import QueryLedger
from repro.serving.service import PredictionService
from repro.telemetry import MemorySink, Tracer
from repro.utils.random import spawn_rngs
from repro.utils.validation import check_positive_int
from repro.workload.trace import TrafficTrace

__all__ = ["ShardedPredictionService", "WorkloadReport", "shard_of"]

def shard_of(consumer: str, n_shards: int) -> int:
    """The shard a consumer is pinned to — a stable content hash.

    ``crc32`` rather than ``hash()``: Python salts string hashes per
    process, and a pinning that moves between runs would unmoor every
    determinism statement this module makes.
    """
    return zlib.crc32(consumer.encode("utf-8")) % n_shards


def _zscores(values: np.ndarray) -> np.ndarray:
    std = float(values.std())
    if std == 0.0:
        return np.zeros_like(values)
    return (values - values.mean()) / std


@dataclass
class WorkloadReport:
    """Merged accounting of one trace replay.

    ``accounting()`` is the timing-free payload two replays of the same
    trace can be compared on bit-for-bit; ``as_dict()`` adds wall-clock
    throughput for benches and experiment artifacts.
    """

    n_shards: int
    trace: dict[str, Any]
    ledger: dict[str, Any]
    shard_ledgers: list[dict[str, Any]]
    refusals: dict[str, int]
    audit: dict[str, Any]
    elapsed_s: float = 0.0

    @property
    def queries_per_second(self) -> float:
        """Sustained individual predictions served per wall-clock second."""
        if self.elapsed_s <= 0.0:
            return 0.0
        served = self.ledger["queries_used"] + self.ledger["cache_hits"]
        return served / self.elapsed_s

    # ------------------------------------------------------------------
    # Needle-in-traffic ranking
    # ------------------------------------------------------------------
    def anomaly_scores(self) -> dict[str, float]:
        """Per-consumer anomaly score: volume + duplication, standardized.

        Each consumer's request volume (served + replayed + refused
        events) and duplicate rate (audited per-consumer duplicates when
        a ``query_audit`` defense ran, else cache replays) are z-scored
        across the population and summed — an adversary accumulating a
        pool and re-querying it to average noise away is an outlier on
        both axes, while volume alone would also flag a merely chatty
        benign tenant.
        """
        counts: dict[str, int] = dict(self.ledger["counts"])
        hits: dict[str, int] = dict(self.ledger["cache_hit_counts"])
        consumers = list(
            dict.fromkeys(
                [*counts, *hits, *self.refusals, *self.audit["consumer_queries"]]
            )
        )
        if not consumers:
            return {}
        audited: dict[str, int] = self.audit["consumer_queries"]
        duplicates: dict[str, int] = self.audit["consumer_duplicates"]
        volume = np.empty(len(consumers))
        dup_rate = np.empty(len(consumers))
        for i, name in enumerate(consumers):
            served = counts.get(name, 0) + hits.get(name, 0)
            volume[i] = served + self.refusals.get(name, 0)
            asked = audited.get(name, served)
            dups = (
                duplicates.get(name, 0) if audited else hits.get(name, 0)
            )
            dup_rate[i] = dups / asked if asked else 0.0
        scores = _zscores(volume) + _zscores(dup_rate)
        return {name: float(scores[i]) for i, name in enumerate(consumers)}

    def ranked_consumers(self) -> list[str]:
        """Consumers by descending anomaly score (name breaks ties)."""
        scores = self.anomaly_scores()
        return sorted(scores, key=lambda name: (-scores[name], name))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def consumer_accounting(self) -> dict[str, Any]:
        """The layout-invariant payload: per-consumer accounting only.

        Two replays of one trace through *different shard counts* agree
        on this dict exactly (given consumer-scoped serving state);
        deployment-wide tallies — per-shard ledgers, the audit's
        cross-tenant ``seen``/``duplicates`` — legitimately depend on
        the layout and are excluded.
        """
        return {
            "trace": dict(self.trace),
            "ledger": self.ledger,
            "refusals": dict(self.refusals),
            "consumer_queries": dict(self.audit["consumer_queries"]),
            "consumer_duplicates": dict(self.audit["consumer_duplicates"]),
        }

    def accounting(self) -> dict[str, Any]:
        """The deterministic payload — everything except wall-clock."""
        return {
            "n_shards": self.n_shards,
            "trace": dict(self.trace),
            "ledger": self.ledger,
            "shard_ledgers": list(self.shard_ledgers),
            "refusals": dict(self.refusals),
            "audit": self.audit,
        }

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready report: accounting plus throughput."""
        payload = self.accounting()
        payload["elapsed_s"] = self.elapsed_s
        payload["queries_per_second"] = self.queries_per_second
        return payload


class ShardedPredictionService:
    """N share-nothing serving shards over one deployed VFL model.

    Parameters
    ----------
    vfl:
        The deployment every shard serves.
    n_shards:
        Number of independent serving shards.
    defense_specs:
        Defense specs (as accepted by
        :meth:`~repro.api.defenses.DefenseStack.from_specs`) built
        **fresh per shard** — online defenses carry mutable tallies that
        must not be shared across shards.
    consumer_budgets:
        Per-consumer query caps, handed to every shard's ledger (a
        consumer is pinned to one shard, so its cap binds exactly once).
        Deployment-wide budgets are deliberately not offered: a global
        cap needs cross-shard coordination, which share-nothing rejects.
    max_batch, cache, cache_size, exhaustion:
        Per-shard :class:`~repro.serving.PredictionService` knobs.
    cache_scope:
        Defaults to ``"consumer"`` (tenant-isolated stores) — the
        setting under which the merged accounting is invariant to the
        shard count. ``"shared"`` shares one store per *shard*, which
        is faithful to a real deployment but layout-dependent.
    seed:
        Spawns one defense stream per shard (prefix scheme), so a
        ``query_noise`` defense draws reproducibly per shard.
    breaker:
        Per-consumer circuit-breaker policy forwarded to every shard's
        :class:`~repro.serving.PredictionService` (a consumer is pinned
        to one shard, so its breaker lives in exactly one place).
        ``None`` (default) disables breaking. During replay a breaker
        refusal counts in the report's ``refusals`` like a budget
        refusal — the shard keeps serving its other consumers.
    tracer:
        Coordinator :class:`~repro.telemetry.Tracer` for the
        ``workload.replay`` span. When given, every shard additionally
        gets its **own** memory-sink tracer (share-nothing, like the
        ledgers), stamped with the global trace event index as the
        record ``step`` — :meth:`merged_trace` merges them back in
        ``(step, seq)`` order, which on consumer-scoped
        ``(step, kind, attrs)`` content is invariant to the shard count.
    """

    def __init__(
        self,
        vfl: VerticalFLModel,
        *,
        n_shards: int = 1,
        defense_specs: "tuple | list" = (),
        consumer_budgets: "dict[str, int] | None" = None,
        max_batch: "int | None" = None,
        cache: bool = False,
        cache_size: "int | None" = None,
        cache_scope: str = "consumer",
        exhaustion: str = "raise",
        seed: int = 0,
        breaker: "int | dict | None" = None,
        tracer=None,
    ) -> None:
        self.vfl = vfl
        self.n_shards = check_positive_int(n_shards, name="n_shards")
        self.defense_specs = tuple(defense_specs)
        self.tracer = tracer
        rngs = spawn_rngs(seed, self.n_shards)
        self.shards: list[PredictionService] = []
        for shard_rng in rngs:
            stack = (
                DefenseStack.from_specs(self.defense_specs)
                if self.defense_specs
                else None
            )
            self.shards.append(
                PredictionService(
                    vfl,
                    defense_stack=stack,
                    ledger=QueryLedger(consumer_budgets=consumer_budgets),
                    max_batch=max_batch,
                    cache=cache,
                    cache_size=cache_size,
                    cache_scope=cache_scope,
                    rng=shard_rng,
                    exhaustion=exhaustion,
                    breaker=breaker,
                    # Share-nothing telemetry, like the ledgers.
                    tracer=Tracer(MemorySink()) if tracer is not None else None,
                )
            )

    def shard_of(self, consumer: str) -> int:
        """The shard serving ``consumer`` (stable across runs/processes)."""
        return shard_of(consumer, self.n_shards)

    def replay(
        self,
        trace: TrafficTrace,
        *,
        checkpoint: "CheckpointPlan | None" = None,
    ) -> WorkloadReport:
        """Replay a trace through the shards and merge the accounting.

        The shards are served one after another on the calling thread.
        With a ``checkpoint`` plan, every event boundary may emit a
        snapshot of all shard ledgers, caches, defense rng streams and
        the refusal tallies, and the call first resumes mid-trace from
        the plan's latest matching snapshot. The resumed report's
        accounting is bit-identical to an uninterrupted replay.
        Checkpointing refuses defense stacks: per-defense tallies are
        not snapshotted.
        """
        if trace.n_events == 0:
            raise ValidationError("cannot replay an empty trace")
        if checkpoint is not None and self.defense_specs:
            raise ValidationError(
                "checkpointed replay refuses defense stacks: per-defense "
                "tallies are not snapshotted, so a resumed replay could "
                "diverge silently"
            )
        if self.tracer is None:
            return self._replay_inner(trace, checkpoint)
        with self.tracer.span("workload.replay", events=int(trace.n_events)) as span:
            report = self._replay_inner(trace, checkpoint)
            span["refused"] = int(sum(report.refusals.values()))
            return report

    def _replay_inner(
        self,
        trace: TrafficTrace,
        checkpoint: "CheckpointPlan | None",
    ) -> WorkloadReport:
        pins = np.fromiter(
            (shard_of(name, self.n_shards) for name in trace.names),
            dtype=np.int64,
            count=len(trace.names),
        )
        event_shards = pins[trace.consumer_ids]
        shard_events = [
            np.flatnonzero(event_shards == s) for s in range(self.n_shards)
        ]

        was_logging = self.vfl.log_predictions
        self.vfl.log_predictions = False
        try:
            start = time.perf_counter()
            if checkpoint is not None:
                refusal_maps = self._replay_checkpointed(
                    trace, shard_events, checkpoint
                )
            else:
                refusal_maps = [
                    self._replay_shard(trace, s, shard_events[s])
                    for s in range(self.n_shards)
                ]
            elapsed = time.perf_counter() - start
        finally:
            self.vfl.log_predictions = was_logging

        refusals: dict[str, int] = {}
        for shard_refusals in refusal_maps:
            refusals.update(shard_refusals)  # consumers pinned -> disjoint
        return WorkloadReport(
            n_shards=self.n_shards,
            trace=trace.as_dict(),
            ledger=QueryLedger.merged(s.ledger for s in self.shards).as_dict(),
            shard_ledgers=[s.ledger.as_dict() for s in self.shards],
            refusals=refusals,
            audit=self.audit_report(),
            elapsed_s=elapsed,
        )

    # ------------------------------------------------------------------
    # Checkpointed replay
    # ------------------------------------------------------------------
    def _replay_fingerprint(self, trace: TrafficTrace) -> str:
        """Bind snapshots to this exact trace against this shard layout."""
        lead = self.shards[0]
        return content_fingerprint(
            {
                "workload": {
                    "n_shards": self.n_shards,
                    "max_batch": lead.max_batch,
                    "cache": lead.cache_enabled,
                    "cache_size": lead.cache_size,
                    "cache_scope": lead.cache_scope,
                    "exhaustion": lead.exhaustion,
                    "consumer_budgets": dict(lead.ledger.consumer_budgets),
                    # Only when enabled, so breaker-free fingerprints stay
                    # byte-identical to pre-resilience snapshots.
                    **(
                        {"breaker": lead.breaker_policy.to_payload()}
                        if lead.breaker_policy is not None
                        else {}
                    ),
                    # Only when traced: the shard fragments then carry
                    # tracer counters an untraced resume would drop.
                    **({"telemetry": True} if self.tracer is not None else {}),
                },
                "trace": {
                    "times": trace.times,
                    "consumer_ids": trace.consumer_ids,
                    "names": list(trace.names),
                    "sample_ids": trace.sample_ids,
                    "offsets": trace.offsets,
                },
            }
        )

    def _replay_fragments(self) -> dict:
        """One fragment per shard state item, name-spaced ``shard{s}:``."""
        fragments: dict[str, Any] = {}
        for s, service in enumerate(self.shards):
            for name, fragment in service.serving_fragments().items():
                fragments[f"shard{s}:{name}"] = fragment
        return fragments

    def _replay_checkpointed(
        self,
        trace: TrafficTrace,
        shard_events: "list[np.ndarray]",
        checkpoint: CheckpointPlan,
    ) -> "list[dict[str, int]]":
        """Replay with per-event snapshot boundaries and resume."""
        checkpoint.bind_fingerprint(self._replay_fingerprint(trace))
        snapshot = checkpoint.latest()
        refusal_maps: list[dict[str, int]] = [{} for _ in range(self.n_shards)]
        resume_shard, resume_cursor = 0, 0
        if snapshot is not None:
            for s, service in enumerate(self.shards):
                prefix = f"shard{s}:"
                service.restore_serving_fragments(
                    {
                        name[len(prefix):]: fragment
                        for name, fragment in snapshot.fragments.items()
                        if name.startswith(prefix)
                    }
                )
            refusal_maps = [dict(m) for m in snapshot.meta["refusals"]]
            resume_shard = int(snapshot.meta["shard"])
            resume_cursor = int(snapshot.meta["cursor"])
        # Global event numbering across the shard order, so the
        # snapshot step keeps increasing when the cursor crosses shards.
        bases = np.zeros(self.n_shards + 1, dtype=np.int64)
        np.cumsum([ev.size for ev in shard_events], out=bases[1:])
        for s in range(resume_shard, self.n_shards):
            start_cursor = resume_cursor if s == resume_shard else 0

            def on_event(cursor: int, shard: int = s) -> None:
                checkpoint.maybe_emit(
                    int(bases[shard]) + cursor,
                    self._replay_fragments,
                    meta={
                        "shard": shard,
                        "cursor": cursor + 1,
                        "refusals": [dict(m) for m in refusal_maps],
                    },
                )

            self._replay_shard(
                trace,
                s,
                shard_events[s],
                start=start_cursor,
                on_event=on_event,
                refused=refusal_maps[s],
            )
        return refusal_maps

    def _replay_shard(
        self,
        trace: TrafficTrace,
        shard: int,
        events: np.ndarray,
        *,
        start: int = 0,
        on_event=None,
        refused: "dict[str, int] | None" = None,
    ) -> dict[str, int]:
        """Serve one shard's events in trace order; returns its refusals.

        ``start`` skips events a checkpoint already replayed; ``on_event``
        (called with the shard-local cursor after each served event) is
        the snapshot boundary hook; ``refused`` lets a resumed replay keep
        accumulating into restored tallies.
        """
        service = self.shards[shard]
        names = trace.names
        consumer_ids = trace.consumer_ids
        offsets = trace.offsets
        sample_ids = trace.sample_ids
        query = service.query
        tracer = service.tracer
        if refused is None:
            refused = {}
        for cursor in range(start, events.size):
            i = events[cursor]
            if tracer is not None:
                # Stamp the *global* trace event index, not the
                # shard-local cursor: it survives re-pinning, so merged
                # records can be compared across shard counts.
                tracer.step = int(i)
            name = names[consumer_ids[i]]
            try:
                query(sample_ids[offsets[i] : offsets[i + 1]], consumer=name)
            except (QueryBudgetExceededError, ServiceUnavailableError):
                # Budget exhaustion and breaker refusals are both
                # per-consumer serving decisions; the shard keeps going.
                refused[name] = refused.get(name, 0) + 1
            if on_event is not None:
                on_event(cursor)
        return refused

    def merged_trace(self) -> "list[dict[str, Any]]":
        """Every shard's records, merged in ``(step, seq)`` order.

        A consumer is pinned to one shard, so records sharing a step
        come from one shard and their local ``seq`` order is the true
        order; across steps the global trace event index dominates. On
        consumer-scoped content — ``(step, kind, attrs)`` — the merge is
        invariant to the shard count; ``span``/``seq``/tick fields are
        shard-local and legitimately depend on the layout.
        """
        records: list[dict[str, Any]] = []
        for service in self.shards:
            if service.tracer is not None:
                records.extend(service.tracer.sink.records)
        records.sort(key=lambda r: (r["step"], r["seq"]))
        return records

    def audit_report(self) -> dict[str, Any]:
        """Merged ``query_audit`` tallies across every shard's stack.

        Per-consumer dicts merge disjointly (consumers are pinned);
        deployment-wide totals sum. All-zero when no shard stacks a
        ``query_audit`` defense.
        """
        merged: dict[str, Any] = {
            "distinct_samples": 0,
            "duplicates": 0,
            "consumer_queries": {},
            "consumer_duplicates": {},
        }
        for service in self.shards:
            stack = service.defense_stack
            if stack is None:
                continue
            for defense in stack:
                if not isinstance(defense, QueryAuditDefense):
                    continue
                report = defense.report()
                merged["distinct_samples"] += report["distinct_samples"]
                merged["duplicates"] += report["duplicates"]
                merged["consumer_queries"].update(report["consumer_queries"])
                merged["consumer_duplicates"].update(
                    report["consumer_duplicates"]
                )
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ShardedPredictionService(n_shards={self.n_shards}, "
            f"defenses={list(self.defense_specs) or 'none'})"
        )
