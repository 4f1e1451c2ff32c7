"""The one-call scenario facade: ``run_scenario(ScenarioConfig) -> ScenarioReport``.

Every cell of the paper's evaluation grid — {ESA, PRA, GRNA} × {LR, NN,
DT, RF} × defenses × datasets (§VI–VII) — follows one skeleton: load a
dataset, split it into a training half and a prediction pool, assign a
fraction of the features to the attack target, train the VFL model
centrally, serve the prediction pool through the (possibly defended)
protocol, attack the accumulated outputs, and score the reconstruction.
:func:`run_scenario` packages that skeleton behind the string-keyed
registries, so any grid cell — including combinations the paper never ran
— is one call::

    from repro.api import ScenarioConfig, run_scenario

    report = run_scenario(ScenarioConfig(
        dataset="bank", model="lr", attack="esa",
        defenses=[("rounding", {"digits": 3})],
        target_fraction=0.4, scale="smoke", seed=0,
        baselines=("uniform",),
    ))
    print(report.metrics["mse"], report.metrics["rg_uniform_mse"])

Determinism contract: a report depends only on ``(config, scale)``.
The seed schedule (four spawned streams for data/partition/model/pick,
a fifth for defenses, attack streams per
:mod:`repro.api.attacks`, baselines seeded with the raw scenario seed)
replicates the historical experiment runners bit-for-bit, which is what
lets :mod:`repro.experiments.figures` run on this facade without
changing a single published number.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.api.attacks import ATTACKS, ScenarioAttack
from repro.api.datasets import DATASETS
from repro.api.defenses import Defense, DefenseStack, unwrap_model
from repro.api.models import MODELS, make_model
from repro.attacks import AttackResult, RandomGuessAttack, random_path
from repro.checkpoint import CheckpointPlan
from repro.config import ScaleConfig, get_scale
from repro.datasets import Dataset, load_dataset
from repro.exceptions import IncompatibleScenarioError, ScenarioError, ValidationError
from repro.federated import (
    AdversaryView,
    FeaturePartition,
    VerticalFLModel,
    train_vertical_model,
)
from repro.federation import FederationRuntime, TopologyConfig
from repro.metrics import aggregate_cbr, mse_per_feature, path_cbr, reconstruction_cbr
from repro.models import BaseClassifier
from repro.nn.data import train_test_split
from repro.resilience import DEGRADATIONS, BreakerPolicy, RetryPolicy
from repro.serving import PredictionService
from repro.telemetry import TRACE_SINKS, make_tracer
from repro.utils.random import check_random_state, spawn_rngs
from repro.utils.validation import check_positive_int

__all__ = [
    "ScenarioConfig",
    "ScenarioReport",
    "VFLScenario",
    "build_scenario",
    "run_scenario",
]

#: Baseline names accepted by :attr:`ScenarioConfig.baselines`.
BASELINES = ("uniform", "gaussian", "path")


def _check_comm_budget(value: "int | float | None") -> None:
    """Shared validation for the ``comm_budget`` knob.

    ``None`` is unmetered, an ``int`` is absolute bytes (positive), a
    ``float`` is a fraction in ``(0, 1]`` of the accumulation's exact
    projected traffic. One helper for both the config validator and
    direct :func:`build_scenario` callers, so the two paths cannot
    drift.
    """
    if value is None:
        return
    if isinstance(value, float):
        if not 0.0 < value <= 1.0:
            raise ScenarioError(
                f"a fractional comm_budget must lie in (0, 1], got {value}"
            )
    elif not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ScenarioError(
            "comm_budget must be positive bytes (int), a fraction in "
            f"(0, 1], or None, got {value!r}"
        )


def _check_quorum_spec(value: "int | float | None") -> None:
    """Shape-only validation for the ``quorum`` knob.

    ``None`` fails fast on any lost party, an ``int`` is an absolute
    surviving-party count, a ``float`` is a fraction in ``(0, 1]`` of the
    deployment's parties. The *upper* bound of an integer quorum depends
    on the topology's party count, which only exists once the scenario is
    built — :class:`~repro.federation.FederationRuntime` enforces it
    there; this helper catches the shape errors early.
    """
    if value is None:
        return
    if isinstance(value, bool):
        raise ScenarioError(f"quorum {value!r} is not a party count or fraction")
    if isinstance(value, float):
        if not 0.0 < value <= 1.0:
            raise ScenarioError(
                f"a fractional quorum must lie in (0, 1], got {value}"
            )
    elif not isinstance(value, int) or value < 1:
        raise ScenarioError(
            "quorum must be a positive party count (int), a fraction in "
            f"(0, 1], or None, got {value!r}"
        )


def _check_telemetry_spec(value: "bool | dict | None") -> None:
    """Shape validation for the ``telemetry`` knob.

    ``None``/``False`` disables tracing, ``True`` traces into a memory
    sink, a dict selects the sink (``{"sink": "jsonl", "path": ...,
    "wall": ...}``). Same vocabulary as
    :func:`~repro.telemetry.make_tracer`, validated before any work.
    """
    if value is None or isinstance(value, bool):
        return
    if not isinstance(value, dict):
        raise ScenarioError(
            f"telemetry must be True/False/None or a sink dict, got {value!r}"
        )
    unknown = set(value) - {"sink", "path", "wall"}
    if unknown:
        raise ScenarioError(
            f"unknown telemetry key(s) {sorted(unknown)}; allowed: "
            "sink, path, wall"
        )
    sink = value.get("sink", "memory")
    TRACE_SINKS.get(sink)
    if sink == "jsonl" and not value.get("path"):
        raise ScenarioError("telemetry sink 'jsonl' needs a 'path'")


@dataclass
class VFLScenario:
    """Everything one attack experiment needs.

    Attributes
    ----------
    vfl:
        The served vertical FL model (prediction protocol + parties).
    view:
        Adversary/target column split.
    X_adv, X_target:
        The adversary's own columns and the ground-truth target columns of
        the accumulated prediction samples (``X_target`` is used only for
        scoring).
    V:
        Confidence scores the serving layer revealed for those samples.
    X_pred_full:
        The full-width prediction samples (evaluation only, e.g. for CBR).
    meta:
        Defense bookkeeping (screening report, release mask, ...).
    service:
        The deployment's :class:`~repro.serving.PredictionService` — the
        metered query boundary the accumulated ``V`` came through, and
        the attack's only route to further predictions or the released
        model.
    runtime:
        The deployment's :class:`~repro.federation.FederationRuntime` —
        the message-passing protocol the service drives; its
        :class:`~repro.federation.CommLedger` holds the scenario's
        communication cost.
    tracer:
        The deployment's :class:`~repro.telemetry.Tracer`, shared by the
        service, the runtime, and any attack prepared on this scenario.
        ``None`` when the scenario was built without telemetry.
    """

    dataset: Dataset
    model: BaseClassifier
    vfl: VerticalFLModel
    view: AdversaryView
    X_adv: np.ndarray
    X_target: np.ndarray
    V: np.ndarray
    X_pred_full: np.ndarray
    y_pred: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)
    service: "PredictionService | None" = None
    runtime: "FederationRuntime | None" = None
    tracer: Any = None


def build_scenario(
    dataset_name: str,
    model_kind: str,
    target_fraction: float,
    scale: ScaleConfig,
    seed: int,
    *,
    n_predictions: int | None = None,
    dropout: float = 0.0,
    model_params: dict[str, Any] | None = None,
    defense_stack: DefenseStack | None = None,
    query_budget: int | None = None,
    batch_size: int | None = None,
    cache: bool = False,
    cache_size: int | None = None,
    on_budget_exhausted: str = "raise",
    consumer: str = "scenario",
    topology: TopologyConfig | None = None,
    comm_budget: "int | float | None" = None,
    checkpoint: "CheckpointPlan | None" = None,
    retry: "RetryPolicy | int | dict | None" = None,
    quorum: "int | float | None" = None,
    degradation: str = "zero_fill",
    breaker: "BreakerPolicy | int | dict | None" = None,
    tracer=None,
) -> VFLScenario:
    """Construct one complete attack scenario.

    Parameters
    ----------
    dataset_name:
        A Table II dataset name.
    model_kind:
        ``"lr"``, ``"nn"``, ``"dt"``, or ``"rf"``.
    target_fraction:
        Fraction of features assigned to the attack target.
    scale, seed:
        Size preset and master seed (each sub-component gets an
        independent derived stream).
    n_predictions:
        Override the number of accumulated predictions.
    dropout:
        Dropout probability for the NN model (Fig. 11e-f countermeasure).
    model_params:
        Extra keyword overrides for the model builder.
    defense_stack:
        Composable §VII defenses: screening runs before training, output
        wrappers before serving, online hooks while serving, verification
        after prediction. When no stack is given the construction path
        (and its random-stream consumption) is identical to the
        historical undefended skeleton.
    query_budget, batch_size, cache, cache_size, on_budget_exhausted:
        Serving-layer knobs, forwarded to the deployment's
        :class:`~repro.serving.PredictionService`: an optional cap on
        chargeable prediction queries, the per-protocol-round batch
        size, response memoization by sample hash (``cache_size``
        bounds the memo as an LRU; ``None`` keeps it unbounded, the
        historical behavior), and whether an exhausted budget raises
        (:class:`~repro.exceptions.QueryBudgetExceededError`) or
        truncates the accumulated pool. The defaults (unlimited, one
        round, no cache) accumulate bit-identically to the historical
        direct ``vfl.predict`` path.
    consumer:
        Ledger name the accumulation is charged to (the facade passes
        the attack's registry key).
    topology:
        Party layout (:class:`~repro.federation.TopologyConfig`):
        N-party feature apportionment, colluders joining the adversary
        view, and injected faults. ``None`` (and the default config) is
        the paper's two-block setting, bit-identical to the historical
        partition draw.
    comm_budget:
        Byte budget on the federation runtime's
        :class:`~repro.federation.CommLedger`. An ``int`` is absolute
        bytes; a ``float`` in ``(0, 1]`` is resolved against
        :meth:`~repro.federation.FederationRuntime.estimate_predict_bytes`
        for this scenario's accumulation (so ``0.5`` means "half the
        traffic the undefended accumulation needs"), floored at the
        first protocol round's cost so a fraction always yields an
        attackable pool. Exhaustion follows
        ``on_budget_exhausted``: raise
        :class:`~repro.exceptions.CommBudgetExceededError`, or truncate
        the pool at the last affordable protocol round.
    checkpoint:
        A :class:`~repro.checkpoint.CheckpointPlan` for the
        accumulation: each served protocol round ends with a snapshot
        (accumulated rows, query ledger, response caches, comm ledger),
        and a rebuilt scenario resumes the accumulation from the plan's
        latest snapshot bit-identically. Forwarded to
        :meth:`~repro.serving.PredictionService.query`; incompatible
        with a non-empty ``defense_stack`` (per-defense tallies are not
        snapshotted).
    retry, quorum, degradation:
        Resilience knobs forwarded to the
        :class:`~repro.federation.FederationRuntime`. ``retry`` (a
        :class:`~repro.resilience.RetryPolicy`, an int attempt count, or
        a payload dict) engages the resilient exchange: failed parties
        are retried with metered request frames, seeded backoff accrues
        on a simulated clock, and slow replies become metered timeouts.
        ``quorum`` (int party count or float fraction) lets a round
        proceed degraded when enough parties survive, imputing the
        missing blocks via the ``degradation`` strategy
        (:data:`~repro.resilience.DEGRADATIONS`). All ``None``/default
        keeps the legacy fail-fast exchange bit-identical.
    breaker:
        Per-consumer circuit-breaker policy for the deployment's
        :class:`~repro.serving.PredictionService` (a
        :class:`~repro.resilience.BreakerPolicy`, an int failure
        threshold, or a payload dict). Runtime failures trip the
        breaker into refusing queries
        (:class:`~repro.exceptions.ServiceUnavailableError`) until a
        half-open probe succeeds. ``None`` disables breakers.
    tracer:
        Optional :class:`~repro.telemetry.Tracer`, attached to both the
        federation runtime (round/retry/degradation records) and the
        serving layer (query/chunk/breaker records). ``None`` (default)
        leaves every byte of the untraced construction untouched.
    """
    n_streams = 4 if defense_stack is None or not len(defense_stack) else 5
    streams = spawn_rngs(seed, n_streams)
    data_rng, part_rng, model_rng, pick_rng = streams[:4]
    defense_rng = streams[4] if n_streams == 5 else None

    dataset = load_dataset(dataset_name, n_samples=scale.n_samples, rng=data_rng)
    X, y = dataset.X, dataset.y
    if (
        topology is not None
        and not topology.is_default_partition
        and defense_stack is not None
        and any(type(d).screen is not Defense.screen for d in defense_stack)
    ):
        raise IncompatibleScenarioError(
            "screening defenses rebuild the partition as the two-block "
            "adversary view, which would silently discard a non-default "
            "party topology; run screening on the default 2-party layout"
        )
    if topology is None or topology.is_default_partition:
        # The historical two-block draw, bit-for-bit (from_topology
        # reduces to it, but the seed path stays textually untouched).
        partition = FeaturePartition.adversary_target(
            dataset.n_features, target_fraction, rng=part_rng
        )
    else:
        topology.validate()
        partition = FeaturePartition.from_topology(
            dataset.n_features,
            target_fraction,
            n_parties=topology.n_parties,
            colluders=topology.colluders,
            strategy=topology.partition,
            rng=part_rng,
            **topology.partition_params,
        )
    colluders = () if topology is None else tuple(topology.colluders)
    view = partition.adversary_view(colluders)
    meta: dict[str, Any] = {}
    if defense_rng is not None:
        X, partition, view, meta = defense_stack.screen(
            X, y, partition, view, dataset.n_classes
        )
    X_train, X_pool, y_train, y_pool = train_test_split(
        X, y, test_fraction=0.5, rng=data_rng
    )

    overrides = dict(model_params or {})
    model = make_model(
        model_kind,
        scale,
        model_rng,
        dropout=overrides.pop("dropout", dropout),
        **overrides,
    )
    vfl = train_vertical_model(model, X_train, y_train, X_pool, y_pool, partition)
    if defense_rng is not None:
        vfl.model = defense_stack.wrap(vfl.model, rng=defense_rng)

    n_pred = scale.n_predictions if n_predictions is None else int(n_predictions)
    n_pred = min(n_pred, X_pool.shape[0])
    picked = check_random_state(pick_rng).choice(
        X_pool.shape[0], size=n_pred, replace=False
    )
    runtime = FederationRuntime(
        vfl,
        faults=None if topology is None else topology.fault_plan(),
        retry=retry,
        quorum=quorum,
        degradation=degradation,
        tracer=tracer,
    )
    _check_comm_budget(comm_budget)
    if comm_budget is not None:
        if isinstance(comm_budget, float):
            # A fractional budget prices this very accumulation: 1.0 is
            # exactly the undefended run's projected wire bytes. Floored
            # at the first round's cost — a fraction asks for a *portion*
            # of the pool, and a budget below one round serves nothing;
            # use absolute bytes to study that regime.
            total = runtime.estimate_predict_bytes(n_pred, max_batch=batch_size)
            per_round = (
                total
                if batch_size is None
                else runtime.estimate_predict_bytes(
                    min(n_pred, int(batch_size)), max_batch=batch_size
                )
            )
            runtime.ledger.byte_budget = max(
                int(np.ceil(comm_budget * total)), per_round
            )
        else:
            runtime.ledger.byte_budget = int(comm_budget)
    service = PredictionService(
        vfl,
        runtime=runtime,
        defense_stack=defense_stack,
        query_budget=query_budget,
        max_batch=batch_size,
        cache=cache,
        cache_size=cache_size,
        rng=defense_rng,
        exhaustion=on_budget_exhausted,
        breaker=breaker,
        tracer=tracer,
    )
    V = service.query(picked, consumer=consumer, checkpoint=checkpoint)
    if V.shape[0] == 0:
        raise ScenarioError(
            "the deployment's budgets (query or communication) allowed no "
            "predictions at all; nothing to attack"
        )
    if V.shape[0] < picked.size:
        # Truncate mode: the budget bound mid-accumulation; the scenario
        # holds exactly the predictions the adversary could afford.
        picked = picked[: V.shape[0]]
    X_pred_full = X_pool[picked]
    X_adv, X_target = view.split(X_pred_full)
    scenario = VFLScenario(
        dataset=dataset,
        model=vfl.model,
        vfl=vfl,
        view=view,
        X_adv=X_adv,
        X_target=X_target,
        V=V,
        X_pred_full=X_pred_full,
        y_pred=y_pool[picked],
        meta=meta,
        service=service,
        runtime=runtime,
        tracer=tracer,
    )
    if defense_rng is not None:
        scenario = defense_stack.apply_release_filter(scenario)
    return scenario


@dataclass
class ScenarioConfig:
    """Declarative description of one grid cell.

    All component fields are registry keys — see
    :data:`~repro.api.attacks.ATTACKS`, :data:`~repro.api.models.MODELS`,
    :data:`~repro.api.datasets.DATASETS`, and
    :data:`~repro.api.defenses.DEFENSES` — so a config is fully
    serializable and any typo fails fast with the valid choices listed.

    The serving knobs meter the deployment's
    :class:`~repro.serving.PredictionService`: ``query_budget`` caps how
    many predictions the attack may accumulate (``None`` = unlimited, the
    bit-identical historical default), ``batch_size`` bounds each
    protocol round, ``cache`` memoizes responses by sample hash
    (``cache_size`` caps the memo as an LRU with eviction accounting;
    ``None`` keeps it unbounded), and
    ``on_budget_exhausted`` chooses between a clean
    :class:`~repro.exceptions.QueryBudgetExceededError` (``"raise"``) and
    attacking whatever prefix the budget allowed (``"truncate"``).

    The federation knobs shape the protocol underneath the service:
    ``topology`` (a :class:`~repro.federation.TopologyConfig`) sets the
    party count, colluders, column-apportionment strategy, and injected
    faults; ``comm_budget`` caps the wire bytes the protocol may move
    (absolute ``int`` bytes, or a ``float`` fraction of the undefended
    accumulation's exact projected traffic). The defaults — two-block
    topology, no budget — reproduce the historical scenario bit-for-bit.
    Every protocol round runs its parties one after another in party
    order; injected latency (stragglers, timeouts) costs simulated
    seconds on the resilience clock, never wall-clock time.

    The resilience knobs make the deployment survive a fault storm
    instead of aborting on it: ``retry`` (int attempts or a
    :class:`~repro.resilience.RetryPolicy` payload dict) re-requests
    failed parties with seeded backoff on a simulated clock, ``quorum``
    (int party count or float fraction) lets rounds proceed degraded
    with missing blocks imputed by the ``degradation`` strategy, and
    ``breaker`` (int failure threshold or a policy dict) makes the
    serving layer refuse a consumer's queries after consecutive runtime
    failures instead of burning protocol rounds. All-``None``/default
    resilience knobs leave every byte of the historical scenario
    untouched.

    ``telemetry`` opts the deployment into the observability layer:
    ``True`` traces into a memory sink, a dict selects the sink
    (``{"sink": "jsonl", "path": ..., "wall": ...}`` — see
    :func:`~repro.telemetry.make_tracer`). Traced record content is
    deterministic (wall-clock durations ride a quarantined field); the
    default ``None`` runs byte-identically to an untraced scenario and
    leaves :attr:`ScenarioReport.telemetry` empty.
    """

    dataset: str
    model: str
    attack: str
    defenses: tuple = ()
    target_fraction: float = 0.3
    n_predictions: int | None = None
    scale: "str | ScaleConfig" = "smoke"
    seed: int = 0
    model_params: dict[str, Any] = field(default_factory=dict)
    attack_params: dict[str, Any] = field(default_factory=dict)
    baselines: tuple[str, ...] = ()
    compute_cbr: bool = False
    query_budget: int | None = None
    batch_size: int | None = None
    cache: bool = False
    cache_size: int | None = None
    on_budget_exhausted: str = "raise"
    topology: "TopologyConfig | None" = None
    comm_budget: "int | float | None" = None
    retry: "int | dict | None" = None
    quorum: "int | float | None" = None
    degradation: str = "zero_fill"
    breaker: "int | dict | None" = None
    telemetry: "bool | dict | None" = None


@dataclass
class ScenarioReport:
    """Outcome of one :func:`run_scenario` call.

    Attributes
    ----------
    config:
        The config that produced this report.
    scenario:
        The built scenario (model, view, accumulated predictions, ground
        truth) for downstream analysis. ``None`` on a report restored
        from JSON — array-heavy state is not persisted.
    result:
        The attack's :class:`~repro.attacks.base.AttackResult`
        (``None`` on a restored report).
    metrics:
        Scored outcomes: ``"mse"`` whenever the attack produced point
        estimates, ``"pra_cbr"``/``"restricted_fractions"`` for PRA,
        ``"cbr"`` when ``compute_cbr`` was requested on a tree model, and
        one ``"rg_<name>_..."`` entry per requested baseline.
    queries_used:
        Chargeable prediction queries the deployment's ledger recorded
        for this scenario — what the attack *cost* at the serving
        boundary.
    comm_cost:
        Snapshot of the federation runtime's
        :class:`~repro.federation.CommLedger` (total ``bytes``,
        ``messages``, ``rounds``, per-edge breakdown) — what the attack
        cost at the *protocol* boundary. Empty for reports whose
        scenario never ran a federation protocol (e.g. prebuilt legacy
        scenarios).
    availability:
        The runtime's
        :meth:`~repro.federation.FederationRuntime.availability_report`:
        degraded-round log plus retry/timeout counts and simulated
        seconds. Empty whenever the resilient exchange never engaged
        (no ``retry``/``quorum`` knob and no stochastic faults) — its
        presence is itself the signal that the deployment weathered a
        storm.
    telemetry:
        The tracer's :meth:`~repro.telemetry.Tracer.summary` — records
        emitted, per-kind counts, named counters, last simulated-clock
        reading. Deterministic, so two runs of one config agree on it
        bit-for-bit. Empty when the config's ``telemetry`` knob was off.
    """

    config: ScenarioConfig
    scenario: "VFLScenario | None"
    result: "AttackResult | None"
    metrics: dict[str, Any]
    queries_used: int = 0
    comm_cost: dict[str, Any] = field(default_factory=dict)
    availability: dict[str, Any] = field(default_factory=dict)
    telemetry: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        """One-paragraph human-readable digest (used by the examples)."""
        details = []
        if self.scenario is not None:
            details.append(f"d_target={self.scenario.view.d_target}")
        details.append(f"defenses={list(self.config.defenses) or 'none'}")
        details.append(f"queries={self.queries_used}")
        if self.comm_cost:
            details.append(f"comm_bytes={self.comm_cost.get('bytes', 0)}")
        parts = [
            f"{self.config.attack} on {self.config.model}/{self.config.dataset}"
            f" ({', '.join(details)})"
        ]
        for key in sorted(self.metrics):
            value = self.metrics[key]
            if isinstance(value, float):
                parts.append(f"{key}={value:.4f}")
        return "; ".join(parts)

    # ------------------------------------------------------------------
    # Persistence (JSONL-store friendly)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """JSON-ready dict: config + metrics + queries_used.

        Drops the array-heavy ``scenario``/``result`` state; what
        remains is exactly what a results store needs to identify and
        compare grid cells, and it slots directly into a
        :class:`~repro.experiments.store.RunSummary` payload.
        """
        config = self.config
        return {
            "config": {
                "dataset": config.dataset,
                "model": config.model,
                "attack": config.attack,
                "defenses": [_encode_defense_spec(s) for s in config.defenses],
                "target_fraction": config.target_fraction,
                "n_predictions": config.n_predictions,
                "scale": _encode_scale(config.scale),
                "seed": config.seed,
                "model_params": dict(config.model_params),
                "attack_params": dict(config.attack_params),
                "baselines": list(config.baselines),
                "compute_cbr": config.compute_cbr,
                "query_budget": config.query_budget,
                "batch_size": config.batch_size,
                "cache": config.cache,
                "cache_size": config.cache_size,
                "on_budget_exhausted": config.on_budget_exhausted,
                "topology": (
                    None if config.topology is None else config.topology.to_payload()
                ),
                "comm_budget": config.comm_budget,
                "retry": config.retry,
                "quorum": config.quorum,
                "degradation": config.degradation,
                "breaker": config.breaker,
                "telemetry": config.telemetry,
            },
            "metrics": self.metrics,
            "queries_used": self.queries_used,
            "comm_cost": dict(self.comm_cost),
            "availability": dict(self.availability),
            "telemetry": dict(self.telemetry),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ScenarioReport":
        """Rebuild a report from :meth:`to_payload` output.

        Specs are normalized to tuples (JSON has no tuple type), so a
        round-tripped config compares equal to one declared with the
        canonical tuple syntax. A ``"scheduler"`` key, persisted before
        protocol rounds had a single execution path, is ignored: every
        value it held produced bit-identical results.
        """
        data = dict(payload["config"])
        config = ScenarioConfig(
            dataset=data["dataset"],
            model=data["model"],
            attack=data["attack"],
            defenses=tuple(_decode_defense_spec(s) for s in data["defenses"]),
            target_fraction=data["target_fraction"],
            n_predictions=data["n_predictions"],
            scale=_decode_scale(data["scale"]),
            seed=data["seed"],
            model_params=dict(data["model_params"]),
            attack_params=dict(data["attack_params"]),
            baselines=tuple(data["baselines"]),
            compute_cbr=data["compute_cbr"],
            query_budget=data["query_budget"],
            batch_size=data["batch_size"],
            cache=data["cache"],
            # .get(): payloads persisted before the LRU bound existed
            # carry no cache_size key and mean the unbounded default.
            cache_size=data.get("cache_size"),
            on_budget_exhausted=data["on_budget_exhausted"],
            # .get(): payloads persisted before the federation runtime
            # existed carry none of these keys and mean the defaults.
            topology=(
                None
                if data.get("topology") is None
                else TopologyConfig.from_payload(data["topology"])
            ),
            comm_budget=data.get("comm_budget"),
            # .get(): payloads persisted before the resilience layer
            # existed carry none of these keys and mean the defaults.
            retry=data.get("retry"),
            quorum=data.get("quorum"),
            degradation=data.get("degradation", "zero_fill"),
            breaker=data.get("breaker"),
            # .get(): payloads persisted before the telemetry layer
            # existed carry no such key and mean tracing off.
            telemetry=data.get("telemetry"),
        )
        return cls(
            config=config,
            scenario=None,
            result=None,
            metrics=dict(payload["metrics"]),
            queries_used=int(payload["queries_used"]),
            comm_cost=dict(payload.get("comm_cost", {})),
            availability=dict(payload.get("availability", {})),
            telemetry=dict(payload.get("telemetry", {})),
        )

    def to_json(self) -> str:
        """Serialize to one JSON line (see :meth:`to_payload`)."""
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ScenarioReport":
        """Parse a :meth:`to_json` line back into a (storable) report."""
        return cls.from_payload(json.loads(line))


#: ScaleConfig fields that JSON round-trips as lists but the dataclass
#: declares as tuples.
_SCALE_TUPLE_FIELDS = ("fractions", "mlp_hidden", "grna_hidden", "distiller_hidden")


def _encode_scale(scale: "str | ScaleConfig"):
    if isinstance(scale, str):
        return scale
    return dataclasses.asdict(scale)


def _decode_scale(data) -> "str | ScaleConfig":
    if isinstance(data, str):
        return data
    fields = dict(data)
    for name in _SCALE_TUPLE_FIELDS:
        fields[name] = tuple(fields[name])
    return ScaleConfig(**fields)


def _encode_defense_spec(spec):
    if isinstance(spec, str):
        return spec
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        key, params = spec
        return [key, dict(params)]
    raise ScenarioError(
        f"defense spec {spec!r} is not JSON-serializable; use a registry "
        "key or a (key, params) pair in configs meant for persistence"
    )


def _decode_defense_spec(spec):
    if isinstance(spec, str):
        return spec
    key, params = spec
    return (key, dict(params))


def _tree_structures(model: BaseClassifier) -> list:
    """Structures of a tree-based released model (forest → every tree)."""
    base = unwrap_model(model)
    if hasattr(base, "tree_structures"):
        return list(base.tree_structures())
    if hasattr(base, "tree_structure"):
        return [base.tree_structure()]
    raise IncompatibleScenarioError(
        f"compute_cbr needs a tree-based model exposing its structure; "
        f"{type(base).__name__} has none"
    )


def _validate(config: ScenarioConfig, attack: ScenarioAttack, stack: DefenseStack) -> None:
    if attack.compatible_models is not None and config.model not in attack.compatible_models:
        raise IncompatibleScenarioError(
            f"attack {config.attack!r} supports models "
            f"{attack.compatible_models}, not {config.model!r}: "
            f"{attack.constraint}"
        )
    stack.validate_for_model(config.model)
    for name in config.baselines:
        if name not in BASELINES:
            raise ScenarioError(
                f"unknown baseline {name!r}; choose from {list(BASELINES)}"
            )
    if "path" in config.baselines and config.model != "dt":
        raise IncompatibleScenarioError(
            "the 'path' baseline draws random root-to-leaf paths of a "
            f"single decision tree; model {config.model!r} has none"
        )
    if config.compute_cbr and config.model not in ("dt", "rf"):
        raise IncompatibleScenarioError(
            "compute_cbr scores branch agreement on a tree-based model; "
            f"model {config.model!r} has no tree structure"
        )
    if not 0.0 < config.target_fraction < 1.0:
        raise ScenarioError(
            f"target_fraction must lie in (0, 1), got {config.target_fraction}"
        )
    if config.n_predictions is not None:
        try:
            check_positive_int(config.n_predictions, name="n_predictions")
        except ValidationError as exc:
            raise ScenarioError(str(exc)) from None
    if config.query_budget is not None and config.query_budget < 1:
        raise ScenarioError(
            f"query_budget must be a positive int or None, got {config.query_budget}"
        )
    if config.batch_size is not None and config.batch_size < 1:
        raise ScenarioError(
            f"batch_size must be a positive int or None, got {config.batch_size}"
        )
    if config.cache_size is not None:
        if config.cache_size < 1:
            raise ScenarioError(
                f"cache_size must be a positive int or None, got {config.cache_size}"
            )
        if not config.cache:
            raise ScenarioError(
                "cache_size bounds the response cache and is meaningless "
                "without cache=True"
            )
    if config.on_budget_exhausted not in ("raise", "truncate"):
        raise ScenarioError(
            "on_budget_exhausted must be 'raise' or 'truncate', got "
            f"{config.on_budget_exhausted!r}"
        )
    _check_comm_budget(config.comm_budget)
    # from_spec raises with the exact malformed-field message; a quorum
    # integer's upper bound waits for the built topology's party count.
    RetryPolicy.from_spec(config.retry)
    BreakerPolicy.from_spec(config.breaker)
    _check_quorum_spec(config.quorum)
    _check_telemetry_spec(config.telemetry)
    DEGRADATIONS.get(config.degradation)
    if config.topology is not None:
        config.topology.validate()


def _compute_metrics(
    config: ScenarioConfig,
    scenario: VFLScenario,
    result: AttackResult,
) -> dict[str, Any]:
    metrics: dict[str, Any] = {}
    x_hat = result.x_target_hat
    if x_hat is not None:
        metrics["mse"] = float(mse_per_feature(x_hat, scenario.X_target))

    structures = None
    if config.compute_cbr or "path" in config.baselines:
        structures = _tree_structures(scenario.model)

    # PRA path metrics: branch agreement of the selected candidate paths.
    if "selected_paths" in result.info:
        structure = structures[0] if structures else _tree_structures(scenario.model)[0]
        counts = [
            path_cbr(
                structure,
                path,
                scenario.X_pred_full[i],
                scenario.view.target_indices,
            )
            for i, path in enumerate(result.info["selected_paths"])
            if path is not None
        ]
        metrics["pra_cbr"] = float(aggregate_cbr(counts))
        total = result.info["n_paths_total"]
        metrics["restricted_fractions"] = [
            float(n / total) for n in result.info["n_paths_restricted"]
        ]

    # Reconstruction CBR: walk the reconstructed values along the true paths.
    if config.compute_cbr and x_hat is not None:
        full_hat = scenario.view.assemble(scenario.X_adv, x_hat)
        counts = [
            reconstruction_cbr(
                structure,
                scenario.X_pred_full[i],
                full_hat[i],
                scenario.view.target_indices,
            )
            for i in range(scenario.X_pred_full.shape[0])
            for structure in structures
        ]
        metrics["cbr"] = float(aggregate_cbr(counts))

    # Value-guess baselines (each on a fresh stream seeded with the raw
    # scenario seed — the historical schedule).
    for distribution in ("uniform", "gaussian"):
        if distribution not in config.baselines:
            continue
        guess = RandomGuessAttack(
            scenario.view, distribution=distribution, rng=config.seed
        ).run(scenario.X_adv)
        metrics[f"rg_{distribution}_mse"] = float(
            mse_per_feature(guess.x_target_hat, scenario.X_target)
        )
        if config.compute_cbr:
            full_guess = scenario.view.assemble(scenario.X_adv, guess.x_target_hat)
            counts = [
                reconstruction_cbr(
                    structure,
                    scenario.X_pred_full[i],
                    full_guess[i],
                    scenario.view.target_indices,
                )
                for i in range(scenario.X_pred_full.shape[0])
                for structure in structures
            ]
            metrics[f"rg_{distribution}_cbr"] = float(aggregate_cbr(counts))

    # Random-path baseline (second half of PRA's historical seed split).
    if "path" in config.baselines:
        _, guess_rng = spawn_rngs(config.seed, 2)
        structure = structures[0]
        counts = [
            path_cbr(
                structure,
                random_path(structure, guess_rng),
                scenario.X_pred_full[i],
                scenario.view.target_indices,
            )
            for i in range(scenario.X_pred_full.shape[0])
        ]
        metrics["rg_path_cbr"] = float(aggregate_cbr(counts))
    return metrics


def run_scenario(
    config: ScenarioConfig,
    *,
    scenario: VFLScenario | None = None,
    serving_checkpoint: "CheckpointPlan | None" = None,
) -> ScenarioReport:
    """Run one grid cell end to end and score it.

    Resolves every registry key (raising listing errors for typos and
    :class:`~repro.exceptions.IncompatibleScenarioError` for combinations
    that violate an attack/defense constraint), builds the defended
    scenario, executes the attack through the unified protocol, and
    computes the §III-C metrics.

    Parameters
    ----------
    scenario:
        Reuse an already-built scenario instead of building one — the way
        to run several attacks against one deployment without retraining
        it per attack. The caller guarantees the scenario matches the
        config's dataset/model/defenses; the config is still validated,
        but its defenses are *not* re-applied to the prebuilt scenario,
        and the deployment's ledger keeps accumulating across attacks.
        Serving knobs configure a deployment at build time, so a config
        that sets any (``query_budget``/``batch_size``/``cache``/
        ``on_budget_exhausted``) alongside a prebuilt scenario is
        rejected rather than silently unmetered.
    serving_checkpoint:
        A :class:`~repro.checkpoint.CheckpointPlan` for the serving
        accumulation, forwarded to :func:`build_scenario`; the attack's
        own training checkpoint (GRNA) travels in
        ``config.attack_params["checkpoint"]`` instead. Meaningless with
        a prebuilt ``scenario`` (whose accumulation already happened)
        and rejected in that combination.
    """
    scale = get_scale(config.scale)
    DATASETS.get(config.dataset)
    MODELS.get(config.model)
    attack: ScenarioAttack = ATTACKS.create(config.attack, **config.attack_params)
    stack = DefenseStack.from_specs(config.defenses)
    _validate(config, attack, stack)
    if scenario is not None and serving_checkpoint is not None:
        raise ScenarioError(
            "serving_checkpoint snapshots the accumulation while the "
            "scenario is built; a prebuilt scenario has already accumulated"
        )
    if scenario is not None and (
        config.query_budget is not None
        or config.batch_size is not None
        or config.cache
        or config.cache_size is not None
        or config.on_budget_exhausted != "raise"
        or config.topology is not None
        or config.comm_budget is not None
        or config.retry is not None
        or config.quorum is not None
        or config.degradation != "zero_fill"
        or config.breaker is not None
        or config.telemetry is not None
    ):
        raise ScenarioError(
            "serving and federation knobs (query_budget/batch_size/cache/"
            "cache_size/on_budget_exhausted/topology/comm_budget/"
            "retry/quorum/degradation/breaker/telemetry) configure the "
            "deployment when the scenario is built and cannot apply to a "
            "prebuilt scenario; set them on build_scenario (or on its "
            "service) instead"
        )

    # A tracer built here is owned here: when an exception (including a
    # CheckpointPause suspension) unwinds past this frame the caller has
    # no handle to it, so close its sink on the way out. Records are
    # fsync'd per emit — nothing is lost, and a resumed run reopens the
    # file in skip-by-seq mode.
    owned_tracer = None
    try:
        if scenario is None:
            owned_tracer = tracer = make_tracer(config.telemetry)

            def build() -> VFLScenario:
                return build_scenario(
                    config.dataset,
                    config.model,
                    config.target_fraction,
                    scale,
                    config.seed,
                    n_predictions=config.n_predictions,
                    model_params=config.model_params,
                    defense_stack=stack if len(stack) else None,
                    query_budget=config.query_budget,
                    batch_size=config.batch_size,
                    cache=config.cache,
                    cache_size=config.cache_size,
                    on_budget_exhausted=config.on_budget_exhausted,
                    consumer=config.attack,
                    topology=config.topology,
                    comm_budget=config.comm_budget,
                    checkpoint=serving_checkpoint,
                    retry=config.retry,
                    quorum=config.quorum,
                    degradation=config.degradation,
                    breaker=config.breaker,
                    tracer=tracer,
                )

            if tracer is None:
                scenario = build()
            else:
                with tracer.span(
                    "scenario.build",
                    dataset=config.dataset,
                    model=config.model,
                    attack=config.attack,
                ) as span:
                    scenario = build()
                    span["predictions"] = int(scenario.V.shape[0])
        attack.prepare(scenario, scale=scale, seed=config.seed)
        result = attack.run(scenario.X_adv, scenario.V)
        metrics = _compute_metrics(config, scenario, result)
    except BaseException:
        if owned_tracer is not None:
            owned_tracer.close()
        raise
    queries_used = (
        scenario.service.ledger.queries_used
        if scenario.service is not None
        else int(scenario.V.shape[0])
    )
    comm_cost = (
        scenario.runtime.ledger.as_dict() if scenario.runtime is not None else {}
    )
    availability = (
        scenario.runtime.availability_report() if scenario.runtime is not None else {}
    )
    # Summarized after the attack ran, so grna.epoch records count too;
    # a prebuilt traced scenario contributes its own tracer.
    tracer = getattr(scenario, "tracer", None)
    return ScenarioReport(
        config=config,
        scenario=scenario,
        result=result,
        metrics=metrics,
        queries_used=queries_used,
        comm_cost=comm_cost,
        availability=availability,
        telemetry=tracer.summary() if tracer is not None else {},
    )
