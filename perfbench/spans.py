"""In-memory spans around the program's public entry points.

A traced round installs wrappers with :func:`instrument` and removes them
when it ends, so untraced rounds run the program exactly as a user would.
Each wrapper opens a span (name, start, end, parent, operation id) on a
:class:`SpanRecorder` and may add counters measured at the same boundary,
such as rows served or bytes the federation ledger charged.

Wrappers are installed where callers look the entry points up: methods on
their class (and every subclass that overrides them), and functions on
every ``repro`` module attribute bound to the original object, since
``from x import f`` gives each importing module its own binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from repro.exceptions import QueryBudgetExceededError, ServiceUnavailableError

#: Name of the span that encloses one measured round; its self time is
#: the part of the round no layer span covers.
ROOT = "round"


class SpanRecorder:
    """Spans and counters of a traced run, kept in memory.

    Spans are rows ``[name, start, end, parent, op]``: ``parent`` is the
    row index of the enclosing span (``-1`` for a root) and ``op`` the
    operation id the harness set before calling into the program.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Queries the serving ledgers charged, per operation id.
        self.charged: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def self_times(self) -> "dict[str, float]":
        """Seconds per span name, each span minus what its children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return dict(totals)

    def root_wall(self) -> float:
        """Summed duration of the root spans."""
        return sum(end - start for name, start, end, parent, _ in self.spans if parent < 0)

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")


# ----------------------------------------------------------------------
# Counters measured at the wrapped boundaries
# ----------------------------------------------------------------------
def _rows(args, kwargs) -> int:
    """Rows requested by a ``(self, sample_indices, ...)`` call."""
    indices = args[1] if len(args) > 1 else kwargs["sample_indices"]
    return int(np.asarray(indices).size)


def _call(rec, fn, args, kwargs):
    return fn(*args, **kwargs)


def _counting(counter: str):
    """A hook adding one to ``counter`` per call."""
    def hook(rec, fn, args, kwargs):
        rec.counts[counter] += 1
        return fn(*args, **kwargs)
    return hook


def _predict(rec, fn, args, kwargs):
    rows = _rows(args, kwargs)
    rec.counts["federated.predict.rows"] += rows
    rec.counts["model_rows"] += rows
    return fn(*args, **kwargs)


def _serving_query(rec, fn, args, kwargs):
    service = args[0]
    ledger = service.ledger
    hits, charged = ledger.cache_hits, ledger.queries_used
    rec.counts["serving.query.calls"] += 1
    rec.counts["requested_rows"] += _rows(args, kwargs)
    try:
        return fn(*args, **kwargs)
    except (ServiceUnavailableError, QueryBudgetExceededError):
        rec.counts["serving.refusals"] += 1
        raise
    finally:
        rec.counts["cache_hits"] += ledger.cache_hits - hits
        rec.charged[rec.op] += ledger.queries_used - charged


def _federation_round(rec, fn, args, kwargs):
    runtime = args[0]
    ledger = runtime.ledger
    state = runtime.resilience
    before = (ledger.total_bytes, ledger.retries, ledger.timeouts)
    degraded = len(state.availability) if state is not None else 0
    clock = state.clock.now if state is not None else 0.0
    rows = _rows(args, kwargs)
    try:
        return fn(*args, **kwargs)
    finally:
        rec.counts["federation.rounds"] += 1
        rec.counts["model_rows"] += rows
        rec.counts["federation.bytes"] += ledger.total_bytes - before[0]
        rec.counts["federation.retries"] += ledger.retries - before[1]
        rec.counts["federation.timeouts"] += ledger.timeouts - before[2]
        if state is not None:
            rec.counts["degraded_rounds"] += len(state.availability) - degraded
            rec.counts["resilience.sim_wait_s"] += state.clock.now - clock


def _wrap(rec, name, fn, hook=_call):
    """``fn`` inside a span named ``name``; ``hook`` makes the call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            return hook(rec, fn, args, kwargs)
        finally:
            rec.close(index)
    return wrapper


#: ``(module, class, method, span, hook)`` for methods; the wrapper goes on
#: the class and on every subclass overriding the method.
METHODS = (
    ("repro.models.base", "BaseClassifier", "fit", "models.fit", _counting("models.fit.calls")),
    ("repro.federated.model", "VerticalFLModel", "predict", "federated.predict", _predict),
    ("repro.federated.model", "VerticalFLModel", "sample_hashes", "federated.hashes", _call),
    ("repro.serving.service", "PredictionService", "query", "serving.query", _serving_query),
    ("repro.federation.runtime", "FederationRuntime", "predict", "federation.round",
     _federation_round),
    ("repro.api.attacks", "ScenarioAttack", "prepare", "attacks.prepare", _call),
    ("repro.api.attacks", "ScenarioAttack", "run", "attacks.run", _call),
    ("repro.attacks.grna", "GenerativeRegressionNetwork", "fit", "grna.fit", _call),
    ("repro.models.distill", "RandomForestDistiller", "distill", "distill", _call),
    ("repro.attacks.pra", "PathRestrictionAttack", "restrict_batch", "pra.restrict", _call),
    ("repro.attacks.esa", "EqualitySolvingAttack", "run", "esa.run", _call),
    ("repro.tensor.tensor", "Tensor", "backward", "tensor.backward",
     _counting("tensor.backward.calls")),
    ("repro.nn.optim", "Optimizer", "step", "nn.optim.step", _call),
)

#: ``(module, function, span)`` for module-level functions; every public
#: scorer of ``repro.metrics`` is added by :func:`instrument`.
FUNCTIONS = (
    ("repro.api.scenario", "build_scenario", "api.build"),
    ("repro.datasets", "load_dataset", "datasets.load"),
    ("repro.federated.model", "train_vertical_model", "models.fit"),
    ("repro.workload.trace", "make_trace", "workload.trace"),
    ("repro.workload.trace", "attacker_trace", "workload.trace"),
)


def _classes_defining(base: type, method: str) -> "list[type]":
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if method in vars(cls):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


@contextmanager
def instrument(rec: SpanRecorder):
    """Wrap every entry point in :data:`METHODS`/:data:`FUNCTIONS` while open."""
    patched: list[tuple[object, str, object]] = []
    try:
        for module, cls_name, method, name, hook in METHODS:
            base = getattr(importlib.import_module(module), cls_name)
            for cls in _classes_defining(base, method):
                original = vars(cls)[method]
                patched.append((cls, method, original))
                setattr(cls, method, _wrap(rec, name, original, hook))
        metrics = importlib.import_module("repro.metrics")
        scorers = [
            ("repro.metrics", name, "metrics") for name in metrics.__all__
            if inspect.isfunction(getattr(metrics, name))
        ]
        wrappers = {}
        for module, func_name, name in (*FUNCTIONS, *scorers):
            original = getattr(importlib.import_module(module), func_name)
            wrappers[id(original)] = (original, _wrap(rec, name, original))
        # Rebind every module attribute that holds an original, aliases too.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for attr, value in list(vars(mod).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, found[1])
        yield rec
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
