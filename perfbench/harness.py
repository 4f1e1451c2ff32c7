"""Run one workload for a time budget and assemble its result.

A run sets the workload up :data:`SETUP_REPEATS` times and reports the
median as ``setup_s``, then measures whole rounds until the budget is
spent (at least one round). Every round repeats the same work.

The box this was tuned on changes speed by up to half, from one tenth
of a second to the next and for minutes at a time, whatever the program
does. So an untraced run cuts every round into windows at the same
positions: consecutive slices of ``WINDOW_OPS`` operations (the whole
round where ``WINDOW_OPS`` is None).
For each position it keeps the window of the round that took the median
time there (the lower median for an even count), and joins the kept
windows into one median round in which every operation of the workload
counts exactly once. Slow and fast episodes that hit a minority of the
rounds at a position are rejected. ``wall_s`` is that round's summed
operation latency, ``ops_per_s`` its operations per second and
``op_ms.p50``/``op_ms.p90`` percentiles of its latencies. A run that fits
one round reports that round as measured.

Traced runs alternate an untraced and a traced round and report the
per-layer metrics per traced round, with ``trace.overhead_ratio`` the
ratio of the two kinds' median round walls.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from spans import ROOT, SpanRecorder, instrument
from workloads import WORKLOADS

SETUP_REPEATS = 3

#: Per-layer metrics read from span self times, seconds per traced round.
SELF_TIME_SPANS = (
    "api.build", "datasets.load", "models.fit", "federated.predict",
    "federated.hashes", "serving.query", "federation.round", "workload.trace",
    "attacks.prepare", "attacks.run", "grna.fit", "distill", "pra.restrict",
    "esa.run", "tensor.backward", "nn.optim.step", "metrics", "experiments.unit",
)
#: Per-layer counters, per traced round.
COUNTERS = (
    "models.fit.calls", "federated.predict.rows", "serving.query.calls",
    "serving.refusals", "federation.rounds", "federation.bytes",
    "federation.retries", "federation.timeouts", "resilience.sim_wait_s",
    "tensor.backward.calls",
)


class Ops:
    """Times every operation of a round and counts the ones that fail."""

    def __init__(self, rec: "SpanRecorder | None" = None) -> None:
        self.rec = rec
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def __call__(self, fn, *args, span: "str | None" = None, **kwargs):
        rec = self.rec
        if rec is not None:
            rec.op = self.attempted
        start = time.perf_counter()
        try:
            if rec is not None and span is not None:
                with rec.span(span):
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)
        # The benchmark's operation boundary: a refused or raised operation
        # is counted as failed, its traceback kept, and the round goes on.
        except Exception:  # repro: allow[exception-hygiene] counted, traceback reported
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(traceback.format_exc())
            return None
        finally:
            self.latencies.append(time.perf_counter() - start)


def _blas() -> "tuple[str, int | None]":
    """The BLAS NumPy links and its thread count, where it can be read."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{config.get('name')} {config.get('version')}"
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return name, int(getter())
    return name, None


def machine() -> dict:
    """CPU count, BLAS library and threads, and NumPy and Python versions."""
    blas, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _round(workload, ops: Ops, rec: "SpanRecorder | None" = None):
    """One timed round; returns (wall seconds, problems, digest)."""
    workload.begin_round()
    first = ops.attempted
    start = time.perf_counter()
    if rec is None:
        outputs = workload.run_round(ops)
    else:
        with instrument(rec), rec.span(ROOT):
            outputs = workload.run_round(ops)
    wall = time.perf_counter() - start
    charged = None if rec is None else [rec.charged[first + i] for i in range(len(outputs))]
    return wall, workload.check(outputs, charged), workload.digest(outputs)


def _median_round(latencies: "list[float]", per_round: int, window: "int | None") -> np.ndarray:
    """Per window position, the latencies of the round with the median time there.

    Rounds are cut into consecutive windows of ``window`` operations at
    the same positions (the last one may be shorter; the whole round is
    one window when ``window`` is None). Each position keeps the lower
    median round, so every operation of a round appears exactly once in
    the result, in order.
    """
    rounds = np.asarray(latencies).reshape(-1, per_round)
    size = min(window or per_round, per_round)
    middle = (len(rounds) - 1) // 2
    kept = []
    for start in range(0, per_round, size):
        slices = rounds[:, start : start + size]
        kept.append(slices[np.argsort(slices.sum(axis=1), kind="stable")[middle]])
    return np.concatenate(kept)


def _layer_metrics(rec: SpanRecorder, rounds: int, traced: list, untraced: list) -> dict:
    selfs = rec.self_times()
    counts = rec.counts
    values = {f"{name}.self_s": selfs.get(name, 0.0) / rounds for name in SELF_TIME_SPANS}
    values.update({name: counts[name] / rounds for name in COUNTERS})
    requested, computed = counts["requested_rows"], counts["model_rows"]
    values["serving.useful_row_ratio"] = requested / computed if computed else 0.0
    values["serving.cache_hit_ratio"] = counts["cache_hits"] / requested if requested else 0.0
    rounds_run = counts["federation.rounds"]
    values["resilience.degraded_ratio"] = (
        counts["degraded_rounds"] / rounds_run if rounds_run else 0.0
    )
    values["trace.unattributed_frac"] = selfs.get(ROOT, 0.0) / rec.root_wall()
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return values


def run(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        import_s: float = 0.0, spans_path=None) -> dict:
    """Measure workload ``name``; returns the result plus the run's extras.

    ``tiny`` runs the workload at its test size with a single set-up.
    """
    setups = []
    for _ in range(1 if tiny else SETUP_REPEATS):
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, tiny=tiny)
        workload.prepare()
        setups.append(time.perf_counter() - start)

    ops, problems, digests = Ops(), [], set()
    walls, traced_walls = [], []
    rec = SpanRecorder() if trace else None
    traced_ops = Ops(rec) if trace else None
    began = time.perf_counter()
    while True:
        wall, found, digest = _round(workload, ops)
        walls.append(wall)
        problems += found
        digests.add(digest)
        if trace:
            wall, found, digest = _round(workload, traced_ops, rec)
            traced_walls.append(wall)
            problems += found
            digests.add(digest)
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / len(walls) > seconds:
            break
    if len(digests) != 1:
        problems.append(f"rounds of one run disagree: {len(digests)} output digests")

    if trace:
        metrics = _layer_metrics(rec, len(traced_walls), traced_walls, walls)
        if spans_path is not None:
            rec.write_jsonl(spans_path)
    else:
        per_round = len(ops.latencies) // len(walls)
        typical = _median_round(ops.latencies, per_round, workload.WINDOW_OPS)
        wall = float(typical.sum())
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": wall,
            "ops_per_s": per_round / wall,
            "op_ms.p50": float(np.percentile(typical, 50)) * 1000.0,
            "op_ms.p90": float(np.percentile(typical, 90)) * 1000.0,
            "ok_frac": (ops.attempted - ops.failed) / ops.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    attempted = ops.attempted + (traced_ops.attempted if trace else 0)
    failed = ops.failed + (traced_ops.failed if trace else 0)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "errors": ops.errors + (traced_ops.errors if trace else []),
        "digest": digests.pop() if len(digests) == 1 else None,
        "rounds": len(walls),
        "round_wall_s": statistics.median(walls),
    }
