"""Throughput benchmark for the federation runtime's protocol rounds.

Measures what executing the prediction protocol as metered
message-passing costs over the in-process concatenation it replaces
(bit-identical by contract)::

    PYTHONPATH=src python benchmarks/bench_federation.py            # default
    PYTHONPATH=src python benchmarks/bench_federation.py --tiny     # CI smoke

Modes benchmarked per model kind (batched rounds of 64):

- ``in-process``: direct ``vfl.predict`` chunks — no wire, no ledger;
- ``sequential``: metered runtime rounds, parties in party order.

Reports rounds/sec and bytes/round from the CommLedger. Writes a
``BENCH_federation*.json`` summary (the CI artifact). Exits non-zero —
a regression gate, not a printout — when metering exactness breaks
(ledger bytes != the analytic estimate) or when the runtime's round
overhead exceeds ``MAX_OVERHEAD``× the in-process path.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

from repro.api import make_model
from repro.config import ScaleConfig
from repro.datasets import load_dataset
from repro.federated import FeaturePartition, train_vertical_model
from repro.federation import FederationRuntime

#: Gate: a metered message-passing round may cost at most this many
#: times the raw in-process protocol call (generous on purpose — the
#: gate exists to catch accidental per-round quadratic work, not codec
#: noise).
MAX_OVERHEAD = 10.0

TINY = ScaleConfig(
    name="fed-tiny",
    n_samples=400,
    n_predictions=128,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=3,
    mlp_hidden=(16,),
    mlp_epochs=2,
    rf_trees=5,
    rf_depth=3,
    dt_depth=4,
    grna_hidden=(16,),
    grna_epochs=2,
    grna_batch_size=32,
    distiller_hidden=(32,),
    distiller_dummy=200,
    distiller_epochs=2,
)

DEFAULT = ScaleConfig(
    name="fed-default",
    n_samples=4000,
    n_predictions=1536,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=10,
    mlp_hidden=(64, 32),
    mlp_epochs=4,
    rf_trees=20,
    rf_depth=3,
    dt_depth=5,
    grna_hidden=(32,),
    grna_epochs=2,
    grna_batch_size=64,
    distiller_hidden=(64,),
    distiller_dummy=500,
    distiller_epochs=2,
)

BATCH = 64


def deploy(model_kind: str, scale: ScaleConfig, n_parties: int = 4):
    """One trained multi-party VFL deployment."""
    dataset = load_dataset("bank", n_samples=scale.n_samples, rng=0)
    half = dataset.n_samples // 2
    partition = FeaturePartition.from_topology(
        dataset.n_features, 0.4, n_parties=n_parties, rng=0
    )
    model = make_model(model_kind, scale, np.random.default_rng(0))
    return train_vertical_model(
        model,
        dataset.X[:half],
        dataset.y[:half],
        dataset.X[half:],
        dataset.y[half:],
        partition,
    )


def timed(fn, repeats: int) -> float:
    """Best-of-N wall-clock seconds (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def chunks(n: int) -> list[np.ndarray]:
    indices = np.arange(n)
    return [indices[start : start + BATCH] for start in range(0, n, BATCH)]


def bench_model(model_kind: str, scale: ScaleConfig, repeats: int) -> dict:
    """Seconds per mode + ledger stats for one model kind's workload."""
    vfl = deploy(model_kind, scale)
    rounds = chunks(scale.n_predictions)
    results: dict[str, float] = {}

    results["in-process"] = timed(
        lambda: [vfl.predict(chunk) for chunk in rounds], repeats
    )

    sequential = FederationRuntime(vfl)
    results["sequential"] = timed(
        lambda: [sequential.predict(chunk) for chunk in rounds], repeats
    )

    # Metering exactness on a fresh run: measured bytes == analytic cost.
    meter = FederationRuntime(vfl)
    for chunk in rounds:
        meter.predict(chunk)
    measured = meter.ledger.total_bytes
    projected = sum(
        meter.estimate_predict_bytes(chunk.size) for chunk in rounds
    )
    return {
        "seconds": results,
        "n_rounds": len(rounds),
        "bytes_per_round": measured // len(rounds),
        "ledger_bytes": measured,
        "estimate_bytes": projected,
        "metering_exact": measured == projected,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true", help="CI smoke scale (seconds, small models)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--models", nargs="+", default=["lr", "nn", "dt", "rf"],
        help="model kinds to benchmark",
    )
    parser.add_argument(
        "--out", default=None,
        help="summary path (default: BENCH_federation.json, or "
        "BENCH_federation-live.json with --tiny so the checked-in "
        "trajectory file is never clobbered by CI)",
    )
    args = parser.parse_args(argv)
    scale = TINY if args.tiny else DEFAULT

    n = scale.n_predictions
    print(
        f"# FederationRuntime throughput — {n} predictions in rounds of "
        f"{BATCH}, 4 parties, scale={scale.name}"
    )
    header = (
        f"{'model':<6} {'mode':<14} {'seconds':>10} {'rounds/s':>10} "
        f"{'bytes/round':>12} {'overhead':>9}"
    )
    print(header)
    print("-" * len(header))
    summary: dict = {
        "label": "federation",
        "scale": scale.name,
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "batch": BATCH,
        "models": {},
    }
    ok = True
    for model_kind in args.models:
        stats = bench_model(model_kind, scale, args.repeats)
        summary["models"][model_kind] = stats
        baseline = stats["seconds"]["in-process"]
        for mode, seconds in stats["seconds"].items():
            rate = stats["n_rounds"] / seconds if seconds > 0 else float("inf")
            overhead = seconds / baseline if baseline > 0 else float("inf")
            print(
                f"{model_kind:<6} {mode:<14} {seconds:>10.4f} {rate:>10.0f} "
                f"{stats['bytes_per_round']:>12} {overhead:>8.2f}x"
            )
        if not stats["metering_exact"]:
            ok = False
            print(
                f"!! {model_kind}: ledger bytes {stats['ledger_bytes']} != "
                f"estimate {stats['estimate_bytes']}"
            )
        overhead = stats["seconds"]["sequential"] / baseline
        if overhead > MAX_OVERHEAD:
            ok = False
            print(
                f"!! {model_kind}: protocol round overhead {overhead:.1f}x "
                f"exceeds the {MAX_OVERHEAD}x gate"
            )

    out = args.out or (
        "BENCH_federation-live.json" if args.tiny else "BENCH_federation.json"
    )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    if not ok:
        print("FAIL: federation runtime regression detected", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
