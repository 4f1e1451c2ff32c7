"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tenant-traffic --seed 1 --seconds 30 --trace 0

It sets the named workload up, measures it for about ``--seconds``, checks
its outputs and prints, in order: the machine block, the sha256 of the
workload's outputs, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics and writes the spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import time

_STARTED = time.perf_counter()
# One BLAS thread, set before NumPy loads. On a box of two shared cores a
# second BLAS thread kept the other core busy for no speed-up, so every run
# also timed whatever else the host ran there.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: no program source under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import harness  # noqa: E402  (needs the program on sys.path)

    import_s = time.perf_counter() - _STARTED
    spans_path = None
    if args.trace:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         import_s=import_s, spans_path=spans_path)

    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for error in result["errors"]:
        print(f"perfbench: operation failed:\n{error}", file=sys.stderr)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared
    }
    print("machine " + json.dumps(harness.machine(), sort_keys=True))
    print(f"outputs sha256 {result['digest']} rounds {result['rounds']} "
          f"median untraced round wall {result['round_wall_s']:.6g} s")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
