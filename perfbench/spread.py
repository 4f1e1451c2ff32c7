"""Run a workload on several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload grna-train --seeds 10
    python3 perfbench/spread.py --workload grna-train --seeds 10 \
        --record perfbench/trajectory.jsonl --label "<commit>"

Runs ``perfbench/run.py`` once per seed (1..N), one run at a time, and
prints per metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread: the distance between the quartiles as a
share of the median. For an end-to-end metric the spread is compared
with the bound in ``BENCHMARK.json``. ``--record`` appends the summary as
one JSON line, which is how points are added to the bench trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: "list[float]") -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, machine, digests = [], None, {}
    for seed in range(1, args.seeds + 1):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        machine = json.loads(next(line for line in lines if line.startswith("machine "))[8:])
        digests[seed] = next(line for line in lines if line.startswith("outputs sha256")).split()[2]
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
            print(done.stderr[-2000:], file=sys.stderr)
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
        s = summary[name]
        bound = bounds.get(name) if not args.trace else None
        verdict = "" if bound is None else (
            f"  bound {bound:.2f}  {'ok' if s['spread'] <= bound / 3 else 'WIDE'}"
        )
        print(f"{name:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
              f"  spread {s['spread']:.4f}{verdict}")
    if args.record is not None:
        with args.record.open("a", encoding="utf-8") as out:
            out.write(json.dumps({
                "label": args.label,
                "workload": args.workload,
                "trace": args.trace,
                "seeds": list(digests),
                "run_seconds": spec["run_seconds"],
                "machine": machine,
                "correct": all(r["correct"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "digests": digests,
                "metrics": summary,
            }, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
