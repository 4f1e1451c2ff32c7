"""Benchmark harness configuration.

Each benchmark module regenerates one table or figure of the paper at the
``smoke`` scale (seconds per experiment) and prints the resulting series so
a run of ``pytest benchmarks/ --benchmark-only`` doubles as a compact
reproduction report. Set ``REPRO_BENCH_SCALE=default`` (or ``full``) in the
environment to regenerate at larger scales.
"""

from __future__ import annotations

import os

import pytest

from repro.config import PRESETS


@pytest.fixture(scope="session")
def bench_scale():
    """Scale preset for the benchmark runs (env-overridable)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    return PRESETS[name]


def run_and_report(benchmark, runner, *args, **kwargs):
    """Time one experiment run and print its result table."""
    result = benchmark.pedantic(
        runner, args=args, kwargs=kwargs, rounds=1, iterations=1
    )
    print()
    print(result.to_text())
    return result
