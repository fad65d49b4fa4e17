"""Shared helpers for the benchmark harness.

Benchmarks record what they measured in ``benchmark.extra_info`` so the
JSON output doubles as a record of the run.  The paper's numbers and
their checks live in :mod:`repro.paper` (``python -m repro verify``).
"""


def record(benchmark, **values):
    """Attach measured values to a benchmark result."""
    for key, value in values.items():
        benchmark.extra_info[key] = value
