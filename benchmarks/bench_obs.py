"""Telemetry overhead — instrumented engine vs ``REPRO_METRICS=0``.

Golden-run comparison on every registered workload, with every fused
segment tiering up on its first entry (``TIER_UP_ENTRIES = 1``, the
hottest configuration — the one the 12.8x geomean speedup was accepted
on):

* **off**: metrics disabled (the ``REPRO_METRICS=0`` no-op registry) —
  the engine's telemetry flush in ``_loop`` is skipped entirely;
* **on**: the default enabled registry — per-segment counts accumulate
  in local ints and flush to the process registry once per ``_loop``
  call — plus the flight recorder: span recording is enabled, every
  golden run is wrapped in a recorded span, and the buffered records are
  drained exactly as campaign workers ship them.

Acceptance bar: the instrumented run must stay within **3%** of the
disabled run (geometric mean across workloads).  Results land in
pytest-benchmark ``extra_info`` (or ``BENCH_obs.json`` when run
standalone)::

    python benchmarks/bench_obs.py
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

try:
    import repro  # noqa: F401  (installed package or PYTHONPATH=src)
except ModuleNotFoundError:  # standalone script run from a source checkout
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro.obs.log import provenance
from repro.obs.metrics import configure, registry
from repro.obs.spans import (
    disable_recording,
    drain_span_records,
    enable_recording,
    recording_enabled,
    span,
)
from repro.vm import engine as engine_module
from repro.vm.engine import Engine
from repro.workloads.registry import get_workload, workload_names

#: Scale factor for timing repeats (1 = quick laptop/CI run).
SCALE = max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))
#: Timing repeats per mode (best-of; overhead bars need low noise).
REPEATS = max(5, int(os.environ.get("REPRO_BENCH_OBS_REPEATS", "5"))) * SCALE
#: Max tolerated instrumented/disabled geomean ratio.
OVERHEAD_BAR = 1.03
OUTPUT = os.environ.get("REPRO_BENCH_OBS_JSON", "BENCH_obs.json")


def _golden(workload):
    instance = workload.fresh_instance()
    engine = Engine(
        instance.module,
        instance.memory,
        max_steps=workload.max_steps,
    )
    return engine.run(workload.entry, instance.args).steps


#: Minimum wall time per timed sample; short workloads loop to reach it.
SAMPLE_FLOOR_S = 0.02


def _sample(workload, inner, name=None):
    """Time ``inner`` golden runs; with ``name``, each run is a recorded span."""
    start = time.perf_counter()
    if name is None:
        for _ in range(inner):
            _golden(workload)
    else:
        for _ in range(inner):
            with span("bench.golden", workload=name):
                _golden(workload)
    return (time.perf_counter() - start) / inner


def _paired_times(workload, inner, name):
    """Alternate modes and ratio each adjacent pair, cancelling load drift.

    Returns (best_off_s, best_on_s, median_pair_ratio, recorded_spans); the
    median of the per-pair on/off ratios is far less noisy than a ratio of
    two best-of times, because both halves of each pair run back to back.
    The instrumented half carries the full flight-recorder path: recording
    on, a span around every run, the buffer drained after every sample.
    """
    offs, ons = [], []
    recorded = 0
    was_recording = recording_enabled()
    enable_recording()
    drain_span_records()
    try:
        for _ in range(REPEATS):
            configure(False)
            offs.append(_sample(workload, inner))
            configure(True)
            ons.append(_sample(workload, inner, name=name))
            recorded += len(drain_span_records())
    finally:
        if not was_recording:
            disable_recording()
    ratios = sorted(on / off for on, off in zip(ons, offs))
    mid = len(ratios) // 2
    median = (
        ratios[mid]
        if len(ratios) % 2
        else (ratios[mid - 1] + ratios[mid]) / 2.0
    )
    return min(offs), min(ons), median, recorded


def measure_workload(name):
    workload = get_workload(name)
    steps = _golden(workload)  # warm module + MIR caches
    start = time.perf_counter()
    _golden(workload)
    single_s = time.perf_counter() - start
    # Batch sub-millisecond workloads so each sample clears the timer noise.
    inner = max(1, int(math.ceil(SAMPLE_FLOOR_S / max(single_s, 1e-9))))
    try:
        off_s, on_s, overhead, recorded = _paired_times(workload, inner, name)
        counted = registry().counter_total("engine.ops")
    finally:
        configure(None)  # back to the REPRO_METRICS-driven default
    assert counted >= steps, (
        f"{name}: instrumented run counted {counted} engine.ops "
        f"for {steps} executed steps"
    )
    assert recorded == REPEATS * inner, (
        f"{name}: flight recorder captured {recorded} spans "
        f"for {REPEATS * inner} instrumented runs"
    )
    return {
        "workload": name,
        "steps": steps,
        "off_s": off_s,
        "on_s": on_s,
        "overhead": overhead,
        "recorded_spans": recorded,
    }


def measure_all():
    saved = engine_module.TIER_UP_ENTRIES
    engine_module.TIER_UP_ENTRIES = 1  # fused from every segment's first entry
    try:
        rows = [measure_workload(name) for name in workload_names()]
    finally:
        engine_module.TIER_UP_ENTRIES = saved
    ratios = [row["overhead"] for row in rows]
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return {
        "workloads": {row["workload"]: row for row in rows},
        "geomean_overhead": geomean,
        "max_overhead": max(ratios),
        "overhead_bar": OVERHEAD_BAR,
    }


def _check(results):
    assert results["geomean_overhead"] <= OVERHEAD_BAR, (
        f"metrics instrumentation costs "
        f"{(results['geomean_overhead'] - 1) * 100:.1f}% geomean, above the "
        f"{(OVERHEAD_BAR - 1) * 100:.0f}% acceptance bar"
    )


# --------------------------------------------------------------------- #
# pytest-benchmark entry point
# --------------------------------------------------------------------- #
def test_bench_obs(once, benchmark):
    from conftest import print_header

    results = once(measure_all)
    benchmark.extra_info["geomean_overhead"] = results["geomean_overhead"]
    for name, row in results["workloads"].items():
        benchmark.extra_info[name] = {k: v for k, v in row.items() if k != "workload"}
    print_header(
        f"Telemetry overhead: metrics on vs off "
        f"(bar <= {(OVERHEAD_BAR - 1) * 100:.0f}% geomean over "
        f"{len(results['workloads'])} workloads)"
    )
    print(json.dumps(results, indent=2))
    _check(results)


def main() -> None:
    results = measure_all()
    results["provenance"] = provenance()
    print(json.dumps(results, indent=2))
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    print(f"wrote {OUTPUT}", file=sys.stderr)
    _check(results)


if __name__ == "__main__":
    main()
