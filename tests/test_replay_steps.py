"""The cheap replay step: fast-forward, past-end sites, bit equality.

While no fault of a batch is in flight, :meth:`Engine.resume_many`
fast-forwards to the next fault site through :meth:`Engine.run_to` (fused
segments on the block backend, the op loop on the op backend).  These tests
pin that the fast-forward changes no outcome: batches shaped around it —
the first fault on the restored snapshot, gaps spanning many snapshot
intervals, several faults on one site, a fault near the program's end and
one past it — resolve exactly as per-fault sequential replay does, on both
backends and all registered workloads.
"""

from __future__ import annotations

import itertools
import struct

import numpy as np
import pytest

from repro.core.injector import DeterministicFaultInjector
from repro.core.replay import BatchedReplayContext, ReplayContext
from repro.vm.engine import Engine, _values_bit_equal
from repro.vm.faults import FaultSpec, FaultTarget
from repro.workloads.registry import get_workload, workload_names

BACKENDS = ("block", "op")


# --------------------------------------------------------------------- #
# _values_bit_equal vs a struct.pack oracle
# --------------------------------------------------------------------- #
def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _reference_bit_equal(a, b):
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def _corpus():
    values = [
        0.0, -0.0, 1.0, -1.0, 1.5, float("inf"), float("-inf"),
        5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
        0, 1, -1, 2 ** 64, True, False,
    ]
    for bits in (
        0x7FF8000000000000, 0x7FF8000000000001, 0x7FF8000000000002,
        0xFFF8000000000000, 0x7FF0000000000001,
    ):
        # two distinct objects per NaN payload: equal bits, ``==`` False
        values.append(_from_bits(bits))
        values.append(_from_bits(bits))
    # equal finite values as distinct objects (``a is b`` does not decide)
    values.extend(_from_bits(struct.unpack("<Q", struct.pack("<d", v))[0])
                  for v in (0.0, -0.0, 1.5, 1e-310))
    return values


def test_values_bit_equal_matches_struct_oracle():
    corpus = _corpus()
    nan_pairs = 0
    for a, b in itertools.product(corpus, repeat=2):
        assert _values_bit_equal(a, b) == _reference_bit_equal(a, b), (a, b)
        nan_pairs += a != a and b != b and a is not b
    assert nan_pairs, "corpus must compare distinct NaN objects"


# --------------------------------------------------------------------- #
# fast-forward parity
# --------------------------------------------------------------------- #
def _flip(event, operand_index=0, bit=2):
    width = event.operand_types[operand_index].bits
    return FaultSpec(
        dynamic_id=event.dynamic_id,
        bit=bit % width,
        target=FaultTarget.OPERAND,
        operand_index=operand_index,
    )


def _fast_forward_specs(events, positions, golden_steps):
    """A batch shaped around the fast-forward's edge cases."""
    on_snapshot = set(positions)

    def with_operands(start):
        for event in events[start:]:
            if event.operand_values and event.dynamic_id not in on_snapshot:
                return event
        raise AssertionError(f"no operand-carrying op after {start}")

    # the earliest fault sits exactly on a snapshot, so the walk restores
    # that snapshot and starts on the fault's site
    first = next(events[p] for p in positions[2:] if events[p].operand_values)
    shared = with_operands(golden_steps * 2 // 5)
    later = with_operands(golden_steps * 3 // 4)
    last = next(e for e in reversed(events) if e.operand_values)
    specs = [
        _flip(first),
        # several faults on one site
        _flip(shared), _flip(shared, bit=5),
        _flip(shared, operand_index=len(shared.operand_values) - 1, bit=1),
        # gap spanning many snapshot intervals
        _flip(later),
        # last fault near the program's end, and one past it
        _flip(last),
        FaultSpec(dynamic_id=golden_steps + 5, bit=3),
    ]
    interval = positions[1] - positions[0]
    assert later.dynamic_id - shared.dynamic_id > 2 * interval
    return specs


def _outcome_key(replay, spec):
    try:
        outcome = replay(spec)
    except Exception as exc:  # noqa: BLE001 - crash parity is compared
        return ("error", type(exc), str(exc))
    return (
        "ok",
        outcome.return_value,
        outcome.steps,
        {name: array.tobytes() for name, array in outcome.outputs.items()},
    )


def _batched_key(result):
    if result.error is not None:
        return ("error", type(result.error), str(result.error))
    outcome = result.outcome
    return (
        "ok",
        outcome.return_value,
        outcome.steps,
        {name: array.tobytes() for name, array in outcome.outputs.items()},
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_fast_forward_matches_sequential_on_every_workload(backend, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", backend)
    run_to_calls = []
    original_run_to = Engine.run_to

    def counting_run_to(self, target):
        run_to_calls.append(target)
        return original_run_to(self, target)

    monkeypatch.setattr(Engine, "run_to", counting_run_to)
    for name in workload_names():
        workload = get_workload(name)
        batched = BatchedReplayContext(workload)
        events = list(workload.traced_run().trace)
        positions = [snap.dyn for snap in batched.snapshots]
        specs = _fast_forward_specs(events, positions, batched.golden_steps)
        sequential = ReplayContext(workload)
        expected = [_outcome_key(sequential.replay, spec) for spec in specs]

        results = batched.replay_many(specs)
        assert [_batched_key(r) for r in results] == expected, name
        # without the snapshot-site fault the walk restores a snapshot
        # short of the first site and must fast-forward to it
        del run_to_calls[:]
        results = batched.replay_many(specs[1:])
        assert [_batched_key(r) for r in results] == expected[1:], name
        assert run_to_calls, f"{name}: the walk never fast-forwarded"


@pytest.mark.parametrize("backend", BACKENDS)
def test_inject_many_resolves_sites_past_the_end_like_inject(backend, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_BACKEND", backend)
    workload = get_workload("cg", seed=1)
    batched = DeterministicFaultInjector(workload, mode="replay")
    steps = batched.context.golden_steps
    specs = [
        FaultSpec(steps - 50, 3),
        FaultSpec(steps + 10, 3),
        FaultSpec(steps + 10, 4),
    ]
    sequential = DeterministicFaultInjector(workload, mode="replay")
    expected = [sequential.inject(spec) for spec in specs]
    assert batched.inject_many(specs) == expected
    # a batch lying wholly past the end never arms any fault
    assert batched.inject_many(specs[1:]) == expected[1:]


def test_fast_forwarded_steps_count_in_engine_ops():
    """A batch whose only site lies past the end is one fast-forward from
    the last snapshot to the program's end, all of it in ``engine.ops``."""
    from repro.obs.metrics import configure

    workload = get_workload("matmul")
    context = BatchedReplayContext(workload)
    steps = context.golden_steps
    reg = configure(True)
    try:
        result, = context.replay_many([FaultSpec(steps + 1, 0)])
        ops = reg.counter_total("engine.ops")
    finally:
        configure(None)
    assert result.error is None
    for name, array in context.golden_outputs.items():
        assert np.array_equal(result.outcome.outputs[name], array)
    assert ops == steps - context.snapshots[-1].dyn
