"""The traced run: wrappers come off cleanly and the layer times add up.

Run with ``python -m pytest perfbench``; every workload runs one round at
a tiny size.
"""

from __future__ import annotations

import threading

import pytest

from tracer import LAYER_METRICS, SELF_METRICS, Tracer
from workloads import WORKLOADS

TINY = {
    "plan-cold": {"users": 200, "k": 6, "instances": 1},
    "live-replay": {"users": 200, "k": 6, "instances": 1, "ops": 24},
    "serve-durable": {"users": 150, "k": 6, "instances": 1, "cycles": 16},
    "plan-sharded": {"users": 20_000, "k": 8, "instances": 1, "shards": 4},
}

#: Counters each workload's traced round must move (its layers do work).
MOVED = {
    "plan-cold": ("engine.calls", "engine.cells", "solver.score_updates", "solver.pops"),
    "live-replay": ("engine.cells", "plane.cells_filled", "live.mutate_ms", "stream.apply_ms", "stream.arrive_p50_ms"),
    "serve-durable": (
        "plane.warm_reads", "pool.forks", "pool.rebuilds", "live.freezes", "journal.records",
        "journal.bytes", "checkpoint.count", "checkpoint.bytes", "checkpoint.serialize_ms", "gaps.cells",
    ),
    "plan-sharded": ("engine.cells", "shard.fanouts", "shard.merged_partials", "shard.block_ms", "shard.map_ms"),
}


def originals() -> list[tuple[object, str, object]]:
    return [(owner, attr, getattr(owner, attr)) for owner, attr in Tracer().targets()]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_leaves_every_wrapped_function_identical(name: str) -> None:
    before = originals()
    # with no time to run, exactly one round runs
    result = WORKLOADS[name](7, 0.0, scale=TINY[name])
    assert result.correct and not result.failed, result.errors
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)


def test_uninstall_restores_the_original_objects() -> None:
    before = originals()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original for owner, attr, original in before)
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_layers_add_up_to_the_timed_wall(name: str) -> None:
    before = originals()
    tracer = Tracer()
    # with no time to run, round 0 runs traced and round 1 untraced
    result = WORKLOADS[name](7, 0.0, tracer=tracer, scale=TINY[name])
    assert result.rounds == 2
    assert result.correct and not result.failed, result.errors
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, (owner, attr)
    metrics = tracer.report(result.traced_wall, result.traced_done)
    assert set(metrics) == set(LAYER_METRICS)
    layer_sum = sum(metrics[key] for key in SELF_METRICS.values()) + metrics["other.self_ms"]
    assert layer_sum == pytest.approx(result.traced_wall * 1e3 / result.traced_done, rel=1e-9)
    assert metrics["other.self_ms"] >= 0.0
    for key in MOVED[name]:
        assert metrics[key] > 0, key


def spans_of(tracer: Tracer) -> list:
    return tracer._buffer().spans


def test_report_rejects_a_root_span_outside_its_call() -> None:
    tracer = Tracer()
    tracer.op = 0
    tracer.end_op(1.0, 2.0)
    spans_of(tracer).append(("engine", 1.5, 2.5, -1, 0))
    with pytest.raises(AssertionError, match="outside its timed call"):
        tracer.report(1.0, 1)


def test_report_rejects_overlapping_root_spans() -> None:
    tracer = Tracer()
    tracer.op = 0
    tracer.end_op(1.0, 2.0)
    spans_of(tracer).extend([("engine", 1.1, 1.5, -1, 0), ("solver", 1.4, 1.9, -1, 0)])
    with pytest.raises(AssertionError, match="overlap"):
        tracer.report(1.0, 1)


def test_report_rejects_worker_time_beyond_the_map() -> None:
    tracer = Tracer()
    tracer.op = 0
    tracer.end_op(1.0, 2.0)
    spans_of(tracer).append(("shard.map", 1.0, 1.2, -1, 0))
    worker = threading.Thread(target=lambda: spans_of(tracer).extend(
        [("engine", 1.0, 1.2, -1, 0), ("engine", 1.0, 1.2, -1, 0)]
    ))
    worker.start()
    worker.join()
    with pytest.raises(AssertionError, match="worker time"):
        tracer.report(1.0, 1)
    spans_of(tracer)[-1] = ("shard.map", 1.0, 1.5, -1, 0)
    assert tracer.report(1.0, 1)["shard.block_ms"] == pytest.approx(400.0)


def test_report_counts_serial_block_calls_as_block_time() -> None:
    tracer = Tracer()
    tracer.op = 0
    tracer.end_op(1.0, 2.0)
    spans_of(tracer).extend([("shard.map", 1.0, 1.5, -1, 0), ("engine", 1.1, 1.4, 0, 0)])
    metrics = tracer.report(1.0, 1)
    assert metrics["shard.block_ms"] == pytest.approx(300.0)
    assert metrics["shard.map_ms"] == pytest.approx(200.0)
    assert metrics["engine.self_ms"] == pytest.approx(300.0)
