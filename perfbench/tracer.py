"""Layer-attributed tracing, installed from the benchmark's own files.

:class:`Tracer` wraps the public functions of each layer of the program
(engine scoring, score planes, solvers, live mutators, maintenance
policies, the plane pool, the journal, checkpoints, gap reports and the
shard executor) with span recorders.  Nothing under ``src/`` changes: the
wrappers are set on the classes and modules at :meth:`Tracer.install` and
the original objects are put back by :meth:`Tracer.uninstall`.  An
untraced run never installs anything.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span in the same thread's buffer (``-1`` for a root) and
``op`` the id of the benchmark operation it belongs to.  Spans and
counters live in per-thread buffers (the sharded engine records from
worker threads) and are merged by :meth:`Tracer.report`.

Spans are recorded only while a :class:`Stopwatch` call of a traced round
is in progress, so set-up and checks never enter the trace.  On the main
thread a span's self time is its duration minus its children's, and
``other.self_ms`` is the timed wall time no root span covers, so the layer
self times plus ``other.self_ms`` add up to the timed wall time by
construction.  What :meth:`Tracer.report` checks instead is that the spans
are well formed: every main-thread root span lies inside the timed call of
its operation and no two overlap, and every worker-thread span lies inside
a ``ShardExecutor.map`` span of the same operation, whose wall time times
the worker count bounds the worker time inside it.  ``shard.block_ms`` is
the time of the block sub-engine calls under a ``map``: the worker-thread
spans, which run concurrently with the main thread's wait in ``map`` and
so are reported apart, and, on a serial dispatch, the main-thread spans
that are children of a ``map`` span (their self time also counts in their
own layer, and ``shard.map_ms`` is then the dispatch overhead alone).

Counts, bytes and times are reported per completed operation of the
traced rounds (units ``count/op``, ``bytes/op``, ``ms/op``), so a faster
program, which completes more rounds in the same run, does not inflate
them; the per-kind ``stream.*_p50_ms`` medians are per call already.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time
from collections import Counter
from collections.abc import Callable
from typing import Any

__all__ = ["LAYER_METRICS", "Stopwatch", "Tracer"]

#: Span name -> the per-layer metric its self time goes to.
SELF_METRICS = {
    "engine": "engine.self_ms",
    "plane": "plane.ensure_ms",
    "solver": "solver.self_ms",
    "live": "live.mutate_ms",
    "stream": "stream.apply_ms",
    "pool.write": "pool.write_ms",
    "pool.acquire": "pool.acquire_ms",
    "journal": "journal.append_ms",
    "checkpoint.write": "checkpoint.write_ms",
    "checkpoint.serialize": "checkpoint.serialize_ms",
    "gaps": "gaps.report_ms",
    "shard.map": "shard.map_ms",
    "shard.rows": "shard.merge_ms",
}

#: Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "engine.calls": "count/op",
    "engine.cells": "count/op",
    "engine.self_ms": "ms/op",
    "plane.cells_filled": "count/op",
    "plane.cells_refreshed": "count/op",
    "plane.warm_reads": "count/op",
    "plane.ensure_ms": "ms/op",
    "solver.self_ms": "ms/op",
    "solver.score_updates": "count/op",
    "solver.pops": "count/op",
    "live.mutate_ms": "ms/op",
    "live.freezes": "count/op",
    "stream.apply_ms": "ms/op",
    "stream.arrive_p50_ms": "ms",
    "stream.cancel_p50_ms": "ms",
    "stream.rival_p50_ms": "ms",
    "stream.drift_p50_ms": "ms",
    "pool.write_ms": "ms/op",
    "pool.acquire_ms": "ms/op",
    "pool.forks": "count/op",
    "pool.rebuilds": "count/op",
    "journal.append_ms": "ms/op",
    "journal.records": "count/op",
    "journal.bytes": "bytes/op",
    "checkpoint.write_ms": "ms/op",
    "checkpoint.serialize_ms": "ms/op",
    "checkpoint.count": "count/op",
    "checkpoint.bytes": "bytes/op",
    "gaps.report_ms": "ms/op",
    "gaps.cells": "count/op",
    "shard.map_ms": "ms/op",
    "shard.block_ms": "ms/op",
    "shard.merge_ms": "ms/op",
    "shard.fanouts": "count/op",
    "shard.merged_partials": "count/op",
    "other.self_ms": "ms/op",
    "trace.wall_ms": "ms/op",
    "trace.overhead_ms": "ms/op",
}

_CELL_LAYERS = ("engine", "shard.rows")
#: Position and name of each scoring method's sequence arguments; the
#: cells a call evaluates are the product of their lengths.
_CELL_ARGUMENTS = {
    "scores_for_rows": ((1, "intervals"), (2, "events")),
    "scores_for_interval": ((2, "events"),),
    "scores_for_event": ((2, "intervals"),),
}


class Stopwatch:
    """Times the benchmark's operations.

    With a tracer, rounds alternate: even rounds run traced (wrappers
    installed, spans recorded while an operation runs), odd rounds run the
    original functions.  The tracing overhead is then measured over
    interleaved rounds of the same work, so host drift falls on both sides
    alike.  Latency samples come from untraced rounds only.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.tracing = False
        self.wall = 0.0
        self.traced_wall = 0.0
        #: Untraced latencies in seconds by operation kind.
        self.samples: dict[Any, list[float]] = {}
        self._ops = 0

    def start_round(self, index: int) -> None:
        if self.tracer is None:
            return
        tracing = index % 2 == 0
        if tracing and not self.tracing:
            self.tracer.install()
        elif self.tracing and not tracing:
            self.tracer.uninstall()
        self.tracing = tracing

    def stop(self) -> None:
        if self.tracing and self.tracer is not None:
            self.tracer.uninstall()
            self.tracing = False

    def call(self, kind: Any, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, timed as the next operation, of ``kind``."""
        op = self._ops
        self._ops += 1
        tracer = self.tracer if self.tracing else None
        if tracer is not None:
            tracer.op = op
            tracer.active = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if tracer is not None:
                tracer.active = False
                tracer.end_op(start, end)
                self.traced_wall += end - start
            else:
                self.wall += end - start
                self.samples.setdefault(kind, []).append(end - start)
        return result


class _Buffer:
    __slots__ = ("spans", "stack", "open_layers", "counters", "samples")

    def __init__(self) -> None:
        self.spans: list[Any] = []
        self.stack: list[int] = []
        self.open_layers: list[str] = []
        self.counters: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = {}


class Tracer:
    """Per-thread span buffers plus the wrappers that fill them."""

    def __init__(self) -> None:
        self.active = False
        self.op = 0
        self._main = threading.get_ident()
        self._local = threading.local()
        self._buffers: list[tuple[int, _Buffer]] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[Any, str, Any]] = []
        # objects whose own counters are read at their first sighting in an
        # operation and again when it ends: id -> (object, reader, snapshot)
        self._probes: dict[int, tuple[Any, Callable[[Any], dict[str, int]], dict[str, int]]] = {}
        self._harvested: Counter[str] = Counter()
        #: op id -> (start, end) of its timed call
        self._calls: dict[int, tuple[float, float]] = {}

    # -- buffers ----------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append((threading.get_ident(), buffer))
        return buffer

    def probe(self, obj: Any, reader: Callable[[Any], dict[str, int]]) -> None:
        """Count the growth of ``reader(obj)`` from now to the operation's end."""
        with self._lock:
            if id(obj) not in self._probes:
                self._probes[id(obj)] = (obj, reader, reader(obj))

    def end_op(self, start: float, end: float) -> None:
        """Close the current operation, timed from ``start`` to ``end``:
        add the growth of every counter probed during it."""
        self._calls[self.op] = (start, end)
        with self._lock:
            probes, self._probes = list(self._probes.values()), {}
        for obj, reader, before in probes:
            for name, value in reader(obj).items():
                self._harvested[name] += value - before[name]

    # -- wrapping -----------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        before: Callable[[_Buffer, tuple, dict], Any] | None = None,
        after: Callable[[_Buffer, Any, tuple, Any, float], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a ``layer`` span per call while active."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            buffer = tracer._buffer()
            state = None if before is None else before(buffer, args, kwargs)
            parent = buffer.stack[-1] if buffer.stack else -1
            index = len(buffer.spans)
            buffer.spans.append(None)
            buffer.stack.append(index)
            buffer.open_layers.append(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                buffer.stack.pop()
                buffer.open_layers.pop()
                buffer.spans[index] = (layer, start, end, parent, tracer.op)
            if after is not None:
                after(buffer, state, args, result, end - start)
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced entry point of the program."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer, before, after in self._targets():
            self._set(owner, attr, self.wrap(getattr(owner, attr), layer, before, after))
        # module functions are also bound by name in the modules importing
        # them (``from ... import build_gap_report``); rebind those too
        for module_name, attr, layer, after in self._function_targets():
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(original, layer, after=after)
            for name, module in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and getattr(module, attr, None) is original:
                    self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original object back, in reverse order."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def targets(self) -> list[tuple[Any, str]]:
        """``(owner, attribute)`` of every entry point :meth:`install` wraps."""
        found = [(owner, attr) for owner, attr, *_ in self._targets()]
        for module_name, attr, *_ in self._function_targets():
            found.append((sys.modules[module_name], attr))
        return found

    # -- what is wrapped ------------------------------------------------------
    def _targets(self) -> list[tuple[Any, str, str, Any, Any]]:
        from repro.algorithms.base import Scheduler
        from repro.core.engine import ReferenceEngine, ScoreEngine, SparseEngine, VectorizedEngine
        from repro.core.live import LiveInstance
        from repro.core.scoreplane import ScorePlane
        from repro.resilience.checkpoint import CheckpointStore
        from repro.resilience.journal import DeltaJournal
        from repro.serve.pool import PlanePool
        from repro.shard.engine import ShardedEngine
        from repro.shard.executor import ShardExecutor
        from repro.stream import policies

        main = self._main

        def cells(method: str) -> Callable[[_Buffer, tuple, dict], None]:
            def before(buffer: _Buffer, args: tuple, kwargs: dict) -> None:
                if threading.get_ident() != main:
                    return  # block partials of a sharded fan-out
                if any(layer in _CELL_LAYERS for layer in buffer.open_layers):
                    return  # counted by the enclosing engine call
                count = 1
                for position, name in _CELL_ARGUMENTS[method]:
                    count *= len(args[position] if len(args) > position else kwargs[name])
                buffer.counters["engine.calls"] += 1
                buffer.counters["engine.cells"] += count

            return before

        def sharded_rows(buffer: _Buffer, args: tuple, kwargs: dict) -> None:
            cells("scores_for_rows")(buffer, args, kwargs)
            self.probe(args[0], _sharded_counts)

        def plane_before(buffer: _Buffer, args: tuple, kwargs: dict) -> Any:
            if "plane" in buffer.open_layers:
                return None
            plane = args[0]
            return (plane.cells_filled, plane.cells_refreshed, plane.warm_reads)

        def plane_after(buffer: _Buffer, state: Any, args: tuple, result: Any, seconds: float) -> None:
            if state is None:
                return
            plane = args[0]
            buffer.counters["plane.cells_filled"] += plane.cells_filled - state[0]
            buffer.counters["plane.cells_refreshed"] += plane.cells_refreshed - state[1]
            buffer.counters["plane.warm_reads"] += plane.warm_reads - state[2]

        def solver_after(buffer: _Buffer, state: Any, args: tuple, result: Any, seconds: float) -> None:
            buffer.counters["solver.score_updates"] += result.stats.score_updates
            buffer.counters["solver.pops"] += result.stats.pops

        def freeze_before(buffer: _Buffer, args: tuple, kwargs: dict) -> int:
            return args[0].freezes

        def freeze_after(buffer: _Buffer, state: int, args: tuple, result: Any, seconds: float) -> None:
            buffer.counters["live.freezes"] += args[0].freezes - state

        def apply_after(buffer: _Buffer, state: Any, args: tuple, result: Any, seconds: float) -> None:
            if "stream" in buffer.open_layers:
                return  # a policy delegating to another policy's apply
            kind = getattr(args[1], "kind", "other")
            buffer.samples.setdefault(kind, []).append(seconds * 1e3)

        def acquire_before(buffer: _Buffer, args: tuple, kwargs: dict) -> None:
            self.probe(args[0], _pool_counts)

        def append_before(buffer: _Buffer, args: tuple, kwargs: dict) -> None:
            self.probe(args[0], _journal_size)

        def append_after(buffer: _Buffer, state: Any, args: tuple, result: Any, seconds: float) -> None:
            buffer.counters["journal.records"] += 1

        def checkpoint_after(buffer: _Buffer, state: Any, args: tuple, result: Any, seconds: float) -> None:
            buffer.counters["checkpoint.count"] += 1
            buffer.counters["checkpoint.bytes"] += os.path.getsize(result)

        targets: list[tuple[Any, str, str, Any, Any]] = []
        for cls in (ScoreEngine, ReferenceEngine, VectorizedEngine, SparseEngine, ShardedEngine):
            for method in ("scores_for_rows", "scores_for_interval", "scores_for_event"):
                if method not in cls.__dict__:
                    continue
                if cls is ShardedEngine and method == "scores_for_rows":
                    targets.append((cls, method, "shard.rows", sharded_rows, None))
                else:
                    targets.append((cls, method, "engine", cells(method), None))
        targets += [
            (ShardExecutor, "map", "shard.map", None, None),
            (ScorePlane, "ensure", "plane", plane_before, plane_after),
            (ScorePlane, "flush", "plane", plane_before, plane_after),
            (Scheduler, "solve", "solver", None, solver_after),
            (LiveInstance, "freeze", "live", freeze_before, freeze_after),
        ]
        for method in ("add_event", "remove_event", "replace_event_interest", "add_competing"):
            targets.append((LiveInstance, method, "live", None, None))
        for cls in vars(policies).values():
            if isinstance(cls, type) and issubclass(cls, policies.MaintenancePolicy) and "apply" in cls.__dict__:
                if not getattr(cls.apply, "__isabstractmethod__", False):
                    targets.append((cls, "apply", "stream", None, apply_after))
        targets += [
            (PlanePool, "write", "pool.write", None, None),
            (PlanePool, "acquire", "pool.acquire", acquire_before, None),
            (PlanePool, "release", "pool.acquire", None, None),
            (DeltaJournal, "append", "journal", append_before, append_after),
            (DeltaJournal, "sync", "journal", None, None),
            (CheckpointStore, "write", "checkpoint.write", None, checkpoint_after),
        ]
        return targets

    def _function_targets(self) -> list[tuple[str, str, str, Any]]:
        import repro.data.serialization  # noqa: F401 - registers the module
        import repro.interactive.gaps  # noqa: F401

        def gaps_after(buffer: _Buffer, state: Any, args: tuple, result: Any, seconds: float) -> None:
            buffer.counters["gaps.cells"] += sum(len(gap.cells) for gap in result.gaps)

        return [
            ("repro.data.serialization", "instance_to_dict", "checkpoint.serialize", None),
            ("repro.interactive.gaps", "build_gap_report", "gaps", gaps_after),
        ]

    # -- the report ---------------------------------------------------------
    def report(self, wall_seconds: float, operations: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far, per operation.

        ``wall_seconds`` is the timed wall time of the ``operations``
        traced operations.  Raises :class:`AssertionError` when the spans
        are not well formed (see the module docstring).
        """
        metrics = {name: 0.0 for name in LAYER_METRICS}
        counters: Counter[str] = Counter(self._harvested)
        samples: dict[str, list[float]] = {}
        roots: list[tuple[float, float, int]] = []
        maps: dict[int, list[list[float]]] = {}
        blocks: list[tuple[float, float, int]] = []
        workers = {ident for ident, _ in self._buffers if ident != self._main}
        for ident, buffer in self._buffers:
            counters.update(buffer.counters)
            for kind, values in buffer.samples.items():
                samples.setdefault(kind, []).extend(values)
            spans = buffer.spans
            children = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    children[parent] += end - start
            for index, (name, start, end, parent, op) in enumerate(spans):
                duration = end - start
                if ident != self._main:
                    if parent < 0:
                        metrics["shard.block_ms"] += duration * 1e3
                        blocks.append((start, end, op))
                    continue
                metrics[SELF_METRICS[name]] += (duration - children[index]) * 1e3
                if parent < 0:
                    roots.append((start, end, op))
                elif spans[parent][0] == "shard.map":
                    metrics["shard.block_ms"] += duration * 1e3  # a serial dispatch
                if name == "shard.map":
                    # start, end, worker time inside
                    maps.setdefault(op, []).append([start, end, 0.0])
        self._check_roots(roots)
        self._check_blocks(blocks, maps, len(workers))
        for name, value in counters.items():
            metrics[name] += value
        covered = sum(end - start for start, end, _ in roots)
        metrics["other.self_ms"] = (wall_seconds - covered) * 1e3
        metrics["trace.wall_ms"] = wall_seconds * 1e3
        for name in metrics:
            metrics[name] /= operations
        for kind in ("arrive", "cancel", "rival", "drift"):
            values = samples.get(kind)
            if values:
                metrics[f"stream.{kind}_p50_ms"] = statistics.median(values)
        return metrics

    def _check_roots(self, roots: list[tuple[float, float, int]]) -> None:
        """Main-thread root spans lie in their operation's call, disjoint."""
        previous_end = float("-inf")
        for start, end, op in sorted(roots):
            call = self._calls.get(op)
            if call is None or start < call[0] or end > call[1]:
                raise AssertionError(f"a root span of operation {op} lies outside its timed call {call}")
            if start < previous_end:
                raise AssertionError(f"root spans of operation {op} overlap")
            previous_end = end

    @staticmethod
    def _check_blocks(
        blocks: list[tuple[float, float, int]], maps: dict[int, list[list[float]]], workers: int,
    ) -> None:
        """Worker spans lie in a ``map`` of their operation, which bounds them."""
        for start, end, op in blocks:
            inside = [span for span in maps.get(op, ()) if span[0] <= start and end <= span[1]]
            if not inside:
                raise AssertionError(f"a worker span of operation {op} lies outside every ShardExecutor.map")
            inside[0][2] += end - start
        for spans in maps.values():
            for start, end, busy in spans:
                if busy > (end - start) * workers:
                    raise AssertionError(
                        f"{busy * 1e3:.3f} ms of worker time inside a {(end - start) * 1e3:.3f} ms map "
                        f"on {workers} workers"
                    )


def _sharded_counts(engine: Any) -> dict[str, int]:
    stats = engine.stats()
    return {"shard.fanouts": stats["fanouts"], "shard.merged_partials": stats["merged_partials"]}


def _pool_counts(pool: Any) -> dict[str, int]:
    stats = pool.stats()
    return {"pool.forks": stats.forks, "pool.rebuilds": stats.rebuilds}


def _journal_size(journal: Any) -> dict[str, int]:
    # appends are buffered, so one operation's reading can lag; the sum
    # over a round's operations telescopes to the growth between its
    # first append and its end, which its checkpoint has synced
    return {"journal.bytes": os.path.getsize(journal.path)}
