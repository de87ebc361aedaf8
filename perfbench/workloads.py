"""The four benchmark workloads, each a closed loop with a single caller.

Every workload builds its inputs from the benchmark seed in set-up, then
runs whole *rounds* of identical operations through the public API until
``seconds`` have passed, timing each operation with a :class:`Stopwatch`.
Outputs are checked between operations, outside the timed calls, by the
independent :mod:`checker` and by per-workload property checks.  Sizes and
reasons are in README.md.
"""

from __future__ import annotations

import gc
import itertools
import os
import pickle
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import checker
from tracer import Stopwatch, Tracer

__all__ = ["SCALES", "WORKLOADS", "Result"]

#: Default sizes of every workload (README.md gives the reasons).
SCALES: dict[str, dict[str, int]] = {
    "plan-cold": {"users": 1000, "k": 60, "instances": 6},
    "live-replay": {"users": 3000, "k": 24, "instances": 3, "ops": 240},
    "serve-durable": {"users": 1000, "k": 40, "instances": 3, "cycles": 16},
    "plan-sharded": {"users": 200_000, "k": 24, "instances": 3, "shards": 4},
}

#: Distinct tags keep each workload's seed streams apart.
_TAGS = {"plan-cold": 1, "live-replay": 2, "serve-durable": 3, "plan-sharded": 4}


@dataclass
class Result:
    """What one workload run measured and found."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Timed wall time of the untraced and of the traced rounds.
    wall: float = 0.0
    traced_wall: float = 0.0
    #: Operations completed in untraced and in traced rounds.
    done: int = 0
    traced_done: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: Serving quantities reported beside the layer metrics.
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.errors

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)

    def checked(self, check: Callable[[], object]) -> None:
        """Run an independent check; a :class:`checker.CheckError` is a finding."""
        try:
            check()
        except checker.CheckError as error:
            self.errors.append(str(error))

    def timed(self, watch: Stopwatch, kind: Any, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """One attempted operation's result; ``None`` (counted failed) if it raised."""
        self.attempted += 1
        try:
            return watch.call(kind, fn, *args, **kwargs)
        except Exception as error:  # noqa: BLE001 - a failed operation is data
            self.failed += 1
            print(f"operation {kind} failed: {error!r}", file=sys.stderr)
            return None

    def run_rounds(self, watch: Stopwatch, seconds: float, run_round: Callable[[int], int]) -> None:
        """Whole rounds until ``seconds`` have passed, an even count of them
        when traced and untraced rounds alternate.

        ``run_round(index)`` returns the operations it completed.
        """
        step = 1 if watch.tracer is None else 2
        started = time.perf_counter()
        try:
            while True:
                watch.start_round(self.rounds)
                done = run_round(self.rounds)
                if watch.tracing:
                    self.traced_done += done
                else:
                    self.done += done
                self.rounds += 1
                gc.collect()
                if self.rounds % step == 0 and time.perf_counter() - started >= seconds:
                    break
        finally:
            watch.stop()
        self.wall = watch.wall
        self.traced_wall = watch.traced_wall

    def finish(self, setups: list[float], latencies: list[list[float]], utility: float) -> None:
        """The end-to-end metrics; ``latencies`` holds one list per input.

        Latency is a mean, not a median: on a host whose speed switches
        between two levels, the median of an input's dozen samples flips
        from one level to the other, while the mean moves in proportion to
        the time spent at each (README.md gives the measurements).
        """
        self.metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": self.done / self.wall,
            "op_mean_ms": statistics.fmean(statistics.fmean(values) for values in latencies) * 1e3,
            "utility": utility,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def _p50_per_input(latencies: list[list[float]]) -> float:
    """Mean over inputs of each input's median latency.

    Inputs differ in size, so the median of the pooled samples would jump
    from one input's latencies to another's between runs.
    """
    return statistics.fmean(statistics.median(values) for values in latencies)


def _by_input(samples: dict[Any, list[float]], kind: str) -> list[list[float]]:
    return [values for (name, _), values in sorted(samples.items()) if name == kind]


def _seeds(seed: int, workload: str, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, _TAGS[workload]]).generate_state(count)
    return [int(value) for value in state]


def _paper_config(users: int, k: int) -> Any:
    from repro import ExperimentConfig

    return ExperimentConfig(k=k, n_users=users, interest_backend="sparse")


# ---------------------------------------------------------------------------
# plan-cold
# ---------------------------------------------------------------------------
def plan_cold(
    seed: int, seconds: float, tracer: Tracer | None = None, scale: dict[str, int] | None = None,
) -> Result:
    """Cold GRD solves of paper-sheet instances, each on a fresh object."""
    from repro import EngineSpec, WorkloadGenerator, solver_registry

    size = scale or SCALES["plan-cold"]
    result = Result()
    config = _paper_config(size["users"], size["k"])
    k = config.k
    blobs: list[bytes] = []
    setups: list[float] = []
    for instance_seed in _seeds(seed, "plan-cold", size["instances"]):
        started = time.perf_counter()
        instance = WorkloadGenerator(root_seed=instance_seed).build(config)
        blobs.append(pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL))
        setups.append(time.perf_counter() - started)
    del instance

    spec = EngineSpec(kind="sparse")
    watch = Stopwatch(tracer)
    utilities: dict[int, float] = {}

    def solve(instance: Any) -> Any:
        return solver_registry.create("grd", engine=spec).solve(instance, k)

    def run_round(index: int) -> int:
        done = 0
        for position, blob in enumerate(blobs):
            # unpickled untimed: each solve gets an object nothing touched
            fresh = pickle.loads(blob)
            solved = result.timed(watch, ("solve", position), solve, fresh)
            if solved is None:
                continue
            done += 1
            result.checked(lambda: checker.check_schedule(fresh, solved.schedule, k, solved.utility))
            first = utilities.setdefault(position, solved.utility)
            result.check(first == solved.utility, f"instance {position}: utility changed between rounds")
        return done

    result.run_rounds(watch, seconds, run_round)
    result.finish(setups, _by_input(watch.samples, "solve"), statistics.fmean(utilities.values()))
    return result


# ---------------------------------------------------------------------------
# live-replay
# ---------------------------------------------------------------------------
class _Columns:
    """The instance's own interest columns, handed out in seeded cycles.

    Every candidate (or rival) column is used once per cycle, so the
    interest a stream adds tracks the instance's average column instead
    of a few random picks; the live state keeps the instance's interest
    statistics however long the stream is.
    """

    def __init__(self, rng: np.random.Generator, entries: Callable[[int], Any], count: int) -> None:
        self._order = rng.permutation(count)
        self._entries = entries
        self._next = 0

    def take(self) -> tuple[np.ndarray, np.ndarray]:
        column = int(self._order[self._next % len(self._order)])
        self._next += 1
        return self._entries(column)


def _pairs(entries: tuple[np.ndarray, np.ndarray]) -> tuple[tuple[int, float], ...]:
    rows, values = entries
    return tuple((int(u), float(v)) for u, v in zip(rows, values))


def rotation_ops(instance: Any, config: Any, seed: int) -> Iterator[Any]:
    """An endless change stream cycling arrive, drift, cancel, rival.

    Arrivals and cancellations alternate strictly, so the live event count
    returns to its start every 4 ops, and new interest columns cycle
    through the instance's own columns (:class:`_Columns`).  Together they
    keep the per-op cost and the utility stationary however long the
    stream runs.  (``TraceGenerator`` draws op kinds independently, which
    balances them only in expectation, and draws fresh uniform interest:
    its event count random-walks and its utility drifts.)
    """
    from repro.stream.trace import AnnounceRival, ArriveCandidate, CancelEvent, DriftInterest

    rng = np.random.default_rng(seed)
    arrivals = _Columns(rng, instance.interest.event_column_entries, instance.n_events)
    drifts = _Columns(rng, instance.interest.event_column_entries, instance.n_events)
    rivals = _Columns(rng, instance.interest.competing_column_entries, instance.n_competing)
    n_live = instance.n_events
    clock = 0.0
    for index in itertools.count():
        clock += float(rng.exponential(1.0))
        kind = index % 4
        if kind == 0:
            yield ArriveCandidate(
                time=clock,
                location=int(rng.integers(config.n_locations)),
                required_resources=float(rng.uniform(*config.xi_range)),
                interest=_pairs(arrivals.take()),
            )
            n_live += 1
        elif kind == 1:
            yield DriftInterest(time=clock, event=int(rng.integers(n_live)), interest=_pairs(drifts.take()))
        elif kind == 2:
            yield CancelEvent(time=clock, event=int(rng.integers(n_live)))
            n_live -= 1
        else:
            yield AnnounceRival(
                time=clock, interval=int(rng.integers(instance.n_intervals)), interest=_pairs(rivals.take()),
            )


def rotation_trace(instance: Any, config: Any, n_ops: int, seed: int) -> Any:
    """The first ``n_ops`` ops of :func:`rotation_ops` as a trace."""
    from repro.stream.trace import Trace

    return Trace(
        ops=tuple(itertools.islice(rotation_ops(instance, config, seed), n_ops)),
        n_users=instance.n_users, initial_k=config.k, n_events=instance.n_events,
        n_intervals=instance.n_intervals, seed=seed, label=f"rotation {config.label()} ops={n_ops}",
    )


def live_replay(
    seed: int, seconds: float, tracer: Tracer | None = None, scale: dict[str, int] | None = None,
) -> Result:
    """Incremental replays of stationary change traces, no durability.

    The benchmark runs the loop of ``StreamDriver.run`` itself (bind the
    ``incremental`` policy, then ``apply`` and ``utility`` per op), so that
    each op is timed from the outside: the driver's own per-op record
    times ``apply`` alone.
    """
    from repro import EngineSpec, WorkloadGenerator, make_policy

    size = scale or SCALES["live-replay"]
    result = Result()
    config = _paper_config(size["users"], size["k"])
    k = config.k
    spec = EngineSpec(kind="sparse")
    pairs: list[tuple[Any, Any]] = []
    setups: list[float] = []
    for instance_seed in _seeds(seed, "live-replay", size["instances"]):
        started = time.perf_counter()
        instance = WorkloadGenerator(root_seed=instance_seed).build(config)
        trace = rotation_trace(instance, config, size["ops"], instance_seed)
        setups.append(time.perf_counter() - started)
        pairs.append((instance, trace))

    watch = Stopwatch(tracer)
    finals: dict[int, float] = {}

    def step(policy: Any, op: Any) -> float:
        policy.apply(op)
        return policy.utility()

    def run_round(index: int) -> int:
        done = 0
        for position, (instance, trace) in enumerate(pairs):
            policy = make_policy("incremental")
            failed = result.failed
            result.timed(watch, ("bind", position), policy.bind, instance, k, engine=spec)
            if result.failed > failed:
                continue
            utilities = []
            for op in trace.ops:
                utility = result.timed(watch, (op.kind, position), step, policy, op)
                if utility is None:
                    break
                utilities.append(utility)
            done += len(utilities)
            result.check(len(utilities) == len(trace.ops), f"pair {position}: {len(utilities)} utilities for {len(trace.ops)} ops")
            policy.finish()
            live = policy.scheduler
            result.check(live.live.freezes == 0, f"pair {position}: {live.live.freezes} freezes on the hot path")
            final = policy.utility()
            result.checked(lambda: checker.check_schedule(live.live, live.schedule.as_mapping(), live.k, final))
            first = finals.setdefault(position, final)
            result.check(first == final, f"pair {position}: final utility changed between replays")
        return done

    result.run_rounds(watch, seconds, run_round)
    result.finish(setups, _by_input(watch.samples, "arrive"), statistics.fmean(finals.values()))
    return result


# ---------------------------------------------------------------------------
# serve-durable
# ---------------------------------------------------------------------------
def _serving_write(op: Any, n_users: int) -> tuple[str, tuple]:
    """The :class:`ServingSession` mutator and arguments of a change op."""

    def dense(pairs: tuple[tuple[int, float], ...]) -> np.ndarray:
        column = np.zeros(n_users)
        for user, value in pairs:
            column[user] = value
        return column

    if op.kind == "arrive":
        return "add_event", (op.location, op.required_resources, dense(op.interest))
    if op.kind == "drift":
        return "update_event_interest", (op.event, dense(op.interest))
    if op.kind == "cancel":
        return "cancel_event", (op.event,)
    return "add_competing", (op.interval, dense(op.interest))


def _bytes_per_write(path: str, writes: int) -> float:
    """Bytes on disk per committed write, the offset-0 checkpoint left out.

    After the offset-0 checkpoint a session adds one journal record per
    write and one checkpoint per ``checkpoint_every`` writes, so this does
    not depend on how many rounds a run fits in.
    """
    total = 0
    for root, _, names in os.walk(path):
        for name in names:
            if name != "ckpt-00000000.json":
                total += os.path.getsize(os.path.join(root, name))
    return total / writes


def _check_gaps(instance: Any, served: Any, report: Any) -> None:
    """The report's schedule, gap count, blocked cells and best gain, recomputed."""
    schedule = served.schedule.as_mapping()
    if dict(report.schedule) != schedule:
        raise checker.CheckError("gap report describes another schedule")
    if len(report.gaps) != instance.n_events - len(schedule):
        raise checker.CheckError(f"{len(report.gaps)} gap events for {instance.n_events - len(schedule)} unscheduled")
    if not report.gaps:
        return
    top = report.gaps[0]
    for cell in top.cells:
        blocked = bool(checker.feasibility_errors(instance, {**schedule, top.event: cell.interval}))
        if blocked != (cell.status == "blocked"):
            raise checker.CheckError(f"e{top.event}@t{cell.interval}: status {cell.status!r}, recomputed blocked={blocked}")
    best = top.cells[0]
    gain = checker.empty_gain(instance, top.event, best.interval)
    if not np.isclose(best.gain, gain, rtol=1e-9, atol=1e-12):
        raise checker.CheckError(f"e{top.event}@t{best.interval}: gain {best.gain!r}, recomputed {gain!r}")


def serve_durable(
    seed: int, seconds: float, tracer: Tracer | None = None, scale: dict[str, int] | None = None,
) -> Result:
    """One client: write, solve, gap-report cycles on durable sessions.

    The client drives one session per instance, a round (``cycles``
    cycles, one checkpoint at the default cadence) at a time in turn.
    """
    from repro import EngineSpec, WorkloadGenerator, solver_registry
    from repro.resilience import Durability
    from repro.serve import ServingSession

    size = scale or SCALES["serve-durable"]
    result = Result()
    config = _paper_config(size["users"], size["k"])
    k = config.k
    cycles = size["cycles"]
    spec = EngineSpec(kind="sparse")
    scratch = tempfile.mkdtemp(prefix="perfbench-", dir=os.getcwd())
    sessions: list[Any] = []
    try:
        setups: list[float] = []
        streams: list[Iterator[Any]] = []
        directories: list[Any] = []
        for position, instance_seed in enumerate(_seeds(seed, "serve-durable", size["instances"])):
            durable = Durability(os.path.join(scratch, f"session-{position}"))
            started = time.perf_counter()
            instance = WorkloadGenerator(root_seed=instance_seed).build(config)
            session = ServingSession(instance, default_engine=spec, durability=durable)
            session.solve(solver="grd-heap", k=k)  # warm the pool's primary plane
            setups.append(time.perf_counter() - started)
            sessions.append(session)
            directories.append(durable)
            streams.append(rotation_ops(instance, config, instance_seed + 1))

        watch = Stopwatch(tracer)
        # the first round of each session: the same solves in every run
        first_round: list[list[float]] = [[] for _ in sessions]
        committed = [0] * len(sessions)

        def run_round(index: int) -> int:
            position = index % len(sessions)
            session, writes = sessions[position], streams[position]
            done = 0
            for step in range(cycles):
                cycle = index * cycles + step
                mutator, arguments = _serving_write(next(writes), config.n_users)
                if result.timed(watch, ("write", position), getattr(session, mutator), *arguments) is not None:
                    committed[position] += 1
                    done += 1
                served = result.timed(watch, ("solve", position), session.solve, solver="grd-heap", k=k)
                if served is None:
                    continue
                done += 1
                if index < len(sessions):
                    first_round[position].append(served.utility)
                version = session.version_instance()
                result.checked(lambda: checker.check_schedule(version, served.schedule, k, served.utility))
                if step == cycles - 1:
                    # warm equals cold: the served answer against a cold
                    # solve of the same version
                    cold = solver_registry.create("grd-heap", engine=spec).solve(version, k)
                    result.check(
                        cold.schedule.as_mapping() == served.schedule.as_mapping() and cold.utility == served.utility,
                        f"cycle {cycle}: served solve differs from a cold solve of its version",
                    )
                report = result.timed(watch, ("gap", position), session.gap_report, served)
                if report is None:
                    continue
                done += 1
                result.checked(lambda: _check_gaps(version, served, report))
            return done

        result.run_rounds(watch, seconds, run_round)

        durable_bytes: list[float] = []
        for position, (session, durable) in enumerate(zip(sessions, directories)):
            stats = session.pool_stats()
            result.check(stats.replica_cold_cells == 0, f"session {position}: replicas filled {stats.replica_cold_cells} cells cold")
            result.check(session.journal_offset == committed[position], f"session {position}: journal offset {session.journal_offset} != {committed[position]} committed writes")
            generation = session.version
            closed = checker.instance_fingerprint(session.version_instance())
            session.close()
            durable_bytes.append(_bytes_per_write(str(durable.path), committed[position]))
            recovered = ServingSession.recover(durable, default_engine=spec)
            try:
                result.check(recovered.version == generation, f"session {position}: recovered generation {recovered.version} != {generation}")
                result.check(
                    checker.instance_fingerprint(recovered.version_instance()) == closed,
                    f"session {position}: recovered version instance differs from the closed one",
                )
            finally:
                recovered.close()
    finally:
        for session in sessions:
            session.close()
        shutil.rmtree(scratch, ignore_errors=True)

    solves = _by_input(watch.samples, "solve")
    result.finish(setups, solves, statistics.fmean(statistics.fmean(u) for u in first_round if u))
    result.extras = {
        "serve.write_p50_ms": _p50_per_input(_by_input(watch.samples, "write")) * 1e3,
        "serve.gap_p50_ms": _p50_per_input(_by_input(watch.samples, "gap")) * 1e3,
        "serve.solve_p90_ms": statistics.fmean(statistics.quantiles(values, n=10)[-1] for values in solves) * 1e3,
        "serve.durable_bytes": statistics.fmean(durable_bytes),
    }
    return result


# ---------------------------------------------------------------------------
# plan-sharded
# ---------------------------------------------------------------------------
def plan_sharded(
    seed: int, seconds: float, tracer: Tracer | None = None, scale: dict[str, int] | None = None,
) -> Result:
    """Cold GRD solves on user-sharded instances, dispatched serially.

    The executor runs the block thunks inline (``workers=1``): with one
    thread per CPU the solves of a 2-CPU host ran 1.4 to 2.5 times
    slower than serial ones and spread past the benchmark's bounds
    (README.md gives the measurements).
    """
    from repro import EngineSpec, solver_registry
    from repro.workloads.generator import synthesize_sharded_instance

    size = scale or SCALES["plan-sharded"]
    result = Result()
    k = size["k"]
    sharded = EngineSpec(kind="sparse", shards=size["shards"], workers=1)
    single = EngineSpec(kind="sparse", shards=1)
    instances: list[Any] = []
    setups: list[float] = []
    for instance_seed in _seeds(seed, "plan-sharded", size["instances"]):
        started = time.perf_counter()
        instances.append(synthesize_sharded_instance(size["users"], shards=size["shards"], seed=instance_seed))
        setups.append(time.perf_counter() - started)
    # the reference: the same solve with one shard (results are
    # bit-identical for any shard count); it also warms lazy caches
    references = [solver_registry.create("grd", engine=single).solve(instance, k) for instance in instances]
    for instance, reference in zip(instances, references):
        result.checked(lambda: checker.check_schedule(instance, reference.schedule, k, reference.utility))

    watch = Stopwatch(tracer)

    def solve(instance: Any) -> Any:
        return solver_registry.create("grd", engine=sharded).solve(instance, k)

    def run_round(index: int) -> int:
        done = 0
        for position, (instance, reference) in enumerate(zip(instances, references)):
            solved = result.timed(watch, ("solve", position), solve, instance)
            if solved is None:
                continue
            done += 1
            result.check(
                solved.schedule.as_mapping() == reference.schedule.as_mapping() and solved.utility == reference.utility,
                f"instance {position}: {size['shards']}-shard schedule differs from the 1-shard one",
            )
        return done

    result.run_rounds(watch, seconds, run_round)
    result.finish(setups, _by_input(watch.samples, "solve"), statistics.fmean(reference.utility for reference in references))
    return result


WORKLOADS: dict[str, Callable[..., Result]] = {
    "plan-cold": plan_cold,
    "live-replay": live_replay,
    "serve-durable": serve_durable,
    "plan-sharded": plan_sharded,
}
