"""Independent output checker: Eq. 3 utility and schedule feasibility.

Nothing here goes through ``repro.core.objective``, an engine, a plane or
``FeasibilityChecker``.  The checker reads only raw instance fields — the
nonzero entries of each interest column, the activity matrix, every
event's location and resource need, every rival's interval and ``theta`` —
and recomputes with plain numpy.

Eq. 3 in its per-interval form (the Luce split of Eq. 1 summed over the
events sharing an interval)::

    Omega(S) = sum_t sum_u sigma[u, t] * M_t[u] / (K_t[u] + M_t[u])

where ``M_t[u]`` sums the user's interest in the events ``S`` places at
``t`` and ``K_t[u]`` the interest in the rivals at ``t``; ``0 / 0 = 0``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any

import numpy as np

__all__ = [
    "CheckError",
    "assignments_of",
    "check_schedule",
    "empty_gain",
    "feasibility_errors",
    "instance_fingerprint",
    "utility",
]

#: Slack on the resources constraint, matching a chain of float additions.
RESOURCE_EPS = 1e-9
#: Relative tolerance between the program's utility and the recomputed
#: one: both sum the same float64 terms, only in a different order.
UTILITY_RTOL = 1e-9


class CheckError(AssertionError):
    """An output of the program disagrees with the independent checker."""


def assignments_of(schedule: Any) -> list[tuple[int, int]]:
    """``(event, interval)`` pairs of a schedule, mapping or pair list."""
    if isinstance(schedule, Mapping):
        return [(int(e), int(t)) for e, t in schedule.items()]
    if hasattr(schedule, "assignments"):
        return [(int(a.event), int(a.interval)) for a in schedule.assignments()]
    return [(int(e), int(t)) for e, t in schedule]


def _column(entries: tuple[np.ndarray, np.ndarray], n_users: int) -> np.ndarray:
    rows, values = entries
    out = np.zeros(n_users)
    np.add.at(out, np.asarray(rows, dtype=np.intp), np.asarray(values, dtype=float))
    return out


def utility(instance: Any, schedule: Any) -> float:
    """Eq. 3 recomputed from raw ``mu`` columns, ``sigma`` and rivals."""
    by_interval: dict[int, list[int]] = {}
    for event, interval in assignments_of(schedule):
        by_interval.setdefault(interval, []).append(event)
    rivals_at: dict[int, list[int]] = {}
    for rival in instance.competing:
        if rival.interval in by_interval:
            rivals_at.setdefault(rival.interval, []).append(rival.index)
    n_users = instance.n_users
    interest = instance.interest
    sigma = np.asarray(instance.activity.matrix)
    total = 0.0
    for interval in sorted(by_interval):
        scheduled = np.zeros(n_users)
        for event in by_interval[interval]:
            scheduled += _column(interest.event_column_entries(event), n_users)
        rivals = np.zeros(n_users)
        for rival in rivals_at.get(interval, ()):
            rivals += _column(interest.competing_column_entries(rival), n_users)
        denominator = rivals + scheduled
        share = np.zeros(n_users)
        np.divide(scheduled, denominator, out=share, where=denominator > 0.0)
        total += float(np.dot(sigma[:, interval], share))
    return total


def empty_gain(instance: Any, event: int, interval: int) -> float:
    """Eq. 4 gain of placing ``event`` at ``interval`` in an empty schedule."""
    return utility(instance, [(event, interval)])


def feasibility_errors(
    instance: Any, schedule: Any, k: int | None = None
) -> list[str]:
    """Every violated constraint, from instance fields alone (empty = ok)."""
    pairs = assignments_of(schedule)
    errors: list[str] = []
    n_events = instance.n_events
    n_intervals = instance.n_intervals
    theta = float(instance.theta)
    if k is not None and len(pairs) > k:
        errors.append(f"{len(pairs)} assignments exceed k={k}")
    seen: set[int] = set()
    locations: dict[int, set[int]] = {}
    resources: dict[int, float] = {}
    for event, interval in pairs:
        if not 0 <= event < n_events:
            errors.append(f"event {event} out of range")
            continue
        if not 0 <= interval < n_intervals:
            errors.append(f"interval {interval} out of range")
            continue
        if event in seen:
            errors.append(f"event {event} scheduled twice")
        seen.add(event)
        spec = instance.events[event]
        used = locations.setdefault(interval, set())
        if spec.location in used:
            errors.append(
                f"location {spec.location} used twice at interval {interval}"
            )
        used.add(spec.location)
        resources[interval] = resources.get(interval, 0.0) + float(
            spec.required_resources
        )
    for interval, spent in sorted(resources.items()):
        if spent > theta + RESOURCE_EPS:
            errors.append(
                f"interval {interval} needs {spent:.6f} > theta={theta}"
            )
    return errors


def check_schedule(
    instance: Any,
    schedule: Any,
    k: int,
    reported_utility: float,
) -> float:
    """Raise :class:`CheckError` unless ``schedule`` is feasible and its
    reported utility equals the recomputed Eq. 3 value; returns the latter."""
    errors = feasibility_errors(instance, schedule, k)
    if errors:
        raise CheckError("infeasible schedule: " + "; ".join(errors))
    expected = utility(instance, schedule)
    if not np.isclose(reported_utility, expected, rtol=UTILITY_RTOL, atol=1e-9):
        raise CheckError(
            f"reported utility {reported_utility!r} != recomputed {expected!r}"
        )
    return expected


def instance_fingerprint(instance: Any) -> tuple:
    """Raw-field identity of an instance: entities, ``mu`` entries, ``sigma``.

    Two instances with equal fingerprints describe the same problem bit
    for bit; used to compare a recovered serving version with the one
    that was closed.
    """
    interest = instance.interest

    def entries(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple:
        return tuple(
            (
                np.asarray(rows, dtype=np.int64).tobytes(),
                np.asarray(values, dtype=float).tobytes(),
            )
            for rows, values in pairs
        )

    return (
        instance.n_users,
        instance.n_intervals,
        float(instance.theta),
        tuple(
            (e.location, float(e.required_resources))
            for e in instance.events
        ),
        tuple(c.interval for c in instance.competing),
        entries(
            interest.event_column_entries(e)
            for e in range(instance.n_events)
        ),
        entries(
            interest.competing_column_entries(c)
            for c in range(instance.n_competing)
        ),
        np.asarray(instance.activity.matrix).tobytes(),
    )
