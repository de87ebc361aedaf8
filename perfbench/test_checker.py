"""The independent checker against brute force on tiny instances.

Run with ``python -m pytest perfbench``.  Every schedule of each tiny
instance is enumerated; utility is computed by the literal Eq. 1-3 loops
and feasibility by the paper's constraints, both written out here.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import checker
from repro.algorithms.registry import solver_registry
from repro.core.activity import ActivityModel
from repro.core.entities import CandidateEvent, CompetingEvent, Organizer, TimeInterval, User
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix

N_USERS, N_INTERVALS, N_EVENTS, THETA = 5, 2, 4, 6.0
LOCATIONS = (0, 0, 1, 2)  # events 0 and 1 clash on location
XI = (2.0, 3.0, 4.0, 1.5)  # events 0 + 2 fit theta, 1 + 2 do not
RIVAL_INTERVALS = (0, 1, 1)


def tiny_instance(seed: int, backend: str) -> tuple[SESInstance, np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.0, 1.0, size=(N_USERS, N_EVENTS)) * (rng.uniform(size=(N_USERS, N_EVENTS)) > 0.3)
    rivals = rng.uniform(0.0, 1.0, size=(N_USERS, len(RIVAL_INTERVALS))) * (
        rng.uniform(size=(N_USERS, len(RIVAL_INTERVALS))) > 0.5
    )
    sigma = rng.uniform(0.0, 1.0, size=(N_USERS, N_INTERVALS))
    instance = SESInstance(
        users=[User(index=u) for u in range(N_USERS)],
        intervals=[TimeInterval(index=t) for t in range(N_INTERVALS)],
        events=[
            CandidateEvent(index=e, location=LOCATIONS[e], required_resources=XI[e])
            for e in range(N_EVENTS)
        ],
        competing=[CompetingEvent(index=c, interval=t) for c, t in enumerate(RIVAL_INTERVALS)],
        interest=InterestMatrix(mu, rivals, backend=backend),
        activity=ActivityModel(sigma),
        organizer=Organizer(resources=THETA),
    )
    return instance, mu, rivals, sigma


def brute_utility(schedule: dict[int, int], mu: np.ndarray, rivals: np.ndarray, sigma: np.ndarray) -> float:
    total = 0.0
    for event, interval in schedule.items():
        for user in range(N_USERS):
            denominator = sum(
                rivals[user, c] for c, t in enumerate(RIVAL_INTERVALS) if t == interval
            ) + sum(mu[user, other] for other, t in schedule.items() if t == interval)
            if denominator > 0.0:
                total += sigma[user, interval] * mu[user, event] / denominator
    return total


def brute_feasible(schedule: dict[int, int], k: int) -> bool:
    if len(schedule) > k:
        return False
    for interval in range(N_INTERVALS):
        placed = [e for e, t in schedule.items() if t == interval]
        if len({LOCATIONS[e] for e in placed}) < len(placed):
            return False
        if sum(XI[e] for e in placed) > THETA:
            return False
    return True


def all_schedules() -> list[dict[int, int]]:
    """Every map of events to an interval or to nothing."""
    out = []
    for choice in itertools.product([None, *range(N_INTERVALS)], repeat=N_EVENTS):
        out.append({e: t for e, t in enumerate(choice) if t is not None})
    return out


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 2, 4])
def test_checker_matches_brute_force(seed: int, backend: str, k: int) -> None:
    instance, mu, rivals, sigma = tiny_instance(seed, backend)
    best = -1.0
    feasible_count = 0
    for schedule in all_schedules():
        expected = brute_utility(schedule, mu, rivals, sigma)
        assert checker.utility(instance, schedule) == pytest.approx(expected, rel=1e-12, abs=1e-15)
        feasible = brute_feasible(schedule, k)
        assert (not checker.feasibility_errors(instance, schedule, k)) == feasible
        if feasible:
            feasible_count += 1
            if len(schedule) == k:  # SES places exactly k events
                best = max(best, expected)
    assert feasible_count < len(all_schedules())  # the constraints bite
    assert best >= 0.0  # a feasible k-event schedule exists

    optimum = solver_registry.create("exact").solve(instance, k)
    assert checker.check_schedule(instance, optimum.schedule, k, optimum.utility) == pytest.approx(best, rel=1e-12)


def test_checker_rejects_each_violation() -> None:
    instance, *_ = tiny_instance(0, "dense")
    cases = {
        "scheduled twice": ([(2, 0), (2, 1)], 4),
        "exceed k": ([(0, 0), (2, 1)], 1),
        "location 0 used twice": ([(0, 0), (1, 0)], 4),
        "theta": ([(1, 1), (2, 1)], 4),
        "out of range": ([(N_EVENTS, 0)], 4),
    }
    for needle, (pairs, k) in cases.items():
        errors = checker.feasibility_errors(instance, pairs, k)
        assert any(needle in error for error in errors), (needle, errors)
        with pytest.raises(checker.CheckError):
            checker.check_schedule(instance, pairs, k, 0.0)


def test_checker_rejects_a_wrong_utility() -> None:
    instance, *_ = tiny_instance(1, "sparse")
    result = solver_registry.create("grd").solve(instance, 2)
    checker.check_schedule(instance, result.schedule, 2, result.utility)
    with pytest.raises(checker.CheckError):
        checker.check_schedule(instance, result.schedule, 2, result.utility * (1 + 1e-6))
