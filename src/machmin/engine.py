"""Deterministic online simulation loop and the base scheduling policies.

A policy sees, at each integer time, exactly the newly released jobs and the
states of its own active jobs; it answers with the set of job ids to run in
``[t, t+1)``.  The simulator applies one unit of work per selected job,
records misses the moment a job's laxity turns negative, and keeps going
(the doomed job is dropped at its deadline) so that full traces remain
meaningful after a miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .model import (
    Instance,
    Job,
    JobState,
    NonpreemptiveSchedule,
    PreemptiveSchedule,
    laxity,
)

__all__ = [
    "ProtocolViolation",
    "OnlinePolicy",
    "merge_starts",
    "SimulationRun",
    "Simulation",
    "simulate",
    "edf_select",
    "llf_select",
    "edf_nonpreemptive_step",
    "early_fit",
    "medium_fit",
    "EDF",
    "LLF",
    "EarlyFit",
    "MediumFit",
    "NonpreemptiveEDF",
    "check_busy",
    "work_remaining_trace",
    "check_load_inequality",
]


class ProtocolViolation(RuntimeError):
    """A policy selected a job it is not allowed to process."""


def edf_key(state: JobState) -> tuple[int, int, int]:
    """Canonical priority: deadline, then release, then id."""
    return (state.job.deadline, state.job.release, state.job.id)


def llf_key(state: JobState, t: int) -> tuple[int, int, int]:
    return (laxity(state, t), state.job.release, state.job.id)


def edf_select(states: Iterable[JobState], t: int, budget: int) -> set[int]:
    """The ``budget`` jobs with smallest (deadline, release, id)."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    ranked = sorted(states, key=edf_key)
    return {s.job.id for s in ranked[:budget]}


def llf_select(states: Iterable[JobState], t: int, budget: int) -> set[int]:
    """The ``budget`` jobs with smallest non-negative laxity.

    Negative-laxity jobs are never selected; they cannot finish anyway.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    eligible = [s for s in states if laxity(s, t) >= 0]
    eligible.sort(key=lambda s: llf_key(s, t))
    return {s.job.id for s in eligible[:budget]}


def early_fit(job: Job) -> int:
    """EarlyFit committed start: the release date."""
    return job.release


def medium_fit(job: Job) -> int:
    """MediumFit committed start: centered, leaving half the laxity on each
    side.  Requires even laxity; feed a 2-scaled instance otherwise.
    """
    if job.laxity % 2:
        raise ValueError(
            f"job {job.id}: laxity {job.laxity} is odd; scale the instance by 2"
        )
    return job.release + job.laxity // 2


def edf_nonpreemptive_step(
    running: Iterable[JobState],
    waiting: Iterable[JobState],
    t: int,
    budget: int,
) -> set[int]:
    """Non-preemptive EDF: everything running continues; spare budget is
    filled with the earliest-deadline waiting jobs.
    """
    keep = {s.job.id for s in running}
    if len(keep) > budget:
        raise ValueError("running set exceeds budget")
    ranked = sorted(waiting, key=edf_key)
    for state in ranked[: budget - len(keep)]:
        keep.add(state.job.id)
    return keep


class OnlinePolicy:
    """Behavioral contract for online schedulers.

    Subclasses implement ``select``; ``on_release`` is optional.  The
    ``active`` view passed to ``select`` holds exactly what the policy could
    reconstruct from its own processing history, so it leaks no information
    a genuine online algorithm would lack.

    A run reports two things once, when ``Simulation.finish`` closes it:
    ``starts()`` is the committed start of every job the policy ran, or None
    when it runs some job without committing one (a preemptive policy, or a
    composite with a preemptive part); ``extras()`` holds the policy's
    diagnostics in their final state.  A policy that commits a start for
    every job it runs records them in ``_starts``.
    """

    name = "policy"
    _starts: dict[int, int] | None = None

    def on_release(self, jobs: Sequence[Job], t: int) -> None:
        pass

    def select(self, t: int, active: Mapping[int, JobState]) -> set[int]:
        raise NotImplementedError

    def machines_used(self) -> int | None:
        """Machine accounting after a run; None means the engine's peak
        concurrency is the right number."""
        return None

    def current_budget(self) -> int | None:
        """Machines the policy is holding open right now, where that is a
        meaningful notion; None for unbudgeted policies."""
        return None

    def params(self) -> dict:
        return {}

    def starts(self) -> Mapping[int, int] | None:
        return self._starts

    def extras(self) -> dict:
        return {}


def merge_starts(policies: Iterable[OnlinePolicy]) -> dict[int, int] | None:
    """Starts of sub-policies that run disjoint job sets; None unless every
    one of them commits starts."""
    parts = [policy.starts() for policy in policies]
    if any(part is None for part in parts):
        return None
    return {j: start for part in parts for j, start in part.items()}


class EDF(OnlinePolicy):
    name = "edf"

    def __init__(self, machines: int):
        self.machines = machines

    def current_budget(self) -> int:
        return self.machines

    def select(self, t: int, active: Mapping[int, JobState]) -> set[int]:
        return edf_select(active.values(), t, self.machines)

    def params(self) -> dict:
        return {"machines": self.machines}


class LLF(OnlinePolicy):
    name = "llf"

    def __init__(self, machines: int):
        self.machines = machines

    def current_budget(self) -> int:
        return self.machines

    def select(self, t: int, active: Mapping[int, JobState]) -> set[int]:
        return llf_select(active.values(), t, self.machines)

    def params(self) -> dict:
        return {"machines": self.machines}


class EarlyFit(OnlinePolicy):
    """Start every job the moment it is released; machine count is whatever
    peak overlap results."""

    name = "earlyfit"

    def __init__(self):
        self._starts: dict[int, int] = {}

    def on_release(self, jobs: Sequence[Job], t: int) -> None:
        for job in jobs:
            self._starts[job.id] = early_fit(job)

    def select(self, t: int, active: Mapping[int, JobState]) -> set[int]:
        return {j for j, s in active.items() if self._starts[j] <= t}


class MediumFit(OnlinePolicy):
    """Run each job in the medium part of its window: start at
    ``release + laxity/2``."""

    name = "mediumfit"

    def __init__(self):
        self._starts: dict[int, int] = {}

    def on_release(self, jobs: Sequence[Job], t: int) -> None:
        for job in jobs:
            self._starts[job.id] = medium_fit(job)

    def select(self, t: int, active: Mapping[int, JobState]) -> set[int]:
        return {j for j, s in active.items() if self._starts[j] <= t}


class NonpreemptiveEDF(OnlinePolicy):
    name = "edf-np"

    def __init__(self, machines: int):
        self.machines = machines
        self._starts: dict[int, int] = {}
        self._running: set[int] = set()

    def current_budget(self) -> int:
        return self.machines

    def select(self, t: int, active: Mapping[int, JobState]) -> set[int]:
        self._running &= active.keys()
        waiting = [s for j, s in active.items() if j not in self._running]
        chosen = edf_nonpreemptive_step(
            [active[j] for j in self._running], waiting, t, self.machines
        )
        for j in chosen - self._running:
            self._starts[j] = t
        self._running = chosen
        return set(chosen)

    def params(self) -> dict:
        return {"machines": self.machines}


@dataclass(frozen=True)
class SimulationRun:
    """Event-ordered outcome of one policy on one instance."""

    instance: Instance
    policy_name: str
    policy_params: tuple[tuple[str, object], ...]
    slots: tuple[frozenset[int], ...]
    misses: tuple[tuple[int, int], ...]  # (job id, time laxity went negative)
    machines_used: int
    peak_concurrency: int
    peak_budget: int
    starts: Mapping[int, int] | None = None  # see OnlinePolicy
    extras: Mapping[str, object] = field(default_factory=dict)

    @property
    def first_miss(self) -> tuple[int, int] | None:
        return self.misses[0] if self.misses else None

    def to_preemptive_schedule(self) -> PreemptiveSchedule:
        return PreemptiveSchedule(
            {t: ids for t, ids in enumerate(self.slots) if ids}
        )

    def to_nonpreemptive_schedule(self) -> NonpreemptiveSchedule:
        if self.starts is None:
            raise ValueError("run has no committed starts")
        return NonpreemptiveSchedule(self.starts)


class Simulation:
    """Stepping simulator.  ``simulate`` drives it over a whole instance; the
    adversary game drives it interactively, injecting releases as it goes.

    ``jobs`` holds every job ever added, released or not; ``active`` holds
    the state of every released job that is neither finished nor dropped.
    """

    def __init__(self, policy: OnlinePolicy):
        self.policy = policy
        self.t = 0
        self.jobs: dict[int, Job] = {}
        self.active: dict[int, JobState] = {}
        self._pending: list[Job] = []  # sorted by (release, id), consumed from the back
        self.slots: list[frozenset[int]] = []
        self.misses: list[tuple[int, int]] = []
        self._missed: set[int] = set()
        self.peak_concurrency = 0
        self.peak_budget = 0

    def add_jobs(self, jobs: Iterable[Job]) -> None:
        """Queue jobs for release; a batch with any bad job adds none."""
        batch: dict[int, Job] = {}
        for job in jobs:
            if job.release < self.t:
                raise ValueError(
                    f"job {job.id} released at {job.release}, before current "
                    f"time {self.t}"
                )
            if job.id in self.jobs or job.id in batch:
                raise ValueError(f"duplicate job id {job.id}")
            batch[job.id] = job
        self.jobs.update(batch)
        self._pending.extend(batch.values())
        self._pending.sort(key=lambda j: (j.release, j.id), reverse=True)

    @property
    def idle(self) -> bool:
        return not self.active and not self._pending

    def total_remaining(self, due_by: int | None = None) -> int:
        """Remaining work over active jobs, optionally only those due by a
        deadline.  Pending (unreleased) jobs are not counted."""
        return sum(
            state.remaining
            for state in self.active.values()
            if due_by is None or state.job.deadline <= due_by
        )

    def step(self) -> frozenset[int]:
        t = self.t
        active = self.active
        released = []
        while self._pending and self._pending[-1].release == t:
            job = self._pending.pop()
            released.append(job)
            active[job.id] = JobState(job, job.processing)
        if released:
            self.policy.on_release(released, t)
        selected = set(self.policy.select(t, dict(active)))
        for j in selected:
            if j not in active:
                raise ProtocolViolation(
                    f"policy {self.policy.name!r} selected job {j} at t={t}, "
                    "which is not active"
                )
        for j in selected:
            active[j] = JobState(active[j].job, active[j].remaining - 1)
        self.peak_concurrency = max(self.peak_concurrency, len(selected))
        budget = self.policy.current_budget()
        self.peak_budget = max(
            self.peak_budget, len(selected) if budget is None else budget
        )
        self.slots.append(frozenset(selected))
        self.t = t + 1
        for j in sorted(active):
            job, rem = active[j].job, active[j].remaining
            if rem == 0:
                del active[j]
                continue
            if job.deadline - self.t - rem < 0 and j not in self._missed:
                self._missed.add(j)
                self.misses.append((j, self.t))
            if job.deadline <= self.t:
                del active[j]  # doomed job dropped at its deadline
        return self.slots[-1]

    def run_until(self, horizon: int) -> None:
        while self.t < horizon:
            if self.idle:
                break
            self.step()

    def finish(self, instance: Instance) -> SimulationRun:
        machines = self.policy.machines_used()
        starts = self.policy.starts()
        return SimulationRun(
            instance=instance,
            policy_name=self.policy.name,
            policy_params=tuple(sorted(self.policy.params().items())),
            slots=tuple(self.slots),
            misses=tuple(self.misses),
            machines_used=machines if machines is not None else self.peak_concurrency,
            peak_concurrency=self.peak_concurrency,
            peak_budget=self.peak_budget,
            starts=dict(starts) if starts else None,
            extras=self.policy.extras(),
        )


def simulate(instance: Instance, policy: OnlinePolicy) -> SimulationRun:
    """Run a policy over a full instance, stepping t = 0 .. d_max - 1."""
    sim = Simulation(policy)
    sim.add_jobs(instance.jobs)
    sim.run_until(instance.d_max)
    return sim.finish(instance)


def check_busy(run: SimulationRun, budget: int) -> bool:
    """True iff at every step either the whole budget is used or every
    active job with non-negative laxity is being processed."""
    remaining = {job.id: job.processing for job in run.instance.jobs}
    for t, processed in enumerate(run.slots):
        if len(processed) < budget:
            for job in run.instance.jobs:
                rem = remaining[job.id]
                if (
                    job.release <= t < job.deadline
                    and rem > 0
                    and job.deadline - t - rem >= 0
                    and job.id not in processed
                ):
                    return False
        for j in processed:
            remaining[j] -= 1
    return True


def work_remaining_trace(
    instance: Instance, slots: Sequence[frozenset[int]], horizon: int
) -> list[int]:
    """W(t) for t = 0..horizon: total remaining work of unfinished jobs,
    including those not yet released, before the step at t."""
    total = instance.total_work
    out = [total]
    for t in range(horizon):
        done = len(slots[t]) if t < len(slots) else 0
        total -= done
        out.append(total)
    return out


def check_load_inequality(
    run: SimulationRun,
    opt_schedule: PreemptiveSchedule,
    m: int,
    alpha: Fraction,
) -> tuple[bool, tuple[int, int, int] | None]:
    """Verify, at every step before the first miss, the busy-algorithm load
    inequality for all-loose instances:

        W_A(t) <= W_OPT(t) + alpha/(1-alpha) * m * (d_max - t).

    Returns (ok, first violation as (t, W_A(t), W_OPT(t)) or None).
    """
    instance = run.instance
    horizon = instance.d_max
    # the inequality's hypothesis is "no miss up to t": stop at the miss
    end = run.first_miss[1] if run.first_miss else horizon + 1
    w_a = work_remaining_trace(instance, run.slots, horizon)
    opt_slots = [
        frozenset(opt_schedule.assignments.get(t, frozenset()))
        for t in range(horizon)
    ]
    w_opt = work_remaining_trace(instance, opt_slots, horizon)
    coeff = alpha / (1 - alpha) * m
    for t in range(min(end, horizon + 1)):
        bound = Fraction(w_opt[t]) + coeff * (instance.d_max - t)
        if Fraction(w_a[t]) > bound:
            return False, (t, w_a[t], w_opt[t])
    return True, None
