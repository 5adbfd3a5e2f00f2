"""The simulator against the reference engine it must agree with.

``reference_step`` is the slot loop written the plain way: it sorts the
whole active table after every slot, rebuilds a state for every selected
job (a finished one too) and looks every job up twice.  The reference
selections sort their candidates even when the budget takes all of them.
Every run must match the current engine in every field a ``SimulationRun``
carries.  Budgets at the EarlyFit peak ``b`` and at ``ceil(b/2)`` make
misses and doomed-job drops, where a slot loop that touches only the jobs
a slot changes is easiest to get wrong.
"""

import random
from contextlib import contextmanager

import pytest

from machmin import composite, engine, logn
from machmin.adversary import PROFILES, gen_random
from machmin.engine import (
    EDF,
    LLF,
    EarlyFit,
    MediumFit,
    NonpreemptiveEDF,
    ProtocolViolation,
    Simulation,
    edf_key,
    edf_nonpreemptive_step,
    edf_select,
    llf_key,
    llf_select,
    simulate,
)
from machmin.harness import POLICIES, run_policy
from machmin.model import Instance, Job, JobState, laxity


def reference_step(self) -> frozenset[int]:
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


def reference_edf_select(states, t, budget):
    if budget < 0:
        raise ValueError("budget must be non-negative")
    ranked = sorted(states, key=edf_key)
    return {s.job.id for s in ranked[:budget]}


def reference_llf_select(states, t, budget):
    if budget < 0:
        raise ValueError("budget must be non-negative")
    eligible = [s for s in states if laxity(s, t) >= 0]
    eligible.sort(key=lambda s: llf_key(s, t))
    return {s.job.id for s in eligible[:budget]}


def reference_edf_nonpreemptive_step(running, waiting, t, budget):
    keep = {s.job.id for s in running}
    if len(keep) > budget:
        raise ValueError("running set exceeds budget")
    ranked = sorted(waiting, key=edf_key)
    for state in ranked[: budget - len(keep)]:
        keep.add(state.job.id)
    return keep


REFERENCE_SELECTIONS = {
    "edf_select": reference_edf_select,
    "llf_select": reference_llf_select,
    "edf_nonpreemptive_step": reference_edf_nonpreemptive_step,
}


@contextmanager
def reference_engine():
    """Run everything inside on the reference step and selections, in every
    module that calls them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulation, "step", reference_step)
        for module in (engine, composite, logn):
            for name, fn in REFERENCE_SELECTIONS.items():
                if hasattr(module, name):
                    mp.setattr(module, name, fn)
        yield


def outcome(run):
    return {
        "slots": run.slots,
        "misses": run.misses,
        "machines_used": run.machines_used,
        "peak_concurrency": run.peak_concurrency,
        "peak_budget": run.peak_budget,
        "starts": run.starts,
        "extras": run.extras,
        "params": run.policy_params,
        "scale": run.scale,
    }


def both_engines(run):
    """``run()`` on the reference engine and on the current one."""
    with reference_engine():
        expected = outcome(run())
    return expected, outcome(run())


def long_sim_instance(n, seed):
    """Jobs drawn as the ``long_sim`` benchmark workload draws them."""
    rng = random.Random(seed)
    max_len = max(6, n // 10)
    jobs = []
    for i in range(n):
        r = rng.randrange(n)
        w = rng.randint(1, max_len)
        jobs.append(Job(i, r, r + w, rng.randint(1, w)))
    return Instance(jobs)


def base_runs(instance):
    """The five base policies, the budgeted ones at the EarlyFit peak b and
    at ceil(b/2); MediumFit on the 2-scaled instance when a laxity is odd."""
    b = simulate(instance, EarlyFit()).machines_used
    scale = 2 if any(job.laxity % 2 for job in instance.jobs) else 1
    runs = {
        "earlyfit": lambda: simulate(instance, EarlyFit()),
        "mediumfit": lambda: simulate(instance, MediumFit(), scale),
    }
    for k in (b, -(-b // 2)):
        for policy in (EDF, LLF, NonpreemptiveEDF):
            runs[f"{policy.name}@{k}"] = lambda p=policy, k=k: simulate(instance, p(k))
    return runs


SOURCES = {
    "long_sim": [long_sim_instance(n, seed) for n in (60, 120) for seed in range(3)],
    **{
        profile: [
            gen_random(profile, n, seed).instance for n in (8, 20) for seed in range(2)
        ]
        for profile in PROFILES
    },
}


@pytest.mark.parametrize("source", SOURCES)
def test_base_policies_match_the_reference_engine(source):
    for index, instance in enumerate(SOURCES[source]):
        for label, run in base_runs(instance).items():
            expected, got = both_engines(run)
            assert got == expected, (index, label)


def test_half_budgets_reach_misses_and_drops():
    """The runs above must exercise the miss and doomed-drop paths: at
    ceil(b/2) some jobs miss, and some missed job is still selected after
    its miss."""
    misses = selected_after_miss = 0
    for instance in SOURCES["long_sim"]:
        half = -(-simulate(instance, EarlyFit()).machines_used // 2)
        run = simulate(instance, EDF(half))
        misses += len(run.misses)
        selected_after_miss += sum(
            1 for j, t in run.misses for slot in run.slots[t:] if j in slot
        )
    assert misses > 0
    assert selected_after_miss > 0


# Each POLICIES entry on the profiles it serves; the base policies on all.
SERVES = {
    "agreeable-p": ("agreeable", "agreeable-loose", "agreeable-tight"),
    "agreeable-np": ("agreeable", "agreeable-loose", "agreeable-tight"),
    "equalp-semi": ("equal-p",),
    "equalp-online": ("equal-p",),
    "uniform-p": ("uniform-d", "uniform-loose", "uniform-tight"),
    "uniform-np": ("uniform-d", "uniform-loose", "uniform-tight"),
    "logn": ("general", "alpha-loose", "alpha-tight", "half-tight"),
}


@pytest.mark.parametrize("name", POLICIES)
def test_every_policy_matches_the_reference_engine(name):
    spec = POLICIES[name]
    forms = [False, True] if spec.online is not None else [False]
    for profile in SERVES.get(name, PROFILES):
        for n in (4, 8):
            for seed in range(2):
                generated = gen_random(profile, n, seed)
                machines = generated.m_opt if spec.needs == "machines" else None
                for online in forms:
                    m = generated.m_opt if spec.needs == "m" and not online else None
                    expected, got = both_engines(
                        lambda: run_policy(
                            name, generated.instance, m=m,
                            machines=machines, online=online,
                        )
                    )
                    assert got == expected, (profile, n, seed, online)


def test_selections_match_the_reference_selections():
    rng = random.Random(5)
    for _ in range(300):
        t = rng.randrange(6)
        jobs = []
        for i in range(rng.randrange(7)):
            r = rng.randrange(t + 1)
            w = rng.randint(1, 8)
            jobs.append(Job(i, r, r + w, rng.randint(1, w)))
        states = [JobState(job, rng.randint(1, job.processing)) for job in jobs]
        running = [s for s in states if rng.random() < 0.3]
        waiting = [s for s in states if s not in running]
        for budget in range(len(states) + 2):
            assert edf_select(iter(states), t, budget) == reference_edf_select(
                states, t, budget
            )
            assert llf_select(iter(states), t, budget) == reference_llf_select(
                states, t, budget
            )
            if budget >= len(running):
                assert edf_nonpreemptive_step(
                    iter(running), iter(waiting), t, budget
                ) == reference_edf_nonpreemptive_step(running, waiting, t, budget)
