import random
from fractions import Fraction

import pytest

from machmin.engine import (
    EDF,
    LLF,
    EarlyFit,
    MediumFit,
    NonpreemptiveEDF,
    OnlinePolicy,
    ProtocolViolation,
    Simulation,
    check_busy,
    check_load_inequality,
    early_fit,
    edf_nonpreemptive_step,
    edf_select,
    llf_select,
    medium_fit,
    simulate,
    work_remaining_trace,
)
from machmin.model import (
    Instance,
    Job,
    JobState,
    validate_nonpreemptive,
    validate_preemptive,
)
from machmin.optimum import ceil_frac, optimal_witness, optimum_preemptive


def states(*jobs_remaining):
    return [JobState(job, rem) for job, rem in jobs_remaining]


def test_edf_select_examples():
    a = Job(0, 0, 5, 1)
    b = Job(1, 0, 3, 1)
    c = Job(2, 0, 7, 1)
    ss = states((a, 1), (b, 1), (c, 1))
    assert edf_select(ss, 0, 2) == {1, 0}
    assert edf_select(ss, 0, 0) == set()
    # ties broken in favor of earlier release dates
    tie = states((Job(0, 1, 5, 1), 1), (Job(1, 0, 5, 1), 1))
    assert edf_select(tie, 1, 1) == {1}


def test_llf_select_examples():
    t = 0
    a = JobState(Job(0, 0, 10, 8), 8)  # laxity 2
    b = JobState(Job(1, 0, 10, 10), 10)  # laxity 0
    c = JobState(Job(2, 0, 10, 9), 9)  # laxity 1
    assert llf_select([a, b, c], t, 2) == {1, 2}
    doomed = JobState(Job(3, 0, 4, 4), 4)  # laxity -1 at t=1
    fine = JobState(Job(4, 0, 10, 7), 7)
    assert llf_select([doomed, fine], 1, 2) == {4}
    equal = states((Job(0, 0, 6, 3), 3), (Job(1, 0, 6, 3), 3), (Job(2, 0, 6, 3), 3))
    assert llf_select(equal, 0, 2) == {0, 1}


def test_simulate_trivial():
    run = simulate(Instance([Job(0, 0, 2, 1)]), EDF(1))
    assert run.first_miss is None
    assert run.machines_used == 1

    run = simulate(Instance([Job(0, 0, 1, 1), Job(1, 0, 1, 1)]), EDF(1))
    assert run.first_miss == (1, 1)


def test_llf_uniform_deadline_feasible_no_miss():
    rng = random.Random(2)
    for _ in range(20):
        d = rng.randint(4, 12)
        jobs = []
        for i in range(rng.randint(1, 6)):
            p = rng.randint(1, d)
            r = rng.randrange(0, d - p + 1)
            jobs.append(Job(i, r, d, p))
        inst = Instance(jobs)
        m = optimum_preemptive(inst)
        run = simulate(inst, LLF(m))
        assert run.first_miss is None
        assert run.peak_concurrency <= m


def test_run_replay_reproduces_verdict():
    rng = random.Random(4)
    for _ in range(20):
        jobs = []
        for i in range(rng.randint(1, 5)):
            r = rng.randrange(0, 6)
            d = r + rng.randint(1, 6)
            p = rng.randint(1, d - r)
            jobs.append(Job(i, r, d, p))
        inst = Instance(jobs)
        budget = rng.randint(1, 3)
        run = simulate(inst, EDF(budget))
        report = validate_preemptive(inst, run.to_preemptive_schedule())
        assert report.feasible == (run.first_miss is None)


def test_laxity_step_invariant():
    # laxity drops by exactly 1 in slots where an active job is idle and
    # stays constant where it is processed
    inst = Instance([Job(0, 0, 8, 3), Job(1, 0, 8, 5), Job(2, 2, 8, 2)])
    run = simulate(inst, EDF(1))
    remaining = {j.id: j.processing for j in inst.jobs}
    for t, processed in enumerate(run.slots):
        for job in inst.jobs:
            if job.release <= t < job.deadline and remaining[job.id] > 0:
                before = job.deadline - t - remaining[job.id]
                after_rem = remaining[job.id] - (1 if job.id in processed else 0)
                after = job.deadline - (t + 1) - after_rem
                if job.id in processed:
                    assert after == before
                else:
                    assert after == before - 1
        for j in processed:
            remaining[j] -= 1


def test_early_fit():
    assert early_fit(Job(0, 3, 9, 4)) == 3
    run = simulate(Instance([Job(0, 3, 9, 4)]), EarlyFit())
    assert run.slots[3:7] == (
        frozenset({0}),
        frozenset({0}),
        frozenset({0}),
        frozenset({0}),
    )
    assert run.starts == {0: 3}


def test_medium_fit():
    assert medium_fit(Job(0, 0, 10, 4)) == 3
    assert medium_fit(Job(0, 0, 5, 5)) == 0
    with pytest.raises(ValueError, match="odd"):
        medium_fit(Job(0, 0, 5, 2))
    run = simulate(Instance([Job(0, 0, 10, 4)]), MediumFit())
    assert run.starts == {0: 3}
    assert validate_nonpreemptive(run.instance, run.to_nonpreemptive_schedule()).feasible


def test_edf_nonpreemptive_step_examples():
    a = JobState(Job(0, 0, 9, 3), 2)
    b = JobState(Job(1, 0, 4, 1), 1)
    c = JobState(Job(2, 0, 3, 1), 1)
    assert edf_nonpreemptive_step([a], [b, c], 1, 2) == {0, 2}
    assert edf_nonpreemptive_step([a], [b, c], 1, 1) == {0}


def test_nonpreemptive_edf_policy_never_preempts():
    rng = random.Random(9)
    for _ in range(20):
        jobs = []
        for i in range(rng.randint(1, 5)):
            r = rng.randrange(0, 5)
            d = r + rng.randint(2, 8)
            p = rng.randint(1, d - r)
            jobs.append(Job(i, r, d, p))
        inst = Instance(jobs)
        policy = NonpreemptiveEDF(2)
        run = simulate(inst, policy)
        # every started job runs in consecutive slots from its start
        for j, s in run.starts.items():
            p = inst.by_id[j].processing
            span = [t for t, ids in enumerate(run.slots) if j in ids]
            if run.first_miss is None:
                assert span == list(range(s, s + p))


def test_check_busy():
    inst = Instance([Job(0, 0, 6, 2), Job(1, 0, 6, 2), Job(2, 0, 6, 2)])
    run = simulate(inst, EDF(2))
    assert check_busy(run, 2)
    run = simulate(inst, LLF(2))
    assert check_busy(run, 2)

    class Idler(OnlinePolicy):
        name = "idler"

        def select(self, t, active):
            ids = sorted(active)
            return set(ids[:1])

    run = simulate(inst, Idler())
    assert not check_busy(run, 2)


def test_protocol_violation():
    class Cheater(OnlinePolicy):
        name = "cheater"

        def select(self, t, active):
            return {99}

    with pytest.raises(ProtocolViolation):
        simulate(Instance([Job(0, 0, 2, 1)]), Cheater())


def test_determinism():
    rng = random.Random(21)
    jobs = []
    for i in range(8):
        r = rng.randrange(0, 6)
        d = r + rng.randint(1, 8)
        p = rng.randint(1, d - r)
        jobs.append(Job(i, r, d, p))
    inst = Instance(jobs)
    a = simulate(inst, LLF(2))
    b = simulate(inst, LLF(2))
    assert a.slots == b.slots
    assert a.misses == b.misses


def test_work_remaining_trace():
    inst = Instance([Job(0, 0, 3, 2)])
    run = simulate(inst, EDF(1))
    assert work_remaining_trace(inst, run.slots, 3) == [2, 1, 0, 0]


def loose_instance(rng, n, alpha):
    jobs = []
    denom = alpha.denominator
    for i in range(n):
        r = rng.randrange(0, 10)
        w = rng.randint(denom, 4 * denom)
        p_max = (alpha * w).numerator // (alpha * w).denominator
        p = rng.randint(1, max(1, p_max))
        jobs.append(Job(i, r, r + w, p))
    return Instance(jobs)


@pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)])
def test_loose_edf_bound_and_load_inequality_smoke(alpha):
    rng = random.Random(int(alpha * 12))
    for _ in range(15):
        inst = loose_instance(rng, rng.randint(1, 6), alpha)
        m, witness = optimal_witness(inst)
        budget = ceil_frac(Fraction(m) / (1 - alpha) ** 2)
        run = simulate(inst, EDF(budget))
        assert run.first_miss is None
        ok, violation = check_load_inequality(run, witness, m, alpha)
        assert ok, violation


def test_interactive_simulation_rejects_past_releases():
    sim = Simulation(EDF(1))
    sim.add_jobs([Job(0, 0, 3, 1)])
    sim.step()
    with pytest.raises(ValueError):
        sim.add_jobs([Job(1, 0, 3, 1)])


def test_add_jobs_rejects_duplicate_ids():
    sim = Simulation(EDF(1))
    with pytest.raises(ValueError, match="duplicate job id 0"):
        sim.add_jobs([Job(0, 0, 3, 1), Job(0, 1, 4, 1)])  # within one batch
    assert sim.idle  # a rejected batch adds nothing
    sim.add_jobs([Job(0, 1, 3, 1)])
    with pytest.raises(ValueError, match="duplicate job id 0"):
        sim.add_jobs([Job(0, 2, 4, 1)])  # against a pending job
    sim.run_until(3)
    assert sim.slots == [frozenset(), frozenset({0})] and sim.idle
    with pytest.raises(ValueError, match="duplicate job id 0"):
        sim.add_jobs([Job(0, 2, 4, 1)])  # against a finished job


def test_peak_budget_tracking():
    inst = Instance([Job(0, 0, 4, 2), Job(1, 0, 4, 2)])
    run = simulate(inst, EDF(3))
    assert run.peak_budget == 3  # the configured budget, even if unused
    assert run.peak_concurrency == 2
    run = simulate(inst, EarlyFit())
    assert run.peak_budget == 2  # unbudgeted: falls back to concurrency
