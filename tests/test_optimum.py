import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from machmin.model import Instance, Job, validate_preemptive
from machmin.optimum import (
    FLOW_WORK_LIMIT,
    EnumerationCapExceeded,
    IntervalSet,
    ceil_frac,
    check_strong_density_theorem,
    contribution,
    density_equal_p,
    feasible_preemptive,
    is_feasible_preemptive,
    min_machines,
    optimal_witness,
    optimum_nonpreemptive_exact,
    optimum_preemptive,
    strong_density_exact,
    strong_density_witness,
)


# ---------------------------------------------------------------------------
# Independent oracles (deliberately dumb and slow).
# ---------------------------------------------------------------------------


def brute_force_feasible(instance: Instance, m: int) -> bool:
    """Exhaustive slot-assignment search: for each job choose which slots of
    its window it occupies, and check per-slot concurrency."""

    def rec(idx, counts):
        if idx == len(instance.jobs):
            return True
        job = instance.jobs[idx]
        window = range(job.release, job.deadline)
        for combo in itertools.combinations(window, job.processing):
            if all(counts.get(t, 0) < m for t in combo):
                for t in combo:
                    counts[t] = counts.get(t, 0) + 1
                if rec(idx + 1, counts):
                    return True
                for t in combo:
                    counts[t] -= 1
        return False

    return rec(0, {})


def brute_force_optimum(instance: Instance) -> int:
    for m in range(1, instance.n + 1):
        if brute_force_feasible(instance, m):
            return m
    raise AssertionError("unreachable: n machines always suffice")


def brute_force_strong_density(instance: Instance) -> Fraction:
    slots = sorted(
        {t for j in instance.jobs for t in range(j.release, j.deadline)}
    )
    best = Fraction(0)
    for size in range(1, len(slots) + 1):
        for chosen in itertools.combinations(slots, size):
            iset = IntervalSet.from_slots(chosen)
            total = sum(contribution(j, iset) for j in instance.jobs)
            best = max(best, Fraction(total, iset.length))
    return best


def brute_force_nonpreemptive(instance: Instance) -> int:
    best = instance.n
    ranges = [range(j.release, j.deadline - j.processing + 1) for j in instance.jobs]
    for starts in itertools.product(*ranges):
        peak = 0
        for t in range(instance.d_max):
            peak = max(
                peak,
                sum(
                    1
                    for job, s in zip(instance.jobs, starts)
                    if s <= t < s + job.processing
                ),
            )
        best = min(best, peak)
    return best


def random_instance(rng, n, d_max):
    jobs = []
    for i in range(n):
        r = rng.randrange(0, d_max - 1)
        d = rng.randrange(r + 1, d_max + 1)
        p = rng.randint(1, d - r)
        jobs.append(Job(i, r, d, p))
    return Instance(jobs)


# ---------------------------------------------------------------------------
# Flow feasibility and the preemptive optimum.
# ---------------------------------------------------------------------------


def test_feasible_trivial_cases():
    assert feasible_preemptive(Instance([Job(0, 0, 2, 1)]), 1).feasible
    assert not feasible_preemptive(
        Instance([Job(0, 0, 1, 1), Job(1, 0, 1, 1)]), 1
    ).feasible


def test_feasible_derived_example():
    inst = Instance([Job(0, 0, 3, 2), Job(1, 0, 3, 2), Job(2, 1, 3, 1)])
    assert brute_force_feasible(inst, 2)  # oracle first
    result = feasible_preemptive(inst, 2)
    assert result.feasible
    report = validate_preemptive(inst, result.witness)
    assert report.feasible and report.machines_used <= 2


def test_optimum_examples():
    assert optimum_preemptive(Instance([Job(0, 0, 2, 1)])) == 1

    inst = Instance([Job(0, 0, 2, 2), Job(1, 0, 2, 2), Job(2, 1, 3, 2)])
    assert not brute_force_feasible(inst, 2)
    assert optimum_preemptive(inst) == 3

    four = Instance([Job(i, 0, 4, 2) for i in range(4)])
    assert brute_force_optimum(four) == 2
    assert optimum_preemptive(four) == 2


def test_witness_always_validates():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 6), rng.randint(3, 10))
        m, witness = optimal_witness(inst)
        report = validate_preemptive(inst, witness)
        assert report.feasible
        assert report.machines_used <= m


def test_optimum_matches_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 5), rng.randint(3, 8))
        assert optimum_preemptive(inst) == brute_force_optimum(inst)


def test_witness_is_deterministic():
    rng = random.Random(3)
    inst = random_instance(rng, 6, 12)
    a = feasible_preemptive(inst, optimum_preemptive(inst)).witness
    b = feasible_preemptive(inst, optimum_preemptive(inst)).witness
    assert a.assignments == b.assignments


@st.composite
def job_lists(draw):
    jobs = []
    for i in range(draw(st.integers(0, 9))):
        r = draw(st.integers(0, 12))
        w = draw(st.integers(1, 8))
        jobs.append(Job(i, r, r + w, draw(st.integers(1, w))))
    return jobs


@settings(max_examples=150, deadline=None)
@given(jobs=job_lists(), lower=st.integers(-2, 12))
def test_min_machines_is_first_feasible_count(jobs, lower):
    # the reference: scan upward one machine count at a time
    instance = Instance(jobs)
    m = max(lower, 1)
    while not is_feasible_preemptive(instance, m):
        m += 1
    assert min_machines(jobs, lower) == m


@pytest.mark.parametrize("bits", [30, 31, 40])
def test_optimum_exact_at_large_windows(bits):
    # an unclamped capacity of 2^bits does not fit scipy's int32 arithmetic
    inst = Instance([Job(i, 0, 2**bits, 5) for i in range(3)])
    assert is_feasible_preemptive(inst, 1)
    assert optimum_preemptive(inst) == 1


def test_total_work_at_the_flow_limit_raises():
    fits = Instance([Job(0, 0, 2**31, FLOW_WORK_LIMIT - 2), Job(1, 0, 2**31, 1)])
    assert optimum_preemptive(fits) == 1
    over = Instance([Job(0, 0, 2**31, FLOW_WORK_LIMIT - 1), Job(1, 0, 2**31, 1)])
    with pytest.raises(EnumerationCapExceeded, match="32 bits"):
        optimum_preemptive(over)
    with pytest.raises(EnumerationCapExceeded):
        is_feasible_preemptive(over, 1)


# ---------------------------------------------------------------------------
# Contribution and strong density.
# ---------------------------------------------------------------------------


def test_contribution_examples():
    assert contribution(Job(0, 0, 4, 3), IntervalSet([(0, 4)])) == 3
    assert contribution(Job(0, 0, 10, 2), IntervalSet([(0, 4)])) == 0
    assert contribution(Job(0, 0, 6, 4), IntervalSet([(0, 2), (4, 6)])) == 2


def test_interval_set_invariants():
    with pytest.raises(ValueError):
        IntervalSet([(0, 2), (1, 3)])
    with pytest.raises(ValueError):
        IntervalSet([(2, 2)])
    assert IntervalSet.from_slots([0, 1, 3]).intervals == ((0, 2), (3, 4))


def test_strong_density_examples():
    assert strong_density_exact(Instance([Job(0, 0, 2, 2), Job(1, 0, 2, 2)])) == 2
    assert strong_density_exact(Instance([Job(0, 0, 4, 1)])) == Fraction(1, 4)
    # The slot subset {[1,2]} collects one mandatory unit from each of the
    # three zero-laxity jobs, so the maximum ratio is 3 (not the 5/2 that the
    # two-slot set [0,2] yields).  The brute-force oracle agrees.
    inst = Instance([Job(0, 0, 2, 2), Job(1, 0, 2, 2), Job(2, 1, 3, 2)])
    assert brute_force_strong_density(inst) == 3
    assert strong_density_exact(inst) == 3
    value, iset = strong_density_witness(inst)
    assert value == 3
    assert sum(contribution(j, iset) for j in inst.jobs) == 3 * iset.length


def test_strong_density_matches_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 5), rng.randint(2, 7))
        assert strong_density_exact(inst) == brute_force_strong_density(inst)


def test_strong_density_cap():
    inst = Instance([Job(0, 0, 30, 1)])
    with pytest.raises(EnumerationCapExceeded):
        strong_density_exact(inst, slot_cap=20)


def test_strong_density_theorem_examples():
    inst = Instance([Job(0, 0, 2, 2), Job(1, 0, 2, 2), Job(2, 1, 3, 2)])
    assert check_strong_density_theorem(inst)
    assert check_strong_density_theorem(Instance([Job(0, 0, 2, 1)]))


def test_lower_bound_soundness_random_interval_sets():
    # ceil(total contribution / length) <= preemptive optimum, for any set
    rng = random.Random(13)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(1, 6), rng.randint(3, 10))
        opt = optimum_preemptive(inst)
        slots = sorted(
            {t for j in inst.jobs for t in range(j.release, j.deadline)}
        )
        for _ in range(10):
            chosen = rng.sample(slots, rng.randint(1, len(slots)))
            iset = IntervalSet.from_slots(chosen)
            total = sum(contribution(j, iset) for j in inst.jobs)
            assert ceil_frac(Fraction(total, iset.length)) <= opt


# ---------------------------------------------------------------------------
# Exact non-preemptive optimum.
# ---------------------------------------------------------------------------


def test_nonpreemptive_examples():
    assert optimum_nonpreemptive_exact(
        Instance([Job(0, 0, 2, 2), Job(1, 0, 2, 2)])
    ) == 2
    assert optimum_nonpreemptive_exact(
        Instance([Job(0, 0, 4, 2), Job(1, 0, 4, 2)])
    ) == 1
    inst = Instance([Job(i, 0, 3, 2) for i in range(3)])
    assert brute_force_nonpreemptive(inst) == 3
    assert optimum_nonpreemptive_exact(inst) == 3


def test_nonpreemptive_matches_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(1, 4), rng.randint(2, 7))
        assert optimum_nonpreemptive_exact(inst) == brute_force_nonpreemptive(inst)


def test_nonpreemptive_cap():
    inst = Instance([Job(i, 0, 40, 1) for i in range(13)])
    with pytest.raises(EnumerationCapExceeded):
        optimum_nonpreemptive_exact(inst, cap=12)


def test_preemptive_leq_nonpreemptive():
    rng = random.Random(19)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(1, 5), rng.randint(2, 8))
        assert optimum_preemptive(inst) <= optimum_nonpreemptive_exact(inst)


# ---------------------------------------------------------------------------
# Equal-p density.
# ---------------------------------------------------------------------------


def test_density_equal_p_examples():
    assert density_equal_p([Job(0, 0, 2, 2), Job(1, 0, 2, 2)], 2) == 2
    assert density_equal_p([Job(0, 0, 4, 2)], 2) == Fraction(1, 2)
    jobs = [Job(0, 0, 4, 2), Job(1, 1, 3, 2), Job(2, 1, 3, 2)]
    assert density_equal_p(jobs, 2) == 2
    with pytest.raises(ValueError):
        density_equal_p([Job(0, 0, 4, 3)], 2)


def test_density_is_lower_bound_on_optimum():
    rng = random.Random(23)
    for _ in range(30):
        p = rng.randint(1, 3)
        jobs = []
        for i in range(rng.randint(1, 6)):
            r = rng.randrange(0, 8)
            d = r + p + rng.randrange(0, 5)
            jobs.append(Job(i, r, d, p))
        inst = Instance(jobs)
        assert density_equal_p(jobs, p) <= optimum_preemptive(inst)


def test_flow_network_structure():
    from machmin.optimum import FlowNetwork

    inst = Instance([Job(0, 0, 3, 2), Job(1, 1, 5, 1)])
    net = FlowNetwork.build(inst)
    # segments are the maximal runs between window breakpoints
    assert net.segments == ((0, 1), (1, 3), (3, 5))
    # a job feeds exactly the segments inside its window, one unit of
    # capacity per covered slot
    arcs = {(ji, si): cap for ji, si, cap in net.job_arcs}
    assert arcs == {(0, 0): 1, (0, 1): 2, (1, 1): 2, (1, 2): 2}
    value, _flow = net.solve(2)
    assert value == inst.total_work
