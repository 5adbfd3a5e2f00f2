import contextlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from machmin.adversary import gen_random
from machmin.model import Instance, Job, scale_instance, validate_preemptive
from machmin.optimum import (
    FLOW_WORK_LIMIT,
    RunningOptimum,
    _cut_shares,
    _spread_segment,
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
    # on small and large sets: the witness at the optimum, which the scipy
    # reference gives, validates within m machines, and m - 1 is refused
    rng = random.Random(7)
    small = [
        random_instance(rng, rng.randint(1, 6), rng.randint(3, 10)) for _ in range(60)
    ]
    large = [gen_random("general", n, n).instance for n in range(36, 48)]
    for inst in small + large:
        m, witness = optimal_witness(inst)
        assert m == reference_min_machines(inst.jobs, 1)
        report = validate_preemptive(inst, witness)
        assert report.feasible
        assert report.machines_used <= m
        if m > 1:
            assert not feasible_preemptive(inst, m - 1).feasible


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
    # the reference: scan upward one machine count at a time, each solved
    # by scipy (scipy_fits); the running flow's verdicts agree on both sides
    # of the count
    instance = Instance(jobs)
    m = max(lower, 1)
    while not scipy_fits(instance, m):
        m += 1
    assert min_machines(jobs, lower) == m
    assert is_feasible_preemptive(instance, m)
    if m > max(lower, 1):
        assert not is_feasible_preemptive(instance, m - 1)


@pytest.mark.parametrize("bits", [30, 31, 40])
def test_optimum_exact_at_large_windows(bits):
    # capacities of 2^bits, past int32, are exact on Python integers
    inst = Instance([Job(i, 0, 2**bits, 5) for i in range(3)])
    assert is_feasible_preemptive(inst, 1)
    assert optimum_preemptive(inst) == 1


def test_witness_at_a_large_window():
    # the packing touches only the occupied slots, not the whole window
    inst = Instance([Job(i, 0, 2**40, 5) for i in range(3)])
    m, witness = optimal_witness(inst)
    assert m == 1
    assert validate_preemptive(inst, witness).feasible
    assert witness.machines_used == 1


def _least_loaded_spread(a, b, amounts):
    """Reference packing: each job takes its f least-loaded slots of [a, b),
    earliest slot on ties."""
    load = [0] * (b - a)
    slots = {}
    for job_id, f in amounts:
        for i in sorted(range(b - a), key=lambda i: (load[i], i))[:f]:
            load[i] += 1
            slots.setdefault(a + i, set()).add(job_id)
    return slots


def test_wrap_around_packing_matches_least_loaded():
    rng = random.Random(5)
    for _ in range(500):
        a, width = rng.randrange(0, 20), rng.randint(1, 12)
        amounts = [(j, rng.randint(1, width)) for j in range(rng.randint(1, 6))]
        packed = _spread_segment(a, a + width, amounts)
        assert packed == _least_loaded_spread(a, a + width, amounts)
        total = sum(f for _, f in amounts)
        assert max(map(len, packed.values())) == -(-total // width)


def test_total_work_at_the_flow_limit_raises():
    # optima and verdicts are exact on both sides of the limit; only
    # feasible_preemptive refuses from it on, since its witness holds one
    # entry per unit of work
    for p in (FLOW_WORK_LIMIT - 2, FLOW_WORK_LIMIT - 1):
        fits = Instance([Job(0, 0, 2**31, p), Job(1, 0, 2**31, 1)])
        assert optimum_preemptive(fits) == 1
        assert is_feasible_preemptive(fits, 1)
    over = Instance([Job(0, 0, 2**31, 2**31), Job(1, 0, 2**31, 1)])
    assert optimum_preemptive(over) == 2
    assert not is_feasible_preemptive(over, 1)
    with pytest.raises(EnumerationCapExceeded, match="32 bits"):
        feasible_preemptive(fits, 1)


@given(
    a=st.integers(0, 50),
    width=st.integers(2, 30),
    m=st.integers(1, 6),
    data=st.data(),
)
def test_cut_shares_follow_wrap_around_packing(a, width, m, data):
    # a cut splits each job's units as _spread_segment packs them: every
    # share fits its part, and every part's load fits m machines
    b = a + width
    c = data.draw(st.integers(a + 1, b - 1))
    load = data.draw(st.integers(0, m * width))
    shares = {}
    while load:
        units = data.draw(st.integers(1, min(width, load)))
        shares[len(shares)] = units
        load -= units
    left, right = _cut_shares(a, b, shares, c)
    slots = _spread_segment(a, b, list(shares.items()))
    for job, units in shares.items():
        inside = sum(job in ids for s, ids in slots.items() if s < c)
        assert left.get(job, 0) == inside and right.get(job, 0) == units - inside
        assert 0 not in (left.get(job), right.get(job))
    assert max(left.values(), default=0) <= c - a
    assert max(right.values(), default=0) <= b - c
    assert sum(left.values()) <= m * (c - a) and sum(right.values()) <= m * (b - c)


@st.composite
def growing_job_sets(draw):
    """Batches of jobs with a lower bound each, the bounds rising: windows
    of up to 8 slots, or times up to about 2^62; some jobs of zero laxity;
    the batches in release order, each released at one time, or in any
    order."""
    huge = draw(st.booleans())
    ordered = draw(st.booleans())
    horizon = 2**62 if huge else 12
    batches, lower, t, n = [], 0, 0, 0
    for _ in range(draw(st.integers(1, 6))):
        batch = []
        for _ in range(draw(st.integers(0, 4))):
            r = t if ordered else draw(st.integers(0, horizon))
            w = draw(st.integers(1, 2**61 if huge else 8))
            p = w if draw(st.integers(0, 3)) == 0 else draw(st.integers(1, w))
            batch.append(Job(n, r, r + w, p))
            n += 1
        if ordered:
            t += draw(st.integers(0, 2**60 if huge else 3))
        lower = draw(st.sampled_from([lower, lower + 1, lower + 4]))
        batches.append((batch, lower))
    return batches


@settings(max_examples=200, deadline=None)
@given(batches=growing_job_sets())
def test_running_optimum_matches_min_machines_at_every_addition(batches):
    # each addition returns what the galloping scipy search finds anew on
    # every job added so far (min_machines would take a running optimum of
    # its own on these small sets), and leaves a feasible flow of them on
    # that many machines: each job's units sum to its processing time,
    # inside its window, no share above its segment's length and no load
    # above m times that length
    running = RunningOptimum()
    jobs = []
    for batch, lower in batches:
        jobs += batch
        m = running.add(batch, lower)
        if Instance(jobs).total_work < FLOW_WORK_LIMIT:
            assert m == reference_min_machines(jobs, lower)
        else:
            # past scipy's reach, a minimum-cut certificate: the flow below
            # shows that m fits, and the strong density's interval set,
            # checked by contributions, that no count below ceil(rho) does
            rho, iset = strong_density_witness(Instance(jobs))
            assert sum(contribution(j, iset) for j in jobs) == rho * iset.length
            assert m == max(lower, ceil_frac(rho))
        placed = [0] * len(jobs)
        for a, b, units in running.flow():
            assert a < b and sum(units.values()) <= m * (b - a)
            for job, share in units.items():
                assert 0 < share <= b - a
                assert jobs[job].release <= a and b <= jobs[job].deadline
                placed[job] += share
        assert placed == [job.processing for job in jobs]


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
    assert IntervalSet([(2, 4), (0, 2), (5, 6)]).intervals == ((0, 4), (5, 6))


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


def test_strong_density_beyond_twenty_slots():
    assert strong_density_exact(Instance([Job(0, 0, 30, 1)])) == Fraction(1, 30)


def test_strong_density_across_a_gap():
    inst = Instance([Job(0, 0, 2, 2), Job(1, 5, 7, 1)])
    assert strong_density_exact(inst) == brute_force_strong_density(inst)


def test_strong_density_at_large_windows():
    small = Instance([Job(i, 0, 2**20, 5) for i in range(3)])
    assert strong_density_exact(small) == Fraction(15, 2**20)
    # the density's denominator 2^30 times W = 15 leaves int32, so those
    # solves take exact Python ints
    large = Instance([Job(i, 0, 2**30, 5) for i in range(3)])
    assert strong_density_exact(large) == Fraction(15, 2**30)
    assert optimum_preemptive(large) == 1


@st.composite
def small_job_lists(draw):
    jobs = []
    for i in range(draw(st.integers(1, 5))):
        r = draw(st.integers(0, 4))
        w = draw(st.integers(1, 4))
        jobs.append(Job(i, r, r + w, draw(st.integers(1, w))))
    return jobs


@settings(max_examples=150, deadline=None)
@given(jobs=small_job_lists())
def test_strong_density_witness_property(jobs):
    inst = Instance(jobs)
    value, iset = strong_density_witness(inst)
    assert value == brute_force_strong_density(inst)
    assert sum(contribution(j, iset) for j in inst.jobs) == value * iset.length


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
        optimum_nonpreemptive_exact(inst)


@st.composite
def nonpreemptive_sets(draw):
    """Up to five jobs, each a copy of the previous job, a zero-laxity job or
    a free one; all of processing time ``p`` when an equal-p set is drawn."""
    equal_p = draw(st.one_of(st.none(), st.integers(1, 3)))
    jobs = []
    for i in range(draw(st.integers(1, 5))):
        if jobs and draw(st.booleans()):
            prev = jobs[-1]
            jobs.append(Job(i, prev.release, prev.deadline, prev.processing))
            continue
        r = draw(st.integers(0, 6))
        p = equal_p or draw(st.integers(1, 4))
        laxity = draw(st.sampled_from([0, 0, 1, 2, 3, 4]))
        jobs.append(Job(i, r, r + p + laxity, p))
    return Instance(jobs)


@settings(max_examples=150, deadline=None)
@given(inst=nonpreemptive_sets(), lower=st.integers(-1, 5))
def test_nonpreemptive_matches_brute_force_property(inst, lower):
    expected = brute_force_nonpreemptive(inst)
    assert optimum_nonpreemptive_exact(inst) == expected
    # any lower bound at or below the optimum gives the same value
    lower = min(lower, expected)
    assert optimum_nonpreemptive_exact(inst, lower=lower) == expected


# Uniform-deadline instances whose non-preemptive optimum exceeds the
# preemptive one, so that every smaller count must be ruled out: acceptance
# 3's seeds 249, 64 and 54 and perfbench's HARD_UNIFORM_SEEDS.  A search over
# start times took 0.3-36 s on each; the values are the ones it computed.
@pytest.mark.parametrize(
    "seed, expected",
    [(249, 5), (64, 4), (54, 4), (373, 3), (1138, 4), (1198, 4), (1528, 4),
     (1774, 5), (1938, 4), (2019, 4), (2558, 3)],
)
def test_nonpreemptive_hard_uniform_seeds(seed, expected):
    g = gen_random("uniform-d", 5 + seed % 5, seed)
    assert optimum_nonpreemptive_exact(g.instance) == expected
    assert expected > g.m_opt


@pytest.mark.parametrize("bits", [20, 40])
def test_nonpreemptive_at_large_times(bits):
    # the long job covers slot k wherever it starts, so preemption around the
    # short job is what makes one machine enough
    k = 2**bits
    inst = Instance([Job(0, k, k + 1, 1), Job(1, 0, 2 * k + 1, k + 1)])
    assert optimum_preemptive(inst) == 1
    assert optimum_nonpreemptive_exact(inst) == 2


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

    # one flow class: the benchmark's name for it, and build and solve its own
    assert FlowNetwork is RunningOptimum
    assert {"build", "solve"} <= RunningOptimum.__dict__.keys()
    inst = Instance([Job(0, 0, 3, 2), Job(1, 1, 5, 1)])
    net = FlowNetwork.build(inst)
    assert not net._windows  # found on demand by _window, none by build
    # segments are the maximal runs between window breakpoints
    assert [(a, b) for a, b, _ in net.flow()] == [(0, 1), (1, 3), (3, 5)]
    # a job has one arc to each segment inside its window
    assert [net._window(job) for job in range(inst.n)] == [range(0, 2), range(1, 3)]
    assert net._work == inst.total_work
    value, reached = net.solve(2)
    assert (value, reached) == (inst.total_work, [])


def _coo_graph(inst, m):
    """Reference: the network of ``inst`` on ``m = num / den`` machines, its
    arcs listed as (row, column, capacity) triples and converted by scipy:
    the source is node 0, job ji node 1 + ji, segment si node 1 + n + si,
    the sink the last.  Every capacity is scaled by ``den`` and clamped to
    the flow bound ``W * den``, which no arc can carry more of, and which
    must be below 2^31 for scipy's int32 capacities."""
    import numpy as np
    from scipy.sparse import csr_matrix

    num, den = Fraction(m).numerator, Fraction(m).denominator
    points = sorted({p for j in inst.jobs for p in (j.release, j.deadline)})
    segments = list(zip(points, points[1:]))
    n, k, limit = inst.n, len(segments), inst.total_work * den
    assert limit < FLOW_WORK_LIMIT
    sink = 1 + n + k
    triples = [(0, 1 + ji, den * job.processing) for ji, job in enumerate(inst.jobs)]
    for ji, job in enumerate(inst.jobs):
        for si, (a, b) in enumerate(segments):
            if job.release <= a and b <= job.deadline:
                triples.append((1 + ji, 1 + n + si, min(den * (b - a), limit)))
    triples += [
        (1 + n + si, sink, min(num * (b - a), limit)) for si, (a, b) in enumerate(segments)
    ]
    rows, cols, caps = zip(*triples)
    data = np.array(caps, dtype=np.int32)
    return csr_matrix((data, (rows, cols)), shape=(sink + 1, sink + 1))


def _levels(indptr, indices, residual):
    """Breadth-first distances from the source (node 0) over the arcs of
    positive residual capacity, -1 where unreached."""
    levels = [-1] * (len(indptr) - 1)
    levels[0] = 0
    queue = [0]
    for node in queue:
        level = levels[node] + 1
        for e in range(indptr[node], indptr[node + 1]):
            v = indices[e]
            if residual[e] > 0 and levels[v] < 0:
                levels[v] = level
                queue.append(v)
    return levels


def scipy_flow(instance, m):
    """Reference for ``maximum_flow``: scipy's maximum flow of the test's
    own graph (``_coo_graph``) on ``m`` machines, scaled by its denominator,
    and the segments, ascending, that the residual reaches from the source
    (``_levels``).  The residual is the capacities less scipy's flows, which
    hold each arc's flow and, negated, its reverse's."""
    from scipy.sparse.csgraph import maximum_flow

    graph = _coo_graph(instance, m)
    result = maximum_flow(graph, 0, graph.shape[0] - 1)
    residual = (graph - result.flow).tocsr()
    levels = _levels(residual.indptr.tolist(), residual.indices.tolist(), residual.data.tolist())
    first = 1 + instance.n  # the node of segment 0
    return int(result.flow_value), [si for si, level in enumerate(levels[first:-1]) if level >= 0]


def test_flow_network_fractional_capacities():
    from machmin.optimum import FlowNetwork

    # one unit of work over four slots saturates at a quarter machine: the
    # segment must drain all four scaled units, not its length clamped to W
    net = FlowNetwork.build(Instance([Job(0, 0, 4, 1)]))
    assert net.solve(Fraction(1, 4))[0] == 4
    # at a fifth of a machine the segment drains 4 of the 5 scaled units
    assert net.solve(Fraction(1, 5)) == (4, [0])


def test_fractional_solve_leaves_the_network_flow():
    # a fractional count is solved on a scaled copy: between solves at 2
    # and 3, one at 5/2 leaves the network's flow as it was, though it
    # places more work than the flow at 2 holds, and the flow at 3 is the
    # one that a network solved only at 2 and then 3 keeps
    from machmin.optimum import FlowNetwork

    instance = Instance(
        [Job(i, 0, 2, 2) for i in range(3)] + [Job(3 + i, 1, 4, 2) for i in range(3)]
    )
    network, plain = FlowNetwork.build(instance), FlowNetwork.build(instance)
    assert network.solve(2) == plain.solve(2) == scipy_flow(instance, 2) == (8, [0, 1, 2])
    kept = network.flow()
    value, reached = network.solve(Fraction(5, 2))
    assert (value, reached) == scipy_flow(instance, Fraction(5, 2)) and value > 2 * 8
    assert network.flow() == kept and network.m == 2
    assert network.solve(3) == plain.solve(3) == scipy_flow(instance, 3)
    assert network.flow() == plain.flow()


@st.composite
def straddling_instances(draw):
    """A small job set, of at most 10 jobs and 190 job arcs, or a large one,
    of 31 to 46 jobs with long windows and some hundreds of job arcs, and
    its network."""
    from machmin.optimum import FlowNetwork

    large = draw(st.booleans())
    n = draw(st.integers(31, 46) if large else st.integers(1, 10))
    jobs = []
    for i in range(n):
        r = draw(st.integers(0, 50))
        w = draw(st.integers(15, 40) if large else st.integers(1, 40))
        jobs.append(Job(i, r, r + w, draw(st.integers(1, w))))
    instance = Instance(jobs)
    return instance, FlowNetwork.build(instance)


@st.composite
def kernel_cases(draw):
    """A small or a large network, at an integer or a fractional machine
    count, and an integer count from 1 up to it."""
    instance, network = draw(straddling_instances())
    m = draw(
        st.integers(1, instance.n)
        | st.builds(Fraction, st.integers(1, 3 * instance.n), st.integers(2, 7))
    )
    return instance, network, m, draw(st.integers(1, max(1, math.floor(m))))


@settings(max_examples=120, deadline=None)
@given(case=kernel_cases(), offset=st.integers(-3, 2))
def test_running_flow_matches_the_scipy_reference(case, offset):
    # on small and large sets, at an integer or a fractional count: a
    # network's solve gives scipy's value and reached segments, the source
    # side of the minimum cut, which is the same for every maximum flow;
    # solved fresh, and after a solve at a lower integer count, whose flow
    # an integer count continues and a fractional one leaves; a solve at a
    # lower count after a higher one solves anew and leaves the network's
    # flow.  Scaled by 2^k to a total work just short of FLOW_WORK_LIMIT or
    # past it, the value scales by 2^k and the cut stays
    from machmin.optimum import FlowNetwork

    instance, network, m, lower = case
    expected = scipy_flow(instance, m)
    value, reached = expected
    assert (value == instance.total_work * m.denominator) == (not reached)
    assert network.solve(m) == expected
    for solved in (network, FlowNetwork.build(instance)):
        count, before = solved.m, solved.flow()
        assert solved.solve(lower) == scipy_flow(instance, lower)
        if lower < count:
            assert solved.flow() == before and solved.m == count
        kept = solved.flow()
        assert solved.solve(m) == expected
        if m.denominator > 1:
            assert solved.flow() == kept
        assert solved.m == (m if m.denominator == 1 else lower)
    scaled = _scaled_past_limit(instance, offset)
    factor = scaled.total_work // instance.total_work
    network = FlowNetwork.build(scaled)
    assert network.solve(m) == (factor * value, reached)
    network.solve(lower)
    assert network.solve(m) == (factor * value, reached)


def _scaled_past_limit(instance, offset):
    """The instance scaled by 2^k, where k is ``offset`` away from the
    smallest k that brings its total work to ``FLOW_WORK_LIMIT``."""
    k = 0
    while instance.total_work << k < FLOW_WORK_LIMIT:
        k += 1
    return scale_instance(instance, 2 ** max(0, k + offset))


@settings(max_examples=60, deadline=None)
@given(case=straddling_instances(), offset=st.integers(-3, 2), k=st.integers(0, 64))
def test_scaling_keeps_verdicts_below_the_flow_limit(case, offset, k):
    # scaling every time by 2^k keeps the optimum and every feasibility
    # verdict, on small and large sets, below FLOW_WORK_LIMIT and past
    # it: by a power that brings the total work just short of the limit or
    # just past it, and by any power up to 2^64.  Only feasible_preemptive
    # refuses from the limit on, since its witness lists every occupied
    # slot.  The small side also keeps its strong density.  The unscaled
    # optimum and density come from the scipy references.
    instance, _ = case
    m = reference_min_machines(instance.jobs, 1)
    counts = sorted({1, max(1, m - 1), m})
    if instance.n <= 10:
        rho = reference_strong_density(instance)
    for scaled in (_scaled_past_limit(instance, offset), scale_instance(instance, 2**k)):
        assert optimum_preemptive(scaled) == m
        for count in counts:
            assert is_feasible_preemptive(scaled, count) == (count >= m)
        if instance.n <= 10:
            assert strong_density_exact(scaled) == rho
        if scaled.total_work >= FLOW_WORK_LIMIT:
            with pytest.raises(EnumerationCapExceeded, match="witness"):
                feasible_preemptive(scaled, m)


def scipy_fits(instance, m):
    """Whether ``instance`` fits on ``m`` machines, by scipy's maximum flow
    (``scipy_flow``), so below ``FLOW_WORK_LIMIT`` only."""
    return instance.n == 0 or scipy_flow(instance, m)[0] == instance.total_work


def reference_strong_density(instance):
    """The reference for ``strong_density_exact``: Dinkelbach's method from
    every covered segment, each round's minimum cut from ``scipy_flow``."""
    points = sorted({p for j in instance.jobs for p in (j.release, j.deadline)})
    segments = list(zip(points, points[1:]))
    chosen = [
        si for si, (a, b) in enumerate(segments)
        if any(j.release <= a and b <= j.deadline for j in instance.jobs)
    ]
    while True:
        iset = IntervalSet(segments[si] for si in chosen)
        rho = Fraction(sum(contribution(j, iset) for j in instance.jobs), iset.length)
        value, chosen = scipy_flow(instance, rho)
        if value == instance.total_work * rho.denominator:
            return rho


def contribution_dinkelbach(instance):
    """The reference for the density loop of ``strong_density_witness``:
    Dinkelbach's method on the package's flow from every covered segment,
    each round's ratio summed from every job's contribution to an interval
    set of the round's segments, and that set returned with the density."""
    from machmin.optimum import FlowNetwork

    points = sorted({p for j in instance.jobs for p in (j.release, j.deadline)})
    chosen = [
        si for si, (a, b) in enumerate(zip(points, points[1:]))
        if any(j.release <= a and b <= j.deadline for j in instance.jobs)
    ]
    network = FlowNetwork.build(instance)
    while True:
        iset = IntervalSet((points[si], points[si + 1]) for si in chosen)
        rho = Fraction(sum(contribution(j, iset) for j in instance.jobs), iset.length)
        value, chosen = network.solve(rho)
        if value == instance.total_work * rho.denominator:
            return rho, iset


@settings(max_examples=80, deadline=None)
@given(case=straddling_instances(), offset=st.none() | st.integers(-1, 2))
def test_density_from_the_cut_matches_the_contribution_loop(case, offset):
    # each round's ratio read off the min cut's value gives the density and
    # the interval set that summing contributions gives, on small and large
    # sets, and scaled to a total work just short of FLOW_WORK_LIMIT or past it
    instance, _ = case
    if offset is not None:
        instance = _scaled_past_limit(instance, offset)
    assert strong_density_witness(instance) == contribution_dinkelbach(instance)


def test_density_loop_sums_no_contribution(monkeypatch):
    # the loop takes several rounds, yet builds one interval set, the one
    # it returns, and calls contribution not at all
    from machmin import optimum

    instance = gen_random("general", 30, 3).instance
    rounds, built = [], []
    solve, interval_set = optimum.RunningOptimum.solve, optimum.IntervalSet

    def counting_solve(self, m):
        rounds.append(m)
        return solve(self, m)

    def counting_set(intervals):
        built.append(interval_set(intervals))
        return built[-1]

    def refuse(job, iset):
        raise AssertionError("contribution called")

    expected = contribution_dinkelbach(instance)
    monkeypatch.setattr(optimum.RunningOptimum, "solve", counting_solve)
    monkeypatch.setattr(optimum, "IntervalSet", counting_set)
    monkeypatch.setattr(optimum, "contribution", refuse)
    assert optimum.strong_density_witness(instance) == expected
    assert len(rounds) > 1 and len(built) == 1


def reference_min_machines(jobs, lower):
    """The reference for ``min_machines``: from the larger of ``lower`` and
    the load bound, gallop upward (lo, lo+1, lo+3, lo+7, ...) until a count
    fits, then bisect the last gap, with a scipy solve at every count
    (``scipy_fits``), so below ``FLOW_WORK_LIMIT`` only; past it the tests
    ask it for the set before scaling."""
    instance = Instance(jobs)
    n, lo = instance.n, max(lower, 1)
    if lo < n:
        span = instance.d_max - min(j.release for j in instance.jobs)
        lo = max(lo, -(-instance.total_work // span))
    if lo >= n:
        return lo

    def fits(m):
        return m >= n or scipy_fits(instance, m)

    bad, good = lo - 1, lo
    while not fits(good):
        bad, good = good, min(2 * good - lo + 1, n)
    while good - bad > 1:
        mid = (bad + good) // 2
        if fits(mid):
            good = mid
        else:
            bad = mid
    return good


@settings(max_examples=80, deadline=None)
@given(
    case=straddling_instances(),
    offset=st.none() | st.integers(-1, 2),
    above=st.integers(1, 4),
)
def test_min_machines_matches_the_galloping_search(case, offset, above):
    # on small and large sets, the optimum from a network's climb, each
    # count continuing the flow of the last, and from one admission into a
    # running optimum, which climbs by the same rule; from below the
    # optimum, from above it and from past n; and scaled to a total work
    # just short of FLOW_WORK_LIMIT or past it, where the reference is the
    # set's own before scaling
    instance, _ = case
    original = instance.jobs
    if offset is not None:
        instance = _scaled_past_limit(instance, offset)
    jobs = instance.jobs
    m = reference_min_machines(original, 1)
    for lower in sorted({-1, 1, max(1, m - 1), m, m + above, instance.n + above}):
        expected = reference_min_machines(original, lower)
        assert expected == max(lower, m)
        assert min_machines(jobs, lower) == expected
        assert RunningOptimum().add(jobs, lower) == expected


@settings(max_examples=80, deadline=None)
@given(case=straddling_instances(), offset=st.none() | st.integers(-1, 2))
def test_network_climb_keeps_the_running_optimum_flow(case, offset):
    # where the climb of min_machines ends below n, its network keeps the
    # flow, segment by segment, that one admission into a running optimum
    # at the load bound leaves: the two climb by one rule from one fill;
    # also scaled to a total work just short of FLOW_WORK_LIMIT or past it
    from unittest import mock

    from machmin.optimum import FlowNetwork

    instance, _ = case
    if offset is not None:
        instance = _scaled_past_limit(instance, offset)
    built = []
    build = FlowNetwork.build.__func__

    def keeping_build(cls, instance):
        built.append(build(cls, instance))
        return built[-1]

    with mock.patch.object(FlowNetwork, "build", classmethod(keeping_build)):
        m = min_machines(instance.jobs, 1)
    span = instance.d_max - min(j.release for j in instance.jobs)
    load = max(1, -(-instance.total_work // span))
    assume(m < instance.n and load < instance.n)
    (network,) = built
    running = RunningOptimum()
    assert running.add(instance.jobs, load) == m == network.m
    assert network.flow() == running.flow()


def _jobs_with_arcs(arcs):
    """Unit jobs of zero laxity on the slots of [0, 32), then unit jobs from
    0 over all 32 segments, and over fewer for the last: ``arcs`` job arcs."""
    jobs = [Job(i, i, i + 1, 1) for i in range(32)]
    rest = arcs - 32
    while rest:
        jobs.append(Job(len(jobs), 0, min(rest, 32), 1))
        rest -= min(rest, 32)
    return jobs


@pytest.mark.parametrize("offset", [None, 0, 33], ids=["small", "at-limit", "past-limit"])
@pytest.mark.parametrize("arcs", [320, 321], ids=["320-arcs", "321-arcs"])
def test_min_machines_builds_one_network_and_no_admission(monkeypatch, arcs, offset):
    # past the n and load-bound exits, min_machines builds exactly one
    # network and admits nothing into a running optimum, whatever the
    # set's size: at 320 job arcs and at 321, and whatever its total work:
    # below FLOW_WORK_LIMIT and past it
    from machmin.optimum import FlowNetwork

    instance = Instance(_jobs_with_arcs(arcs))
    network = FlowNetwork.build(instance)
    assert sum(len(network._window(job)) for job in range(instance.n)) == arcs
    expected = reference_min_machines(instance.jobs, 1)
    if offset is not None:
        instance = _scaled_past_limit(instance, offset)
        assert instance.total_work >= FLOW_WORK_LIMIT
    assert expected < instance.n  # past the n and load-bound exits
    calls = {"build": 0, "add": 0}
    build, add = FlowNetwork.build.__func__, RunningOptimum.add

    def counting_build(cls, instance):
        calls["build"] += 1
        return build(cls, instance)

    def counting_add(self, jobs, lower=1):
        calls["add"] += 1
        return add(self, jobs, lower)

    monkeypatch.setattr(FlowNetwork, "build", classmethod(counting_build))
    monkeypatch.setattr(RunningOptimum, "add", counting_add)
    assert min_machines(instance.jobs, 1) == expected
    assert calls == {"build": 1, "add": 0}


@contextlib.contextmanager
def counting_solves():
    """Count the flows solved inside the block: each ``RunningOptimum.add``
    (an admission into a running flow, which ``_ExactPrefix`` and every
    feasibility verdict make) and each ``FlowNetwork.solve`` (a step of the
    climb of ``min_machines``).  Yields the list of their names, in call
    order."""
    from unittest import mock

    from machmin.optimum import FlowNetwork

    calls = []
    add, solve = RunningOptimum.add, FlowNetwork.solve

    def counting_add(self, jobs, lower=1):
        calls.append("add")
        return add(self, jobs, lower)

    def counting_solve(self, m):
        calls.append("solve")
        return solve(self, m)

    with mock.patch.object(RunningOptimum, "add", counting_add), mock.patch.object(
        FlowNetwork, "solve", counting_solve
    ):
        yield calls


@settings(max_examples=60, deadline=None)
@given(case=straddling_instances())
def test_preemptive_optimum_is_solved_once_per_instance(case):
    # on small and large sets: the first call solves, and neither a
    # second one nor the non-preemptive search's bound solves again; an
    # equal instance built anew keeps its own optimum and solves its own
    from machmin.optimum import DEFAULT_BNB_CAP

    instance, _ = case
    expected = reference_min_machines(instance.jobs, 1)
    with counting_solves() as calls:
        assert optimum_preemptive(instance) == expected
        solved = len(calls)
        assert optimum_preemptive(instance) == expected
        if instance.n <= DEFAULT_BNB_CAP:
            assert optimum_nonpreemptive_exact(instance) >= expected
        assert len(calls) == solved
        assert optimum_preemptive(Instance(instance.jobs)) == expected
        assert len(calls) == 2 * solved


@pytest.mark.parametrize("jobs", [3, 30], ids=["python-kernel", "scipy-kernel"])
def test_opt_scaled_past_the_flow_limit(tmp_path, jobs, capsys):
    # a 3-job set and a 30-job one, scaled to a total work just short of
    # FLOW_WORK_LIMIT or past it: both print the optimum and the strong
    # density of the scipy references
    from machmin.cli import main
    from machmin.model import serialize_instance

    # nested windows: job i covers 2i + 1 segments
    instance = Instance(Job(i, jobs - i, jobs + i + 1, 1) for i in range(jobs))
    path = tmp_path / "inst.txt"
    expected = (
        f"{reference_min_machines(instance.jobs, 1)}\n{reference_strong_density(instance)}\n"
    )
    for offset in (-1, 0, 33):
        path.write_text(serialize_instance(_scaled_past_limit(instance, offset)))
        assert main(["opt", "--preemptive", str(path)]) == 0
        assert main(["opt", "--strong-density", str(path)]) == 0
        assert capsys.readouterr().out == expected


def test_no_module_imports_numpy_or_scipy():
    # an AST scan of every module of the package, TYPE_CHECKING blocks and
    # function bodies included: neither numpy nor scipy is imported anywhere
    import ast
    from pathlib import Path

    import machmin

    found = []
    for path in sorted(Path(machmin.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] in ("numpy", "scipy")]
    assert found == []
