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
    # each addition returns what min_machines finds anew on every job added
    # so far, and leaves a feasible flow of them on that many machines: each
    # job's units sum to its processing time, inside its window, no share
    # above its segment's length and no load above m times that length
    running = RunningOptimum()
    jobs = []
    for batch, lower in batches:
        jobs += batch
        m = running.add(batch, lower)
        assert m == min_machines(jobs, lower)
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

    inst = Instance([Job(0, 0, 3, 2), Job(1, 1, 5, 1)])
    net = FlowNetwork.build(inst)
    # segments are the maximal runs between window breakpoints
    assert net.segments == ((0, 1), (1, 3), (3, 5))
    # a job feeds exactly the segments inside its window, one unit of
    # capacity per covered slot: job ji's row is the source, then its arcs
    first, indptr, indices = 1 + inst.n, net.indptr, net.indices
    arcs = {
        (ji, indices[p] - first): int(net.base[p])
        for ji in range(inst.n)
        for p in range(indptr[1 + ji] + 1, indptr[2 + ji])
    }
    assert arcs == {(0, 0): 1, (0, 1): 2, (1, 1): 2, (1, 2): 2}
    assert net.arcs == 4
    value, _flow = net.solve(2)
    assert value == inst.total_work


def _coo_graph(inst, reverses=False):
    """Reference: the network's arcs listed as (row, column, capacity)
    triples and converted by scipy; with ``reverses``, each arc's reverse of
    capacity 0 as well, which is the layout scipy's maximum_flow solves on."""
    import numpy as np
    from scipy.sparse import csr_matrix

    points = sorted({p for j in inst.jobs for p in (j.release, j.deadline)})
    segments = list(zip(points, points[1:]))
    n, k, work = inst.n, len(segments), inst.total_work
    sink = 1 + n + k
    triples = [(0, 1 + ji, job.processing) for ji, job in enumerate(inst.jobs)]
    for ji, job in enumerate(inst.jobs):
        for si, (a, b) in enumerate(segments):
            if job.release <= a and b <= job.deadline:
                triples.append((1 + ji, 1 + n + si, min(b - a, work)))
    triples += [(1 + n + si, sink, b - a) for si, (a, b) in enumerate(segments)]
    if reverses:
        triples += [(v, u, 0) for u, v, _ in triples]
    rows, cols, caps = zip(*triples)
    data = np.array(caps, dtype=np.int32)
    return csr_matrix((data, (rows, cols)), shape=(sink + 1, sink + 1))


def _random_instances(seed, count, max_n=15):
    rng = random.Random(seed)
    for _ in range(count):
        jobs = []
        for i in range(rng.randint(1, max_n)):
            r = rng.randrange(30)
            w = rng.randint(1, 12)
            jobs.append(Job(i, r, r + w, rng.randint(1, w)))
        yield Instance(jobs)


def test_flow_network_csr_matches_coo_reference():
    from machmin.optimum import FlowNetwork

    for inst in _random_instances(31, 200):
        network = FlowNetwork.build(inst)
        # the layout: every arc beside its reverse, in scipy's CSR order,
        # with the m-free capacities in base, and each position's reverse
        # holding the opposite arc
        full = _coo_graph(inst, reverses=True)
        indptr, indices = network.indptr, network.indices
        assert indptr == full.indptr.tolist()
        assert indices == full.indices.tolist()
        tails = [u for u in range(len(indptr) - 1) for _ in range(indptr[u], indptr[u + 1])]
        for p, q in enumerate(network.reverse):
            assert (tails[q], indices[q]) == (indices[p], tails[p])
        # drains are the sink arcs, one per segment row, which base leaves
        # to capacities
        sink = len(indptr) - 2
        drains = network.drains.tolist()
        assert drains == [indptr[v + 1] - 1 for v in range(1 + inst.n, sink)]
        assert all(indices[p] == sink for p in drains)
        expected = full.data.copy()
        expected[drains] = 0
        assert network.base.dtype == expected.dtype
        assert network.base.tolist() == expected.tolist()
        assert network.arcs == sum(1 <= u <= inst.n < v for u, v in zip(tails, indices))


def test_flow_network_fractional_capacities():
    from machmin.optimum import FlowNetwork

    # one unit of work over four slots saturates at a quarter machine: the
    # segment must drain all four scaled units, not its length clamped to W
    net = FlowNetwork.build(Instance([Job(0, 0, 4, 1)]))
    assert net.solve(Fraction(1, 4))[0] == 4
    # at a fifth of a machine the segment drains 4 of the 5 scaled units
    assert net.solve(Fraction(1, 5))[0] == 4


@st.composite
def straddling_instances(draw):
    """A job set whose network has at most 190 job arcs, so the Python
    kernel solves it, or more than ``PYTHON_FLOW_ARCS``, so scipy does."""
    from machmin.optimum import PYTHON_FLOW_ARCS, FlowNetwork

    large = draw(st.booleans())
    # the large side's networks have about n^2 / 2 job arcs, so from
    # n > sqrt(3 * PYTHON_FLOW_ARCS) on nearly every draw clears the cutoff
    # (all of 2,000 draws at each cutoff from 192 to 512)
    least = math.isqrt(3 * PYTHON_FLOW_ARCS) + 1
    n = draw(st.integers(least, least + 15) if large else st.integers(1, 10))
    jobs = []
    for i in range(n):
        r = draw(st.integers(0, 50))
        w = draw(st.integers(15, 40) if large else st.integers(1, 40))
        jobs.append(Job(i, r, r + w, draw(st.integers(1, w))))
    instance = Instance(jobs)
    network = FlowNetwork.build(instance)
    assume(large == (network.arcs > PYTHON_FLOW_ARCS))
    return instance, network


@st.composite
def kernel_cases(draw):
    """A network on either side of the kernel cutoff, at an integer or a
    fractional machine count."""
    instance, network = draw(straddling_instances())
    m = draw(
        st.integers(1, instance.n)
        | st.builds(Fraction, st.integers(1, 3 * instance.n), st.integers(2, 7))
    )
    return network, m


@settings(max_examples=120, deadline=None)
@given(case=kernel_cases())
def test_python_kernel_flows_equal_scipy(case):
    # scipy's maximum_flow on the forward arcs alone (head above tail), to
    # which it adds the reverse arcs itself, is the reference: each kernel,
    # forced whatever the size, returns its value and its flow matrix
    # element by element, on the same layout
    from unittest import mock

    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow as scipy_maximum_flow

    from machmin import optimum

    network, m = case
    caps = network.capacities(m)
    indptr, indices = np.array(network.indptr), np.array(network.indices)
    nodes = len(indptr) - 1
    tails = np.repeat(np.arange(nodes), np.diff(indptr))
    forward = indices > tails
    reference = scipy_maximum_flow(
        csr_matrix((caps[forward], (tails[forward], indices[forward])), shape=(nodes, nodes)),
        0,
        nodes - 1,
    )
    assert network.indptr == reference.flow.indptr.tolist()
    assert network.indices == reference.flow.indices.tolist()
    for cutoff in (network.arcs, network.arcs - 1):
        with mock.patch.object(optimum, "PYTHON_FLOW_ARCS", cutoff):
            value, flow = optimum.maximum_flow(network, caps)
        assert value == reference.flow_value
        assert list(flow) == reference.flow.data.tolist()


def reference_dinic(indptr, indices, reverse, residual):
    """The reference for ``_dinic``: Dinic's algorithm with every phase,
    the first included, levelled by ``_levels`` and augmented one path at a
    time by ``_augment``, as scipy runs it."""
    from machmin.optimum import _augment, _levels

    sink = len(indptr) - 2
    bound = sum(residual[: indptr[1]])
    while True:
        levels = _levels(indptr, indices, residual)
        if levels[sink] < 0:
            return
        progress = indptr[:-1]
        while _augment(indptr, indices, reverse, residual, levels, progress, bound):
            pass


@st.composite
def flow_layouts(draw):
    """A network and its capacities: windows drawn freely, in two groups
    with a segment no job covers between them, or all alike (one
    segment); at an integer or fractional machine count, or at 0 (every
    drain empty); on int32 or, scaled past ``FLOW_WORK_LIMIT``, on Python
    int capacities."""
    from machmin.optimum import FlowNetwork

    shape = draw(st.sampled_from(["free", "gap", "one-segment"]))
    n = draw(st.integers(1, 14))
    jobs = []
    for i in range(n):
        if shape == "one-segment":
            r, w = 4, 6
        else:
            r, w = draw(st.integers(0, 20)), draw(st.integers(1, 12))
            if shape == "gap" and i % 2:
                r += 33  # after every even job's deadline: a bare segment between
        jobs.append(Job(i, r, r + w, draw(st.integers(1, w))))
    instance = Instance(jobs)
    if draw(st.booleans()):
        instance = _scaled_past_limit(instance, draw(st.integers(0, 2)))
    m = draw(
        st.integers(0, n)
        | st.builds(Fraction, st.integers(1, 3 * n), st.integers(2, 7))
    )
    network = FlowNetwork.build(instance)
    return network, network.capacities(m)


@settings(max_examples=300, deadline=None)
@given(case=flow_layouts())
def test_dinic_first_phase_matches_the_reference(case):
    # _dinic, whose first phase is the closed-form pass, ends on the
    # reference's residual element by element; with every drain empty
    # nothing leaves the source
    from machmin.optimum import _dinic

    network, caps = case
    layout = network.indptr, network.indices, network.reverse
    residual, expected = caps.tolist(), caps.tolist()
    _dinic(*layout, residual)
    reference_dinic(*layout, expected)
    assert residual == expected
    jobs = network.indptr[1]
    if not caps[network.drains].any():
        assert residual[:jobs] == caps[:jobs].tolist()


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
    # verdict, on either kernel, below FLOW_WORK_LIMIT and past it: by a
    # power that brings the total work just short of the limit or just
    # past it, and by any power up to 2^64.  Only feasible_preemptive
    # refuses from the limit on, since its witness lists every occupied
    # slot.  The small side also keeps its strong density.
    instance, _ = case
    m = optimum_preemptive(instance)
    counts = sorted({1, max(1, m - 1), m})
    for scaled in (_scaled_past_limit(instance, offset), scale_instance(instance, 2**k)):
        assert optimum_preemptive(scaled) == m
        for count in counts:
            assert is_feasible_preemptive(scaled, count) == (count >= m)
        if instance.n <= 10:
            assert strong_density_exact(scaled) == strong_density_exact(instance)
        if scaled.total_work >= FLOW_WORK_LIMIT:
            with pytest.raises(EnumerationCapExceeded, match="witness"):
                feasible_preemptive(scaled, m)


@pytest.mark.parametrize("jobs", [3, 30], ids=["python-kernel", "scipy-kernel"])
def test_opt_scaled_past_the_flow_limit(tmp_path, jobs, capsys):
    from machmin.cli import main
    from machmin.model import serialize_instance
    from machmin.optimum import PYTHON_FLOW_ARCS, FlowNetwork

    # nested windows: job i covers 2i + 1 segments
    instance = Instance(Job(i, jobs - i, jobs + i + 1, 1) for i in range(jobs))
    arcs = FlowNetwork.build(instance).arcs
    assert (arcs > PYTHON_FLOW_ARCS) == (jobs == 30)
    path = tmp_path / "inst.txt"
    expected = f"{optimum_preemptive(instance)}\n{strong_density_exact(instance)}\n"
    for offset in (-1, 0, 33):
        path.write_text(serialize_instance(_scaled_past_limit(instance, offset)))
        assert main(["opt", "--preemptive", str(path)]) == 0
        assert main(["opt", "--strong-density", str(path)]) == 0
        assert capsys.readouterr().out == expected
