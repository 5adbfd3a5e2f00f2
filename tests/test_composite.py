import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from test_optimum import counting_solves

from machmin import composite
from machmin.adversary import gen_random
from machmin.composite import (
    Double,
    _ExactPrefix,
    SplitScheduler,
    agreeable_nonpreemptive,
    agreeable_nonpreemptive_online,
    agreeable_preemptive,
    agreeable_preemptive_online,
    double_wrap,
    equal_p_nonpreemptive_online,
    equal_p_nonpreemptive_semi,
    equal_p_nonpreemptive_semi_run,
    equal_p_offline_approx,
    equal_p_online,
    equal_p_online_budget_factor,
    is_critical,
    round_noncritical,
    uniform_deadline_nonpreemptive,
    uniform_deadline_nonpreemptive_online,
    uniform_deadline_preemptive,
    uniform_deadline_preemptive_online,
)
from machmin.engine import EDF, edf_select, simulate
from machmin.model import (
    Instance,
    Job,
    JobState,
    scale_instance,
    validate_nonpreemptive,
    validate_preemptive,
)
from machmin.optimum import (
    ceil_frac,
    density_equal_p,
    optimum_nonpreemptive_exact,
    optimum_preemptive,
)


def zero_laxity_batches(sizes, width=4):
    """Disjoint saturated batches: batch i forces the running optimum up to
    max(sizes[:i+1])."""
    jobs = []
    t = 0
    for size in sizes:
        for _ in range(size):
            jobs.append(Job(len(jobs), t, t + width, width))
        t += width
    return Instance(jobs)


@st.composite
def release_sequences(draw):
    """Releases of at most 9 jobs in all, in release order, each a
    non-empty batch released at one time: windows of up to 8 slots or
    times up to about 2^62, some jobs of zero laxity."""
    huge = draw(st.booleans())
    batches, t, n = [], 0, 0
    while n < 9 and (not batches or draw(st.booleans())):
        batch = []
        for _ in range(draw(st.integers(1, min(4, 9 - n)))):
            w = draw(st.integers(1, 2**61 if huge else 8))
            p = w if draw(st.integers(0, 3)) == 0 else draw(st.integers(1, w))
            batch.append(Job(n, t, t + w, p))
            n += 1
        batches.append(batch)
        t += draw(st.integers(1, 2**60 if huge else 3))
    return batches


@settings(max_examples=100, deadline=None)
@given(batches=release_sequences())
def test_exact_prefix_matches_a_fresh_search(batches):
    # each release is one admission into the prefix's running flow, and the
    # search that follows solves no flow of its own; the bound it reads is
    # the prefix's preemptive optimum, and its answer is the one a fresh
    # search of the prefix gives from the previous answer
    searched = []

    def search(instance, *, lower):
        searched.append(instance)
        return optimum_nonpreemptive_exact(instance, lower=lower)

    oracle = _ExactPrefix()
    prefix, previous = [], 0
    with mock.patch.object(composite, "optimum_nonpreemptive_exact", search):
        for batch in batches:
            prefix += batch
            with counting_solves() as calls:
                m = oracle.add(batch, previous)
                bound = optimum_preemptive(searched[-1])
            assert calls == ["add"]
            assert bound == optimum_preemptive(Instance(prefix))
            assert m == optimum_nonpreemptive_exact(Instance(prefix), lower=previous)
            previous = m


# ---------------------------------------------------------------------------
# Double.
# ---------------------------------------------------------------------------


def test_double_epoch_arithmetic_growth():
    # m(t) trace 1 then 3 with factor a=2: blocks 4 and 12, total 16 <= 24
    inst = zero_laxity_batches([1, 3])
    run = double_wrap(inst, lambda semi: EDF(2 * semi), 2)
    assert run.extras["epochs"] == [(0, 1, 4), (4, 3, 12)]
    assert run.machines_used == 16 <= 4 * 2 * 3
    assert run.first_miss is None


def test_double_constant_trace_single_block():
    inst = zero_laxity_batches([3, 3, 3])
    run = double_wrap(inst, lambda semi: EDF(2 * semi), 2)
    assert run.extras["epochs"] == [(0, 3, 12)]
    assert run.machines_used == 12


@pytest.mark.parametrize("factor", [1, 2, 4])
def test_double_bound_on_growth_patterns(factor):
    patterns = {
        "constant": [2, 2, 2, 2],
        "doubling": [1, 3, 7, 15],
        "bursty": [1, 1, 6, 6, 6, 25],
    }
    for sizes in patterns.values():
        inst = zero_laxity_batches(sizes)
        run = double_wrap(inst, lambda semi: EDF(factor * semi), factor)
        assert run.first_miss is None
        epochs = run.extras["epochs"]
        m_final = run.extras["m_final"]
        assert sum(b for _, _, b in epochs) <= 4 * factor * m_final
        # epoch inequality 2 m(t_i) <= m(t_k) / 2^(k-i-1)
        k = len(epochs) - 1
        for i, (_, m_i, _) in enumerate(epochs[:-1]):
            assert 2 * m_i * 2 ** (k - i - 1) <= epochs[-1][1]


def test_double_wrapped_loose_edf_campaign():
    alpha = Fraction(1, 2)
    factor = 1 / (1 - alpha) ** 2  # 4
    for seed in range(25):
        g = gen_random("alpha-loose", 8, seed, alpha=alpha)
        run = double_wrap(
            g.instance,
            lambda semi: EDF(ceil_frac(factor * semi)),
            factor,
        )
        assert run.first_miss is None
        assert run.machines_used <= 4 * factor * g.m_opt


# ---------------------------------------------------------------------------
# Agreeable deadlines.
# ---------------------------------------------------------------------------


def test_agreeable_rejects_non_agreeable():
    crossed = Instance([Job(0, 0, 9, 1), Job(1, 1, 5, 2)])
    with pytest.raises(ValueError, match="agreeable"):
        agreeable_preemptive(crossed, 1)
    with pytest.raises(ValueError, match="agreeable"):
        agreeable_nonpreemptive(crossed, 1)


def test_agreeable_preemptive_campaign():
    for seed in range(30):
        g = gen_random("agreeable", 8, seed)
        run = agreeable_preemptive(g.instance, g.m_opt)
        assert run.first_miss is None
        assert run.machines_used <= 18 * g.m_opt
        # pool disjointness: each job processed in exactly one pool
        policy_routed = run.extras["pool_peaks"]
        assert set(policy_routed) == {"loose", "tight"}


def test_agreeable_all_loose_leaves_tight_pool_empty():
    g = gen_random("agreeable-loose", 8, 3, alpha=Fraction(1, 2))
    run = agreeable_preemptive(g.instance, g.m_opt)
    assert run.extras["pool_peaks"]["tight"] == 0
    assert run.first_miss is None


def test_agreeable_preemptive_online_campaign():
    for seed in range(12):
        g = gen_random("agreeable", 7, seed)
        run = agreeable_preemptive_online(g.instance)
        assert run.first_miss is None
        assert run.machines_used <= 72 * g.m_opt


def test_agreeable_nonpreemptive_campaign():
    for seed in range(25):
        g = gen_random("agreeable", 7, seed)
        m = optimum_nonpreemptive_exact(g.instance)
        run = agreeable_nonpreemptive(g.instance, m)
        assert run.first_miss is None
        assert run.machines_used <= 9 * m
        report = validate_nonpreemptive(run.instance, run.to_nonpreemptive_schedule())
        assert report.feasible


def test_agreeable_all_tight_uses_only_mediumfit():
    g = gen_random("agreeable-tight", 6, 7, alpha=Fraction(1, 2))
    m = optimum_nonpreemptive_exact(g.instance)
    run = agreeable_nonpreemptive(g.instance, m)
    assert run.first_miss is None
    assert run.extras["pool_peaks"]["loose"] == 0
    assert run.machines_used <= 5 * m  # (2*ceil(1/alpha)+1) m at alpha=1/2


def test_agreeable_single_job():
    inst = Instance([Job(0, 0, 5, 3)])
    run = agreeable_nonpreemptive(inst, 1)
    assert run.first_miss is None and run.machines_used == 1


def test_agreeable_nonpreemptive_online_campaign():
    for seed in range(10):
        g = gen_random("agreeable", 6, seed)
        m = optimum_nonpreemptive_exact(g.instance)
        run = agreeable_nonpreemptive_online(g.instance)
        assert run.first_miss is None
        assert run.machines_used <= 16 * m


# ---------------------------------------------------------------------------
# Equal processing times.
# ---------------------------------------------------------------------------


def test_criticality_examples():
    assert is_critical(Job(0, 1, 5, 3), 3)  # grid point 3 only
    assert not is_critical(Job(1, 2, 7, 3), 3)  # grid points 3 and 6
    assert round_noncritical(Job(1, 2, 7, 3), 3) == (3, 6)


def test_rounding_is_exact_at_large_releases():
    # float division would round 3 * 2^55 + 1 to 3 * 2^55, before the release
    r = 3 * 2**55 + 1
    job = Job(0, r, r + 9, 3)
    assert round_noncritical(job, 3) == (108086391056891907, r + 8)
    assert not is_critical(job, 3)  # grid points r + 2, r + 5, r + 8
    assert is_critical(Job(1, r, r + 4, 3), 3)  # grid point r + 2 only


def test_rounding_safety():
    rng = random.Random(1)
    for _ in range(50):
        p = rng.randint(1, 4)
        r = rng.randrange(0, 12)
        d = r + p + rng.randrange(0, 9)
        job = Job(0, r, d, p)
        if is_critical(job, p):
            continue
        lo, hi = round_noncritical(job, p)
        assert r <= lo <= hi <= d
        assert hi - lo >= p


def test_equal_p_semi_campaign():
    for seed in range(25):
        g = gen_random("equal-p", 8, seed, p=3)
        m = optimum_nonpreemptive_exact(g.instance)
        run = equal_p_nonpreemptive_semi_run(g.instance, m)
        assert run.first_miss is None
        assert run.machines_used <= 4 * m
        assert run.extras["pool_peaks"]["noncritical"] <= 2 * m
        schedule = equal_p_nonpreemptive_semi(g.instance, m)
        assert validate_nonpreemptive(g.instance, schedule).feasible


def test_equal_p_semi_rejects_unequal():
    with pytest.raises(ValueError, match="equal"):
        equal_p_nonpreemptive_semi(Instance([Job(0, 0, 3, 1), Job(1, 0, 3, 2)]), 1)


def test_equal_p_offline_no_critical_jobs():
    # windows span two grid periods: everything is non-critical
    inst = Instance([Job(i, 0, 6, 3) for i in range(2)])
    schedule = equal_p_offline_approx(inst)
    report = validate_nonpreemptive(inst, schedule)
    assert report.feasible
    assert set(schedule.starts.values()) <= {0, 3}


def test_equal_p_offline_zero_laxity_is_optimal():
    inst = Instance([Job(i, 2 * i, 2 * i + 2, 2) for i in range(4)])
    schedule = equal_p_offline_approx(inst)
    report = validate_nonpreemptive(inst, schedule)
    assert report.feasible
    assert report.machines_used == optimum_nonpreemptive_exact(inst) == 1


def test_equal_p_offline_campaign_within_4x():
    for seed in range(25):
        g = gen_random("equal-p", 8, seed + 100, p=2)
        opt = optimum_nonpreemptive_exact(g.instance)
        schedule = equal_p_offline_approx(g.instance)
        report = validate_nonpreemptive(g.instance, schedule)
        assert report.feasible
        assert report.machines_used <= 4 * opt


def reference_offline_starts(instance):
    """Reference starts of ``equal_p_offline_approx``, by a hand-written grid
    loop: at each grid time tau, EDF on the unit-job optimum over the
    pending jobs whose grid window holds tau."""
    p = instance.jobs[0].processing
    starts, units = {}, []
    for job in instance.jobs:
        if is_critical(job, p):
            starts[job.id] = job.release
        else:
            lo, hi = round_noncritical(job, p)
            units.append(Job(job.id, lo // p, hi // p, 1))
    if units:
        grid = Instance(units)
        mu = optimum_preemptive(grid)
        pending = {u.id: u for u in units}
        for tau in range(grid.d_max):
            eligible = [u for u in pending.values() if u.release <= tau < u.deadline]
            for j in sorted(edf_select((JobState(u, 1) for u in eligible), tau, mu)):
                starts[j] = tau * p
                del pending[j]
        assert not pending
    return starts


def test_equal_p_offline_starts_match_the_grid_loop():
    count = 0
    for p in (2, 3, 4, 7):
        for n in (4, 8, 12, 20, 30):
            for seed in range(40):
                instance = gen_random("equal-p", n, seed, p=p).instance
                starts = equal_p_offline_approx(instance).starts
                expected = reference_offline_starts(instance)
                assert list(starts.items()) == list(expected.items()), (p, n, seed)
                count += 1
    assert count == 800


def test_equal_p_online_factor_is_as_reported():
    alpha = Fraction(3, 10)
    c = equal_p_online_budget_factor(alpha)
    factor = c + 1 / alpha + 1
    assert Fraction("9.38") < factor < Fraction("9.39")


def test_equal_p_online_campaign():
    alpha = Fraction(3, 10)
    c = equal_p_online_budget_factor(alpha)
    bound = c + 1 / alpha + 1
    for seed in range(25):
        g = gen_random("equal-p", 8, seed, p=3)
        run = equal_p_online(g.instance)
        assert run.first_miss is None
        assert Fraction(run.machines_used) <= bound * g.m_opt
        # EarlyFit pool bound holds against the density of all the jobs
        limit = (1 / alpha + 1) * density_equal_p(g.instance.jobs, 3)
        assert run.extras["tight_peak"] <= limit.numerator // limit.denominator


def test_equal_p_online_all_tight_stream():
    # p=2 with window 3 < p/alpha: tight at alpha = 3/10
    jobs = [Job(i, 2 * i, 2 * i + 3, 2) for i in range(6)]
    inst = Instance(jobs)
    run = equal_p_online(inst)
    assert run.first_miss is None
    assert run.extras["final_budget"] == 0  # loose pool never opened


def test_equal_p_np_online_campaign():
    for seed in range(10):
        g = gen_random("equal-p", 6, seed, p=2)
        m = optimum_nonpreemptive_exact(g.instance)
        run = equal_p_nonpreemptive_online(g.instance)
        assert run.first_miss is None
        assert run.machines_used <= 10 * m


# ---------------------------------------------------------------------------
# Uniform deadlines.
# ---------------------------------------------------------------------------


def test_uniform_preemptive_exact_budget():
    for seed in range(30):
        g = gen_random("uniform-d", 8, seed)
        run = uniform_deadline_preemptive(g.instance, g.m_opt)
        assert run.first_miss is None
        assert run.peak_concurrency <= g.m_opt


def test_uniform_preemptive_saturated_misses_below_m():
    inst = Instance([Job(0, 0, 6, 6), Job(1, 0, 6, 3), Job(2, 0, 6, 3)])
    assert optimum_preemptive(inst) == 2
    assert uniform_deadline_preemptive(inst, 2).first_miss is None
    assert uniform_deadline_preemptive(inst, 1).first_miss is not None


def test_uniform_preemptive_online():
    for seed in range(12):
        g = gen_random("uniform-d", 7, seed)
        run = uniform_deadline_preemptive_online(g.instance)
        assert run.first_miss is None
        assert run.machines_used <= 4 * g.m_opt


def test_uniform_nonpreemptive_campaign():
    for seed in range(25):
        g = gen_random("uniform-d", 7, seed)
        m = optimum_nonpreemptive_exact(g.instance)
        run = uniform_deadline_nonpreemptive(g.instance, m)
        assert run.first_miss is None
        assert run.machines_used <= ceil_frac(Fraction(21, 4) * m)
        assert run.extras["pool_peaks"]["tight"] <= 3 * m


def test_uniform_all_loose_leaves_earlyfit_empty():
    g = gen_random("uniform-loose", 8, 5, alpha=Fraction(1, 3))
    m = optimum_nonpreemptive_exact(g.instance)
    run = uniform_deadline_nonpreemptive(g.instance, m)
    assert run.extras["pool_peaks"]["tight"] == 0
    assert run.first_miss is None


def test_uniform_single_tight_job():
    inst = Instance([Job(0, 3, 6, 2)])
    run = uniform_deadline_nonpreemptive(inst, 1)
    assert run.first_miss is None and run.machines_used == 1


def test_uniform_nonpreemptive_online_campaign():
    bound = Fraction(100, 9)  # 4/(1-1/4)^2 + 4 = 11 1/9
    for seed in range(10):
        g = gen_random("uniform-d", 6, seed)
        m = optimum_nonpreemptive_exact(g.instance)
        run = uniform_deadline_nonpreemptive_online(g.instance)
        assert run.first_miss is None
        assert Fraction(run.machines_used) <= bound * m


def test_uniform_rejects_non_uniform():
    inst = Instance([Job(0, 0, 3, 1), Job(1, 0, 4, 1)])
    with pytest.raises(ValueError, match="uniform"):
        uniform_deadline_preemptive(inst, 1)


# ---------------------------------------------------------------------------
# Pool disjointness as a property.
# ---------------------------------------------------------------------------


def test_split_pools_are_disjoint():
    for seed in range(15):
        g = gen_random("agreeable", 8, seed)
        policy = SplitScheduler.by_tightness(
            Fraction(1, 2),
            EDF(4 * g.m_opt),
            EDF(14 * g.m_opt),
        )
        run = simulate(g.instance, policy)
        # routing is total and single-valued, so no job can sit in two pools
        assert set(policy.routing) == {j.id for j in g.instance.jobs}
        # pool accounting covers everything the run actually used
        assert policy.machines_used() >= run.peak_concurrency
        peaks = run.extras["pool_peaks"]
        assert policy.machines_used() == peaks["loose"] + peaks["tight"]


def test_llf_bound_on_tight_agreeable():
    # LLF alone handles alpha-tight agreeable jobs at ceil((4/alpha + 6) m)
    from machmin.engine import LLF

    alpha = Fraction(1, 2)
    budget_factor = 4 / alpha + 6  # 14
    for seed in range(25):
        g = gen_random("agreeable-tight", 7, seed, alpha=alpha)
        budget = ceil_frac(budget_factor * g.m_opt)
        run = simulate(g.instance, LLF(budget))
        assert run.first_miss is None, seed
