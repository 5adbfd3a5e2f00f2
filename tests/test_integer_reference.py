"""The integer rational tests against the ``Fraction`` forms they replace.

The loose test, the subgroup count mu, the two laxity-ratio minima, the
pool budget and the group bound of ``LogNPolicy``, ``density_equal_p`` and
``check_load_inequality`` decide by integer cross-multiplication.  The
references below are the plain ``Fraction`` forms; every property must
give the same answer at every magnitude, and a ``LogNPolicy`` run with the
references patched in must equal the current run in every field.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from machmin import logn
from machmin.adversary import PROFILES, gen_random
from machmin.engine import EDF, check_load_inequality, simulate, work_remaining_trace
from machmin.logn import LogNPolicy, choose_mu, reclassify
from machmin.model import (
    Instance,
    Job,
    JobState,
    Tightness,
    classify,
    classify_job,
    is_loose,
    scale_instance,
)
from machmin.optimum import ceil_frac, density_equal_p, optimal_witness


def reference_choose_mu(n_jobs, alpha):
    target = Fraction(1, n_jobs * n_jobs)
    mu = 1
    value = 1 - alpha
    while value > target:
        mu += 1
        value *= 1 - alpha
    return mu


def reference_is_loose(work, window, alpha):
    return Fraction(work) <= alpha * window


def reference_reclassify(critical, t, alpha):
    still, residues = set(), []
    for job_id in sorted(critical):
        state = critical[job_id]
        if Fraction(state.remaining) <= alpha * (state.job.deadline - t):
            residues.append(Job(job_id, t, state.job.deadline, state.remaining))
        else:
            still.add(job_id)
    return still, residues


def reference_lower_ratio(best, left, laxity):
    if laxity <= 0:
        return best
    ratio = Fraction(left, laxity)
    return ratio if best is None or ratio < best else best


def reference_density_equal_p(jobs, p):
    jobs = list(jobs)
    if not jobs:
        return Fraction(0)
    best = Fraction(0)
    for a in sorted({0, *(j.release for j in jobs)}):
        for b in sorted({j.deadline for j in jobs}):
            if b <= a:
                continue
            count = sum(1 for j in jobs if a <= j.release and j.deadline <= b)
            if count:
                best = max(best, Fraction(p * count, b - a))
    return best


def reference_load_inequality(run, opt_schedule, m, alpha):
    instance = run.instance
    horizon = instance.d_max
    end = run.first_miss[1] if run.first_miss else horizon + 1
    w_a = work_remaining_trace(instance, run.slots, horizon)
    opt_slots = [
        frozenset(opt_schedule.assignments.get(t, frozenset())) for t in range(horizon)
    ]
    w_opt = work_remaining_trace(instance, opt_slots, horizon)
    coeff = alpha / (1 - alpha) * m
    for t in range(min(end, horizon + 1)):
        if Fraction(w_a[t]) > Fraction(w_opt[t]) + coeff * (instance.d_max - t):
            return False, (t, w_a[t], w_opt[t])
    return True, None


alphas = st.integers(2, 8).map(lambda k: Fraction(1, k))
big = st.integers(-(2**200), 2**200)
rationals = st.builds(Fraction, big, st.integers(1, 2**200))


# -- the loose predicate -------------------------------------------------------


@given(big, big, rationals)
def test_is_loose_matches_the_fraction_test(work, window, alpha):
    assert is_loose(work, window, alpha) == reference_is_loose(work, window, alpha)


@given(
    st.integers(0, 2**200),
    st.integers(1, 2**200),
    st.integers(0, 2**200),
    st.fractions(min_value=0, max_value=2, max_denominator=2**64),
)
def test_classify_matches_the_fraction_test(release, window, spare, alpha):
    work = max(1, window - spare)
    job = Job(0, release, release + window, work)
    expected = reference_is_loose(work, window, alpha)
    assert (classify_job(job, alpha) is Tightness.LOOSE) == expected
    remaining = work // 2
    state_expected = reference_is_loose(remaining, window, alpha)
    got = classify(JobState(job, remaining), release + spare, alpha)
    assert (got is Tightness.LOOSE) == state_expected


@given(
    st.lists(
        st.tuples(st.integers(1, 2**200), st.integers(0, 2**200), st.integers(0, 2**8)),
        max_size=8,
    ),
    st.integers(0, 2**200),
    alphas,
)
def test_reclassify_matches_the_fraction_form(shapes, t, alpha):
    critical = {}
    for job_id, (work, spare, done) in enumerate(shapes):
        job = Job(job_id, t, t + work + spare, work)
        critical[job_id] = JobState(job, max(work - done, 1))
    assert reclassify(critical, t, alpha) == reference_reclassify(critical, t, alpha)


# -- mu, the pool budget and the group bound ----------------------------------


@given(st.one_of(st.integers(1, 10**6), st.integers(2**64, 2**70)), alphas)
@settings(max_examples=60)
def test_choose_mu_matches_the_fraction_loop(n, alpha):
    assert choose_mu(n, alpha) == reference_choose_mu(n, alpha)


@given(st.one_of(st.integers(0, 10**6), st.integers(2**64, 2**200)), alphas)
def test_policy_constants_match_their_fraction_forms(m_L, alpha):
    policy = LogNPolicy(1, alpha)
    budget = -(-m_L * policy._grow // policy._shrink)
    assert budget == ceil_frac(Fraction(m_L) / (1 - alpha) ** 2)
    assert policy._group_factor == 2 + 2 / alpha


# -- the two laxity-ratio trackers --------------------------------------------


@given(st.lists(st.tuples(big, st.integers(-4, 2**200)), max_size=20))
def test_lower_ratio_matches_the_fraction_minimum(pairs):
    best = expected = None
    for left, laxity in pairs:
        best = logn._lower_ratio(best, left, laxity)
        expected = reference_lower_ratio(expected, left, laxity)
        assert best == expected
        assert best is None or type(best) is Fraction


# -- density_equal_p ----------------------------------------------------------


@given(
    st.integers(1, 5),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 30)), max_size=8),
    st.integers(0, 3),
)
def test_density_equal_p_matches_the_fraction_scan(p, shapes, k):
    jobs = [Job(i, r, r + p + slack, p) for i, (r, slack) in enumerate(shapes)]
    jobs = list(scale_instance(Instance(jobs), 2**k).jobs) if k else jobs
    got = density_equal_p(jobs, p * 2**k)
    assert got == reference_density_equal_p(jobs, p * 2**k)
    assert type(got) is Fraction


# -- check_load_inequality ----------------------------------------------------


@given(
    st.integers(1, 10),
    st.integers(0, 2**16),
    st.integers(0, 3),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 10)]),
    st.integers(0, 3),
)
@settings(max_examples=40, deadline=None)
def test_load_inequality_matches_the_fraction_form_when_scaled(n, seed, k, alpha, short):
    """At a 2^k-scaled instance.  EDF on one machine against EDF on the
    bound's budget as W_OPT, with the inequality's m cut by ``short``, makes
    some steps violate it."""
    generated = gen_random("alpha-loose", n, seed, alpha=alpha)
    instance = scale_instance(generated.instance, 2**k)
    m, witness = optimal_witness(instance)
    full = simulate(instance, EDF(ceil_frac(Fraction(m) / (1 - alpha) ** 2)))
    schedules = (witness, full.to_preemptive_schedule())
    for run in (full, simulate(instance, EDF(1))):
        for schedule in schedules:
            for m_arg in (m, max(m - short, 0)):
                expected = reference_load_inequality(run, schedule, m_arg, alpha)
                assert check_load_inequality(run, schedule, m_arg, alpha) == expected


def test_load_inequality_refuses_alpha_of_one_or_more():
    instance = Instance([Job(0, 0, 2, 1)])
    m, witness = optimal_witness(instance)
    run = simulate(instance, EDF(1))
    for alpha in (Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError, match="alpha must be below 1"):
            check_load_inequality(run, witness, m, alpha)


# -- whole LogNPolicy runs -----------------------------------------------------


@contextmanager
def fraction_reference():
    """Patch the ``Fraction`` forms into the logn module; policies built
    inside take the reference pool budget and group-bound factor."""
    init = LogNPolicy.__init__

    def reference_init(self, m, alpha=Fraction(1, 2)):
        init(self, m, alpha)
        self._grow, self._shrink = 1, (1 - alpha) ** 2
        self._group_factor = 2 + 2 / alpha

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logn, "choose_mu", reference_choose_mu)
        mp.setattr(logn, "reclassify", reference_reclassify)
        mp.setattr(logn, "is_loose", reference_is_loose)
        mp.setattr(logn, "_lower_ratio", reference_lower_ratio)
        mp.setattr(LogNPolicy, "__init__", reference_init)
        yield


def outcome(run):
    return {
        "slots": run.slots,
        "misses": run.misses,
        "machines_used": run.machines_used,
        "peak_budget": run.peak_budget,
        "extras": run.extras,
    }


@given(st.sampled_from(PROFILES), st.integers(2, 30), st.integers(0, 2**16), alphas)
@settings(max_examples=40, deadline=None)
def test_logn_runs_match_the_fraction_reference(profile, n, seed, alpha):
    instance = gen_random(profile, n, seed).instance
    m = gen_random(profile, n, seed).m_opt
    with fraction_reference():
        expected = outcome(logn.logn_schedule(instance, m, alpha))
    got = outcome(logn.logn_schedule(instance, m, alpha))
    assert got == expected
    for key in ("min_critical_laxity_ratio", "min_safe_entry_ratio"):
        value = got["extras"][key]
        assert value is None or type(value) is Fraction
