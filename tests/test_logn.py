from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from test_optimum import reference_min_machines

from machmin.adversary import gen_random
from machmin.engine import Simulation
from machmin.logn import (
    LAXITY_FLOOR,
    LaxityTransformSpec,
    LogNPolicy,
    TransformKind,
    build_groups,
    choose_mu,
    logn_schedule,
    reclassify,
    required_scale,
    split_group,
    transform,
)
from machmin.model import Instance, Job, JobState, scale_instance
from machmin.optimum import (
    FlowNetwork,
    ceil_frac,
    optimum_preemptive,
)


def test_choose_mu_examples():
    assert choose_mu(16, Fraction(1, 2)) == 8
    assert choose_mu(1, Fraction(1, 2)) == 1
    assert choose_mu(3, Fraction(1, 2)) == 4


def test_reclassify_examples():
    job = Job(0, 0, 10, 6)
    still, residues = reclassify({0: JobState(job, 5)}, 1, Fraction(1, 2))
    assert still == {0} and not residues  # 5 > 4.5: stays critical
    still, residues = reclassify({0: JobState(job, 4)}, 2, Fraction(1, 2))
    assert not still
    assert residues == [Job(0, 2, 10, 4)]  # 4 <= 4: becomes safe


def test_released_loose_jobs_never_enter_critical():
    inst = Instance([Job(0, 0, 10, 4)])  # loose at release for alpha=1/2
    run = logn_schedule(inst, 1)
    assert run.extras["rebuilds"] == [(0, 0, 1, 0)]  # no critical groups


def test_build_groups_nesting():
    # second job's whole window fits inside the first job's laxity
    a = JobState(Job(0, 0, 20, 6), 6)  # laxity 14
    b = JobState(Job(1, 0, 8, 6), 6)  # window length 8 <= 14
    groups = build_groups([a, b], 0)
    assert groups == [[0, 1]]


def test_build_groups_zero_laxity():
    a = JobState(Job(0, 0, 4, 4), 4)
    b = JobState(Job(1, 0, 3, 3), 3)
    groups = build_groups([a, b], 0)
    assert groups == [[0], [1]]  # zero laxity admits nothing


def test_split_group_examples():
    jobs = {i: JobState(Job(i, 0, 10 + i, 2), 2) for i in range(5)}
    subgroups = split_group(list(range(5)), jobs, 2)
    assert subgroups == [[0, 2, 4], [1, 3]]
    assert split_group(list(range(5)), jobs, 1) == [[0, 1, 2, 3, 4]]
    assert split_group(list(range(3)), jobs, 7) == [[0], [1], [2]]


def test_logn_alpha_validation():
    with pytest.raises(ValueError, match="alpha"):
        LogNPolicy(1, Fraction(2, 3))
    with pytest.raises(ValueError, match="alpha"):
        LogNPolicy(1, Fraction(2, 5))  # 1/alpha not integral
    LogNPolicy(1, Fraction(1, 3))


def test_logn_campaign_no_misses_and_monitors():
    for seed in range(25):
        g = gen_random("general", 14, seed, horizon=24, max_len=10)
        run = logn_schedule(g.instance, g.m_opt)
        assert run.first_miss is None
        ratio = run.extras["min_critical_laxity_ratio"]
        if ratio is not None:
            assert ratio >= LAXITY_FLOOR
        entry = run.extras["min_safe_entry_ratio"]
        if entry is not None:
            assert entry >= LAXITY_FLOOR
        # group-count bound at every rebuild, against the flow oracle
        alpha = Fraction(1, 2)
        for _t, h, _mu, m_hat in run.extras["rebuilds"]:
            assert h <= 1 + (2 + 2 / alpha) * m_hat


def test_logn_machine_accounting():
    g = gen_random("general", 40, 3, horizon=50, max_len=20)
    run = logn_schedule(g.instance, g.m_opt)
    assert run.first_miss is None
    assert run.machines_used == run.extras["safe_budget"] + run.extras[
        "critical_alloc"
    ]
    assert run.peak_concurrency <= run.machines_used


def test_logn_subgroup_is_singleton_served():
    # each subgroup runs on one machine: per step at most one job per subgroup
    g = gen_random("alpha-tight", 10, 5, alpha=Fraction(1, 2))
    policy = LogNPolicy(g.m_opt)
    from machmin.engine import simulate

    run = simulate(g.instance, policy)
    assert run.first_miss is None


# ---------------------------------------------------------------------------
# Transforms.
# ---------------------------------------------------------------------------


def test_transform_examples():
    inst = Instance([Job(0, 0, 12, 4)])
    beta = Fraction(1, 2)
    assert transform(
        inst, LaxityTransformSpec(TransformKind.SCALE_LAXITY, beta)
    ).jobs == (Job(0, 0, 12, 8),)
    assert transform(
        inst, LaxityTransformSpec(TransformKind.LEFT_PART, beta)
    ).jobs == (Job(0, 0, 6, 4),)
    assert transform(
        inst, LaxityTransformSpec(TransformKind.RIGHT_PART, beta)
    ).jobs == (Job(0, 6, 12, 4),)
    assert transform(
        inst, LaxityTransformSpec(TransformKind.RIGHT_SHORTENED, Fraction(1, 2))
    ).jobs == (Job(0, 4, 12, 4),)
    assert transform(
        inst, LaxityTransformSpec(TransformKind.LEFT_SHORTENED, Fraction(1, 2))
    ).jobs == (Job(0, 0, 8, 4),)


def test_transform_drops_zero_volume_left_part():
    inst = Instance([Job(0, 0, 4, 4), Job(1, 0, 12, 4)])
    spec = LaxityTransformSpec(TransformKind.LEFT_PART, Fraction(1, 2))
    out = transform(inst, spec)
    assert [j.id for j in out.jobs] == [1]


def test_transform_integrality_guard():
    inst = Instance([Job(0, 0, 12, 5)])  # laxity 7, odd
    spec = LaxityTransformSpec(TransformKind.RIGHT_SHORTENED, Fraction(1, 2))
    with pytest.raises(ValueError, match="pre-scale"):
        transform(inst, spec)
    scaled = scale_instance(inst, required_scale(spec))
    transform(scaled, spec)


def test_required_scale():
    assert required_scale(
        LaxityTransformSpec(TransformKind.RIGHT_SHORTENED, Fraction(1, 2))
    ) == 2
    assert required_scale(
        LaxityTransformSpec(TransformKind.LEFT_PART, Fraction(1, 2))
    ) == 4
    assert required_scale(
        LaxityTransformSpec(TransformKind.SCALE_LAXITY, Fraction(1, 4))
    ) == 4


FRACTIONAL_KINDS = [k for k in TransformKind if k is not TransformKind.RESIDUE_AT]
job_shapes = st.lists(
    st.tuples(st.integers(0, 50), st.integers(1, 40), st.integers(0, 60)), max_size=6
)
proper_fractions = st.integers(2, 64).flatmap(
    lambda den: st.builds(Fraction, st.integers(1, den - 1), st.just(den))
)


@given(st.sampled_from(FRACTIONAL_KINDS), proper_fractions, job_shapes)
def test_required_scale_makes_every_transform_integral(kind, q, shapes):
    # (release, processing, laxity) per job; any pre-scale error would raise
    inst = Instance(
        Job(i, r, r + p + lax, p) for i, (r, p, lax) in enumerate(shapes)
    )
    spec = LaxityTransformSpec(kind, q)
    transform(scale_instance(inst, required_scale(spec)), spec)


def test_residue_transform():
    inst = Instance([Job(0, 0, 10, 3), Job(1, 5, 9, 2)])
    out = transform(
        inst, LaxityTransformSpec(TransformKind.RESIDUE_AT, Fraction(4))
    )
    assert out.jobs == (Job(0, 4, 10, 3), Job(1, 5, 9, 2))
    with pytest.raises(ValueError, match="no room"):
        transform(
            inst, LaxityTransformSpec(TransformKind.RESIDUE_AT, Fraction(8))
        )


def test_shortened_variant_bound_smoke():
    # m(J shortened by gamma) <= ceil(m(J)/gamma), via the flow oracle
    for gamma in (Fraction(1, 2), Fraction(1, 4)):
        for seed in range(15):
            g = gen_random("general", 7, seed)
            for kind in (
                TransformKind.LEFT_SHORTENED,
                TransformKind.RIGHT_SHORTENED,
            ):
                spec = LaxityTransformSpec(kind, gamma)
                base = scale_instance(g.instance, required_scale(spec))
                m0 = optimum_preemptive(base)
                m1 = optimum_preemptive(transform(base, spec))
                assert m1 <= ceil_frac(Fraction(m0) / gamma)


def test_laxity_drop_bound_smoke():
    # all (1/2)-tight: m(J_beta) <= ceil(4 m(J) / beta)
    for beta in (Fraction(1, 2), Fraction(1, 4)):
        spec = LaxityTransformSpec(TransformKind.SCALE_LAXITY, beta)
        for seed in range(15):
            g = gen_random("half-tight", 7, seed)
            base = scale_instance(g.instance, required_scale(spec))
            m0 = optimum_preemptive(base)
            m1 = optimum_preemptive(transform(base, spec))
            assert m0 <= m1  # laxity only shrinks
            assert m1 <= ceil_frac(Fraction(4 * m0) / beta)


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1, 4)], ids=str)
def test_pool_optimum_is_exact_at_every_admission(monkeypatch, alpha):
    # m_L after each admission is the flow optimum of every residue admitted
    # so far, and the admission itself builds and solves no flow network;
    # admissions that raise m_L and ones that keep it are both taken.  The
    # reference solves each count by scipy, not on a running flow like the
    # pool's
    admit = LogNPolicy._admit_safe
    build, solve = FlowNetwork.build.__func__, FlowNetwork.solve
    calls = 0
    admissions = raised = 0
    pools: dict[LogNPolicy, list[Job]] = {}  # each policy's residues so far

    def counting_build(cls, instance):
        nonlocal calls
        calls += 1
        return build(cls, instance)

    def counting_solve(network, m):
        nonlocal calls
        calls += 1
        return solve(network, m)

    def checked(self, residues):
        nonlocal admissions, raised
        admissions += 1
        before, m_before = calls, self._m_L
        admit(self, residues)
        assert calls == before, residues
        raised += self._m_L > m_before
        pool = pools.setdefault(self, [])
        pool += residues
        assert self._m_L == reference_min_machines(pool, 1), (residues, self._m_L)

    monkeypatch.setattr(FlowNetwork, "build", classmethod(counting_build))
    monkeypatch.setattr(FlowNetwork, "solve", counting_solve)
    monkeypatch.setattr(LogNPolicy, "_admit_safe", checked)
    for seed, n in enumerate((20, 45, 70, 120)):
        for profile, kw in (
            ("general", {"horizon": n, "max_len": max(6, n // 3)}),
            ("alpha-loose", {"alpha": alpha}),
        ):
            g = gen_random(profile, n, seed, **kw)
            run = logn_schedule(g.instance, g.m_opt, alpha)
            assert run.first_miss is None
    assert 0 < raised < admissions


def test_one_residue_is_admitted_without_a_network(monkeypatch):
    # one loose job: m_L = 1, and the pool's flow holds the job's whole work
    # in its window, with no network built
    def refuse(*args):
        raise AssertionError("a flow network was built")

    monkeypatch.setattr(FlowNetwork, "build", refuse)
    policy = LogNPolicy(1)
    sim = Simulation(policy)
    sim.add_jobs([Job(0, 0, 4, 1)])
    sim.run_until(1)
    assert policy._m_L == 1
    assert policy._pool.flow() == [(0, 4, {0: 1})]


def test_monitor_solves_when_the_load_bound_does_not_certify():
    # the long job takes the first group; each zero-laxity unit job then
    # opens its own, so h = 8 > 1 + 6 * ceil(509 / 1000)
    inst = Instance([Job(0, 0, 1000, 501)] + [Job(i, 0, 1, 1) for i in range(1, 9)])
    run = logn_schedule(inst, optimum_preemptive(inst))
    assert run.extras["rebuilds"] == [(0, 8, 7, 8)]  # the critical optimum
    assert run.extras["monitor_solves"] == 1


def test_monitor_records_the_load_bound_when_it_certifies():
    # h = 2 <= 1 + 6 * ceil(55 / 100): the load bound 1 is recorded, below
    # the critical optimum 2, and no flow is solved for it
    inst = Instance([Job(0, 0, 100, 51), Job(1, 0, 2, 2), Job(2, 0, 2, 2)])
    assert optimum_preemptive(inst) == 2
    run = logn_schedule(inst, 2)
    t, h, _mu, m_hat = run.extras["rebuilds"][0]
    assert (t, h, m_hat) == (0, 2, 1)
    assert run.extras["monitor_solves"] == 0


@pytest.mark.parametrize("second_release", [0, 1])
def test_pool_at_the_flow_limit_admits(second_release):
    # two loose jobs whose pool work reaches 2^31, admitted together or
    # apart: the admission that reaches it keeps m(L) = 1 and a flow of the
    # whole pool work, no segment holding more than its length; only the
    # slots up to that admission run, since the simulator steps every slot
    # up to the horizon
    policy = LogNPolicy(1)
    sim = Simulation(policy)
    sim.add_jobs([Job(0, 0, 2**32, 2**30), Job(1, second_release, 2**32, 2**30)])
    sim.run_until(second_release + 1)
    assert policy._m_L == 1
    assert policy._safe_budget == 4
    flow = policy._pool.flow()
    assert sum(sum(units.values()) for _, _, units in flow) == 2**31
    assert all(sum(units.values()) <= b - a for a, b, units in flow)


def test_certificate_caps_each_share_at_the_segment_length():
    # on two machines the pool has two spare units in [0, 1) and none
    # after: a new residue may take only one of them, so m(L) rises to 3,
    # while two residues of one unit each take both and keep it
    def two_machine_pool():
        policy = LogNPolicy(2)
        policy._admit_safe([Job(0, 1, 4, 3), Job(1, 1, 4, 3)])
        assert policy._m_L == 2
        return policy

    policy = two_machine_pool()
    policy._admit_safe([Job(9, 0, 4, 2)])
    assert policy._m_L == 3
    policy = two_machine_pool()
    policy._admit_safe([Job(8, 0, 4, 1), Job(9, 0, 4, 1)])
    assert policy._m_L == 2
    assert policy._pool.flow()[0] == (0, 1, {2: 1, 3: 1})


def test_logn_all_loose_uses_only_safe_pool():
    g = gen_random("alpha-loose", 12, 8, alpha=Fraction(1, 2))
    run = logn_schedule(g.instance, g.m_opt)
    assert run.first_miss is None
    assert run.extras["critical_alloc"] == 0
    assert run.machines_used == run.extras["safe_budget"]
