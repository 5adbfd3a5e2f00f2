from fractions import Fraction

import pytest

from machmin import optimum
from machmin.adversary import (
    PROFILES,
    GeneratorError,
    gen_deadline_ordered_family,
    gen_llf_lower_bound,
    gen_random,
    play_eight_sevenths,
)
from machmin.engine import EDF, LLF, simulate
from machmin.model import is_loose
from machmin.optimum import is_feasible_preemptive, optimum_preemptive


# ---------------------------------------------------------------------------
# LLF lower-bound family.
# ---------------------------------------------------------------------------


def test_llf_family_round_structure():
    m, c, k = 2, 2, 3
    inst = gen_llf_lower_bound(m, c, k)
    x0 = c ** (k + 2) * (c - 1)
    horizon = c ** (k + 3)
    # all tight jobs share the horizon deadline; round-r tight jobs (group
    # index r) carry processing x0 / c^r
    tights = [j for j in inst.jobs if j.deadline == horizon]
    assert len(tights) == k * m // 2
    seen = sorted({j.processing for j in tights}, reverse=True)
    assert seen == [x0 // c**r for r in range(k)]
    # feasibility certificate is built into the generator; double-check
    assert is_feasible_preemptive(inst, m)


def test_llf_family_parameter_validation():
    with pytest.raises(GeneratorError, match="even"):
        gen_llf_lower_bound(3, 2, 1)
    with pytest.raises(GeneratorError, match="integrality"):
        gen_llf_lower_bound(2, 1, 1)
    with pytest.raises(GeneratorError, match="k"):
        gen_llf_lower_bound(2, 2, 0)


def llf_machines_needed(inst, start):
    need = start
    while simulate(inst, LLF(need)).first_miss is not None:
        need += 1
    return need


def test_llf_family_sweep_threshold_and_monotonicity():
    # For (m=2, c=2) the construction defeats LLF at cm/2 = 2 machines once
    # k reaches 4: only then does the tight jobs' residual work at the end of
    # round k (4, 8, 16, 32 for k = 1..4) overflow the tail capacity of 16.
    m, c = 2, 2
    chat_m = c * m // 2
    needed = []
    for k in range(1, 6):
        inst = gen_llf_lower_bound(m, c, k)
        assert is_feasible_preemptive(inst, m)
        needed.append(llf_machines_needed(inst, 1))
    assert needed == sorted(needed)  # non-decreasing in k
    assert simulate(gen_llf_lower_bound(m, c, 4), LLF(chat_m)).first_miss is not None
    assert simulate(gen_llf_lower_bound(m, c, 5), LLF(chat_m)).first_miss is not None


@pytest.mark.parametrize(
    "m, c, first",
    [(2, 2, 4), (4, 2, 4), (6, 2, 4), (2, 3, 4), (4, 3, 4), (2, 4, 5)],
)
def test_llf_family_first_miss_thresholds(m, c, first):
    # The first k at which the family defeats LLF at cm/2 machines, as the
    # generator's docstring records it.
    chat_m = c * m // 2
    below = gen_llf_lower_bound(m, c, first - 1)
    assert simulate(below, LLF(chat_m)).first_miss is None
    at = gen_llf_lower_bound(m, c, first)
    assert simulate(at, LLF(chat_m)).first_miss is not None


def test_llf_family_larger_m():
    m, c, k = 4, 2, 4
    inst = gen_llf_lower_bound(m, c, k)
    assert is_feasible_preemptive(inst, m)
    chat_m = c * m // 2
    assert simulate(inst, LLF(chat_m)).first_miss is not None


# ---------------------------------------------------------------------------
# Deadline-ordered family.
# ---------------------------------------------------------------------------


def test_deadline_ordered_structure_m2_n4():
    family = gen_deadline_ordered_family(2, 4)
    assert len(family) == 2
    j1 = family[0]
    assert [j.processing for j in j1.jobs] == [1, 1, 2, 4]
    assert [j.deadline for j in j1.jobs][:3] == [2, 2, 2]
    assert all(j.release == 0 for j in j1.jobs)
    # deadlines are non-decreasing in index within every family member,
    # so the job order is one deadline order for all of them
    for inst in family:
        ds = [j.deadline for j in inst.jobs]
        assert ds == sorted(ds)


def test_deadline_ordered_all_certified_feasible():
    for n in (4, 6, 8, 10):
        for inst in gen_deadline_ordered_family(2, n):
            assert optimum_preemptive(inst) <= 2


def test_deadline_ordered_edf_misses():
    for n in (4, 6, 8, 10):
        family = gen_deadline_ordered_family(2, n)
        assert any(
            simulate(inst, EDF(n - 2)).first_miss is not None for inst in family
        )


def test_deadline_ordered_rejects_bad_params():
    with pytest.raises(GeneratorError):
        gen_deadline_ordered_family(1, 4)
    with pytest.raises(GeneratorError):
        gen_deadline_ordered_family(4, 4)
    with pytest.raises(GeneratorError, match="needs n = m \\+ 1"):
        gen_deadline_ordered_family(3, 200)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_deadline_ordered_for_three_or_more_machines(m):
    # only n = m + 1 is feasible for m >= 3, since q(q - 1) < 1 there
    (only,) = gen_deadline_ordered_family(m, m + 1)
    assert optimum_preemptive(only) == m
    for n in (m + 2, m + 3):
        with pytest.raises(GeneratorError, match=f"m={m}, n={n}: J_{n - m - 1} "):
            gen_deadline_ordered_family(m, n)


def test_deadline_ordered_at_the_flow_limit():
    # total work 2^(n-1): (2, 31) stays below the 2^31 of the int32 kernel,
    # (2, 32) reaches it and (2, 60) is far past it; every member certifies
    for n in (31, 32, 60):
        family = gen_deadline_ordered_family(2, n)
        assert len(family) == n - 2
        assert family[-1].total_work == 2 ** (n - 1)


def test_llf_family_past_the_flow_limit_certifies():
    # c = 7 puts the total work past 2^31; the generator certifies it
    instance = gen_llf_lower_bound(2, 7, 8)
    assert instance.n == 2360
    assert instance.total_work >= 2**31
    assert is_feasible_preemptive(instance, 2)


# ---------------------------------------------------------------------------
# The 8/7 adversary game.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("factory", [EDF, LLF], ids=["edf", "llf"])
def test_eight_sevenths_forces_miss(factory):
    out = play_eight_sevenths(factory, 4, Fraction(9, 8))
    assert out.budget == 4  # floor(9/8 * 4)
    assert out.forced_miss
    assert out.miss is not None
    assert out.phases_played <= out.phase_limit
    # the final instance (all released jobs) is itself feasible on m
    assert is_feasible_preemptive(out.instance, out.m)


def test_eight_sevenths_residue_growth():
    out = play_eight_sevenths(EDF, 4, Fraction(9, 8))
    growth_floor = 4 * out.m * (1 - Fraction(7, 8) * out.c)
    residues = [ph.residue_before for ph in out.phases]
    for before, after in zip(residues, residues[1:]):
        assert Fraction(after - before) >= growth_floor


def test_eight_sevenths_rejects_parameters():
    with pytest.raises(GeneratorError):
        play_eight_sevenths(EDF, 3, Fraction(9, 8))
    with pytest.raises(GeneratorError):
        play_eight_sevenths(EDF, 4, Fraction(8, 7))


# ---------------------------------------------------------------------------
# Random profiles.
# ---------------------------------------------------------------------------


def test_gen_random_deterministic():
    a = gen_random("equal-p", 5, 7, p=3)
    b = gen_random("equal-p", 5, 7, p=3)
    assert a.instance.jobs == b.instance.jobs
    assert a.m_opt == b.m_opt


def test_gen_random_solves_no_flow_until_m_opt_is_read(monkeypatch):
    # a flow is either a network's maximum flow or a running optimum's,
    # which min_machines takes for small job sets: both are counted
    solves = []

    def counting(real):
        def counted(*args):
            solves.append(args)
            return real(*args)

        return counted

    monkeypatch.setattr(optimum, "maximum_flow", counting(optimum.maximum_flow))
    monkeypatch.setattr(
        optimum.RunningOptimum, "add", counting(optimum.RunningOptimum.add)
    )
    generated = gen_random("general", 12, 3)
    assert solves == []
    assert generated.m_opt == optimum_preemptive(generated.instance)
    assert solves


def _all_loose(inst, alpha):
    return all(is_loose(j.processing, j.window_length, alpha) for j in inst.jobs)


def _all_tight(inst, alpha):
    return not any(is_loose(j.processing, j.window_length, alpha) for j in inst.jobs)


# profile -> predicate(instance, alpha) that every draw satisfies
PROFILE_PREDICATES = {
    "general": lambda inst, alpha: True,
    "agreeable": lambda inst, alpha: inst.is_agreeable,
    "equal-p": lambda inst, alpha: inst.is_equal_processing,
    "uniform-d": lambda inst, alpha: inst.is_uniform_deadline,
    "alpha-loose": _all_loose,
    "alpha-tight": _all_tight,
    "agreeable-loose": lambda inst, alpha: (
        inst.is_agreeable and _all_loose(inst, alpha)
    ),
    "agreeable-tight": lambda inst, alpha: (
        inst.is_agreeable and _all_tight(inst, alpha)
    ),
    "uniform-loose": lambda inst, alpha: (
        inst.is_uniform_deadline and _all_loose(inst, alpha)
    ),
    "uniform-tight": lambda inst, alpha: (
        inst.is_uniform_deadline and _all_tight(inst, alpha)
    ),
    "half-tight": lambda inst, alpha: _all_tight(inst, Fraction(1, 2)),
}
ALPHA_PROFILES = (
    "alpha-loose",
    "alpha-tight",
    "agreeable-loose",
    "agreeable-tight",
    "uniform-loose",
    "uniform-tight",
)


def test_gen_random_profiles_hold():
    for profile in PROFILES:
        holds = PROFILE_PREDICATES[profile]
        for alpha in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
            for seed in range(50):
                generated = gen_random(profile, 10, seed, alpha=alpha)
                assert holds(generated.instance, alpha), (profile, alpha, seed)


@pytest.mark.parametrize("profile", ALPHA_PROFILES)
@pytest.mark.parametrize(
    "alpha", [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1)], ids=str
)
def test_gen_random_refuses_alpha_out_of_range(profile, alpha):
    with pytest.raises(GeneratorError, match=r"alpha must lie in \(0, 1\)"):
        gen_random(profile, 5, 0, alpha=alpha)


def test_profiles_that_read_no_alpha_ignore_it():
    for profile in set(PROFILES) - set(ALPHA_PROFILES):
        assert (
            gen_random(profile, 6, 3, alpha=Fraction(0)).instance.jobs
            == gen_random(profile, 6, 3).instance.jobs
        )


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("box", [(0, 5), (5, 0), (-1, 5)], ids=str)
def test_gen_random_refuses_an_empty_box(profile, box):
    horizon, max_len = box
    with pytest.raises(GeneratorError, match="must be >= 1"):
        gen_random(profile, 5, 0, horizon=horizon, max_len=max_len)


def test_uniform_loose_needs_room_for_a_loose_window():
    # at alpha = 1/4 a loose window is at least 4 long; d = 2 + 1 leaves none
    with pytest.raises(GeneratorError, match="smallest length 4"):
        gen_random("uniform-loose", 3, 0, horizon=2, max_len=1, alpha=Fraction(1, 4))
    generated = gen_random(
        "uniform-loose", 3, 0, horizon=3, max_len=1, alpha=Fraction(1, 4)
    )
    jobs = generated.instance.jobs
    assert all(j.window_length == 4 and j.processing == 1 for j in jobs)


def test_uniform_tight_draws_zero_laxity_unit_jobs():
    # the smallest tight window is 1: a unit job released one slot before
    # the common deadline, tight at every alpha
    draws = [
        gen_random("uniform-tight", 10, seed, alpha=Fraction(1, 2)).instance
        for seed in range(50)
    ]
    assert any(
        j.window_length == 1 and j.laxity == 0 for inst in draws for j in inst.jobs
    )


def test_gen_random_annotation():
    g = gen_random("general", 6, 9)
    assert g.m_opt == optimum_preemptive(g.instance)
    assert g.profile == "general"


def test_gen_random_unknown_profile():
    with pytest.raises(GeneratorError, match="unknown profile"):
        gen_random("nope", 3, 1)


def test_eight_sevenths_forces_nonpreemptive_edf_too():
    from machmin.engine import NonpreemptiveEDF

    out = play_eight_sevenths(NonpreemptiveEDF, 4, Fraction(9, 8))
    assert out.forced_miss
