"""Acceptance suite: one test per criterion, at the stated sample counts and
exact budgets.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS line per criterion.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from machmin.adversary import (
    gen_deadline_ordered_family,
    gen_llf_lower_bound,
    gen_random,
    play_eight_sevenths,
)
from machmin.composite import (
    agreeable_nonpreemptive,
    agreeable_preemptive,
    double_wrap,
    equal_p_nonpreemptive_semi_run,
    uniform_deadline_nonpreemptive,
    uniform_deadline_preemptive,
)
from machmin.engine import (
    EDF,
    LLF,
    EarlyFit,
    MediumFit,
    Simulation,
    check_load_inequality,
    simulate,
)
from machmin.harness import CampaignConfig, bench, rows_to_csv
from machmin.logn import (
    LAXITY_FLOOR,
    LaxityTransformSpec,
    TransformKind,
    logn_schedule,
    transform,
)
from machmin.model import Instance, Job, scale_instance, serialize_trace
from machmin.optimum import (
    ceil_frac,
    feasible_preemptive,
    is_feasible_preemptive,
    optimum_nonpreemptive_exact,
    optimum_preemptive,
    strong_density_exact,
)

DATA = Path(__file__).parent / "data"


def _report(criterion: str, detail: str) -> None:
    print(f"[ACCEPTANCE {criterion}] PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. Strong-density theorem: ceil(rho_s) == flow optimum on 1000 instances,
#    with rho_s enumerated over unit-slot subsets, independently of the flow.
# ---------------------------------------------------------------------------


def density_scan(instance: Instance) -> Fraction:
    """Best contribution/length ratio over all non-empty subsets of occupied
    unit slots, enumerated as bitmasks.

    Restricting to occupied slots is lossless: an unoccupied slot adds
    nothing to any contribution but inflates the length.
    """
    slots = sorted({t for j in instance.jobs for t in range(j.release, j.deadline)})
    k = len(slots)
    masks = np.arange(1, 1 << k, dtype=np.uint64)
    den = np.bitwise_count(masks).astype(np.int64)
    num = np.zeros(masks.shape, dtype=np.int64)
    for job in instance.jobs:
        wmask = np.uint64(0)
        for i, t in enumerate(slots):
            if job.release <= t < job.deadline:
                wmask |= np.uint64(1) << np.uint64(i)
        covered = np.bitwise_count(masks & wmask).astype(np.int64)
        num += np.maximum(covered - job.laxity, 0)
    # Exact argmax of num/den: score by num * (K // den) with K = lcm(1..k),
    # so ties in score are exact ties in value.
    K = math.lcm(*range(1, k + 1))
    best = int(np.argmax(num * (K // den)))
    return Fraction(int(num[best]), int(den[best]))


def test_acceptance_1_strong_density_theorem():
    checked = 0
    for seed in range(1000):
        n = 1 + seed % 8
        g = gen_random("general", n, seed, horizon=8, max_len=8)
        assert g.instance.d_max <= 16
        rho = density_scan(g.instance)
        assert ceil_frac(rho) == g.m_opt, (seed, rho, g.m_opt)
        assert strong_density_exact(g.instance) == rho, seed
        checked += 1
    assert checked == 1000
    _report("1", f"ceil(rho_s) == optimum and min-cut rho_s == enumerated "
            f"rho_s on {checked}/1000 instances")


# ---------------------------------------------------------------------------
# 2. Loose-EDF bound with the busy-load inequality, exact at every step.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha", [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)], ids=str
)
def test_acceptance_2_loose_edf_bound(alpha):
    budget_factor = 1 / (1 - alpha) ** 2
    for seed in range(500):
        n = 4 + seed % 6
        g = gen_random("alpha-loose", n, seed, alpha=alpha)
        m = g.m_opt
        witness = feasible_preemptive(g.instance, m).witness
        run = simulate(g.instance, EDF(ceil_frac(budget_factor * m)))
        assert run.first_miss is None, (alpha, seed)
        ok, violation = check_load_inequality(run, witness, m, alpha)
        assert ok, (alpha, seed, violation)
    _report(
        "2",
        f"alpha={alpha}: 500 loose instances, zero misses at "
        f"ceil(m/(1-a)^2), load inequality exact at every step",
    )


# ---------------------------------------------------------------------------
# 3. Special-case bounds at the exact Table-1 budgets, 300 instances each.
# ---------------------------------------------------------------------------


def _np_m(instance: Instance) -> int:
    return optimum_nonpreemptive_exact(instance)


def test_acceptance_3_llf_uniform_factor_1():
    for seed in range(300):
        g = gen_random("uniform-d", 5 + seed % 6, seed)
        run = uniform_deadline_preemptive(g.instance, g.m_opt)
        assert run.first_miss is None, seed
        assert run.peak_concurrency <= g.m_opt
    _report("3.llf-uniform", "LLF@m, 300 uniform-deadline instances, factor 1")


def test_acceptance_3_edf_equal_p_at_3m():
    for seed in range(300):
        g = gen_random("equal-p", 5 + seed % 6, seed, p=2 + seed % 3)
        run = simulate(g.instance, EDF(3 * g.m_opt))
        assert run.first_miss is None, seed
    _report("3.edf-equalp", "EDF@3m, 300 equal-p instances, zero misses")


def test_acceptance_3_equal_p_semi_at_4m():
    for seed in range(300):
        g = gen_random("equal-p", 5 + seed % 5, seed, p=2 + seed % 2)
        m = _np_m(g.instance)
        run = equal_p_nonpreemptive_semi_run(g.instance, m)
        assert run.first_miss is None, seed
        assert run.machines_used <= 4 * m, seed
    _report("3.equalp-semi", "rounding algorithm @4m, 300 instances")


def test_acceptance_3_agreeable_preemptive_at_18m():
    for seed in range(300):
        g = gen_random("agreeable", 5 + seed % 6, seed)
        run = agreeable_preemptive(g.instance, g.m_opt)
        assert run.first_miss is None, seed
        assert run.machines_used <= 18 * g.m_opt, seed
    _report("3.agreeable-p", "EDF+LLF split @18m, 300 agreeable instances")


def test_acceptance_3_agreeable_nonpreemptive_at_9m():
    for seed in range(300):
        g = gen_random("agreeable", 5 + seed % 5, seed)
        m = _np_m(g.instance)
        run = agreeable_nonpreemptive(g.instance, m)
        assert run.first_miss is None, seed
        assert run.machines_used <= 9 * m, seed
    _report("3.agreeable-np", "EDF-np+MediumFit split @9m, 300 instances")


def test_acceptance_3_uniform_nonpreemptive_at_5_25m():
    for seed in range(300):
        g = gen_random("uniform-d", 5 + seed % 5, seed)
        m = _np_m(g.instance)
        run = uniform_deadline_nonpreemptive(g.instance, m)
        assert run.first_miss is None, seed
        assert run.machines_used <= ceil_frac(Fraction(21, 4) * m), seed
    _report("3.uniform-np", "EarlyFit+EDF-np split @ceil(5.25m), 300 instances")


def test_acceptance_3_mediumfit_tight_agreeable():
    alpha = Fraction(1, 2)
    bound_factor = 2 * math.ceil(1 / alpha) + 1  # 5
    for seed in range(300):
        g = gen_random("agreeable-tight", 5 + seed % 5, seed, alpha=alpha)
        m = _np_m(g.instance)
        run = simulate(scale_instance(g.instance, 2), MediumFit())
        assert run.first_miss is None, seed
        assert run.machines_used <= bound_factor * m, seed
    _report(
        "3.mediumfit",
        "MediumFit on 1/2-tight agreeable @5m, 300 instances",
    )


def test_acceptance_3_earlyfit_uniform_tight():
    alpha = Fraction(1, 3)
    bound_factor = math.ceil(1 / alpha)  # 3
    for seed in range(300):
        g = gen_random("uniform-tight", 5 + seed % 5, seed, alpha=alpha)
        m = _np_m(g.instance)
        run = simulate(g.instance, EarlyFit())
        assert run.first_miss is None, seed
        assert run.machines_used <= bound_factor * m, seed
    _report(
        "3.earlyfit",
        "EarlyFit on 1/3-tight uniform-deadline @3m, 300 instances",
    )


# ---------------------------------------------------------------------------
# 4. Double reduction arithmetic on synthetic growth patterns.
# ---------------------------------------------------------------------------


def _batches(sizes, width=4):
    jobs = []
    t = 0
    for size in sizes:
        for _ in range(size):
            jobs.append(Job(len(jobs), t, t + width, width))
        t += width
    return Instance(jobs)


def test_acceptance_4_double_reduction():
    patterns = {
        "constant": [3, 3, 3, 3],
        "doubling": [1, 3, 7, 15],
        "bursty": [1, 1, 5, 5, 23, 23],
    }
    checked = 0
    for factor in (1, 2, 4):
        for name, sizes in patterns.items():
            inst = _batches(sizes)
            run = double_wrap(inst, lambda semi: EDF(factor * semi), factor)
            assert run.first_miss is None, (factor, name)
            epochs = run.extras["epochs"]
            m_final = run.extras["m_final"]
            total = sum(block for _, _, block in epochs)
            assert total <= 4 * factor * m_final, (factor, name)
            k = len(epochs) - 1
            for i, (_, m_i, _) in enumerate(epochs[:-1]):
                assert 2 * m_i * 2 ** (k - i - 1) <= epochs[-1][1], (factor, name)
            checked += 1
    assert checked == 9
    _report(
        "4",
        "total opened <= 4*a*m(final) and the epoch inequality hold on "
        "constant/doubling/bursty traces for a in {1,2,4}",
    )


# ---------------------------------------------------------------------------
# 5. The general partition scheduler on 500 instances, n up to 200.
# ---------------------------------------------------------------------------


def test_acceptance_5_logn():
    sizes = (
        [4 + s % 57 for s in range(460)]
        + [70 + 2 * i for i in range(30)]
        + [140, 150, 160, 170, 180, 190, 195, 200, 185, 200]
    )
    assert len(sizes) == 500 and max(sizes) == 200
    alpha = Fraction(1, 2)
    worst_c = 0.0
    floor_seen = None
    for seed, n in enumerate(sizes):
        g = gen_random(
            "general", n, seed, horizon=max(10, n), max_len=max(6, n // 3)
        )
        run = logn_schedule(g.instance, g.m_opt, alpha)
        assert run.first_miss is None, (seed, n)
        ratio = run.extras["min_critical_laxity_ratio"]
        if ratio is not None:
            assert ratio >= LAXITY_FLOOR, (seed, n, ratio)
            if floor_seen is None or ratio < floor_seen:
                floor_seen = ratio
        for _t, h, _mu, m_hat in run.extras["rebuilds"]:
            assert h <= 1 + (2 + 2 / alpha) * m_hat, (seed, n)
        if n >= 2:
            worst_c = max(
                worst_c, run.machines_used / (g.m_opt * math.log2(n))
            )
    _report(
        "5",
        f"500 instances (n up to 200): zero misses; laxity floor "
        f">= 0.355 (min seen: {floor_seen}); group bound holds at every "
        f"rebuild; measured C = {worst_c:.3f} in machines <= C*m*log2(n)",
    )


# ---------------------------------------------------------------------------
# 6. Laxity transforms: optimum bounds via the flow oracle on both sides.
# ---------------------------------------------------------------------------


def test_acceptance_6_shortened_variants():
    gammas = (Fraction(1, 2), Fraction(1, 4))
    for seed in range(500):
        g = gen_random("general", 5 + seed % 5, seed)
        base = scale_instance(g.instance, 4)  # covers both gamma values
        m0 = optimum_preemptive(base)
        for gamma in gammas:
            for kind in (TransformKind.LEFT_SHORTENED, TransformKind.RIGHT_SHORTENED):
                shortened = transform(base, LaxityTransformSpec(kind, gamma))
                m1 = optimum_preemptive(shortened)
                assert m1 <= ceil_frac(Fraction(m0) / gamma), (seed, kind, gamma)
    _report(
        "6.shortened",
        "500 instances: m(shortened) <= ceil(m/gamma) for gamma in {1/2, 1/4}, "
        "both sides",
    )


def test_acceptance_6_laxity_drop():
    betas = (Fraction(1, 2), Fraction(1, 4))
    for seed in range(500):
        g = gen_random("half-tight", 5 + seed % 5, seed)
        base = scale_instance(g.instance, 4)
        m0 = optimum_preemptive(base)
        for beta in betas:
            dropped = transform(
                base, LaxityTransformSpec(TransformKind.SCALE_LAXITY, beta)
            )
            m1 = optimum_preemptive(dropped)
            assert m0 <= m1, (seed, beta)
            assert m1 <= ceil_frac(Fraction(4 * m0) / beta), (seed, beta)
    _report(
        "6.laxity-drop",
        "500 half-tight instances: m(J_beta) <= ceil(4m/beta) for "
        "beta in {1/2, 1/4}",
    )


# ---------------------------------------------------------------------------
# 7. Lower-bound generators.
# ---------------------------------------------------------------------------


def test_acceptance_7a_deadline_ordered():
    for n in range(4, 11):
        family = gen_deadline_ordered_family(2, n)
        for inst in family:
            assert is_feasible_preemptive(inst, 2), n
        assert any(
            simulate(inst, EDF(n - 2)).first_miss is not None for inst in family
        ), n
    _report(
        "7a",
        "deadline-ordered families (m=2, n=4..10): every J_k certified "
        "feasible at m; EDF at n-2 machines misses on at least one J_k",
    )


def _llf_family_laxity_sums(m, c, k):
    """Total laxity of the LLF family's tight jobs at each round end, derived
    from the construction for LLF at cm/2 machines.

    Each wave's cm/2 loose jobs run first, so all T tight jobs released so
    far wait x_i; in the rest of the wave, (c-1) x_i, all but cm/2 of them
    wait again.  A job loses one unit of laxity per unit it waits.
    """
    chat_m = c * m // 2
    tight = total = 0
    sums = []
    for i in range(1, k + 1):
        tight += m // 2
        total += m // 2 * c ** (k + 3 - i)  # laxity at release
        x_i = c ** (k + 1 - i)
        waiting = tight * x_i + max(0, tight - chat_m) * (c - 1) * x_i
        total -= c * (c - 1) * waiting
        sums.append(total)
    return sums


@pytest.mark.parametrize("k", [1, 2, 3])
def test_acceptance_7b_llf_family(k):
    # At (m=2, c=2) and k <= 3 the construction erodes the tight jobs but
    # forces no miss, so this test asserts that LLF at cm/2 = 2 machines
    # does NOT miss there.  While at most cm/2 tight jobs exist, each ends
    # round i with laxity exactly c*x_i; for k <= c all of them fit the tail.
    # At k = 3 the derived residual, 16, exactly fills the tail's capacity.
    # The first miss, at k = 4, is pinned by
    # tests/test_adversary.py::test_llf_family_first_miss_thresholds.
    m, c = 2, 2
    chat_m = c * m // 2
    inst = gen_llf_lower_bound(m, c, k)
    assert is_feasible_preemptive(inst, m), k

    x0 = c ** (k + 2) * (c - 1)
    horizon = c ** (k + 3)
    sim = Simulation(LLF(chat_m))
    sim.add_jobs(inst.jobs)
    round_end = 0
    for i, laxity_sum in enumerate(_llf_family_laxity_sums(m, c, k), 1):
        round_end += x0 // c ** (i - 1)
        sim.run_until(round_end)
        laxities = [
            horizon - round_end - state.remaining
            for state in sim.active.values()
            if state.job.deadline == horizon
        ]
        assert len(laxities) == i * m // 2, (k, i, laxities)
        assert sum(laxities) == laxity_sum, (k, i, laxities, laxity_sum)
        if len(laxities) <= chat_m:
            assert set(laxities) == {c ** (k + 2 - i)}, (k, i, laxities)
        assert not sim.misses, (k, i, sim.misses)

    tail = horizon - round_end
    residual = len(laxities) * tail - laxity_sum
    assert residual <= chat_m * tail, (k, residual, tail)
    run = simulate(inst, LLF(chat_m))
    assert run.first_miss is None, (
        f"k={k}: LLF at {chat_m} machines misses at {run.first_miss}, but the "
        f"tight residual {residual} fits the tail capacity {chat_m * tail}"
    )
    _report(
        "7b",
        f"LLF family k={k}: certified feasible at m={m}; LLF@{chat_m} erodes "
        f"the tight laxity as derived; residual {residual} fits the tail "
        f"capacity {chat_m * tail}, and LLF does not miss",
    )


def test_acceptance_7c_eight_sevenths_game():
    c = Fraction(9, 8)
    growth_floor = 4 * 4 * (1 - Fraction(7, 8) * c)
    for name, factory in (("edf", EDF), ("llf", LLF)):
        out = play_eight_sevenths(factory, 4, c)
        assert out.budget == 4  # floor(9m/8) at m=4
        assert out.forced_miss, name
        assert out.phases_played <= out.phase_limit, name
        residues = [ph.residue_before for ph in out.phases]
        for before, after in zip(residues, residues[1:]):
            assert Fraction(after - before) >= growth_floor, name
        assert is_feasible_preemptive(out.instance, out.m), name
    _report(
        "7c",
        "8/7 game: EDF and LLF at floor(9m/8)=4 machines forced to miss "
        f"within ceil(3cm)+2 phases; per-phase residue growth >= {growth_floor}",
    )


# ---------------------------------------------------------------------------
# 8. Determinism: byte-identical CSV and traces, against golden files.
# ---------------------------------------------------------------------------


def test_acceptance_8_determinism():
    config = CampaignConfig(
        profile="agreeable",
        n=7,
        count=6,
        seed0=11,
        policies=("agreeable-p", "edf@4", "logn"),
    )
    first = rows_to_csv(bench(config))
    second = rows_to_csv(bench(config))
    assert first == second
    golden_csv = (DATA / "golden_acceptance_bench.csv").read_bytes()
    assert first.encode() == golden_csv

    g = gen_random("general", 12, 5, horizon=20, max_len=8)
    trace_a = serialize_trace(
        logn_schedule(g.instance, g.m_opt).to_preemptive_schedule()
    )
    trace_b = serialize_trace(
        logn_schedule(g.instance, g.m_opt).to_preemptive_schedule()
    )
    assert trace_a == trace_b
    golden_trace = (DATA / "golden_acceptance_trace.txt").read_bytes()
    assert trace_a.encode() == golden_trace
    _report("8", "bench CSV and logn trace byte-identical across runs and golden")
