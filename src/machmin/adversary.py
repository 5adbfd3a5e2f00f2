"""Lower-bound instance generators, random instance families, and the
adaptive equal-p adversary game.

Every adversarial instance (or released prefix of one) is certified feasible
on the claimed machine count by the flow oracle before it is trusted; a
certification failure is a generator bug and raises immediately.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from .engine import OnlinePolicy, Simulation
from .model import Instance, Job
from .optimum import is_feasible_preemptive, optimum_preemptive

__all__ = [
    "GeneratorError",
    "GeneratedInstance",
    "gen_llf_lower_bound",
    "gen_deadline_ordered_family",
    "PhaseRecord",
    "GameOutcome",
    "play_eight_sevenths",
    "gen_random",
    "PROFILES",
]


class GeneratorError(ValueError):
    """A generator was asked for parameters it cannot honour."""


def _certify(instance: Instance, m: int, label: str) -> None:
    if not is_feasible_preemptive(instance, m):
        raise GeneratorError(
            f"{label}: generated instance is not feasible on {m} machines; "
            "construction bug"
        )


# ---------------------------------------------------------------------------
# LLF lower-bound family.
# ---------------------------------------------------------------------------


def gen_llf_lower_bound(m: int, c: int, k: int) -> Instance:
    """The round-based family on which Least Laxity First wastes machines.

    Per round r = 1..k, one group of m/2 identical tight jobs (all deadlines
    at the common horizon) is released at the round start, and c(c-1) waves
    of cm/2 short loose jobs keep preempting them.  All quantities derive
    from x0 = c^(k+2) (c-1), which makes every release time, window length
    and processing time integral.

    Round r spans [t_r, t_{r+1}) with t_1 = 0 and t_{r+1} = t_r + x0/c^(r-1);
    its waves have length c x_r with x_r = c^(k+1-r), its loose jobs
    processing x_r and so laxity (c-1) x_r, and its tight jobs are released
    with laxity c^2 x_r.  Against LLF on cm/2 machines, a wave's loose jobs
    run first while all T tight jobs released so far wait x_r; in the rest
    of the wave at most cm/2 tight jobs run.  While the loose jobs keep
    that priority, each wave lowers the tight jobs' total laxity by
    T x_r + max(0, T - cm/2) (c-1) x_r.  For k <= c (so T <= cm/2) this
    is exact: every tight job ends round r with laxity c x_r, no loose job
    waits, and the k m/2 tight jobs finish in the tail [t_{k+1}, c^(k+3)),
    so LLF on cm/2 machines does not miss.  Measured first misses against
    cm/2 machines: k = 4 at (m, c) = (2, 2), (4, 2), (6, 2), (2, 3) and
    (4, 3), and k = 5 at (2, 4).  How this family relates to the paper's
    Omega(n^(1/3)) bound for LLF is not settled here.
    """
    if m < 2 or m % 2:
        raise GeneratorError(f"m must be even and >= 2, got {m}")
    if c < 2:
        raise GeneratorError(f"c must be an integer >= 2, got {c} (x_r integrality)")
    if k < 1:
        raise GeneratorError(f"k must be >= 1, got {k}")
    x0 = c ** (k + 2) * (c - 1)
    horizon = c ** (k + 3)  # x0 * c / (c - 1); all tight deadlines land here
    releases: list[tuple[int, int, int, int]] = []  # (release, kind, length, p)
    round_start = 0
    for r in range(1, k + 1):
        # tight group G_t(round_start, r-1): window length c^(k+4-r),
        # laxity c^(k+3-r), so processing x0 / c^(r-1)
        length = c ** (k + 4 - r)
        p_tight = x0 // c ** (r - 1)
        assert round_start + length == horizon
        for _ in range(m // 2):
            releases.append((round_start, 0, length, p_tight))
        x_r = c ** (k + 1 - r)
        for wave in range(c * (c - 1)):
            t = round_start + wave * c * x_r
            for _ in range(c * m // 2):
                releases.append((t, 1, c * x_r, x_r))
        round_start += x0 // c ** (r - 1)
    releases.sort(key=lambda e: (e[0], e[1]))
    jobs = [
        Job(i, t, t + length, p)
        for i, (t, _kind, length, p) in enumerate(releases)
    ]
    instance = Instance(jobs)
    _certify(instance, m, "llf lower bound")
    return instance


# ---------------------------------------------------------------------------
# Deadline-ordered family.
# ---------------------------------------------------------------------------


def gen_deadline_ordered_family(m: int, n: int) -> tuple[Instance, ...]:
    """Instances J_1..J_{n-m} with one job multiset and shifting deadlines.

    All jobs are released at 0.  With q = m/(m-1): the first m jobs are unit
    jobs, job m+j has processing q^j.  In J_k the first m+k jobs are due at
    q^k (so their volume exactly fills m machines up to that deadline) and
    the rest at q^(n-m+1).  Everything is scaled by (m-1)^(n-m+1) to stay
    integral.  Each J_k is certified feasible on m machines; any fixed
    deadline-ordered schedule serving the whole family needs about n-1.

    For m >= 3 only n = m + 1 is feasible: J_{n-m-1} fills all m machines
    up to q^(n-m-1), and its tail job of q^(n-m) then fits before q^(n-m+1)
    only if q(q - 1) >= 1, which holds for m = 2 alone.
    """
    if not 2 <= m < n:
        raise GeneratorError(f"need 2 <= m < n, got m={m}, n={n}")
    if m >= 3 and n > m + 1:
        raise GeneratorError(
            f"m >= 3 needs n = m + 1, got m={m}, n={n}: J_{n - m - 1} leaves "
            f"its tail job no room, as q(q - 1) = m/(m-1)^2 < 1"
        )
    scale = (m - 1) ** (n - m + 1)

    def q_pow(e: int) -> int:  # q^e * scale, exactly
        return m**e * (m - 1) ** (n - m + 1 - e)

    tail_deadline = q_pow(n - m + 1)
    processing = [scale] * m + [q_pow(j) for j in range(1, n - m + 1)]
    family = []
    for k in range(1, n - m + 1):
        due_k = q_pow(k)
        jobs = [
            Job(
                j,
                0,
                due_k if j < m + k else tail_deadline,
                processing[j],
            )
            for j in range(n)
        ]
        instance = Instance(jobs)
        _certify(instance, m, f"deadline-ordered J_{k}")
        family.append(instance)
    return tuple(family)


# ---------------------------------------------------------------------------
# The adaptive 8/7 adversary game (equal processing times p = 2).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseRecord:
    t: int
    tight_ids: tuple[int, ...]
    loose_ids: tuple[int, ...]
    residue_before: int  # active work at the phase start, all due t+3
    trapped: bool


@dataclass(frozen=True)
class GameOutcome:
    m: int
    c: Fraction
    budget: int
    phases: tuple[PhaseRecord, ...]
    forced_miss: bool
    miss: tuple[int, int] | None
    trap_ids: tuple[int, ...]
    phase_limit: int
    instance: Instance

    @property
    def phases_played(self) -> int:
        return len(self.phases)


def play_eight_sevenths(
    policy_factory: Callable[[int], OnlinePolicy],
    m: int,
    c: Fraction = Fraction(9, 8),
) -> GameOutcome:
    """Adaptive adversary against a concrete semi-online policy at budget
    floor(c*m), c < 8/7, p = 2 throughout.

    Per phase at time t: release m tight jobs (due t+3) and m/2 loose jobs
    (due t+6).  At t+2, if the policy still owes more than 2m(c-1) work due
    at t+3, spring the trap: release m fresh jobs due t+4, which cannot all
    fit.  Otherwise the loose-work residue grows phase over phase and the
    game ends after ceil(3cm)+2 phases at the latest.  Every released prefix
    is certified feasible on m machines; m/2 loose jobs per phase is the
    most volume that keeps the prefixes feasible (per phase OPT has exactly
    3m slot capacity against 2m tight volume), and it guarantees residue
    growth of m(9/2 - 4c) per non-terminal phase, positive below c = 9/8.
    Machine budgets are integral, so floor(c*m) < c*m usually grants the
    adversary extra slack beyond that floor.
    """
    c = Fraction(c)
    if m < 2 or m % 2:
        raise GeneratorError(f"m must be even and >= 2, got {m}")
    if not 1 <= c < Fraction(8, 7):
        raise GeneratorError(f"c must lie in [1, 8/7), got {c}")
    budget = int(c * m)  # floor
    policy = policy_factory(budget)
    sim = Simulation(policy)
    released: list[Job] = []
    next_id = 0
    threshold = 2 * m * (c - 1)
    phase_limit = math.ceil(3 * c * m) + 2
    phases: list[PhaseRecord] = []
    trap_ids: tuple[int, ...] = ()
    forced = False

    def release(count: int, r: int, d: int) -> tuple[int, ...]:
        nonlocal next_id
        batch = [Job(next_id + i, r, d, 2) for i in range(count)]
        next_id += count
        released.extend(batch)
        sim.add_jobs(batch)
        _certify(Instance(released), m, "8/7 game prefix")
        return tuple(job.id for job in batch)

    for _ in range(phase_limit):
        t = sim.t
        residue = sim.total_remaining()
        tight_ids = release(m, t, t + 3)
        loose_ids = release(m // 2, t, t + 6)
        sim.step()
        sim.step()
        owed = sim.total_remaining(due_by=t + 3)
        trapped = Fraction(owed) > threshold
        phases.append(PhaseRecord(t, tight_ids, loose_ids, residue, trapped))
        if trapped:
            trap_ids = release(m, t + 2, t + 4)
            sim.run_until(t + 4)
            forced = True
            break
        sim.step()
        if sim.misses:
            forced = True
            break
    miss = sim.misses[0] if sim.misses else None
    return GameOutcome(
        m=m,
        c=c,
        budget=budget,
        phases=tuple(phases),
        forced_miss=forced and miss is not None,
        miss=miss,
        trap_ids=trap_ids,
        phase_limit=phase_limit,
        instance=Instance(released),
    )


# ---------------------------------------------------------------------------
# Seeded random instance families.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratedInstance:
    instance: Instance
    profile: str
    seed: int

    @property
    def m_opt(self) -> int:
        """The flow-oracle preemptive optimum: ``optimum_preemptive`` solves
        it at the first read and keeps it on the instance, where every later
        read, and every other caller on the same instance, finds it."""
        return optimum_preemptive(self.instance)


Rule = Callable[[random.Random, int], int]  # (rng, window) -> processing time
Draw = Callable[[random.Random, int, int, int], list[Job]]  # (rng, n, horizon, max_len)


def _free(min_w: int, rule: Rule, rng, n, horizon, max_len) -> list[Job]:
    """Releases in [0, horizon), windows in [min_w, max(min_w, max_len)]."""
    top = max(min_w, max_len)
    jobs = []
    for i in range(n):
        r = rng.randrange(0, horizon)
        w = rng.randint(min_w, top)
        jobs.append(Job(i, r, r + w, rule(rng, w)))
    return jobs


def _agreeable(min_w: int, rule: Rule, rng, n, horizon, max_len) -> list[Job]:
    """Sorted releases; each deadline is the later of the previous one and
    the release plus a window drawn as in ``_free``."""
    top = max(min_w, max_len)
    jobs = []
    d = 0
    for i, r in enumerate(sorted(rng.randrange(0, horizon) for _ in range(n))):
        d = max(d, r + rng.randint(min_w, top))
        jobs.append(Job(i, r, d, rule(rng, d - r)))
    return jobs


def _common_deadline(min_w: int, rule: Rule, rng, n, horizon, max_len) -> list[Job]:
    """One deadline d = horizon + max_len, releases in [0, d - min_w]."""
    d = horizon + max_len
    if d < min_w:
        raise GeneratorError(
            f"horizon + max_len = {d} leaves no window of the smallest length {min_w}"
        )
    jobs = []
    for i in range(n):
        r = rng.randrange(0, d - min_w + 1)
        jobs.append(Job(i, r, d, rule(rng, d - r)))
    return jobs


def _uniform_d(rng, n, horizon, max_len) -> list[Job]:
    d = horizon + max_len
    jobs = []
    for i in range(n):
        p = rng.randint(1, max_len)
        jobs.append(Job(i, rng.randrange(0, d - p + 1), d, p))
    return jobs


def _any_p(rng: random.Random, w: int) -> int:
    return rng.randint(1, w)


def _fixed_p(p: int) -> tuple[int, Rule]:
    if p < 1:
        raise GeneratorError("equal-p profile needs p >= 1")
    return p, lambda rng, w: p


def _alpha_rule(alpha: Fraction, *, tight: bool) -> tuple[int, Rule]:
    """The smallest window and the processing rule of an alpha-loose job
    (p <= alpha w) or an alpha-tight one (p > alpha w)."""
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise GeneratorError(f"alpha must lie in (0, 1), got {alpha}")
    num, den = alpha.numerator, alpha.denominator
    if tight:
        return 1, lambda rng, w: rng.randint(num * w // den + 1, w)
    return math.ceil(1 / alpha), lambda rng, w: rng.randint(1, num * w // den)


# profile -> (p, alpha) -> draw(rng, n, horizon, max_len) -> jobs
_DRAWS: dict[str, Callable[[int, Fraction], Draw]] = {
    "general": lambda p, alpha: partial(_free, 1, _any_p),
    "agreeable": lambda p, alpha: partial(_agreeable, 1, _any_p),
    "equal-p": lambda p, alpha: partial(_free, *_fixed_p(p)),
    "uniform-d": lambda p, alpha: _uniform_d,
    "alpha-loose": lambda p, alpha: partial(_free, *_alpha_rule(alpha, tight=False)),
    "alpha-tight": lambda p, alpha: partial(_free, *_alpha_rule(alpha, tight=True)),
    "agreeable-loose": lambda p, alpha: partial(
        _agreeable, *_alpha_rule(alpha, tight=False)
    ),
    "agreeable-tight": lambda p, alpha: partial(
        _agreeable, *_alpha_rule(alpha, tight=True)
    ),
    "uniform-loose": lambda p, alpha: partial(
        _common_deadline, *_alpha_rule(alpha, tight=False)
    ),
    "uniform-tight": lambda p, alpha: partial(
        _common_deadline, *_alpha_rule(alpha, tight=True)
    ),
    "half-tight": lambda p, alpha: partial(
        _free, *_alpha_rule(Fraction(1, 2), tight=True)
    ),
}

PROFILES = tuple(_DRAWS)


def gen_random(
    profile: str,
    n: int,
    seed: int,
    *,
    horizon: int | None = None,
    max_len: int | None = None,
    p: int = 3,
    alpha: Fraction = Fraction(1, 2),
) -> GeneratedInstance:
    """Deterministic seeded instance with the profile's predicate holding
    exactly; its ``m_opt`` is the flow-oracle preemptive optimum.

    Each profile is a window shape, a smallest window min_w and a
    processing rule.  The free shape draws releases in [0, horizon) and
    windows in [min_w, max(min_w, max_len)]; the agreeable shape sorts
    those releases and raises each deadline to at least the previous one;
    the common-deadline shape sets d = horizon + max_len and draws
    releases in [0, d - min_w].

    ===============  ===============  =======  ========================
    profile          shape            min_w    p on a window w
    ===============  ===============  =======  ========================
    general          free             1        [1, w]
    agreeable        agreeable        1        [1, w]
    equal-p          free             p        p
    alpha-loose      free             ⌈1/α⌉    [1, ⌊αw⌋]
    alpha-tight      free             1        [⌊αw⌋ + 1, w]
    agreeable-loose  agreeable        ⌈1/α⌉    [1, ⌊αw⌋]
    agreeable-tight  agreeable        1        [⌊αw⌋ + 1, w]
    uniform-loose    common deadline  ⌈1/α⌉    [1, ⌊αw⌋]
    uniform-tight    common deadline  1        [⌊αw⌋ + 1, w]
    half-tight       free             1        [⌊w/2⌋ + 1, w]
    ===============  ===============  =======  ========================

    ``uniform-d`` draws p in [1, max_len] first, then the release in
    [0, d - p], against d = horizon + max_len.  A profile that reads α
    needs 0 < α < 1; every profile needs horizon >= 1 and max_len >= 1.
    Anything else raises ``GeneratorError``.
    """
    if n < 1:
        raise GeneratorError("n must be >= 1")
    rng = random.Random(seed)
    horizon = horizon if horizon is not None else max(2, 2 * n)
    max_len = max_len if max_len is not None else max(3, n)
    if horizon < 1 or max_len < 1:
        raise GeneratorError(
            f"horizon and max_len must be >= 1, got {horizon} and {max_len}"
        )
    make = _DRAWS.get(profile)
    if make is None:
        raise GeneratorError(
            f"unknown profile {profile!r}; known: {', '.join(PROFILES)}"
        )
    jobs = make(p, alpha)(rng, n, horizon, max_len)
    return GeneratedInstance(instance=Instance(jobs), profile=profile, seed=seed)
