"""Special-case schedulers built from the base policies, and the Double
reduction from the online to the semi-online problem.

Every special-case scheduler is a row of ``COMPOSITES``: it splits the jobs
into pools (loose/tight by alpha, or critical/non-critical on the p-grid),
and each pool runs on its own ``ceil(factor * m)`` machines.  Its online form
puts the pools that need m behind Double: one Double around the whole split
when every pool does, else one around each pool that does.

Every machine budget of the form ``factor * m`` is computed in exact
rationals and ceiled once; ceilings are never compounded through floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Hashable, Mapping, Protocol, Sequence

from .engine import (
    EDF,
    LLF,
    EarlyFit,
    MediumFit,
    NonpreemptiveEDF,
    OnlinePolicy,
    SimulationRun,
    edf_select,
    merge_starts,
    simulate,
)
from .model import Instance, Job, JobState, NonpreemptiveSchedule, is_loose
from .optimum import (
    RunningOptimum,
    _keep_preemptive,
    ceil_frac,
    density_equal_p,
    optimum_nonpreemptive_exact,
    optimum_preemptive,
)

__all__ = [
    "SplitScheduler",
    "Double",
    "DoubleEpoch",
    "double_wrap",
    "Composite",
    "COMPOSITES",
    "agreeable_preemptive",
    "agreeable_preemptive_online",
    "agreeable_nonpreemptive",
    "agreeable_nonpreemptive_online",
    "equal_p_nonpreemptive_semi",
    "equal_p_nonpreemptive_semi_run",
    "equal_p_nonpreemptive_online",
    "equal_p_offline_approx",
    "equal_p_online",
    "EQUAL_P_ONLINE_ALPHA",
    "equal_p_online_budget_factor",
    "uniform_deadline_preemptive",
    "uniform_deadline_preemptive_online",
    "uniform_deadline_nonpreemptive",
    "uniform_deadline_nonpreemptive_online",
    "is_critical",
    "round_noncritical",
]


def _budget(factor: Fraction | int, m: int) -> int:
    return ceil_frac(Fraction(factor) * m)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _tightness(alpha: Fraction) -> Callable[[Job], str]:
    """Router to the "loose" or the "tight" pool by tightness at release."""
    return lambda job: (
        "loose" if is_loose(job.processing, job.window_length, alpha) else "tight"
    )


class SplitScheduler(OnlinePolicy):
    """Sub-policies on disjoint machine pools; each job is routed to exactly
    one pool when it is released, and stays there."""

    name = "split"

    def __init__(
        self,
        route: Callable[[Job], Hashable],
        pools: Mapping[Hashable, OnlinePolicy],
        name: str | None = None,
    ):
        self._route = route
        self.pools = dict(pools)
        if name:
            self.name = name
        self.routing: dict[int, Hashable] = {}
        self._peaks = {key: 0 for key in self.pools}

    def on_release(self, jobs: Sequence[Job], t: int) -> None:
        batches: dict[Hashable, list[Job]] = {}
        for job in jobs:
            pool = self._route(job)
            if pool not in self.pools:
                raise ValueError(f"router returned unknown pool {pool!r}")
            self.routing[job.id] = pool
            batches.setdefault(pool, []).append(job)
        for pool, batch in batches.items():
            self.pools[pool].on_release(batch, t)

    def select(self, t: int, active: Mapping[int, JobState]) -> set[int]:
        views: dict[Hashable, dict[int, JobState]] = {key: {} for key in self.pools}
        for j, state in active.items():
            views[self.routing[j]][j] = state
        chosen: set[int] = set()
        for key, view in views.items():
            sel = self.pools[key].select(t, view)
            self._peaks[key] = max(self._peaks.get(key, 0), len(sel))
            chosen |= sel
        return chosen

    def pool_usage(self, key: Hashable) -> int:
        override = self.pools[key].machines_used()
        return override if override is not None else self._peaks[key]

    def machines_used(self) -> int:
        return sum(self.pool_usage(key) for key in self.pools)

    def current_budget(self) -> int | None:
        budgets = [pool.current_budget() for pool in self.pools.values()]
        if any(b is None for b in budgets):
            return None
        return sum(budgets)

    def starts(self) -> dict[int, int] | None:
        return merge_starts(self.pools.values())

    def extras(self) -> dict:
        return {"pool_peaks": dict(self._peaks)}


# ---------------------------------------------------------------------------
# The Double reduction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleEpoch:
    index: int
    start: int
    m_at_start: int
    block: int  # machines opened with this epoch: ceil(2 * factor * m_at_start)


class RunningOracle(Protocol):
    """The running optimum of a released prefix: ``add(jobs, lower)`` adds
    the jobs released now and returns the least m >= lower on which the
    whole prefix fits.  The optimum of a growing prefix is monotone, so the
    previous value is a valid lower bound."""

    def add(self, jobs: Sequence[Job], lower: int) -> int: ...


# One fresh running optimum per run.
PrefixOracle = Callable[[], RunningOracle]


class Double(SplitScheduler):
    """Epoch-doubling wrapper: whenever the running optimum more than
    doubles, open a fresh block of ``ceil(2 * factor * m(t_i))`` machines and
    hand all jobs released from then on to a fresh semi-online sub-policy
    configured with optimum ``2 * m(t_i)``.  Each epoch is one pool, and the
    router sends every release to the newest.
    """

    name = "double"

    def __init__(
        self,
        factory: Callable[[int], OnlinePolicy],
        factor: Fraction | int,
        oracle: PrefixOracle = RunningOptimum,
        name: str | None = None,
    ):
        super().__init__(lambda job: len(self.epochs) - 1, {}, name=name)
        self._factory = factory
        self.factor = Fraction(factor)
        self._optimum = oracle()
        self._last_m = 0
        self.epochs: list[DoubleEpoch] = []

    def on_release(self, jobs: Sequence[Job], t: int) -> None:
        m_t = self._optimum.add(jobs, self._last_m)
        self._last_m = m_t
        if not self.epochs or m_t > 2 * self.epochs[-1].m_at_start:
            epoch = DoubleEpoch(
                index=len(self.epochs),
                start=t,
                m_at_start=m_t,
                block=ceil_frac(2 * self.factor * m_t),
            )
            self.epochs.append(epoch)
            self.pools[epoch.index] = self._factory(2 * m_t)
        super().on_release(jobs, t)

    # Double's own attribute, so that its selects can be instrumented apart
    # from other splits' (perfbench/tracer.py wraps each class's own entry).
    select = SplitScheduler.select

    def machines_used(self) -> int:
        # blocks are opened per epoch and never closed: usage is their sum
        return sum(e.block for e in self.epochs)

    def current_budget(self) -> int:
        return sum(e.block for e in self.epochs)

    def extras(self) -> dict:
        return {
            "epochs": [(e.start, e.m_at_start, e.block) for e in self.epochs],
            "m_final": self._last_m,
        }

    def params(self) -> dict:
        return {"factor": str(self.factor)}


def double_wrap(
    instance: Instance,
    factory: Callable[[int], OnlinePolicy],
    factor: Fraction | int,
    oracle: PrefixOracle = RunningOptimum,
    name: str = "double",
) -> SimulationRun:
    """Run a semi-online subroutine factory through the doubling reduction."""
    return simulate(instance, Double(factory, factor, oracle, name=name))


# ---------------------------------------------------------------------------
# Equal processing times.
# ---------------------------------------------------------------------------


def _equal_p(instance: Instance) -> int:
    _require(instance.n > 0, "instance is empty")
    _require(instance.is_equal_processing, "processing times are not all equal")
    return instance.jobs[0].processing


def is_critical(job: Job, p: int) -> bool:
    """Critical iff the window contains exactly one multiple of p."""
    return job.deadline // p + (-job.release // p) + 1 == 1


def round_noncritical(job: Job, p: int) -> tuple[int, int]:
    """Release rounded up and deadline rounded down to the p-grid."""
    lo = -(-job.release // p) * p
    hi = job.deadline // p * p
    return lo, hi


class _NonCriticalBatch(OnlinePolicy):
    """Batch pool of the equal-p rounding algorithm: at every grid time pick
    up to ``capacity`` pending rounded jobs by EDF on rounded deadlines and
    run them for exactly one grid period."""

    name = "equalp-batch"

    def __init__(self, p: int, capacity: int):
        self.p = p
        self.capacity = capacity
        self.rounded: dict[int, tuple[int, int]] = {}
        self._starts: dict[int, int] = {}

    def current_budget(self) -> int:
        return self.capacity

    def on_release(self, jobs: Sequence[Job], t: int) -> None:
        for job in jobs:
            self.rounded[job.id] = round_noncritical(job, self.p)

    def select(self, t: int, active: Mapping[int, JobState]) -> set[int]:
        if t % self.p == 0:
            pending = [
                (self.rounded[j][1], active[j].job.release, j)
                for j in active
                if j not in self._starts
                and self.rounded[j][0] <= t
                and self.rounded[j][1] >= t + self.p
            ]
            pending.sort()
            for _, _, j in pending[: self.capacity]:
                self._starts[j] = t
        return {
            j
            for j in active
            if j in self._starts and self._starts[j] <= t
        }


def equal_p_offline_approx(instance: Instance) -> NonpreemptiveSchedule:
    """Offline variant: critical jobs via EarlyFit; non-critical jobs become
    unit jobs on the p-grid, run there by EDF on the unit-job optimum (exact
    on unit jobs), and each grid slot tau maps back to the start tau * p."""
    p = _equal_p(instance)
    starts: dict[int, int] = {}
    units: list[Job] = []
    for job in instance.jobs:
        if is_critical(job, p):
            starts[job.id] = job.release
        else:
            lo, hi = round_noncritical(job, p)
            units.append(Job(job.id, lo // p, hi // p, 1))
    if units:
        grid = Instance(units)
        run = simulate(grid, EDF(optimum_preemptive(grid)))
        if run.misses:  # cannot happen on a feasible instance
            missed = sorted(j for j, _ in run.misses)
            raise RuntimeError(f"grid EDF left jobs unscheduled: {missed}")
        for tau, ids in enumerate(run.slots):
            starts.update((j, tau * p) for j in sorted(ids))
    return NonpreemptiveSchedule(starts)


EQUAL_P_ONLINE_ALPHA = Fraction(3, 10)
# Any rational upper bound on e keeps the EDF budget c >= e(1+a)/(1-a) valid.
_E_UPPER = Fraction(2718282, 1000000)


def equal_p_online_budget_factor(alpha: Fraction = EQUAL_P_ONLINE_ALPHA) -> Fraction:
    return _E_UPPER * (1 + alpha) / (1 - alpha)


class _EqualPOnline(OnlinePolicy):
    """Equal-p online: tight jobs via EarlyFit, loose jobs via EDF on
    ceil(c * density-of-loose-jobs) machines, budgets monotone (machines are
    opened, never closed)."""

    name = "equalp-online"

    def __init__(self, p: int, alpha: Fraction, c: Fraction):
        self.p = p
        self.alpha = alpha
        self.c = c
        self._loose: set[int] = set()
        self._loose_jobs: list[Job] = []
        self.budget = 0
        self._tight_peak = 0
        self._budget_trace: list[tuple[int, int]] = []
        self._density_trace: list[tuple[int, Fraction]] = []

    def on_release(self, jobs: Sequence[Job], t: int) -> None:
        for job in jobs:
            if is_loose(job.processing, job.window_length, self.alpha):
                self._loose.add(job.id)
                self._loose_jobs.append(job)
        rho_loose = density_equal_p(self._loose_jobs, self.p)
        self.budget = max(self.budget, ceil_frac(self.c * rho_loose))
        self._budget_trace.append((t, self.budget))
        self._density_trace.append((t, rho_loose))

    def select(self, t: int, active: Mapping[int, JobState]) -> set[int]:
        # tight jobs start at release (EarlyFit) and run to completion
        tight_running = {j for j in active if j not in self._loose}
        self._tight_peak = max(self._tight_peak, len(tight_running))
        loose_view = [s for j, s in active.items() if j in self._loose]
        return tight_running | edf_select(loose_view, t, self.budget)

    def machines_used(self) -> int:
        return self._tight_peak + self.budget

    def params(self) -> dict:
        return {"alpha": str(self.alpha), "c": str(self.c)}

    def extras(self) -> dict:
        return {
            "budget_trace": self._budget_trace,
            "density_trace": self._density_trace,
            "tight_peak": self._tight_peak,
            "final_budget": self.budget,
        }


def equal_p_online(
    instance: Instance, alpha: Fraction = EQUAL_P_ONLINE_ALPHA
) -> SimulationRun:
    """Equal-p fully online scheduler; factor c + 1/alpha + 1 (about 9.38)."""
    _require(0 < alpha < 1, f"alpha must lie in (0, 1), got {alpha}")
    p = _equal_p(instance)
    c = equal_p_online_budget_factor(alpha)
    return simulate(instance, _EqualPOnline(p, alpha, c))


# ---------------------------------------------------------------------------
# Composites: one row of the table per special-case scheduler.
# ---------------------------------------------------------------------------

Router = Callable[[Job], Hashable]
# pool -> (constructor, factor): the pool runs make(ceil(factor * m)), or
# make() when the factor is None and the pool needs no optimum.
Pools = Mapping[Hashable, tuple[Callable[..., OnlinePolicy], Fraction | int | None]]


def _assemble(
    route: Router | None, pools: Mapping, name: str | None = None
) -> OnlinePolicy:
    """The single pool itself when there is no router, else the split."""
    if route is not None:
        return SplitScheduler(route, pools, name=name)
    (policy,) = pools.values()
    if name:
        policy.name = name
    return policy


def _build(pools: Pools, m: int) -> dict[Hashable, OnlinePolicy]:
    return {
        key: make() if factor is None else make(_budget(factor, m))
        for key, (make, factor) in pools.items()
    }


class _ExactPrefix:
    """Exact non-preemptive running optimum of a released prefix, searched
    upward on the whole prefix from ``lower`` and the prefix's preemptive
    optimum.  That bound comes from one ``RunningOptimum`` of the prefix,
    which admits each release's jobs into its flow, and is kept on the
    prefix's instance, so the search solves no flow of its own.  The solver
    is a module global looked up at call time, so that a wrapper put on it
    after import sees every solve."""

    def __init__(self) -> None:
        self._jobs: list[Job] = []
        self._preemptive = RunningOptimum()

    def add(self, jobs: Sequence[Job], lower: int) -> int:
        self._jobs += jobs
        prefix = Instance(self._jobs)
        _keep_preemptive(prefix, self._preemptive.add(jobs))
        return optimum_nonpreemptive_exact(prefix, lower=lower)


@dataclass(frozen=True)
class Composite:
    """One special-case scheduler.  ``parts(instance, alpha)`` checks the
    instance's profile and returns a router (None for a single pool) and the
    ``Pools``.  The default alphas are None where the composite takes none;
    every time is multiplied by ``scale`` before the run; ``oracle`` gives
    the running optimum to the online form's Doubles."""

    name: str
    parts: Callable[[Instance, Fraction | None], tuple[Router | None, Pools]]
    semi_alpha: Fraction | None = None
    online_alpha: Fraction | None = None
    scale: int = 1
    oracle: PrefixOracle = RunningOptimum

    def _parts(
        self, instance: Instance, alpha: Fraction | None, default: Fraction | None
    ) -> tuple[Router | None, Pools]:
        if default is not None:
            alpha = default if alpha is None else alpha
            _require(0 < alpha < 1, f"alpha must lie in (0, 1), got {alpha}")
        return self.parts(instance, alpha)

    def semi(self, instance: Instance, m: int, alpha=None) -> SimulationRun:
        """Each pool on ``ceil(factor * m)`` machines, ``m`` the optimum."""
        route, pools = self._parts(instance, alpha, self.semi_alpha)
        policy = _assemble(route, _build(pools, m), self.name)
        return simulate(instance, policy, self.scale)

    def online(self, instance: Instance, alpha=None) -> SimulationRun:
        """One Double around the whole split when every pool has a factor,
        else one around each pool that has one."""
        route, pools = self._parts(instance, alpha, self.online_alpha)

        def double(route: Router | None, pools: Pools, name: str | None = None):
            factor = sum(f for _, f in pools.values())
            factory = lambda semi_m: _assemble(route, _build(pools, semi_m))
            return Double(factory, factor, self.oracle, name=name)

        name = f"{self.name}-online"
        if all(f is not None for _, f in pools.values()):
            return simulate(instance, double(route, pools, name), self.scale)
        doubled = {
            key: make() if f is None else double(None, {key: (make, f)})
            for key, (make, f) in pools.items()
        }
        return simulate(instance, _assemble(route, doubled, name), self.scale)


def _agreeable_p(instance: Instance, alpha: Fraction):
    _require(instance.is_agreeable, "instance is not agreeable")
    loose, tight = (EDF, 1 / (1 - alpha) ** 2), (LLF, 4 / alpha + 6)
    return _tightness(alpha), {"loose": loose, "tight": tight}


def _agreeable_np(instance: Instance, alpha: Fraction):
    _require(instance.is_agreeable, "instance is not agreeable")
    loose, tight = (NonpreemptiveEDF, 1 / (1 - alpha) ** 2), (MediumFit, None)
    return _tightness(alpha), {"loose": loose, "tight": tight}


def _equal_p_parts(instance: Instance, _alpha: None):
    """Critical jobs by EarlyFit; the others rounded to the p-grid and
    batch-scheduled 2m at a time."""
    p = _equal_p(instance)
    critical, batches = (EarlyFit, None), (partial(_NonCriticalBatch, p), 2)
    return (
        lambda job: "critical" if is_critical(job, p) else "noncritical",
        {"critical": critical, "noncritical": batches},
    )


def _uniform_p(instance: Instance, _alpha: None):
    _require(instance.is_uniform_deadline, "deadlines are not uniform")
    return None, {"": (LLF, 1)}


def _uniform_np(instance: Instance, alpha: Fraction):
    _require(instance.is_uniform_deadline, "deadlines are not uniform")
    loose, tight = (NonpreemptiveEDF, 1 / (1 - alpha) ** 2), (EarlyFit, None)
    return _tightness(alpha), {"loose": loose, "tight": tight}


# In a split by alpha, loose jobs run by EDF (preemptive or not) on
# ceil(m/(1-alpha)^2) machines.  agreeable-np runs scaled by 2, so that every
# MediumFit midpoint is integral.
COMPOSITES: dict[str, Composite] = {
    row.name: row
    for row in (
        # 18m at alpha = 1/2; the online form's Double has factor 18
        Composite("agreeable-p", _agreeable_p, Fraction(1, 2), Fraction(1, 2)),
        # 9m at alpha = 1/2 / 16m online at alpha = 1/3
        Composite(
            "agreeable-np", _agreeable_np, Fraction(1, 2), Fraction(1, 3),
            scale=2, oracle=_ExactPrefix,
        ),
        # 4m / 10m online
        Composite("equalp-semi", _equal_p_parts, oracle=_ExactPrefix),
        # m: LLF is 1-competitive on uniform deadlines
        Composite("uniform-p", _uniform_p),
        # 5.25m at alpha = 1/3 / 11 1/9 m online at alpha = 1/4
        Composite(
            "uniform-np", _uniform_np, Fraction(1, 3), Fraction(1, 4),
            oracle=_ExactPrefix,
        ),
    )
}

agreeable_preemptive = COMPOSITES["agreeable-p"].semi
agreeable_preemptive_online = COMPOSITES["agreeable-p"].online
agreeable_nonpreemptive = COMPOSITES["agreeable-np"].semi
agreeable_nonpreemptive_online = COMPOSITES["agreeable-np"].online
equal_p_nonpreemptive_semi_run = COMPOSITES["equalp-semi"].semi
equal_p_nonpreemptive_online = COMPOSITES["equalp-semi"].online
uniform_deadline_preemptive = COMPOSITES["uniform-p"].semi
uniform_deadline_preemptive_online = COMPOSITES["uniform-p"].online
uniform_deadline_nonpreemptive = COMPOSITES["uniform-np"].semi
uniform_deadline_nonpreemptive_online = COMPOSITES["uniform-np"].online


def equal_p_nonpreemptive_semi(instance: Instance, m: int) -> NonpreemptiveSchedule:
    return equal_p_nonpreemptive_semi_run(instance, m).to_nonpreemptive_schedule()
