"""General preemptive scheduler: safe/critical partition, laxity-preserving
group splitting, and the window/laxity transform operators used as its
property oracles.

Jobs that have ever been loose relative to their remaining window
(``remaining <= alpha * (deadline - t)``) are *safe* and go to an EDF pool
whose budget follows the flow-oracle optimum of the admitted residues.
Always-tight (*critical*) jobs are packed into groups whose members can
nest inside each other's laxity, and each group is split round-robin over
enough machines that no critical job ever loses more than a constant
fraction of its original laxity.

The partition is kept from slot to slot, and only the critical jobs that
the last slot ran are tested for looseness again: a critical job that did
not run kept its remaining work while its window shrank by one, so it is
still tight.  A job that ran lost one unit of work and one slot of window,
so its laxity, and its ratio to the original laxity, did not move, and the
laxity floor is taken over the others.  Members only leave a subgroup, and
a subgroup is cut from its group in EDF order, so its head is the first
member still critical.  The groups are packed and split again only at a
slot with arrivals.

Every rational test here (the loose test, the subgroup count mu, the
laxity-ratio minima and the group bound) is an integer cross-multiplication
on ``alpha``'s numerator and denominator, and the pool budget an integer
ceiling division, with the same exact semantics as the rational forms; a
``Fraction`` is built only for a value that is reported.

The pool's optimum m(L) is that of every residue admitted so far, with its
window from its admission on, and the residues only accumulate.  An
``optimum.RunningOptimum`` holds them with one feasible flow on m(L)
machines and grows it at each admission: the segments are cut at the new
breakpoints, the new residues fill the earliest segments with room, and
what does not fit is pushed along augmenting paths, with m(L) raised when
no path is left.  No network is built and no search is run for the pool.

The pool is solved only when something reads its optimum.  New residues
join the safe set at once but wait in a queue, and all the queued ones are
admitted in one ``add`` when the safe jobs still active outnumber the pool
budget as it stands, or when the machine count, the budget or the extras
are read.  That is exact: m(L), and with it the budget, only grows, so a
budget not yet brought up to date is at most the true one, and where the
safe jobs do not outnumber it EDF selects every one of them under either.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .engine import OnlinePolicy, SimulationRun, edf_select, simulate
from .model import Instance, Job, JobState, is_loose
from .optimum import RunningOptimum, min_machines

__all__ = [
    "LAXITY_FLOOR",
    "choose_mu",
    "reclassify",
    "build_groups",
    "LogNPolicy",
    "logn_schedule",
    "TransformKind",
    "LaxityTransformSpec",
    "transform",
    "required_scale",
]

logger = logging.getLogger(__name__)

# The analysis guarantees every critical job keeps at least 2 - pi^2/6 of its
# original laxity; 0.355 is a rational lower bound of that constant used for
# runtime assertions (never for scheduling decisions).
LAXITY_FLOOR = Fraction(355, 1000)


def _check_alpha(alpha: Fraction) -> None:
    if not 0 < alpha <= Fraction(1, 2) or (1 / alpha).denominator != 1:
        raise ValueError(
            f"alpha must lie in (0, 1/2] with integral 1/alpha, got {alpha}"
        )


def choose_mu(n_jobs: int, alpha: Fraction) -> int:
    """Smallest mu >= 1 with (1-alpha)^mu <= 1/n^2; O(log n)."""
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    # (1-alpha)^mu = kept / whole; the test is n^2 * kept > whole
    num, den = alpha.numerator, alpha.denominator
    square = n_jobs * n_jobs
    mu, kept, whole = 1, den - num, den
    while square * kept > whole:
        mu += 1
        kept *= den - num
        whole *= den
    return mu


def reclassify(
    critical: Mapping[int, JobState], t: int, alpha: Fraction
) -> tuple[set[int], list[Job]]:
    """Split a critical set at time t: jobs whose remaining work dropped to
    at most ``alpha * (deadline - t)`` become safe, carried as residues with
    their remaining work and window [t, deadline].

    Returns (still-critical ids, residues of the newly safe jobs).
    """
    still: set[int] = set()
    residues: list[Job] = []
    for job_id in sorted(critical):
        state = critical[job_id]
        if is_loose(state.remaining, state.job.deadline - t, alpha):
            residues.append(
                Job(job_id, t, state.job.deadline, state.remaining)
            )
        else:
            still.add(job_id)
    return still, residues


def build_groups(states: Sequence[JobState], t: int) -> list[list[int]]:
    """Pack critical jobs into groups.

    Jobs are scanned in decreasing-deadline order; each goes to the
    lowest-indexed group whose earliest-deadline member still has laxity at
    least the job's remaining window length, else it opens a new group.
    Both sides of that test lose ``t``: the job fits when its deadline is at
    most the member's latest start, deadline less remaining work.
    """
    ordered = sorted(
        states, key=lambda s: (-s.job.deadline, s.job.release, s.job.id)
    )
    groups: list[list[int]] = []
    anchors: list[tuple[int, int, int]] = []  # edf_key of each group's anchor
    starts: list[int] = []  # the anchor's latest start
    for state in ordered:
        job = state.job
        deadline = job.deadline
        for i, start in enumerate(starts):
            if deadline <= start:
                groups[i].append(job.id)
                key = (deadline, job.release, job.id)
                if key < anchors[i]:
                    anchors[i] = key
                    starts[i] = deadline - state.remaining
                break
        else:
            groups.append([job.id])
            anchors.append((deadline, job.release, job.id))
            starts.append(deadline - state.remaining)
    return groups


def _lower_ratio(best: Fraction | None, left: int, laxity: int) -> Fraction | None:
    """The smaller of ``best`` and ``left / laxity``; ``best`` unchanged when
    ``laxity <= 0``.  The test is ``left * den < num * laxity`` on ``best``,
    and a ``Fraction`` is built only for a new minimum."""
    if laxity <= 0:
        return best
    if best is None or left * best.denominator < best.numerator * laxity:
        return Fraction(left, laxity)
    return best


class LogNPolicy(OnlinePolicy):
    """The O(log n) scheduler: an EDF pool of safe residues on
    ``ceil(m(L) / (1 - alpha)^2)`` machines at the largest m(L) so far, plus
    ``h·mu`` machines for the critical subgroups.

    ``extras["rebuilds"]`` lists ``(t, h, mu, m_hat)`` per rebuild of the
    critical groups.  ``m_hat`` is the load bound ``ceil(W / (d_max - t))``
    of the critical residues when it certifies the group bound
    ``h <= 1 + (2 + 2/alpha)·m_hat``, else their flow optimum;
    ``extras["monitor_solves"]`` counts the rebuilds that needed the
    latter.

    Residues that turn safe are queued, and the pool solves its optimum for
    all of them at once, only when a decision or a report reads it (see the
    module docstring).  Both budget terms are running maxima, so the budget
    never falls during a run.
    """

    name = "logn"

    def __init__(self, m: int, alpha: Fraction = Fraction(1, 2)):
        _check_alpha(alpha)
        self.m = m
        self.alpha = alpha
        num, den = alpha.numerator, alpha.denominator
        # the pool budget ceil(m_L / (1-alpha)^2) is ceil(m_L * _grow / _shrink)
        self._grow, self._shrink = den * den, (den - num) ** 2
        # 2 + 2/alpha, an integer since 1/alpha is one
        self._group_factor = 2 + 2 * den // num
        self._arrivals: list[Job] = []
        self._released = 0
        self._critical: set[int] = set()
        self._safe: set[int] = set()
        # every residue admitted, with a feasible flow of them on m_L machines
        self._pool = RunningOptimum()
        # the residues that turned safe since the pool was last solved
        self._queued: list[Job] = []
        self._m_L = 0
        self._safe_budget = 0
        # each subgroup in reverse EDF order, so that its head is last
        self._subgroups: list[list[int]] = []
        # the critical jobs that the last slot ran
        self._ran: set[int] = set()
        self._h = 0
        self._mu = 1
        self._alloc_critical = 0
        self._rebuilds: list[tuple[int, int, int, int]] = []
        self._monitor_solves = 0
        self._min_critical_ratio: Fraction | None = None
        self._min_entry_ratio: Fraction | None = None

    def on_release(self, jobs: Sequence[Job], t: int) -> None:
        self._arrivals.extend(jobs)
        self._released += len(jobs)

    # -- partition maintenance -------------------------------------------

    def _note_entry_ratio(self, job: Job, remaining: int, t: int) -> None:
        self._min_entry_ratio = _lower_ratio(
            self._min_entry_ratio, job.deadline - t - remaining, job.laxity
        )

    def _admit_safe(self, residues: Sequence[Job]) -> None:
        self._safe.update(residue.id for residue in residues)
        self._queued += residues

    def _flush_pool(self) -> None:
        """Admit every queued residue to the pool in one ``add``, which
        brings m_L and the pool budget up to date."""
        if self._queued:
            self._m_L = self._pool.add(self._queued)
            self._queued = []
            # m_L only grows, so the budget is a running maximum
            self._safe_budget = -(-self._m_L * self._grow // self._shrink)

    def _update_partition(self, t: int, active: Mapping[int, JobState]) -> None:
        arrivals, self._arrivals = self._arrivals, []
        # once safe, always safe; and a critical job that did not run in the
        # last slot kept its work while its window shrank, so it is still
        # tight: only the critical jobs that ran are tested again
        self._critical &= active.keys()
        critical = self._critical
        ran = {j: active[j] for j in self._ran if j in critical}
        _, residues = reclassify(ran, t, self.alpha)
        for residue in residues:
            critical.discard(residue.id)
            original = active[residue.id].job
            self._note_entry_ratio(original, residue.processing, t)
        fresh_safe: list[Job] = []
        for job in arrivals:
            if is_loose(job.processing, job.deadline - t, self.alpha):
                fresh_safe.append(Job(job.id, t, job.deadline, job.processing))
                self._note_entry_ratio(job, job.processing, t)
            else:
                critical.add(job.id)
        new_residues = residues + fresh_safe
        if new_residues:
            self._admit_safe(new_residues)
        if arrivals:
            self._rebuild(t, active)

    def _rebuild(self, t: int, active: Mapping[int, JobState]) -> None:
        states = [active[j] for j in self._critical]
        groups = build_groups(states, t)
        self._mu = mu = choose_mu(max(self._released, 1), self.alpha)
        self._h = len(groups)
        # an active job has work left, so a job that joins a group has its
        # deadline before the latest start of the member that joined last,
        # and takes over as the anchor: each group's deadlines fall strictly
        # in joining order.  Each group is dealt round-robin by deadline
        # rank over mu subgroups, each served by EDF on a machine of its
        # own: the group reversed is in EDF order, so a subgroup, the jobs
        # whose ranks agree mod mu, is one slice of it, with its EDF head last
        self._subgroups = [
            group[i::mu] for group in groups for i in range(min(mu, len(group)))
        ]
        self._alloc_critical = max(self._alloc_critical, self._h * mu)
        if states:
            span = max(s.job.deadline for s in states) - t
            m_t_hat = -(-sum(s.remaining for s in states) // span)
            if self._h > 1 + self._group_factor * m_t_hat:
                residues = [
                    Job(j, t, active[j].job.deadline, active[j].remaining)
                    for j in sorted(self._critical)
                ]
                m_t_hat = min_machines(residues, m_t_hat)
                self._monitor_solves += 1
        else:
            m_t_hat = 0
        self._rebuilds.append((t, self._h, self._mu, m_t_hat))

    def _monitor_laxity_floor(
        self, t: int, active: Mapping[int, JobState]
    ) -> None:
        # a job that ran lost one slot of window and one unit of work, so
        # its ratio is the one taken at the slot before
        best = self._min_critical_ratio
        for j in self._critical - self._ran:
            state = active[j]
            job = state.job
            best = _lower_ratio(best, job.deadline - t - state.remaining, job.laxity)
        self._min_critical_ratio = best

    # -- scheduling -------------------------------------------------------

    def select(self, t: int, active: Mapping[int, JobState]) -> set[int]:
        self._update_partition(t, active)
        self._monitor_laxity_floor(t, active)
        # once finished, never active again: drop finished safe jobs for good
        self._safe &= active.keys()
        safe = self._safe
        # a budget not brought up to date is at most the true one: it takes
        # every safe job exactly when the true one does
        if len(safe) > self._safe_budget:
            self._flush_pool()
        chosen = edf_select(map(active.__getitem__, safe), t, self._safe_budget)
        # members only ever leave a subgroup, so its head is its last
        # member still critical
        critical, ran = self._critical, set()
        for sub in self._subgroups:
            while sub and sub[-1] not in critical:
                sub.pop()
            if sub:
                ran.add(sub[-1])
        self._ran = ran
        chosen |= ran
        return chosen

    def current_budget(self) -> int:
        self._flush_pool()
        return self._safe_budget + self._alloc_critical

    # machines opened are never closed: the run uses its final budget
    machines_used = current_budget

    def params(self) -> dict:
        return {"m": self.m, "alpha": str(self.alpha)}

    def extras(self) -> dict:
        self._flush_pool()
        return {
            "rebuilds": self._rebuilds,
            "monitor_solves": self._monitor_solves,
            "min_critical_laxity_ratio": self._min_critical_ratio,
            "min_safe_entry_ratio": self._min_entry_ratio,
            "safe_budget": self._safe_budget,
            "m_L": self._m_L,
            "critical_alloc": self._alloc_critical,
        }


def logn_schedule(
    instance: Instance, m: int, alpha: Fraction = Fraction(1, 2)
) -> SimulationRun:
    """Run the partition scheduler.  The optimum m is carried for reporting;
    the machine demand itself follows m(L) and the group structure."""
    return simulate(instance, LogNPolicy(m, alpha))


# ---------------------------------------------------------------------------
# Window and laxity transforms.
# ---------------------------------------------------------------------------


class TransformKind(enum.Enum):
    SCALE_LAXITY = "beta"
    LEFT_PART = "left"
    RIGHT_PART = "right"
    LEFT_SHORTENED = "lshort"
    RIGHT_SHORTENED = "rshort"
    RESIDUE_AT = "residue"


@dataclass(frozen=True)
class LaxityTransformSpec:
    kind: TransformKind
    param: Fraction

    def __post_init__(self) -> None:
        if self.kind is TransformKind.RESIDUE_AT:
            if self.param.denominator != 1 or self.param < 0:
                raise ValueError("residue-at-t needs a non-negative integer t")
        elif not 0 < self.param < 1:
            raise ValueError(f"parameter must lie in (0, 1), got {self.param}")


def required_scale(spec: LaxityTransformSpec) -> int:
    """Smallest uniform time scale that makes every derived quantity of the
    transform integral on any instance."""
    kind, q = spec.kind, spec.param
    if kind is TransformKind.SCALE_LAXITY:
        return (1 - q).denominator
    if kind in (TransformKind.LEFT_PART, TransformKind.RIGHT_PART):
        return math.lcm((1 - q).denominator, (1 - q / 2).denominator)
    if kind in (TransformKind.LEFT_SHORTENED, TransformKind.RIGHT_SHORTENED):
        return (1 - q).denominator
    return 1


def _int(value: Fraction, what: str, job: Job) -> int:
    if value.denominator != 1:
        raise ValueError(
            f"job {job.id}: {what} = {value} is not integral; pre-scale the "
            "instance (see required_scale)"
        )
    return value.numerator


def transform(instance: Instance, spec: LaxityTransformSpec) -> Instance:
    """Apply a window/laxity transform job-wise.

    Jobs whose transformed processing time comes out zero (the left part of
    a zero-laxity job) are dropped with a notice.
    """
    kind, q = spec.kind, spec.param
    out: list[Job] = []
    for job in instance.jobs:
        ell = job.laxity
        if kind is TransformKind.SCALE_LAXITY:
            extra = _int((1 - q) * ell, "(1-beta)*laxity", job)
            out.append(Job(job.id, job.release, job.deadline, job.processing + extra))
        elif kind is TransformKind.LEFT_PART:
            p2 = _int((1 - q) * ell, "(1-beta)*laxity", job)
            cut = _int((1 - q / 2) * ell, "(1-beta/2)*laxity", job)
            if p2 == 0:
                logger.info(
                    "transform %s drops zero-volume left part of job %d",
                    kind.value,
                    job.id,
                )
                continue
            out.append(Job(job.id, job.release, job.release + cut, p2))
        elif kind is TransformKind.RIGHT_PART:
            cut = _int((1 - q / 2) * ell, "(1-beta/2)*laxity", job)
            out.append(Job(job.id, job.release + cut, job.deadline, job.processing))
        elif kind is TransformKind.LEFT_SHORTENED:
            cut = _int((1 - q) * ell, "(1-gamma)*laxity", job)
            out.append(Job(job.id, job.release, job.deadline - cut, job.processing))
        elif kind is TransformKind.RIGHT_SHORTENED:
            cut = _int((1 - q) * ell, "(1-gamma)*laxity", job)
            out.append(Job(job.id, job.release + cut, job.deadline, job.processing))
        elif kind is TransformKind.RESIDUE_AT:
            t = q.numerator
            release = max(job.release, t)
            if job.deadline - release < job.processing:
                raise ValueError(
                    f"job {job.id}: no room for the residue at t={t}"
                )
            out.append(Job(job.id, release, job.deadline, job.processing))
        else:  # pragma: no cover
            raise AssertionError(kind)
    return Instance(out)
