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

Every rational test here (the loose test, the subgroup count mu, the
laxity-ratio minima and the group bound) is an integer cross-multiplication
on ``alpha``'s numerator and denominator, and the pool budget an integer
ceiling division, with the same exact semantics as the rational forms; a
``Fraction`` is built only for a value that is reported.

The pool's optimum m(L) is kept without a flow solve while it cannot
change.  The policy holds the future part of a feasible schedule of the
pool on m(L) machines as ``[a, b, load]`` segments: a load fits a segment
when it is at most m(L)·(b - a) and no job has more than b - a of it, so
McNaughton's wrap-around rule packs it.  At an admission the segments are
cut at t and at each new deadline (``cut_load``), and the new residues, in
(deadline, id) order, fill the earliest segments first, each taking at
most b - a of a segment.  If all of them fit, the pool is feasible on m(L)
machines, and m(L) cannot fall as the pool grows, so it stands.  Otherwise
the flow search finds the new m(L), and the flow of its own solve at m(L)
gives the segments again, from the flow on the segment-to-sink arcs; only
when the search settled m(L) without a solve there (m(L) >= the pool's job
count) does the witness take a solve of its own.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .engine import OnlinePolicy, SimulationRun, edf_key, edf_select, simulate
from .model import Instance, Job, JobState, is_loose
from .optimum import FlowNetwork, min_machines, min_machines_flow

__all__ = [
    "LAXITY_FLOOR",
    "choose_mu",
    "reclassify",
    "build_groups",
    "split_group",
    "cut_load",
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
    """
    ordered = sorted(
        states, key=lambda s: (-s.job.deadline, s.job.release, s.job.id)
    )
    groups: list[list[int]] = []
    anchors: list[JobState] = []  # earliest-deadline member per group
    for state in ordered:
        window = state.job.deadline - t
        for i, anchor in enumerate(anchors):
            if window <= anchor.job.deadline - t - anchor.remaining:
                groups[i].append(state.job.id)
                if edf_key(state) < edf_key(anchor):
                    anchors[i] = state
                break
        else:
            groups.append([state.job.id])
            anchors.append(state)
    return groups


def split_group(
    group: Sequence[int], states: Mapping[int, JobState], mu: int
) -> list[list[int]]:
    """Round-robin a group over mu subgroups by increasing deadline rank;
    each subgroup is then served by EDF on one dedicated machine."""
    if mu < 1:
        raise ValueError("mu must be >= 1")
    ordered = sorted(group, key=lambda j: edf_key(states[j]))
    subgroups: list[list[int]] = [[] for _ in range(min(mu, max(len(ordered), 1)))]
    for rank, job_id in enumerate(ordered):
        subgroups[rank % mu].append(job_id)
    return [s for s in subgroups if s]


def _lower_ratio(best: Fraction | None, left: int, laxity: int) -> Fraction | None:
    """The smaller of ``best`` and ``left / laxity``; ``best`` unchanged when
    ``laxity <= 0``.  The test is ``left * den < num * laxity`` on ``best``,
    and a ``Fraction`` is built only for a new minimum."""
    if laxity <= 0:
        return best
    if best is None or left * best.denominator < best.numerator * laxity:
        return Fraction(left, laxity)
    return best


def cut_load(a: int, b: int, load: int, c: int) -> int:
    """The part of a segment ``[a, b)``'s load that falls in ``[a, c)`` when
    McNaughton's wrap-around rule packs it from ``a``: with
    ``(q, r) = divmod(load, b - a)`` the first r slots hold q + 1 units and
    the others q.  No job holds two units of one slot, so each part is a
    segment load in its own right."""
    q, r = divmod(load, b - a)
    return q * (c - a) + min(r, c - a)


class LogNPolicy(OnlinePolicy):
    """The O(log n) scheduler: an EDF pool of safe residues on
    ``ceil(m(L) / (1 - alpha)^2)`` machines at the largest m(L) so far, plus
    ``h·mu`` machines for the critical subgroups.

    ``extras["rebuilds"]`` lists ``(t, h, mu, m_hat)`` per rebuild of the
    critical groups.  ``m_hat`` is the load bound ``ceil(W / (d_max - t))``
    of the critical residues when it certifies the group bound
    ``h <= 1 + (2 + 2/alpha)·m_hat``, else their flow optimum;
    ``extras["monitor_solves"]`` counts the rebuilds that needed the
    latter, and ``extras["witness_solves"]`` the pool witnesses that could
    not reuse the search's flow and took a solve of their own.
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
        self._residues: list[Job] = []
        self._m_L = 0
        # [a, b, load] segments from the last admission on of a feasible
        # schedule of the pool on m_L machines
        self._witness: list[list[int]] = []
        self._safe_budget = 0
        self._subgroups: list[list[int]] = []
        self._h = 0
        self._mu = 1
        self._alloc_critical = 0
        self._rebuilds: list[tuple[int, int, int, int]] = []
        self._monitor_solves = 0
        self._witness_solves = 0
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

    def _admit_safe(self, residues: Sequence[Job], t: int) -> None:
        for residue in residues:
            self._safe.add(residue.id)
            self._residues.append(residue)
        if not self._certify(residues, t):
            self._m_L, network, flow = min_machines_flow(self._residues, self._m_L)
            self._witness = self._flow_witness(t, network, flow)
        self._safe_budget = max(
            self._safe_budget, -(-self._m_L * self._grow // self._shrink)
        )

    def _certify(self, residues: Sequence[Job], t: int) -> bool:
        """Fit the residues released at t into the witness on m_L machines."""
        cuts = {t} | {r.deadline for r in residues}
        segments = self._witness
        start = max(segments[-1][1] if segments else t, t)
        horizon = max(cuts)
        if horizon > start:
            segments.append([start, horizon, 0])
        cut: list[list[int]] = []
        for a, b, load in segments:
            for point in sorted(p for p in cuts if a < p < b):
                left = cut_load(a, b, load, point)
                if point > t:
                    cut.append([a, point, left])
                a, load = point, load - left
            if b > t:
                cut.append([a, b, load])
        self._witness = cut
        m = self._m_L
        for residue in sorted(residues, key=lambda r: (r.deadline, r.id)):
            left = residue.processing
            for segment in cut:
                a, b, load = segment
                if a >= residue.deadline:
                    break
                f = min(b - a, m * (b - a) - load, left)
                segment[2] += f
                left -= f
                if not left:
                    break
            if left:
                return False
        return True

    def _flow_witness(
        self, t: int, network: FlowNetwork | None, flow: Sequence[int] | None
    ) -> list[list[int]]:
        """Segments from t on of a maximum flow of the pool on m_L machines:
        the search's ``flow`` on ``network``, or, when it is None, one solve."""
        if flow is None:
            if network is None:
                network = FlowNetwork.build(Instance(self._residues))
            _, flow = network.solve(self._m_L)
            self._witness_solves += 1
        # the segment-to-sink flows; t is a breakpoint, since residues are
        # released at t
        loads = [int(flow[p]) for p in network.drains]
        return [
            [a, b, load] for (a, b), load in zip(network.segments, loads) if b > t
        ]

    def _update_partition(self, t: int, active: Mapping[int, JobState]) -> None:
        arrivals, self._arrivals = self._arrivals, []
        # once safe, always safe: only the still-critical jobs are re-tested
        self._critical &= active.keys()
        live = {j: active[j] for j in self._critical}
        still, residues = reclassify(live, t, self.alpha)
        for residue in residues:
            original = active[residue.id].job
            self._note_entry_ratio(original, residue.processing, t)
        self._critical = still
        fresh_safe: list[Job] = []
        for job in arrivals:
            if is_loose(job.processing, job.deadline - t, self.alpha):
                fresh_safe.append(Job(job.id, t, job.deadline, job.processing))
                self._note_entry_ratio(job, job.processing, t)
            else:
                self._critical.add(job.id)
        new_residues = residues + fresh_safe
        if new_residues:
            self._admit_safe(new_residues, t)
        if arrivals:
            self._rebuild(t, active)
        else:
            # carry the partition over, minus jobs that finished or went safe
            self._subgroups = [
                [j for j in sub if j in self._critical and j in active]
                for sub in self._subgroups
            ]
            self._subgroups = [s for s in self._subgroups if s]

    def _rebuild(self, t: int, active: Mapping[int, JobState]) -> None:
        states = [active[j] for j in sorted(self._critical)]
        groups = build_groups(states, t)
        self._mu = choose_mu(max(self._released, 1), self.alpha)
        self._h = len(groups)
        by_id = {s.job.id: s for s in states}
        self._subgroups = []
        for group in groups:
            self._subgroups.extend(split_group(group, by_id, self._mu))
        self._alloc_critical = max(self._alloc_critical, self._h * self._mu)
        if self._critical:
            residues = [
                Job(j, t, active[j].job.deadline, active[j].remaining)
                for j in sorted(self._critical)
            ]
            span = max(r.deadline for r in residues) - t
            m_t_hat = -(-sum(r.processing for r in residues) // span)
            if self._h > 1 + self._group_factor * m_t_hat:
                m_t_hat = min_machines(residues, m_t_hat)
                self._monitor_solves += 1
        else:
            m_t_hat = 0
        self._rebuilds.append((t, self._h, self._mu, m_t_hat))

    def _monitor_laxity_floor(
        self, t: int, active: Mapping[int, JobState]
    ) -> None:
        best = self._min_critical_ratio
        for j in self._critical:
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
        chosen = edf_select(map(active.__getitem__, self._safe), t, self._safe_budget)
        for sub in self._subgroups:
            live = [active[j] for j in sub if j in active]
            if live:
                chosen.add(min(live, key=edf_key).job.id)
        return chosen

    def machines_used(self) -> int:
        return self._safe_budget + self._alloc_critical

    def current_budget(self) -> int:
        return self._safe_budget + self._alloc_critical

    def params(self) -> dict:
        return {"m": self.m, "alpha": str(self.alpha)}

    def extras(self) -> dict:
        return {
            "rebuilds": self._rebuilds,
            "monitor_solves": self._monitor_solves,
            "witness_solves": self._witness_solves,
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
