"""Exact offline optima and the strong-density characterization.

The preemptive optimum is computed by max-flow feasibility (jobs feed work
into time segments, segments drain into the sink at the machine count), one
network per job set, and a galloping search over the machine count from the
load bound.  The strong density is an independent enumeration oracle over
unit-slot subsets; the two must agree via
``ceil(strong density) == preemptive optimum``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .model import Instance, Job, PreemptiveSchedule, peak_overlap

__all__ = [
    "EnumerationCapExceeded",
    "IntervalSet",
    "FlowNetwork",
    "FeasibilityResult",
    "feasible_preemptive",
    "is_feasible_preemptive",
    "optimum_preemptive",
    "min_machines",
    "optimal_witness",
    "contribution",
    "strong_density_exact",
    "strong_density_witness",
    "check_strong_density_theorem",
    "optimum_nonpreemptive_exact",
    "density_equal_p",
    "ceil_frac",
]

DEFAULT_SLOT_CAP = 20
DEFAULT_BNB_CAP = 12


class EnumerationCapExceeded(ValueError):
    """An exact solver was asked for more than its configured cap allows."""


def ceil_frac(x: Fraction | int) -> int:
    """Exact ceiling of a rational."""
    f = Fraction(x)
    return -((-f.numerator) // f.denominator)


@dataclass(frozen=True)
class IntervalSet:
    """Pairwise-disjoint integer intervals ``[a, b]``, sorted ascending."""

    intervals: tuple[tuple[int, int], ...]

    def __init__(self, intervals: Iterable[tuple[int, int]]):
        ivs = tuple(sorted((int(a), int(b)) for a, b in intervals))
        if not ivs:
            raise ValueError("interval set must be non-empty")
        for a, b in ivs:
            if a >= b:
                raise ValueError(f"degenerate interval [{a}, {b}]")
        for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
            if a2 < b1:
                raise ValueError("intervals overlap")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def from_slots(cls, slots: Iterable[int]) -> "IntervalSet":
        """Merge unit slots into maximal runs."""
        ordered = sorted(set(slots))
        if not ordered:
            raise ValueError("interval set must be non-empty")
        runs = []
        start = prev = ordered[0]
        for t in ordered[1:]:
            if t == prev + 1:
                prev = t
                continue
            runs.append((start, prev + 1))
            start = prev = t
        runs.append((start, prev + 1))
        return cls(runs)

    @property
    def length(self) -> int:
        return sum(b - a for a, b in self.intervals)

    def intersection_length(self, lo: int, hi: int) -> int:
        return sum(
            max(0, min(b, hi) - max(a, lo)) for a, b in self.intervals
        )


def contribution(job: Job, iset: IntervalSet) -> int:
    """Least volume of the job that any feasible schedule places in the set:
    ``max(0, |union ∩ window| - laxity)``.
    """
    return max(0, iset.intersection_length(job.release, job.deadline) - job.laxity)


# ---------------------------------------------------------------------------
# Max-flow feasibility.
# ---------------------------------------------------------------------------

# The total work W below which the flow oracle is exact: scipy's maximum_flow
# computes in int32, and no arc carries more than W, so capacities are clamped to W.
FLOW_WORK_LIMIT = 2**31


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Job → time-segment network of one job set, solvable at any machine count.

    Node layout: 0 is the source, ``1..n`` the jobs (in instance order),
    then one node per segment, then the sink.  Segments are the maximal
    runs between window breakpoints, so only slots intersecting some job
    window get a node (coordinate compression).  A segment of length L
    stands for L unit slots: a job feeds it up to L units, it drains
    ``m * L`` to the sink.  Only those sink arcs depend on ``m``.
    """

    segments: tuple[tuple[int, int], ...]
    job_arcs: tuple[tuple[int, int, int], ...]  # (job index, segment index, cap)
    work: int
    graph: csr_matrix  # capacities at m = 1; the sink arcs are the last entries

    @classmethod
    def build(cls, instance: Instance) -> "FlowNetwork":
        work = instance.total_work
        if work >= FLOW_WORK_LIMIT:
            raise EnumerationCapExceeded(
                f"total work {work} needs {work.bit_length()} bits; the flow "
                f"oracle is exact below 2^{FLOW_WORK_LIMIT.bit_length() - 1}"
            )
        points = sorted({p for j in instance.jobs for p in (j.release, j.deadline)})
        index = {p: i for i, p in enumerate(points)}
        segments = tuple(zip(points, points[1:]))
        arcs = tuple(
            (ji, si, segments[si][1] - segments[si][0])
            for ji, job in enumerate(instance.jobs)
            for si in range(index[job.release], index[job.deadline])
        )
        n, k = instance.n, len(segments)
        sink = 1 + n + k
        rows = [0] * n + [1 + ji for ji, _, _ in arcs] + list(range(1 + n, sink))
        cols = [*range(1, 1 + n), *(1 + n + si for _, si, _ in arcs), *[sink] * k]
        caps = [j.processing for j in instance.jobs] + [c for _, _, c in arcs]
        caps += [b - a for a, b in segments]
        data = np.array([min(c, work) for c in caps], dtype=np.int32)
        graph = csr_matrix((data, (rows, cols)), shape=(sink + 1, sink + 1))
        return cls(segments, arcs, work, graph)

    def solve(self, m: int) -> tuple[int, csr_matrix]:
        """Max flow value on ``m`` machines and the flow matrix."""
        k = len(self.segments)
        graph = self.graph.copy()
        # both factors are below 2^31, so the int64 product is exact
        drain = min(m, self.work) * graph.data[-k:].astype(np.int64)
        graph.data[-k:] = np.minimum(drain, self.work)
        result = maximum_flow(graph, 0, graph.shape[0] - 1)
        return int(result.flow_value), result.flow


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: PreemptiveSchedule | None


def _spread_segment(
    a: int, b: int, amounts: Sequence[tuple[int, int]]
) -> dict[int, set[int]]:
    """Pack per-job amounts into the unit slots of segment ``[a, b)``.

    Each job is assigned to its ``f`` least-loaded distinct slots (earliest
    slot on ties), which keeps slot loads within one of each other, so the
    segment peak is exactly ``ceil(total / (b - a))``.
    """
    width = b - a
    load = [0] * width
    slots: dict[int, set[int]] = {a + i: set() for i in range(width)}
    for job_id, f in amounts:
        order = sorted(range(width), key=lambda i: (load[i], i))
        for i in order[:f]:
            load[i] += 1
            slots[a + i].add(job_id)
    return slots


def is_feasible_preemptive(instance: Instance, m: int) -> bool:
    """Feasibility without the witness decomposition (cheaper)."""
    if m < 1:
        raise ValueError("machine count must be positive")
    if instance.n == 0:
        return True
    network = FlowNetwork.build(instance)
    return network.solve(m)[0] == network.work


def feasible_preemptive(instance: Instance, m: int) -> FeasibilityResult:
    """True iff the instance fits on ``m`` preemptive machines.

    When feasible, the flow decomposes into a slot-level witness schedule;
    jobs are packed into segment slots in id order, so the witness is a
    deterministic function of the instance and ``m``.
    """
    if m < 1:
        raise ValueError("machine count must be positive")
    if instance.n == 0:
        return FeasibilityResult(True, PreemptiveSchedule({}))
    network = FlowNetwork.build(instance)
    value, flow = network.solve(m)
    if value < network.work:
        return FeasibilityResult(False, None)
    n, arcs = instance.n, network.job_arcs
    pairs = np.array([(1 + ji, 1 + n + si) for ji, si, _ in arcs])
    amounts = np.asarray(flow[pairs[:, 0], pairs[:, 1]]).ravel().tolist()
    # (segment, job id, amount), so each segment packs its jobs in id order
    entries = sorted(
        (si, instance.jobs[ji].id, f) for (ji, si, _), f in zip(arcs, amounts) if f
    )
    assignments: dict[int, set[int]] = {}
    for si, group in itertools.groupby(entries, key=lambda e: e[0]):
        a, b = network.segments[si]
        assignments.update(_spread_segment(a, b, [(j, f) for _, j, f in group]))
    return FeasibilityResult(True, PreemptiveSchedule(assignments))


def min_machines(jobs: Sequence[Job], lower: int) -> int:
    """Smallest m >= max(lower, 1) on which ``jobs`` are preemptively feasible.

    The search starts at the larger of ``lower`` and the load bound
    ``ceil(W / (d_max - r_min))``, gallops upward (lo, lo+1, lo+3, lo+7, ...)
    until a count fits, then bisects the last gap.  Any m >= n fits, one job
    per machine, without a solve; every solve reuses one network.
    """
    instance = Instance(jobs)
    n, lo = instance.n, max(lower, 1)
    if lo < n:
        span = instance.d_max - min(j.release for j in instance.jobs)
        lo = max(lo, -(-instance.total_work // span))
    if lo >= n:
        return lo
    network = FlowNetwork.build(instance)

    def fits(m: int) -> bool:
        return m >= n or network.solve(m)[0] == network.work

    bad, good = lo - 1, lo
    while not fits(good):
        bad, good = good, min(2 * good - lo + 1, n)
    while good - bad > 1:
        mid = (bad + good) // 2
        if fits(mid):
            good = mid
        else:
            bad = mid
    return good


def optimum_preemptive(instance: Instance) -> int:
    """Minimum machine count for a feasible preemptive schedule."""
    if instance.n == 0:
        raise ValueError("instance is empty")
    return min_machines(instance.jobs, 1)


def optimal_witness(instance: Instance) -> tuple[int, PreemptiveSchedule]:
    """The preemptive optimum together with a witness schedule at that count."""
    m = optimum_preemptive(instance)
    result = feasible_preemptive(instance, m)
    assert result.witness is not None
    return m, result.witness


# ---------------------------------------------------------------------------
# Strong density: exhaustive enumeration over subsets of occupied unit slots.
# ---------------------------------------------------------------------------


def _occupied_slots(instance: Instance) -> list[int]:
    slots: set[int] = set()
    for job in instance.jobs:
        slots.update(range(job.release, job.deadline))
    return sorted(slots)


def _density_scan(instance: Instance, slot_cap: int) -> tuple[Fraction, int, list[int]]:
    """Shared enumeration: best contribution/length ratio over slot subsets.

    Restricting to occupied slots is lossless: an unoccupied slot adds
    nothing to any contribution but inflates the length.
    """
    if instance.n == 0:
        raise ValueError("instance is empty")
    slots = _occupied_slots(instance)
    k = len(slots)
    if k > slot_cap:
        raise EnumerationCapExceeded(
            f"instance too large for exact enumeration: {k} occupied slots "
            f"exceed the cap of {slot_cap}"
        )
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
    score = num * (K // den)
    best = int(np.argmax(score))
    mask = best + 1  # masks start at 1
    return Fraction(int(num[best]), int(den[best])), mask, slots


def strong_density_exact(
    instance: Instance, slot_cap: int = DEFAULT_SLOT_CAP
) -> Fraction:
    """Maximum over non-empty unit-slot subsets of total contribution per
    unit length, as an exact fraction.
    """
    value, _, _ = _density_scan(instance, slot_cap)
    return value


def strong_density_witness(
    instance: Instance, slot_cap: int = DEFAULT_SLOT_CAP
) -> tuple[Fraction, IntervalSet]:
    """Strong density plus one maximizing interval set."""
    value, mask, slots = _density_scan(instance, slot_cap)
    chosen = [slots[i] for i in range(len(slots)) if mask >> i & 1]
    return value, IntervalSet.from_slots(chosen)


def check_strong_density_theorem(
    instance: Instance, slot_cap: int = DEFAULT_SLOT_CAP
) -> bool:
    """Cross-validate the two optimum routes:
    ``ceil(strong density) == flow-based optimum``.
    """
    return ceil_frac(strong_density_exact(instance, slot_cap)) == optimum_preemptive(
        instance
    )


# ---------------------------------------------------------------------------
# Exact non-preemptive optimum (desk scale).
# ---------------------------------------------------------------------------


def optimum_nonpreemptive_exact(
    instance: Instance, cap: int = DEFAULT_BNB_CAP
) -> int:
    """Smallest max-overlap over all feasible start vectors.

    Branch and bound over starts, jobs ordered by (deadline, release, id),
    pruning branches whose running overlap already meets the incumbent.
    Identical jobs are forced into non-decreasing starts to kill symmetric
    branches.
    """
    if instance.n == 0:
        raise ValueError("instance is empty")
    if instance.n > cap:
        raise EnumerationCapExceeded(
            f"instance too large for exact search: {instance.n} jobs exceed "
            f"the cap of {cap}"
        )
    jobs = sorted(instance.jobs, key=lambda j: (j.deadline, j.release, j.id))
    horizon = instance.d_max
    lower = optimum_preemptive(instance)
    # EarlyFit gives a cheap feasible incumbent.
    incumbent = peak_overlap((j.release, j.release + j.processing) for j in jobs)
    if incumbent == lower:
        return incumbent
    counts = [0] * horizon
    best = incumbent

    def dfs(idx: int, current_max: int, prev_start: int) -> None:
        nonlocal best
        if current_max >= best:
            return
        if idx == len(jobs):
            best = current_max
            return
        job = jobs[idx]
        lo = job.release
        if idx > 0:
            prev = jobs[idx - 1]
            if (prev.release, prev.deadline, prev.processing) == (
                job.release,
                job.deadline,
                job.processing,
            ):
                lo = max(lo, prev_start)
        for s in range(lo, job.deadline - job.processing + 1):
            new_max = current_max
            for t in range(s, s + job.processing):
                counts[t] += 1
                if counts[t] > new_max:
                    new_max = counts[t]
            if new_max < best:
                dfs(idx + 1, new_max, s)
            for t in range(s, s + job.processing):
                counts[t] -= 1
            if best == lower:
                return

    dfs(0, 0, 0)
    return best


# ---------------------------------------------------------------------------
# Density lower bound for equal processing times.
# ---------------------------------------------------------------------------


def density_equal_p(jobs: Sequence[Job], p: int) -> Fraction:
    """Density of an equal-processing-time job set: ``p`` times the maximum,
    over candidate intervals ``[a, b]``, of the number of windows contained
    in ``[a, b]`` per unit of length.  A lower bound on the optimum.
    """
    jobs = list(jobs)
    for job in jobs:
        if job.processing != p:
            raise ValueError(
                f"job {job.id} has processing {job.processing}, expected {p}"
            )
    if not jobs:
        return Fraction(0)
    starts = sorted({0, *(j.release for j in jobs)})
    ends = sorted({j.deadline for j in jobs})
    best = Fraction(0)
    for a in starts:
        for b in ends:
            if b <= a:
                continue
            count = sum(1 for j in jobs if a <= j.release and j.deadline <= b)
            if count:
                best = max(best, Fraction(p * count, b - a))
    return best
