"""Exact offline optima and the strong-density characterization.

The preemptive optimum is computed by max-flow feasibility (jobs feed work
into time segments, segments drain into the sink at the machine count) with
binary search over the machine count.  The strong density is an independent
enumeration oracle over unit-slot subsets; the two must agree via
``ceil(strong density) == preemptive optimum``.
"""

from __future__ import annotations

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

_INT64_MAX = 2**62  # headroom below the true int64 limit


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


@dataclass(frozen=True)
class FlowNetwork:
    """Job → time-segment network for feasibility at machine count ``m``.

    Node layout: 0 is the source, ``1..n`` the jobs (in instance order),
    then one node per segment, then the sink.  Segments are the maximal
    runs between window breakpoints, so only slots intersecting some job
    window get a node (coordinate compression).  A segment of length L
    stands for L unit slots: a job feeds it up to L units, it drains
    ``m * L`` to the sink.
    """

    m: int
    segments: tuple[tuple[int, int], ...]
    job_arcs: tuple[tuple[int, int, int], ...]  # (job index, segment index, cap)

    @classmethod
    def build(cls, instance: Instance, m: int) -> "FlowNetwork":
        points = sorted({p for j in instance.jobs for p in (j.release, j.deadline)})
        segments = tuple(
            (a, b) for a, b in zip(points, points[1:])
        )
        arcs = []
        for ji, job in enumerate(instance.jobs):
            for si, (a, b) in enumerate(segments):
                if job.release <= a and b <= job.deadline:
                    arcs.append((ji, si, b - a))
        return cls(m=m, segments=segments, job_arcs=tuple(arcs))

    def solve(self, instance: Instance) -> tuple[int, dict[tuple[int, int], int]]:
        """Max flow value and the per-(job, segment) unit amounts."""
        n = instance.n
        k = len(self.segments)
        source, sink = 0, 1 + n + k
        rows, cols, caps = [], [], []
        for ji, job in enumerate(instance.jobs):
            rows.append(source)
            cols.append(1 + ji)
            caps.append(job.processing)
        for ji, si, cap in self.job_arcs:
            rows.append(1 + ji)
            cols.append(1 + n + si)
            caps.append(cap)
        for si, (a, b) in enumerate(self.segments):
            rows.append(1 + n + si)
            cols.append(sink)
            caps.append(self.m * (b - a))
        if caps and max(caps) > _INT64_MAX:
            raise OverflowError(
                "flow capacities exceed 64-bit range; rescale the instance"
            )
        graph = csr_matrix(
            (np.asarray(caps, dtype=np.int64), (rows, cols)),
            shape=(sink + 1, sink + 1),
        )
        result = maximum_flow(graph, source, sink)
        flow = result.flow
        amounts = {}
        for ji, si, _cap in self.job_arcs:
            f = int(flow[1 + ji, 1 + n + si])
            if f > 0:
                amounts[(ji, si)] = f
        return int(result.flow_value), amounts


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


def _flow_feasible(
    instance: Instance, m: int
) -> tuple[bool, FlowNetwork, dict[tuple[int, int], int]]:
    network = FlowNetwork.build(instance, m)
    value, amounts = network.solve(instance)
    return value == instance.total_work, network, amounts


def is_feasible_preemptive(instance: Instance, m: int) -> bool:
    """Feasibility without the witness decomposition (cheaper)."""
    if m < 1:
        raise ValueError("machine count must be positive")
    if instance.n == 0:
        return True
    return _flow_feasible(instance, m)[0]


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
    ok, network, amounts = _flow_feasible(instance, m)
    if not ok:
        return FeasibilityResult(False, None)
    by_segment: dict[int, list[tuple[int, int]]] = {}
    for (ji, si), f in amounts.items():
        by_segment.setdefault(si, []).append((instance.jobs[ji].id, f))
    assignments: dict[int, set[int]] = {}
    for si, entries in sorted(by_segment.items()):
        a, b = network.segments[si]
        entries.sort()
        assignments.update(_spread_segment(a, b, entries))
    return FeasibilityResult(True, PreemptiveSchedule(assignments))


def optimum_preemptive(instance: Instance) -> int:
    """Minimum machine count for a feasible preemptive schedule."""
    if instance.n == 0:
        raise ValueError("instance is empty")
    lo = max(1, ceil_frac(Fraction(instance.total_work, instance.d_max)))
    hi = instance.n
    while lo < hi:
        mid = (lo + hi) // 2
        if _flow_feasible(instance, mid)[0]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def min_machines(jobs: Sequence[Job], lower: int) -> int:
    """Smallest m >= max(lower, 1) on which ``jobs`` are preemptively
    feasible, found by scanning upward one machine count at a time."""
    instance = Instance(jobs)
    m = max(lower, 1)
    while not is_feasible_preemptive(instance, m):
        m += 1
    return m


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
