"""Exact offline optima and the strong-density characterization.

The preemptive optimum is computed by max-flow feasibility (jobs feed work
into time segments, segments drain into the sink at the machine count), one
network per job set, and a galloping search over the machine count from the
load bound.  The strong density comes from the same network: at a fractional
machine count its min cut picks the set of time segments that most exceeds
that count, and Dinkelbach's method raises the count to the best ratio.  The
two searches must agree via ``ceil(strong density) == preemptive optimum``;
the tests check both against enumerations.  The non-preemptive optimum
is a search over machine assignments from the preemptive optimum upward,
each machine's job set checked by a single-machine earliest-finish DP over
subsets, so its cost follows the job count rather than the time magnitudes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

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

# No solver reads this: perfbench/workloads.py uses it to choose which
# exact_small items check the strong density, so it stays while that does.
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
    """Pairwise-disjoint integer intervals ``[a, b]``, sorted ascending, with
    touching intervals merged into maximal runs."""

    intervals: tuple[tuple[int, int], ...]

    def __init__(self, intervals: Iterable[tuple[int, int]]):
        ivs = sorted((int(a), int(b)) for a, b in intervals)
        if not ivs:
            raise ValueError("interval set must be non-empty")
        for a, b in ivs:
            if a >= b:
                raise ValueError(f"degenerate interval [{a}, {b}]")
        runs = [ivs[0]]
        for a, b in ivs[1:]:
            if a < runs[-1][1]:
                raise ValueError("intervals overlap")
            if a == runs[-1][1]:
                runs[-1] = (runs[-1][0], b)
            else:
                runs.append((a, b))
        object.__setattr__(self, "intervals", tuple(runs))

    @classmethod
    def from_slots(cls, slots: Iterable[int]) -> "IntervalSet":
        """Merge unit slots into maximal runs."""
        return cls((t, t + 1) for t in set(slots))

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

# The flow value below which the flow oracle is exact: scipy's maximum_flow
# computes in int32, and no arc carries more than the flow value, so
# capacities are clamped to it.
FLOW_WORK_LIMIT = 2**31


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Job → time-segment network of one job set, solvable at any machine count.

    Node layout: 0 is the source, ``1..n`` the jobs (in instance order),
    then one node per segment, then the sink.  Segments are the maximal
    runs between window breakpoints, so only slots intersecting some job
    window get a node (coordinate compression).  A segment of length L
    stands for L unit slots: a job feeds it up to L units, it drains
    ``m * L`` to the sink.  Only those sink arcs depend on ``m``, which may
    be a fraction: at ``m = num / den`` every capacity is scaled by ``den``,
    so the flow saturates at ``work * den``.
    """

    segments: tuple[tuple[int, int], ...]
    job_arcs: tuple[tuple[int, int, int], ...]  # (job index, segment index, cap)
    work: int
    # capacities at m = 1, each clamped to W, except the sink arcs (the last
    # entries): they hold segment lengths clamped to int32, since at
    # m = num / den < 1 a segment longer than W drains num * L < W * den
    graph: csr_matrix

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
        caps = [j.processing for j in instance.jobs] + [min(c, work) for _, _, c in arcs]
        caps += [min(b - a, FLOW_WORK_LIMIT - 1) for a, b in segments]
        data = np.array(caps, dtype=np.int32)
        graph = csr_matrix((data, (rows, cols)), shape=(sink + 1, sink + 1))
        return cls(segments, arcs, work, graph)

    def capacities(self, m: int | Fraction) -> csr_matrix:
        """The capacities on ``m`` machines, scaled by ``m``'s denominator."""
        num, den = m.numerator, m.denominator
        limit = self.work * den
        if limit >= FLOW_WORK_LIMIT:
            raise EnumerationCapExceeded(
                f"total work {self.work} at machine count {m} needs a flow of "
                f"{limit}; the flow oracle is exact below "
                f"2^{FLOW_WORK_LIMIT.bit_length() - 1}"
            )
        k = len(self.segments)
        graph = self.graph.copy()
        if den > 1:
            graph.data[:-k] *= den
        # both factors are below 2^31, so the int64 product is exact
        drain = min(num, limit) * graph.data[-k:].astype(np.int64)
        graph.data[-k:] = np.minimum(drain, limit)
        return graph

    def solve(self, m: int) -> tuple[int, csr_matrix]:
        """Max flow value on ``m`` machines and the flow matrix."""
        result = maximum_flow(self.capacities(m), 0, self.graph.shape[0] - 1)
        return int(result.flow_value), result.flow


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: PreemptiveSchedule | None


def _spread_segment(
    a: int, b: int, amounts: Sequence[tuple[int, int]]
) -> dict[int, set[int]]:
    """Pack per-job amounts into the unit slots of segment ``[a, b)`` by
    McNaughton's wrap-around rule.

    Each job takes the ``f`` slots that follow the previous job's, wrapping
    from ``b`` back to ``a``.  No amount exceeds ``b - a``, so a job's slots
    are distinct, and slot loads stay within one of each other: the segment
    peak is exactly ``ceil(total / (b - a))``.  Only occupied slots are
    returned, in increasing order.
    """
    width = b - a
    slots: dict[int, set[int]] = {}
    pos = 0
    for job_id, f in amounts:
        for i in range(pos, pos + f):
            slots.setdefault(a + i % width, set()).add(job_id)
        pos = (pos + f) % width
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
# Strong density: Dinkelbach's method over the flow network's min cuts.
# ---------------------------------------------------------------------------


def strong_density_witness(instance: Instance) -> tuple[Fraction, IntervalSet]:
    """Strong density plus one maximizing interval set.

    At a fractional machine count ``λ`` the network's min cut is
    ``W - max over segment sets S of [contribution(S) - λ |S|]`` (scaled by
    ``λ``'s denominator), and the segments reachable from the source in the
    residual graph form a maximizing ``S``.  Whole segments suffice: within
    a segment that bracket is convex in the number of slots taken.
    Dinkelbach's method starts from every occupied segment, sets ``λ`` to
    the ratio of ``S`` and takes the min cut's ``S`` until the flow
    saturates, that is, until no set beats ``λ``.  Each round raises ``λ``,
    so the loop ends.
    """
    if instance.n == 0:
        raise ValueError("instance is empty")
    network = FlowNetwork.build(instance)
    first = 1 + instance.n  # the node of segment 0; segments precede the sink
    chosen = {si for _, si, _ in network.job_arcs}
    while True:
        iset = IntervalSet(network.segments[si] for si in chosen)
        rho = Fraction(sum(contribution(j, iset) for j in instance.jobs), iset.length)
        graph = network.capacities(rho)
        result = maximum_flow(graph, 0, graph.shape[0] - 1)
        if result.flow_value == network.work * rho.denominator:
            return rho, iset
        residual = graph - result.flow
        residual.eliminate_zeros()
        # the sink is unreachable at a maximum flow
        reached = breadth_first_order(residual, 0, return_predecessors=False)
        chosen = {v - first for v in reached.tolist() if v >= first}


def strong_density_exact(instance: Instance) -> Fraction:
    """Maximum over non-empty unit-slot subsets of total contribution per
    unit length, as an exact fraction.
    """
    return strong_density_witness(instance)[0]


def check_strong_density_theorem(instance: Instance) -> bool:
    """Cross-check the min-cut search at fractional machine counts against
    the optimum's search at integer ones:
    ``ceil(strong density) == flow-based optimum``.
    """
    return ceil_frac(strong_density_exact(instance)) == optimum_preemptive(instance)


# ---------------------------------------------------------------------------
# Exact non-preemptive optimum: a search over machine assignments.
# ---------------------------------------------------------------------------


def optimum_nonpreemptive_exact(
    instance: Instance, cap: int = DEFAULT_BNB_CAP, *, lower: int = 1
) -> int:
    """Smallest machine count on which every job runs without preemption.

    Intervals form a perfect graph, so a peak overlap of k is the same as a
    split of the jobs into k single-machine job sets.  Each k from the
    larger of ``lower`` and the preemptive optimum up to the EarlyFit
    incumbent (every job started at its release) is decided by a depth-first
    search: jobs, in (deadline, release, id) order, go to an open machine
    or to the next new one, which opens machines in index order and so
    breaks machine symmetry.  A machine's job set, a bitmask, is feasible
    when its earliest finish is finite; for a fixed order earliest starts
    are optimal, so ``finish(S) = min over j in S of max(finish(S - j), r_j)
    + p_j``, kept only where it meets ``d_j``.  Finishes are memoised per
    mask for the whole call, so the cost depends on the job count, not on
    the time magnitudes.  ``lower`` must not exceed the optimum.
    """
    if instance.n == 0:
        raise ValueError("instance is empty")
    if instance.n > cap:
        raise EnumerationCapExceeded(
            f"instance too large for exact search: {instance.n} jobs exceed "
            f"the cap of {cap}"
        )
    jobs = sorted(instance.jobs, key=lambda j: (j.deadline, j.release, j.id))
    # the flow oracle is exact below FLOW_WORK_LIMIT; beyond it the search
    # alone rules out each k
    if instance.total_work < FLOW_WORK_LIMIT:
        lower = min_machines(instance.jobs, lower)
    incumbent = peak_overlap((j.release, j.release + j.processing) for j in jobs)
    finish: dict[int, int | None] = {0: 0}

    def earliest_finish(mask: int) -> int | None:
        if mask not in finish:
            best = None
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                before = earliest_finish(mask ^ bit)
                if before is None:
                    continue
                job = jobs[bit.bit_length() - 1]
                end = max(before, job.release) + job.processing
                if end <= job.deadline and (best is None or end < best):
                    best = end
            finish[mask] = best
        return finish[mask]

    def assign(idx: int, machines: list[int], k: int) -> bool:
        if idx == len(jobs):
            return True
        bit = 1 << idx
        for i, mask in enumerate(machines):
            if earliest_finish(mask | bit) is not None:
                machines[i] = mask | bit
                if assign(idx + 1, machines, k):
                    return True
                machines[i] = mask
        if len(machines) < k:
            machines.append(bit)
            if assign(idx + 1, machines, k):
                return True
            machines.pop()
        return False

    for k in range(max(lower, 1), incumbent):
        if assign(0, [], k):
            return k
    return incumbent


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
