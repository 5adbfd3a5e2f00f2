"""Exact offline optima and the strong-density characterization.

The preemptive optimum is computed by max-flow feasibility (jobs feed work
into time segments, segments drain into the sink at the machine count), one
network per job set, and a galloping search over the machine count from the
load bound, which hands back the flow of its solve at the optimum.  The
strong density comes from the same network: at a fractional machine count
its min cut picks the set of time segments that most exceeds that count,
and Dinkelbach's method raises the count to the best ratio.  The
two searches must agree via ``ceil(strong density) == preemptive optimum``;
the tests check both against enumerations.  The non-preemptive optimum
is a search over machine assignments from the preemptive optimum upward,
each machine's job set checked by a single-machine earliest-finish DP over
subsets, so its cost follows the job count rather than the time magnitudes.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow as scipy_maximum_flow

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
    "min_machines_flow",
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

# The flow bound W·den below which a solve runs on int32 capacities, each
# clamped to that bound (no arc carries more), as scipy's maximum_flow takes
# them.  From it on the capacities are exact Python ints and ``_dinic``
# solves them, whatever the network's size.  It also bounds the total work
# of ``feasible_preemptive``, whose witness holds one entry per unit.
FLOW_WORK_LIMIT = 2**31

# Networks with at most this many job arcs are solved by ``_dinic`` in
# Python, larger ones by scipy, whose maximum_flow spends 0.2-0.4 ms on
# sparse-matrix set-up per call whatever the size.  Median time per solve
# on a 2-core Xeon VM (Python 3.11, scipy 1.17.1), scipy against Python,
# 24 random networks per row (BENCH_flow_kernel.json): up to 16 job arcs
# 0.37 against 0.03 ms; 33-64 arcs 0.23 against 0.08; 161-192 arcs 0.43
# against 0.38; 193-224 arcs 0.44 against 0.43; 225-256 arcs 0.40 against
# 0.47; 385-512 arcs 0.45 against 0.78.
PYTHON_FLOW_ARCS = 192


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

    A flow is the sequence of arc flows on ``layout``, the residual layout
    that scipy's maximum_flow builds, whichever kernel solved it.
    """

    segments: tuple[tuple[int, int], ...]
    job_arcs: tuple[tuple[int, int, int], ...]  # (job index, segment index, cap)
    n: int  # the job count
    work: int
    # the capacities of graph's arcs at m = 1: each clamped to W, except the
    # sink arcs (the last entries): they hold segment lengths clamped to
    # int32, since at m = num / den < 1 a segment longer than W drains
    # num * L < W * den; Python ints from W = FLOW_WORK_LIMIT on
    base: np.ndarray

    @classmethod
    def build(cls, instance: Instance) -> "FlowNetwork":
        work = instance.total_work
        points = sorted({p for j in instance.jobs for p in (j.release, j.deadline)})
        index = {p: i for i, p in enumerate(points)}
        segments = tuple(zip(points, points[1:]))
        lengths = [b - a for a, b in segments]
        arcs = tuple(
            (ji, si, lengths[si])
            for ji, job in enumerate(instance.jobs)
            for si in range(index[job.release], index[job.deadline])
        )
        caps = [j.processing for j in instance.jobs] + [min(c, work) for _, _, c in arcs]
        caps += [min(c, FLOW_WORK_LIMIT - 1) for c in lengths]
        dtype = np.int32 if work < FLOW_WORK_LIMIT else object
        return cls(segments, arcs, instance.n, work, np.array(caps, dtype=dtype))

    @cached_property
    def graph(self) -> csr_matrix:
        """The arcs as scipy's maximum_flow takes them, with capacities
        ``base``: CSR row by row, the source, each job's run of segments,
        each segment's sink arc; the sink row is empty."""
        n, k, arcs = self.n, len(self.segments), len(self.job_arcs)
        sink = 1 + n + k
        # job ji's run starts at its first arc, found by bisection
        starts = (bisect.bisect_left(self.job_arcs, (ji,)) for ji in range(n))
        indptr = [0, *(n + s for s in starts), *range(n + arcs, n + arcs + k + 1), n + arcs + k]
        indices = [*range(1, 1 + n), *(1 + n + si for _, si, _ in self.job_arcs), *[sink] * k]
        return csr_matrix(
            (self.base, np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
            shape=(sink + 1, sink + 1),
        )

    @cached_property
    def layout(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """``(indptr, indices, reverse, forward)``: the network with a
        reverse arc for every arc, as CSR rows in ascending column order.

        Row by row: the source, as its jobs; each job, as the source and
        then its segments; each segment, as the jobs that cover it and then
        the sink; the sink, as every segment.  ``reverse[p]`` is the
        position of the reverse of the arc at ``p``, and ``forward`` lists
        the positions of ``graph``'s arcs in its order: the arcs whose head
        is above their tail.  So job arc ``i`` of job ``ji`` sits at
        ``n + 1 + ji + i``, and the sink's row is the last ``k`` positions.
        """
        n, k = self.n, len(self.segments)
        sink = 1 + n + k
        rows = [list(range(1, 1 + n))] + [[0] for _ in range(n)]
        covers: list[list[int]] = [[] for _ in range(k)]
        for ji, si, _ in self.job_arcs:
            rows[1 + ji].append(1 + n + si)
            covers[si].append(1 + ji)
        rows += [jobs + [sink] for jobs in covers]
        rows.append(list(range(1 + n, sink)))
        indptr = list(itertools.accumulate(map(len, rows), initial=0))
        indices = [v for row in rows for v in row]
        # tails visit each row in ascending order, so the arcs into a node
        # fill its row in column order
        fill = indptr[:-1]
        reverse = []
        for row in rows:
            for v in row:
                reverse.append(fill[v])
                fill[v] += 1
        forward = [
            *range(n),
            *(n + 1 + ji + i for i, (ji, _, _) in enumerate(self.job_arcs)),
            *(indptr[v + 1] - 1 for v in range(1 + n, sink)),
        ]
        return indptr, indices, reverse, forward

    def capacities(self, m: int | Fraction) -> np.ndarray:
        """The capacities of ``graph``'s arcs on ``m`` machines, in its
        order, scaled by ``m``'s denominator: int32 below a flow bound of
        ``FLOW_WORK_LIMIT``, Python ints in an object array from it on."""
        num, den = m.numerator, m.denominator
        limit = self.work * den
        k = len(self.segments)
        if limit >= FLOW_WORK_LIMIT:
            # base's sink arcs are clamped, so they come from the segments
            caps = [c * den for c in self.base[:-k].tolist()]
            caps += [min(num * (b - a), limit) for a, b in self.segments]
            return np.array(caps, dtype=object)
        caps = self.base.copy()
        if den > 1:
            caps[:-k] *= den
        # both factors are below 2^31, so the int64 product is exact
        drain = min(num, limit) * caps[-k:].astype(np.int64)
        caps[-k:] = np.minimum(drain, limit)
        return caps

    def on_layout(self, caps: np.ndarray) -> list[int]:
        """``graph``'s arc capacities ``caps`` at their positions on
        ``layout``; a reverse arc has none."""
        _, indices, _, forward = self.layout
        placed = [0] * len(indices)
        for p, c in zip(forward, caps.tolist()):
            placed[p] = c
        return placed

    def solve(self, m: int | Fraction) -> tuple[int, Sequence[int]]:
        """Max flow value on ``m`` machines and the arc flows on ``layout``."""
        return maximum_flow(self, self.capacities(m))


def maximum_flow(network: FlowNetwork, caps: np.ndarray) -> tuple[int, Sequence[int]]:
    """Maximum flow from the source to the sink of ``network`` under
    ``graph``'s arc capacities ``caps``: its value and the arc flows on
    ``layout`` (a reverse arc carries minus its arc's flow).

    Up to ``PYTHON_FLOW_ARCS`` job arcs, or on Python int capacities,
    ``_dinic`` solves it; otherwise scipy does, on ``graph``'s arcs, and
    returns its flows on the same layout.  Both run Dinic's algorithm in
    the same order, so they return the same flows.
    """
    if len(network.job_arcs) <= PYTHON_FLOW_ARCS or caps.dtype == object:
        indptr, indices, reverse, _ = network.layout
        placed = network.on_layout(caps)
        residual = placed[:]
        _dinic(indptr, indices, reverse, residual)
        flows = [c - r for c, r in zip(placed, residual)]
        return sum(flows[: indptr[1]]), flows
    graph = network.graph
    result = scipy_maximum_flow(
        csr_matrix((caps, graph.indices, graph.indptr), shape=graph.shape),
        0,
        graph.shape[0] - 1,
    )
    return int(result.flow_value), result.flow.data


def _levels(indptr: list[int], indices: list[int], residual: list[int]) -> list[int]:
    """Breadth-first distances from the source (node 0) over the arcs of
    positive residual capacity, -1 where unreached; as in scipy, the search
    stops when it takes the sink (the last node) off the queue."""
    sink = len(indptr) - 2
    levels = [-1] * (sink + 1)
    levels[0] = 0
    queue = [0]
    for node in queue:
        if node == sink:
            break
        level = levels[node] + 1
        for e in range(indptr[node], indptr[node + 1]):
            v = indices[e]
            if residual[e] > 0 and levels[v] < 0:
                levels[v] = level
                queue.append(v)
    return levels


def _dinic(
    indptr: list[int], indices: list[int], reverse: list[int], residual: list[int]
) -> None:
    """Push a maximum flow from the source (node 0) to the sink (the last
    node) into ``residual``, the residual capacities of a layout on which
    the arc at ``p`` has its reverse at ``reverse[p]``.

    A transliteration of scipy's Dinic (``scipy/sparse/csgraph/_flow.pyx``),
    whose order fixes the flow: each phase levels the nodes by ``_levels``,
    then augments one path at a time until none is left.
    """
    sink = len(indptr) - 2
    bound = sum(residual[: indptr[1]])  # the source arcs: no path carries more
    while True:
        levels = _levels(indptr, indices, residual)
        if levels[sink] < 0:
            return
        progress = indptr[:-1]
        while _augment(indptr, indices, reverse, residual, levels, progress, bound):
            pass


def _augment(
    indptr: list[int],
    indices: list[int],
    reverse: list[int],
    residual: list[int],
    levels: list[int],
    progress: list[int],
    bound: int,
) -> bool:
    """One augmenting path of a Dinic phase, or False when none is left.

    The depth-first search restarts from the source with ``bound`` as its
    flow (no source arc exceeds it, so each bottleneck is the one scipy
    finds from its int32 maximum), and each node resumes at its own
    progress pointer.  An arc is followed when it has residual capacity and climbs one level;
    a node whose last arc fails is abandoned, and its parent's pointer
    moves on.
    """
    sink = len(indptr) - 2
    node, limit = 0, bound
    path, limits = [node], [limit]
    while True:
        e = progress[node]
        v = indices[e]
        left = residual[e]
        if left > 0 and levels[v] == levels[node] + 1:
            if left < limit:
                limit = left
            if v == sink:
                for u in path:
                    e = progress[u]
                    residual[e] -= limit
                    residual[reverse[e]] += limit
                return True
            node = v
            path.append(node)
            limits.append(limit)
            continue
        while progress[node] == indptr[node + 1] - 1:
            path.pop()
            limits.pop()
            if not path:
                return False
            node, limit = path[-1], limits[-1]
        progress[node] += 1


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
    work = instance.total_work
    if work >= FLOW_WORK_LIMIT:
        raise EnumerationCapExceeded(
            f"total work {work} needs {work.bit_length()} bits; a witness "
            "holds one entry per unit of work and is built only below 2^31"
        )
    network = FlowNetwork.build(instance)
    value, flow = network.solve(m)
    if value < network.work:
        return FeasibilityResult(False, None)
    n, arcs = instance.n, network.job_arcs
    # job arc i of job ji sits at n + 1 + ji + i on the layout; entries are
    # (segment, job id, amount), so each segment packs its jobs in id order
    entries = sorted(
        (si, instance.jobs[ji].id, int(f))
        for i, (ji, si, _) in enumerate(arcs)
        if (f := flow[n + 1 + ji + i])
    )
    assignments: dict[int, set[int]] = {}
    for si, group in itertools.groupby(entries, key=lambda e: e[0]):
        a, b = network.segments[si]
        assignments.update(_spread_segment(a, b, [(j, f) for _, j, f in group]))
    return FeasibilityResult(True, PreemptiveSchedule(assignments))


def min_machines_flow(
    jobs: Sequence[Job], lower: int
) -> tuple[int, FlowNetwork | None, Sequence[int] | None]:
    """Smallest m >= max(lower, 1) on which ``jobs`` are preemptively
    feasible, with the jobs' network and a maximum flow on m machines.

    The search starts at the larger of ``lower`` and the load bound
    ``ceil(W / (d_max - r_min))``, gallops upward (lo, lo+1, lo+3, lo+7, ...)
    until a count fits, then bisects the last gap.  Any m >= n fits, one job
    per machine, without a solve; every solve reuses one network.

    Returns ``(m, network, flow)``.  ``flow`` is the search's own solve at
    m, the last feasible one; it is None when m >= n settled m without a
    solve at it.  ``network`` is None when the lower bound alone reached n,
    before any network was built.
    """
    instance = Instance(jobs)
    n, lo = instance.n, max(lower, 1)
    if lo < n:
        span = instance.d_max - min(j.release for j in instance.jobs)
        lo = max(lo, -(-instance.total_work // span))
    if lo >= n:
        return lo, None, None
    network = FlowNetwork.build(instance)

    def fits(m: int) -> tuple[bool, Sequence[int] | None]:
        if m >= n:
            return True, None
        value, flow = network.solve(m)
        return value == network.work, flow

    bad, good = lo - 1, lo
    ok, flow = fits(good)
    while not ok:
        bad, good = good, min(2 * good - lo + 1, n)
        ok, flow = fits(good)
    while good - bad > 1:
        mid = (bad + good) // 2
        ok, mid_flow = fits(mid)
        if ok:
            good, flow = mid, mid_flow
        else:
            bad = mid
    return good, network, flow


def min_machines(jobs: Sequence[Job], lower: int) -> int:
    """Smallest m >= max(lower, 1) on which ``jobs`` are preemptively
    feasible: the count alone of ``min_machines_flow``."""
    return min_machines_flow(jobs, lower)[0]


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
        caps = network.capacities(rho)
        value, flow = maximum_flow(network, caps)
        if value == network.work * rho.denominator:
            return rho, iset
        indptr, indices, _, _ = network.layout
        residual = [c - int(f) for c, f in zip(network.on_layout(caps), flow)]
        # the sink is unreachable at a maximum flow, so the search reaches
        # the source side of the minimum cut, the same for every such flow
        levels = _levels(indptr, indices, residual)
        chosen = {v - first for v in range(first, len(levels) - 1) if levels[v] >= 0}


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


def optimum_nonpreemptive_exact(instance: Instance, *, lower: int = 1) -> int:
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
    if instance.n > DEFAULT_BNB_CAP:
        raise EnumerationCapExceeded(
            f"instance too large for exact search: {instance.n} jobs exceed "
            f"the cap of {DEFAULT_BNB_CAP}"
        )
    jobs = sorted(instance.jobs, key=lambda j: (j.deadline, j.release, j.id))
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
    starts = sorted({0, *(j.release for j in jobs)})
    ends = sorted({j.deadline for j in jobs})
    # the best ratio so far is count / length, compared by cross-multiplying
    count, length = 0, 1
    for a in starts:
        for b in ends:
            if b <= a:
                continue
            inside = sum(1 for j in jobs if a <= j.release and j.deadline <= b)
            if inside * length > count * (b - a):
                count, length = inside, b - a
    return Fraction(p * count, length)
