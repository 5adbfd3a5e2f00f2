"""Exact offline optima and the strong-density characterization.

The preemptive optimum is computed by max-flow feasibility (jobs feed work
into time segments, segments drain into the sink at the machine count), one
network per job set, and a galloping search over the machine count from the
load bound.  A job set that only grows keeps its optimum in a
``RunningOptimum`` instead, one feasible flow augmented at each addition,
with no network and no search.  A network is held once, as the residual
CSR layout that Dinic's algorithm solves; a Python kernel solves small
networks on it and scipy large ones, with the same flows.  The strong
density comes from the same network: at a fractional machine count
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
    "RunningOptimum",
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

# The flow bound W·den below which a solve runs on int32 capacities, as
# scipy's maximum_flow takes them: no arc carries more than that bound, as
# ``capacities`` clamps each sink arc to it (``base`` holds none of them,
# since they depend on the machine count).  From it on the capacities are
# exact Python ints and ``_dinic`` solves them, whatever the network's
# size.  It also bounds the total work of ``feasible_preemptive``, whose
# witness holds one entry per unit.
FLOW_WORK_LIMIT = 2**31

# Networks with at most this many job arcs are solved by ``_dinic`` in
# Python, larger ones by scipy, whose maximum_flow spends 0.3-0.4 ms on
# sparse-matrix set-up per call whatever the size.  Median time per solve,
# at a network's optimum and one machine below it, on a 2-core Xeon VM
# (Python 3.11, scipy 1.17.1), Python against scipy, 24 random networks per
# 64-arc bin (tools/flow_crossover.py, BENCH_flow_first_phase.json): 1-64
# job arcs 0.04 against 0.36 ms; 129-192 0.17 against 0.29; 193-256 0.24
# against 0.33; 257-320 0.39 against 0.46; 321-384 0.51 against 0.41;
# 385-448 0.57 against 0.49; 577-640 0.65 against 0.34.
PYTHON_FLOW_ARCS = 320


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

    The arcs are held once, in the residual layout that Dinic's algorithm
    solves: CSR rows ``indptr``/``indices`` in ascending column order, with
    a reverse arc of capacity 0 beside every arc, as Python lists, which the
    Python kernel indexes and scipy takes as int32.  Row by row: the source,
    as its jobs; each job, as the source and then its segments; each
    segment, as the jobs that cover it and then the sink; the sink, as
    every segment.  So job arc ``i`` of job ``ji`` sits at ``n + 1 + ji +
    i``, and the sink's row is the last ``k`` positions.  ``reverse[p]`` is
    the position of the reverse of the arc at ``p``, and ``drains[si]`` the
    position of segment ``si``'s sink arc.  Both kernels solve this layout
    as it is, and a flow is the sequence of arc flows on it.  scipy 1.17.1
    was checked to add no arc to it and to return its flows position for
    position; the package allows scipy 1.10 on, but no other version was
    checked, and ``test_python_kernel_flows_equal_scipy`` (scipy on the
    forward arcs alone as the reference) guards it on the installed one.
    """

    segments: tuple[tuple[int, int], ...]
    work: int
    arcs: int  # the job-arc count, which picks the kernel
    indptr: list[int]
    indices: list[int]
    reverse: list[int]
    # the capacities at m = 1 of the arcs that do not depend on m, each
    # clamped to W; 0 on the sink arcs and on every reverse arc.  int32
    # below W = FLOW_WORK_LIMIT, Python ints from it on
    base: np.ndarray
    drains: np.ndarray

    @classmethod
    def build(cls, instance: Instance) -> "FlowNetwork":
        jobs, n, work = instance.jobs, instance.n, instance.total_work
        points = sorted({p for j in jobs for p in (j.release, j.deadline)})
        index = {p: i for i, p in enumerate(points)}
        segments = tuple(zip(points, points[1:]))
        k = len(segments)
        first, sink = 1 + n, 1 + n + k
        spans = [(index[j.release], index[j.deadline]) for j in jobs]
        # the jobs covering each segment, summed from where spans open and close
        opened = [0] * (k + 1)
        for lo, hi in spans:
            opened[lo] += 1
            opened[hi] -= 1
        covers = list(itertools.accumulate(opened[:k]))
        rows = [n, *(1 + hi - lo for lo, hi in spans), *(c + 1 for c in covers), k]
        indptr = list(itertools.accumulate(rows, initial=0))
        size = indptr[-1]
        indices, reverse, base = [0] * size, [0] * size, [0] * size
        indices[:n] = range(1, first)
        base[:n] = [j.processing for j in jobs]
        feeds = [min(b - a, work) for a, b in segments]
        # the next free position in each segment's row: the jobs fill it in
        # ascending order, which leaves it at the segment's sink arc
        fill = indptr[first:sink]
        for ji, (lo, hi) in enumerate(spans):
            p = indptr[1 + ji]
            reverse[ji], reverse[p] = p, ji
            p += 1
            indices[p : p + hi - lo] = range(first + lo, first + hi)
            base[p : p + hi - lo] = feeds[lo:hi]
            for si in range(lo, hi):
                q = fill[si]
                fill[si] = q + 1
                indices[q] = 1 + ji
                reverse[p], reverse[q] = q, p
                p += 1
        last = indptr[sink]
        indices[last:] = range(first, sink)
        for si, q in enumerate(fill):
            indices[q] = sink
            reverse[q], reverse[last + si] = last + si, q
        dtype = np.int32 if work < FLOW_WORK_LIMIT else object
        return cls(
            segments,
            work,
            sum(covers),
            indptr,
            indices,
            reverse,
            np.array(base, dtype=dtype),
            np.array(fill, dtype=np.intp),
        )

    def capacities(self, m: int | Fraction) -> np.ndarray:
        """The arc capacities on ``m`` machines, in layout order, scaled by
        ``m``'s denominator: int32 below a flow bound of ``FLOW_WORK_LIMIT``,
        Python ints in an object array from it on."""
        num, den = m.numerator, m.denominator
        limit = self.work * den
        dtype = np.int32 if limit < FLOW_WORK_LIMIT else object
        caps = self.base.astype(dtype, copy=False) * den
        caps[self.drains] = [min(num * (b - a), limit) for a, b in self.segments]
        return caps

    def solve(self, m: int | Fraction) -> tuple[int, Sequence[int]]:
        """Max flow value on ``m`` machines and the arc flows on the layout."""
        return maximum_flow(self, self.capacities(m))


def maximum_flow(network: FlowNetwork, caps: np.ndarray) -> tuple[int, Sequence[int]]:
    """Maximum flow from the source to the sink of ``network`` under the
    arc capacities ``caps``: its value and the arc flows on the layout (a
    reverse arc carries minus its arc's flow).

    Up to ``PYTHON_FLOW_ARCS`` job arcs, or on Python int capacities,
    ``_dinic`` solves it; otherwise scipy does.  Both run Dinic's algorithm
    in the same order on the same layout, so they return the same flows.
    The Python kernel's first phase is one greedy pass over the jobs in
    source-row order, each filling its segments in row order: with every
    reverse arc empty the first level graph is source, jobs, segments,
    sink, and scipy's depth-first search with progress pointers pushes
    exactly those paths on it (see ``_first_phase``).
    """
    indptr, indices = network.indptr, network.indices
    if network.arcs <= PYTHON_FLOW_ARCS or caps.dtype == object:
        placed = caps.tolist()
        residual = placed[:]
        _dinic(indptr, indices, network.reverse, residual)
        flows = [c - r for c, r in zip(placed, residual)]
        return sum(flows[: indptr[1]]), flows
    nodes = len(indptr) - 1
    graph = csr_matrix(
        (caps, np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
        shape=(nodes, nodes),
    )
    result = scipy_maximum_flow(graph, 0, nodes - 1)
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
    then augments one path at a time until none is left.  The first phase
    runs in closed form, as ``_first_phase``: on a ``FlowNetwork`` layout
    it pushes the paths scipy's first phase pushes, in the same order and
    amounts.  When it saturates the source arcs the next levelling would
    stop at the source, so the solve ends there.
    """
    sink = len(indptr) - 2
    if not _first_phase(indptr, indices, reverse, residual):
        return
    bound = sum(residual[: indptr[1]])  # the source arcs: no path carries more
    while True:
        levels = _levels(indptr, indices, residual)
        if levels[sink] < 0:
            return
        progress = indptr[:-1]
        while _augment(indptr, indices, reverse, residual, levels, progress, bound):
            pass


def _first_phase(
    indptr: list[int], indices: list[int], reverse: list[int], residual: list[int]
) -> int:
    """Dinic's first phase on a ``FlowNetwork`` layout with every reverse
    arc empty, as a greedy pass in job order; returns the room left on the
    source arcs.

    With no reverse arc to take, the first level graph is the source, the
    jobs, the segments the jobs cover and the sink, and every arc of
    positive capacity between consecutive levels is in it.  Its depth-first
    search with progress pointers (see ``_augment``) therefore walks the
    jobs in source-row order and each job's segments in row order, and on
    each (job, segment) pair pushes the least of the job's room, the arc's
    and the segment's drain (the last arc of its row).  An exhausted job, a
    saturated arc and a segment whose drain is full are passed over and do
    not come back within the phase.  If no drain has room the sink is out
    of reach and the pass pushes nothing, as scipy's phase would.
    """
    unsent = 0
    for ji in range(indptr[1]):
        left = residual[ji]
        if not left:
            continue
        job = indices[ji]
        for e in range(indptr[job] + 1, indptr[job + 1]):
            room = residual[e]
            if not room:
                continue
            drain = indptr[indices[e] + 1] - 1
            spare = residual[drain]
            if not spare:
                continue
            push = left if left < room else room
            if spare < push:
                push = spare
            residual[e] = room - push
            residual[reverse[e]] += push
            residual[drain] = spare - push
            residual[reverse[drain]] += push
            left -= push
            if not left:
                break
        residual[reverse[ji]] += residual[ji] - left
        residual[ji] = left
        unsent += left
    return unsent


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
    indptr, indices = network.indptr, network.indices
    first = 1 + instance.n  # the node of segment 0
    # a job's row is the source, then its job arcs; entries are (segment,
    # job id, amount), so each segment packs its jobs in id order
    entries = sorted(
        (indices[p] - first, job.id, int(flow[p]))
        for ji, job in enumerate(instance.jobs)
        for p in range(indptr[1 + ji] + 1, indptr[2 + ji])
        if flow[p]
    )
    assignments: dict[int, set[int]] = {}
    for si, group in itertools.groupby(entries, key=lambda e: e[0]):
        a, b = network.segments[si]
        assignments.update(_spread_segment(a, b, [(j, f) for _, j, f in group]))
    return FeasibilityResult(True, PreemptiveSchedule(assignments))


def min_machines(jobs: Sequence[Job], lower: int) -> int:
    """Smallest m >= max(lower, 1) on which ``jobs`` are preemptively
    feasible.

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


def _cut_shares(
    a: int, b: int, shares: dict[int, int], c: int
) -> tuple[dict[int, int], dict[int, int]]:
    """Split the per-job units of segment ``[a, b)`` at ``a < c < b`` as
    McNaughton's wrap-around rule packs them (see ``_spread_segment``): each
    job takes the slots that follow the previous job's, in ``shares``'
    order, wrapping from ``b`` back to ``a``.  Returns the units of each job
    in ``[a, c)`` and in ``[c, b)``, jobs with none left out.  No share
    exceeds ``b - a``, so a job's slots are distinct and each part's share
    fits the part; slot loads differ by at most one, so a load of at most
    ``m (b - a)`` leaves at most m times each part's length in it."""
    width, k = b - a, c - a
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    pos = 0
    for job, units in shares.items():
        end = pos + units
        # the slots pos..end-1, those from width on wrapped back to 0
        inside = max(0, min(end, k) - pos) + max(0, min(end - width, k))
        if inside:
            left[job] = inside
        if units > inside:
            right[job] = units - inside
        pos = end - width if end >= width else end
    return left, right


class RunningOptimum:
    """The preemptive optimum of a job set that only grows, kept with one
    feasible flow of the set on ``m`` machines (Horn's formulation): the
    segments between the windows' breakpoints, and in each the units of
    every job that has some there.  A flow is feasible when each job's units
    sum to its processing time, no job has more units in a segment than the
    segment's length, and no segment more than ``m`` times its length.

    ``add`` admits jobs and returns the new optimum.  A segment that a new
    breakpoint falls in is cut by ``_cut_shares``, which keeps the flow
    feasible.  Each new job, in (deadline, admission) order, then fills its
    earliest segments that have room.  Any work left over is pushed along
    augmenting paths, job, segment, (a job with units there, another of its
    segments)*, a segment with room, in Dinic's phases from all jobs with
    work left at once.  When no path is left, the reachable jobs and
    segments form a minimum cut, whose capacity gives a lower bound on any
    count that fits, above ``m``; ``m`` rises to it, which keeps the flow
    feasible, since capacities only grow.  Adding to a maximum flow and
    augmenting from it gives a maximum flow of the larger set, so ``m`` is
    always the exact optimum, as ``min_machines`` computes it anew.
    """

    def __init__(self) -> None:
        self.m = 0
        self._jobs: list[tuple[int, int, int]] = []  # (release, deadline, p)
        # breakpoints; segment s is [points[s], points[s + 1])
        self._points: list[int] = []
        self._lengths: list[int] = []  # per segment: its length
        self._units: list[dict[int, int]] = []  # per segment: job -> units
        self._loads: list[int] = []  # per segment: the sum of its units

    def add(self, jobs: Iterable[Job], lower: int = 1) -> int:
        """Admit ``jobs`` and return the least m >= max(lower, m, 1) on
        which every job admitted so far fits."""
        m = max(lower, self.m, 1)
        first = len(self._jobs)
        self._jobs += [(j.release, j.deadline, j.processing) for j in jobs]
        fresh = self._jobs[first:]
        for point in sorted({p for r, d, _ in fresh for p in (r, d)}):
            self._cut(point)
        left = self._fill(first, m)
        while left:
            m = self._augment(left, m)
        self.m = m
        return m

    def flow(self) -> list[tuple[int, int, dict[int, int]]]:
        """The flow as ``(a, b, units)`` per segment ``[a, b)``, ``units``
        mapping the admission index of each job with some there to them."""
        points = self._points
        return [
            (points[s], points[s + 1], dict(units))
            for s, units in enumerate(self._units)
        ]

    def _cut(self, point: int) -> None:
        """Make ``point`` a breakpoint, cutting the segment it falls in."""
        points = self._points
        s = bisect.bisect_left(points, point)
        if s < len(points) and points[s] == point:
            return
        points.insert(s, point)
        if len(points) == 1:
            return
        if s == 0 or s == len(points) - 1:
            # an empty segment before the first breakpoint or after the last
            s = min(s, len(points) - 2)
            self._lengths.insert(s, points[s + 1] - points[s])
            self._units.insert(s, {})
            self._loads.insert(s, 0)
            return
        a, b = points[s - 1], points[s + 1]
        left, right = _cut_shares(a, b, self._units[s - 1], point)
        self._lengths[s - 1 : s] = [point - a, b - point]
        self._units[s - 1 : s] = [left, right]
        load = sum(left.values())
        self._loads[s - 1 : s] = [load, self._loads[s - 1] - load]

    def _fill(self, first: int, m: int) -> dict[int, int]:
        """Fill the jobs from admission index ``first`` on into their
        earliest segments with room; returns the work each has left, if any."""
        points, lengths, units, loads = self._points, self._lengths, self._units, self._loads
        jobs = self._jobs
        left: dict[int, int] = {}
        for job in sorted(range(first, len(jobs)), key=lambda i: (jobs[i][1], i)):
            release, deadline, rest = jobs[job]
            for s in range(
                bisect.bisect_left(points, release), bisect.bisect_left(points, deadline)
            ):
                length = lengths[s]
                room = m * length - loads[s]
                if room > 0:
                    f = min(length, room, rest)
                    units[s][job] = f
                    loads[s] += f
                    rest -= f
                    if not rest:
                        break
            if rest:
                left[job] = rest
        return left

    def _augment(self, left: dict[int, int], m: int) -> int:
        """Push the work ``left`` (job -> units, emptied as it is placed)
        along augmenting paths on ``m`` machines, in Dinic's phases.

        Returns ``m`` when all of it is placed.  Otherwise it stops when no
        path is left and returns the least count that the minimum cut
        allows: with R the jobs and segments reachable from the jobs with
        work left, any count m' that fits has m'·|R's segments| at least
        the work of R's jobs less what they place, one unit per slot, in
        segments outside R, where none has room left.
        """
        points, lengths, units, loads = self._points, self._lengths, self._units, self._loads
        jobs = self._jobs
        windows: dict[int, range] = {}  # job -> its segments
        while left:
            # levels: the jobs with work left are 0, the segments they can
            # take more units in 1, the other jobs with units there 2, ...;
            # 0 marks a segment not reached
            job_level = dict.fromkeys(left, 0)
            seg_level = [0] * len(lengths)
            frontier = list(left)
            level = 1
            top = 0
            while frontier:
                reached = []
                for job in frontier:
                    window = windows.get(job)
                    if window is None:
                        release, deadline, _ = jobs[job]
                        window = windows[job] = range(
                            bisect.bisect_left(points, release),
                            bisect.bisect_left(points, deadline),
                        )
                    for s in [
                        s for s in window
                        if not seg_level[s] and units[s].get(job, 0) < lengths[s]
                    ]:
                        seg_level[s] = level
                        reached.append(s)
                for s in reached:
                    if loads[s] < m * lengths[s]:
                        top = level
                        break
                if top:
                    break
                frontier = []
                for s in reached:
                    for job in units[s]:
                        if job not in job_level:
                            job_level[job] = level + 1
                            frontier.append(job)
                level += 2
            if not top:
                return self._cut_bound(job_level, seg_level, windows)
            self._blocking_flow(left, m, windows, job_level, seg_level, top)
        return m

    def _blocking_flow(
        self,
        left: dict[int, int],
        m: int,
        windows: dict[int, range],
        job_level: dict[int, int],
        seg_level: list[int],
        top: int,
    ) -> None:
        """Augment along the paths of one level graph until none is left:
        a depth-first search from each job with work left, each node
        resuming where it stopped, and a node with no way on dropped from
        its level."""
        lengths, units, loads = self._lengths, self._units, self._loads
        job_next: dict[int, int] = {}  # job -> the next segment to try
        seg_next: dict[int, list[int]] = {}  # segment -> jobs still to try
        for start in list(left):
            path = [start]  # job, segment, job, segment, ...
            while path:
                node = path[-1]
                if len(path) % 2:  # a job
                    job, level = node, job_level[node] + 1
                    window = windows[job]
                    s, end = job_next.get(job, window.start), window.stop
                    while s < end and not (
                        seg_level[s] == level and units[s].get(job, 0) < lengths[s]
                    ):
                        s += 1
                    job_next[job] = s
                    if s < end:
                        path.append(s)
                        continue
                    job_level[job] = -1
                    path.pop()
                    continue
                s, level = node, seg_level[node]
                if level == top:
                    room = m * lengths[s] - loads[s]
                    if room > 0:
                        self._push(path, left, room)
                        if start not in left:
                            break
                        path = [start]
                        continue
                else:
                    todo = seg_next.get(s)
                    if todo is None:
                        todo = [k for k in units[s] if job_level[k] == level + 1]
                        todo.reverse()
                        seg_next[s] = todo
                    here = units[s]
                    while todo and not (
                        job_level[todo[-1]] == level + 1 and todo[-1] in here
                    ):
                        todo.pop()
                    if todo:
                        path.append(todo[-1])
                        continue
                seg_level[s] = -1
                path.pop()

    def _push(
        self, path: list[int], left: dict[int, int], room: int
    ) -> None:
        """Push the most the path allows: the start's work left, each job's
        room in the segment it moves into, the units it moves out of the
        segment before, and the last segment's ``room``."""
        lengths, units = self._lengths, self._units
        start = path[0]
        f = min(left[start], room)
        for i in range(1, len(path), 2):
            s = path[i]
            f = min(f, lengths[s] - units[s].get(path[i - 1], 0))
            if i + 1 < len(path):
                f = min(f, units[s][path[i + 1]])
        for i in range(1, len(path), 2):
            s, job = path[i], path[i - 1]
            here = units[s]
            here[job] = here.get(job, 0) + f
            if i + 1 < len(path):
                out = path[i + 1]
                if here[out] == f:
                    del here[out]
                else:
                    here[out] -= f
        self._loads[path[-1]] += f
        if left[start] == f:
            del left[start]
        else:
            left[start] -= f

    def _cut_bound(
        self,
        job_level: dict[int, int],
        seg_level: list[int],
        windows: dict[int, range],
    ) -> int:
        """The least count the minimum cut of the reachable jobs and
        segments allows (see ``_augment``)."""
        lengths = self._lengths
        need = 0
        for job in job_level:
            release, deadline, p = self._jobs[job]
            need += p - (deadline - release)
            need += sum(lengths[s] for s in windows[job] if seg_level[s])
        return -(-need // sum(l for l, level in zip(lengths, seg_level) if level))


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
    indptr, indices = network.indptr, network.indices
    first = 1 + instance.n  # the node of segment 0; segments precede the sink
    # every segment whose row holds a job, that is, one arc besides the sink's
    chosen = {
        si
        for si in range(len(network.segments))
        if indptr[first + si + 1] - indptr[first + si] > 1
    }
    while True:
        iset = IntervalSet(network.segments[si] for si in chosen)
        rho = Fraction(sum(contribution(j, iset) for j in instance.jobs), iset.length)
        caps = network.capacities(rho)
        value, flow = maximum_flow(network, caps)
        if value == network.work * rho.denominator:
            return rho, iset
        residual = [c - int(f) for c, f in zip(caps.tolist(), flow)]
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
    # a sweep over the starts from the last down: ``deadlines`` holds, in
    # ascending order, those of the jobs released at or after a, so the
    # i-th of them, b, closes at least i windows inside [a, b]
    later = sorted(jobs, key=lambda j: j.release)
    deadlines: list[int] = []
    # the best ratio so far is count / length, compared by cross-multiplying
    count, length = 0, 1
    for a in sorted({0, *(j.release for j in jobs)}, reverse=True):
        while later and later[-1].release >= a:
            bisect.insort(deadlines, later.pop().deadline)
        total = len(deadlines)
        for inside, b in enumerate(deadlines, 1):
            best = count * (b - a)
            if total * length <= best:
                break  # from b on, no interval beats count / length
            if inside * length > best:
                count, length = inside, b - a
    return Fraction(p * count, length)
