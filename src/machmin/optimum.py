"""Exact offline optima and the strong-density characterization.

The preemptive optimum is decided by max-flow feasibility in Horn's
formulation: jobs feed work into the time segments between their windows'
breakpoints, and each segment drains into the sink at the machine count.
One class, ``RunningOptimum``, holds the flow code, exact on Python
integers: one feasible flow of a growing job set, augmented in Dinic's
phases.  Every optimum comes from one climb (``_climb``): the flow is made
a maximum, and while work is left the count rises by a minimum cut's bound.
The strong density is Dinkelbach's method over the same flow's minimum
cuts at fractional counts; the tests check ``ceil(strong density) ==
preemptive optimum`` and both against enumerations.  ``FlowNetwork`` (the
same class) and ``maximum_flow`` stay only as names that the benchmark's
tracer wraps for its declared flow spans (``BOUNDARIES`` in
perfbench/tracer.py; ROADMAP items 1 and 3).
``optimum_preemptive`` solves an instance's optimum once and keeps it on
the instance.  The non-preemptive optimum is a search over machine
assignments from that optimum upward, each machine's job set checked by a
single-machine earliest-finish DP over subsets, so its cost follows the
job count rather than the time magnitudes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

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

# The total work from which ``feasible_preemptive`` refuses to build a
# witness, which holds one entry per unit of work.  No solve reads it: every
# flow is computed on Python integers, exact at any magnitude.  It goes with
# the per-unit witness (ROADMAP item 5).
FLOW_WORK_LIMIT = 2**31


def _climb(
    solve: Callable[[int], tuple[int, list[int]]],
    work: int,
    lengths: Sequence[int],
    m: int,
    ceiling: int | None = None,
) -> int:
    """Climb from the count ``m`` to the least one on which a maximum flow
    places all ``work``, or to ``ceiling``, if one is given, once the count
    reaches it.  ``solve(m)`` makes a flow a maximum on m machines and
    returns its value and the segments, indices into ``lengths``, that its
    residual reaches from the source.

    While the flow falls short of the work, the jobs and segments that the
    residual reaches from the source form a minimum cut, whose capacity is
    the flow.  Each job on the source side places its work there, less
    what its window outside takes, one unit per slot, and these segments,
    of total length L, take at most m' units per slot on m' machines.  So
    a count m' that fits has m'·L at least that work, which is m·L + work -
    flow: m' >= m + (work - flow) / L.  The count rises to the ceiling of
    that bound, which exceeds m and does not exceed the optimum, and the
    flow is solved there.
    """
    value, reached = solve(m)
    while value < work:
        m += -(-(work - value) // sum(lengths[s] for s in reached))
        if ceiling is not None and m >= ceiling:
            return ceiling
        value, reached = solve(m)
    return m


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
    return RunningOptimum().add(instance.jobs, m) == m


def feasible_preemptive(instance: Instance, m: int) -> FeasibilityResult:
    """True iff the instance fits on ``m`` preemptive machines.

    When feasible, the running optimum's flow on ``m`` machines decomposes
    into a slot-level witness schedule: each segment packs its jobs' units
    in id order by ``_spread_segment``, so the witness is a deterministic
    function of the instance and ``m``.
    """
    if m < 1:
        raise ValueError("machine count must be positive")
    work = instance.total_work
    if work >= FLOW_WORK_LIMIT:
        raise EnumerationCapExceeded(
            f"total work {work} needs {work.bit_length()} bits; a witness "
            "holds one entry per unit of work and is built only below 2^31"
        )
    running = RunningOptimum()
    if running.add(instance.jobs, m) > m:
        return FeasibilityResult(False, None)
    ids = [job.id for job in instance.jobs]
    assignments: dict[int, set[int]] = {}
    for a, b, units in running.flow():
        amounts = sorted((ids[job], f) for job, f in units.items())
        assignments.update(_spread_segment(a, b, amounts))
    return FeasibilityResult(True, PreemptiveSchedule(assignments))


def min_machines(jobs: Sequence[Job], lower: int) -> int:
    """Smallest m >= max(lower, 1) on which ``jobs`` are preemptively
    feasible.

    Any m >= n fits, one job per machine, without a solve.  Below n, m is
    raised to the load bound ``ceil(W / (d_max - r_min))``, and returned if
    that reaches n.  Otherwise the set is laid out once (``build``) and
    climbs from m, each count continuing the flow of the last; the climb
    stops at n, which fits.
    """
    instance = Instance(jobs)
    n, m = instance.n, max(lower, 1)
    if m < n:
        span = instance.d_max - min(j.release for j in instance.jobs)
        m = max(m, -(-instance.total_work // span))
    if m >= n:
        return m
    network = RunningOptimum.build(instance)
    return _climb(network.solve, network._work, network._lengths, m, n)


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
    earliest segments that have room.  ``max_flow`` pushes the rest along
    augmenting paths, job, segment, (a job with units there, another of its
    segments)*, a segment with room, in Dinic's phases; while work is left
    the count climbs (``_climb``) and ``max_flow`` augments again, which
    keeps the flow feasible, since capacities only grow.  Adding to a
    maximum flow and augmenting from it gives a maximum flow of the larger
    set, so ``m`` is always the exact optimum.

    ``build`` lays out one job set with no flow, and ``solve`` solves it at
    one count (``maximum_flow``).
    """

    def __init__(self) -> None:
        self.m = 0
        self._jobs: list[tuple[int, int, int]] = []  # (release, deadline, units needed)
        self._work = 0  # the units that the jobs need in all
        # breakpoints; segment s is [points[s], points[s + 1])
        self._points: list[int] = []
        self._lengths: list[int] = []  # per segment: its length
        # per segment: the most units one job may hold there; the list
        # ``_lengths`` itself, which ``_cut`` keeps, except in ``_scaled``
        self._caps = self._lengths
        self._units: list[dict[int, int]] = []  # per segment: job -> units
        self._loads: list[int] = []  # per segment: the sum of its units
        # the work left per job, and the windows that ``_window`` has found
        self._left: dict[int, int] = {}
        self._windows: dict[int, range] = {}

    def add(self, jobs: Iterable[Job], lower: int = 1) -> int:
        """Admit ``jobs`` and return the least m >= max(lower, m, 1) on
        which every job admitted so far fits."""
        m = max(lower, self.m, 1)
        first = len(self._jobs)
        self._admit(jobs)
        self._left = self._fill(first, m)
        return _climb(self.max_flow, self._work, self._lengths, m)

    def max_flow(self, num: int) -> tuple[int, list[int]]:
        """Raise the count to ``num`` (over ``_scaled``'s denominator),
        which must not lower it, and augment the flow to a maximum there:
        returns its value and the segments, ascending, that the jobs with
        work left reach, which form a minimum cut's source side (none when
        every job is placed)."""
        self.m = num
        levels = self._augment(num)
        value = self._work - sum(self._left.values())
        return value, [s for s, level in enumerate(levels or ()) if level]

    def flow(self) -> list[tuple[int, int, dict[int, int]]]:
        """The flow as ``(a, b, units)`` per segment ``[a, b)``, ``units``
        mapping the admission index of each job with some there to them."""
        points = self._points
        return [
            (points[s], points[s + 1], dict(units))
            for s, units in enumerate(self._units)
        ]

    def _admit(self, jobs: Iterable[Job]) -> None:
        """Append ``jobs``.  The first jobs lay out their breakpoints, and
        empty segments between them, in one sorted pass; later ones cut the
        segments their breakpoints fall in."""
        new = [(j.release, j.deadline, j.processing) for j in jobs]
        self._jobs += new
        self._work += sum(need for _, _, need in new)
        self._windows = {}
        points = sorted({p for r, d, _ in new for p in (r, d)})
        if self._points:
            for point in points:
                self._cut(point)
            return
        self._points = points
        self._lengths = self._caps = [b - a for a, b in zip(points, points[1:])]
        self._units = [{} for _ in self._lengths]
        self._loads = [0] * len(self._lengths)

    def _window(self, job: int) -> range:
        """The segments of job ``job``'s window, never empty since p >= 1;
        searched for once after each admission, whose cuts shift them."""
        window = self._windows.get(job)
        if window is None:
            release, deadline, _ = self._jobs[job]
            points = self._points
            window = self._windows[job] = range(
                bisect.bisect_left(points, release),
                bisect.bisect_left(points, deadline),
            )
        return window

    def _cut(self, point: int) -> None:
        """Make ``point`` a breakpoint, cutting the segment it falls in."""
        points = self._points
        s = bisect.bisect_left(points, point)
        if s < len(points) and points[s] == point:
            return
        points.insert(s, point)
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
        lengths, caps = self._lengths, self._caps
        units, loads, jobs = self._units, self._loads, self._jobs
        left: dict[int, int] = {}
        for job in sorted(range(first, len(jobs)), key=lambda i: (jobs[i][1], i)):
            rest = jobs[job][2]
            for s in self._window(job):
                room = m * lengths[s] - loads[s]
                if room > 0:
                    f = min(caps[s], room, rest)
                    units[s][job] = f
                    loads[s] += f
                    rest -= f
                    if not rest:
                        break
            if rest:
                left[job] = rest
        return left

    def _augment(self, m: int) -> list[int] | None:
        """Push the work ``_left`` (job -> units, emptied as it is placed)
        along augmenting paths on ``m`` machines, in Dinic's phases.

        Returns None when all of it is placed.  Otherwise it stops when no
        path is left and returns each segment's level in the last search (0
        for one not reached): the segments reachable from the jobs with work
        left, a minimum cut's source side.
        """
        lengths, caps = self._lengths, self._caps
        units, loads, left = self._units, self._loads, self._left
        window_of = self._window
        while left:
            # levels: the jobs with work left are 0, the segments they can
            # take more units in 1, the other jobs with units there 2, ...;
            # 0 marks a segment not reached
            job_level = dict.fromkeys(left, 0)
            seg_level = [0] * len(lengths)
            # per segment, the first from it on that is not reached yet,
            # found by path halving (Gabow and Tarjan): a reached segment
            # points past itself, so later windows skip it
            unreached = list(range(len(lengths) + 1))
            frontier = list(left)
            level = 1
            top = 0
            while frontier:
                reached = []
                for job in frontier:
                    window = window_of(job)
                    s, end = window.start, window.stop
                    while True:
                        while unreached[s] != s:
                            unreached[s] = s = unreached[unreached[s]]
                        if s >= end:
                            break
                        if units[s].get(job, 0) < caps[s]:
                            seg_level[s] = level
                            reached.append(s)
                            unreached[s] = s + 1
                        s += 1
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
                return seg_level
            self._blocking_flow(m, job_level, seg_level, top)
        return None

    def _blocking_flow(
        self, m: int, job_level: dict[int, int], seg_level: list[int], top: int
    ) -> None:
        """Augment along the paths of one level graph until none is left:
        a depth-first search from each job with work left, each node
        resuming where it stopped, and a node with no way on dropped from
        its level.  Every job with a level had its window found by the
        search of ``_augment``."""
        lengths, caps, units, loads = self._lengths, self._caps, self._units, self._loads
        left, windows = self._left, self._windows
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
                        seg_level[s] == level and units[s].get(job, 0) < caps[s]
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
                        self._push(path, room)
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

    def _push(self, path: list[int], room: int) -> None:
        """Push the most the path allows: the start's work left, each job's
        room in the segment it moves into, the units it moves out of the
        segment before, and the last segment's ``room``."""
        caps, units, left = self._caps, self._units, self._left
        start = path[0]
        f = min(left[start], room)
        for i in range(1, len(path), 2):
            s = path[i]
            f = min(f, caps[s] - units[s].get(path[i - 1], 0))
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

    @classmethod
    def build(cls, instance: Instance) -> RunningOptimum:
        """The jobs of ``instance`` laid out with no flow, for ``solve``."""
        network = cls()
        network._admit(instance.jobs)
        return network

    def solve(self, m: int | Fraction) -> tuple[int, list[int]]:
        """Max flow value on ``m`` machines, scaled by its denominator, and
        the segments on the source side of the minimum cut (see
        ``maximum_flow``)."""
        return maximum_flow(self, m)

    def _scaled(self, den: int) -> RunningOptimum:
        """An empty flow of the network's jobs with every capacity scaled by
        ``den``, on the network's breakpoints and windows: a job needs
        ``den`` times its processing time and takes at most ``den`` times a
        segment's length there."""
        scaled = RunningOptimum()
        scaled._jobs = [(r, d, den * need) for r, d, need in self._jobs]
        scaled._work = den * self._work
        scaled._points, scaled._windows = self._points, self._windows
        scaled._lengths = lengths = self._lengths
        scaled._caps = [den * length for length in lengths]
        scaled._units = [{} for _ in lengths]
        scaled._loads = [0] * len(lengths)
        return scaled


FlowNetwork = RunningOptimum  # the name that perfbench/tracer.py's BOUNDARIES wrap


def maximum_flow(network: RunningOptimum, m: int | Fraction) -> tuple[int, list[int]]:
    """Maximum flow of a ``build`` network on ``m = num / den`` machines,
    scaled by ``den``, and the segments, ascending, that the residual reaches
    from the source: none at a flow of ``work * den``, and otherwise a
    minimum cut's source side, the same for every maximum flow.

    At an integer count no smaller than the network's last, the network's
    own flow is filled at its first and augmented; any other count is
    solved on a ``_scaled(den)`` copy, and the network keeps its flow.  It
    is apart from ``solve`` only as the tracer's max-flow span.
    """
    num, den = m.numerator, m.denominator
    running = network._scaled(den) if den > 1 or num < network.m else network
    if not running.m:
        running._left = running._fill(0, num)
    return running.max_flow(num)


# The key under which an instance keeps its preemptive optimum.
_PREEMPTIVE = "optimum_preemptive"


def _keep_preemptive(instance: Instance, m: int) -> int:
    """Keep ``m``, which must be ``min_machines(instance.jobs, 1)``, as the
    instance's preemptive optimum, and return it."""
    instance.__dict__[_PREEMPTIVE] = m
    return m


def optimum_preemptive(instance: Instance) -> int:
    """Minimum machine count for a feasible preemptive schedule.

    Solved by ``min_machines`` at the first call on an instance and kept in
    its ``__dict__``, as ``functools.cached_property`` keeps
    ``Instance.d_max``: an instance never changes, so every later call,
    ``GeneratedInstance.m_opt`` and the bound of
    ``optimum_nonpreemptive_exact`` among them, reads it with no solve.
    ``_keep_preemptive`` stores an optimum that a running flow has solved.
    """
    known = instance.__dict__.get(_PREEMPTIVE)
    if known is None:
        if instance.n == 0:
            raise ValueError("instance is empty")
        known = _keep_preemptive(instance, min_machines(instance.jobs, 1))
    return known


def optimal_witness(instance: Instance) -> tuple[int, PreemptiveSchedule]:
    """The preemptive optimum together with a witness schedule at that count."""
    m = optimum_preemptive(instance)
    result = feasible_preemptive(instance, m)
    assert result.witness is not None
    return m, result.witness


# ---------------------------------------------------------------------------
# Strong density: Dinkelbach's method over the running flow's min cuts.
# ---------------------------------------------------------------------------


def strong_density_witness(instance: Instance) -> tuple[Fraction, IntervalSet]:
    """Strong density plus one maximizing interval set.

    At a machine count ``λ = num / den`` the scaled min cut is the least
    ``den (W - contribution(S)) + num |S|`` over segment sets S, and the
    segments that the residual reaches from the source form such an S, so
    the cut's value gives S's ratio with no sum over the jobs.  Whole
    segments suffice: within a segment that bracket is convex in the number
    of slots taken.  Dinkelbach's method starts from every covered segment,
    where each job contributes its processing time, moves ``λ`` to the
    ratio of the cut's S, and stops when the flow saturates, that is, when
    no set beats ``λ``.  Each round raises ``λ``, so the loop ends.
    """
    if instance.n == 0:
        raise ValueError("instance is empty")
    network = RunningOptimum.build(instance)
    points, lengths, work = network._points, network._lengths, network._work
    chosen = {s for job in range(instance.n) for s in network._window(job)}
    rho = Fraction(work, sum(lengths[s] for s in chosen))
    while True:
        num, den = rho.numerator, rho.denominator
        value, reached = network.solve(rho)
        if value == work * den:
            return rho, IntervalSet((points[s], points[s + 1]) for s in chosen)
        chosen = reached
        length = sum(lengths[s] for s in chosen)
        rho = Fraction(den * work - value + num * length, den * length)


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
    larger of ``lower`` and the preemptive optimum, which
    ``optimum_preemptive`` solves once per instance, up to the EarlyFit
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
    lower = max(lower, optimum_preemptive(instance))
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

    for k in range(lower, incumbent):
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
