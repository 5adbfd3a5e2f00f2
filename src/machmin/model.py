"""Core data model: jobs, instances, schedules, validation, text formats.

Time is discrete and integral throughout.  A job released at ``r`` may run in
the unit slots ``[t, t+1)`` with ``r <= t < d``; a deadline ``d`` means the
last permitted slot is ``[d-1, d)``.  Rational constants (tightness
thresholds and machine-budget factors) are exact ``Fraction`` values, and a
test against one is an integer cross-multiplication on its numerator and
denominator; feasibility logic never touches floating point.

A schedule's size is its units of work, one trace row each.  Writing,
reading and validating one does the per-unit work in builtins that loop in
C (``str.join``, ``json.loads`` over the trace's fields, ``sorted``,
``frozenset``, ``Counter``, ``dict(zip(...))``); their Python loops run once
per slot or per job.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import ne
from typing import Iterable, Iterator, Mapping, NoReturn

__all__ = [
    "Job",
    "Instance",
    "JobState",
    "PreemptiveSchedule",
    "NonpreemptiveSchedule",
    "JobDiagnostic",
    "ValidationReport",
    "ParseError",
    "laxity",
    "is_loose",
    "validate_preemptive",
    "validate_nonpreemptive",
    "peak_overlap",
    "parse_instance",
    "serialize_instance",
    "parse_trace",
    "serialize_trace",
    "scale_instance",
]


class ParseError(ValueError):
    """Malformed instance or trace text.  Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class Job:
    """One deadline-constrained unit of work."""

    id: int
    release: int
    deadline: int
    processing: int

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"job {self.id}: id must be non-negative")
        if self.release < 0:
            raise ValueError(f"job {self.id}: release must be non-negative")
        if self.processing < 1:
            raise ValueError(f"job {self.id}: processing must be at least 1")
        if self.deadline < self.release + self.processing:
            raise ValueError(f"job {self.id}: deadline < release + processing")

    @property
    def laxity(self) -> int:
        """Slack at release: ``deadline - release - processing``."""
        return self.deadline - self.release - self.processing

    @property
    def window_length(self) -> int:
        return self.deadline - self.release


@dataclass(frozen=True)
class Instance:
    """A finite job set with distinct ids, in a fixed (file) order."""

    jobs: tuple[Job, ...]

    def __init__(self, jobs: Iterable[Job]):
        object.__setattr__(self, "jobs", tuple(jobs))
        seen: set[int] = set()
        for job in self.jobs:
            if job.id in seen:
                raise ValueError(f"duplicate job id {job.id}")
            seen.add(job.id)

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    @cached_property
    def by_id(self) -> Mapping[int, Job]:
        return {job.id: job for job in self.jobs}

    @property
    def n(self) -> int:
        return len(self.jobs)

    @cached_property
    def d_max(self) -> int:
        return max((job.deadline for job in self.jobs), default=0)

    @cached_property
    def total_work(self) -> int:
        return sum(job.processing for job in self.jobs)

    @cached_property
    def is_agreeable(self) -> bool:
        """Release order and deadline order coincide (ties allowed)."""
        ordered = sorted(self.jobs, key=lambda j: (j.release, j.deadline))
        return all(a.deadline <= b.deadline for a, b in zip(ordered, ordered[1:]))

    @cached_property
    def is_equal_processing(self) -> bool:
        return len({job.processing for job in self.jobs}) <= 1

    @cached_property
    def is_uniform_deadline(self) -> bool:
        return len({job.deadline for job in self.jobs}) <= 1


class JobState:
    """A job together with its remaining work at some point in time.

    Read-only to everyone but the simulator, which owns the states of a run
    and advances ``remaining`` in place, through the slot descriptor
    ``JobState.remaining.__set__``, once per slot a job runs.  A state can
    therefore change while someone holds it, and it is not hashable."""

    __slots__ = ("job", "remaining")

    def __init__(self, job: Job, remaining: int) -> None:
        if not 0 <= remaining <= job.processing:
            raise ValueError(
                f"job {job.id}: remaining {remaining} outside "
                f"[0, {job.processing}]"
            )
        JobState.job.__set__(self, job)
        JobState.remaining.__set__(self, remaining)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.job == other.job and self.remaining == other.remaining

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"JobState(job={self.job!r}, remaining={self.remaining!r})"

    def __reduce__(self):
        # copy and pickle through the constructor, not through __setattr__
        return JobState, (self.job, self.remaining)


def laxity(state: JobState, t: int) -> int:
    """Slack of an in-flight job: ``deadline - t - remaining``.

    May be negative; a negative value signals an inevitable miss.
    """
    return state.job.deadline - t - state.remaining


def is_loose(work: int, window: int, alpha: Fraction) -> bool:
    """The package's one tightness test: loose iff ``work <= alpha * window``
    (equality is loose), decided exactly in integers as
    ``work * den <= num * window`` for ``alpha = num / den``."""
    return work * alpha.denominator <= alpha.numerator * window


@dataclass(frozen=True)
class PreemptiveSchedule:
    """Slot-level assignments: slot ``t`` maps to the set of job ids run in
    ``[t, t+1)``.  Machine identities are implicit; any per-slot bijection
    onto machines ``1..|set|`` is valid because migration is free.
    ``scale``: the times are those of the instance scaled by this factor.
    """

    assignments: Mapping[int, frozenset[int]]
    scale: int = 1

    def __init__(self, assignments: Mapping[int, Iterable[int]], scale: int = 1):
        object.__setattr__(
            self,
            "assignments",
            {t: frozenset(ids) for t, ids in assignments.items() if ids},
        )
        object.__setattr__(self, "scale", scale)

    @property
    def machines_used(self) -> int:
        return max(map(len, self.assignments.values()), default=0)


@dataclass(frozen=True)
class NonpreemptiveSchedule:
    """Start-time assignments: job id maps to its committed start slot.
    ``scale`` as for ``PreemptiveSchedule``."""

    starts: Mapping[int, int]
    scale: int = 1

    def __init__(self, starts: Mapping[int, int], scale: int = 1):
        object.__setattr__(self, "starts", dict(starts))
        object.__setattr__(self, "scale", scale)


@dataclass(frozen=True)
class JobDiagnostic:
    job_id: int
    required: int
    assigned: int
    window_violations: tuple[int, ...] = ()
    missing: bool = False

    @property
    def ok(self) -> bool:
        return (
            not self.missing
            and not self.window_violations
            and self.assigned == self.required
        )


@dataclass(frozen=True)
class ValidationReport:
    """A validator's verdict.  ``diagnostics`` holds the failing jobs only,
    in instance order; ``problems()`` gives one line per structural error
    and per failing job."""

    feasible: bool
    machines_used: int
    diagnostics: tuple[JobDiagnostic, ...]
    structural_errors: tuple[str, ...] = ()

    def problems(self) -> list[str]:
        out = list(self.structural_errors)
        for d in self.diagnostics:
            if d.missing:
                out.append(f"job {d.job_id}: not scheduled")
            elif d.window_violations:
                out.append(
                    f"job {d.job_id}: slots outside window: "
                    f"{list(d.window_violations)}"
                )
            elif d.assigned != d.required:
                out.append(
                    f"job {d.job_id}: {d.assigned} of {d.required} units assigned"
                )
        return out


def validate_preemptive(
    instance: Instance, schedule: PreemptiveSchedule
) -> ValidationReport:
    """Check volume and window constraints of a slot-level schedule.

    Feasible iff every job gets exactly its processing volume, every slot
    containing it lies in ``[release, deadline)``, each job appears at most
    once per slot (guaranteed by the set representation), and no slot names
    an unknown job.

    Every unit is read in bulk, with no Python step per unit: the job ids in
    time order, counted per job, and each job's first and last slot, which
    lie in the window iff all its slots do.  Only the jobs that fail are
    walked slot by slot, to list their slots outside the window.
    """
    slots = schedule.assignments
    order = sorted(slots)
    sets = list(map(slots.__getitem__, order))
    ids = list(chain.from_iterable(sets))
    times = list(chain.from_iterable(map(repeat, order, map(len, sets))))
    units = Counter(ids)
    last = dict(zip(ids, times))
    first = dict(zip(reversed(ids), reversed(times)))
    by_id = instance.by_id
    unknown = units.keys() - by_id.keys()
    structural: tuple[str, ...] = ()
    if unknown:
        structural = tuple(
            f"slot {t}: unknown job id {job_id}"
            for t, slot in zip(order, sets)
            for job_id in sorted(slot & unknown)
        )
    failing = [
        job
        for job in instance.jobs
        if units[job.id] != job.processing
        or not job.release <= first[job.id] <= last[job.id] < job.deadline
    ]
    outside: dict[int, list[int]] = {job.id: [] for job in failing if job.id in first}
    if outside:
        for t, slot in zip(order, sets):
            for job_id in outside.keys() & slot:
                job = by_id[job_id]
                if not job.release <= t < job.deadline:
                    outside[job_id].append(t)
    return ValidationReport(
        feasible=not structural and not failing,
        machines_used=schedule.machines_used,
        diagnostics=tuple(
            JobDiagnostic(
                job_id=job.id,
                required=job.processing,
                assigned=units[job.id],
                window_violations=tuple(outside.get(job.id, ())),
            )
            for job in failing
        ),
        structural_errors=structural,
    )


def peak_overlap(intervals: Iterable[tuple[int, int]]) -> int:
    """Maximum number of half-open intervals ``[a, b)`` covering one point.

    A concrete machine assignment at this count always exists by greedy
    interval coloring.
    """
    events: list[tuple[int, int]] = []
    for a, b in intervals:
        if b > a:
            events.append((a, 1))
            events.append((b, -1))
    events.sort()
    peak = cur = 0
    for _, delta in events:
        cur += delta
        peak = max(peak, cur)
    return peak


def validate_nonpreemptive(
    instance: Instance, schedule: NonpreemptiveSchedule
) -> ValidationReport:
    """Check start-time assignments against the window constraint.

    Feasible iff every job has a start with ``r <= s <= d - p``, in one pass
    over the jobs.  Reports the maximum interval overlap as machines_used.
    """
    starts = schedule.starts
    unknown = starts.keys() - instance.by_id.keys()
    structural = tuple(f"unknown job id {job_id}" for job_id in sorted(unknown))
    failing = []
    intervals = []
    for job in instance.jobs:
        start = starts.get(job.id)
        if start is None:
            failing.append(JobDiagnostic(job.id, job.processing, 0, missing=True))
            continue
        intervals.append((start, start + job.processing))
        if not job.release <= start <= job.deadline - job.processing:
            failing.append(
                JobDiagnostic(
                    job_id=job.id,
                    required=job.processing,
                    assigned=job.processing,
                    window_violations=(start,),
                )
            )
    return ValidationReport(
        feasible=not structural and not failing,
        machines_used=peak_overlap(intervals),
        diagnostics=tuple(failing),
        structural_errors=structural,
    )


# ---------------------------------------------------------------------------
# Text formats.
#
# Instance: line 1 "machmin v1 <n>"; then n rows "<id> <r> <d> <p>"
# (single spaces, LF).  A field is an optional "-" followed by the ASCII
# digits 0-9; the job count and a trace's scale take no sign.
#
# Trace: line 1 "trace preemptive" or "trace nonpreemptive", followed by
# " scale <k>" when the times are those of the instance scaled by k > 1;
# then rows "<t> <job-id>" (preemptive) or "<job-id> <start>"
# (non-preemptive).
# ---------------------------------------------------------------------------

_MAGIC = "machmin v1"
_TRACE_HEADER = r"trace (preemptive|nonpreemptive)(?: scale ([1-9][0-9]*))?"
# int() alone would also take "+1", "1_0", a tab or a non-ASCII digit.
_ROW_CHARS = re.compile(r"[-0-9 \r\n]*")
# A run of trace rows, each with the line end before it: LF, CRLF or CR, as
# str.splitlines splits them.  One match takes up to 32 rows, which costs
# less per row than a match each; the bound keeps the state that the engine
# saves per repetition small on a trace of any length.
_TRACE_ROWS = re.compile(r"(?:(?:\r\n?|\n)-?[0-9]+ -?[0-9]+){1,32}")


# characters of a refused field that its error message repeats
_ECHO = 20


def _check_row_chars(text: str, lines: list[str]) -> None:
    """Refuse any character after the header line that no row may hold; on
    the rest, int() reads exactly the fields the format allows."""
    end = _ROW_CHARS.match(text, len(lines[0])).end()
    if end < len(text):
        start = text.rfind("\n", 0, end) + 1
        stop = text.find("\n", end)
        row = text[start : stop if stop >= 0 else len(text)]
        raise _field_error(text.count("\n", 0, end) + 1, row.split(" "))


def _field_error(lineno: int, fields: list[str]) -> ParseError:
    """The error for a row whose fields int() refused: the first field that
    is not a decimal is named by its position and echoed, cut to ``_ECHO``
    characters; one longer than int()'s digit limit is named by its
    length instead."""
    import sys

    # Python before 3.10.7 has neither the limit nor this function; 0 is
    # what the function returns when the limit is off
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for position, field in enumerate(fields, start=1):
        if not re.fullmatch("-?[0-9]+", field):
            echo = repr(field[:_ECHO])
            if len(field) > _ECHO:
                echo += f" (cut from {len(field)} characters)"
            return ParseError(lineno, f"field {position} is not an integer: {echo}")
        digits = len(field) - field.startswith("-")
        if limit and digits > limit:
            return ParseError(
                lineno, f"field of {digits} digits exceeds the {limit}-digit "
                "limit of Python's int()"
            )
    return ParseError(lineno, "non-integer field")


def parse_instance(text: str) -> Instance:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    header = lines[0].split(" ")
    if len(header) != 3 or header[0] != "machmin" or header[1] != "v1":
        raise ParseError(1, f"expected header '{_MAGIC} <n>'")
    if not re.fullmatch("[0-9]+", header[2]):
        raise ParseError(1, f"job count {header[2]!r} is not a non-negative integer")
    try:
        n = int(header[2])
    except ValueError:
        raise _field_error(1, [header[2]]) from None
    if len(lines) != n + 1:
        raise ParseError(
            min(len(lines), n) + 1, f"expected {n} job rows, found {len(lines) - 1}"
        )
    _check_row_chars(text, lines)
    jobs = []
    seen: set[int] = set()
    for lineno, row in enumerate(lines[1:], start=2):
        fields = row.split(" ")
        if len(fields) != 4:
            raise ParseError(lineno, f"expected 4 fields, found {len(fields)}")
        try:
            job_id, r, d, p = (int(f) for f in fields)
        except ValueError:
            raise _field_error(lineno, fields) from None
        if job_id in seen:
            raise ParseError(lineno, f"duplicate id {job_id}")
        seen.add(job_id)
        if d < r + p:
            raise ParseError(lineno, "deadline < release + processing")
        try:
            jobs.append(Job(job_id, r, d, p))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    return Instance(jobs)


def serialize_instance(instance: Instance) -> str:
    rows = [f"{_MAGIC} {instance.n}"]
    rows.extend(
        f"{job.id} {job.release} {job.deadline} {job.processing}"
        for job in instance.jobs
    )
    return "\n".join(rows) + "\n"


def serialize_trace(
    schedule: PreemptiveSchedule | NonpreemptiveSchedule,
) -> str:
    """The trace text of a schedule: slots in time order and each slot's
    jobs by id, or starts by job id.  One ``join`` writes a slot's rows."""
    kind = "preemptive" if isinstance(schedule, PreemptiveSchedule) else "nonpreemptive"
    scale = f" scale {schedule.scale}" if schedule.scale != 1 else ""
    rows = [f"trace {kind}{scale}"]
    if isinstance(schedule, PreemptiveSchedule):
        slots = schedule.assignments
        for t in sorted(slots):
            rows.append(f"{t} " + f"\n{t} ".join(map(str, sorted(slots[t]))))
    else:
        starts = schedule.starts
        ids = sorted(starts)
        rows.extend(map("{} {}".format, ids, map(starts.__getitem__, ids)))
    return "\n".join(rows) + "\n"


def parse_trace(text: str) -> PreemptiveSchedule | NonpreemptiveSchedule:
    """Read a trace.  The rows after the header are checked by one pattern
    substitution that cuts them all out, and converted by one ``json.loads``
    (``_integers``); a preemptive trace's rows are grouped by slot in C
    (``_slot_sets``).  A text refused in bulk is read again row by row, only
    to raise the error of its first bad row."""
    if not text:
        raise ParseError(1, "empty input")
    # the first line as str.splitlines cuts it, without cutting the rest
    first = (text.partition("\n")[0].splitlines() or [""])[0]
    header = re.fullmatch(_TRACE_HEADER, first)
    if header is None:
        raise ParseError(1, "expected 'trace preemptive' or 'trace nonpreemptive'")
    try:
        kind, scale = header[1], int(header[2] or 1)
    except ValueError:
        raise _field_error(1, [header[2]]) from None
    preemptive = kind == "preemptive"
    schedule = _read_rows(text[len(first) :], preemptive, scale)
    if schedule is None:
        _raise_row_error(text, text.splitlines(), preemptive)
    return schedule


def _read_rows(
    body: str, preemptive: bool, scale: int
) -> PreemptiveSchedule | NonpreemptiveSchedule | None:
    """The schedule of a trace's text after its header line, or None when
    some row is bad."""
    # with every row cut out, at most the line end that closes the text is left
    rest = _TRACE_ROWS.sub("", body)
    if rest not in ("", "\n", "\r", "\r\n") or not body.endswith(rest):
        return None
    try:
        values = _integers(body)
    except ValueError:  # a field past int()'s digit limit
        return None
    firsts, seconds = values[0::2], values[1::2]
    if preemptive:
        slots = _slot_sets(firsts, seconds)
        return None if slots is None else PreemptiveSchedule(slots, scale)
    starts = dict(zip(firsts, seconds))
    return NonpreemptiveSchedule(starts, scale) if len(starts) == len(firsts) else None


def _integers(body: str) -> list[int]:
    """The fields of checked trace rows as integers, in order.  JSON's
    reader takes them once every space and LF is a comma (a CR left before
    one is JSON whitespace).  JSON refuses a field with a leading zero, such
    as ``00``, and rows cut by a lone CR; then ``int`` reads each field."""
    rows = body.strip().replace(" ", ",").replace("\n", ",")
    try:
        return json.loads(f"[{rows}]")
    except ValueError:
        return list(map(int, body.split()))


def _slot_sets(times: list[int], ids: list[int]) -> dict[int, frozenset[int]] | None:
    """Each slot's job set from the rows' times and ids, or None when a job
    appears twice in one slot.  Each run of rows with equal times becomes
    one slot's set.  When some slot recurs after other rows, as in a trace
    written job by job, the rows are first put in time order by one sort;
    a trace written slot by slot, as ``serialize_trace`` writes, is
    taken as it stands."""
    cuts = _run_starts(times)
    if len(set(map(times.__getitem__, cuts))) < len(cuts):
        order = sorted(range(len(times)), key=times.__getitem__)
        times = list(map(times.__getitem__, order))
        ids = list(map(ids.__getitem__, order))
        cuts = _run_starts(times)
    runs = map(slice, cuts, [*cuts[1:], len(times)])
    sets = list(map(frozenset, map(ids.__getitem__, runs)))
    if sum(map(len, sets)) != len(ids):
        return None
    return dict(zip(map(times.__getitem__, cuts), sets))


def _run_starts(times: list[int]) -> list[int]:
    """The index of each row whose time differs from the row's before."""
    return list(compress(count(), map(ne, times, [None, *times])))


def _raise_row_error(text: str, lines: list[str], preemptive: bool) -> NoReturn:
    """Raise the ParseError of the first bad row of a trace body that
    ``parse_trace`` refused in bulk."""
    _check_row_chars(text, lines)
    slots: dict[int, set[int]] = {}
    starts: set[int] = set()
    for lineno, row in enumerate(lines[1:], start=2):
        fields = row.split(" ")
        if len(fields) != 2:
            raise ParseError(lineno, f"expected 2 fields, found {len(fields)}")
        try:
            first, second = int(fields[0]), int(fields[1])
        except ValueError:
            raise _field_error(lineno, fields) from None
        if preemptive:
            slot = slots.setdefault(first, set())
            if second in slot:
                raise ParseError(lineno, f"job {second} appears twice in slot {first}")
            slot.add(second)
        else:
            if first in starts:
                raise ParseError(lineno, f"duplicate start for job {first}")
            starts.add(first)
    raise RuntimeError("a trace refused in bulk has no bad row")


def scale_instance(instance: Instance, factor: int) -> Instance:
    """Multiply all times by ``factor``.

    Uniform scaling preserves the optimum machine count for both the
    preemptive and the non-preemptive problem, and keeps the loose/tight
    classification of every job.
    """
    if factor < 1:
        raise ValueError("scale factor must be positive")
    return Instance(
        Job(j.id, j.release * factor, j.deadline * factor, j.processing * factor)
        for j in instance.jobs
    )
