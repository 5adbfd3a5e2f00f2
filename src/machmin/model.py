"""Core data model: jobs, instances, schedules, classification, validation.

Time is discrete and integral throughout.  A job released at ``r`` may run in
the unit slots ``[t, t+1)`` with ``r <= t < d``; a deadline ``d`` means the
last permitted slot is ``[d-1, d)``.  Rational constants (tightness
thresholds and machine-budget factors) are exact ``Fraction`` values, and a
test against one is an integer cross-multiplication on its numerator and
denominator; feasibility logic never touches floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

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


@dataclass(frozen=True)
class JobState:
    """A job together with its remaining work at some point in time."""

    job: Job
    remaining: int

    def __post_init__(self) -> None:
        if not 0 <= self.remaining <= self.job.processing:
            raise ValueError(
                f"job {self.job.id}: remaining {self.remaining} outside "
                f"[0, {self.job.processing}]"
            )


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
        return max((len(s) for s in self.assignments.values()), default=0)


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
    """
    structural: list[str] = []
    assigned: dict[int, int] = {job.id: 0 for job in instance.jobs}
    violations: dict[int, list[int]] = {job.id: [] for job in instance.jobs}
    for t, ids in sorted(schedule.assignments.items()):
        for job_id in sorted(ids):
            job = instance.by_id.get(job_id)
            if job is None:
                structural.append(f"slot {t}: unknown job id {job_id}")
                continue
            assigned[job_id] += 1
            if not job.release <= t < job.deadline:
                violations[job_id].append(t)
    diagnostics = tuple(
        JobDiagnostic(
            job_id=job.id,
            required=job.processing,
            assigned=assigned[job.id],
            window_violations=tuple(violations[job.id]),
        )
        for job in instance.jobs
    )
    feasible = not structural and all(d.ok for d in diagnostics)
    return ValidationReport(
        feasible=feasible,
        machines_used=schedule.machines_used,
        diagnostics=diagnostics,
        structural_errors=tuple(structural),
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

    Feasible iff every job has a start with ``r <= s <= d - p``.  Reports the
    maximum interval overlap as machines_used.
    """
    structural = [
        f"unknown job id {job_id}"
        for job_id in sorted(schedule.starts)
        if job_id not in instance.by_id
    ]
    diagnostics = []
    intervals = []
    for job in instance.jobs:
        start = schedule.starts.get(job.id)
        if start is None:
            diagnostics.append(
                JobDiagnostic(job.id, job.processing, 0, missing=True)
            )
            continue
        bad = not (job.release <= start <= job.deadline - job.processing)
        diagnostics.append(
            JobDiagnostic(
                job_id=job.id,
                required=job.processing,
                assigned=job.processing,
                window_violations=(start,) if bad else (),
            )
        )
        intervals.append((start, start + job.processing))
    feasible = not structural and all(d.ok for d in diagnostics)
    return ValidationReport(
        feasible=feasible,
        machines_used=peak_overlap(intervals),
        diagnostics=tuple(diagnostics),
        structural_errors=tuple(structural),
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

    limit = sys.get_int_max_str_digits()
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
    kind = "preemptive" if isinstance(schedule, PreemptiveSchedule) else "nonpreemptive"
    scale = f" scale {schedule.scale}" if schedule.scale != 1 else ""
    rows = [f"trace {kind}{scale}"]
    if isinstance(schedule, PreemptiveSchedule):
        for t in sorted(schedule.assignments):
            rows.extend(f"{t} {job_id}" for job_id in sorted(schedule.assignments[t]))
    else:
        rows.extend(
            f"{job_id} {schedule.starts[job_id]}"
            for job_id in sorted(schedule.starts)
        )
    return "\n".join(rows) + "\n"


def parse_trace(text: str) -> PreemptiveSchedule | NonpreemptiveSchedule:
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    header = re.fullmatch(_TRACE_HEADER, lines[0])
    if header is None:
        raise ParseError(1, "expected 'trace preemptive' or 'trace nonpreemptive'")
    try:
        kind, scale = header[1], int(header[2] or 1)
    except ValueError:
        raise _field_error(1, [header[2]]) from None
    _check_row_chars(text, lines)
    preemptive = kind == "preemptive"
    slots: dict[int, set[int]] = {}
    starts: dict[int, int] = {}
    for lineno, row in enumerate(lines[1:], start=2):
        fields = row.split(" ")
        if len(fields) != 2:
            raise ParseError(lineno, f"expected 2 fields, found {len(fields)}")
        try:
            pair = int(fields[0]), int(fields[1])
        except ValueError:
            raise _field_error(lineno, fields) from None
        if preemptive:
            t, job_id = pair
            slot = slots.get(t)
            if slot is None:
                slot = slots[t] = set()
            elif job_id in slot:
                raise ParseError(lineno, f"job {job_id} appears twice in slot {t}")
            slot.add(job_id)
        else:
            job_id, start = pair
            if job_id in starts:
                raise ParseError(lineno, f"duplicate start for job {job_id}")
            starts[job_id] = start
    if preemptive:
        return PreemptiveSchedule(slots, scale)
    return NonpreemptiveSchedule(starts, scale)


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
