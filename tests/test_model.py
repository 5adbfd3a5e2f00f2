import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from machmin.model import (
    Instance,
    Job,
    JobState,
    NonpreemptiveSchedule,
    ParseError,
    PreemptiveSchedule,
    is_loose,
    laxity,
    parse_instance,
    parse_trace,
    peak_overlap,
    scale_instance,
    serialize_instance,
    serialize_trace,
    validate_nonpreemptive,
    validate_preemptive,
)


def test_job_invariants():
    Job(0, 0, 2, 1)
    with pytest.raises(ValueError):
        Job(0, -1, 2, 1)
    with pytest.raises(ValueError):
        Job(0, 0, 2, 0)
    with pytest.raises(ValueError):
        Job(0, 0, 2, 3)
    with pytest.raises(ValueError):
        Job(-1, 0, 2, 1)


def test_instance_flags():
    agreeable = Instance([Job(0, 0, 4, 1), Job(1, 1, 5, 2), Job(2, 1, 6, 1)])
    assert agreeable.is_agreeable
    crossed = Instance([Job(0, 0, 9, 1), Job(1, 1, 5, 2)])
    assert not crossed.is_agreeable
    # ties in release are fine as long as some deadline ordering works
    tied = Instance([Job(0, 0, 9, 1), Job(1, 0, 5, 2), Job(2, 3, 9, 1)])
    assert tied.is_agreeable
    assert Instance([Job(0, 0, 4, 2), Job(1, 1, 5, 2)]).is_equal_processing
    assert Instance([Job(0, 0, 5, 2), Job(1, 1, 5, 1)]).is_uniform_deadline
    with pytest.raises(ValueError):
        Instance([Job(0, 0, 2, 1), Job(0, 0, 3, 1)])


def test_laxity_examples():
    job = Job(0, 0, 10, 4)
    assert laxity(JobState(job, 4), 0) == 6
    assert laxity(JobState(job, 4), 6) == 0
    assert laxity(JobState(job, 2), 9) == -1


def test_is_loose_examples():
    half = Fraction(1, 2)
    assert is_loose(4, 10, half)
    assert not is_loose(6, 10, half)
    # boundary equality is loose
    assert is_loose(5, 10, half)


@given(
    p=st.integers(1, 20),
    window=st.integers(1, 40),
    num=st.integers(1, 9),
    den=st.integers(2, 10),
    drop=st.integers(0, 19),
)
def test_is_loose_monotone_in_work(p, window, num, den, drop):
    # less work in the same window never flips loose -> tight
    if num >= den:
        num = den - 1
    alpha = Fraction(num, den)
    window = max(window, p) + p
    if is_loose(p, window, alpha):
        assert is_loose(max(0, p - drop), window, alpha)


def test_validate_preemptive_examples():
    one = Instance([Job(0, 0, 2, 1)])
    report = validate_preemptive(one, PreemptiveSchedule({0: {0}}))
    assert report.feasible and report.machines_used == 1

    short = Instance([Job(0, 0, 2, 2)])
    report = validate_preemptive(short, PreemptiveSchedule({0: {0}}))
    assert not report.feasible
    assert report.diagnostics[0].assigned == 1
    assert report.diagnostics[0].required == 2

    two = Instance([Job(0, 0, 1, 1), Job(1, 0, 1, 1)])
    report = validate_preemptive(two, PreemptiveSchedule({0: {0, 1}}))
    assert report.feasible and report.machines_used == 2


def test_validate_preemptive_window_and_structural():
    inst = Instance([Job(0, 1, 3, 1)])
    report = validate_preemptive(inst, PreemptiveSchedule({0: {0}}))
    assert not report.feasible
    assert report.diagnostics[0].window_violations == (0,)
    report = validate_preemptive(inst, PreemptiveSchedule({1: {0, 7}}))
    assert not report.feasible
    assert report.structural_errors


def test_validate_nonpreemptive_examples():
    inst = Instance([Job(0, 0, 3, 2)])
    assert validate_nonpreemptive(inst, NonpreemptiveSchedule({0: 1})).feasible
    report = validate_nonpreemptive(inst, NonpreemptiveSchedule({0: 2}))
    assert not report.feasible

    pair = Instance([Job(0, 0, 4, 2), Job(1, 1, 4, 2)])
    report = validate_nonpreemptive(pair, NonpreemptiveSchedule({0: 0, 1: 1}))
    assert report.feasible and report.machines_used == 2

    report = validate_nonpreemptive(pair, NonpreemptiveSchedule({0: 0}))
    assert not report.feasible
    assert any(d.missing for d in report.diagnostics)


def test_peak_overlap():
    assert peak_overlap([]) == 0
    assert peak_overlap([(0, 2), (2, 4)]) == 1
    assert peak_overlap([(0, 3), (1, 2), (2, 5)]) == 2


def test_parse_serialize_roundtrip():
    text = "machmin v1 2\n0 0 2 1\n1 1 5 3\n"
    inst = parse_instance(text)
    assert inst.jobs == (Job(0, 0, 2, 1), Job(1, 1, 5, 3))
    assert serialize_instance(inst) == text


def test_parse_errors():
    with pytest.raises(ParseError, match="header"):
        parse_instance("nope\n")
    with pytest.raises(ParseError, match="deadline < release"):
        parse_instance("machmin v1 1\n0 0 2 5\n")
    with pytest.raises(ParseError, match="duplicate id"):
        parse_instance("machmin v1 2\n0 0 2 1\n0 0 3 1\n")
    with pytest.raises(ParseError, match="4 fields"):
        parse_instance("machmin v1 1\n0 0 2\n")
    err = None
    try:
        parse_instance("machmin v1 2\n0 0 2 1\n1 0 x 1\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 3


@pytest.mark.parametrize(
    "text,line",
    [
        ("machmin v1 1\n0 0 1_0 3\n", 2),
        ("machmin v1 1\n0 0 10 \u0663\n", 2),
        ("machmin v1 1\n0 +0 10 3\n", 2),
        ("machmin v1 1\n0 0 10\t3\n", 2),
        ("machmin v1 2\n0 0 10 3\n1 0 10 3 \n", 3),
        ("machmin v1 1_0\n", 1),
        ("machmin v1 +1\n0 0 10 3\n", 1),
        ("machmin v1 \u0661\n0 0 10 3\n", 1),
        ("machmin v1 -1\n", 1),
    ],
)
def test_instance_fields_are_ascii_decimal(text, line):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert info.value.line == line


@pytest.mark.parametrize(
    "text,line",
    [
        ("trace preemptive\n+1 0_0\n", 2),
        ("trace preemptive\n0 0\n1_0 0\n", 3),
        ("trace nonpreemptive\n0 \u0663\n", 2),
        ("trace preemptive scale \u0662\n", 1),
        ("trace preemptive scale 1_0\n", 1),
        ("trace preemptive scale +2\n", 1),
    ],
)
def test_trace_fields_are_ascii_decimal(text, line):
    with pytest.raises(ParseError) as info:
        parse_trace(text)
    assert info.value.line == line


def test_negative_fields_still_parse_to_their_checks():
    # a leading minus is part of the format; the model refuses the value
    with pytest.raises(ParseError, match="release must be non-negative"):
        parse_instance("machmin v1 1\n0 -1 10 3\n")
    assert parse_trace("trace nonpreemptive\n0 -2\n").starts == {0: -2}
    # CRLF line ends still split rows as before
    assert parse_instance("machmin v1 1\r\n0 0 10 3\r\n").jobs == (Job(0, 0, 10, 3),)


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("trace preemptive\n0 0\n0 1 2\n", 3, "expected 2 fields, found 3"),
        ("trace preemptive\n0 -\n", 2, "field 2 is not an integer: '-'"),
        ("trace preemptive\n0 1\n1 1\n0 1\n", 4, "job 1 appears twice in slot 0"),
        ("trace nonpreemptive\n1 0\n2 0\n1 3\n", 4, "duplicate start for job 1"),
    ],
)
def test_trace_errors_name_their_line(text, line, message):
    with pytest.raises(ParseError) as info:
        parse_trace(text)
    assert (info.value.line, info.value.message) == (line, message)


@pytest.mark.parametrize(
    "parse,template,line,zeros",
    [
        (parse_instance, "machmin v1 1\n0 0 {} 1\n", 2, 0),
        (parse_instance, "machmin v1 2\n0 0 1 1\n1 -{} 1 1\n", 3, 0),
        (parse_trace, "trace preemptive\n0 0\n{} 1\n", 3, 0),
        (parse_trace, "trace nonpreemptive\n0 -00{}\n", 2, 2),
        (parse_instance, "machmin v1 {}\n", 1, 0),
        (parse_trace, "trace preemptive scale {}\n", 1, 0),
    ],
    ids=[
        "instance", "instance-negative", "trace", "trace-leading-zeros",
        "job-count", "trace-scale",
    ],
)
def test_fields_beyond_the_int_digit_limit_are_named(parse, template, line, zeros):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as info:
        parse(template.format("9" * (limit + 1)))
    assert (info.value.line, info.value.message) == (
        line,
        f"field of {limit + 1 + zeros} digits exceeds the {limit}-digit "
        "limit of Python's int()",
    )


@pytest.mark.parametrize(
    "parse,text,line,message",
    [
        (parse_instance, "machmin v1 1\n0 -- {} 1\n", 2, "field 2 is not an integer: '--'"),
        (
            parse_instance,
            "machmin v1 1\n0 0 -{}- 1\n",
            2,
            "field 3 is not an integer: '-9999999999999999999' (cut from 5002 characters)",
        ),
        (
            parse_instance,
            "machmin v1 1\n0 0 5 {}+\n",
            2,
            "field 4 is not an integer: '99999999999999999999' (cut from 5001 characters)",
        ),
        (parse_trace, "trace preemptive\n0 0\n-- {}\n", 3, "field 1 is not an integer: '--'"),
        (
            parse_trace,
            "trace nonpreemptive\n{}\t 1\n",
            2,
            "field 1 is not an integer: '99999999999999999999' (cut from 5001 characters)",
        ),
    ],
    ids=["instance", "instance-long", "instance-bad-char", "trace", "trace-bad-char"],
)
def test_non_integer_fields_are_named_and_cut(parse, text, line, message):
    # the row holds a field of 5000 digits; the message names the refused
    # field and repeats at most 20 of its characters, not the whole row
    with pytest.raises(ParseError) as info:
        parse(text.format("9" * 5000))
    assert (info.value.line, info.value.message) == (line, message)


def test_trace_roundtrip():
    sched = PreemptiveSchedule({0: {1, 0}, 2: {1}})
    text = serialize_trace(sched)
    assert text == "trace preemptive\n0 0\n0 1\n2 1\n"
    assert parse_trace(text).assignments == sched.assignments

    np_sched = NonpreemptiveSchedule({3: 1, 0: 0})
    text = serialize_trace(np_sched)
    assert text == "trace nonpreemptive\n0 0\n3 1\n"
    assert parse_trace(text).starts == np_sched.starts


def test_trace_names_its_scale():
    sched = NonpreemptiveSchedule({0: 2}, scale=2)
    text = serialize_trace(sched)
    assert text == "trace nonpreemptive scale 2\n0 2\n"
    assert parse_trace(text) == sched
    for header in ("trace preemptive scale 0", "trace preemptive scale", "trace nonpreemptive x"):
        with pytest.raises(ParseError):
            parse_trace(header + "\n")


def test_scale_instance():
    inst = Instance([Job(0, 1, 5, 2)])
    scaled = scale_instance(inst, 2)
    assert scaled.jobs == (Job(0, 2, 10, 4),)


@given(st.data())
def test_validator_rejects_single_violations(data):
    # fuzz: perturb a feasible schedule so it violates one constraint
    jobs = [
        Job(i, r, r + w, p)
        for i, (r, w, p) in enumerate(
            data.draw(
                st.lists(
                    st.tuples(
                        st.integers(0, 5), st.integers(2, 6), st.integers(1, 2)
                    ).map(lambda t: (t[0], max(t[1], t[2]), t[2])),
                    min_size=1,
                    max_size=4,
                )
            )
        )
    ]
    inst = Instance(jobs)
    slots = {}
    for job in jobs:
        for t in range(job.release, job.release + job.processing):
            slots.setdefault(t, set()).add(job.id)
    assert validate_preemptive(inst, PreemptiveSchedule(slots)).feasible
    victim = data.draw(st.sampled_from(jobs))
    mode = data.draw(st.sampled_from(["drop-unit", "move-outside"]))
    broken = {t: set(ids) for t, ids in slots.items()}
    first = victim.release
    if mode == "drop-unit":
        broken[first].discard(victim.id)
    else:
        broken[first].discard(victim.id)
        broken.setdefault(victim.deadline, set()).add(victim.id)
    assert not validate_preemptive(inst, PreemptiveSchedule(broken)).feasible


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 15), st.integers(1, 15)),
        min_size=1,
        max_size=10,
    )
)
def test_serialize_parse_roundtrip_property(raw):
    jobs = [
        Job(i, r, r + max(w, p), p) for i, (r, w, p) in enumerate(raw)
    ]
    inst = Instance(jobs)
    assert parse_instance(serialize_instance(inst)).jobs == inst.jobs


@given(
    st.dictionaries(
        st.integers(0, 20),
        st.sets(st.integers(0, 9), min_size=1, max_size=4),
        max_size=8,
    )
)
def test_trace_roundtrip_property(slots):
    sched = PreemptiveSchedule(slots)
    text = serialize_trace(sched)
    assert parse_trace(text).assignments == sched.assignments
    # the bytes of one row per unit, slots in time order and ids sorted
    rows = [f"{t} {job_id}" for t in sorted(slots) for job_id in sorted(slots[t])]
    assert text == "\n".join(["trace preemptive", *rows]) + "\n"


# ---------------------------------------------------------------------------
# The bulk trace reader and validators against the row-by-row loops they
# replaced, kept here as the references.
# ---------------------------------------------------------------------------


def reference_parse_trace(text):
    """The reference for ``parse_trace``: the header, the character check,
    then one Python step per row."""
    import re

    from machmin.model import _TRACE_HEADER, _check_row_chars, _field_error

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
    slots = {}
    starts = {}
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


def reference_validate_preemptive(instance, schedule):
    """The reference for ``validate_preemptive``: one Python step per unit,
    and a diagnostic for every job, passing or not."""
    from machmin.model import JobDiagnostic, ValidationReport

    structural = []
    assigned = {job.id: 0 for job in instance.jobs}
    violations = {job.id: [] for job in instance.jobs}
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
    return ValidationReport(
        feasible=not structural and all(d.ok for d in diagnostics),
        machines_used=schedule.machines_used,
        diagnostics=diagnostics,
        structural_errors=tuple(structural),
    )


def reference_validate_nonpreemptive(instance, schedule):
    """The reference for ``validate_nonpreemptive``: a diagnostic for every
    job, passing or not."""
    from machmin.model import JobDiagnostic, ValidationReport

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
            diagnostics.append(JobDiagnostic(job.id, job.processing, 0, missing=True))
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
    return ValidationReport(
        feasible=not structural and all(d.ok for d in diagnostics),
        machines_used=peak_overlap(intervals),
        diagnostics=tuple(diagnostics),
        structural_errors=tuple(structural),
    )


def parse_outcome(parse, text):
    """A parser's schedule, or the line and message of its ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line, exc.message


PAST_LIMIT = "9" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "text",
    [
        "trace preemptive\r\n0 1\r\n0 2\r\n3 1\r\n",
        "trace preemptive\r0 1\r0 2\r3 1\r",
        "trace preemptive\n0 1\r\n0 2\r3 1",
        "trace nonpreemptive\r\n1 0\r2 4",
        "trace preemptive\n0 1\n0 2",
        "trace preemptive",
        "trace preemptive\r",
        "trace preemptive\r\n",
        "",
        "\n",
        "trace preemptive\n0  1\n",
        "trace preemptive\n 0 1\n",
        "trace preemptive\n0 1 \n",
        "trace preemptive\n 0\n 1\n",
        "trace nonpreemptive\n0 1\n\n1 2\n",
        "trace preemptive\n\n",
        "trace preemptive\n\n0 1",
        "trace preemptive\n0 1\n\r\n",
        "trace preemptive\n0 1\r\r\n",
        "trace preemptive\n0 1\n1 1\n0 2\n2 1\n0 3\n",
        "trace preemptive\n0 1\n1 1\n0 2\n2 1\n0 1\n",
        "trace preemptive\n0 1\n0 2\n0 1\n",
        "trace preemptive\n0 1\n1 1\n00 2\n-0 3\n",
        "trace preemptive\n0 1\n1 1\n00 2\n-0 1\n",
        "trace nonpreemptive\n1 0\n01 4\n",
        "trace preemptive\n0 1_0\n",
        "trace nonpreemptive\n1 0\n2 \u0663\n",
        "trace preemptive\n\u0661 0\n",
        f"trace preemptive\n0 1\n{PAST_LIMIT} 1\n",
        f"trace nonpreemptive\n0 -{PAST_LIMIT}\n",
        f"trace preemptive\n0 1\n0 1\n{PAST_LIMIT} 1\n",
        f"trace preemptive\n0 {PAST_LIMIT}\n0 1\n0 1\n",
        "trace preemptive\n0 1\n0 x\n0 1 2\n",
        "trace preemptive\n0 1\n0 1 2\n0 x\n",
        "trace preemptive\n0 1\x0b1 1\n",
        "trace preemptive\u20280 1\n",
        "trace preemptive scale 3\n0 1\n",
    ],
    ids=[
        "crlf", "lone-cr", "mixed-ends", "np-mixed-ends-no-final", "no-final-newline",
        "header-only", "header-cr", "header-crlf", "empty", "blank-header",
        "double-space", "leading-space", "trailing-space", "one-field-rows", "empty-row",
        "only-empty-row", "empty-first-row", "empty-crlf-row", "cr-then-crlf",
        "split-slot", "split-slot-repeat", "adjacent-repeat",
        "split-slot-spellings", "split-slot-spellings-repeat", "np-repeat-spelling",
        "underscore", "non-ascii-digit", "non-ascii-time", "past-digit-limit",
        "negative-past-digit-limit", "repeat-before-limit", "limit-before-repeat",
        "bad-field-before-count", "bad-count-before-field", "vertical-tab",
        "line-separator", "scale",
    ],
)
def test_parse_trace_matches_the_reference_on_edge_cases(text):
    assert parse_outcome(parse_trace, text) == parse_outcome(reference_parse_trace, text)


def test_parse_trace_reads_a_job_ordered_trace():
    # rows written job by job, as another tool may write them: every slot
    # recurs once per machine, never in adjacent rows
    rows = "".join(f"\n{t} {j}" for j in range(300) for t in range(40))
    schedule = parse_trace("trace preemptive" + rows + "\n")
    assert schedule == PreemptiveSchedule({t: range(300) for t in range(40)})
    assert schedule == reference_parse_trace("trace preemptive" + rows + "\n")
    repeated = "trace preemptive" + rows + "\n7 123\n"
    assert parse_outcome(parse_trace, repeated) == (
        300 * 40 + 2, "job 123 appears twice in slot 7"
    )


# well-formed fields, with spellings of one number that int() reads alike
TRACE_FIELDS = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["00", "-0", "03"]))
TRACE_ROWS = st.tuples(TRACE_FIELDS, TRACE_FIELDS).map(" ".join)
BAD_TRACE_ROWS = st.lists(
    st.one_of(
        TRACE_FIELDS,
        st.sampled_from(["1_0", "+1", "-", "", "\u0663", "x", "\t1", "1\x0b", PAST_LIMIT]),
    ),
    max_size=3,
).flatmap(lambda fields: st.sampled_from([" ", "  "]).map(lambda sep: sep.join(fields)))
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=500, deadline=None)
@given(
    header=st.sampled_from(["trace preemptive", "trace nonpreemptive", "trace preemptive scale 2"]),
    rows=st.lists(st.tuples(LINE_ENDS, TRACE_ROWS), max_size=12),
    bad=st.none() | st.tuples(st.integers(0, 12), LINE_ENDS, BAD_TRACE_ROWS),
    end=st.sampled_from(["", "\n", "\r\n", "\r", "\n\n", "\x0c"]),
)
def test_parse_trace_matches_the_reference(header, rows, bad, end):
    # valid traces, repeats of a slot or a job near or far apart, and at
    # most one malformed row among them
    if bad is not None:
        rows.insert(bad[0], bad[1:])
    text = header + "".join(eol + row for eol, row in rows) + end
    assert parse_outcome(parse_trace, text) == parse_outcome(reference_parse_trace, text)


def assert_same_report(report, reference):
    """Equal verdicts; the report lists the reference's failing jobs only."""
    assert report.feasible == reference.feasible
    assert report.machines_used == reference.machines_used
    assert report.structural_errors == reference.structural_errors
    assert report.diagnostics == tuple(d for d in reference.diagnostics if not d.ok)
    assert report.problems() == reference.problems()


VALIDATION_JOBS = st.lists(
    st.tuples(st.integers(0, 6), st.integers(1, 6), st.integers(1, 4)).map(
        lambda t: (t[0], max(t[1], t[2]), t[2])
    ),
    min_size=1,
    max_size=6,
).map(lambda raw: Instance(Job(i, r, r + w, p) for i, (r, w, p) in enumerate(raw)))


@settings(max_examples=300, deadline=None)
@given(
    inst=VALIDATION_JOBS,
    edits=st.lists(
        st.tuples(st.booleans(), st.integers(0, 8), st.integers(-1, 14)), max_size=8
    ),
)
def test_validate_preemptive_matches_the_reference(inst, edits):
    # a feasible schedule, then units dropped or added at any slot, for
    # known and unknown ids: volume short or over, slots outside windows
    slots = {}
    for job in inst.jobs:
        for t in range(job.release, job.release + job.processing):
            slots.setdefault(t, set()).add(job.id)
    for add, job_id, t in edits:
        if add:
            slots.setdefault(t, set()).add(job_id)
        else:
            slots.get(t, set()).discard(job_id)
    schedule = PreemptiveSchedule(slots)
    assert_same_report(
        validate_preemptive(inst, schedule), reference_validate_preemptive(inst, schedule)
    )


@settings(max_examples=300, deadline=None)
@given(
    inst=VALIDATION_JOBS,
    edits=st.lists(
        st.tuples(st.booleans(), st.integers(0, 8), st.integers(-1, 14)), max_size=6
    ),
)
def test_validate_nonpreemptive_matches_the_reference(inst, edits):
    starts = {job.id: job.release for job in inst.jobs}
    for put, job_id, start in edits:
        if put:
            starts[job_id] = start
        else:
            starts.pop(job_id, None)
    schedule = NonpreemptiveSchedule(starts)
    assert_same_report(
        validate_nonpreemptive(inst, schedule),
        reference_validate_nonpreemptive(inst, schedule),
    )


@given(st.lists(st.tuples(st.integers(-3, 8), st.integers(-3, 8)), max_size=10))
def test_peak_overlap_matches_the_reference(intervals):
    # every interval lies in [-3, 8], so the load peaks at one of its points
    covering = (sum(a <= x < b for a, b in intervals) for x in range(-3, 9))
    assert peak_overlap(intervals) == max(covering)
