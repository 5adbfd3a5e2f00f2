"""The input boundary under fuzzing.

Any text given to ``parse_instance`` or ``parse_trace`` yields a value or a
``ParseError``, never another exception.  ``machmin opt`` (all three
optima) and ``machmin verify`` on fuzzed files exit 0, 1 or 2, or 3 only
where ``opt --nonpreemptive`` meets more than 12 jobs, and write at most
one line to stderr.

The fuzzed files keep their time fields small (below 2^12 before mutation).
Valid instances whose time fields reach past 2^62 get from ``opt --preemptive``
and ``opt --strong-density`` the answer of the same instance divided by
its common power of two.  ``machmin run`` is left out: the simulator steps
every slot from 0, so a release of 2^40 still hangs it (ROADMAP open item
1, the event-driven simulator).  ``opt`` and ``verify`` do not step slots
and are fuzzed whole.
"""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from machmin.cli import main
from machmin.model import (
    Instance,
    NonpreemptiveSchedule,
    ParseError,
    PreemptiveSchedule,
    parse_instance,
    parse_trace,
)

# pieces that reach every branch of both parsers: the headers, signs, the
# line breaks splitlines() takes but the row check refuses, characters
# int() would take (a plus sign, an underscore, a non-ASCII digit), and a
# field past int()'s digit limit
SMALL_PIECES = (
    " ", "  ", "\n", "\r\n", "\r", "\t", "\x0b", "\x0c", "\x1c", "\x85",
    "\u2028", "-", "+", "_", "\u0663", "0", "1", "2", "7", "10", "-1",
)
PIECES = (
    "machmin", "v1", "trace", "preemptive", "nonpreemptive", "scale",
    *SMALL_PIECES,
    "9" * 5000,
)

pieces_text = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)
any_text = st.one_of(st.text(max_size=200), pieces_text)

small = st.integers(0, 1 << 12)


def rows_text(header: str, rows: list[str]) -> str:
    return "".join(f"{line}\n" for line in [header, *rows])


@st.composite
def instance_jobs(draw) -> list[tuple[int, int, int]]:
    jobs = []
    for _ in range(draw(st.integers(0, 7))):
        r, length = draw(small), draw(st.integers(1, 64))
        jobs.append((r, r + length, draw(st.integers(1, length))))
    return jobs


def instance_text(jobs) -> str:
    rows = [f"{i} {r} {d} {p}" for i, (r, d, p) in enumerate(jobs)]
    return rows_text(f"machmin v1 {len(rows)}", rows)


def trace_text(jobs, kind: str) -> str:
    """A feasible trace of ``jobs``: each job from its release on."""
    if kind == "preemptive":
        rows = [f"{t} {i}" for i, (r, _, p) in enumerate(jobs) for t in range(r, r + p)]
    else:
        rows = [f"{i} {r}" for i, (r, _, _) in enumerate(jobs)]
    return rows_text(f"trace {kind}", rows)


kinds = st.sampled_from(["preemptive", "nonpreemptive"])


@st.composite
def any_trace_text(draw) -> str:
    kind = draw(kinds)
    scale = draw(st.sampled_from(["", " scale 2", " scale 3"]))
    pairs = draw(st.lists(st.tuples(st.integers(0, 8), small), max_size=12))
    rows = [f"{a} {b}" if kind == "nonpreemptive" else f"{b} {a}" for a, b in pairs]
    return rows_text(f"trace {kind}{scale}", rows)


def mutate(draw, text: str) -> str:
    """``text`` as it is, or with a few characters deleted, replaced or
    inserted."""
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 4)))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.sampled_from(SMALL_PIECES)) + text[at + cut :]
    return text


@st.composite
def files(draw) -> tuple[str, str]:
    """An instance file and a trace file: a feasible pair, either or both
    mutated, a trace of other jobs, or free text."""
    jobs = draw(instance_jobs())
    instance = mutate(draw, instance_text(jobs))
    if draw(st.booleans()):
        trace = trace_text(jobs, draw(kinds))
    else:
        trace = draw(any_trace_text())
    trace = mutate(draw, trace)
    free = st.sampled_from((False, False, True))
    return (
        draw(any_text) if draw(free) else instance,
        draw(any_text) if draw(free) else trace,
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_text, files().map(lambda pair: pair[0])))
def test_parse_instance_returns_or_raises_parse_error(text):
    try:
        value = parse_instance(text)
    except ParseError:
        return
    assert isinstance(value, Instance)


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_text, files().map(lambda pair: pair[1])))
def test_parse_trace_returns_or_raises_parse_error(text):
    try:
        value = parse_trace(text)
    except ParseError:
        return
    assert isinstance(value, (PreemptiveSchedule, NonpreemptiveSchedule))


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


OPT_FLAGS = ([], ["--nonpreemptive"], ["--strong-density"])


@settings(max_examples=60, deadline=None)
@given(files().map(lambda pair: pair[0]), st.sampled_from(OPT_FLAGS))
def test_opt_on_fuzzed_files_exits_with_a_documented_code(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        path.write_text(text, newline="")
        code, _, err = run_cli(["opt", *flags, str(path)])
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1, err


@settings(max_examples=60, deadline=None)
@given(files(), st.sampled_from(([], ["--kind", "preemptive"], ["--kind", "nonpreemptive"])))
def test_verify_on_fuzzed_files_exits_with_a_documented_code(pair, kind):
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp) / "instance.txt", Path(tmp) / "trace.txt"
        for path, text in zip(paths, pair):
            path.write_text(text, newline="")
        code, _, err = run_cli(["verify", *kind, *map(str, paths)])
    assert code in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1, err


@st.composite
def large_instance_jobs(draw) -> list[tuple[int, int, int]]:
    """Valid jobs scaled by a power of two that takes their largest
    deadline as far as [2^62, 2^63)."""
    jobs = draw(instance_jobs().filter(bool))
    top = max(d for _, d, _ in jobs).bit_length()
    shift = draw(st.integers(0, 63 - top) | st.just(63 - top))
    return [tuple(x << shift for x in job) for job in jobs]


@settings(max_examples=40, deadline=None)
@given(large_instance_jobs(), st.sampled_from((["--preemptive"], ["--strong-density"])))
def test_opt_at_large_times_equals_the_divided_instance(jobs, flag):
    low = min(x & -x for job in jobs for x in job if x)
    divided = [tuple(x // low for x in job) for job in jobs]
    answers = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        for version in (jobs, divided):
            path.write_text(instance_text(version))
            code, out, err = run_cli(["opt", *flag, str(path)])
            assert (code, err) == (0, "")
            answers.append(out)
    assert answers[0] == answers[1]
