import json
from fractions import Fraction
from pathlib import Path

import pytest

from machmin.adversary import gen_random
from machmin.cli import main
from machmin.composite import COMPOSITES
from machmin.harness import (
    POLICIES,
    CampaignConfig,
    ConstantsReport,
    _revalidate,
    bench,
    report_constants,
    rows_to_csv,
    rows_to_jsonl,
    run_policy,
    verify,
)
from machmin.model import Instance, Job, serialize_instance, serialize_trace
from machmin.engine import simulate, EDF

DATA = Path(__file__).parent / "data"


def small_campaign(**overrides):
    base = dict(
        profile="uniform-d",
        n=6,
        count=4,
        seed0=1,
        policies=("uniform-p", "edf@3"),
    )
    base.update(overrides)
    return CampaignConfig(**base)


def test_bench_deterministic():
    a = rows_to_csv(bench(small_campaign()))
    b = rows_to_csv(bench(small_campaign()))
    assert a == b


def test_bench_golden_file():
    golden = (DATA / "golden_bench.csv").read_bytes()
    assert rows_to_csv(bench(small_campaign())).encode() == golden


def test_bench_summary_and_ratios():
    rows = bench(small_campaign())
    summaries = [r for r in rows if r.instance_id == "summary"]
    assert {r.policy for r in summaries} == {"uniform-p", "edf@3"}
    for row in rows:
        if row.instance_id == "summary":
            continue
        assert row.status == "ok"
        assert row.first_miss == "none"
        ratio = Fraction(row.ratio)
        assert ratio == Fraction(row.machines_used, row.m_opt)
    uniform_max = next(
        Fraction(r.ratio) for r in summaries if r.policy == "uniform-p"
    )
    assert uniform_max == 1  # LLF at m is 1-competitive on uniform deadlines


def oracle_skip_campaign():
    return small_campaign(
        profile="general", n=14, count=2, oracle="nonpreemptive",
        policies=("edf@3",),
    )


def test_bench_oracle_skip_marked():
    rows = bench(oracle_skip_campaign())
    assert rows and all(r.status == "oracle-skipped" for r in rows)
    assert all(r.ratio == "" for r in rows)


def test_bench_jsonl_shape():
    rows = bench(small_campaign(count=1))
    lines = rows_to_jsonl(rows).strip().split("\n")
    assert len(lines) == len(rows)
    assert lines[0].startswith("{")


def test_bench_jsonl_golden_file():
    golden = (DATA / "golden_bench.jsonl").read_bytes()
    text = rows_to_jsonl(bench(small_campaign())) + rows_to_jsonl(
        bench(oracle_skip_campaign())
    )
    assert text.encode() == golden


def test_csv_timing_column_is_optional():
    rows = bench(small_campaign(count=1))
    with_timing = rows_to_csv(rows, timing=True)
    without = rows_to_csv(rows, timing=False)
    assert "wall_ms" in with_timing.splitlines()[0]
    assert "wall_ms" not in without.splitlines()[0]


def test_jsonl_timing_marks_every_measured_row():
    # wall times depend on the machine, so only their presence is pinned
    rows = bench(small_campaign())
    for line in rows_to_jsonl(rows, timing=True).splitlines():
        cells = json.loads(line)
        if cells["instance"] == "summary":
            assert cells["wall_ms"] is None
        else:
            assert isinstance(cells["wall_ms"], float)
    assert "wall_ms" not in rows_to_jsonl(rows)


def test_verify_roundtrip():
    inst = Instance([Job(0, 0, 3, 2), Job(1, 1, 4, 2)])
    run = simulate(inst, EDF(2))
    code, report = verify(
        serialize_instance(inst), serialize_trace(run.to_preemptive_schedule())
    )
    assert code == 0
    assert "feasible: yes" in report


def test_verify_slot_past_deadline():
    inst_text = "machmin v1 1\n0 0 2 1\n"
    trace = "trace preemptive\n5 0\n"
    code, report = verify(inst_text, trace)
    assert code == 1
    assert "outside window" in report and "[5]" in report


def test_verify_missing_unit():
    inst_text = "machmin v1 1\n0 0 4 3\n"
    trace = "trace preemptive\n0 0\n1 0\n"
    code, report = verify(inst_text, trace)
    assert code == 1
    assert "2 of 3 units" in report


def test_verify_kind_mismatch():
    inst_text = "machmin v1 1\n0 0 2 1\n"
    trace = "trace preemptive\n0 0\n"
    code, report = verify(inst_text, trace, kind="nonpreemptive")
    assert code == 2


def test_report_constants_empty():
    assert str(report_constants([])) == "no rows"


def test_report_constants_logn_campaign():
    config = small_campaign(
        profile="general", n=12, count=6, policies=("logn",),
        horizon=20, max_len=8,
    )
    rows = bench(config)
    report = report_constants(rows)
    assert report.count == 6
    assert report.max_c is not None and report.max_c > 0
    assert report.p95_c <= report.max_c


def test_run_policy_unknown():
    inst = Instance([Job(0, 0, 2, 1)])
    with pytest.raises(ValueError, match="unknown policy"):
        run_policy("nope", inst)


def test_bench_table_examples():
    # agreeable campaign: max ratio <= 18; equal-p EDF@3: zero misses
    rows = bench(small_campaign(profile="agreeable", policies=("agreeable-p",)))
    summary = next(r for r in rows if r.instance_id == "summary")
    assert Fraction(summary.ratio) <= 18
    rows = bench(small_campaign(profile="equal-p", policies=("edf@3",)))
    assert all(
        r.first_miss == "none" for r in rows if r.instance_id != "summary"
    )


# ---------------------------------------------------------------------------
# Every policy table entry, semi-online and online, replays and verifies.
# ---------------------------------------------------------------------------

PROFILE_FOR = {
    "agreeable-p": "agreeable",
    "agreeable-np": "agreeable",
    "equalp-semi": "equal-p",
    "equalp-online": "equal-p",
    "uniform-p": "uniform-d",
    "uniform-np": "uniform-d",
}
ENTRIES = [(name, False) for name in POLICIES] + [
    (name, True) for name, spec in POLICIES.items() if spec.online is not None
]


@pytest.mark.parametrize(
    "name,online", ENTRIES, ids=[f"{n}-{'online' if o else 'semi'}" for n, o in ENTRIES]
)
def test_policy_table_entry(name, online, tmp_path, capsys):
    generated = gen_random(PROFILE_FOR.get(name, "general"), 10, 0)
    m = generated.m_opt
    # each policy takes the number it needs; a machine budget for a policy
    # that takes none is refused, as in the CLI below
    machines = 3 * m if POLICIES[name].needs == "machines" else None
    run = run_policy(name, generated.instance, machines=machines, m=m, online=online)
    if run.first_miss is None:
        _revalidate(run)  # the replay that bench applies to miss-free runs
    inst = tmp_path / "inst.txt"
    inst.write_text(serialize_instance(generated.instance))
    # the CLI refuses --machines where the policy takes none
    if POLICIES[name].needs == "machines":
        numbers = ["--machines", str(3 * m)]
    else:
        numbers = ["--m", str(m)]
    code = main(["run", "--policy", name, *numbers, *["--online"] * online, str(inst)])
    trace = tmp_path / "trace.txt"
    trace.write_text(capsys.readouterr().out)
    assert code == (0 if run.first_miss is None else 1)
    # a run on the 2-scaled instance names its scale in the trace header,
    # so its trace verifies against the given instance
    assert main(["verify", str(inst), str(trace)]) == code


@pytest.mark.parametrize("key", list(COMPOSITES))
def test_composite_row_is_a_policy_entry(key):
    row, spec = COMPOSITES[key], POLICIES[key]
    assert spec.needs == "m" and spec.online is not None
    assert spec.alpha == (row.semi_alpha is not None) == (row.online_alpha is not None)
    generated = gen_random(PROFILE_FOR[key], 6, 0)
    run = run_policy(key, generated.instance, m=generated.m_opt)
    assert run.policy_name == key
    assert run_policy(key, generated.instance, online=True).policy_name == f"{key}-online"


def test_bench_equalp_online_replays():
    # tight jobs committed starts while loose jobs ran preemptively; the run
    # used to be replayed as non-preemptive and fail with "harness bug"
    rows = bench(
        CampaignConfig(
            profile="equal-p", n=10, count=60, seed0=0,
            policies=("equalp-online",),
        )
    )
    assert len(rows) == 61
