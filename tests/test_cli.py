import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_optimum import reference_min_machines

from machmin import harness
from machmin.cli import main
from machmin.model import parse_instance, parse_trace
from machmin.optimum import PYTHON_FLOW_ARCS, FlowNetwork

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def feasible_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("machmin v1 2\n0 0 4 2\n1 0 4 2\n")
    return str(path)


def test_gen_random_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    code = main(
        [
            "gen", "--family", "random", "--profile", "agreeable",
            "--n", "5", "--seed", "3", "-o", str(out),
        ]
    )
    assert code == 0
    inst = parse_instance(out.read_text())
    assert inst.n == 5 and inst.is_agreeable


def test_gen_twice_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(
            [
                "gen", "--family", "random", "--profile", "equal-p",
                "--n", "6", "--seed", "9", "--p", "2", "-o", str(out),
            ]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_and_verify(feasible_file, tmp_path, capsys):
    code = main(["run", "--policy", "edf", "--machines", "2", feasible_file])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("trace preemptive\n")
    trace = tmp_path / "trace.txt"
    trace.write_text(captured.out)
    assert main(["verify", feasible_file, str(trace)]) == 0
    capsys.readouterr()
    assert main(["verify", "--kind", "nonpreemptive", feasible_file, str(trace)]) == 2


def test_run_miss_exit_code(tmp_path, capsys):
    path = tmp_path / "tight.txt"
    path.write_text("machmin v1 2\n0 0 1 1\n1 0 1 1\n")
    assert main(["run", "--policy", "edf", "--machines", "1", str(path)]) == 1


def test_run_nonpreemptive_trace(feasible_file, capsys):
    code = main(["run", "--policy", "earlyfit", feasible_file])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("trace nonpreemptive\n")
    schedule = parse_trace(captured.out)
    assert schedule.starts == {0: 0, 1: 0}


def test_opt_outputs(feasible_file, capsys):
    assert main(["opt", "--preemptive", feasible_file]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["opt", "--strong-density", feasible_file]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["opt", "--nonpreemptive", feasible_file]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_opt_cap_exit(tmp_path, capsys):
    rows = ["machmin v1 13"] + [f"{i} 0 40 1" for i in range(13)]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(rows) + "\n")
    assert main(["opt", "--nonpreemptive", str(path)]) == 3


def test_opt_strong_density_beyond_twenty_slots(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text("machmin v1 1\n0 0 30 1\n")
    assert main(["opt", "--strong-density", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1/30"


def test_opt_strong_density_at_large_windows(tmp_path, capsys):
    # W = 15 at the density's denominator 2^30 needs a flow beyond int32
    rows = ["machmin v1 3"] + [f"{i} 0 {2**30} 5" for i in range(3)]
    path = tmp_path / "huge.txt"
    path.write_text("\n".join(rows) + "\n")
    assert main(["opt", "--strong-density", str(path)]) == 0
    assert capsys.readouterr() == ("15/1073741824\n", "")


def test_bench_csv(capsys):
    code = main(
        [
            "bench", "--profile", "uniform-d", "--n", "5", "--count", "2",
            "--seed", "4", "--policy", "uniform-p",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    assert lines[0].startswith("instance,profile,")
    assert len(lines) == 1 + 2 + 1  # header + rows + summary


def test_adversary_exit(capsys):
    assert main(["adversary", "--policy", "edf", "--m", "4"]) == 1
    assert "forced miss" in capsys.readouterr().out


def test_transform_cli(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("machmin v1 1\n0 0 12 4\n")
    code = main(
        ["transform", "--kind", "rshort", "--param", "1/2", str(path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "0 4 12 4" in captured.out


def test_transform_needs_scale(tmp_path, capsys):
    path = tmp_path / "odd.txt"
    path.write_text("machmin v1 1\n0 0 12 5\n")
    assert main(["transform", "--kind", "rshort", "--param", "1/2", str(path)]) == 2
    assert (
        main(
            [
                "transform", "--kind", "rshort", "--param", "1/2",
                "--auto-scale", str(path),
            ]
        )
        == 0
    )


def test_gen_llf_lb_and_dord(tmp_path):
    out = tmp_path / "llf.txt"
    assert main(
        ["gen", "--family", "llf-lb", "--m", "2", "--c", "2", "--k", "1",
         "-o", str(out)]
    ) == 0
    assert parse_instance(out.read_text()).n == 5
    assert main(
        ["gen", "--family", "dord", "--m", "2", "--n", "4", "--k", "1",
         "-o", str(out)]
    ) == 0
    inst = parse_instance(out.read_text())
    assert [j.processing for j in inst.jobs] == [1, 1, 2, 4]


def test_gen_usage_errors(capsys):
    assert main(["gen", "--family", "llf-lb"]) == 2
    assert main(["gen", "--family", "random"]) == 2
    assert main(["gen", "--family", "llf-lb", "--m", "3", "--c", "2",
                 "--k", "1"]) == 2  # odd m rejected by the generator


def test_equalp_online_run_then_verify(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    assert main(["gen", "--family", "random", "--profile", "equal-p",
                 "--n", "10", "--seed", "0", "-o", str(inst)]) == 0
    assert main(["run", "--policy", "equalp-online", str(inst)]) == 0
    trace = tmp_path / "trace.txt"
    trace.write_text(capsys.readouterr().out)
    assert main(["verify", str(inst), str(trace)]) == 0


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--policy", "logn", "--online"], "policy 'logn' has no online form; drop --online\n"),
        (["--policy", "uniform-np"],
         "policy 'uniform-np' needs the optimum via --m (or --online)\n"),
        (["--policy", "llf"], "policy 'llf' needs an explicit --machines\n"),
    ],
)
def test_run_missing_number_message(argv, message, feasible_file, capsys):
    assert main(["run", *argv, feasible_file]) == 2
    assert capsys.readouterr().err == f"error: {message}"


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["opt", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope.txt" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--policy", "logn", "--m", "2", "--online"],
         "policy 'logn' has no online form; drop --online\n"),
        (["--policy", "edf", "--machines", "2", "--alpha", "1/3"],
         "policy 'edf' takes no --alpha\n"),
        (["--policy", "agreeable-p", "--m", "2", "--machines", "4"],
         "policy 'agreeable-p' takes no --machines\n"),
        (["--policy", "edf", "--machines", "2", "--m", "5"],
         "policy 'edf' takes no --m\n"),
        (["--policy", "earlyfit", "--m", "5"], "policy 'earlyfit' takes no --m\n"),
        (["--policy", "equalp-online", "--m", "7"],
         "policy 'equalp-online' takes no --m\n"),
        (["--policy", "agreeable-p", "--m", "2", "--online"],
         "policy 'agreeable-p' takes no --m with --online\n"),
        (["--policy", "agreeable-p", "--m", "0"], "--m must be positive, got 0\n"),
        (["--policy", "agreeable-p", "--m", "-3"], "--m must be positive, got -3\n"),
        (["--policy", "logn", "--m", "-3"], "--m must be positive, got -3\n"),
        (["--policy", "edf", "--machines", "-3"],
         "--machines must be non-negative, got -3\n"),
        (["--policy", "llf", "--machines", "-1"],
         "--machines must be non-negative, got -1\n"),
        (["--policy", "edf-np", "--machines", "-2"],
         "--machines must be non-negative, got -2\n"),
    ],
)
def test_run_refuses_options_the_policy_does_not_take(
    argv, message, feasible_file, capsys
):
    assert main(["run", *argv, feasible_file]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}" and captured.out == ""


@pytest.mark.parametrize("policy", ["edf", "llf", "edf-np"])
def test_run_on_zero_machines_is_a_miss(policy, feasible_file, capsys):
    assert main(["run", "--policy", policy, "--machines", "0", feasible_file]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{policy}: first miss (0, 3), machines_used=0\n"


@pytest.mark.parametrize(
    "policy, kind", [("edf", "preemptive"), ("edf-np", "nonpreemptive")]
)
def test_run_on_zero_machines_keeps_the_trace_kind(policy, kind, tmp_path, capsys):
    # a policy that commits starts writes a non-preemptive trace even when
    # it committed none
    path = tmp_path / "one.txt"
    path.write_text("machmin v1 1\n0 0 4 2\n")
    assert main(["run", "--policy", policy, "--machines", "0", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"trace {kind}\n"


@pytest.mark.parametrize("alpha", ["0", "1", "3/2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--policy", "agreeable-p", "--m", "2"],
        ["--policy", "agreeable-np", "--m", "2"],
        ["--policy", "uniform-np", "--m", "2"],
        ["--policy", "equalp-online"],
    ],
    ids=lambda argv: argv[1],
)
def test_run_refuses_alpha_out_of_range(argv, alpha, feasible_file, capsys):
    assert main(["run", *argv, "--alpha", alpha, feasible_file]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: alpha must lie in (0, 1), got {alpha}\n"
    assert captured.out == ""


def test_scaled_run_verifies_against_the_given_instance(feasible_file, tmp_path, capsys):
    assert main(["run", "--policy", "agreeable-np", "--m", "2", feasible_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trace nonpreemptive scale 2\n")
    trace = tmp_path / "trace.txt"
    trace.write_text(out)
    assert main(["verify", feasible_file, str(trace)]) == 0


def test_work_beyond_the_flow_limit(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(f"machmin v1 2\n0 0 {2**31} {2**31 - 1}\n1 0 {2**31} 1\n")
    assert main(["opt", str(path)]) == 0
    assert capsys.readouterr() == ("1\n", "")


def test_nonpreemptive_optimum_beyond_the_flow_limit(tmp_path, capsys):
    k = 2**40
    path = tmp_path / "big.txt"
    path.write_text(f"machmin v1 2\n0 {k} {k + 1} 1\n1 0 {2 * k + 1} {k + 1}\n")
    assert main(["opt", "--nonpreemptive", str(path)]) == 0
    assert capsys.readouterr().out == "2\n"
    assert main(["opt", str(path)]) == 0
    assert capsys.readouterr().out == "1\n"


def test_bench_refuses_online_for_a_policy_without_one(monkeypatch, capsys):
    def no_instance(*args, **kwargs):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(harness, "gen_random", no_instance)
    argv = ["bench", "--profile", "general", "--n", "8", "--count", "2",
            "--policy", "earlyfit", "--policy", "logn", "--online"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: policy 'logn' has no online form; drop --online\n"
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["agreeable-p@3", "earlyfit@2"])
def test_bench_refuses_a_budget_factor_the_policy_does_not_take(spec, capsys):
    argv = ["bench", "--profile", "agreeable", "--n", "6", "--count", "2",
            "--policy", spec]
    assert main(argv) == 2
    name = spec.split("@")[0]
    captured = capsys.readouterr()
    assert captured.err == f"error: policy {name!r} takes no --machines\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "spec,message",
    [
        ("edf@1/0", "budget factor in 'edf@1/0' must be a positive rational"),
        ("edf@0", "budget factor in 'edf@0' must be a positive rational"),
        ("edf@-1", "budget factor in 'edf@-1' must be a positive rational"),
        ("edf", "policy 'edf' needs a budget factor, e.g. edf@3"),
        ("nope@3", "unknown policy 'nope'; known: " + ", ".join(harness.POLICIES)),
    ],
)
def test_bench_checks_every_spec_before_the_first_instance(
    spec, message, monkeypatch, capsys
):
    def no_instance(*args, **kwargs):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(harness, "gen_random", no_instance)
    argv = ["bench", "--profile", "general", "--n", "4", "--count", "1",
            "--policy", "logn", "--policy", spec]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


BENCH_ARGV = ["bench", "--profile", "uniform-d", "--n", "5", "--count", "2",
              "--seed", "4", "--policy", "uniform-p"]


def test_bench_timing_adds_a_wall_ms_column(capsys):
    assert main([*BENCH_ARGV, "--timing"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.endswith(",status,wall_ms")
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        if cells[0] == "summary":
            assert cells[-1] == ""
        else:
            assert float(cells[-1]) >= 0


def test_bench_timing_adds_a_wall_ms_key(capsys):
    assert main([*BENCH_ARGV, "--timing", "--format", "jsonl"]) == 0
    for line in capsys.readouterr().out.splitlines():
        cells = json.loads(line)
        assert (cells["wall_ms"] is None) == (cells["instance"] == "summary")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_bench_without_timing_writes_no_wall_ms(fmt, capsys):
    assert main([*BENCH_ARGV, "--format", fmt]) == 0
    assert "wall_ms" not in capsys.readouterr().out


def test_bench_constants_line(capsys):
    argv = ["bench", "--profile", "general", "--n", "8", "--count", "2",
            "--policy", "logn", "--constants"]
    assert main(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rows:")


@pytest.mark.parametrize(
    "options,message",
    [
        (["--profile", "alpha-tight", "--alpha", "1"],
         "alpha must lie in (0, 1), got 1"),
        (["--profile", "alpha-loose", "--alpha", "0"],
         "alpha must lie in (0, 1), got 0"),
        (["--profile", "uniform-tight", "--alpha", "3/2"],
         "alpha must lie in (0, 1), got 3/2"),
        (["--profile", "general", "--horizon", "0"],
         "horizon and max_len must be >= 1, got 0 and 5"),
        (["--profile", "uniform-loose", "--alpha", "1/20"],
         "horizon + max_len = 15 leaves no window of the smallest length 20"),
    ],
)
def test_gen_refuses_what_no_profile_can_draw(options, message, capsys):
    assert main(["gen", "--family", "random", "--n", "5", *options]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_gen_keeps_general_at_alpha_zero(capsys):
    argv = ["gen", "--family", "random", "--profile", "general", "--n", "4"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert main([*argv, "--alpha", "0"]) == 0
    assert capsys.readouterr().out == expected


# Runs each argv through ``main`` in one interpreter, writing the stdout of
# the i-th to ``i.out`` in the working directory; its last line of stdout
# gives the exit codes and which numeric libraries were imported by then.
FRESH_CLI = """
import contextlib, json, sys
from machmin.cli import main
codes = []
for i, argv in enumerate(json.loads(sys.argv[1])):
    with open(f"{i}.out", "w") as out, contextlib.redirect_stdout(out):
        codes.append(main(argv))
print(json.dumps([codes, sorted({"numpy", "scipy"} & sys.modules.keys())]))
"""


def fresh_cli(cwd, *argvs):
    """Exit codes and the numeric libraries loaded after running ``argvs``
    through the CLI, in that order, in a fresh interpreter in ``cwd``."""
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CLI, json.dumps(argvs)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_small_runs_load_neither_numpy_nor_scipy(tmp_path):
    codes, loaded = fresh_cli(
        tmp_path,
        ["gen", "--family", "random", "--profile", "general", "--n", "8",
         "--seed", "3", "-o", "inst.txt"],
        ["run", "--policy", "edf", "--machines", "2", "inst.txt"],
        ["verify", "inst.txt", "1.out"],
        ["opt", "--preemptive", "inst.txt"],
    )
    assert codes == [0, 0, 0, 0]
    assert loaded == []
    instance = parse_instance((tmp_path / "inst.txt").read_text())
    assert FlowNetwork.build(instance).arcs <= PYTHON_FLOW_ARCS
    # below n, so the optimum was computed, not read off the job count
    assert (tmp_path / "3.out").read_text() == "2\n" and instance.n == 8


def test_opt_past_the_cutoff_loads_scipy(tmp_path):
    codes, loaded = fresh_cli(
        tmp_path,
        ["gen", "--family", "random", "--profile", "general", "--n", "40",
         "--seed", "3", "-o", "inst.txt"],
        ["opt", "--preemptive", "inst.txt"],
    )
    assert codes == [0, 0]
    assert loaded == ["numpy", "scipy"]
    instance = parse_instance((tmp_path / "inst.txt").read_text())
    assert FlowNetwork.build(instance).arcs > PYTHON_FLOW_ARCS
    expected = reference_min_machines(instance.jobs, 1)
    assert (tmp_path / "1.out").read_text() == f"{expected}\n" and expected < instance.n


def test_python_dash_m_runs_the_cli(feasible_file):
    proc = subprocess.run(
        [sys.executable, "-m", "machmin", "opt", "--preemptive", feasible_file],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")
