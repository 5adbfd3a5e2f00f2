"""Run the benchmark on a parent commit and on the working tree in
alternating pairs, and write the summary to ``BENCH_<label>.json``.

    python3 tools/bench_pairs.py --parent REV --label LABEL \\
        --workloads online_prefix,long_sim --seeds 7,11 --pairs 10 --seconds 25 \\
        [--trace] [--probe "tools/pool_counts.py --seed 7"] [--change TEXT]

Run it from the root of the checkout.  The parent side is ``git archive
REV`` unpacked into a temporary directory, which leaves the repository's
own ``.git`` untouched; the change side is the working tree, uncommitted
edits included.  For each workload and seed, ``perfbench/run.py --trace 0``
runs ``--pairs`` times on each side, the first of each pair alternating, so
a drift in the machine's speed reaches both sides alike.  Each run's last
line, one JSON object, is kept under ``runs``.  ``summary`` gives, per
end-to-end metric, each side's median and quartiles
(``statistics.quantiles(n=4, method="inclusive")``), the pairs the change
won (equal values win for neither side), the relative change of the
medians, the parent's interquartile range, and ``gain_shown``: the change
won at least nine pairs in ten and its median is better than the parent's
by more than that range.

``--trace`` adds one traced run per side, workload and seed (the
per-layer metrics).  ``--probe`` runs a script once per side, from that
side's root with its ``src`` on the path, and keeps the last line it
prints, one JSON object: counts that do not depend on the machine go
there.  Nothing is written under ``perfbench/``: children run with
``PYTHONDONTWRITEBYTECODE=1``, and the spans of a traced run go to the
side's ``.perfbench_spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

QUANTILES = {"n": 4, "method": "inclusive"}
# a gain is shown when the change wins at least this share of the pairs
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> dict[str, float]:
    """q1, median and q3 of one side's runs; a single run is all three."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, **QUANTILES)
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(
    parent: list[dict], change: list[dict], better: dict[str, str]
) -> dict:
    """Summarize the last lines of ``perfbench/run.py --trace 0`` runs made
    in pairs: ``parent[i]`` and ``change[i]`` are pair i.  ``better`` maps
    each end-to-end metric to "higher" or "lower"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    out: dict = {
        "pairs": len(parent),
        "correct": all(run["correct"] for run in parent + change),
        "failed": {
            "parent": sum(run["failed"] for run in parent),
            "change": sum(run["failed"] for run in change),
        },
        "attempted": {
            "parent": sum(run["attempted"] for run in parent),
            "change": sum(run["attempted"] for run in change),
        },
    }
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        p, c = quartiles(before), quartiles(after)
        iqr = p["q3"] - p["q1"]
        gain = sign * (c["median"] - p["median"])
        out[name] = {
            "parent": p,
            "change": c,
            "change_wins": wins,
            "relative_change": (
                round(c["median"] / p["median"] - 1, 4) if p["median"] else None
            ),
            "parent_iqr": round(iqr, 4),
            "gain_shown": wins >= WIN_SHARE * len(parent) and gain > iqr,
        }
    return out


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run from ``root``; the JSON of its last line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=child_env(root), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe(root: Path, argv: list[str]) -> dict:
    """The last line of a probe script run from ``root``, as JSON."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=root, env=child_env(root), capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv} in {root}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_env(root: Path) -> dict:
    return dict(
        os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1"
    )


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", required=True, help="comma-separated integers")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true", help="one traced run per side")
    parser.add_argument("--probe", help="a script and its arguments, run once per side")
    parser.add_argument("--change", default="", help="what the change does, for the record")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    workloads = args.workloads.split(",")
    seeds = [int(seed) for seed in args.seeds.split(",")]

    here = Path.cwd()
    spec = json.loads((here / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_rev = git("rev-parse", args.parent)
    record: dict = {
        "label": args.label,
        "change": args.change,
        "parent_commit": parent_rev,
        "change_base": git("rev-parse", "HEAD"),
        "host": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                f"Python {platform.python_version()}",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
                   " --trace 0|1",
        "script": "tools/bench_pairs.py " + " ".join(
            shlex.quote(a) for a in (argv if argv is not None else sys.argv[1:])
        ),
        "protocol": f"{args.pairs} alternating pairs per workload and seed, the first of "
                    "each pair alternating; quartiles are statistics.quantiles(n=4, "
                    "method='inclusive') over one side's runs; change_wins counts the pairs "
                    "the change won, equal values winning for neither side",
        "summary": {},
        "runs": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        parent_root = Path(scratch)
        archive = subprocess.run(
            ["git", "archive", parent_rev], check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_root)], input=archive, check=True)
        sides = {"parent": parent_root, "change": here}
        for workload in workloads:
            for seed in seeds:
                key = f"{workload}@seed{seed}"
                runs: dict[str, list[dict]] = {"parent": [], "change": []}
                for pair in range(args.pairs):
                    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                    for side in order:
                        runs[side].append(
                            perfbench(sides[side], workload, seed, args.seconds, 0)
                        )
                    print(f"{key} pair {pair + 1}/{args.pairs}: " + ", ".join(
                        f"{side} {runs[side][-1]['metrics']['items_per_s']['value']:.2f}"
                        for side in ("parent", "change")
                    ) + " items/s", flush=True)
                record["runs"][key] = runs
                record["summary"][key] = summarize(runs["parent"], runs["change"], better)
                if args.trace:
                    record.setdefault("traced", {})[key] = {
                        side: perfbench(root, workload, seed, args.seconds, 1)
                        for side, root in sides.items()
                    }
        if args.probe:
            probe_argv = shlex.split(args.probe)
            probe_argv[0] = str((here / probe_argv[0]).resolve())
            record["probe"] = {
                "command": args.probe,
                **{side: probe(root, probe_argv) for side, root in sides.items()},
            }
    out = here / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
