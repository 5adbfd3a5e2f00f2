"""Run one machmin benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports machmin from ``./src`` only,
and reads the metric names and units from ``./BENCHMARK.json``.  It starts
the measured work in a child process (``worker.py``), so that peak memory
belongs to that workload, and times set-up in ``SETUP_REPEATS`` further
children.  Every child runs single-threaded, with BLAS/OpenMP pinned to one
thread.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (see ``tracer.py``).  A human-readable
report comes first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Item times and ``items_per_s`` are scaled to a nominal machine speed that a
reference loop measures around every cycle of items (see ``worker.py``);
``setup_s`` and ``peak_rss_mb`` are raw.  The workloads, their items and
the checks made inside each item are in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import PREDICTED, REPEATED_COUNTS

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
SPANS_DIR = ".perfbench_spans"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child(root: Path, env: dict, args: list[str]) -> dict:
    """Run ``worker.py`` to completion; return the JSON of its last line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json in {root}: {exc}")
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(whys)}")
    src = root / "src"
    if not (src / "machmin" / "__init__.py").is_file():
        return fail(f"no machmin package under {src}; run from a checkout's root")

    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    load_before = os.getloadavg()
    try:
        setups = [child(root, env, [*common, "--setup-only"])["setup_s"] for _ in range(SETUP_REPEATS)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = root / SPANS_DIR / f"{args.workload}-seed{args.seed}.tsv"
            spans.parent.mkdir(exist_ok=True)
            extra += ["--spans-out", str(spans)]
        result = child(root, env, [*common, *extra])
        if args.trace:
            # count-based claims need counts that repeat in a fresh process
            again = child(root, env, [*common, "--repeat"])["counts"]
            for index, (a, b) in enumerate(zip(result["counts"], again)):
                if a != b:
                    result["failed"] += 1
                    result["failures"].append(
                        f"counts {REPEATED_COUNTS} differ on item {index}: {a} vs {b}")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(str(exc))
    load_after = os.getloadavg()
    if Path(result["machmin"]).resolve().parent.parent != src.resolve():
        return fail(f"imported machmin from {result['machmin']}, not from {src}")

    print(f"workload: {args.workload} (seed {args.seed}): {whys[args.workload]}")
    print(
        f"environment: python {result['python']}, numpy {result['numpy']}, "
        f"scipy {result['scipy']}, nproc {os.cpu_count()}, "
        f"threads pinned to 1 ({', '.join(THREAD_VARS)}), "
        f"load average {load_before[0]:.2f} before, {load_after[0]:.2f} after"
    )
    attempted, failed = result["items"], result["failed"]
    print(f"items: {attempted} attempted, {failed} failed, failed_frac {failed / attempted:.4f}")
    for message in result["failures"]:
        print(f"  FAILED {message}")

    if args.trace:
        layers = result["layers"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        print(f"per-layer metrics over the first {attempted // 2} items, run untraced and "
              f"traced ({result['spans']} spans, written to {SPANS_DIR}/):")
        for name, metric in metrics.items():
            note = PREDICTED.get(name, "")
            print(f"  {name:34s} {metric['value']:14.3f} {metric['unit']:6s} {note}")
        overhead = layers["trace.untraced_items_per_s"] / layers["trace.traced_items_per_s"] - 1
        print(f"tracing overhead: {overhead:.1%} (items_per_s untraced vs traced)")
    else:
        values = {
            "items_per_s": result["items_per_s"],
            "item_ms_p50": result["item_ms_p50"],
            "item_ms_p90": result["item_ms_p90"],
            "ratio_mean": result["ratio_mean"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median([*setups, result["setup_s"]]),
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }
        print(f"end-to-end metrics over {attempted} items in {result['cycles']} cycles "
              f"(items_per_s of the median cycle; ratios over the first {result['guard']} "
              f"items; setup_s median of {len(setups) + 1} set-ups):")
        for name, metric in metrics.items():
            print(f"  {name:12s} {metric['value']:12.4f} {metric['unit']}")
        print(f"  {'ratio_max':12s} {result['ratio_max']:12.4f} ratio")
        print(f"  {'failed_frac':12s} {failed / attempted:12.4f} share")

    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
