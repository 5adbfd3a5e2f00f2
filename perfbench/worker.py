"""One measured process: imports machmin, warms up, runs one workload.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Prints one JSON object as its last line.  ``--setup-only`` stops after the
warm-up, so the parent can time set-up several times.
"""

import time

_STARTED = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import json
import resource
import statistics
import sys
import traceback

# A run goes on, in whole cycles, until this many items are done and its
# time is up, so that at least 10 item times lie beyond the 90th percentile.
MIN_ITEMS = 100
MAX_REPORTED_FAILURES = 5
# On a shared 2-core cloud VM, CPU speed drifted by up to 40% within
# seconds.  So every cycle is bracketed by a fixed pure-Python reference loop
# and its times are scaled to a nominal machine on which that loop takes
# ``REFERENCE_MS`` (about what that VM takes with Python 3.11).  A change to
# machmin leaves the loop alone and so shows in full.
REFERENCE_MS = 20.0
REFERENCE_ROUNDS = 50_000


def reference_seconds() -> float:
    start = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_ROUNDS):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        total += (i * i) % 13
    return time.perf_counter() - start


def guard_size(cycle: int) -> int:
    """Items in the first whole cycles holding ``MIN_ITEMS``: the item set
    every run completes.  The ratios and the traced run use exactly it."""
    return -(-MIN_ITEMS // cycle) * cycle


def run_items(workload, seed, *, count=None, deadline=None, tracer=None, offset=0):
    """Run items 0, 1, ... in whole cycles, up to ``count`` items or until
    ``deadline`` has passed with ``MIN_ITEMS`` done.  A failed item is
    recorded and never aborts the run.  Returns (per-item seconds, worst
    ratio per item, failure messages, per-cycle seconds), all times scaled
    to the nominal machine."""
    from workloads import CheckFailed

    times, ratios, failures, cycles = [], [], [], []
    index = 0
    while True:
        before = reference_seconds()
        first = len(times)
        start = time.perf_counter()
        for index in range(index, index + workload.cycle):
            spec = workload.make(seed, index)
            if tracer is not None:
                tracer.item = offset + index
            t0 = time.perf_counter()
            ratio = None
            try:
                ratio = workload.run(spec)
            except CheckFailed as exc:
                failures.append(f"item {index}: {exc}")
            except Exception:
                failures.append(f"item {index}: {traceback.format_exc(limit=4)}")
            times.append(time.perf_counter() - t0)
            ratios.append(ratio)
        wall = time.perf_counter() - start
        scale = REFERENCE_MS / 1000.0 / ((before + reference_seconds()) / 2)
        times[first:] = [t * scale for t in times[first:]]
        cycles.append(wall * scale)
        index += 1
        if count is not None and index >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline and index >= MIN_ITEMS:
            break
    return times, ratios, failures, cycles


def items_per_s(workload, cycles: list[float]) -> float:
    """Throughput of the median cycle: every cycle has the same mix, so the
    median discounts cycles slowed by other load on the machine."""
    return workload.cycle / statistics.median(cycles)


def end_to_end(workload, seed: int, seconds: float) -> dict:
    times, ratios, failures, cycles = run_items(
        workload, seed, deadline=time.perf_counter() + seconds
    )
    ms = [t * 1000.0 for t in times]
    guarded = [float(r) for r in ratios[: guard_size(workload.cycle)] if r is not None]
    return {
        "items": len(times),
        "cycles": len(cycles),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "items_per_s": items_per_s(workload, cycles),
        "item_ms_p50": statistics.median(ms),
        "item_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "ratio_max": max(guarded, default=None),
        "ratio_mean": statistics.fmean(guarded) if guarded else None,
        "guard": guard_size(workload.cycle),
    }


def per_layer(workload, seed: int, spans_out: str | None) -> dict:
    """An untraced and a traced pass over the guard set.  Besides the layer
    metrics, returns the counts of the first cycle's items, which a second
    process must repeat exactly, and fails the run when a declared boundary
    saw no span or when ``long_sim`` reached the flow oracle."""
    from tracer import LAYER_METRICS

    guard = guard_size(workload.cycle)
    plain = run_items(workload, seed, count=guard)
    traced, per_item, spans = traced_items(workload, seed, guard, spans_out)
    problems = plain[2] + traced[2]
    seen = set().union(*(values["spans"] for values in per_item.values()))
    problems += [f"boundary {s} recorded no span" for s in workload.spans if s not in seen]
    layers = {name: sum(v[name] for v in per_item.values()) for name in LAYER_METRICS}
    if workload.name == "long_sim" and layers["optimum.flow_solves"] != 0:
        problems.append(f"long_sim made {layers['optimum.flow_solves']} flow solves")
    layers["trace.untraced_items_per_s"] = items_per_s(workload, plain[3])
    layers["trace.traced_items_per_s"] = items_per_s(workload, traced[3])
    return {
        "items": 2 * guard,
        "failed": len(problems),
        "failures": problems[:MAX_REPORTED_FAILURES],
        "layers": layers,
        "spans": spans,
        "counts": repeated_counts(per_item, workload.cycle),
    }


def traced_items(workload, seed: int, count: int, spans_out: str | None = None):
    """Run the first ``count`` items traced.  Returns the ``run_items``
    result, per-item layer metrics and the number of spans."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        result = run_items(workload, seed, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    if spans_out:
        tracer.write(spans_out)
    return result, tracer.per_item(), len(tracer.spans)


def repeated_counts(per_item: dict, cycle: int) -> list[list[int]]:
    from tracer import REPEATED_COUNTS

    empty = dict.fromkeys(REPEATED_COUNTS, 0)
    return [[per_item.get(i, empty)[name] for name in REPEATED_COUNTS] for i in range(cycle)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--repeat", action="store_true",
                        help="trace only the first cycle and report its counts")
    args = parser.parse_args()

    import numpy
    import scipy
    import machmin
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workloads.warm_up()
    result = {
        "setup_s": time.perf_counter() - _STARTED,
        "machmin": machmin.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if args.repeat:
        traced, per_item, _ = traced_items(workload, args.seed, workload.cycle)
        result["counts"] = repeated_counts(per_item, workload.cycle)
    elif not args.setup_only:
        if args.trace:
            result.update(per_layer(workload, args.seed, args.spans_out))
        else:
            result.update(end_to_end(workload, args.seed, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
