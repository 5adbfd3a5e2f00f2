"""Time the two decisions ``optimum.PYTHON_FLOW_ARCS`` makes, each side
forced, on random job sets binned by job arcs, and print their tables.

    python3 tools/flow_crossover.py

Run it from anywhere in a checkout: it imports machmin from the checkout's
``src``.  The job sets are ``gen_random`` instances drawn at fixed seeds
over every profile, n in [2, 110] and windows of up to 40 slots, kept
until each 64-arc bin up to ``TOP`` job arcs of their ``FlowNetwork``s
holds ``PER_BIN`` of them.

The kernel table solves each network at its preemptive optimum and one
machine below it, the feasible and the failing solve that a search for the
optimum makes (only the first when the optimum is 1), on ``_dinic`` in
Python and on scipy.  A row gives the median over its networks, per solve,
with ``capacities`` and, for scipy, its sparse set-up included.

The route table calls ``min_machines(jobs, 1)`` on each job set whose load
bound is below n, so that the call reaches the route: with the cutoff at
``TOP`` every set is admitted into a fresh ``RunningOptimum``, with it at 0
every set gets a network that scipy solves and a climb by min cuts, which
is what a set past the cutoff gets.  A row gives the median over its job
sets, per call, network build included.

Per network (or job set) and side the time is the median of ``ROUNDS``
timings of ``SOLVES`` rounds, the two sides alternating which goes first;
each row also gives the median over its networks of the time ratio, Python
(or running) over scipy (or network).  The absolute times move with the
machine's speed between runs; the two sides of a ratio are timed in turn on
one network, so the ratio does not.  Each table's last line names the
largest bin bound up to which the ratio is below 1 in every bin.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from machmin import optimum  # noqa: E402
from machmin.adversary import PROFILES, gen_random  # noqa: E402
from machmin.model import Instance  # noqa: E402

SEED = 7
WIDTH = 64
TOP = 1024
PER_BIN = 24
ROUNDS = 7
SOLVES = 5
# the PYTHON_FLOW_ARCS that forces each side of a decision: Python or scipy
# for a network's solve, a running optimum or a network for min_machines
SIDES = {"python": TOP, "scipy": 0}
ROUTES = {"running": TOP, "network": 0}

Held = tuple[Instance, optimum.FlowNetwork, list[int]]


def job_sets() -> dict[int, list[Held]]:
    """``PER_BIN`` (instance, network, machine counts) triples per bin,
    keyed by the bin's upper bound of job arcs."""
    rng = random.Random(SEED)
    bins: dict[int, list[Held]] = {top: [] for top in range(WIDTH, TOP + 1, WIDTH)}
    for attempt in range(100 * PER_BIN * len(bins)):
        if all(len(held) == PER_BIN for held in bins.values()):
            break
        n = rng.randint(2, 110)
        generated = gen_random(
            rng.choice(PROFILES), n, attempt, horizon=rng.randint(n // 2 + 1, 2 * n),
            max_len=rng.randint(2, 40),
        )
        network = optimum.FlowNetwork.build(generated.instance)
        held = bins.get(-(-network.arcs // WIDTH) * WIDTH)
        if held is not None and len(held) < PER_BIN:
            m = generated.m_opt
            held.append((generated.instance, network, [m, m - 1] if m > 1 else [m]))
    return bins


def reaches_the_route(instance: Instance) -> bool:
    """Whether ``min_machines(jobs, 1)`` passes its n and load-bound exits."""
    span = instance.d_max - min(j.release for j in instance.jobs)
    return -(-instance.total_work // span) < instance.n


def per_call_ms(call: Callable[[], object], calls: int, cutoff: int) -> float:
    optimum.PYTHON_FLOW_ARCS = cutoff
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(SOLVES):
            call()
        times.append((time.perf_counter() - start) / (SOLVES * calls))
    return 1000 * statistics.median(times)


def solves(held: Held) -> tuple[Callable[[], object], int]:
    _, network, counts = held
    return (lambda: [network.solve(m) for m in counts]), len(counts)


def searches(held: Held) -> tuple[Callable[[], object], int]:
    jobs = held[0].jobs
    return (lambda: optimum.min_machines(jobs, 1)), 1


def table(
    title: str,
    bins: dict[int, list[Held]],
    sides: dict[str, int],
    timed: Callable[[Held], tuple[Callable[[], object], int]],
) -> None:
    """Print one row per bin: its size, each side's median ms per call and
    the median ratio of the first side over the second."""
    first, second = sides
    print(title)
    print(f"{'job arcs':>10} {'sets':>5} {first + ' ms':>11} {second + ' ms':>11} {'ratio':>6}")
    cutoff = None
    for top, held in bins.items():
        ms: dict[str, list[float]] = {name: [] for name in sides}
        for i, one in enumerate(held):
            call, calls = timed(one)
            for name in list(sides) if i % 2 == 0 else list(sides)[::-1]:
                ms[name].append(per_call_ms(call, calls, sides[name]))
        a, b = (statistics.median(ms[name]) for name in sides)
        ratio = statistics.median(x / y for x, y in zip(ms[first], ms[second]))
        print(f"{top - WIDTH + 1:>4}-{top:<5} {len(held):>5} {a:>11.3f} {b:>11.3f} {ratio:>6.2f}")
        if ratio >= 1 and cutoff is None:
            cutoff = top - WIDTH
    print(
        f"{first}/{second} is below 1 in every bin up to "
        f"{TOP if cutoff is None else cutoff} job arcs\n"
    )


def main() -> None:
    saved = optimum.PYTHON_FLOW_ARCS
    bins = job_sets()
    routed = {
        top: [one for one in held if reaches_the_route(one[0])]
        for top, held in bins.items()
    }
    try:
        table("max-flow kernels, per solve", bins, SIDES, solves)
        table("min_machines routes, per call", routed, ROUTES, searches)
    finally:
        optimum.PYTHON_FLOW_ARCS = saved


if __name__ == "__main__":
    main()
