"""Time the decision ``optimum.PYTHON_FLOW_ARCS`` makes, the running flow or
scipy, each side forced, on random job sets binned by job arcs, and print
one table.

    python3 tools/flow_crossover.py

Run it from anywhere in a checkout: it imports machmin from the checkout's
``src``.  The job sets are ``gen_random`` instances drawn at fixed seeds
over every profile, n in [2, 110] and windows of up to 40 slots whose load
bound is below n, so that ``min_machines(jobs, 1)`` reaches the decision.
They are kept until each 64-arc bin up to ``TOP`` job arcs of their
``FlowNetwork``s holds ``PER_BIN`` of them.

The cutoff decides two things, timed side by side on each job set.  A
solve is ``FlowNetwork.solve`` at the set's preemptive optimum and one
machine below it, the feasible and the failing solve that a search for the
optimum makes (only the first when the optimum is 1): with the cutoff at
``TOP`` a fresh ``RunningOptimum`` at that count, with it at 0 scipy, its
sparse set-up and the residual's reached segments included (the network's
CSR layout, made at its first scipy solve, is made before the timing).  An
optimum is one ``min_machines(jobs, 1)`` call: with the cutoff at ``TOP``
the set is admitted into a fresh ``RunningOptimum``, with it at 0 it gets a
network that scipy solves and a climb by min cuts, which is what a set past
the cutoff gets, network build included.

Per job set, side and column the time is the median of ``ROUNDS`` timings
of ``SOLVES`` rounds, the two sides alternating which goes first.  A row
gives, for each column, the median over its job sets of each side's time
and of the time ratio, running over scipy.  The absolute times move with
the machine's speed between runs; the two sides of a ratio are timed in
turn on one set, so the ratio does not.  The last line names the largest
bin bound up to which both ratios are below 1 in every bin.
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
# the PYTHON_FLOW_ARCS that forces each side
SIDES = {"running": TOP, "scipy": 0}

Held = tuple[Instance, optimum.FlowNetwork, list[int]]


def reaches_the_decision(instance: Instance) -> bool:
    """Whether ``min_machines(jobs, 1)`` passes its n and load-bound exits."""
    span = instance.d_max - min(j.release for j in instance.jobs)
    return -(-instance.total_work // span) < instance.n


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
        if not reaches_the_decision(generated.instance):
            continue
        network = optimum.FlowNetwork.build(generated.instance)
        held = bins.get(-(-network.arcs // WIDTH) * WIDTH)
        if held is not None and len(held) < PER_BIN:
            m = generated.m_opt
            held.append((generated.instance, network, [m, m - 1] if m > 1 else [m]))
    return bins


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
    network.csr  # made once per network, at its first scipy solve
    return (lambda: [network.solve(m) for m in counts]), len(counts)


def optima(held: Held) -> tuple[Callable[[], object], int]:
    jobs = held[0].jobs
    return (lambda: optimum.min_machines(jobs, 1)), 1


COLUMNS = {"solve": solves, "optimum": optima}


def main() -> None:
    saved = optimum.PYTHON_FLOW_ARCS
    bins = job_sets()
    print("running flow against scipy: ms per solve and per optimum")
    header = "".join(
        f" {column + ' running':>16} {column + ' scipy':>14} {'ratio':>6}" for column in COLUMNS
    )
    print(f"{'job arcs':>10} {'sets':>5}{header}")
    cutoff = None
    try:
        for top, held in bins.items():
            row = f"{top - WIDTH + 1:>4}-{top:<5} {len(held):>5}"
            worst = 0.0
            for timed in COLUMNS.values():
                ms: dict[str, list[float]] = {name: [] for name in SIDES}
                for i, one in enumerate(held):
                    call, calls = timed(one)
                    for name in list(SIDES) if i % 2 == 0 else list(SIDES)[::-1]:
                        ms[name].append(per_call_ms(call, calls, SIDES[name]))
                running, scipy = (statistics.median(ms[name]) for name in SIDES)
                ratio = statistics.median(x / y for x, y in zip(ms["running"], ms["scipy"]))
                worst = max(worst, ratio)
                row += f" {running:>16.3f} {scipy:>14.3f} {ratio:>6.2f}"
            print(row, flush=True)
            if worst >= 1 and cutoff is None:
                cutoff = top - WIDTH
    finally:
        optimum.PYTHON_FLOW_ARCS = saved
    print(
        f"running/scipy is below 1 in both columns in every bin up to "
        f"{TOP if cutoff is None else cutoff} job arcs"
    )


if __name__ == "__main__":
    main()
