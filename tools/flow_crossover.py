"""Time both max-flow kernels, each forced, on random networks binned by job
arcs, and print the table behind ``optimum.PYTHON_FLOW_ARCS``.

    python3 tools/flow_crossover.py

Run it from anywhere in a checkout: it imports machmin from the checkout's
``src``.  The networks are ``FlowNetwork``s of ``gen_random`` instances
drawn at fixed seeds over every profile, n in [2, 110] and windows of up
to 40 slots, kept until each 64-arc bin up to ``TOP`` job arcs holds
``PER_BIN`` of them.  Each network is solved at its preemptive optimum and
one machine below it, the feasible and the failing solve that every
search for the optimum makes (only the first when the optimum is 1); per
network and kernel the time is the median of ``ROUNDS`` timings of
``SOLVES`` rounds of those solves, the kernels alternating which goes
first.  A row gives the median over its networks, per solve, with
``capacities`` and, for scipy, its sparse set-up included, and the median
over its networks of the Python/scipy time ratio.  The absolute times move
with the machine's speed between runs; the two kernels of a ratio are timed
in turn on one network, so the ratio does not.  The last line names the
largest bin bound up to which the ratio is below 1 in every bin.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from machmin import optimum  # noqa: E402
from machmin.adversary import PROFILES, gen_random  # noqa: E402

SEED = 7
WIDTH = 64
TOP = 1024
PER_BIN = 24
ROUNDS = 7
SOLVES = 5
KERNELS = {"python": TOP, "scipy": 0}  # the PYTHON_FLOW_ARCS that forces each


def networks() -> dict[int, list[tuple[optimum.FlowNetwork, list[int]]]]:
    """``PER_BIN`` (network, machine counts) pairs per bin, keyed by the
    bin's upper bound of job arcs."""
    rng = random.Random(SEED)
    bins: dict[int, list] = {top: [] for top in range(WIDTH, TOP + 1, WIDTH)}
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
            held.append((network, [m, m - 1] if m > 1 else [m]))
    return bins


def per_solve_ms(network: optimum.FlowNetwork, counts: list[int], cutoff: int) -> float:
    optimum.PYTHON_FLOW_ARCS = cutoff
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(SOLVES):
            for m in counts:
                network.solve(m)
        times.append((time.perf_counter() - start) / (SOLVES * len(counts)))
    return 1000 * statistics.median(times)


def main() -> None:
    saved = optimum.PYTHON_FLOW_ARCS
    print(f"{'job arcs':>10} {'networks':>8} {'python ms':>10} {'scipy ms':>9} {'ratio':>6}")
    cutoff = None
    try:
        for top, held in networks().items():
            ms: dict[str, list[float]] = {name: [] for name in KERNELS}
            for i, (network, counts) in enumerate(held):
                order = list(KERNELS) if i % 2 == 0 else list(KERNELS)[::-1]
                for name in order:
                    ms[name].append(per_solve_ms(network, counts, KERNELS[name]))
            python, scipy = (statistics.median(ms[name]) for name in KERNELS)
            ratio = statistics.median(p / s for p, s in zip(ms["python"], ms["scipy"]))
            print(
                f"{top - WIDTH + 1:>4}-{top:<5} {len(held):>8} {python:>10.3f} "
                f"{scipy:>9.3f} {ratio:>6.2f}"
            )
            if ratio >= 1 and cutoff is None:
                cutoff = top - WIDTH
    finally:
        optimum.PYTHON_FLOW_ARCS = saved
    print(
        f"python/scipy is below 1 in every bin up to "
        f"{TOP if cutoff is None else cutoff} job arcs"
    )


if __name__ == "__main__":
    main()
