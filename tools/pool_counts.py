"""Count logn's pool solves and the running flow's augmenting phases: per
100 benchmark items, and in one logn run at n = 1000.

    PYTHONPATH=src python3 tools/pool_counts.py [--seed 7] [--items 100]

Run it from the root of a checkout: it imports machmin from the path and
the benchmark's items from ``perfbench/workloads.py``.  It counts two
things, neither of which depends on the machine:

- ``pool_adds``: ``RunningOptimum.add`` calls on a ``LogNPolicy``'s pool;
- ``phases``: augmenting phases of every running flow, one per blocking
  flow (``RunningOptimum._blocking_flow``).

It runs items 0 to ``--items`` - 1 of ``online_prefix`` and
``offline_campaign`` at ``--seed``, then logn on ``gen_random("general",
1000, 0)`` at its optimum, and prints one JSON object.  The process time
of that run is the one machine-dependent number here.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import weakref
from pathlib import Path

from machmin import adversary, logn, optimum


class Counts:
    """The two counts, kept by wrapping the methods that make them."""

    def __init__(self) -> None:
        self.pool_adds = self.phases = 0
        self._pools: weakref.WeakSet = weakref.WeakSet()  # every LogNPolicy's pool
        init = logn.LogNPolicy.__init__
        add = optimum.RunningOptimum.add
        blocking = optimum.RunningOptimum._blocking_flow

        def tracking_init(policy, *args, **kwargs):
            init(policy, *args, **kwargs)
            self._pools.add(policy._pool)

        def counting_add(running, *args, **kwargs):
            self.pool_adds += running in self._pools
            return add(running, *args, **kwargs)

        def counting_blocking(running, *args, **kwargs):
            self.phases += 1
            return blocking(running, *args, **kwargs)

        logn.LogNPolicy.__init__ = tracking_init
        optimum.RunningOptimum.add = counting_add
        optimum.RunningOptimum._blocking_flow = counting_blocking

    def measure(self, run) -> tuple[dict, object]:
        """The counts and process seconds of ``run()``, and its result."""
        self.pool_adds = self.phases = 0
        start = time.process_time()
        result = run()
        seconds = round(time.process_time() - start, 3)
        return {"pool_adds": self.pool_adds, "phases": self.phases, "process_s": seconds}, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--items", type=int, default=100)
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "perfbench"))
    import workloads

    counts = Counts()
    out: dict = {"seed": args.seed, "items": args.items}
    for name in ("online_prefix", "offline_campaign"):
        workload = workloads.WORKLOADS[name]

        def items(workload=workload):
            for index in range(args.items):
                workload.run(workload.make(args.seed, index))

        out[name], _ = counts.measure(items)
    generated = adversary.gen_random("general", 1000, 0)
    large, run = counts.measure(
        lambda: logn.logn_schedule(generated.instance, generated.m_opt)
    )
    out["logn_general_1000"] = {**large, "machines_used": run.machines_used}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
