"""Time single CLI runs in fresh processes and show which numeric libraries
each loaded.

    python3 tools/startup.py [SRC]

``SRC`` is the ``src`` directory of the checkout to time, by default this
checkout's; pass another checkout's to compare the two.  The instances are
``gen_random`` job sets at fixed seeds, of 40 jobs and of 8.  Each command
runs ``RUNS`` times, each in a fresh interpreter that calls
``machmin.cli.main`` and, once it returns, reports whether ``numpy`` or
``scipy`` is in ``sys.modules``.  A row gives the command's median wall
time, start-up of the interpreter included, its median peak RSS, and the
libraries it loaded.  The commands alternate round by round, so a drift in
the machine's speed reaches them all alike.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 9
SMALL = ["gen", "--family", "random", "--profile", "general", "--n", "8", "--seed", "3"]
LARGE = ["gen", "--family", "random", "--profile", "general", "--n", "40", "--seed", "3"]
# (label, argv, the file its stdout goes to); the runs read the files that
# the ones before them wrote
COMMANDS = [
    ("gen (40 jobs)", [*LARGE, "-o", "large.txt"], None),
    ("gen (8 jobs)", [*SMALL, "-o", "small.txt"], None),
    ("run --policy edf (40 jobs)", ["run", "--policy", "edf", "--machines", "12", "large.txt"],
     "trace.txt"),
    ("verify (40 jobs)", ["verify", "large.txt", "trace.txt"], None),
    ("opt --preemptive (8 jobs)", ["opt", "--preemptive", "small.txt"], None),
    ("opt --preemptive (40 jobs)", ["opt", "--preemptive", "large.txt"], None),
    ("opt --strong-density (40 jobs)", ["opt", "--strong-density", "large.txt"], None),
]
# runs one command, then writes its peak RSS in KiB and the numeric
# libraries loaded to stderr
WRAPPER = """
import resource, sys
from machmin.cli import main
code = main(sys.argv[1:])
loaded = ",".join(sorted({"numpy", "scipy"} & sys.modules.keys())) or "neither"
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, loaded, file=sys.stderr)
sys.exit(code)
"""


def run_once(src: Path, cwd: Path, argv: list[str], out: str | None) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and the libraries loaded of one run."""
    with open(cwd / out if out else os.devnull, "w") as stdout:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", WRAPPER, *argv],
            cwd=cwd,
            env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
        wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited with {proc.returncode}:\n{proc.stderr}")
    rss, loaded = proc.stderr.splitlines()[-1].split()
    return wall, int(rss) / 1024.0, loaded


def main() -> int:
    default = Path(__file__).resolve().parent.parent / "src"
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else default
    times: dict[str, list[float]] = {label: [] for label, _, _ in COMMANDS}
    peaks: dict[str, list[float]] = {label: [] for label in times}
    loaded: dict[str, set[str]] = {label: set() for label in times}
    with tempfile.TemporaryDirectory() as cwd:
        for _ in range(RUNS):
            for label, argv, out in COMMANDS:
                wall, rss, libraries = run_once(src, Path(cwd), argv, out)
                times[label].append(wall)
                peaks[label].append(rss)
                loaded[label].add(libraries)
    print(f"machmin from {src}; python {sys.version.split()[0]}, {RUNS} runs per command")
    print(f"{'command':<50} {'median s':>9} {'peak MB':>8}  loaded")
    for label in times:
        print(
            f"{label:<50} {statistics.median(times[label]):>9.3f} "
            f"{statistics.median(peaks[label]):>8.1f}  "
            f"{' / '.join(sorted(loaded[label]))}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
