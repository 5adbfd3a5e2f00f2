"""Every composite run pinned, one line per run.

Each line names (policy, form, profile, n, seed, alpha) and gives the
run's machines_used, first miss and peak budget, and a digest of its
params, slots, misses, peak concurrency, starts, extras and instance; a
profile the composite does not serve gives the error instead.  The
policy's run name is left out.  ``tests/data/composite_runs.txt`` was
written from the hand-written composite functions; running this file as a
script rewrites it.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from machmin.adversary import gen_random
from machmin.harness import run_policy
from machmin.model import serialize_instance

PIN = Path(__file__).parent / "data" / "composite_runs.txt"
WITH_ALPHA = ("agreeable-p", "agreeable-np", "uniform-np")
WITHOUT_ALPHA = ("equalp-semi", "uniform-p")
PROFILES = ("agreeable", "uniform-d", "equal-p")
SIZES = (3, 6, 10)
SEEDS = range(8)
OTHER_ALPHA = Fraction(2, 5)


def _digest(run) -> str:
    payload = json.dumps(
        {
            "params": run.policy_params,
            "slots": [sorted(s) for s in run.slots],
            "misses": run.misses,
            "peak_concurrency": run.peak_concurrency,
            "starts": None if run.starts is None else sorted(run.starts.items()),
            "extras": run.extras,
            "instance": serialize_instance(run.instance),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _line(name, online, profile, n, seed, alpha) -> str:
    generated = gen_random(profile, n, seed)
    key = (
        f"{name} {'online' if online else 'semi'} {profile} {n} {seed} "
        f"{alpha or 'default'}"
    )
    try:
        run = run_policy(
            name, generated.instance, m=generated.m_opt, alpha=alpha, online=online
        )
    except ValueError as exc:
        return f"{key} error: {exc}"
    miss = "none" if run.first_miss is None else "{}@{}".format(*run.first_miss)
    return (
        f"{key} used={run.machines_used} miss={miss} peak={run.peak_budget} "
        f"{_digest(run)}"
    )


def pinned_lines() -> list[str]:
    lines = []
    for name in WITH_ALPHA + WITHOUT_ALPHA:
        alphas = (None, OTHER_ALPHA) if name in WITH_ALPHA else (None,)
        for online in (False, True):
            for profile in PROFILES:
                for n in SIZES:
                    for seed in SEEDS:
                        for alpha in alphas:
                            lines.append(_line(name, online, profile, n, seed, alpha))
    return lines


def test_composite_runs_match_pin():
    expected = PIN.read_text().splitlines()
    actual = pinned_lines()
    assert len(actual) == len(expected)
    mismatched = [(a, e) for a, e in zip(actual, expected) if a != e]
    assert not mismatched, mismatched[:5]


if __name__ == "__main__":
    PIN.write_text("\n".join(pinned_lines()) + "\n")
