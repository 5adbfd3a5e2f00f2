"""Every random profile's draws pinned, one line per draw.

Each line names (profile, n, seed, alpha, p, horizon, max_len) and gives a
digest of the serialized instance, or the generator's error.  alpha varies
only for the profiles that read it and p only for ``equal-p``; ``-`` in
the horizon and max_len columns means the generator's default.
``tests/data/profile_runs.txt`` was written from the per-profile draw
functions that the window shapes replaced; running this file as a script
rewrites it.
"""

import hashlib
from fractions import Fraction
from pathlib import Path

from machmin.adversary import PROFILES, GeneratorError, gen_random
from machmin.model import serialize_instance

PIN = Path(__file__).parent / "data" / "profile_runs.txt"
ALPHA_PROFILES = (
    "alpha-loose",
    "alpha-tight",
    "agreeable-loose",
    "agreeable-tight",
    "uniform-loose",
    "uniform-tight",
)
ALPHAS = (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))
EQUAL_PS = (1, 3)
SIZES = (1, 5, 13)
SEEDS = range(5)
BOXES = ((None, None), (1, 1), (3, 2), (20, 7))  # (horizon, max_len)


def _line(profile, n, seed, alpha, p, horizon, max_len) -> str:
    key = (
        f"{profile} {n} {seed} {alpha} {p} "
        f"{'-' if horizon is None else horizon} {'-' if max_len is None else max_len}"
    )
    try:
        generated = gen_random(
            profile, n, seed, horizon=horizon, max_len=max_len, p=p, alpha=alpha
        )
    except GeneratorError as exc:
        return f"{key} error: {exc}"
    text = serialize_instance(generated.instance)
    return f"{key} {hashlib.sha256(text.encode()).hexdigest()[:12]}"


def pinned_lines() -> list[str]:
    lines = []
    for profile in PROFILES:
        alphas = ALPHAS if profile in ALPHA_PROFILES else (Fraction(1, 2),)
        ps = EQUAL_PS if profile == "equal-p" else (3,)
        for n in SIZES:
            for seed in SEEDS:
                for alpha in alphas:
                    for p in ps:
                        for horizon, max_len in BOXES:
                            lines.append(
                                _line(profile, n, seed, alpha, p, horizon, max_len)
                            )
    return lines


def test_profile_draws_match_pin():
    expected = PIN.read_text().splitlines()
    actual = pinned_lines()
    assert len(actual) == len(expected)
    mismatched = [(a, e) for a, e in zip(actual, expected) if a != e]
    assert not mismatched, mismatched[:5]


if __name__ == "__main__":
    PIN.write_text("\n".join(pinned_lines()) + "\n")
