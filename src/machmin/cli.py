"""The machmin command line.

Subcommands: gen, run, opt, verify, bench, adversary, transform.
Exit codes: 0 ok, 1 miss/infeasible, 2 usage/input error, 3 oracle cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .adversary import (
    GeneratorError,
    gen_deadline_ordered_family,
    gen_llf_lower_bound,
    gen_random,
    play_eight_sevenths,
)
from .engine import EDF, LLF
from .harness import (
    POLICIES,
    CampaignConfig,
    bench,
    report_constants,
    rows_to_csv,
    rows_to_jsonl,
    run_policy,
    verify,
)
from .logn import LaxityTransformSpec, TransformKind, required_scale, transform
from .model import (
    ParseError,
    parse_instance,
    scale_instance,
    serialize_instance,
    serialize_trace,
)
from .optimum import (
    EnumerationCapExceeded,
    optimum_nonpreemptive_exact,
    optimum_preemptive,
    strong_density_exact,
)

EXIT_OK = 0
EXIT_MISS = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# The policies that ``adversary --policy`` plays against, by name.
_ADVERSARY_POLICIES = {"edf": EDF, "llf": LLF}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _read_instance(path: str):
    return parse_instance(Path(path).read_text())


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="machmin",
        description="Online machine minimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instances")
    gen.add_argument("--family", required=True, choices=["llf-lb", "dord", "random"])
    gen.add_argument("--m", type=int, help="machine parameter (llf-lb, dord)")
    gen.add_argument("--c", type=int, help="growth parameter (llf-lb)")
    gen.add_argument("--k", type=int, help="round count (llf-lb) / index (dord)")
    gen.add_argument("--n", type=int, help="job count (dord, random)")
    gen.add_argument("--profile", help="random profile")
    gen.add_argument("--p", type=int, default=3, help="processing time (equal-p)")
    gen.add_argument("--alpha", type=_fraction, default=Fraction(1, 2))
    gen.add_argument("--horizon", type=int)
    gen.add_argument("--max-len", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--out")

    run = sub.add_parser("run", help="simulate a policy on an instance")
    run.add_argument("--policy", required=True, choices=list(POLICIES))
    run.add_argument("--machines", type=int, help="machine budget, where needed")
    run.add_argument("--m", type=int, help="the optimum, where needed")
    run.add_argument("--alpha", type=_fraction)
    run.add_argument("--online", action="store_true")
    run.add_argument("instance")

    opt = sub.add_parser("opt", help="exact optima and strong density")
    mode = opt.add_mutually_exclusive_group()
    mode.add_argument("--preemptive", action="store_true")
    mode.add_argument("--nonpreemptive", action="store_true")
    mode.add_argument("--strong-density", action="store_true")
    opt.add_argument("instance")

    ver = sub.add_parser("verify", help="validate a trace against an instance")
    ver.add_argument("--kind", choices=["preemptive", "nonpreemptive"])
    ver.add_argument("instance")
    ver.add_argument("trace")

    ben = sub.add_parser("bench", help="run a seeded campaign")
    ben.add_argument("--profile", required=True)
    ben.add_argument("--n", type=int, default=8)
    ben.add_argument("--count", type=int, default=20)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument(
        "--policy",
        action="append",
        required=True,
        help="policy spec, e.g. edf@3 or agreeable-p (repeatable)",
    )
    ben.add_argument("--oracle", choices=["preemptive", "nonpreemptive"],
                     default="preemptive")
    ben.add_argument("--p", type=int, default=3)
    ben.add_argument("--alpha", type=_fraction, default=Fraction(1, 2))
    ben.add_argument("--horizon", type=int)
    ben.add_argument("--max-len", type=int)
    ben.add_argument("--online", action="store_true")
    ben.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    ben.add_argument("--timing", action="store_true")
    ben.add_argument("--constants", action="store_true",
                     help="print the measured log-n constant to stderr")
    ben.add_argument("-o", "--out")

    adv = sub.add_parser("adversary", help="play the adaptive equal-p game")
    adv.add_argument("--policy", required=True, choices=_ADVERSARY_POLICIES)
    adv.add_argument("--m", type=int, required=True)
    adv.add_argument("--c", type=_fraction, default=Fraction(9, 8))

    tra = sub.add_parser("transform", help="window/laxity transforms")
    tra.add_argument(
        "--kind",
        required=True,
        choices=[k.value for k in TransformKind],
    )
    tra.add_argument("--param", required=True, type=_fraction)
    tra.add_argument("--auto-scale", action="store_true",
                     help="pre-scale the instance so the transform is integral")
    tra.add_argument("instance")
    tra.add_argument("-o", "--out")

    return parser


def _cmd_gen(args) -> int:
    if args.family == "llf-lb":
        if args.m is None or args.c is None or args.k is None:
            print("gen --family llf-lb needs --m, --c, --k", file=sys.stderr)
            return EXIT_USAGE
        instance = gen_llf_lower_bound(args.m, args.c, args.k)
    elif args.family == "dord":
        if args.m is None or args.n is None or args.k is None:
            print("gen --family dord needs --m, --n, --k", file=sys.stderr)
            return EXIT_USAGE
        family = gen_deadline_ordered_family(args.m, args.n)
        if not 1 <= args.k <= len(family):
            print(
                f"--k must lie in 1..{len(family)} for m={args.m}, n={args.n}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        instance = family[args.k - 1]
    else:
        if args.profile is None or args.n is None:
            print("gen --family random needs --profile and --n", file=sys.stderr)
            return EXIT_USAGE
        instance = gen_random(
            args.profile,
            args.n,
            args.seed,
            p=args.p,
            alpha=args.alpha,
            horizon=args.horizon,
            max_len=args.max_len,
        ).instance
    _emit(serialize_instance(instance), args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    instance = _read_instance(args.instance)
    run = run_policy(
        args.policy,
        instance,
        m=args.m,
        machines=args.machines,
        alpha=args.alpha,
        online=args.online,
    )
    if run.starts is not None:
        trace = serialize_trace(run.to_nonpreemptive_schedule())
    else:
        trace = serialize_trace(run.to_preemptive_schedule())
    sys.stdout.write(trace)
    status = "no miss" if run.first_miss is None else f"first miss {run.first_miss}"
    print(
        f"{run.policy_name}: {status}, machines_used={run.machines_used}",
        file=sys.stderr,
    )
    return EXIT_OK if run.first_miss is None else EXIT_MISS


def _cmd_opt(args) -> int:
    instance = _read_instance(args.instance)
    if args.nonpreemptive:
        print(optimum_nonpreemptive_exact(instance))
    elif args.strong_density:
        print(strong_density_exact(instance))
    else:
        print(optimum_preemptive(instance))
    return EXIT_OK


def _cmd_verify(args) -> int:
    code, report = verify(
        Path(args.instance).read_text(),
        Path(args.trace).read_text(),
        kind=args.kind,
    )
    print(report)
    return code


def _cmd_bench(args) -> int:
    config = CampaignConfig(
        profile=args.profile,
        n=args.n,
        count=args.count,
        seed0=args.seed,
        policies=tuple(args.policy),
        oracle=args.oracle,
        alpha=args.alpha,
        p=args.p,
        horizon=args.horizon,
        max_len=args.max_len,
        online=args.online,
    )
    rows = bench(config)
    if args.format == "csv":
        text = rows_to_csv(rows, timing=args.timing)
    else:
        text = rows_to_jsonl(rows, timing=args.timing)
    _emit(text, args.out)
    if args.constants:
        print(report_constants(rows), file=sys.stderr)
    skipped = any(r.status == "oracle-skipped" for r in rows)
    return EXIT_CAP if skipped else EXIT_OK


def _cmd_adversary(args) -> int:
    outcome = play_eight_sevenths(_ADVERSARY_POLICIES[args.policy], args.m, args.c)
    print(
        f"policy={args.policy} budget={outcome.budget} "
        f"(floor of c*m, c={outcome.c}) phases={outcome.phases_played}/"
        f"{outcome.phase_limit}"
    )
    for phase in outcome.phases:
        print(
            f"  phase t={phase.t}: residue_before={phase.residue_before} "
            f"trapped={'yes' if phase.trapped else 'no'}"
        )
    if outcome.forced_miss:
        job, t = outcome.miss
        print(f"forced miss: job {job} at t={t}")
        return EXIT_MISS
    print("no miss forced within the phase limit")
    return EXIT_OK


def _cmd_transform(args) -> int:
    spec = LaxityTransformSpec(TransformKind(args.kind), args.param)
    instance = _read_instance(args.instance)
    if args.auto_scale:
        instance = scale_instance(instance, required_scale(spec))
    _emit(serialize_instance(transform(instance, spec)), args.out)
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "opt": _cmd_opt,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "adversary": _cmd_adversary,
    "transform": _cmd_transform,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except EnumerationCapExceeded as exc:
        print(f"oracle cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ParseError, GeneratorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
