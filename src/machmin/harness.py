"""Benchmark campaigns, competitive-ratio tables, and trace verification.

Ratios are exact fractions; the CSV carries them verbatim (e.g. ``9/2``)
next to a decimal convenience column.  Every measured row records its
run's wall time, but the emitters write the ``wall_ms`` column only when
asked to; without it, CSV and JSONL output is a pure function of the
campaign config and seeds, byte for byte.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .adversary import GeneratedInstance, gen_random
from .composite import COMPOSITES, equal_p_online
from .engine import EDF, LLF, EarlyFit, MediumFit, NonpreemptiveEDF, SimulationRun, simulate
from .logn import logn_schedule
from .model import (
    Instance,
    NonpreemptiveSchedule,
    PreemptiveSchedule,
    parse_instance,
    parse_trace,
    scale_instance,
    validate_nonpreemptive,
    validate_preemptive,
)
from .optimum import (
    EnumerationCapExceeded,
    ceil_frac,
    optimum_nonpreemptive_exact,
)

__all__ = [
    "BenchRow",
    "CampaignConfig",
    "POLICIES",
    "PolicySpec",
    "bench",
    "rows_to_csv",
    "rows_to_jsonl",
    "run_policy",
    "verify",
    "report_constants",
    "ConstantsReport",
]


@dataclass(frozen=True)
class PolicySpec:
    """What one named policy needs and how to run it.

    ``needs`` names the number the policy cannot run without: an explicit
    machine budget (``"machines"``), the optimum (``"m"``), or nothing.
    ``run(instance, number)`` runs the policy with that number;
    ``online(instance)``, where the policy has an online form, runs it
    without the optimum.  Where ``alpha`` is set, both also take ``alpha=``.
    """

    needs: str | None
    run: Callable[..., SimulationRun]
    online: Callable[..., SimulationRun] | None = None
    alpha: bool = False


def _mediumfit(instance: Instance) -> SimulationRun:
    scale = 2 if any(job.laxity % 2 for job in instance.jobs) else 1
    return simulate(instance, MediumFit(), scale)


# The lambdas name their targets at call time, so that a module global
# rebound after import (a wrapper, a stub) is what runs.  The composites are
# the rows of ``composite.COMPOSITES``.
POLICIES: dict[str, PolicySpec] = {
    "edf": PolicySpec("machines", lambda inst, k: simulate(inst, EDF(k))),
    "llf": PolicySpec("machines", lambda inst, k: simulate(inst, LLF(k))),
    "earlyfit": PolicySpec(None, lambda inst, _: simulate(inst, EarlyFit())),
    "mediumfit": PolicySpec(None, lambda inst, _: _mediumfit(inst)),
    "edf-np": PolicySpec(
        "machines", lambda inst, k: simulate(inst, NonpreemptiveEDF(k))
    ),
    **{
        name: PolicySpec("m", row.semi, row.online, alpha=row.semi_alpha is not None)
        for name, row in COMPOSITES.items()
    },
    "equalp-online": PolicySpec(
        None, lambda inst, _, **kw: equal_p_online(inst, **kw), alpha=True
    ),
    "logn": PolicySpec(
        "m", lambda inst, m, **kw: logn_schedule(inst, m, **kw), alpha=True
    ),
}


def _policy(name: str, online: bool) -> PolicySpec:
    """The named policy.  With ``online``, one that needs the optimum and
    has no online form is refused here, before any other check."""
    spec = POLICIES.get(name)
    if spec is None:
        raise ValueError(f"unknown policy {name!r}; known: {', '.join(POLICIES)}")
    if online and spec.needs == "m" and spec.online is None:
        raise ValueError(f"policy {name!r} has no online form; drop --online")
    return spec


def run_policy(
    name: str,
    instance: Instance,
    *,
    m: int | None = None,
    machines: int | None = None,
    alpha: Fraction | None = None,
    online: bool = False,
) -> SimulationRun:
    """Run one named policy.  Base policies take an explicit machine budget;
    composite ones derive their budgets from the optimum ``m`` (or go online
    without it, where they have an online form).  A number the run would
    not read is refused, as is a non-positive ``m`` or a negative
    ``machines``."""
    spec = _policy(name, online)
    if alpha is not None and not spec.alpha:
        raise ValueError(f"policy {name!r} takes no --alpha")
    if machines is not None and spec.needs != "machines":
        raise ValueError(f"policy {name!r} takes no --machines")
    if m is not None and spec.needs != "m":
        raise ValueError(f"policy {name!r} takes no --m")
    if m is not None and online:
        raise ValueError(f"policy {name!r} takes no --m with --online")
    if m is not None and m <= 0:
        raise ValueError(f"--m must be positive, got {m}")
    if machines is not None and machines < 0:
        raise ValueError(f"--machines must be non-negative, got {machines}")
    alpha_kw = {} if alpha is None else {"alpha": alpha}
    if online and spec.online is not None:
        return spec.online(instance, **alpha_kw)
    if spec.needs == "machines" and machines is None:
        raise ValueError(f"policy {name!r} needs an explicit --machines")
    if spec.needs == "m" and m is None:
        hint = " (or --online)" if spec.online is not None else ""
        raise ValueError(f"policy {name!r} needs the optimum via --m{hint}")
    return spec.run(instance, machines if spec.needs == "machines" else m, **alpha_kw)


# ---------------------------------------------------------------------------
# Campaigns.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class BenchRow:
    """One campaign row.  The field order is the CSV and JSONL column order;
    ``instance_id`` is written as the ``instance`` column."""

    instance_id: str
    profile: str
    n: int
    m_opt: int | None = None
    policy: str
    params: str = ""
    machines_used: int | None = None
    first_miss: str = ""  # "none" or "<job>@<t>" where measured
    ratio: str = ""  # exact fraction, empty when no oracle
    ratio_dec: str = ""
    status: str = "ok"  # or "oracle-skipped"
    wall_ms: float | None = None  # measured runs only


@dataclass(frozen=True)
class CampaignConfig:
    profile: str
    n: int
    count: int
    seed0: int
    policies: tuple[str, ...]
    oracle: str = "preemptive"  # or "nonpreemptive"
    alpha: Fraction = Fraction(1, 2)
    p: int = 3
    horizon: int | None = None
    max_len: int | None = None
    online: bool = False


def _parse_policy_spec(spec: str, online: bool) -> tuple[str, Fraction | None]:
    """A bench policy spec is a name, optionally with a budget factor:
    ``edf@3`` means EDF on ceil(3m) machines.  A spec that no run could
    take, ``online`` or not, raises ValueError."""
    name, at, factor = spec.partition("@")
    policy = _policy(name, online)
    needs_budget = policy.needs == "machines"
    if at and not needs_budget:
        raise ValueError(f"policy {name!r} takes no --machines")
    if not at and needs_budget:
        raise ValueError(f"policy {name!r} needs a budget factor, e.g. {name}@3")
    if not at:
        return name, None
    try:
        budget = Fraction(factor)
    except (ValueError, ZeroDivisionError):
        budget = Fraction(0)
    if budget <= 0:
        raise ValueError(f"budget factor in {spec!r} must be a positive rational")
    return name, budget


def _instance_m(config: CampaignConfig, generated: GeneratedInstance) -> int | None:
    if config.oracle == "preemptive":
        return generated.m_opt
    if config.oracle == "nonpreemptive":
        try:
            return optimum_nonpreemptive_exact(generated.instance)
        except EnumerationCapExceeded:
            return None
    raise ValueError(f"unknown oracle {config.oracle!r}")


def bench(config: CampaignConfig) -> list[BenchRow]:
    """One row per (instance, policy); summary rows carry the max ratio per
    policy.  Rows where the oracle cap was exceeded are marked, never
    dropped.  Every measured row carries its run's wall time.  A negative
    instance count raises ValueError."""
    if config.count < 0:
        raise ValueError(f"--count must be non-negative, got {config.count}")
    specs = [
        (spec, *_parse_policy_spec(spec, config.online)) for spec in config.policies
    ]
    rows: list[BenchRow] = []
    worst: dict[str, Fraction] = {}
    for seed in range(config.seed0, config.seed0 + config.count):
        generated = gen_random(
            config.profile,
            config.n,
            seed,
            p=config.p,
            alpha=config.alpha,
            horizon=config.horizon,
            max_len=config.max_len,
        )
        instance = generated.instance
        row = partial(
            BenchRow,
            instance_id=f"{config.profile}-{seed}",
            profile=config.profile,
            n=instance.n,
        )
        m = _instance_m(config, generated)
        for spec, name, factor in specs:
            if m is None:
                rows.append(row(policy=spec, status="oracle-skipped"))
                continue
            machines = ceil_frac(factor * m) if factor is not None else None
            reads_m = POLICIES[name].needs == "m" and not config.online
            start = time.perf_counter()
            run = run_policy(
                name, instance, m=m if reads_m else None, machines=machines,
                online=config.online,
            )
            wall = (time.perf_counter() - start) * 1000.0
            if run.first_miss is None:
                _revalidate(run)
            ratio = Fraction(run.machines_used, m)
            worst[spec] = max(worst.get(spec, Fraction(0)), ratio)
            miss = run.first_miss
            rows.append(
                row(
                    m_opt=m,
                    policy=spec,
                    params=";".join(f"{k}={v}" for k, v in run.policy_params),
                    machines_used=run.machines_used,
                    first_miss="none" if miss is None else f"{miss[0]}@{miss[1]}",
                    wall_ms=wall,
                    **_ratio_cells(ratio),
                )
            )
    rows.extend(
        BenchRow(
            instance_id="summary",
            profile=config.profile,
            n=config.n,
            policy=spec,
            params="max-ratio",
            **_ratio_cells(worst[spec]),
        )
        for spec in config.policies
        if spec in worst
    )
    rows.sort(key=lambda r: (r.instance_id == "summary", r.instance_id, r.policy))
    return rows


def _revalidate(run: SimulationRun) -> None:
    """A miss-free run must replay as a feasible schedule; anything else is
    a harness bug and must fail loudly."""
    if run.starts is not None:
        report = validate_nonpreemptive(run.instance, run.to_nonpreemptive_schedule())
    else:
        report = validate_preemptive(run.instance, run.to_preemptive_schedule())
    if not report.feasible:
        raise RuntimeError(
            f"harness bug: miss-free {run.policy_name} run fails validation: "
            f"{report.problems()[:3]}"
        )


def _ratio_cells(ratio: Fraction) -> dict[str, str]:
    return {"ratio": str(ratio), "ratio_dec": f"{float(ratio):.6g}"}


def _columns(timing: bool) -> dict[str, str]:
    """Column name -> BenchRow field, in field order; ``wall_ms`` only when
    timing is asked for."""
    return {
        "instance" if f.name == "instance_id" else f.name: f.name
        for f in fields(BenchRow)
        if timing or f.name != "wall_ms"
    }


def _cells(row: BenchRow, timing: bool) -> dict:
    return {column: getattr(row, name) for column, name in _columns(timing).items()}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def rows_to_csv(rows: Sequence[BenchRow], timing: bool = False) -> str:
    out = [",".join(_columns(timing))]
    out.extend(",".join(map(_csv_cell, _cells(row, timing).values())) for row in rows)
    return "\n".join(out) + "\n"


def rows_to_jsonl(rows: Sequence[BenchRow], timing: bool = False) -> str:
    out = [json.dumps(_cells(row, timing), sort_keys=True) for row in rows]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Trace verification.
# ---------------------------------------------------------------------------


def verify(
    instance_text: str, trace_text: str, kind: str | None = None
) -> tuple[int, str]:
    """Validate a trace file against an instance file.

    Returns (exit status, human-readable report); 0 iff feasible.  A ``kind``
    claim that contradicts the trace header is a usage error (status 2).
    """
    instance = parse_instance(instance_text)
    schedule = parse_trace(trace_text)
    instance = scale_instance(instance, schedule.scale)
    actual = (
        "preemptive" if isinstance(schedule, PreemptiveSchedule) else "nonpreemptive"
    )
    if kind is not None and kind != actual:
        return 2, f"trace is {actual}, but {kind} was claimed"
    if isinstance(schedule, PreemptiveSchedule):
        report = validate_preemptive(instance, schedule)
    else:
        report = validate_nonpreemptive(instance, schedule)
    lines = [
        f"kind: {actual}",
        f"feasible: {'yes' if report.feasible else 'no'}",
        f"machines_used: {report.machines_used}",
    ]
    lines.extend(report.problems())
    return (0 if report.feasible else 1), "\n".join(lines)


# ---------------------------------------------------------------------------
# Measured constants for the general scheduler.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    count: int
    max_c: float | None
    p95_c: float | None

    def __str__(self) -> str:
        if not self.count:
            return "no rows"
        return (
            f"rows: {self.count}  max C: {self.max_c:.3f}  "
            f"p95 C: {self.p95_c:.3f}  (machines_used <= C * m * log2 n)"
        )


def report_constants(rows: Sequence[BenchRow]) -> ConstantsReport:
    """Fit machines_used / (m * log2 n) over logn campaign rows."""
    cs = []
    for row in rows:
        if not row.policy.startswith("logn") or row.status != "ok":
            continue
        if row.m_opt is None or row.machines_used is None or row.n < 2:
            continue
        cs.append(row.machines_used / (row.m_opt * math.log2(row.n)))
    if not cs:
        return ConstantsReport(0, None, None)
    cs.sort()
    p95 = cs[min(len(cs) - 1, math.ceil(0.95 * len(cs)) - 1)]
    return ConstantsReport(len(cs), cs[-1], p95)
