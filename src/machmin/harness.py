"""Benchmark campaigns, competitive-ratio tables, and trace verification.

Ratios are exact fractions; the CSV carries them verbatim (e.g. ``9/2``)
next to a decimal convenience column.  With timing off (the default), CSV
output is a pure function of the campaign config and seeds, byte for byte.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
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
    without it, where they have an online form)."""
    spec = POLICIES.get(name)
    if spec is None:
        raise ValueError(f"unknown policy {name!r}; known: {', '.join(POLICIES)}")
    if alpha is not None and not spec.alpha:
        raise ValueError(f"policy {name!r} takes no --alpha")
    if machines is not None and spec.needs != "machines":
        raise ValueError(f"policy {name!r} takes no --machines")
    alpha_kw = {} if alpha is None else {"alpha": alpha}
    if online and spec.online is not None:
        return spec.online(instance, **alpha_kw)
    if spec.needs == "machines" and machines is None:
        raise ValueError(f"policy {name!r} needs an explicit --machines")
    if spec.needs == "m" and m is None:
        hint = " (or --online)" if spec.online is not None else ""
        raise ValueError(f"policy {name!r} needs the optimum via --m{hint}")
    if online and spec.needs == "m":
        raise ValueError(f"policy {name!r} has no online form; drop --online")
    return spec.run(instance, machines if spec.needs == "machines" else m, **alpha_kw)


# ---------------------------------------------------------------------------
# Campaigns.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRow:
    instance_id: str
    profile: str
    n: int
    m_opt: int | None
    policy: str
    params: str
    machines_used: int | None
    first_miss: str  # "none" or "<job>@<t>"
    ratio: str  # exact fraction, empty when no oracle
    ratio_dec: str
    status: str  # "ok" or "oracle-skipped"
    wall_ms: float | None = None


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
    timing: bool = False


def _parse_policy_spec(spec: str) -> tuple[str, Fraction | None]:
    """A bench policy spec is a name, optionally with a budget factor:
    ``edf@3`` means EDF on ceil(3m) machines."""
    if "@" in spec:
        name, factor = spec.split("@", 1)
        return name, Fraction(factor)
    return spec, None


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
    dropped."""
    rows: list[BenchRow] = []
    worst: dict[str, Fraction] = {}
    for index in range(config.count):
        seed = config.seed0 + index
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
        instance_id = f"{config.profile}-{seed}"
        m = _instance_m(config, generated)
        for spec in config.policies:
            name, factor = _parse_policy_spec(spec)
            if m is None:
                rows.append(
                    BenchRow(
                        instance_id=instance_id,
                        profile=config.profile,
                        n=instance.n,
                        m_opt=None,
                        policy=spec,
                        params="",
                        machines_used=None,
                        first_miss="",
                        ratio="",
                        ratio_dec="",
                        status="oracle-skipped",
                    )
                )
                continue
            machines = ceil_frac(factor * m) if factor is not None else None
            start = time.perf_counter()
            run = run_policy(
                name,
                instance,
                m=m,
                machines=machines,
                alpha=None,
                online=config.online,
            )
            wall = (time.perf_counter() - start) * 1000.0
            if run.first_miss is None:
                _revalidate(run)
            ratio = Fraction(run.machines_used, m)
            worst[spec] = max(worst.get(spec, Fraction(0)), ratio)
            rows.append(
                BenchRow(
                    instance_id=instance_id,
                    profile=config.profile,
                    n=instance.n,
                    m_opt=m,
                    policy=spec,
                    params=";".join(
                        f"{k}={v}" for k, v in run.policy_params
                    ),
                    machines_used=run.machines_used,
                    first_miss=(
                        "none"
                        if run.first_miss is None
                        else f"{run.first_miss[0]}@{run.first_miss[1]}"
                    ),
                    ratio=str(ratio),
                    ratio_dec=_dec(ratio),
                    status="ok",
                    wall_ms=wall if config.timing else None,
                )
            )
    for spec in config.policies:
        if spec in worst:
            rows.append(
                BenchRow(
                    instance_id="summary",
                    profile=config.profile,
                    n=config.n,
                    m_opt=None,
                    policy=spec,
                    params="max-ratio",
                    machines_used=None,
                    first_miss="",
                    ratio=str(worst[spec]),
                    ratio_dec=_dec(worst[spec]),
                    status="ok",
                )
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


def _dec(ratio: Fraction) -> str:
    return f"{float(ratio):.6g}"


_COLUMNS = (
    "instance",
    "profile",
    "n",
    "m_opt",
    "policy",
    "params",
    "machines_used",
    "first_miss",
    "ratio",
    "ratio_dec",
    "status",
)


def _cells(row: BenchRow, timing: bool) -> dict:
    values = (row.instance_id, row.profile, row.n, row.m_opt, row.policy, row.params,
              row.machines_used, row.first_miss, row.ratio, row.ratio_dec, row.status)
    cells = dict(zip(_COLUMNS, values))
    if timing:
        cells["wall_ms"] = row.wall_ms
    return cells


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def rows_to_csv(rows: Sequence[BenchRow], timing: bool = False) -> str:
    columns = _COLUMNS + (("wall_ms",) if timing else ())
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(map(_csv_cell, _cells(row, timing).values())))
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
