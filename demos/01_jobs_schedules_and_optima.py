"""
Jobs, schedules, and two routes to the exact optimum
====================================================

A job is (id, release, deadline, processing) on a discrete timeline; an
instance is a set of jobs.  The minimum machine count for the preemptive
problem can be computed by max-flow feasibility, and again by the
strong-density characterization: the optimum equals the ceiling of the
worst contribution-per-length ratio over slot subsets, which the same
network's min cuts find at fractional machine counts.
"""

from machmin import (
    Instance,
    Job,
    feasible_preemptive,
    optimum_preemptive,
    strong_density_exact,
    validate_preemptive,
)
from machmin.optimum import ceil_frac, optimum_nonpreemptive_exact, strong_density_witness

# Three jobs fighting over a short horizon.  The first two are rigid
# (zero laxity); the third overlaps both.
inst = Instance([Job(0, 0, 2, 2), Job(1, 0, 2, 2), Job(2, 1, 3, 2)])

m = optimum_preemptive(inst)
print("preemptive optimum:", m)

# The flow witness is a concrete slot-level schedule at the optimum.
result = feasible_preemptive(inst, m)
for t in sorted(result.witness.assignments):
    print(f"  slot [{t},{t+1}): jobs {sorted(result.witness.assignments[t])}")
report = validate_preemptive(inst, result.witness)
print("witness validates:", report.feasible, "| machines:", report.machines_used)

# The density route: min cuts at fractional machine counts find the slot
# subset with the worst ratio.  The single slot [1,2) must carry one unit
# from each of the three jobs, so the density is 3.
rho, where = strong_density_witness(inst)
print("strong density:", rho, "attained on intervals", where.intervals)
assert ceil_frac(rho) == m

# Forbidding preemption can only cost machines.
print("non-preemptive optimum:", optimum_nonpreemptive_exact(inst))

# One loose job alone: the density route still gets it right: the only
# contribution appears once the whole window is chosen (1 unit / 4 slots).
single = Instance([Job(0, 0, 4, 1)])
print("single loose job: rho_s =", strong_density_exact(single),
      "-> optimum", optimum_preemptive(single))
