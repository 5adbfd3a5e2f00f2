"""Online machine minimization: schedulers, exact optima, adversaries.

The package splits along the natural seams of the problem:

- :mod:`machmin.model` — jobs, instances, schedules, validation, text formats
- :mod:`machmin.optimum` — flow-based exact optima and the strong-density oracle
- :mod:`machmin.engine` — the deterministic simulation loop and base policies
- :mod:`machmin.composite` — special-case schedulers and the Double reduction
- :mod:`machmin.logn` — the general partition-based scheduler and laxity transforms
- :mod:`machmin.adversary` — lower-bound generators and the adaptive equal-p game
- :mod:`machmin.harness` — benchmark campaigns, CSV emission, trace verification
"""

from .model import (
    Instance,
    Job,
    JobState,
    NonpreemptiveSchedule,
    PreemptiveSchedule,
    ValidationReport,
    is_loose,
    laxity,
    parse_instance,
    scale_instance,
    serialize_instance,
    validate_nonpreemptive,
    validate_preemptive,
)
from .optimum import (
    FeasibilityResult,
    IntervalSet,
    check_strong_density_theorem,
    contribution,
    density_equal_p,
    feasible_preemptive,
    optimal_witness,
    optimum_nonpreemptive_exact,
    optimum_preemptive,
    strong_density_exact,
)
from .engine import (
    EDF,
    LLF,
    EarlyFit,
    MediumFit,
    NonpreemptiveEDF,
    OnlinePolicy,
    SimulationRun,
    check_busy,
    simulate,
)

__version__ = "0.1.0"
