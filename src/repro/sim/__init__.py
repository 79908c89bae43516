"""Discrete-event cluster simulator (the paper's SimGrid substitute).

Public surface:

* :class:`~repro.sim.job.Job` / :class:`~repro.sim.job.Workload` — job data.
* :func:`~repro.sim.engine.simulate` — online scheduling under a policy,
  with optional user estimates and EASY backfilling.
* :func:`~repro.sim.listsched.simulate_fixed_priority` — the fixed-priority
  trial simulator used by the training phase (and its batched form,
  :func:`~repro.sim.listsched.simulate_fixed_priority_batch`).
* :mod:`~repro.sim.metrics` — bounded slowdown (Eq. 1/2) and friends.

Both simulators are thin configurations of the unified event-heap
kernel in :mod:`~repro.sim.kernel` (``REPRO_SIM_KERNEL`` selects the
compiled or pure-Python backend; results are bit-identical).  The
paper's flat machine is one kernel call; a topology-partitioned machine
(:mod:`~repro.sim.platform`) is one kernel call per leaf.  The
heterogeneous prototype (:mod:`~repro.sim.hetero`) keeps its own
dispatcher loop, because choosing a variant per start is not a kernel
mode.  The :mod:`~repro.sim.backfill`, :mod:`~repro.sim.conservative`
and :mod:`~repro.sim.cluster` modules are the property-tested reference
pieces: the Python kernel loop calls them directly, and the C backend
transcribes them.
"""

from repro.sim.backfill import (
    HYBRID_RESERVATION_DEPTH,
    easy_backfill,
    hybrid_starts,
    shadow_schedule,
)
from repro.sim.conservative import AvailabilityProfile, conservative_starts
from repro.sim.cluster import Cluster
from repro.sim.engine import ScheduleResult, SimulationConfig, simulate
from repro.sim.hetero import (
    ArchSpec,
    HeteroJob,
    HeteroPlatform,
    HeteroResult,
    Variant,
    hetero_simulate,
    parse_arch_specs,
    workload_to_hetero_jobs,
)
from repro.sim.platform import (
    DISTRIBUTIONS,
    PartitionedPlatform,
    distribute_jobs,
    normalize_topology,
    platform_identity,
    simulate_partitioned,
)
from repro.sim.job import Job, Workload, concat_workloads
from repro.sim.kernel import KernelResult, fixed_priority_batch, simulate_events
from repro.sim.listsched import simulate_fixed_priority, simulate_fixed_priority_batch
from repro.sim.timeline import (
    StepProfile,
    busy_cores_profile,
    profile_average,
    queue_length_profile,
    to_gantt_csv,
)
from repro.sim.metrics import (
    DEFAULT_TAU,
    average_bounded_slowdown,
    bounded_slowdown,
    makespan,
    per_job_flow,
    utilization,
    waiting_times,
)

__all__ = [
    "ArchSpec",
    "AvailabilityProfile",
    "Cluster",
    "DEFAULT_TAU",
    "DISTRIBUTIONS",
    "HYBRID_RESERVATION_DEPTH",
    "HeteroJob",
    "HeteroPlatform",
    "HeteroResult",
    "Job",
    "KernelResult",
    "PartitionedPlatform",
    "ScheduleResult",
    "SimulationConfig",
    "Workload",
    "average_bounded_slowdown",
    "bounded_slowdown",
    "concat_workloads",
    "distribute_jobs",
    "easy_backfill",
    "fixed_priority_batch",
    "hetero_simulate",
    "hybrid_starts",
    "makespan",
    "normalize_topology",
    "parse_arch_specs",
    "per_job_flow",
    "platform_identity",
    "shadow_schedule",
    "simulate_partitioned",
    "StepProfile",
    "Variant",
    "busy_cores_profile",
    "conservative_starts",
    "profile_average",
    "queue_length_profile",
    "simulate",
    "simulate_events",
    "simulate_fixed_priority",
    "simulate_fixed_priority_batch",
    "to_gantt_csv",
    "utilization",
    "waiting_times",
    "workload_to_hetero_jobs",
]
