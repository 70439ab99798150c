"""repro.faults -- deterministic, site-addressed fault injection.

The validation counterpart of the paper's recovery story: SVD+BER only
matter if the pipeline *survives* erroneous executions, so this package
injects precisely-placed faults (event-stream damage, raising analyses,
crashing workers, rollback storms, trace-file corruption) and the rest
of the system is hardened to degrade structurally -- quarantine,
salvage, retry, budget -- instead of dying.  See docs/robustness.md.

Usage::

    plan = FaultPlan([Fault("analysis.raise", at=100, target="frd")])
    with faults.install(plan):
        ...  # engines/pools/machines constructed here honour the plan
"""

from repro.faults.plan import (ALL_SITES, SERVE_SITES, Fault, FaultPlan,
                               InjectedFault)
from repro.faults.runtime import active, enabled, install
from repro.faults.inject import (CRASH_EXIT_CODE, RaisingConsumer,
                                 StreamInjector, apply_to_trace,
                                 apply_worker_fault, corrupt_trace_file)

__all__ = [
    "ALL_SITES", "SERVE_SITES", "Fault", "FaultPlan", "InjectedFault",
    "active", "enabled", "install",
    "CRASH_EXIT_CODE", "RaisingConsumer", "StreamInjector",
    "apply_to_trace", "apply_worker_fault", "corrupt_trace_file",
]
