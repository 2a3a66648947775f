"""SSNN methodology: running binarized SNNs on SUSHI hardware.

Implements the paper's section 5 methods:

* :mod:`repro.ssnn.bucketing` -- synapse reordering and bucketing (5.1):
  inhibitory synapses stream first so the hardware's threshold-crossing
  firing equals the software final-sum decision, and state-range analysis
  bounds the SC-chain capacity a workload needs.
* :mod:`repro.ssnn.bitslice` -- the bit-slice SSNN method (5.3): slicing
  arbitrarily large layers over an n x n mesh using state preservation.
* :mod:`repro.ssnn.encoder` -- the encoding phase (Fig. 12): timed weight
  configuration and input pulse streams under the Table 1 constraints.
* :mod:`repro.ssnn.runtime` -- end-to-end inference against the behavioural
  chip (exact protocol) or a vectorised fast engine with identical
  semantics, plus the statistics the performance models consume.
* :mod:`repro.ssnn.compile` -- compile-once lowering to an immutable
  :class:`CompiledNetwork` (signed weight matrices, reorder permutations,
  slice schedule, reload statistics) with a content-addressed on-disk
  :class:`PlanCache`.
* :mod:`repro.ssnn.pool` -- a persistent shared-memory
  :class:`InferencePool` executing one compiled plan across worker
  processes with zero per-call weight pickling (see docs/SERVING.md).
"""

from repro.ssnn.bucketing import (
    SynapseSchedule,
    build_schedule,
    hardware_layer_outputs,
    required_capacity,
)
from repro.ssnn.bitslice import BitSlicePlan, SliceTask, plan_network
from repro.ssnn.compile import (
    PLAN_KIND,
    CacheStats,
    CompiledLayer,
    CompiledNetwork,
    PlanCache,
    compile_network,
    default_cache,
    network_fingerprint,
    resolve_plan_cache,
)
from repro.ssnn.pool import (
    InferencePool,
    InferencePoolError,
    PoisonBatchError,
)
from repro.ssnn.encoder import EncodedInference, InferenceTiming, encode_inference
from repro.ssnn.profiler import LayerProfile, profile_network, profile_report
from repro.ssnn.reload_opt import optimize_plan, reload_reduction
from repro.ssnn.runtime import (
    RetryPolicy,
    RuntimeResult,
    SushiRuntime,
    perturb_spike_trains,
)
from repro.ssnn.verification import (
    VerificationReport,
    reconstruct_weights,
    verify_plan,
)

__all__ = [
    "SynapseSchedule",
    "build_schedule",
    "hardware_layer_outputs",
    "required_capacity",
    "BitSlicePlan",
    "SliceTask",
    "plan_network",
    "PLAN_KIND",
    "CacheStats",
    "CompiledLayer",
    "CompiledNetwork",
    "PlanCache",
    "compile_network",
    "default_cache",
    "network_fingerprint",
    "resolve_plan_cache",
    "InferencePool",
    "InferencePoolError",
    "PoisonBatchError",
    "EncodedInference",
    "InferenceTiming",
    "encode_inference",
    "optimize_plan",
    "reload_reduction",
    "LayerProfile",
    "profile_network",
    "profile_report",
    "RetryPolicy",
    "RuntimeResult",
    "SushiRuntime",
    "perturb_spike_trains",
    "VerificationReport",
    "reconstruct_weights",
    "verify_plan",
]
