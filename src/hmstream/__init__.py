"""Quantum pair sketch for streamed Hidden Matching.

Statevector-simulated sketch shots driven by a framed TCP stream, the
classical baseline, exact outcome enumeration, majority-vote boosting, and
fault-tolerant resource estimates for surface and bicycle-code layouts.
"""
from .boosting import (
    max_tolerable_infidelity,
    min_copies,
    min_copies_general,
    noisy_failure,
    total_quantum_space,
    vote_success,
    vote_success_general,
)
from .compiler import (
    GateCounts,
    decompose_mcx,
    decompose_mcx_arity,
    expand_physical,
    logical_counts_hm,
    physical_counts_hm,
    toffoli_count_hm,
    worst_case_ops,
)
from .errors import (
    CapacityError,
    DecompositionError,
    DomainError,
    FrameError,
    ProtocolError,
    StreamOrderError,
    TransportError,
)
from .instances import HMInstance, generate, to_stream, validate
from .resources import CodeSpec, FactoryConfig, ResourceEstimate, break_even, estimate
from .runners import (
    OutcomeDistribution,
    SketchOutcome,
    classical_lower_bound,
    classical_sketch_size,
    collision_bound,
    depolarized_distribution,
    exact_distribution,
    run_classical_shot,
    run_local_shots,
    run_quantum_shot,
)
from .sketch import PairSketch
from .statevector import (
    GateOp,
    NoiseConfig,
    PvmOutcome,
    QuantumState,
    allocate,
    apply,
    inject_depolarizing,
    projector_probability,
    shot_rng,
)
from .wire import StreamServer, StreamSession

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
