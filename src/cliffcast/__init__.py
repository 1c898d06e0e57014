"""Clifford-to-pulse broadcast compilation and benchmarking simulation."""

from .clifford import (
    Pulse,
    clifford_of_pulses,
    compose,
    five_primitive_mask,
    inverse,
    minimal_decomposition,
    pulse_unitary,
    recovery_clifford,
)
from .compiler import (
    NpStats,
    PulseEvent,
    Schedule,
    compile_optimal,
    compile_scheme,
    mean_np_exact,
    mean_np_sampled,
    min_broadcast_pulses,
)
from .decomp import Decomposition, decomposition_census, enumerate_decompositions
from .fit import (
    ExpFit,
    LeakageFit,
    PopCalib,
    extract_populations,
    fidelity_from_decay,
    fit_exp_offset,
    fit_exp_offsets,
    fit_leakage,
    interleaved_gate_fidelity,
    leakage_model,
    rate_step,
    t1_limit_fidelity,
)
from .sim import (
    ExchangeParams,
    QubitModel,
    RBCurve,
    RBResult,
    apply_pulse,
    exchange_swap,
    relax,
    run_idle_crossdrive,
    run_rb,
    simulate_allxy,
    simulate_amp_calibration,
)

__version__ = "0.1.0"
