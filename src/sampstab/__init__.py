"""Stabilizability of linear control systems under periodic sampled observation.

The package decides weak observability inequalities for continuous and
T-periodic discrete observation modes, synthesizes stabilizing feedback
through the discrete LQ Riccati kernel, certifies the closed loops by
simulation, and ships the benchmark systems on which sampled observation
provably differs from continuous observation.
"""

from .benchmarks import (CounterexampleWitness, ThickSetSpec, det_lambda,
                         fractional_heat, harmonic_oscillator, is_thick,
                         schrodinger, schrodinger_witness, witness_band)
from .closedloop import (Trajectory, fit_decay, simulate_cc, simulate_cp,
                         simulate_dc, simulate_dp, trajectory_table,
                         trajectory_to_csv)
from .errors import (GridTooCoarse, NumericOverflowError,
                     RiccatiDivergenceError, SampstabError, SearchExhausted,
                     SpectralRadiusError)
from .linsys import (ContinuousSystem, SampledSystem, SpectralSystem,
                     load_system, sample, sample_periods, semigroup,
                     system_from_json, system_to_json)
from .lqsynth import (FeedbackGain, RiccatiSolution, closed_loop_cost,
                      dp_value_iterate, feedback_gain, lq_optimal_cost,
                      riccati_solve)
from .obscheck import (GramianBundle, ObservabilityCertificate,
                       check_inequality, continuous_gramian, decide_cc,
                       decide_dc, discrete_gramian, min_delta_on_kernel,
                       pathological_periods, sweep_dc)

__version__ = "0.1.0"

__all__ = [
    "ContinuousSystem", "SpectralSystem", "SampledSystem",
    "semigroup", "sample", "sample_periods", "system_from_json",
    "system_to_json", "load_system",
    "GramianBundle", "ObservabilityCertificate",
    "discrete_gramian", "continuous_gramian", "check_inequality",
    "min_delta_on_kernel", "sweep_dc", "decide_dc", "decide_cc", "pathological_periods",
    "RiccatiSolution", "FeedbackGain", "riccati_solve", "dp_value_iterate",
    "feedback_gain", "lq_optimal_cost", "closed_loop_cost",
    "Trajectory", "simulate_cc", "simulate_dc", "simulate_dp", "simulate_cp",
    "fit_decay", "trajectory_table", "trajectory_to_csv",
    "harmonic_oscillator", "det_lambda", "fractional_heat", "schrodinger",
    "schrodinger_witness", "witness_band", "ThickSetSpec", "CounterexampleWitness",
    "is_thick",
    "SampstabError", "NumericOverflowError", "RiccatiDivergenceError",
    "SpectralRadiusError", "SearchExhausted", "GridTooCoarse",
    "__version__",
]
