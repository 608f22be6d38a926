"""Simulator and analysis toolkit for distributed stochastic gradient tracking
with geometrically increasing batch sizes."""

from .algo import (BatchSchedule, DivergenceError, NetworkState, PathTrace,
                   StopRule, batch_size, constant_schedule, default_x0,
                   geometric_schedule, run_path, run_paths, start, step)
from .graph import (Graph, MixingMatrix, erdos_renyi, metropolis_weights,
                    spectral_norm_A_minus_I, spectral_radius_deviation)
from .metrics import (ErrorVector, RunResult, aggregate, combined_error,
                      error_vector, fit_geometric_rate, oracle_vs_epsilon)
from .oracle import (Problem, StreamFactory, bartlett_gradients, deterministic,
                     exact_gradients, gradient_stream, make_regression_problem,
                     noise_level, sample_gradients)
from .theory import (ContractionMatrix, RateBound, build_J, check_error_recursion,
                     find_alpha, iteration_complexity, noise_constant,
                     oracle_complexity, rate_bound, spectral_radius_3x3)

__version__ = "0.5.0"

__all__ = [name for name in dir() if not name.startswith("_")]
