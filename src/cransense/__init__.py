"""Joint spectrum-sensing time and C-RAN resource allocation solver.

A sliced cloud-RAN serves low-priority users opportunistically: remote
radio heads cooperatively sense each sub-carrier, a fusion of the results
gates transmission, and sensing time, user association and transmit powers
are optimized in alternation to maximize total throughput under detection,
capacity and per-slice rate constraints.
"""

__version__ = "0.1.0"

from .alternating import AltConfig, default_initialization, solve_joint
from .assoc_opt import AssocSolveResult, solve_association
from .gaussian import q_func, q_inv
from .model import (Allocation, ChannelState, InfeasibleError, NetworkDims,
                    RadioParams, SearchTruncatedError, SensingParams,
                    SolveReport, UnattainableTargetError, check_constraints,
                    sinr_absent, total_approx_throughput)
from .power_opt import PowerIterate, PowerSolveResult, solve_power
from .scenario import (ScenarioSpec, SweepSpec, generate_instance, optimal_sensing_time,
                       run_interruption_sweep, run_sweep, solve_instance)
from .sensing import (alpha, detection_probability, interruption_probability,
                      min_samples, min_samples_count)
from .sensing_opt import SensingSolveResult, solve_sensing

__all__ = [name for name in dir() if not name.startswith("_")]
