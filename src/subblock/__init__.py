"""Capacities, rate-penalty bounds, error exponents, and energy-outage
guarantees for subblock-constrained codes (CSCC / SECC / CCC) over discrete
memoryless channels."""

from .bounds import (PenaltyBound, binary_convolution, binary_entropy,
                     binary_entropy_inverse, cscc_rate_lower_bound_bsc,
                     penalty_bound_bec, penalty_bound_bsc, penalty_bound_z)
from .capacity import (CapacityResult, capacity_power, ccc_composition_rate,
                       class_laws, cscc_capacity, cscc_composition_rate)
from .channel import (Channel, as_distribution, conditional_entropy,
                      divergence, divergence_conditional, entropy,
                      mutual_information, output_distribution)
from .energy import (UNBOUNDED, BufferConfig, EnergyTrace, adversarial_codeword,
                     balanced_composition, cscc_sequence, max_subblock_length,
                     simulate, worst_case_drawdown)
from .errors import (AbsoluteContinuityViolation, DegenerateComposition,
                     DegenerateSplit, DomainError, EmptyFeasibleSet,
                     Infeasible, NoConvergence, SizeLimit, SubblockError)
from .exponent import (CsccErrorBound, ExponentCurve, TiltedSolution,
                       critical_rate, cscc_error_bound,
                       cscc_exponent_lower_bound, exponent_curve,
                       random_coding, sphere_packing, sphere_packing_solution,
                       tilted_fixed_point)
from .finiteblock import LsdPoint, lsd_point, lsd_rate_bsc, q_function, qinv
from .oracle import (asymmetry_witness, cscc_composition_rate_bruteforce,
                     per_input_information, vector_channel)
from .secc import secc_capacity, secc_uniform_rate
from .typeclass import (Composition, composition_count, enumerate_compositions,
                        feasible_compositions, log_type_class_size,
                        materialize_type_class, rate_loss, type_class_size)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
