"""Heat calculus on finite weighted graphs.

Graph container and constants, mu-Laplacian and gradient form, heat kernels
(uniformization series, spectral oracle, Monte Carlo walks), and verifiers
for the global gradient estimate, Harnack inequality, and heat-kernel and
volume-growth bounds.
"""

from .graph import (GraphConstants, GraphFormatError, UnreachableError,
                    WeightedGraph, as_vertex_function, generate, graph_from_dict,
                    graph_to_dict, load_graph, save_graph)
from .calculus import gamma, laplacian, sqrt_identity_residual
from .semigroup import (HeatKernel, compose, dense_oracle, evolve, generator,
                        heat_kernel)
from .estimates import (HypothesisError, gradient_estimate, gradient_lhs,
                        harnack_factor, heat_gradient_estimate,
                        heat_kernel_lower_bound, heat_kernel_upper_bound,
                        independence_sweep, optimal_time_gap,
                        prior_gradient_estimate, sample_positive_function,
                        verify_diagonal_lower, verify_harnack,
                        verify_kernel_lower, verify_kernel_upper,
                        verify_volume_growth, volume_growth_bound)
from .reports import Reports, all_pass, summarize, write_jsonl
from .walk import WalkEstimate, simulate

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
