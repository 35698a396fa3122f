"""Exact expansion, preimage solving and topological certification for a
polynomial map of the plane whose image is the open quadrant.

The package splits into five working layers: exact sparse polynomial
arithmetic (polynomial), the factor maps and charts as floating-point
evaluators (maps), warped discs, boundary loops and their certificates
(topology), the level-curve preimage solver (solver), and seeded random
verification sweeps (sampler). The command line in cli ties them
together. The package itself exports the preimage solver and the
theorem map with its evaluators; everything else is imported from its
module.
"""

from .polynomial import build_theorem_map, evaluate_exact, evaluate_float
from .solver import PreimageQuery, PreimageResult, SolverConfig, SolverFailure, preimage

__version__ = "0.1.0"

__all__ = [
    "PreimageQuery",
    "PreimageResult",
    "SolverConfig",
    "SolverFailure",
    "build_theorem_map",
    "evaluate_exact",
    "evaluate_float",
    "preimage",
    "__version__",
]
