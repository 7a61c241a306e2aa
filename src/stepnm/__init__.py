"""Learning N:M structured sparsity masks under Adam.

A desk-scale toolkit: small differentiable models, N:M mask computation, the
two-phase preconditioned training recipe with automatic phase switching, and
a Monte Carlo validator for the variance concentration bound.
"""

from . import autoswitch, harness, masks, models, optim, theory

__version__ = "0.1.0"

__all__ = [
    "autoswitch",
    "harness",
    "masks",
    "models",
    "optim",
    "theory",
    "__version__",
]
