"""Learning N:M structured sparsity masks under Adam.

A desk-scale toolkit: small differentiable models, N:M mask computation, the
two-phase preconditioned training recipe with automatic phase switching, and
a Monte Carlo validator for the variance concentration bound.  Importing the
package loads none of its modules; import each by name, as in
``from stepnm import theory``.
"""

__version__ = "0.1.0"
