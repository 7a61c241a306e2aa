"""A central-difference check of the gradient engine, for the tests.

``finite_difference_check`` compares ``models.loss_and_grad`` against
central differences of ``models.forward_loss`` on every parameter coordinate.
"""

from dataclasses import dataclass

import numpy as np

from conftest import copied
from stepnm.errors import DomainError
from stepnm.models import ModelSpec, ParamBuffer, forward_loss, loss_and_grad


@dataclass(frozen=True)
class FDReport:
    """Finite-difference comparison across parameter coordinates."""

    max_rel_error: float
    passed: bool
    offenders: tuple[tuple[str, int, float], ...]


def finite_difference_check(
    spec: ModelSpec,
    params: ParamBuffer,
    batch,
    h: float = 1e-5,
    tol: float = 1e-5,
) -> FDReport:
    """Compare analytic gradients against central differences on every coordinate.

    The per-coordinate error is |analytic - numeric| relative to the larger of
    the two magnitudes, floored at one so near-zero coordinates are judged on
    absolute error.  Offenders above ``tol`` are listed by (name, flat index);
    a NaN error, as from a difference of infinite losses, is an offender and
    the maximum, so the check fails.
    """
    if not (h > 0 and np.isfinite(h)):
        raise DomainError(f"finite-difference step h must be positive and finite, got {h}")
    if not 0.0 <= tol < np.inf:
        raise DomainError(f"tolerance tol must be non-negative and finite, got {tol}")
    analytic = loss_and_grad(spec, params, batch)[1]
    probe = copied(params)
    errors: list[tuple[str, int, float]] = []
    for name, (start, stop) in zip(params, params.bounds):
        for i in range(start, stop):
            sides = []
            for sign in (1.0, -1.0):
                probe.flat[i] = params.flat[i] + sign * h
                sides.append(forward_loss(spec, probe, batch))
            probe.flat[i] = params.flat[i]
            numeric = (sides[0] - sides[1]) / (2.0 * h)
            a = float(analytic.flat[i])
            errors.append((name, i - start, abs(a - numeric) / max(1.0, abs(a), abs(numeric))))
    max_rel = float(np.max([rel for _, _, rel in errors]))  # NaN if any error is NaN
    return FDReport(max_rel_error=max_rel, passed=max_rel <= tol,
                    offenders=tuple(e for e in errors if not e[2] <= tol))
