"""Concentration machinery for the bias-corrected second moment.

Under a stationary, bounded stream of squared gradients the bias-corrected
accumulator moves by at most sqrt(2) * (1 - beta2) * G per step once the
precondition point is deep enough, and its total drift admits a
high-probability square-root bound.  This module evaluates the closed-form
bound and checks both claims by Monte Carlo, running the accumulator over
synthetic stationary streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, RangeError

STREAM_KINDS = ("constant", "uniform", "bernoulli", "trunc_gauss_sq")

PER_STEP_SLACK = 1e-12

# steps drawn at a time per trial by validate_theorem; consecutive draws from
# one generator give the same stream as a single draw
CHUNK = 1024


def _check_beta2(beta2: float) -> None:
    if not 0.0 < beta2 < 1.0:
        raise DomainError(f"beta2 must be in (0, 1), got {beta2}")


def azuma_bound(bound_g: float, beta2: float, t: int, t0: int, delta: float) -> float:
    """High-probability bound on |vhat_t - vhat_t0| per coordinate.

    Closed form sqrt(4 G^2 (1-beta2)^2 (t-t0) log(2/delta)).  The meaningful
    range is 0 < delta < 1; values up to 2 are accepted so the analytic
    anchor log(2/2) = 0 stays evaluable.
    """
    if bound_g <= 0:
        raise DomainError("the squared-gradient bound G must be positive")
    _check_beta2(beta2)
    if t0 < 1 or t <= t0:
        raise RangeError(f"need t > t0 >= 1, got t={t}, t0={t0}")
    if not 0.0 < delta <= 2.0:
        raise DomainError(f"delta must be in (0, 2], got {delta}")
    return math.sqrt(4.0 * bound_g**2 * (1.0 - beta2) ** 2 * (t - t0) * math.log(2.0 / delta))


def min_precondition_step(beta2: float) -> float:
    """Smallest real switch point for which the per-step increment factor is sqrt(2)."""
    _check_beta2(beta2)
    return math.log(1.0 - 1.0 / math.sqrt(2.0)) / math.log(beta2)


def proof_min_precondition_step(beta2: float) -> float:
    """Looser switch-point condition quoted alongside the per-step bound."""
    _check_beta2(beta2)
    return math.log(0.5) / math.log(beta2)


def per_step_bound(bound_g: float, beta2: float) -> float:
    """Deterministic per-step increment bound sqrt(2) * (1 - beta2) * G."""
    return math.sqrt(2.0) * (1.0 - beta2) * bound_g


@dataclass(frozen=True)
class StationaryStream:
    """I.i.d. draws of squared gradients with support inside [0, G].

    Coordinates are independent, so a d-dimensional stream is statistically
    d replicas of the scalar one.  ``level`` is the constant kind's value,
    ``p`` the bernoulli keep probability, ``sigma`` the pre-truncation scale
    of the squared-Gaussian kind.
    """

    kind: str
    bound: float
    dim: int = 1
    seed: int = 0
    level: float | None = None
    p: float = 0.5
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in STREAM_KINDS:
            raise ConfigError(f"unknown stream kind {self.kind!r}")
        if not 0.0 < self.bound < math.inf:
            raise ConfigError(f"stream bound G must be positive and finite, got {self.bound}")
        if self.dim < 1:
            raise ConfigError("stream dimension must be >= 1")
        if self.seed < 0:
            raise ConfigError("stream seed must be a non-negative integer")
        if self.level is not None and not 0.0 <= self.level <= self.bound:
            raise ConfigError("constant level must lie in [0, G]")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("bernoulli probability must lie in [0, 1]")
        if self.sigma is not None and not 0.0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")

    def draw(self, rng: np.random.Generator, steps: int) -> np.ndarray:
        """(steps, dim) array of i.i.d. squared-gradient draws."""
        shape = (steps, self.dim)
        if self.kind == "constant":
            value = self.bound if self.level is None else self.level
            return np.full(shape, value, dtype=np.float64)
        if self.kind == "uniform":
            return rng.uniform(0.0, self.bound, shape)
        if self.kind == "bernoulli":
            return np.where(rng.random(shape) < self.p, self.bound, 0.0)
        sigma = self.sigma if self.sigma is not None else math.sqrt(self.bound) / 2.0
        return np.minimum(np.square(rng.normal(0.0, sigma, shape)), self.bound)


@dataclass(frozen=True)
class BoundReport:
    """Monte Carlo outcome for the drift bound and the per-step bound."""

    trials: int
    violations: int
    violation_rate: float
    bound_value: float
    max_observed_deviation: float
    per_step_bound_value: float
    max_per_step_deviation: float
    per_step_bound_ok: bool
    beta2: float
    bound_g: float
    t0: int
    t: int
    delta: float
    statement_min_t0: float
    proof_min_t0: float

    def to_flat_dict(self) -> dict:
        return {
            "trials": self.trials,
            "violations": self.violations,
            "violation_rate": self.violation_rate,
            "bound_value": self.bound_value,
            "max_observed_deviation": self.max_observed_deviation,
            "per_step_bound_value": self.per_step_bound_value,
            "max_per_step_deviation": self.max_per_step_deviation,
            "per_step_bound_ok": self.per_step_bound_ok,
            "beta2": self.beta2,
            "bound_g": self.bound_g,
            "t0": self.t0,
            "t": self.t,
            "delta": self.delta,
            "statement_min_t0": self.statement_min_t0,
            "proof_min_t0": self.proof_min_t0,
        }


def validate_theorem(
    stream: StationaryStream,
    beta2: float,
    t0: int,
    t: int,
    delta: float,
    trials: int,
    master_seed: int | None = None,
) -> BoundReport:
    """Monte Carlo check of the drift bound over independent trials.

    A violation is a trial whose max-coordinate drift |vhat_t - vhat_t0|
    reaches the closed-form bound.  Every post-t0 increment is also checked
    against the deterministic per-step bound with a small float slack.
    Each trial draws from a generator derived from (seed, trial index); the
    aggregate is a pure count, so scheduling cannot change it.
    """
    statement_min = min_precondition_step(beta2)
    if t0 <= statement_min:
        minimal = math.floor(statement_min) + 1
        raise ConfigError(
            f"t0={t0} is too small: the bound needs t0 > {statement_min:.2f} "
            f"(minimal integer {minimal})"
        )
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    bound = azuma_bound(stream.bound, beta2, t, t0, delta)
    step_bound = per_step_bound(stream.bound, beta2)
    seed = stream.seed if master_seed is None else master_seed

    # all trials advance in lockstep: one (trials, dim) state per step, with
    # the draws held CHUNK steps at a time.  The state lives in preallocated
    # buffers; each operation is the one of the plain expressions
    # v = beta2 * v + (1 - beta2) * draw and vhat = v / (1 - beta2**k), so
    # every bit is theirs.  vhat is formed from t0 on, and the largest
    # per-step move of each coordinate is kept, to be reduced once at the end.
    rngs = [np.random.default_rng((seed, i)) for i in range(trials)]
    shape = (trials, stream.dim)
    draws = np.empty((min(CHUNK, t),) + shape)
    v = np.zeros(shape)
    vhat, vhat_prev, move = np.empty(shape), np.empty(shape), np.empty(shape)
    max_move = np.zeros(shape)
    for first in range(1, t + 1, CHUNK):
        steps = min(CHUNK, t + 1 - first)
        for i, rng in enumerate(rngs):
            draws[:steps, i] = stream.draw(rng, steps)
        draws[:steps] *= 1.0 - beta2
        for k in range(first, first + steps):
            v *= beta2
            v += draws[k - first]
            if k < t0:
                continue
            np.divide(v, 1.0 - beta2**k, out=vhat)
            if k == t0:
                vhat_t0 = vhat.copy()
            else:
                np.subtract(vhat, vhat_prev, out=move)
                np.abs(move, out=move)
                np.fmax(max_move, move, out=max_move)
            vhat, vhat_prev = vhat_prev, vhat
    max_step_dev = float(max_move.max())

    deviation = np.abs(vhat_prev - vhat_t0)
    per_trial_max = deviation.max(axis=1)
    violations = int(np.count_nonzero(per_trial_max >= bound))
    return BoundReport(
        trials=trials,
        violations=violations,
        violation_rate=violations / trials,
        bound_value=bound,
        max_observed_deviation=float(per_trial_max.max()),
        per_step_bound_value=step_bound,
        max_per_step_deviation=max_step_dev,
        per_step_bound_ok=max_step_dev <= step_bound + PER_STEP_SLACK,
        beta2=beta2,
        bound_g=stream.bound,
        t0=t0,
        t=t,
        delta=delta,
        statement_min_t0=statement_min,
        proof_min_t0=proof_min_precondition_step(beta2),
    )
