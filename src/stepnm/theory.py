"""Concentration machinery for the bias-corrected second moment.

Under a stationary, bounded stream of squared gradients the bias-corrected
accumulator moves by at most sqrt(2) * (1 - beta2) * G per step once the
precondition point is deep enough, and its total drift admits a
high-probability square-root bound.  This module evaluates the closed-form
bound and checks both claims by Monte Carlo, running the accumulator over
synthetic stationary streams.

The Monte Carlo holds its draws trial-major in one (trials, chunk, dim)
buffer: each trial's generator writes a chunk of its raw variates in place
into its own contiguous row, the stream's map then runs once over the whole
block, and all trials advance in lockstep through the chunk, one numpy call
per step covering every trial.  The buffer stays within ``DRAW_BUDGET``
bytes: trials share a block as long as each still gets ``CHUNK`` steps, and
the chunk then grows to fill the budget, so memory does not grow with the
number of trials or steps.  A stream whose single step outgrows the budget
is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, RangeError, check_kind, shown

STREAM_PARAMS = {"constant": ("level",), "uniform": (), "bernoulli": ("p",),
                 "trunc_gauss_sq": ("sigma",)}  # the parameters each kind reads
STREAM_KINDS = tuple(STREAM_PARAMS)

PER_STEP_SLACK = 1e-12

# fewest steps a block's chunk may hold: validate_theorem puts trials in one
# block first, since each lockstep step is one numpy call over the block, and
# cuts the chunk for more trials only down to this length.  Consecutive draws
# from one generator give the same stream as a single draw, so the chunk
# length moves no bit of a report.
CHUNK = 64

# bytes validate_theorem's draw buffer may hold: 2 MiB, the L2 cache of one
# core of the Xeon the blocking was measured on.  The per-block results are
# maxima and counts, so the blocking moves no bit of a report either.
DRAW_BUDGET = 2 * 2**20


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
    if t >= 2**63:  # t - t0 must convert to a float; 2**63, the config integers' bound, is well inside
        raise RangeError(f"t must be below 2**63, got {shown(t)}")
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
    d replicas of the scalar one.  A kind reads only its STREAM_PARAMS, and
    the others stay unset: ``level``, the constant value; ``p``, the bernoulli
    keep probability (0.5 if unset); ``sigma``, the squared Gaussian's scale.
    """

    kind: str
    bound: float
    dim: int = 1
    seed: int = 0
    level: float | None = None
    p: float | None = None
    sigma: float | None = None

    def __post_init__(self):
        check_kind("stream", self.kind, STREAM_PARAMS,
                   [key for key in ("level", "p", "sigma") if getattr(self, key) is not None])
        if self.kind == "bernoulli" and self.p is None:
            object.__setattr__(self, "p", 0.5)
        if not 0.0 < self.bound < math.inf:
            raise ConfigError(f"stream bound G must be positive and finite, got {self.bound}")
        if self.dim < 1:
            raise ConfigError("stream dimension must be >= 1")
        if self.seed < 0:
            raise ConfigError("stream seed must be a non-negative integer")
        if self.level is not None and not 0.0 <= self.level <= self.bound:
            raise ConfigError("constant level must lie in [0, G]")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ConfigError("bernoulli probability must lie in [0, 1]")
        if self.sigma is not None and not 0.0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be positive and finite, got {self.sigma}")

    def draw(self, rngs: list[np.random.Generator], steps: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """(len(rngs), steps, dim) block of i.i.d. squared-gradient draws.

        Row i holds the next ``steps`` draws of ``rngs[i]``.  Each generator
        writes its raw variates into its own row of ``out`` (a fresh array
        when it is None), and the stream's map then runs once over the whole
        block, in place.  ``out`` must be a float64 array of that shape with
        C-contiguous rows, such as ``buffer[:, :steps]``; it is checked
        before any generator moves.  The map acts on each element alone, so
        a row is bitwise a one-generator draw, and each map is the one of the
        plain expressions ``uniform(0, G)``, ``where(u < p, G, 0)`` and
        ``minimum(normal(0, sigma)**2, G)``, so every bit is theirs: adding
        the 0.0 location, which ``uniform`` and ``normal`` do, changes no
        value, at most the sign of a zero that the square then drops.
        """
        shape = (len(rngs), steps, self.dim)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or out.dtype != np.float64 or not out[:1].flags.c_contiguous:
            raise DimensionError(
                f"out must be a float64 array of shape {shape} with C-contiguous rows, "
                f"got {out.dtype} {out.shape}"
            )
        if self.kind == "constant":
            out.fill(self.bound if self.level is None else self.level)
            return out
        for rng, row in zip(rngs, out):
            if self.kind == "trunc_gauss_sq":
                rng.standard_normal(out=row)
            else:
                rng.random(out=row)
        if self.kind == "uniform":
            out *= self.bound
        elif self.kind == "bernoulli":
            np.less(out, self.p, out=out)
            out *= self.bound
        else:
            out *= self.sigma if self.sigma is not None else math.sqrt(self.bound) / 2.0
            np.square(out, out=out)
            np.minimum(out, self.bound, out=out)
        return out


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


def _run_block(
    stream: StationaryStream,
    rngs: list[np.random.Generator],
    beta2: float,
    t0: int,
    t: int,
    draws: np.ndarray,
) -> tuple[np.ndarray, float]:
    """(max-coordinate drift of each trial, largest per-step move) of one block.

    ``draws`` is the block's (trials, chunk, dim) buffer; one draw per chunk
    fills row i from trial i's generator.
    """
    # the block's trials advance in lockstep, one step of every trial read
    # from a strided (trials, dim) slice of the draws.  The state lives in
    # preallocated buffers; each operation is the one of the plain
    # expressions v = beta2 * v + (1 - beta2) * draw and
    # vhat = v / (1 - beta2**k), so every bit is theirs.  vhat is formed from
    # t0 on, and the largest per-step move of each coordinate is kept, to be
    # reduced once at the end.
    trials, chunk, dim = draws.shape
    shape = (trials, dim)
    v = np.zeros(shape)
    vhat, vhat_prev, move = np.empty(shape), np.empty(shape), np.empty(shape)
    max_move = np.zeros(shape)
    for first in range(1, t + 1, chunk):
        steps = min(chunk, t + 1 - first)
        stream.draw(rngs, steps, out=draws[:, :steps])
        draws[:, :steps] *= 1.0 - beta2
        for k in range(first, first + steps):
            v *= beta2
            v += draws[:, k - first]
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
    return np.abs(vhat_prev - vhat_t0).max(axis=1), float(max_move.max())


def validate_theorem(
    stream: StationaryStream,
    beta2: float,
    t0: int,
    t: int,
    delta: float,
    trials: int,
) -> BoundReport:
    """Monte Carlo check of the drift bound over independent trials.

    A violation is a trial whose max-coordinate drift |vhat_t - vhat_t0|
    reaches the closed-form bound.  Every post-t0 increment is also checked
    against the deterministic per-step bound with a small float slack.
    Each trial draws from a generator derived from (stream.seed, trial
    index); the aggregates are counts and maxima, so neither the order of
    the trials nor their blocking can change them.  A stream whose single
    step of one trial (dim * 8 bytes) exceeds ``DRAW_BUDGET`` is a
    ConfigError, raised before anything is allocated.
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
    step_bytes = stream.dim * 8  # one step of one trial
    if step_bytes > DRAW_BUDGET:
        raise ConfigError(
            f"stream dimension {stream.dim} is too large: one step of one trial takes "
            f"{step_bytes} bytes, more than the {DRAW_BUDGET}-byte draw buffer "
            f"(dimension at most {DRAW_BUDGET // 8})"
        )
    bound = azuma_bound(stream.bound, beta2, t, t0, delta)
    step_bound = per_step_bound(stream.bound, beta2)

    # trials first, then the chunk grows to fill the budget: at least
    # min(CHUNK, t) steps in a block of several trials, and at least one step
    # in a block of one, since one step of one trial fits
    block = max(1, min(trials, DRAW_BUDGET // (min(CHUNK, t) * step_bytes)))
    chunk = min(t, DRAW_BUDGET // (block * step_bytes))
    draws = np.empty((block, chunk, stream.dim))
    violations, max_dev, max_step_dev = 0, 0.0, 0.0
    for start in range(0, trials, block):
        rngs = [np.random.default_rng((stream.seed, i))
                for i in range(start, min(start + block, trials))]
        per_trial_max, block_step_dev = _run_block(stream, rngs, beta2, t0, t, draws[:len(rngs)])
        violations += int(np.count_nonzero(per_trial_max >= bound))
        max_dev = max(max_dev, float(per_trial_max.max()))
        max_step_dev = max(max_step_dev, block_step_dev)

    return BoundReport(
        trials=trials,
        violations=violations,
        violation_rate=violations / trials,
        bound_value=bound,
        max_observed_deviation=max_dev,
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
