"""Phase-switch detection from recorded variance dynamics.

The windowed detector watches per-coordinate variance changes and fires once
their sliding-window mean drops below the optimizer epsilon, optionally
clamped into a step budget.  Two norm-based baseline criteria and the
switch-quality metric used to compare them live here too.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, RangeError, StateError

SAMPLER_OPTIONS = ("arithmetic", "geometric")
CRITERION_KINDS = ("autoswitch", "relative", "staleness", "fixed")

RELATIVE_DEFAULT_THRESHOLD = 0.5
STALENESS_DEFAULT_THRESHOLD = 0.96

# keeps zero coordinates inside the log domain for the geometric option
GEOMETRIC_FLOOR = 1e-30


def mixing_window(beta2: float) -> int:
    """Effective memory of the variance EMA: floor(1 / (1 - beta2)).

    A tiny nudge compensates the float representation of 1 - beta2, so e.g.
    beta2 = 0.999 yields 1000 rather than 999.
    """
    if not 0.0 <= beta2 < 1.0:
        raise DomainError(f"beta2 must be in [0, 1), got {beta2}")
    return max(1, int(math.floor(1.0 / (1.0 - beta2) + 1e-9)))


def variance_stats(v: dict, v_prev: dict) -> tuple[float, float, float, float]:
    """Per-step variance statistics over every parameter: (z, z_geom, v_l1, v_l2).

    z is the mean absolute per-coordinate change from ``v_prev`` to ``v``;
    z_geom is the geometric mean of those changes, floored at a tiny constant
    so zero changes stay defined; v_l1 and v_l2 are the norms of ``v``.  Each
    sum is accumulated per array as a Python float; the inputs are untouched.
    """
    total_abs = total_log = l1 = sq = 0.0
    count = 0
    for name, arr in v.items():
        delta = np.subtract(arr, v_prev[name])
        np.abs(delta, out=delta)
        total_abs += float(delta.sum())
        np.maximum(delta, GEOMETRIC_FLOOR, out=delta)
        np.log(delta, out=delta)
        total_log += float(delta.sum())
        count += delta.size
        l1 += float(np.abs(arr).sum())
        sq += float(np.square(arr).sum())
    return total_abs / count, math.exp(total_log / count), l1, math.sqrt(sq)


@dataclass
class WindowSampler:
    """Ring buffer of the most recent variance-change samples."""

    option: str = "arithmetic"
    capacity: int = 1
    window: deque = field(init=False)

    def __post_init__(self):
        if self.option not in SAMPLER_OPTIONS:
            raise ConfigError(f"unknown sampler option {self.option!r}")
        if self.capacity < 1:
            raise ConfigError("sampler window capacity must be >= 1")
        self.window = deque(maxlen=self.capacity)

    def add(self, z: float) -> None:
        self.window.append(float(z))

    def mean(self) -> float:
        if not self.window:
            raise StateError("no variance-change samples recorded yet")
        return math.fsum(self.window) / len(self.window)

    def __len__(self) -> int:
        return len(self.window)


def autoswitch_decide(
    sampler: WindowSampler,
    t: int,
    eps: float,
    clip: tuple[int, int] | None = None,
) -> bool:
    """Decide whether step t ends the precondition phase.

    Unclipped, the rule is "windowed mean below the optimizer epsilon", held
    back until the window is full so a short sample cannot fire spuriously.
    With clipping, the budget cap fires at T_max regardless of the window,
    and the epsilon path additionally requires t > T_min.
    """
    if len(sampler) == 0:
        raise StateError("no variance-change samples recorded yet")
    if clip is not None:
        t_min, t_max = clip
        if not t_min < t_max:
            raise ConfigError(f"clipping needs T_min < T_max, got {clip}")
    full = len(sampler) >= sampler.capacity
    below = full and sampler.mean() < eps
    if clip is None:
        return below
    if t >= t_max:
        return True
    return below and t > t_min


def relative_criterion(norm_t: float, norm_prev: float, threshold: float = RELATIVE_DEFAULT_THRESHOLD) -> bool:
    """Fire when the relative change of the variance norm falls under the threshold."""
    if norm_prev <= 0.0:
        raise DomainError("previous variance norm must be positive")
    return abs(norm_t - norm_prev) / norm_prev < threshold


def staleness_criterion(l1_t: float, l1_lagged: float, threshold: float = STALENESS_DEFAULT_THRESHOLD) -> bool:
    """Fire when the l1 variance norm stays close to its value one window ago."""
    if l1_lagged <= 0.0:
        raise DomainError("lagged variance norm must be positive")
    return l1_t / l1_lagged > threshold


# ---------------------------------------------------------------------------
# criterion configuration and stateful detectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwitchCriterion:
    """Configured phase-switch detector.

    kind "autoswitch" uses ``option`` and optional absolute-step ``clip``;
    "relative" and "staleness" take an optional ``threshold`` override;
    "fixed" forces the switch at ``step``.
    """

    kind: str
    option: str = "arithmetic"
    threshold: float | None = None
    clip: tuple[int, int] | None = None
    step: int | None = None

    def __post_init__(self):
        if self.kind not in CRITERION_KINDS:
            raise ConfigError(f"unknown switch criterion kind {self.kind!r}")
        if self.option not in SAMPLER_OPTIONS:
            raise ConfigError(f"unknown sampler option {self.option!r}")
        if self.threshold is not None and self.threshold <= 0:
            raise ConfigError("criterion threshold must be positive")
        if self.clip is not None:
            t_min, t_max = (int(self.clip[0]), int(self.clip[1]))
            if not 0 <= t_min < t_max:
                raise ConfigError(f"clipping needs 0 <= T_min < T_max, got {self.clip}")
            object.__setattr__(self, "clip", (t_min, t_max))
        if self.kind == "fixed":
            if self.step is None or self.step < 1:
                raise ConfigError("fixed criterion needs a positive step")

    def label(self) -> str:
        if self.kind == "autoswitch":
            return f"autoswitch[{self.option}]" + ("+clip" if self.clip else "")
        if self.kind == "relative":
            return f"relative[{self.threshold if self.threshold is not None else RELATIVE_DEFAULT_THRESHOLD}]"
        if self.kind == "staleness":
            return f"staleness[{self.threshold if self.threshold is not None else STALENESS_DEFAULT_THRESHOLD}]"
        return f"fixed[{self.step}]"


@dataclass(frozen=True)
class StepStats:
    """Per-step variance statistics handed to a detector."""

    step: int
    z_arith: float
    z_geom: float
    v_l1: float
    v_l2: float


class _AutoSwitchDetector:
    def __init__(self, criterion: SwitchCriterion, beta2: float, eps: float):
        self.sampler = WindowSampler(criterion.option, mixing_window(beta2))
        self.eps = eps
        self.clip = criterion.clip
        self.last_mean: float | None = None

    def observe(self, stats: StepStats) -> bool:
        z = stats.z_arith if self.sampler.option == "arithmetic" else stats.z_geom
        self.sampler.add(z)
        self.last_mean = self.sampler.mean()
        return autoswitch_decide(self.sampler, stats.step, self.eps, self.clip)


class _RelativeDetector:
    def __init__(self, criterion: SwitchCriterion):
        self.threshold = (
            criterion.threshold if criterion.threshold is not None else RELATIVE_DEFAULT_THRESHOLD
        )
        self.prev: float | None = None
        self.last_mean = None

    def observe(self, stats: StepStats) -> bool:
        prev, self.prev = self.prev, stats.v_l2
        if prev is None or prev <= 0.0:
            # not comparable yet (start of run, or identically-zero gradients)
            return False
        return relative_criterion(stats.v_l2, prev, self.threshold)


class _StalenessDetector:
    def __init__(self, criterion: SwitchCriterion, beta2: float):
        self.threshold = (
            criterion.threshold if criterion.threshold is not None else STALENESS_DEFAULT_THRESHOLD
        )
        lag = mixing_window(beta2)
        self.history: deque = deque(maxlen=lag + 1)
        self.last_mean = None

    def observe(self, stats: StepStats) -> bool:
        self.history.append(stats.v_l1)
        if len(self.history) < self.history.maxlen:
            return False
        lagged = self.history[0]
        if lagged <= 0.0:
            return False
        return staleness_criterion(stats.v_l1, lagged, self.threshold)


class _FixedDetector:
    def __init__(self, criterion: SwitchCriterion):
        self.step = criterion.step
        self.last_mean = None

    def observe(self, stats: StepStats) -> bool:
        return stats.step >= self.step


def make_detector(criterion: SwitchCriterion, beta2: float, eps: float):
    """Stateful detector for one training run (single-owner, not shareable)."""
    if criterion.kind == "autoswitch":
        return _AutoSwitchDetector(criterion, beta2, eps)
    if criterion.kind == "relative":
        return _RelativeDetector(criterion)
    if criterion.kind == "staleness":
        return _StalenessDetector(criterion, beta2)
    return _FixedDetector(criterion)


def evaluate_offline(criterion: SwitchCriterion, stats_seq, beta2: float, eps: float) -> int | None:
    """First firing step of a criterion over recorded per-step statistics."""
    detector = make_detector(criterion, beta2, eps)
    for stats in stats_seq:
        if detector.observe(stats):
            return stats.step
    return None


# ---------------------------------------------------------------------------
# switch-quality metric
# ---------------------------------------------------------------------------


def avg_change_metric_from_diffs(l1_diffs_by_step, t0: int) -> float:
    """Scaled total l1 variance change over the 1001 steps following t0.

    Entry t of ``l1_diffs_by_step`` is ||v_t - v_{t-1}||_1 (entry 0 is
    unused).  The sum runs over the changes from v_t0 to v_{t0 + 1001}, as
    the comparison is defined, so it covers 1001 one-step differences against
    the 1e-3 scale.
    """
    if t0 < 0:
        raise RangeError("t0 must be >= 0")
    if len(l1_diffs_by_step) <= t0 + 1001:
        raise RangeError(
            f"need per-step changes up to step {t0 + 1001}, have {len(l1_diffs_by_step) - 1}"
        )
    return 1e-3 * math.fsum(l1_diffs_by_step[t0 + 1 : t0 + 1002])
