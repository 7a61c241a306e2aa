"""Phase-switch detection from recorded variance dynamics.

One detector class per criterion kind, reading the settings CRITERION_KEYS
lists for it.  The windowed autoswitch keeps the last floor(1 / (1 - beta2))
per-coordinate variance changes and fires once their mean, exact and kept as
a running exact sum, drops below the optimizer epsilon, optionally clamped
into a step budget.  Two norm-based baselines, a fixed switch step and the
switch-quality metric used to compare them live here too.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .errors import ConfigError, NumericalError, RangeError, check_kind

SAMPLER_OPTIONS = ("arithmetic", "geometric")
# the switch keys each criterion kind reads
CRITERION_KEYS = {"autoswitch": ("option", "clip"), "relative": ("threshold",),
                  "staleness": ("threshold",), "fixed": ("step",)}

DEFAULT_THRESHOLDS = {"relative": 0.5, "staleness": 0.96}


def mixing_window(beta2: float) -> int:
    """Effective memory of the variance EMA: floor(1 / (1 - beta2)).

    A tiny nudge compensates the float representation of 1 - beta2, so e.g.
    beta2 = 0.999 yields 1000 rather than 999.  ``beta2`` lies in [0, 1), as
    AdamHyper checks, so the window holds at least one sample.
    """
    return int(math.floor(1.0 / (1.0 - beta2) + 1e-9))


# ---------------------------------------------------------------------------
# criterion configuration and stateful detectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwitchCriterion:
    """Configured phase-switch detector.

    kind "autoswitch" uses ``option``, "arithmetic" by default, and optional
    absolute-step ``clip``; "relative" and "staleness" take a ``threshold``,
    which defaults to DEFAULT_THRESHOLDS; "fixed" forces the switch at
    ``step``.  A field its kind does not read (CRITERION_KEYS) must stay unset.
    """

    kind: str
    option: str | None = None
    threshold: float | None = None
    clip: tuple[int, int] | None = None
    step: int | None = None

    def __post_init__(self):
        check_kind("switch", self.kind, CRITERION_KEYS,
                   [k for k in ("option", "threshold", "clip", "step") if getattr(self, k) is not None])
        if self.kind == "autoswitch" and self.option is None:
            object.__setattr__(self, "option", "arithmetic")
        if self.option is not None and self.option not in SAMPLER_OPTIONS:
            raise ConfigError(f"unknown sampler option {self.option!r}")
        if self.threshold is not None and self.threshold <= 0:
            raise ConfigError("criterion threshold must be positive")
        if self.threshold is None and self.kind in DEFAULT_THRESHOLDS:
            object.__setattr__(self, "threshold", DEFAULT_THRESHOLDS[self.kind])
        if self.clip is not None:
            t_min, t_max = (int(self.clip[0]), int(self.clip[1]))
            if not 0 <= t_min < t_max:
                raise ConfigError(f"clipping needs 0 <= T_min < T_max, got {self.clip}")
            object.__setattr__(self, "clip", (t_min, t_max))
        if self.kind == "fixed" and (self.step is None or self.step < 1):
            raise ConfigError("fixed criterion needs a positive step")

    def label(self) -> str:
        if self.kind == "autoswitch":
            return f"autoswitch[{self.option}]" + ("+clip" if self.clip else "")
        if self.kind == "fixed":
            return f"fixed[{self.step}]"
        return f"{self.kind}[{self.threshold}]"


@dataclass
class StepRecord:
    """One trajectory line: losses, variance norms and switch samples.

    Detectors read a step's record as the trainer builds it, before it sets
    ``z_bar`` and ``switched_at``; the trajectory writes the fields in order.
    """

    step: int
    phase: str
    loss: float
    v_l1: float
    v_l2: float
    z: float | None
    z_geom: float | None
    z_bar: float | None = None
    switched_at: int | None = None


_UNITS_PER_ONE = 1 << 1074  # 2**-1074 is the smallest subnormal


def _units(x: float) -> int:
    """``x`` exactly, in units of 2**-1074; ValueError or OverflowError if not finite."""
    numerator, denominator = x.as_integer_ratio()  # denominator = 2**k, k <= 1074
    return numerator << (1075 - denominator.bit_length())


class _WindowDetector:
    """The autoswitch: the mean of the last mixing_window(beta2) samples below eps.

    ``last_mean`` is ``math.fsum(window) / len(window)`` to the bit.  The
    window's exact sum is one integer in units of 2**-1074, the smallest
    subnormal, of which every finite float is a whole number; each step adds
    the new sample's units and subtracts the evicted one's, and the integer's
    true division is correctly rounded, like ``math.fsum``.  A non-finite
    sample, or a window sum past the float range, raises NumericalError.
    The detector fires only once the window is full, so a short sample
    cannot fire spuriously.  With ``clip`` = (T_min, T_max) the budget cap
    fires at T_max whatever the window, and the epsilon path also needs
    t > T_min.
    """

    def __init__(self, criterion: SwitchCriterion, beta2: float, eps: float):
        self.window: deque = deque(maxlen=mixing_window(beta2))
        self.field = "z_geom" if criterion.option == "geometric" else "z"  # the sample
        self.eps = eps
        self.clip = criterion.clip
        self.last_mean: float | None = None
        self._total = 0  # the window's exact sum, in units of 2**-1074

    def observe(self, record: StepRecord) -> bool:
        window = self.window
        sample = getattr(record, self.field)
        try:
            if len(window) == window.maxlen:
                self._total -= _units(window[0])
            window.append(sample)
            self._total += _units(sample)
            self.last_mean = self._total / _UNITS_PER_ONE / len(window)
        except (ValueError, OverflowError):
            raise NumericalError(f"non-finite window sum of {self.field} at step {record.step}") from None
        below = len(window) == window.maxlen and self.last_mean < self.eps
        if self.clip is None:
            return below
        t_min, t_max = self.clip
        return record.step >= t_max or (below and record.step > t_min)


class _RelativeDetector:
    """Fires when the l2 variance norm moved by under ``threshold`` of its last value."""

    def __init__(self, criterion: SwitchCriterion):
        self.threshold = criterion.threshold
        self.prev: float | None = None
        self.last_mean = None

    def observe(self, record: StepRecord) -> bool:
        prev, self.prev = self.prev, record.v_l2
        if prev is None or prev <= 0.0:
            # not comparable yet (start of run, or identically-zero gradients)
            return False
        return abs(record.v_l2 - prev) / prev < self.threshold


class _StalenessDetector:
    """Fires when the l1 variance norm is above ``threshold`` times its value a window ago."""

    def __init__(self, criterion: SwitchCriterion, beta2: float):
        self.threshold = criterion.threshold
        self.history: deque = deque(maxlen=mixing_window(beta2) + 1)
        self.last_mean = None

    def observe(self, record: StepRecord) -> bool:
        self.history.append(record.v_l1)
        lagged = self.history[0]
        if len(self.history) < self.history.maxlen or lagged <= 0.0:
            # no lagged value yet, or identically-zero gradients
            return False
        return record.v_l1 / lagged > self.threshold


class _FixedDetector:
    def __init__(self, criterion: SwitchCriterion):
        self.step = criterion.step
        self.last_mean = None

    def observe(self, record: StepRecord) -> bool:
        return record.step >= self.step


def make_detector(criterion: SwitchCriterion, beta2: float, eps: float):
    """Stateful detector for one training run (single-owner, not shareable)."""
    if criterion.kind == "autoswitch":
        return _WindowDetector(criterion, beta2, eps)
    if criterion.kind == "relative":
        return _RelativeDetector(criterion)
    if criterion.kind == "staleness":
        return _StalenessDetector(criterion, beta2)
    return _FixedDetector(criterion)


def evaluate_offline(criterion: SwitchCriterion, records, beta2: float, eps: float) -> int | None:
    """First firing step of a criterion replayed over recorded StepRecords."""
    detector = make_detector(criterion, beta2, eps)
    for record in records:
        if detector.observe(record):
            return record.step
    return None


# ---------------------------------------------------------------------------
# switch-quality metric
# ---------------------------------------------------------------------------


def avg_change_metric_from_diffs(l1_diffs_by_step, t0: int) -> float:
    """Scaled total l1 variance change over the 1001 steps following t0.

    Entry t of ``l1_diffs_by_step`` is ||v_t - v_{t-1}||_1 (entry 0 is
    unused).  The sum runs over the 1001 one-step changes from v_t0 to
    v_{t0 + 1001}, against the 1e-3 scale, whatever beta2: at beta2 = 0.99
    that is ten detector windows.
    """
    if t0 < 0:
        raise RangeError("t0 must be >= 0")
    if len(l1_diffs_by_step) <= t0 + 1001:
        raise RangeError(
            f"profile too short for the metric window: a switch at step {t0} needs "
            f"per-step changes up to step {t0 + 1001}, have {len(l1_diffs_by_step) - 1}"
        )
    return 1e-3 * math.fsum(l1_diffs_by_step[t0 + 1 : t0 + 1002])
