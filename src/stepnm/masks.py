"""N:M mask computation, the check of an N:M plan and the stagewise decay of a plan.

An N:M plan is a dict from parameter names, as in ``models.param_shapes``, to
NMRatios.  Layers absent from it stay dense; only 2-D (out, in) weights may be
listed (``check_plan``).  ``plan_at`` gives the plan in force at a step.

The mask is a rank.  Within a group, slot i outranks a later slot j when
|w_i| >= |w_j| (a later slot needs a strictly larger magnitude), so ties go
to the lower index.  A slot is kept when fewer than n slots outrank it.  NaN
magnitudes are mapped below zero first, which reproduces numpy's stable
argsort order (NaN last) exactly.  Up to SMALL weights, each group is ranked
by two stable argsorts, a few numpy calls in all.  Above it, the rank is
sort-free: the magnitudes are laid out slot-major, (m, groups), a CHUNK of
coordinates at a time, so each compare of slot i against the slots after it
runs over contiguous rows: m - 1 vectorised compares per chunk, which beats
sorting on large tensors but costs about 30 numpy calls per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

CHUNK = 2**15  # coordinates per pass of a chunked elementwise chain: masks, the Adam update
SMALL = 1024  # up to this many weights, two argsorts beat the rank's ~30 numpy calls of overhead


@dataclass(frozen=True)
class NMRatio:
    """Keep n of every m consecutive weights along the innermost axis."""

    n: int
    m: int

    def __post_init__(self):
        if not (1 <= self.n <= self.m):
            raise ConfigError(f"need 1 <= n <= m, got {self.n}:{self.m}")


def compute_nm_mask(weights, ratio: NMRatio, out: np.ndarray | None = None) -> np.ndarray:
    """Binary mask keeping the n largest-magnitude entries of every m-group.

    Ties break toward the lower index, and NaN ranks below every number
    (NaNs among themselves also by lower index), so a mask equals the first
    n slots of the stable sort on (-|w|, index).  See the module docstring
    for the rank that computes it.  A new mask is read-only; with ``out``, a
    writable C-contiguous float64 array of the weights' shape
    (DimensionError otherwise), the mask is written there.
    """
    w = np.ascontiguousarray(weights, dtype=np.float64)
    if w.ndim == 0 or w.shape[-1] % ratio.m != 0:
        extent = w.shape[-1] if w.ndim else 0
        raise DimensionError(f"innermost extent {extent} not divisible by m={ratio.m}")
    if out is not None and not (isinstance(out, np.ndarray) and out.shape == w.shape
                                and out.dtype == np.float64 and out.flags.c_contiguous
                                and out.flags.writeable):
        raise DimensionError(
            f"mask output must be a writable C-contiguous float64 array of shape {w.shape}")
    m = ratio.m
    groups, step = w.size // m, max(1, CHUNK // m)  # step: groups per chunk
    mask = np.empty(w.shape) if out is None else out
    if w.size <= SMALL:
        # a group's stable order on -|w| (NaN as -1), inverted, is each slot's rank; the
        # inverting sort meets no ties, and its stable kind measured faster than the default
        order = np.argsort(-np.fmax(np.abs(w.reshape(groups, m)), -1.0), axis=1, kind="stable")
        np.less(np.argsort(order, axis=1, kind="stable"), ratio.n, out=mask.reshape(groups, m))
    else:
        count = np.min_scalar_type(m)
        mags, ranks = np.empty((m, min(groups, step))), np.empty((m, min(groups, step)), dtype=count)
        for start in range(0, groups, step):
            block = w.reshape(groups, m)[start:start + step]
            # slot-major magnitudes: row i holds slot i of every group, contiguously
            chunk, outranked = mags[:, :len(block)], ranks[:, :len(block)]
            np.abs(block.T, out=chunk)
            np.fmax(chunk, -1.0, out=chunk)  # NaN -> -1, below every magnitude
            # outranked[j] counts the slots that outrank slot j; it starts by assuming
            # every later slot does and corrects that as each slot is compared
            outranked[...] = np.arange(m - 1, -1, -1, dtype=count)[:, None]
            for i in range(m - 1):
                wins = np.greater_equal(chunk[i], chunk[i + 1:])
                outranked[i + 1:] += wins
                outranked[i] -= wins.sum(axis=0, dtype=count)
            np.less(outranked.T, ratio.n, out=mask.reshape(groups, m)[start:start + step])
    mask.flags.writeable = out is not None
    return mask


def mask_sparsity(mask) -> float:
    """Fraction of zeroed coordinates, exactly 1 - n/m for a well-formed mask."""
    p = np.asarray(mask)
    if p.size == 0:
        raise DimensionError("empty mask")
    return float(np.count_nonzero(p == 0.0) / p.size)


def check_plan(ratios: dict[str, NMRatio], shapes: dict[str, tuple[int, ...]]) -> None:
    """ConfigError unless each planned layer is a 2-D weight in ``shapes``, m dividing its last extent."""
    for name, ratio in ratios.items():
        if name not in shapes:
            raise ConfigError(f"sparsity plan references unknown layer {name!r}")
        if len(shapes[name]) != 2:
            raise ConfigError(f"sparsity plan lists {name!r}, which is not an (out, in) weight")
        extent = shapes[name][-1]
        if extent % ratio.m != 0:
            raise ConfigError(
                f"layer {name!r}: innermost extent {extent} not divisible by m={ratio.m}"
            )


@dataclass(frozen=True)
class DecaySchedule:
    """Stagewise N:M decay: stage 0 keeps m-1 of m, stage s keeps max(1, floor(m / 2**s)).

    ``stage_boundaries`` are the steps at which the stage index increments, so
    the kept n is non-increasing over the run; ``plan_at`` applies it.
    """

    m: int
    stage_boundaries: tuple[int, ...] = ()

    def __post_init__(self):
        if self.m < 2:
            raise ConfigError(f"decay schedule needs m >= 2, got {self.m}")
        bounds = tuple(int(b) for b in self.stage_boundaries)
        if any(b <= 0 for b in bounds) or list(bounds) != sorted(set(bounds)):
            raise ConfigError("stage boundaries must be strictly increasing positive steps")
        object.__setattr__(self, "stage_boundaries", bounds)


def plan_at(plan: dict[str, NMRatio], decay: DecaySchedule | None, step: int) -> dict[str, NMRatio]:
    """The N:M plan in force at ``step``: ``plan`` itself without a decay, else
    every planned layer at the decay's ratio for the stage ``step`` is in."""
    if decay is None:
        return plan
    m, stage = decay.m, sum(step >= b for b in decay.stage_boundaries)
    return dict.fromkeys(plan, NMRatio(m - 1 if stage == 0 else max(1, m // 2**stage), m))
