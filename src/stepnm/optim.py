"""Adam optimizer, straight-through gradient transforms and the training recipes.

The two-phase recipe runs plain dense Adam until a switch criterion fires,
freezes the variance accumulator at that point, and then learns masks with
straight-through gradients while the frozen variance keeps scaling the
learning rate.  Single-phase baselines (dense, ste, srste) and the
updated-variance variant share the same driver.

A run holds its parameters, gradients and Adam moments in four ParamBuffers
(see ``models``): one flat float64 array each, laid out as
``models.param_shapes``, with named (out, in) views.  Each step writes the
gradients into their buffer, where a masked step first forms its masked
weights at ``masks.plan_at``'s ratios (``ste_loss_and_grad``), and
``adam_step`` updates the others in place, CHUNK coordinates at a time.  The
model, the update and the STE gradient take ParamBuffers only; anything else
is a DimensionError, never a copy.

``AdamHyper`` is plain data, with one learning rate for every step.

A ``Run`` owns a run's buffers and state: it checks its dataset's targets
once, before the first step, and trains on int64 class ids, whose range
alone each step then checks.  ``Run.step`` checks each step's figures, and
``Run.finish`` frees m and v before the evaluations.  ``recipe_train`` is
its driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .autoswitch import StepRecord, SwitchCriterion, make_detector
from .errors import ConfigError, NumericalError, check_kind
from .masks import CHUNK, DecaySchedule, NMRatio, compute_nm_mask, mask_sparsity, plan_at

# keeps zero coordinates inside the log domain for the geometric option
GEOMETRIC_FLOOR = 1e-30

# what each recipe kind does: whether it masks from step 1, and the AdamState.mode
# its switch sets (None: the kind takes no switch)
RECIPE_KINDS = {"dense": (False, None), "ste": (True, None), "srste": (True, None),
                "step": (False, "frozen"), "step_updated_variance": (False, "raw")}


@dataclass(frozen=True)
class AdamHyper:
    """Adam hyperparameters.  The learning rate is ``lr`` at every step."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr: float = 1e-3

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("learning rate must be positive")
        if not 0.0 <= self.beta1 < 1.0:
            raise ConfigError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 <= self.beta2 < 1.0:
            raise ConfigError(f"beta2 must be in [0, 1), got {self.beta2}")
        if self.eps <= 0.0:
            raise ConfigError(f"eps must be positive, got {self.eps}")


@dataclass
class AdamState:
    """Moment accumulators, the completed-step counter and the denominator's mode.

    ``m`` and ``v`` are ParamBuffers of one layout (DimensionError
    otherwise), which ``adam_step`` updates in place.  ``mode`` is
    "corrected", "raw" or "frozen" (see ``adam_step``); in "frozen", ``v``
    holds sqrt(v* + eps).
    """

    m: models.ParamBuffer
    v: models.ParamBuffer
    t: int = 0
    mode: str = "corrected"

    def __post_init__(self):
        models.check_layout(self.m, "first moment")
        models.check_layout(self.v, "second moment", self.m.shapes)


def init_adam_state(params: models.ParamBuffer) -> AdamState:
    """Zero moments laid out as ``params``, a ParamBuffer."""
    models.check_layout(params, "parameters")
    return AdamState(m=models.ParamBuffer(params.shapes), v=models.ParamBuffer(params.shapes))


def _check_grads(grads: models.ParamBuffer, step: int) -> None:
    if not np.logical_and.reduce(np.isfinite(grads.flat)):  # the ufunc that ndarray.all calls
        name = next(name for name, g in grads.items() if not np.isfinite(g).all())
        raise NumericalError(f"non-finite gradient for {name!r} at step {step}")


def _check_figures(step: int, **figures) -> None:
    for name, value in figures.items():
        if value is not None and not math.isfinite(value):
            raise NumericalError(f"non-finite {name} at step {step}")


def adam_step(state: AdamState, hyper: AdamHyper, params: models.ParamBuffer,
              grads: models.ParamBuffer):
    """One Adam update over the whole flat buffer, in place; returns (state, params).

    ``params``, ``state.m``, a running ``state.v`` and the step counter are
    updated where they are, and a running-v update leaves v_new - v_old in
    ``grads``, for the step's statistics.  Params and grads must be
    ParamBuffers laid out as ``state.m``; anything else raises
    DimensionError.  Once the whole gradient is found finite, the
    operations run CHUNK coordinates at a time, on two chunk-sized
    temporaries made per call, in the order of the plain per-parameter
    expressions, so every bit is theirs.

    Bias correction divides by 1 - beta**k where k counts the gradients
    accumulated so far, so the first step divides by 1 - beta (never zero).
    Epsilon sits inside the square root.  ``state.mode`` picks the denominator
    (any other mode raises ConfigError before a buffer is written):

    * "corrected": sqrt(v / (1 - beta2**k) + eps) with the running v (the dense update);
    * "raw": sqrt(v + eps) with the raw running v (the masked phase of
      step_updated_variance);
    * "frozen": ``state.v`` as it stands (step): sqrt(v* / 1.0 + eps),
      written once at the switch by ``Run.step`` and never again, with
      the raw v* (not bias-corrected) and eps inside the root.  Neither
      convention was checked against the paper's algorithm: PAPER.md holds none.
    """
    if state.mode not in ("corrected", "raw", "frozen"):
        raise ConfigError(f"unknown Adam mode {state.mode!r}")
    k = state.t + 1
    shapes = state.m.shapes
    models.check_layout(params, "parameters", shapes)
    models.check_layout(grads, "gradients", shapes)
    _check_grads(grads, k)
    gamma = hyper.lr
    b1, b2 = hyper.beta1, hyper.beta2
    m_corr = 1.0 - b1**k
    v_corr = 1.0 - b2**k if state.mode == "corrected" else 1.0  # v / 1.0 is exact
    size = params.flat.size
    temp = np.empty(min(size, CHUNK))
    if state.mode != "frozen":
        temp_denom = np.empty(min(size, CHUNK))

    for start in range(0, size, CHUNK):
        chunk = slice(start, start + CHUNK)
        g, m, p = grads.flat[chunk], state.m.flat[chunk], params.flat[chunk]
        scratch = temp[:g.size]
        # m = b1 * m + (1 - b1) * g
        m *= b1
        np.multiply(g, 1.0 - b1, out=scratch)
        m += scratch
        if state.mode == "frozen":
            denom = state.v.flat[chunk]
        else:
            # v_new = b2 * v + (1 - b2) * g * g; the spent g takes v_new - v,
            # v takes v_new, and v_new's scratch becomes the denominator
            v, denom = state.v.flat[chunk], temp_denom[:g.size]
            np.multiply(v, b2, out=denom)
            np.multiply(g, 1.0 - b2, out=scratch)
            scratch *= g
            denom += scratch
            np.subtract(denom, v, out=g)
            v[...] = denom
            denom /= v_corr
            denom += hyper.eps
            np.sqrt(denom, out=denom)
        # params = params - gamma * (m / m_corr) / denom
        np.divide(m, m_corr, out=scratch)
        scratch *= gamma
        scratch /= denom
        p -= scratch
    state.t = k
    return state, params


def variance_stats(v: models.ParamBuffer, dv: models.ParamBuffer) -> tuple[float, float, float, float]:
    """Per-step variance statistics over every parameter: (z, z_geom, v_l1, v_l2).

    ``dv`` holds the per-coordinate change v_t - v_{t-1} that led to ``v``,
    as ``adam_step`` leaves it in the gradient buffer.  z is the mean of
    |dv|; z_geom is the geometric mean of |dv|, floored at a tiny constant
    so zero changes stay defined; v_l1 and v_l2 are the norms of ``v``.
    Both are ParamBuffers of one layout (DimensionError otherwise).  ``v``
    is untouched and ``dv`` is lost.  The passes |dv|, its log, v and v**2
    are each summed per parameter, and the sums added up as Python floats
    in layout order.  Up to CHUNK / 4 coordinates, where calls cost more
    than work, the passes fill the rows of one scratch array and share the
    sum calls; beyond that, each runs in place in ``dv``.
    """
    models.check_layout(v, "variance")
    models.check_layout(dv, "variance change", v.shapes)
    count = v.flat.size
    if 4 * count <= CHUNK:
        changes, logs, v_copy, squares = work = np.empty((4, count))
        np.abs(dv.flat, out=changes)
        np.log(np.maximum(changes, GEOMETRIC_FLOOR, out=logs), out=logs)
        np.copyto(v_copy, v.flat)
        np.square(v.flat, out=squares)
        total_abs, total_log, l1, sq = _layer_sums(work, v.bounds)
    else:
        work = dv.flat
        np.abs(work, out=work)
        total_abs, = _layer_sums(work[None], v.bounds)
        np.log(np.maximum(work, GEOMETRIC_FLOOR, out=work), out=work)
        total_log, = _layer_sums(work[None], v.bounds)
        l1, = _layer_sums(v.flat[None], v.bounds)  # Adam's v is +0 or more everywhere
        np.square(v.flat, out=work)
        sq, = _layer_sums(work[None], v.bounds)
    return total_abs / count, math.exp(total_log / count), l1, math.sqrt(sq)


def _layer_sums(work: np.ndarray, bounds) -> list[float]:
    """Per row of ``work``, its (start, stop) segments' sums, added up as Python floats in order.

    ``np.add.reduce(work[:, start:stop], axis=1)`` gives each row's segment
    the bits of its own ``.sum()``.
    """
    per_segment = [np.add.reduce(work[:, start:stop], axis=1).tolist() for start, stop in bounds]
    return [sum(row, 0.0) for row in zip(*per_segment)]


def _masked_point(params: models.ParamBuffer, ratios: dict[str, NMRatio],
                  point: models.ParamBuffer) -> None:
    """Write the params, the listed layers times their N:M masks, into ``point``."""
    for name, w in params.items():
        target = point[name]
        if name in ratios:
            compute_nm_mask(w, ratios[name], out=target)
            target *= w  # mask * w has the bits of w * mask
        else:
            target[...] = w


def ste_loss_and_grad(spec, params: models.ParamBuffer, ratios: dict[str, NMRatio], batch,
                      lam: float = 0.0, out: models.ParamBuffer | None = None):
    """Straight-through loss and gradient at the masked point; returns (loss, grads).

    ``ratios`` is an N:M plan (see ``masks``).  The forward pass sees
    mask * weights for every listed layer; the returned gradients are
    exactly the gradients at that masked point, applied to all coordinates.
    With lam > 0 (SR-STE) they also get lam * (1 - mask) * weights on the
    listed layers.  The masked point is formed in ``out``, or a new buffer,
    and the gradients then overwrite it there.  Both ``params`` and ``out``
    are ParamBuffers laid out as ``models.param_shapes(spec)``
    (DimensionError otherwise).
    """
    layout = models.param_shapes(spec)
    models.check_layout(params, "parameters", layout)
    out = models.ParamBuffer(layout) if out is None else out
    models.check_layout(out, "gradient buffer", layout)
    _masked_point(params, ratios, out)
    # SR-STE reads its pruned slots off the masked point before the gradients
    # overwrite it.  A zero there is a pruned slot or a kept +-0 weight, whose
    # lam * +-0 has the bits of 0 * +-0, so every bit is lam * (1 - mask) * w's
    pruned = {name: out[name] == 0.0 for name in ratios} if lam > 0.0 else {}
    loss, grads = models.loss_and_grad(spec, out, batch, out=out)
    for name, slots in pruned.items():
        penalty = np.multiply(slots, lam)
        penalty *= params[name]
        grads[name] += penalty
    return loss, grads


@dataclass(frozen=True)
class Recipe:
    """Training recipe: gradient rule, optional stagewise ratio decay and a two-phase kind's switch."""

    kind: str
    lam: float = 0.0
    decay: DecaySchedule | None = None
    switch: SwitchCriterion | None = None

    def __post_init__(self):
        check_kind("recipe", self.kind, RECIPE_KINDS)
        if self.lam < 0:
            raise ConfigError("lam must be >= 0")
        if self.lam > 0 and self.kind != "srste":
            raise ConfigError("lam only applies to the srste recipe")
        if self.decay is not None and self.kind == "dense":
            raise ConfigError("the dense recipe cannot take a decay schedule")
        if RECIPE_KINDS[self.kind][1] is not None and self.switch is None:
            raise ConfigError(f"recipe {self.kind!r} needs a switch section")


@dataclass
class TrainResult:
    """What a run produces: final weights and masks, trajectory and evaluation.

    No Adam state: a frozen v holds sqrt(v* + eps), not v*, and m and v are
    freed before the final evaluation.
    """

    params: models.ParamBuffer
    final_masks: dict[str, np.ndarray]
    switched_at: int | None
    records: list[StepRecord]
    sparse_eval_loss: float
    dense_eval_loss: float
    layer_sparsity: dict[str, float]


class Run:
    """One training run with the given recipe, a step per ``step()``; fully deterministic per seed.

    The constructor checks the dataset's targets once, before any step, and
    builds the run's state.  A recipe whose RECIPE_KINDS entry names a switch
    mode consults its switch after every dense step and sets that mode when
    it fires; a run whose switch never fires stays dense.  Other recipes
    ignore it.  ``finish()`` frees m and v, then evaluates the weights
    densely and under the final masks, made after both evaluations.  ``plan``
    (see ``masks``) and the recipe's decay, which ``masks.plan_at`` applies,
    are taken as valid for the spec, as ExperimentConfig checks them.
    A run holds four ParamBuffers: params, grads, m and v.  ``grads`` holds
    a masked step's masked weights, then every step's gradient, then
    v_t - v_{t-1} for the statistics, and at the end the final masked weights.
    A non-finite gradient, loss or statistic raises NumericalError naming it
    and the step; ``records`` then holds the steps before it.  A caller that
    steps a Run and wants numpy quiet wraps its loop in ``np.errstate`` as
    ``recipe_train`` does.
    """

    def __init__(self, spec: models.ModelSpec, dataset: models.Dataset, hyper: AdamHyper,
                 plan: dict[str, NMRatio], recipe: Recipe, seed: int):
        self.spec, self.hyper, self.plan, self.recipe = spec, hyper, plan, recipe
        self.masked_from_start, self.switch_mode = RECIPE_KINDS[recipe.kind]
        # class ids become int64, which each step's batch then carries
        targets = models.check_targets(spec, dataset.targets, dataset.n_samples)
        self.dataset = models.Dataset(dataset.inputs, targets, dataset.batch_size)
        self.params = models.init_params(spec, (seed, 0))
        self.grads = models.ParamBuffer(self.params.shapes)
        self.state: AdamState | None = init_adam_state(self.params)
        self.batches = models.batch_iterator(self.dataset, (seed, 1))
        self.detector = (make_detector(recipe.switch, hyper.beta2, hyper.eps)
                         if self.switch_mode is not None else None)
        self.switched_at: int | None = None
        self.records: list[StepRecord] = []

    def step(self) -> StepRecord:
        """Run the next step; returns its record, which ``records`` also keeps."""
        t = self.state.t + 1  # adam_step counts the steps done
        batch = next(self.batches)
        in_masked_phase = self.masked_from_start or self.switched_at is not None
        if in_masked_phase and self.plan:
            ratios = plan_at(self.plan, self.recipe.decay, t)
            loss, self.grads = ste_loss_and_grad(self.spec, self.params, ratios, batch,
                                                 lam=self.recipe.lam, out=self.grads)
        else:
            loss, self.grads = models.loss_and_grad(self.spec, self.params, batch, out=self.grads)
        self.state, self.params = adam_step(self.state, self.hyper, self.params, self.grads)
        state = self.state

        z = z_geom = None
        if state.mode != "frozen":
            # adam_step left v_t - v_{t-1} in grads, which the statistics overwrite
            z, z_geom, v_l1, v_l2 = variance_stats(state.v, self.grads)
        else:  # a frozen variance keeps the norms of the step that froze it
            v_l1, v_l2 = self.records[-1].v_l1, self.records[-1].v_l2
        _check_figures(t, loss=loss, z=z, z_geom=z_geom, v_l1=v_l1, v_l2=v_l2)

        record = StepRecord(t, "mask_learning" if in_masked_phase else "precondition", loss,
                            v_l1, v_l2, z, z_geom)
        self.records.append(record)
        detector = self.detector
        if detector is not None and self.switched_at is None:
            fired = detector.observe(record)
            record.z_bar = detector.last_mean
            if fired:
                self.switched_at = record.switched_at = t
                # a frozen v turns, in its own buffer and once, into the
                # denominator sqrt(v* / 1.0 + eps) (v* / 1.0 is exact); a raw
                # running v moves on
                state.mode = self.switch_mode
                if self.switch_mode == "frozen":
                    state.v.flat += self.hyper.eps
                    np.sqrt(state.v.flat, out=state.v.flat)
        return record

    def finish(self) -> TrainResult:
        """Free m and v, then make the final masks and both evaluations; returns the TrainResult."""
        total_steps, params, grads = len(self.records), self.params, self.grads
        self.state = None  # frees m and v; grads takes the final masked weights
        final_ratios = plan_at(self.plan, self.recipe.decay, total_steps)
        _masked_point(params, final_ratios, grads)
        full = self.dataset.full_batch()
        sparse_eval_loss = models.forward_loss(self.spec, grads, full)
        dense_eval_loss = models.forward_loss(self.spec, params, full)
        _check_figures(total_steps, sparse_eval_loss=sparse_eval_loss, dense_eval_loss=dense_eval_loss)
        final_masks = {name: compute_nm_mask(w, final_ratios[name])
                       for name, w in params.items() if name in final_ratios}
        sparsity = {name: mask_sparsity(mask) for name, mask in final_masks.items()}
        return TrainResult(params, final_masks, self.switched_at, self.records, sparse_eval_loss,
                           dense_eval_loss, sparsity)


# every overflowing or invalid figure of a run ends in NumericalError, so numpy stays quiet
@np.errstate(over="ignore", invalid="ignore")
def recipe_train(spec: models.ModelSpec, dataset: models.Dataset, hyper: AdamHyper,
                 plan: dict[str, NMRatio], recipe: Recipe, total_steps: int, seed: int) -> TrainResult:
    """A ``Run`` stepped total_steps times, taken as >= 1, as config_from_dict checks it."""
    run = Run(spec, dataset, hyper, plan, recipe, seed)
    for _ in range(total_steps):
        run.step()
    return run.finish()
