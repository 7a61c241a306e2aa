"""A plain reference trainer for ``optim.recipe_train``, written from the definitions.

It holds parameters, gradients and Adam moments as plain dicts of per-layer
arrays, updates them with the plain numpy expressions, and imports nothing
from stepnm, so a fault in the trainer cannot hide by appearing on both
sides of a comparison.  ``train`` covers MLP classifiers, the five
recipes, the four switch criteria and the stagewise N:M decay.

Conventions the trainer picks, none of them checked against the paper's
algorithm (PAPER.md gives none):

* A classifier scores its logits by the mean softmax cross-entropy.
* Step t draws the t-th batch, takes the gradient, and makes one Adam update
  with the learning rate at t - 1, the steps completed before it.
* Bias correction counts the gradients taken so far, k = t, and eps sits
  inside the square root: p - lr * (m / (1 - b1**t)) / sqrt(v / (1 - b2**t) + eps).
* ``step`` freezes v when the switch fires at step t0 and forms the raw,
  not bias-corrected, sqrt(v* + eps) once; every later step divides by it.
* ``step_updated_variance`` keeps updating v after the switch and divides by
  the raw running sqrt(v + eps).
* ``ste`` and ``srste`` are masked from step 1 and bias-correct v throughout.
* The masked phase starts on the step after the switch.  Its gradient is
  taken at the masked point w * mask and applied to every coordinate (STE);
  ``srste`` adds lam * (1 - mask) * w.  Without a plan it is a dense step.
* The statistics of a step are those of the variance change dv = v_t - v_{t-1}:
  z is the mean of |dv|, z_geom the exp of the mean of log(max(|dv|, 1e-30)),
  v_l1 the sum of v_t and v_l2 its Euclidean norm.  Each is summed per
  parameter with numpy and the sums are added as Python floats in layout
  order (fc1.weight, fc1.bias, fc2.weight, ...).
* Once ``step`` has frozen v, each step repeats the switch step's v_l1 and
  v_l2, with z = z_geom = None.
* The criterion sees the record of every step up to the one it fires on,
  t0, which is the last precondition step.  ``z_bar`` is set on each of
  those steps, t0 included: the autoswitch's window mean, None for the others.
* The autoswitch window holds the last floor(1 / (1 - beta2)) samples of z
  (or z_geom for the geometric option); 1 - beta2 rounds below its real
  value, so the floor takes a 1e-9 nudge (100 at beta2 = 0.99).  It fires
  when the window is full and math.fsum(window) / len(window) < eps.  A
  clip (T_min, T_max) fires at T_max whatever the window, and the window
  rule also needs t > T_min.
* An N:M mask keeps the n largest |w| of every m consecutive weights along
  each weight's input axis: the first n of a stable sort on (-|w|, index),
  with NaN ranked below every number.
* A decay (m, boundaries) replaces the ratio of every planned layer with
  (m - 1):m before the first boundary and max(1, m // 2**s):m once s
  boundaries are at or below the step.  The final masks, and the sparse
  evaluation loss at the final masked weights, use the ratio at total_steps.
* Weights are drawn from default_rng((seed, 0)), N(0, 1 / fan_in), layer by
  layer; biases start at zero.  Batches come from default_rng((seed, 1)), one
  permutation per epoch, and a tail short of a batch is dropped.
"""

from __future__ import annotations

import math

import numpy as np


def init_params(sizes, seed) -> dict:
    rng = np.random.default_rng((seed, 0))
    params = {}
    for i in range(1, len(sizes)):
        params[f"fc{i}.weight"] = rng.normal(0.0, 1.0 / math.sqrt(sizes[i - 1]),
                                             (sizes[i], sizes[i - 1]))
        params[f"fc{i}.bias"] = np.zeros(sizes[i])
    return params


def batches(inputs, targets, batch_size, seed):
    rng = np.random.default_rng((seed, 1))
    n = len(inputs)
    while True:
        order = rng.permutation(n)
        for i in range(n // batch_size):
            idx = order[i * batch_size:(i + 1) * batch_size]
            yield inputs[idx], targets[idx]


def loss_and_grad(params, activation, inputs, targets, backward=True):
    """Mean softmax cross-entropy of the model over integer class ids, and its
    gradients when ``backward``."""
    n_layers = len(params) // 2
    hs = [inputs]  # each layer's input
    for i in range(1, n_layers + 1):
        a = hs[-1] @ params[f"fc{i}.weight"].T + params[f"fc{i}.bias"]
        if i < n_layers:
            hs.append(np.maximum(a, 0.0) if activation == "relu" else np.tanh(a))
    n = len(targets)
    rows = np.arange(n)
    z = a - a.max(axis=1, keepdims=True)
    expz = np.exp(z)
    sumexp = expz.sum(axis=1, keepdims=True)
    loss = float(-(z[rows, targets] - np.log(sumexp[:, 0])).mean())
    if not backward:
        return loss, None
    g = expz / sumexp
    g[rows, targets] -= 1.0
    g = g / n
    grads = {}
    for i in range(n_layers, 0, -1):
        h = hs[i - 1]
        grads[f"fc{i}.weight"] = g.T @ h
        grads[f"fc{i}.bias"] = g.sum(axis=0)
        if i > 1:
            g_in = g @ params[f"fc{i}.weight"]
            g = np.where(h > 0.0, g_in, 0.0) if activation == "relu" else g_in * (1.0 - h * h)
    return loss, {name: grads[name] for name in params}


def nm_mask(w, n: int, m: int) -> np.ndarray:
    keys = -np.fmax(np.abs(w), -1.0).reshape(-1, m)  # NaN -> -1, below every magnitude
    order = np.argsort(keys, axis=1, kind="stable")
    mask = np.zeros(keys.shape)
    np.put_along_axis(mask, order[:, :n], 1.0, axis=1)
    return mask.reshape(w.shape)


def ratios_at(plan: dict, decay, step: int) -> dict:
    if decay is None:
        return plan
    m, boundaries = decay
    stage = sum(1 for b in boundaries if step >= b)
    return dict.fromkeys(plan, (m - 1 if stage == 0 else max(1, m // 2**stage), m))


def masked(params: dict, ratios: dict) -> tuple[dict, dict]:
    """The masked point, and the masks of the planned layers."""
    masks = {name: nm_mask(params[name], *ratio) for name, ratio in ratios.items()}
    return {name: w * masks[name] if name in masks else w for name, w in params.items()}, masks


def statistics(v: dict, dv: dict) -> tuple[float, float, float, float]:
    count = sum(a.size for a in v.values())
    z = sum((float(np.abs(d).sum()) for d in dv.values()), 0.0) / count
    logs = sum((float(np.log(np.maximum(np.abs(d), 1e-30)).sum()) for d in dv.values()), 0.0)
    v_l1 = sum((float(a.sum()) for a in v.values()), 0.0)
    v_l2 = math.sqrt(sum((float((a * a).sum()) for a in v.values()), 0.0))
    return z, math.exp(logs / count), v_l1, v_l2


def fires(switch: dict, records: list, beta2: float, eps: float):
    """(fired, z_bar) for the last of ``records``, the precondition steps so far."""
    window = int(math.floor(1.0 / (1.0 - beta2) + 1e-9))
    record, kind = records[-1], switch["kind"]
    if kind == "fixed":
        return record["step"] >= switch["step"], None
    if kind == "relative":
        prev = records[-2]["v_l2"] if len(records) > 1 else 0.0
        return prev > 0.0 and abs(record["v_l2"] - prev) / prev < switch["threshold"], None
    if kind == "staleness":
        lagged = records[-window - 1]["v_l1"] if len(records) > window else 0.0
        return lagged > 0.0 and record["v_l1"] / lagged > switch["threshold"], None
    sample = "z_geom" if switch["option"] == "geometric" else "z"
    samples = [r[sample] for r in records[-window:]]
    mean = math.fsum(samples) / len(samples)
    below = len(samples) == window and mean < eps
    if switch.get("clip") is None:
        return below, mean
    t_min, t_max = switch["clip"]
    return record["step"] >= t_max or (below and record["step"] > t_min), mean


def train(sizes, activation, inputs, targets, batch_size, *, recipe, total_steps, seed,
          lr=1e-3, cosine=False, beta1=0.9, beta2=0.999, eps=1e-8, lam=0.0, plan=None,
          decay=None, switch=None) -> dict:
    """Train an MLP classifier of ``sizes`` on class ids ``targets``.

    ``plan`` maps weight names to (n, m), ``decay`` is (m, boundaries).
    ``switch`` is a dict: {"kind": "autoswitch", "option": ..., "clip": (T_min, T_max) or
    None}, {"kind": "relative" or "staleness", "threshold": ...} or {"kind": "fixed",
    "step": ...}.  ``cosine`` decays lr to 0 over total_steps as 0.5 lr (1 + cos(pi t / T)).
    Returns the records (dicts of the trajectory fields), both evaluation
    losses, switched_at, the final params and the final masks, and
    ``v_l1_changes``, whose entry t - 1 is ||v_t - v_{t-1}||_1.
    """
    plan = plan or {}
    targets = np.asarray(targets).astype(np.int64)
    params = init_params(sizes, seed)
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    frozen_denom = None
    draw = batches(inputs, targets, batch_size, seed)
    masked_from_start = recipe in ("ste", "srste")
    switched_at = None
    records, v_l1_changes = [], []
    for t in range(1, total_steps + 1):
        x, y = next(draw)
        in_masked_phase = masked_from_start or switched_at is not None
        if in_masked_phase and plan:
            point, masks = masked(params, ratios_at(plan, decay, t))
            loss, grads = loss_and_grad(point, activation, x, y)
            if recipe == "srste":
                for name, mask in masks.items():
                    grads[name] = grads[name] + lam * (1 - mask) * params[name]
        else:
            loss, grads = loss_and_grad(params, activation, x, y)

        gamma = 0.5 * lr * (1.0 + math.cos(math.pi * ((t - 1) / total_steps))) if cosine else lr
        dv = {}
        for name, g in grads.items():
            m[name] = beta1 * m[name] + (1 - beta1) * g
            if frozen_denom is not None:
                denom = frozen_denom[name]
            else:
                v_new = beta2 * v[name] + (1 - beta2) * g * g
                dv[name], v[name] = v_new - v[name], v_new
                if switched_at is None:
                    denom = np.sqrt(v[name] / (1 - beta2**t) + eps)
                else:
                    denom = np.sqrt(v[name] + eps)
            params[name] = params[name] - gamma * (m[name] / (1 - beta1**t)) / denom
        v_l1_changes.append(sum((float(np.abs(d).sum()) for d in dv.values()), 0.0))

        z = z_geom = None
        if frozen_denom is None:
            z, z_geom, v_l1, v_l2 = statistics(v, dv)
        records.append({"step": t, "phase": "mask_learning" if in_masked_phase else "precondition",
                        "loss": loss, "v_l1": v_l1, "v_l2": v_l2, "z": z, "z_geom": z_geom,
                        "z_bar": None, "switched_at": None})
        if recipe in ("step", "step_updated_variance") and switched_at is None:
            fired, records[-1]["z_bar"] = fires(switch, records, beta2, eps)
            if fired:
                switched_at = records[-1]["switched_at"] = t
                if recipe == "step":
                    frozen_denom = {name: np.sqrt(a + eps) for name, a in v.items()}

    point, masks = masked(params, ratios_at(plan, decay, total_steps))
    return {
        "records": records,
        "sparse_eval_loss": loss_and_grad(point, activation, inputs, targets, backward=False)[0],
        "dense_eval_loss": loss_and_grad(params, activation, inputs, targets, backward=False)[0],
        "switched_at": switched_at,
        "params": params,
        "masks": masks,
        "v_l1_changes": v_l1_changes,
    }
