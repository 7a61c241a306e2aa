"""``optim.recipe_train`` against the plain reference trainer, bit for bit.

Every record field, both evaluation losses, the switch step, and the final
parameters and masks must be equal.  The matrix covers the five recipes,
the four switch criteria and the stagewise decay on a relu and a tanh MLP
and on a one-layer classifier,
with beta2 = 0.99 so that the 100-sample windows fill early, plus a few
steps of the benchmark's wide model.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_trainer
from stepnm import harness, models, optim
from stepnm.autoswitch import SwitchCriterion, avg_change_metric_from_diffs, mixing_window
from stepnm.masks import DecaySchedule, NMRatio
from stepnm.optim import AdamHyper, Recipe

STEPS = 160
DECAY = (4, (60, 120))
MODELS = {
    "relu 2-16-2": ((2, 16, 2), "relu", {"fc2.weight": (1, 4)}),
    "tanh 8-32-16-4": ((8, 32, 16, 4), "tanh",
                       {"fc1.weight": (2, 4), "fc2.weight": (1, 4), "fc3.weight": (2, 4)}),
    # one affine layer: the head is the only, and the planned, layer
    "linear 8-3": ((8, 3), "relu", {"fc1.weight": (2, 4)}),
}
# name: (recipe, lam, decay, switch settings, cosine lr)
CASES = {
    "dense": ("dense", 0.0, None, None, False),
    "ste+decay": ("ste", 0.0, DECAY, None, False),
    "srste": ("srste", 2e-4, None, None, False),
    "step/fixed": ("step", 0.0, None, {"kind": "fixed", "step": 80}, False),
    "step/autoswitch+clip": ("step", 0.0, None,
                             {"kind": "autoswitch", "option": "arithmetic", "clip": (40, 120)}, False),
    "step/relative": ("step", 0.0, None, {"kind": "relative", "threshold": 0.5}, False),
    "step/staleness+decay": ("step", 0.0, DECAY, {"kind": "staleness", "threshold": 0.96}, False),
    "step_updated_variance/autoswitch+decay+cosine": (
        "step_updated_variance", 0.0, DECAY,
        {"kind": "autoswitch", "option": "geometric", "clip": (40, 140)}, True),
}


def _train_both(sizes, activation, plan, recipe, lam, decay, switch, cosine, *, steps, eps=1e-8,
                beta2=0.99, lr=5e-3, batch_size=32, seed=1):
    """(recipe_train's result, the reference's) for one run on blobs data."""
    ds = models.DataConfig("blobs", 256, sizes[0], n_classes=sizes[-1], noise_std=0.6,
                           seed=0, batch_size=batch_size).build()
    spec = models.ModelSpec("mlp_classifier", sizes, activation)
    hyper = AdamHyper(beta2=beta2, eps=eps, lr=lr, cosine_steps=steps if cosine else None)
    criterion = None if switch is None else SwitchCriterion(
        **{key: value for key, value in switch.items() if value is not None})
    result = optim.recipe_train(
        spec, ds, hyper, {name: NMRatio(*ratio) for name, ratio in plan.items()},
        Recipe(recipe, lam, None if decay is None else DecaySchedule(*decay), criterion),
        steps, seed)
    reference = reference_trainer.train(
        sizes, activation, ds.inputs, ds.targets, ds.batch_size, recipe=recipe,
        total_steps=steps, seed=seed, lr=lr, cosine=cosine, beta2=beta2, eps=eps, lam=lam,
        plan=plan, decay=decay, switch=switch)
    return result, reference


def _assert_bitwise_equal(result, reference):
    # repr tells -0.0 from 0.0 and writes each float's shortest round-trip
    # digits, so equal reprs are equal bits
    assert repr([vars(r) for r in result.records]) == repr(reference["records"])
    assert repr((result.sparse_eval_loss, result.dense_eval_loss, result.switched_at)) == repr(
        (reference["sparse_eval_loss"], reference["dense_eval_loss"], reference["switched_at"]))
    assert list(result.params) == list(reference["params"])
    for name, p in reference["params"].items():
        assert result.params[name].tobytes() == p.tobytes(), name
    assert list(result.final_masks) == list(reference["masks"])
    for name, mask in reference["masks"].items():
        assert result.final_masks[name].tobytes() == mask.tobytes(), name


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("model", MODELS)
def test_recipe_train_matches_the_reference(model, case):
    result, reference = _train_both(*MODELS[model], *CASES[case], steps=STEPS)
    _assert_bitwise_equal(result, reference)
    if CASES[case][3] is not None:  # every criterion fires inside the run
        assert result.switched_at is not None


def test_autoswitch_fires_by_its_window_before_the_clip():
    """eps = 1e-5 puts the window's mean below eps a few steps after the window fills."""
    sizes, activation, plan = MODELS["relu 2-16-2"]
    t_max = 150
    switch = {"kind": "autoswitch", "option": "arithmetic", "clip": (20, t_max)}
    result, reference = _train_both(sizes, activation, plan, "step", 0.0, None, switch, False,
                                    steps=STEPS, eps=1e-5)
    _assert_bitwise_equal(result, reference)
    t0 = result.switched_at
    assert mixing_window(0.99) < t0 < t_max
    assert result.records[t0 - 1].z_bar < 1e-5 <= result.records[t0 - 2].z_bar


def test_wide_model_matches_the_reference():
    """The benchmark's wide shape, 2:4 on every weight, for a few steps around a fixed switch."""
    plan = {f"fc{i}.weight": (2, 4) for i in (1, 2, 3)}
    result, reference = _train_both((256, 1024, 1024, 10), "relu", plan, "step", 0.0, None,
                                    {"kind": "fixed", "step": 2}, False, steps=3, lr=1e-4,
                                    batch_size=128)
    _assert_bitwise_equal(result, reference)
    assert result.switched_at == 2


def test_final_masks_take_the_plan_at_the_last_step():
    """A decay boundary at total_steps: the plan is 2:4 at step 159 and 1:4 at step 160."""
    sizes, activation, plan = MODELS["tanh 8-32-16-4"]
    result, reference = _train_both(sizes, activation, plan, "ste", 0.0, (4, (60, STEPS)), None,
                                    False, steps=STEPS)
    _assert_bitwise_equal(result, reference)
    for name, mask in result.final_masks.items():
        assert (mask.reshape(-1, 4).sum(axis=1) == 1.0).all(), name


def test_compare_switch_metric_is_the_reference_variance_change(tmp_path):
    """A seed's metric is 1e-3 times the sum of ||v_t - v_{t-1}||_1 over the 1001 steps after t0.

    compare_switch rebuilds each change from its record's mean change z; the
    reference sums |v_t - v_{t-1}| over its own v, so the two agree to rounding.
    """
    sizes, activation, _ = MODELS["relu 2-16-2"]
    steps, t0 = 1101, 100
    doc = {"model": {"kind": "mlp_classifier", "layer_sizes": list(sizes), "activation": activation},
           "data": {"kind": "blobs", "n_samples": 256, "n_features": sizes[0],
                    "n_classes": sizes[-1], "noise_std": 0.6, "seed": 0, "batch_size": 32},
           "optimizer": {"lr": 5e-3, "beta2": 0.99}, "recipe": {"kind": "dense"},
           "total_steps": steps, "seeds": [1], "output_dir": str(tmp_path)}
    config = harness.config_from_dict(doc)
    [row] = harness.compare_switch(config, [SwitchCriterion(kind="fixed", step=t0)])
    assert row["t0"] == t0
    ds = config.data.build()
    reference = reference_trainer.train(sizes, activation, ds.inputs, ds.targets, ds.batch_size,
                                        recipe="dense", total_steps=steps, seed=1, lr=5e-3,
                                        beta2=0.99)
    expected = avg_change_metric_from_diffs([0.0] + reference["v_l1_changes"], t0)
    assert math.isclose(row["avg_change_metric"], expected, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the config layer: one drawn document, read by config_from_dict and by a plain reader
# ---------------------------------------------------------------------------


def _plain_data(data: dict):
    """The inputs, targets and batch size that a ``data`` section describes, drawn with the
    plain numpy expressions: blobs around 3 N(0, 1) centres, one per class, labelled in turn."""
    n, features, noise = data["n_samples"], data["n_features"], data.get("noise_std", 0.1)
    rng = np.random.default_rng(data.get("seed", 0))
    labels = np.arange(n) % data["n_classes"]
    centres = 3.0 * rng.standard_normal((data["n_classes"], features))
    inputs = centres[labels] + noise * rng.standard_normal((n, features))
    return inputs, labels, min(data.get("batch_size", 32), n)


def _plain_switch(switch, total_steps: int):
    """The reference trainer's switch settings for a ``switch`` section, defaults filled in.

    A ratio's step is floor(ratio * total_steps), at least 1; a clip's steps are
    the plain floors of its two ratios.
    """
    if switch is None:
        return None
    plain = dict(switch)
    kind = plain["kind"]
    if kind == "autoswitch":
        plain.setdefault("option", "arithmetic")
        clip = plain.get("clip")
        if clip is not None:
            plain["clip"] = (math.floor(clip["t_min_ratio"] * total_steps),
                             math.floor(clip["t_max_ratio"] * total_steps))
    elif kind in ("relative", "staleness"):
        plain.setdefault("threshold", {"relative": 0.5, "staleness": 0.96}[kind])
    elif "step_ratio" in plain:
        plain["step"] = max(1, math.floor(plain.pop("step_ratio") * total_steps))
    return plain


def _plain_runs(doc: dict) -> list:
    """The reference result of every run that ``doc`` asks of ``run`` and, when it gives
    ``ablation.precondition_ratios``, of ``ablate --kind precondition_length``: cell by
    cell, each over every seed.  A ratio's cell is ``step`` switched at its ratio's step,
    floor(ratio * total_steps) and at least 1, with the plan and no decay."""
    total_steps, model, optimizer = doc["total_steps"], doc["model"], doc["optimizer"]
    inputs, targets, batch_size = _plain_data(doc["data"])
    ablation = doc.get("ablation") or {}
    decay = ablation.get("decay")
    if decay is not None:
        decay = (decay["m"], tuple(decay.get("stage_boundaries", ())))
    recipe = doc["recipe"]
    cells = [(recipe["kind"], recipe.get("lam", 0.0), None if recipe["kind"] == "dense" else decay,
              _plain_switch(doc.get("switch"), total_steps))]
    cells += [("step", 0.0, None, {"kind": "fixed", "step": max(1, math.floor(ratio * total_steps))})
              for ratio in ablation.get("precondition_ratios", ())]
    return [reference_trainer.train(
        model["layer_sizes"], model.get("activation", "relu"), inputs, targets, batch_size,
        recipe=kind, total_steps=total_steps, seed=seed, lr=optimizer.get("lr", 1e-3),
        cosine=optimizer.get("lr_schedule") == "cosine", beta1=optimizer.get("beta1", 0.9),
        beta2=optimizer.get("beta2", 0.999), eps=optimizer.get("eps", 1e-8), lam=lam,
        plan={name: (r["n"], r["m"]) for name, r in (doc.get("sparsity") or {}).items()},
        decay=cell_decay, switch=switch)
        for kind, lam, cell_decay, switch in cells for seed in doc["seeds"]]


def _maybe(draw, section: dict, key: str, values) -> None:
    """Give ``section[key]`` one of ``values``, or leave the key out for its default."""
    if draw(st.booleans()):
        section[key] = draw(st.sampled_from(values))


@st.composite
def config_documents(draw, recipe: str):
    """A small valid config for ``recipe``: every switch kind, decay on and off, at most 60
    steps, and a plan on at least one weight, for a classifier of one to three layers on
    blobs."""
    m = draw(st.sampled_from([2, 4, 8]))
    hidden = draw(st.lists(st.integers(1, 2), max_size=2))
    sizes = [m * draw(st.integers(1, 2)), *(m * h for h in hidden), draw(st.integers(2, 3))]
    model = {"kind": "mlp_classifier", "layer_sizes": sizes}
    _maybe(draw, model, "activation", ["relu", "tanh"])
    data = {"kind": "blobs", "n_classes": sizes[-1],
            "n_samples": draw(st.sampled_from([40, 64])), "n_features": sizes[0]}
    for key, values in (("noise_std", [0.0, 0.5]), ("seed", [0, 3]), ("batch_size", [8, 16])):
        _maybe(draw, data, key, values)
    total_steps = draw(st.integers(8, 60))
    optimizer = {"beta2": draw(st.sampled_from([0.9, 0.99]))}
    for key, values in (("lr", [1e-3, 5e-3]), ("lr_schedule", ["constant", "cosine"]),
                        ("beta1", [0.8]), ("eps", [1e-5])):
        _maybe(draw, optimizer, key, values)
    weights = [f"fc{i}.weight" for i in range(1, len(sizes))]
    planned = draw(st.lists(st.sampled_from(weights), min_size=1, unique=True))
    sparsity = {name: {"n": draw(st.integers(1, m)), "m": m} for name in weights if name in planned}
    doc = {"model": model, "data": data, "optimizer": optimizer, "sparsity": sparsity,
           "recipe": {"kind": recipe}, "total_steps": total_steps,
           "seeds": draw(st.lists(st.integers(0, 5), min_size=1, max_size=2, unique=True))}
    if recipe == "srste":
        _maybe(draw, doc["recipe"], "lam", [0.0, 2e-4])
    if optim.RECIPE_KINDS[recipe][1] or draw(st.booleans()):
        switch = {"kind": draw(st.sampled_from(["fixed", "autoswitch", "relative", "staleness"]))}
        if switch["kind"] == "autoswitch":
            _maybe(draw, switch, "option", ["arithmetic", "geometric"])
            clip = draw(st.sampled_from([None, (0.0, 0.55), (0.1, 0.7), (0.3, 1.0)]))
            if clip is not None:  # each pair's floors are ordered from 8 steps on
                switch["clip"] = {"t_min_ratio": clip[0], "t_max_ratio": clip[1]}
        elif switch["kind"] == "fixed":
            if draw(st.booleans()):
                switch["step"] = draw(st.integers(1, total_steps))
            else:
                switch["step_ratio"] = draw(st.sampled_from([0.05, 0.3, 0.55, 0.7, 1.0]))
        else:
            _maybe(draw, switch, "threshold", [0.3, 0.9])
        doc["switch"] = switch
    ablation = {}
    if draw(st.booleans()):
        boundaries = draw(st.lists(st.integers(1, total_steps), unique=True, max_size=2))
        ablation["decay"] = {"m": m, "stage_boundaries": sorted(boundaries)}
    _maybe(draw, ablation, "precondition_ratios", [[0.3], [0.05, 0.7]])
    if ablation:
        doc["ablation"] = ablation
    return doc


@pytest.mark.parametrize("recipe", optim.RECIPE_KINDS)
@settings(deadline=None, max_examples=10, derandomize=True, database=None)
@given(data=st.data())
def test_config_layer_matches_the_plain_reading(recipe, data, tmp_path_factory):
    """config_from_dict, then the runs of ``run`` and ``ablate --kind precondition_length``
    through harness._train_runs, against ``_plain_runs`` on the same document, bit for bit."""
    doc = data.draw(config_documents(recipe), label="doc")
    config = harness.config_from_dict(doc)
    results = []

    def keeping(*args):
        results.append(optim.recipe_train(*args))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "recipe_train", keeping)
        runs = list(harness._train_runs(config, [("run", config.recipe)]))
        if config.ablation.precondition_ratios:
            out = str(tmp_path_factory.mktemp("ablation"))
            harness.ablation("precondition_length", dataclasses.replace(config, output_dir=out))
    references = _plain_runs(doc)
    assert len(results) == len(references) == len(doc["seeds"]) * (
        1 + len(config.ablation.precondition_ratios))
    for (_, _, figures, records), result in zip(runs, results):  # what _train_runs hands on
        assert figures == (result.sparse_eval_loss, result.dense_eval_loss, result.switched_at)
        assert records is result.records
    for result, reference in zip(results, references):
        _assert_bitwise_equal(result, reference)
