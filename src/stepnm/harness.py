"""Experiment configuration, deterministic run orchestration and the
comparison/ablation drivers.

Configs are YAML (or JSON) documents with nested sections; unknown keys, and
keys that a section's kind does not read, are hard errors so typos fail
before any compute.  ``config_from_dict`` checks each section once and
builds the objects the trainer takes, which the ExperimentConfig holds; the
data section becomes a ``models.DataConfig``, which also builds the dataset.
``load_config`` writes a caller's seeds and output directory into the document
before it is read.  The drivers write only into the config's ``output_dir``,
which ``_train_runs`` checks before any compute: JSONL trajectories and a summary
(``write_json``), or a CSV.  All outputs are byte-reproducible for a fixed (config, seed).
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import autoswitch, models
from .autoswitch import SwitchCriterion, avg_change_metric_from_diffs, evaluate_offline
from .errors import ConfigError, check_kind, listed, shown
from .masks import DecaySchedule, NMRatio, check_plan, plan_at
from .models import DataConfig
from .optim import AdamHyper, Recipe, TrainResult, recipe_train

ABLATION_KINDS = ("precondition_length", "fixed_vs_updated_variance", "decaying_mask")

# compare-switch's default criterion kinds, in order, and the clip ratios of its autoswitch
COMPARISON_KINDS = ("autoswitch", "relative", "staleness")
DEFAULT_CLIP_RATIOS = (0.1, 0.5)

INT_LIMIT = 2**63  # numpy's index range: a larger integer fails in numpy, not as ConfigError


def _take(section: dict, name: str, required=(), optional=()) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r}: {listed(unknown)}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {name!r}: {sorted(missing)}")
    return section


def _take_kind(section, name: str, reads: dict, required=("kind",)) -> dict:
    """``_take``, then ``check_kind`` of the section's kind and of its keys but ``required``."""
    _take(section, name, required, optional=set().union(*reads.values()))
    check_kind(name, section["kind"], reads, set(section) - set(required))
    return section


def _number(value, key: str) -> float:
    """A finite float from a number or a numeric string.

    YAML 1.1 reads exponent floats without a dot, such as ``1e-08`` from
    ``json.dumps``, as strings; they are accepted here.
    """
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    except (TypeError, ValueError):
        number = None
    if number is None or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {shown(value)}")
    return number


def _int(value, key: str) -> int:
    """An integer from an int, an integral float or an integer string."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool) or isinstance(value, float) and number != value:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if number >= INT_LIMIT:
        raise ConfigError(f"{key} must be below 2**63, got {shown(value)}")
    return number


def _each(convert, value, key: str) -> tuple:
    """``convert`` applied to every item of a list."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {shown(value)}")
    return tuple(convert(item, f"{key}[{i}]") for i, item in enumerate(value))


def _given(section: dict, name: str, convert: dict) -> dict:
    """The keys ``section`` gives, in its order, each through its ``convert`` entry, if any."""
    return {key: convert[key](value, f"{name}.{key}") if key in convert else value
            for key, value in section.items()}


# how config_from_dict reads each data key but the kind
DATA_CONVERT = {"noise_std": _number,
                **dict.fromkeys(("n_samples", "n_features", "n_classes", "seed", "batch_size"), _int)}


def _ratio_step(ratio: float, total_steps: int) -> int:
    """The step a share ``ratio`` of the budget falls on, at least 1."""
    return max(1, int(math.floor(ratio * total_steps)))


def _clip_steps(ratios: tuple[float, float], total_steps: int) -> tuple[int, int]:
    """The (T_min, T_max) steps that clip ratios in [0, 1] of the budget fall on.

    SwitchCriterion checks that the steps are ordered.
    """
    for key, ratio in zip(("t_min_ratio", "t_max_ratio"), ratios):
        if not 0.0 <= ratio <= 1.0:
            raise ConfigError(f"switch.clip.{key} must be in [0, 1], got {ratio}")
    lo, hi = ratios
    return int(math.floor(lo * total_steps)), int(math.floor(hi * total_steps))


def _decay(value, key: str) -> DecaySchedule | None:
    """The decay schedule an ``ablation.decay`` section describes, if any."""
    if value is None:
        return None
    d = _take(value, key, required=("m",), optional=("stage_boundaries",))
    return DecaySchedule(**_given(d, key, {"m": _int, "stage_boundaries": partial(_each, _int)}))


@dataclass(frozen=True)
class AblationConfig:
    precondition_ratios: tuple[float, ...] = ()
    decay: DecaySchedule | None = None

    def __post_init__(self):
        for ratio in self.precondition_ratios:  # each a share of the step budget
            if not 0.0 < ratio <= 1.0:
                raise ConfigError(f"ablation.precondition_ratios must be in (0, 1], got {ratio}")


@dataclass(frozen=True)
class ExperimentConfig:
    """What ``config_from_dict`` built, as plain data: two loads of one document compare equal.
    A clip in ``recipe.switch`` holds the steps that ``total_steps`` puts its ratios on."""

    model: models.ModelSpec
    data: DataConfig
    hyper: AdamHyper
    plan: dict[str, NMRatio]
    recipe: Recipe
    total_steps: int
    seeds: tuple[int, ...]
    output_dir: str
    ablation: AblationConfig = field(default_factory=AblationConfig)

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative integers")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ConfigError(f"seed {repeated[0]} is given more than once")
        sizes, data = self.model.layer_sizes, self.data
        if (sizes[0], sizes[-1]) != (data.n_features, data.n_classes):
            raise ConfigError(f"model.layer_sizes must run from data.n_features {data.n_features} "
                              f"to data.n_classes {data.n_classes}, got {sizes}")
        # fail on unknown layers and bad group sizes before any compute; the
        # trainer takes them as checked.  Every stage of a decay keeps its m.
        shapes = models.param_shapes(self.model)
        check_plan(self.plan, shapes)
        check_plan(plan_at(self.plan, self.ablation.decay, 0), shapes)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The checked config that ``doc`` describes; ``switch`` and ``data`` take their kind's
    keys, a key left out takes its dataclass's default, and a recipe of any kind holds the switch."""
    doc = _take(doc, "config",
                required=("model", "data", "optimizer", "recipe", "total_steps", "seeds"),
                optional=("sparsity", "switch", "output_dir", "ablation"))

    m = _take_kind(doc["model"], "model", models.MODEL_KEYS, required=("kind", "layer_sizes"))
    spec = models.ModelSpec(**_given(m, "model", {"layer_sizes": partial(_each, _int)}))

    data = DataConfig(**_given(_take_kind(doc["data"], "data", models.DATA_KEYS), "data", DATA_CONVERT))

    total_steps = _int(doc["total_steps"], "total_steps")
    if total_steps < 1:
        raise ConfigError("total_steps must be >= 1")

    o = _take(doc["optimizer"], "optimizer", required=(),
              optional=("beta1", "beta2", "eps", "lr", "lr_schedule"))
    o = _given(o, "optimizer", dict.fromkeys(("beta1", "beta2", "eps", "lr"), _number))
    lr_schedule = o.pop("lr_schedule", "constant")
    if lr_schedule != "constant":
        raise ConfigError(f"unknown lr schedule {lr_schedule!r}")
    hyper = AdamHyper(**o)

    plan = {}
    sparsity = {} if doc.get("sparsity") is None else doc["sparsity"]
    if not isinstance(sparsity, dict):
        raise ConfigError("section 'sparsity' must be a mapping")
    for layer, ratio in sparsity.items():
        key = f"sparsity.{layer}"
        r = _take(ratio, key, required=("n", "m"))
        plan[str(layer)] = NMRatio(_int(r["n"], f"{key}.n"), _int(r["m"], f"{key}.m"))

    criterion = None
    if doc.get("switch") is not None:
        s = _take_kind(doc["switch"], "switch", autoswitch.CRITERION_KEYS)
        # an empty switch key is one left out
        s = _given({key: value for key, value in s.items() if value is not None}, "switch",
                   {"step": _int, "threshold": _number})
        if "clip" in s:
            c = _take(s["clip"], "switch.clip", required=("t_min_ratio", "t_max_ratio"))
            s["clip"] = _clip_steps((_number(c["t_min_ratio"], "switch.clip.t_min_ratio"),
                                     _number(c["t_max_ratio"], "switch.clip.t_max_ratio")),
                                    total_steps)
        criterion = SwitchCriterion(**s)

    ablation = AblationConfig()
    if doc.get("ablation") is not None:
        a = _take(doc["ablation"], "ablation", required=(),
                  optional=("precondition_ratios", "decay"))
        ablation = AblationConfig(**_given(a, "ablation", {
            "decay": _decay, "precondition_ratios": partial(_each, _number)}))

    r = _take(doc["recipe"], "recipe", required=("kind",), optional=("lam",))
    recipe = Recipe(**_given(r, "recipe", {"lam": _number}),
                    decay=None if r["kind"] == "dense" else ablation.decay, switch=criterion)

    output_dir = "runs" if doc.get("output_dir") is None else doc["output_dir"]
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {shown(output_dir)}")
    return ExperimentConfig(
        model=spec, data=data, hyper=hyper, plan=plan, recipe=recipe,
        total_steps=total_steps, seeds=_each(_int, doc["seeds"], "seeds"), output_dir=output_dir,
        ablation=ablation)


def load_config(path, seeds=(), output_dir=None) -> ExperimentConfig:
    """The config in the YAML (or JSON) file at ``path``, checked and built.

    ``seeds`` (if any) and ``output_dir`` (if given) first replace the document's own, whose
    ``seeds`` must be there.  A file that cannot be opened, decoded as UTF-8 or parsed raises ConfigError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except (OSError, ValueError, yaml.YAMLError) as exc:  # ValueError: not UTF-8, or a bad date
        reason = getattr(exc, "strerror", None) or " ".join(str(exc).split())
        raise ConfigError(f"cannot read config {path}: {reason}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a mapping document")
    if seeds and "seeds" in doc:
        doc["seeds"] = list(seeds)
    if output_dir is not None:
        doc["output_dir"] = str(output_dir)
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# trajectory persistence
# ---------------------------------------------------------------------------


def write_trajectory(path, result: TrainResult) -> None:
    """One self-describing JSON record per step, then a final evaluation record.

    A step line holds "kind" and then the StepRecord's fields, in order.  It
    is the bytes of ``json.dumps({"kind": "step", **vars(r)})``, written from
    one template: a float as ``float.__repr__``, which ``json`` uses (an
    np.float64's own repr is not), and None as null.  The trainer checks
    every figure finite, and its phase names need no escaping.
    """
    def num(x):
        return "null" if x is None else float.__repr__(x)

    with open(path, "w") as fh:
        for r in result.records:
            fh.write(f'{{"kind": "step", "step": {r.step}, "phase": "{r.phase}", '
                     f'"loss": {float.__repr__(r.loss)}, "v_l1": {float.__repr__(r.v_l1)}, '
                     f'"v_l2": {float.__repr__(r.v_l2)}, "z": {num(r.z)}, '
                     f'"z_geom": {num(r.z_geom)}, "z_bar": {num(r.z_bar)}, '
                     f'"switched_at": {"null" if r.switched_at is None else r.switched_at}}}\n')
        fh.write(json.dumps({
            "kind": "final",
            "sparse_eval_loss": result.sparse_eval_loss,
            "dense_eval_loss": result.dense_eval_loss,
            "mask_sparsity": result.layer_sparsity,
            "switched_at": result.switched_at,
        }) + "\n")


def check_output_dir(path) -> None:
    """ConfigError unless ``path`` is not empty and it, or its nearest existing ancestor, is a directory."""
    if not str(path):  # Path('') is the current directory
        raise ConfigError("output directory must not be empty")
    out = Path(path)
    try:
        existing = next((p for p in (out, *out.parents) if p.exists()), None)
    except OSError as exc:  # such as a name too long to look up
        raise ConfigError(f"cannot write to output directory {out}: {exc.strerror or exc}") from None
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"cannot write to output directory {out}: {existing} is not a directory")


def make_output_dir(path) -> Path:
    """Make the directory ``path`` and its parents; ConfigError if it cannot be one."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {out}: {exc.strerror or exc}") from None
    return out


def write_json(directory, name: str, doc: dict) -> Path:
    """Write ``doc`` as indented, key-sorted JSON to ``directory/name``, made first; return the path."""
    path = make_output_dir(directory) / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _train_runs(config: ExperimentConfig, cells, trajectories=False):
    """Train every seed of every (label, recipe) cell, in order, on one dataset.

    ``config.output_dir`` is checked first, and then the dataset is built
    once, here.  Yields (label, seed, figures, records) for each run, with
    figures (sparse_eval_loss, dense_eval_loss, switched_at); the run's
    TrainResult is dropped before it is yielded, so no two are alive at once.
    With ``trajectories``, each run's trajectory is written into
    ``config.output_dir`` as soon as it has trained, as
    ``trajectory_seed<k>.jsonl``; the directory is made only then.
    """
    check_output_dir(config.output_dir)
    dataset = config.data.build()
    for label, recipe in cells:
        for seed in config.seeds:
            result = recipe_train(config.model, dataset, config.hyper, config.plan, recipe,
                                  config.total_steps, seed)
            if trajectories:
                write_trajectory(make_output_dir(config.output_dir) / f"trajectory_seed{seed}.jsonl", result)
            figures = (result.sparse_eval_loss, result.dense_eval_loss, result.switched_at)
            records = result.records
            del result
            yield label, seed, figures, records


def run(config: ExperimentConfig) -> dict:
    """Train every seed of the config in turn; write trajectories and a summary, and return it.

    Every seed trains on the one dataset the command builds.  Each seed's
    trajectory is written as soon as it has trained, and only the figures of
    the summary are kept from it.
    """
    out = Path(config.output_dir)
    runs = _train_runs(config, [("run", config.recipe)], trajectories=True)
    sparse, dense, switched = zip(*(figures for _, _, figures, _ in runs))
    summary = {
        "n_seeds": len(config.seeds),
        "seeds": list(config.seeds),
        "sparse_eval_loss_mean": statistics.fmean(sparse),
        "sparse_eval_loss_std": statistics.pstdev(sparse),
        "dense_eval_loss_mean": statistics.fmean(dense),
        "dense_eval_loss_std": statistics.pstdev(dense),
        "switched_at": list(switched),
        "trajectory_files": [str(out / f"trajectory_seed{seed}.jsonl") for seed in config.seeds],
    }
    write_json(out, "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# switch-criterion comparison
# ---------------------------------------------------------------------------


def default_comparison_criteria(total_steps: int, kinds=COMPARISON_KINDS) -> list[SwitchCriterion]:
    """The default criterion of each kind in ``kinds``, in order; ConfigError for an unknown kind."""
    for kind in kinds:
        check_kind("criterion", kind, COMPARISON_KINDS)
    clip = _clip_steps(DEFAULT_CLIP_RATIOS, total_steps)
    return [SwitchCriterion(kind=kind, clip=clip if kind == "autoswitch" else None) for kind in kinds]


def compare_switch(config: ExperimentConfig, criteria: list[SwitchCriterion]) -> list[dict]:
    """Profile dense runs and score each criterion's switch point offline.

    One dense profile per seed, all on the one dataset the command builds;
    every criterion is replayed over the recorded statistics and scored by
    the average variance change over the following 1001 steps (lower is
    better).  Criteria that never fire get a no-switch row.  The rows are
    returned and written to ``compare_switch.csv`` in ``config.output_dir``.
    A budget below 1002 steps, too short to score even a switch at step 1, fails before training.
    """
    if not criteria:
        raise ConfigError("compare_switch needs at least one criterion")
    if config.total_steps < 1002:
        avg_change_metric_from_diffs([0.0] * (config.total_steps + 1), 1)  # raises RangeError
    d = sum(int(np.prod(shape)) for shape in models.param_shapes(config.model).values())
    rows = []
    for _, seed, _, records in _train_runs(config, [("dense", Recipe("dense"))]):
        # entry t is ||v_t - v_{t-1}||_1, reconstructed from the mean-change sample
        diffs = [0.0] + [r.z * d for r in records]
        for criterion in criteria:
            t0 = evaluate_offline(criterion, records, config.hyper.beta2, config.hyper.eps)
            metric = None if t0 is None else avg_change_metric_from_diffs(diffs, t0)
            rows.append({"seed": seed, "criterion": criterion.label(), "t0": t0,
                         "avg_change_metric": metric,
                         "note": "no-switch" if t0 is None else ""})
    _write_rows_csv(make_output_dir(config.output_dir) / "compare_switch.csv", rows,
                    ("seed", "criterion", "t0", "avg_change_metric", "note"))
    return rows


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------


def ablation(kind: str, config: ExperimentConfig) -> list[dict]:
    """Run one ablation matrix over the config's seeds, every cell on one dataset.

    precondition_length forces switch points at the configured ratios of the
    budget; fixed_vs_updated_variance contrasts frozen and running variance in
    the masked phase; decaying_mask contrasts the stagewise-decay recipe with
    and without its dense warmup.  The cells train in turn, each over every seed, and
    the rows are returned and written to ``ablation_<kind>.csv`` in ``config.output_dir``.
    """
    check_kind("ablation", kind, ABLATION_KINDS)
    cells: list[tuple[str, Recipe]] = []
    switch = config.recipe.switch

    if kind == "precondition_length":
        ratios = config.ablation.precondition_ratios
        if not ratios:
            raise ConfigError("precondition_length needs ablation.precondition_ratios")
        for ratio in ratios:
            t0 = _ratio_step(ratio, config.total_steps)
            cells.append((f"ratio={ratio}", Recipe("step", switch=SwitchCriterion(kind="fixed", step=t0))))
    elif kind == "fixed_vs_updated_variance":
        cells.append(("fixed_variance", Recipe("step", switch=switch)))
        cells.append(("updated_variance", Recipe("step_updated_variance", switch=switch)))
    else:
        decay = config.ablation.decay
        if decay is None:
            raise ConfigError("decaying_mask needs ablation.decay")
        cells.append(("with_dense_phase", Recipe("step_updated_variance", decay=decay, switch=switch)))
        cells.append(("without_dense_phase", Recipe("ste", decay=decay)))

    columns = ("cell", "seed", "sparse_eval_loss", "dense_eval_loss", "switched_at")
    rows = [dict(zip(columns, (label, seed) + figures))
            for label, seed, figures, _ in _train_runs(config, cells)]
    _write_rows_csv(make_output_dir(config.output_dir) / f"ablation_{kind}.csv", rows, columns)
    return rows


def _write_rows_csv(path, rows, columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        writer.writerows(rows)
