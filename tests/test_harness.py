import csv
import dataclasses
import inspect
import json
import math
import re
import statistics
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from stepnm import autoswitch, harness, models, optim, theory
from stepnm.autoswitch import StepRecord, SwitchCriterion
from stepnm.masks import DecaySchedule
from stepnm.cli import entry as cli_entry
from stepnm.cli import main as cli_main
from stepnm.errors import (ConfigError, NumericalError, RangeError, ToolkitError, check_kind,
                           shown)

BASE_CONFIG = {
    "model": {"kind": "mlp_classifier", "layer_sizes": [2, 16, 2], "activation": "relu"},
    "data": {
        "kind": "blobs", "n_samples": 256, "n_features": 2, "n_classes": 2,
        "noise_std": 0.6, "seed": 0, "batch_size": 32,
    },
    "optimizer": {"lr": 0.005, "beta2": 0.999},
    "sparsity": {"fc2.weight": {"n": 1, "m": 4}},
    "recipe": {"kind": "step"},
    "switch": {"kind": "autoswitch", "clip": {"t_min_ratio": 0.1, "t_max_ratio": 0.5}},
    "total_steps": 120,
    "seeds": [1, 2],
    "output_dir": "runs",
}
# BASE_CONFIG's switch: the clip ratios 0.1 and 0.5 of 120 steps
BASE_SWITCH = SwitchCriterion(kind="autoswitch", clip=(12, 60))


def make_config(tmp_path, **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))  # deep copy
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path, doc


def exits_2_before_any_work(monkeypatch, capsys, argv, message, out):
    """``stepnm *argv --out out`` exits 2 with the stderr ``error: <message>``, before it builds
    data, trains, runs the Monte Carlo or makes ``out``."""
    calls = []
    monkeypatch.setattr(models.DataConfig, "build", lambda *a, **k: calls.append("build"))
    monkeypatch.setattr(harness, "recipe_train", lambda *a, **k: calls.append("recipe_train"))
    monkeypatch.setattr(theory, "validate_theorem", lambda *a, **k: calls.append("validate_theorem"))
    monkeypatch.setattr("sys.argv", ["stepnm", *argv, "--out", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        cli_entry()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == [] and not out.exists()


class TestConfigParsing:
    def test_load_round_trip(self, tmp_path):
        path, _ = make_config(tmp_path)
        config = harness.load_config(path)
        assert config.total_steps == 120
        assert config.seeds == (1, 2)
        assert config.plan["fc2.weight"].m == 4
        assert config.recipe.switch.clip == (12, 60)  # the clip ratios 0.1 and 0.5 of 120 steps

    def test_unknown_top_level_key(self, tmp_path):
        path, _ = make_config(tmp_path, optimiser={"lr": 0.1})
        with pytest.raises(ConfigError, match="optimiser"):
            harness.load_config(path)

    def test_empty_output_dir_means_runs(self, tmp_path):
        path, _ = make_config(tmp_path)
        path.write_text(path.read_text().replace("output_dir: runs", "output_dir:"))
        assert harness.load_config(path).output_dir == "runs"

    @pytest.mark.parametrize("value", ["[a, b]", "5", "{a: b}"])
    def test_non_string_output_dir(self, tmp_path, value):
        path, _ = make_config(tmp_path)
        path.write_text(path.read_text().replace("output_dir: runs", f"output_dir: {value}"))
        with pytest.raises(ConfigError, match="^output_dir must be a string"):
            harness.load_config(path)

    def test_empty_string_output_dir(self, tmp_path):
        # Path('') is the current directory, so an empty output_dir would mix
        # a run's files into whatever is there
        path, _ = make_config(tmp_path)
        path.write_text(path.read_text().replace("output_dir: runs", "output_dir: ''"))
        with pytest.raises(ConfigError, match="^output_dir must not be empty"):
            harness.load_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path, _ = make_config(tmp_path, recipe={"kind": "step", "lambda_": 0.1})
        with pytest.raises(ConfigError, match="lambda_"):
            harness.load_config(path)

    def test_unknown_recipe_name(self, tmp_path):
        path, _ = make_config(tmp_path, recipe={"kind": "sgd"})
        with pytest.raises(ConfigError, match="sgd"):
            harness.load_config(path)

    def test_unknown_plan_layer_fails_before_compute(self, tmp_path):
        path, _ = make_config(tmp_path, sparsity={"fc9.weight": {"n": 1, "m": 4}})
        with pytest.raises(ConfigError, match="fc9.weight"):
            harness.load_config(path)

    def test_planned_bias_fails_before_compute(self, tmp_path):
        path, _ = make_config(tmp_path, sparsity={"fc1.bias": {"n": 1, "m": 2}})
        with pytest.raises(ConfigError, match="fc1.bias"):
            harness.load_config(path)

    def test_bad_divisibility_fails_before_compute(self, tmp_path):
        path, _ = make_config(tmp_path, sparsity={"fc1.weight": {"n": 1, "m": 4}})
        # fc1.weight is (16, 2): innermost extent 2 is not divisible by 4
        with pytest.raises(ConfigError, match="fc1.weight"):
            harness.load_config(path)

    def test_empty_seeds(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[])
        with pytest.raises(ConfigError, match="seeds"):
            harness.load_config(path)

    def test_switch_step_ratio(self, tmp_path):
        path, _ = make_config(tmp_path, switch={"kind": "fixed", "step_ratio": 0.25})
        config = harness.load_config(path)
        assert config.recipe.switch.step == 30

    def test_a_step_ratio_floors_to_its_step(self, tmp_path):
        # 0.3 of 1001 steps is 300.3
        path, _ = make_config(tmp_path, total_steps=1001,
                              switch={"kind": "fixed", "step_ratio": 0.3})
        assert harness.load_config(path).recipe.switch.step == 300

    def test_clip_ratios_floor_to_their_steps(self, tmp_path):
        # 0.1 and 0.55 of 1001 steps are 100.1 and 550.55
        clip = {"t_min_ratio": 0.1, "t_max_ratio": 0.55}
        path, _ = make_config(tmp_path, total_steps=1001, switch={"kind": "autoswitch", "clip": clip})
        assert harness.load_config(path).recipe.switch.clip == (100, 550)


class TestRecipeConfig:
    def test_recipe_built_at_load(self, tmp_path):
        decay = {"decay": {"m": 4, "stage_boundaries": [60]}}
        path, _ = make_config(tmp_path, ablation=decay)
        assert harness.load_config(path).recipe == optim.Recipe("step", decay=DecaySchedule(4, (60,)),
                                                                switch=BASE_SWITCH)
        # every kind holds the config's switch, which only the two-phase kinds read
        path, _ = make_config(tmp_path, recipe={"kind": "dense"}, ablation=decay)
        assert harness.load_config(path).recipe == optim.Recipe("dense", switch=BASE_SWITCH)
        path, _ = make_config(tmp_path, recipe={"kind": "srste", "lam": 0.01}, switch=None)
        assert harness.load_config(path).recipe == optim.Recipe("srste", lam=0.01)

    @pytest.mark.parametrize("recipe", [{"kind": "srste", "lam": -0.1}, {"kind": "ste", "lam": 0.1}])
    def test_bad_lam_fails_at_load(self, tmp_path, recipe):
        path, _ = make_config(tmp_path, recipe=recipe)
        with pytest.raises(ConfigError, match="lam"):
            harness.load_config(path)

    def test_unknown_data_kind(self, tmp_path):
        path, _ = make_config(tmp_path, data={"kind": "images"})
        with pytest.raises(ConfigError, match="images"):
            harness.load_config(path)

    @pytest.mark.parametrize("recipe", ["step", "dense"])
    def test_decay_m_must_divide_every_planned_layer_at_load(self, tmp_path, recipe):
        # fc2.weight is (2, 16): a decay over groups of 3 cannot mask it
        path, _ = make_config(tmp_path, recipe={"kind": recipe},
                              ablation={"decay": {"m": 3, "stage_boundaries": [60]}})
        with pytest.raises(ConfigError, match="fc2.weight"):
            harness.load_config(path)

    def test_decay_m_below_two_exits_2(self, tmp_path, monkeypatch, capsys):
        path, _ = make_config(tmp_path, ablation={"decay": {"m": 1, "stage_boundaries": [60]}})
        out = tmp_path / "out"
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path), "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == "error: decay schedule needs m >= 2, got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("recipe", [kind for kind, (_, mode) in optim.RECIPE_KINDS.items() if mode])
    def test_two_phase_recipe_needs_a_switch_at_load(self, tmp_path, monkeypatch, capsys, recipe):
        path, _ = make_config(tmp_path, recipe={"kind": recipe}, switch=None)
        with pytest.raises(ConfigError, match=f"recipe '{recipe}' needs a switch section"):
            harness.load_config(path)
        out = tmp_path / "out"
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path), "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert "needs a switch section" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", [[], [-1], [3, 3], "three"])
    def test_a_missing_switch_is_named_before_bad_seeds(self, tmp_path, seeds):
        # the recipe is built, and checks its switch, before the seeds are read
        path, _ = make_config(tmp_path, seeds=seeds, switch=None)
        with pytest.raises(ConfigError, match="^recipe 'step' needs a switch section$"):
            harness.load_config(path)
        path, _ = make_config(tmp_path, seeds=seeds)
        with pytest.raises(ConfigError, match="^seed"):
            harness.load_config(path)

    def test_the_recipe_alone_holds_the_switch(self):
        assert [f.name for f in dataclasses.fields(harness.ExperimentConfig)] == [
            "model", "data", "hyper", "plan", "recipe", "total_steps", "seeds", "output_dir",
            "ablation"]

    def test_loaded_config_holds_the_validated_objects(self, tmp_path):
        path, _ = make_config(tmp_path, optimizer={"lr": 0.005, "lr_schedule": "cosine"},
                              ablation={"decay": {"m": 4, "stage_boundaries": [60]}})
        config = harness.load_config(path)
        assert config.recipe.switch.clip == (12, 60)
        assert config.recipe == optim.Recipe("step", decay=DecaySchedule(4, (60,)), switch=BASE_SWITCH)
        assert config.ablation == harness.AblationConfig(decay=DecaySchedule(4, (60,)))
        assert config.hyper == optim.AdamHyper(lr=0.005, cosine_steps=120)
        for t in (0, 1, 37, 60, 119, 120, 500):
            cosine = 0.5 * 0.005 * (1.0 + math.cos(math.pi * (min(t, 120) / 120)))
            assert config.hyper.lr_at(t).hex() == cosine.hex()
        assert config.hyper.lr_at(60) != config.hyper.lr_at(0)  # it is the cosine


# the (kind, key) pairs a switch section may not hold: each kind reads only some of its
# section's keys
UNREAD_SWITCH_KEYS = [
    ("autoswitch", "threshold"), ("autoswitch", "step"), ("autoswitch", "step_ratio"),
    *[(kind, key) for kind in ("relative", "staleness")
      for key in ("option", "clip", "step", "step_ratio")],
    ("fixed", "option"), ("fixed", "threshold"), ("fixed", "clip"),
]
# a value for each key that the kinds reading it accept
SWITCH_VALUES = {"option": "arithmetic", "threshold": 0.5, "step": 30, "step_ratio": 0.25,
                 "clip": {"t_min_ratio": 0.1, "t_max_ratio": 0.5}}
DATA_VALUES = {"n_samples": 64, "n_features": 2, "n_classes": 2, "noise_std": 0.1, "seed": 0,
               "batch_size": 16}
# another value of each data key, and of each model and optimizer key (BASE_CONFIG's or
# the default)
CHANGED_DATA_VALUES = {"n_samples": 48, "n_features": 3, "n_classes": 3, "noise_std": 0.5,
                       "seed": 1, "batch_size": 8}
CHANGED_RUN_VALUES = {("model", "layer_sizes"): [2, 8, 2], ("model", "activation"): "tanh",
                      ("optimizer", "lr"): 0.002, ("optimizer", "beta1"): 0.8,
                      ("optimizer", "beta2"): 0.99, ("optimizer", "eps"): 1e-5,
                      ("optimizer", "lr_schedule"): "cosine"}

# a bad value of each data field, and its message
BAD_DATA = [
    ({"kind": "spiral"}, "unknown data kind 'spiral'"),
    ({"kind": "blobs", "n_samples": 0}, "data.n_samples must be >= 1, got 0"),
    ({"kind": "blobs", "n_samples": -3}, "data.n_samples must be >= 1, got -3"),
    ({"kind": "blobs", "n_classes": 1}, "data.n_classes must be >= 2 for blobs, got 1"),
    ({"kind": "blobs", "noise_std": -0.5}, "data.noise_std must be >= 0, got -0.5"),
    ({"kind": "blobs", "n_features": 0}, "data.n_features must be >= 1, got 0"),
    ({"kind": "blobs", "batch_size": 0}, "data.batch_size must be >= 1, got 0"),
    ({"kind": "blobs", "seed": -1}, "data.seed must be >= 0, got -1"),
]


class TestDataConfig:
    def test_harness_reads_the_class_models_defines(self):
        assert harness.DataConfig is models.DataConfig
        for gone in ("gen_synthetic", "load_csv", "check_synthetic", "open_csv", "DATA_KINDS",
                     "_open_csv", "_read_csv"):
            assert not hasattr(models, gone)

    @pytest.mark.parametrize("fields,message", BAD_DATA, ids=[m for _, m in BAD_DATA])
    def test_made_directly_or_loaded_a_bad_field_gives_one_message(self, fields, message):
        message = re.escape(message)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            models.DataConfig(**fields)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            harness.config_from_dict({**BASE_CONFIG, "data": fields})


class TestKeysByKind:
    @pytest.mark.parametrize("kind,key", UNREAD_SWITCH_KEYS)
    def test_switch_key_its_kind_does_not_read(self, kind, key):
        switch = {"kind": kind, key: SWITCH_VALUES[key]}
        if kind == "fixed":
            switch["step"] = 30
        doc = {**BASE_CONFIG, "switch": switch}
        with pytest.raises(ConfigError, match=rf"switch kind '{kind}' does not read \['{key}'\]"):
            harness.config_from_dict(doc)

    def test_each_kind_loads_the_keys_it_reads(self):
        assert len(UNREAD_SWITCH_KEYS) == len(set(UNREAD_SWITCH_KEYS)) == 14
        for kind in ("autoswitch", "relative", "staleness", "fixed"):
            switch = {"kind": kind, **{key: value for key, value in SWITCH_VALUES.items()
                                       if (kind, key) not in UNREAD_SWITCH_KEYS}}
            if kind == "fixed":  # step and step_ratio are two ways to say one thing
                del switch["step_ratio"]
            assert harness.config_from_dict({**BASE_CONFIG, "switch": switch}).recipe.switch.kind == kind
        data = {"kind": "blobs", **DATA_VALUES}
        assert harness.config_from_dict({**BASE_CONFIG, "data": data}).data == models.DataConfig(**data)

    @pytest.mark.parametrize("key", CHANGED_DATA_VALUES)
    def test_each_data_key_reaches_the_dataset(self, key):
        """A data key that loads but that ``build`` ignored would go unnoticed: each one,
        changed alone, changes the dataset drawn."""
        def drawn(data):
            doc = {**BASE_CONFIG, "data": data, "sparsity": None,
                   "model": {"kind": "mlp_classifier",
                             "layer_sizes": [data["n_features"], 16, data["n_classes"]]}}
            ds = harness.config_from_dict(doc).data.build()
            return ds.inputs.shape, ds.inputs.tobytes(), ds.targets.tobytes(), ds.batch_size

        data = {"kind": "blobs", **DATA_VALUES}
        assert drawn({**data, key: CHANGED_DATA_VALUES[key]}) != drawn(data)

    @pytest.mark.parametrize("section, key", CHANGED_RUN_VALUES,
                             ids=[f"{section}.{key}" for section, key in CHANGED_RUN_VALUES])
    def test_each_model_and_optimizer_key_reaches_the_run(self, tmp_path, section, key):
        """Each model and optimizer key, changed alone, changes what ``run`` trains."""
        def trained(doc):
            config = harness.config_from_dict({**doc, "total_steps": 20, "seeds": [1],
                                               "output_dir": str(tmp_path / "out")})
            [(_, _, figures, records)] = harness._train_runs(config, [("run", config.recipe)])
            return repr((figures, [vars(record) for record in records]))

        doc = json.loads(json.dumps(BASE_CONFIG))
        doc[section][key] = CHANGED_RUN_VALUES[section, key]
        assert trained(BASE_CONFIG) == trained(BASE_CONFIG) != trained(doc)

    @pytest.mark.parametrize("section", ["switch", "data", "model", "stream"])
    @pytest.mark.parametrize("kind", [[], {}, None, 3, "oracle"])
    def test_a_bad_kind_fails_as_the_kind(self, section, kind):
        """A kind that no table lists, or that is not a string, hashable or not, is unknown.

        ``stream`` is the theorem validator's stream, which no config section builds.
        """
        with pytest.raises(ConfigError, match=rf"^unknown {section} kind {re.escape(repr(kind))}$"):
            if section == "stream":
                theory.StationaryStream(kind=kind, bound=1.0)
            else:
                sizes = {"layer_sizes": [2, 16, 2]} if section == "model" else {}
                harness.config_from_dict({**BASE_CONFIG, section: {"kind": kind, **sizes}})

    def test_unread_keys_are_listed_sorted_as_text(self):
        switch = {"kind": "fixed", "step": 3, "threshold": 0.5, "option": "arithmetic"}
        with pytest.raises(ConfigError,
                           match=r"^switch kind 'fixed' does not read \['option', 'threshold'\]$"):
            harness.config_from_dict({**BASE_CONFIG, "switch": switch})
        with pytest.raises(ConfigError, match=r"^switch kind 'fixed' does not read \[1, 'a'\]$"):
            check_kind("switch", "fixed", autoswitch.CRITERION_KEYS, ["step", "a", 1])

    def test_cli_exits_2_before_any_data_or_output(self, tmp_path, monkeypatch, capsys):
        switch = {"kind": "autoswitch", "threshold": 1.0,
                  "clip": {"t_min_ratio": 0.1, "t_max_ratio": 0.5}}
        path, _ = make_config(tmp_path, switch=switch)
        out = tmp_path / "out"
        monkeypatch.setattr(models.DataConfig, "build", lambda *a, **k: pytest.fail("data was built"))
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path), "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            "error: switch kind 'autoswitch' does not read ['threshold']\n")
        assert not out.exists()


class TestOptimizerNumbers:
    def test_json_dumps_exponent_floats_load_and_run(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc.update(seeds=[1], total_steps=30, output_dir=str(tmp_path / "out"),
                   optimizer={"lr": 5e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-08})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert '"eps": 1e-08' in path.read_text()
        config = harness.load_config(path)
        assert config.hyper.eps == 1e-8 and config.hyper.lr_at(0) == 5e-3
        harness.run(config)
        assert (tmp_path / "out" / "trajectory_seed1.jsonl").exists()

    @pytest.mark.parametrize("slot", [("optimizer", "lr"), ("data", "noise_std"),
                                      ("switch", "clip", "t_max_ratio")])
    def test_int_beyond_the_float_range_exits_2(self, tmp_path, monkeypatch, capsys, slot):
        doc = json.loads(json.dumps(BASE_CONFIG))
        section = doc
        for key in slot[:-1]:
            section = section[key]
        section[slot[-1]] = 10**400
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert "1" + "0" * 400 in path.read_text()  # a YAML int, which float() cannot take
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path),
                                         "--out", str(tmp_path / "out")])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: {'.'.join(slot)} must be finite, got {10**400}\n"

    @pytest.mark.parametrize("slot,flags,message", [
        (("total_steps",), [], f"total_steps must be below 2**63, got {10**400}"),
        (("seeds",), [], f"seeds[0] must be below 2**63, got {10**400}"),
        (("data", "n_samples"), [], f"data.n_samples must be below 2**63, got {10**400}"),
        ((), ["--seed", str(10**300)], f"seeds[0] must be below 2**63, got {10**300}"),
    ], ids=["total_steps", "seeds", "n_samples", "seed_flag"])
    def test_int_beyond_the_index_range_exits_2_before_any_data(self, tmp_path, monkeypatch,
                                                                 capsys, slot, flags, message):
        doc = json.loads(json.dumps(BASE_CONFIG))
        if slot:
            section = doc
            for key in slot[:-1]:
                section = section[key]
            section[slot[-1]] = [10**400] if slot == ("seeds",) else 10**400
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        out = tmp_path / "out"
        monkeypatch.setattr(models.DataConfig, "build", lambda *a, **k: pytest.fail("data was built"))
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path), "--out", str(out),
                                         *flags])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_the_largest_integer_is_below_2_to_the_63(self):
        assert harness._int(2**63 - 1, "k") == 2**63 - 1
        for value in (2**63, float(2**63), str(2**63)):
            with pytest.raises(ConfigError, match=r"^k must be below 2\*\*63, got "):
                harness._int(value, "k")

    # Python prints no int of more than 4300 digits; 10**5000 has 16610 bits
    @pytest.mark.parametrize("slot, value, message", [
        (("total_steps",), 10**5000, "total_steps must be below 2**63, got an integer of 16610 bits"),
        (("optimizer", "lr"), 10**5000, "optimizer.lr must be finite, got an integer of 16610 bits"),
        (("seeds",), [10**5000], "seeds[0] must be below 2**63, got an integer of 16610 bits"),
        (("data", "n_samples"), 10**5000,
         "data.n_samples must be below 2**63, got an integer of 16610 bits"),
        (("seeds",), 10**5000, "seeds must be a list, got an integer of 16610 bits"),
        (("output_dir",), 10**5000, "output_dir must be a string, got an integer of 16610 bits"),
        (("model", "kind"), 10**5000, "unknown model kind an integer of 16610 bits"),
    ], ids=["total_steps", "lr", "seeds", "n_samples", "seeds_not_a_list", "output_dir",
            "model_kind"])
    def test_an_int_too_long_to_print_is_named_by_its_size(self, slot, value, message):
        doc = json.loads(json.dumps(BASE_CONFIG))
        section = doc
        for key in slot[:-1]:
            section = section[key]
        section[slot[-1]] = value
        with pytest.raises(ConfigError) as info:
            harness.config_from_dict(doc)
        assert str(info.value) == message

    def test_only_an_int_too_long_to_print_is_named_by_its_size(self):
        assert shown(10**4000) == str(10**4000) and shown([1, "a"]) == "[1, 'a']"
        assert shown(10**4300) == "an integer of 14285 bits"

    @pytest.mark.parametrize("section", ["config", "model"])
    def test_a_key_too_long_to_print_is_named_by_its_size(self, section):
        doc = json.loads(json.dumps(BASE_CONFIG))
        (doc if section == "config" else doc[section])[10**5000] = 1
        with pytest.raises(ConfigError) as info:
            harness.config_from_dict(doc)
        assert str(info.value) == f"unknown key(s) in '{section}': [an integer of 16610 bits]"
        with pytest.raises(ConfigError) as info:
            check_kind("stream", "a", {"a": ()}, ["zz", 10**5000])
        assert str(info.value) == "stream kind 'a' does not read [an integer of 16610 bits, 'zz']"

    def test_non_numeric_lr_is_config_error(self, tmp_path):
        path, _ = make_config(tmp_path, optimizer={"lr": "big"})
        with pytest.raises(ConfigError, match="optimizer.lr"):
            harness.load_config(path)

    def test_cli_exits_2_on_non_numeric_lr(self, tmp_path, monkeypatch, capsys):
        path, _ = make_config(tmp_path, optimizer={"lr": "big"})
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path),
                                         "--out", str(tmp_path / "out")])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert "optimizer.lr" in capsys.readouterr().err


class TestLoadConfigOverrides:
    """``--seed`` and ``--out`` edit the document before ``config_from_dict`` reads it."""

    def test_the_config_run_trains_holds_the_flags(self, tmp_path, monkeypatch):
        path, doc = make_config(tmp_path, total_steps=8, switch={"kind": "fixed", "step": 4})
        out = str(tmp_path / "X")
        seen = []
        real_run = harness.run
        monkeypatch.setattr(harness, "run", lambda config: seen.append(config) or real_run(config))
        result = CliRunner().invoke(cli_main, ["run", "--config", str(path), "--seed", "4",
                                               "--seed", "9", "--out", out])
        assert result.exit_code == 0, result.output
        (config,) = seen
        assert config.seeds == (4, 9) and config.output_dir == out
        assert config == harness.config_from_dict({**doc, "seeds": [4, 9], "output_dir": out})
        assert sorted(p.name for p in Path(out).iterdir()) == [
            "summary.json", "trajectory_seed4.jsonl", "trajectory_seed9.jsonl"]
        assert result.output.endswith(f"outputs in {out}\n")

    @pytest.mark.parametrize("command, function", [
        (["compare-switch"], "compare_switch"),
        (["ablate", "--kind", "fixed_vs_updated_variance"], "ablation"),
    ])
    def test_out_is_the_output_dir_of_the_config_each_command_runs(self, tmp_path, monkeypatch,
                                                                   command, function):
        path, _ = make_config(tmp_path)
        seen = []
        monkeypatch.setattr(harness, function, lambda *a, **k: seen.append((a, k)) or [])
        out = str(tmp_path / "X")
        result = CliRunner().invoke(cli_main, [*command, "--config", str(path), "--out", out])
        assert result.exit_code == 0, result.output
        ((args, kwargs),) = seen
        config = [a for a in args if isinstance(a, harness.ExperimentConfig)][0]
        assert config.output_dir == out and not kwargs  # the config is the one place it is named
        result = CliRunner().invoke(cli_main, [*command, "--config", str(path)])
        assert result.exit_code == 0, result.output
        config = [a for a in seen[1][0] if isinstance(a, harness.ExperimentConfig)][0]
        assert config.output_dir == "runs"  # the document's own

    def test_seed_flag_needs_the_documents_seeds_entry(self, tmp_path, monkeypatch, capsys):
        path, _ = make_config(tmp_path, seeds=None)
        message = "missing key(s) in 'config': ['seeds']"
        with pytest.raises(ConfigError) as info:
            harness.load_config(path, seeds=(4,))
        assert str(info.value) == message
        out = tmp_path / "out"
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path), "--seed", "4",
                                         "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_seed_flag_replaces_a_malformed_entry(self, tmp_path):
        path, _ = make_config(tmp_path, seeds="three")
        with pytest.raises(ConfigError, match="^seeds must be a list, got 'three'$"):
            harness.load_config(path)
        assert harness.load_config(path, seeds=(3,)).seeds == (3,)

    @pytest.mark.parametrize("seeds", [(-1,), (2**63,), (5, 5), (2**63 - 1, 0)])
    def test_a_flag_seed_reads_like_a_document_seed(self, tmp_path, seeds):
        path, doc = make_config(tmp_path)

        def outcome(load):
            try:
                return load().seeds
            except ConfigError as exc:
                return str(exc)

        from_flag = outcome(lambda: harness.load_config(path, seeds=seeds))
        assert from_flag == outcome(lambda: harness.config_from_dict({**doc, "seeds": list(seeds)}))
        if seeds == (2**63 - 1, 0):  # the one good list loads
            assert from_flag == seeds

    def test_no_flags_leave_the_document_as_it_is(self, tmp_path):
        path, doc = make_config(tmp_path)
        assert harness.load_config(path, seeds=(), output_dir=None) == harness.config_from_dict(doc)
        assert harness.load_config(path, output_dir=tmp_path / "o").output_dir == str(tmp_path / "o")


def test_write_json_makes_the_directory_and_writes_sorted_indented_json(tmp_path):
    directory = tmp_path / "a" / "b"
    path = harness.write_json(directory, "doc.json", {"b": [1, 2.5], "a": {"y": None, "x": "s"}})
    assert path == directory / "doc.json"
    assert path.read_bytes() == (b'{\n  "a": {\n    "x": "s",\n    "y": null\n  },\n'
                                 b'  "b": [\n    1,\n    2.5\n  ]\n}\n')
    with pytest.raises(ConfigError, match="^cannot write to output directory"):
        harness.write_json(path / "under_a_file", "doc.json", {})


class TestRun:
    def test_byte_identical_reruns(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[1])
        config = harness.load_config(path)
        harness.run(dataclasses.replace(config, output_dir=str(tmp_path / "a")))
        harness.run(dataclasses.replace(config, output_dir=str(tmp_path / "b")))
        a = (tmp_path / "a" / "trajectory_seed1.jsonl").read_bytes()
        b = (tmp_path / "b" / "trajectory_seed1.jsonl").read_bytes()
        assert a == b

    def test_step_lines_are_the_bytes_of_json_dumps(self, tmp_path):
        # the template writes each figure as json does: float.__repr__, also for an
        # np.float64, whose own repr is np.float64(...), and None as null
        records = [
            StepRecord(1, "precondition", 0.5, -0.0, 5e-324, None, None),
            StepRecord(2, "precondition", np.float64(1 / 3), 1e16, 2.0, 5e-324, -0.0, z_bar=None),
            StepRecord(3, "mask_learning", 1e16, np.float64(1e-300), 1e300, 1e16, 0.1,
                       z_bar=np.float64(-0.0), switched_at=3),
        ]
        result = optim.TrainResult(params=None, final_masks={}, switched_at=3, records=records,
                                   sparse_eval_loss=0.25, dense_eval_loss=0.125,
                                   layer_sparsity={"fc2.weight": 0.75})
        path = tmp_path / "trajectory.jsonl"
        harness.write_trajectory(path, result)
        final = {"kind": "final", "sparse_eval_loss": 0.25, "dense_eval_loss": 0.125,
                 "mask_sparsity": {"fc2.weight": 0.75}, "switched_at": 3}
        assert path.read_text() == "".join(
            json.dumps(line) + "\n" for line in [*({"kind": "step", **vars(r)} for r in records), final])

    def test_trajectory_lines_self_describing(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[1], output_dir=str(tmp_path / "out"))
        config = harness.load_config(path)
        harness.run(config)
        lines = (tmp_path / "out" / "trajectory_seed1.jsonl").read_text().strip().split("\n")
        step_keys = {"kind", "step", "phase", "loss", "v_l1", "v_l2", "z", "z_geom",
                     "z_bar", "switched_at"}
        records = [json.loads(line) for line in lines]
        assert len(records) == config.total_steps + 1
        for rec in records[:-1]:
            assert set(rec) == step_keys
            assert rec["kind"] == "step"
        final = records[-1]
        assert final["kind"] == "final"
        assert set(final) == {"kind", "sparse_eval_loss", "dense_eval_loss",
                              "mask_sparsity", "switched_at"}
        steps = [r["step"] for r in records[:-1]]
        assert steps == sorted(steps)
        switches = [r["switched_at"] for r in records[:-1] if r["switched_at"] is not None]
        assert len(switches) <= 1

    def test_step_line_keys_are_kind_then_the_record_fields_in_order(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[1], total_steps=30, output_dir=str(tmp_path / "out"))
        harness.run(harness.load_config(path))
        with open(tmp_path / "out" / "trajectory_seed1.jsonl") as fh:
            first = json.loads(fh.readline())
        assert list(first) == ["kind"] + [f.name for f in dataclasses.fields(StepRecord)]

    def test_clipped_switch_lands_in_budget_window(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[1, 2], output_dir=str(tmp_path / "out"))
        config = harness.load_config(path)
        summary = harness.run(config)
        t = config.total_steps
        for t0 in summary["switched_at"]:
            assert t0 is not None
            assert 0.1 * t < t0 <= 0.5 * t

    def test_dense_recipe_records(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[3], recipe={"kind": "dense"}, switch=None,
                              output_dir=str(tmp_path / "out"))
        config = harness.load_config(path)
        harness.run(config)
        lines = (tmp_path / "out" / "trajectory_seed3.jsonl").read_text().strip().split("\n")
        records = [json.loads(line) for line in lines][:-1]
        assert all(r["phase"] == "precondition" for r in records)
        assert all(r["switched_at"] is None for r in records)

    def test_one_result_alive_at_a_time(self, tmp_path, monkeypatch):
        alive = []
        real = harness.recipe_train

        def spy(*args, **kwargs):
            # every earlier seed's result is gone before the next one trains
            assert all(ref() is None for ref in alive)
            result = real(*args, **kwargs)
            alive.append(weakref.ref(result))
            return result

        monkeypatch.setattr(harness, "recipe_train", spy)
        path, _ = make_config(tmp_path, seeds=[1, 2, 3], total_steps=30,
                              switch={"kind": "fixed", "step": 10},
                              ablation={"precondition_ratios": [0.2, 0.5]},
                              output_dir=str(tmp_path / "out"))
        config = harness.load_config(path)
        summary = harness.run(config)
        assert len(alive) == 3 and summary["switched_at"] == [10, 10, 10]
        rows = harness.ablation("precondition_length", config)
        assert len(alive) == 3 + 6 and [row["switched_at"] for row in rows] == [6] * 3 + [15] * 3
        assert all(ref() is None for ref in alive)

    def test_task_writes_the_trajectory_and_returns_only_figures(self, tmp_path, monkeypatch):
        written = tmp_path / "not" / "yet"
        path, _ = make_config(tmp_path, seeds=[1], total_steps=30, output_dir=str(written))
        config = harness.load_config(path)

        def train(recipe):
            return optim.recipe_train(config.model, config.data.build(),
                                      config.hyper, config.plan, recipe, 30, 1)

        result = train(config.recipe)
        harness.write_trajectory(tmp_path / "expected.jsonl", result)
        dense = train(optim.Recipe("dense"))
        real = harness.recipe_train

        def spy(*args, **kwargs):
            assert not written.exists()  # the directory is made only after training
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "recipe_train", spy)
        cells = [("step", config.recipe), ("dense", optim.Recipe("dense"))]
        (label, seed, figures, records), = harness._train_runs(config, cells[:1], trajectories=True)
        assert (label, seed, records) == ("step", 1, result.records)
        assert figures == (result.sparse_eval_loss, result.dense_eval_loss, result.switched_at)
        made = written / "trajectory_seed1.jsonl"
        assert made.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()
        monkeypatch.setattr(harness, "recipe_train", real)
        assert [run[:3] for run in harness._train_runs(config, cells)] == [
            ("step", 1, figures), ("dense", 1, (dense.sparse_eval_loss, dense.dense_eval_loss, None))]
        assert sorted(p.name for p in tmp_path.rglob("*.jsonl")) == [
            "expected.jsonl", "trajectory_seed1.jsonl"]

    def test_each_command_trains_on_one_dataset(self, tmp_path, monkeypatch):
        built = []
        real = harness.DataConfig.build

        def spy(data):
            built.append(real(data))
            return built[-1]

        monkeypatch.setattr(harness.DataConfig, "build", spy)
        path, _ = make_config(tmp_path, seeds=[1, 2, 3], total_steps=40,
                              switch={"kind": "fixed", "step": 10}, output_dir=str(tmp_path / "out"))
        config = harness.load_config(path)
        two_seeds = dataclasses.replace(config, seeds=(1, 2))
        # compare-switch scores no switch below 1002 steps; at beta2 = 0.9995 a
        # window of 2000 never fills in 1002 steps: no switch, so no metric window
        path, _ = make_config(tmp_path, seeds=[1, 2], total_steps=1002,
                              optimizer={"lr": 0.005, "beta2": 0.9995}, output_dir=str(tmp_path / "cmp"))
        profile = harness.load_config(path)
        commands = [
            lambda: harness.run(config),
            lambda: harness.ablation("fixed_vs_updated_variance", two_seeds),
            lambda: harness.compare_switch(profile, [SwitchCriterion(kind="autoswitch")]),
        ]
        for command in commands:
            built.clear()
            command()
            assert len(built) == 1
            # every run read the arrays the command built, and none wrote to them
            fresh = real(config.data)
            for name in ("inputs", "targets"):
                used, expected = getattr(built[0], name), getattr(fresh, name)
                assert used.dtype == expected.dtype and used.shape == expected.shape
                assert used.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seeds", [[1], [1, 2]])
    def test_outputs_are_strict_json(self, tmp_path, seeds):
        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        path, _ = make_config(tmp_path, seeds=seeds, total_steps=40, output_dir=str(tmp_path / "out"))
        harness.run(harness.load_config(path))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                             parse_constant=refuse)
        if len(seeds) == 1:
            assert summary["sparse_eval_loss_std"] == summary["dense_eval_loss_std"] == 0.0
        for seed in seeds:
            text = (tmp_path / "out" / f"trajectory_seed{seed}.jsonl").read_text()
            assert len([json.loads(line, parse_constant=refuse) for line in text.splitlines()]) == 41

    def test_summary_stds_are_population_stds(self, tmp_path):
        path, _ = make_config(tmp_path, total_steps=40, output_dir=str(tmp_path / "out"))  # seeds 1, 2
        harness.run(harness.load_config(path))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        finals = [json.loads((tmp_path / "out" / f"trajectory_seed{seed}.jsonl")
                             .read_text().splitlines()[-1]) for seed in (1, 2)]
        for figure in ("sparse_eval_loss", "dense_eval_loss"):
            values = [final[figure] for final in finals]
            assert values[0] != values[1]
            assert summary[f"{figure}_std"] == statistics.pstdev(values)

    def test_a_budget_of_one_step_loads_and_trains(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[1], total_steps=1, recipe={"kind": "dense"},
                              switch=None, output_dir=str(tmp_path / "out"))
        config = harness.load_config(path)
        assert config.total_steps == 1
        harness.run(config)
        lines = (tmp_path / "out" / "trajectory_seed1.jsonl").read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["step", "final"]

    def test_summary_written(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[1], output_dir=str(tmp_path / "out"))
        config = harness.load_config(path)
        harness.run(config)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["n_seeds"] == 1
        assert "sparse_eval_loss_mean" in summary


class TestCompareSwitch:
    def test_rows_shape_and_no_switch(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[1], recipe={"kind": "dense"}, switch=None,
                              total_steps=1002, optimizer={"lr": 0.005, "beta2": 0.9995},
                              output_dir=str(tmp_path / "cmp"))
        config = harness.load_config(path)
        # an autoswitch window of 2000 can never fill in 1002 steps: no-switch
        # row; a switch at step 1 is scored on exactly the 1001 steps after it
        rows = harness.compare_switch(config, [SwitchCriterion(kind="autoswitch"),
                                               SwitchCriterion(kind="fixed", step=1)])
        assert len(rows) == 2
        assert rows[0]["t0"] is None
        assert rows[0]["note"] == "no-switch"
        assert rows[1]["t0"] == 1 and rows[1]["avg_change_metric"] > 0.0
        assert (tmp_path / "cmp" / "compare_switch.csv").exists()

    def test_a_budget_too_short_for_any_switch_fails_before_training(self, tmp_path, monkeypatch):
        path, _ = make_config(tmp_path, seeds=[1], recipe={"kind": "dense"}, switch=None,
                              total_steps=1001, output_dir=str(tmp_path / "cmp"))
        config = harness.load_config(path)
        monkeypatch.setattr(harness, "recipe_train", lambda *a, **k: pytest.fail("trained"))
        message = ("profile too short for the metric window: a switch at step 1 needs "
                   "per-step changes up to step 1002, have 1001")
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            harness.compare_switch(config, [SwitchCriterion(kind="autoswitch")])
        assert not (tmp_path / "cmp").exists()
        with pytest.raises(ConfigError, match="at least one criterion"):  # that check comes first
            harness.compare_switch(config, [])

    def test_metric_window_must_fit(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[1], recipe={"kind": "dense"}, switch=None,
                              total_steps=60, output_dir=str(tmp_path / "cmp"))
        config = harness.load_config(path)
        with pytest.raises(RangeError, match="profile too short"):
            harness.compare_switch(config, [SwitchCriterion(kind="relative")])

    def test_default_criteria_by_kind_in_order(self):
        clipped = SwitchCriterion(kind="autoswitch", clip=(260, 1300))
        relative, staleness = SwitchCriterion(kind="relative"), SwitchCriterion(kind="staleness")
        assert harness.default_comparison_criteria(2600) == [clipped, relative, staleness]
        assert harness.default_comparison_criteria(2600, ("staleness", "autoswitch")) == [
            staleness, clipped]
        assert harness.default_comparison_criteria(2600, ()) == []
        for kinds in (("foo",), ("relative", "foo"), ("fixed",)):
            with pytest.raises(ConfigError, match=f"^unknown criterion kind '{kinds[-1]}'$"):
                harness.default_comparison_criteria(2600, kinds)

    def test_empty_criteria_rejected_before_training(self, tmp_path, monkeypatch):
        path, _ = make_config(tmp_path, seeds=[1], recipe={"kind": "dense"}, switch=None,
                              output_dir=str(tmp_path / "cmp"))
        config = harness.load_config(path)
        monkeypatch.setattr(harness, "recipe_train", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(ConfigError, match="at least one criterion"):
            harness.compare_switch(config, [])
        assert not (tmp_path / "cmp").exists()

    def test_criteria_list_length_matches_rows(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[1], recipe={"kind": "dense"}, switch=None,
                              total_steps=1200, optimizer={"lr": 0.005, "beta2": 0.99},
                              output_dir=str(tmp_path / "cmp"))
        config = harness.load_config(path)
        criteria = [SwitchCriterion(kind="relative"), SwitchCriterion(kind="staleness")]
        rows = harness.compare_switch(config, criteria)
        assert len(rows) == 2
        assert {r["criterion"] for r in rows} == {c.label() for c in criteria}
        for row in rows:
            assert row["t0"] is not None
            assert row["avg_change_metric"] >= 0.0


class TestAblation:
    def test_precondition_length_cells(self, tmp_path):
        config = harness.config_from_dict({**json.loads(json.dumps(BASE_CONFIG)),
                                           "seeds": [1], "output_dir": str(tmp_path / "abl"),
                                           "ablation": {"precondition_ratios": [0.25, 1.0]}})
        rows = harness.ablation("precondition_length", config)
        assert [r["cell"] for r in rows] == ["ratio=0.25", "ratio=1.0"]
        assert (tmp_path / "abl" / "ablation_precondition_length.csv").exists()

    def test_ratio_one_equals_dense_plus_final_mask(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc.update(seeds=[5], ablation={"precondition_ratios": [1.0]}, output_dir=str(tmp_path))
        config = harness.config_from_dict(doc)
        rows = harness.ablation("precondition_length", config)
        dense = optim.recipe_train(config.model, config.data.build(),
                                   config.hyper, config.plan, optim.Recipe("dense"),
                                   config.total_steps, 5)
        assert rows[0]["sparse_eval_loss"] == dense.sparse_eval_loss
        assert rows[0]["dense_eval_loss"] == dense.dense_eval_loss

    def test_fixed_vs_updated_cells(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc.update(seeds=[1], switch={"kind": "fixed", "step": 40}, output_dir=str(tmp_path))
        config = harness.config_from_dict(doc)
        rows = harness.ablation("fixed_vs_updated_variance", config)
        assert [r["cell"] for r in rows] == ["fixed_variance", "updated_variance"]
        assert all(r["switched_at"] == 40 for r in rows)

    def test_decaying_mask_cells(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc.update(seeds=[1], switch={"kind": "fixed", "step": 30}, output_dir=str(tmp_path),
                   ablation={"decay": {"m": 4, "stage_boundaries": [60]}})
        config = harness.config_from_dict(doc)
        rows = harness.ablation("decaying_mask", config)
        cells = {r["cell"]: r for r in rows}
        assert set(cells) == {"with_dense_phase", "without_dense_phase"}
        assert cells["with_dense_phase"]["switched_at"] == 30
        assert cells["without_dense_phase"]["switched_at"] is None

    def test_unknown_kind(self):
        config = harness.config_from_dict(json.loads(json.dumps(BASE_CONFIG)))
        with pytest.raises(ConfigError):
            harness.ablation("weight_decay", config)

    def test_missing_ratios(self):
        config = harness.config_from_dict(json.loads(json.dumps(BASE_CONFIG)))
        with pytest.raises(ConfigError, match="precondition_ratios"):
            harness.ablation("precondition_length", config)

    @pytest.mark.parametrize("command", [
        ["run"], ["ablate", "--kind", "fixed_vs_updated_variance"],
        ["ablate", "--kind", "precondition_length"], ["compare-switch"],
    ], ids=["run", "ablate_variance", "ablate_length", "compare-switch"])
    def test_ratio_outside_unit_interval_fails_every_command_at_load(
            self, tmp_path, monkeypatch, capsys, command):
        path, _ = make_config(tmp_path, ablation={"precondition_ratios": [1.5, -2]})
        message = "ablation.precondition_ratios must be in (0, 1], got 1.5"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            harness.load_config(path)
        out = tmp_path / "out"
        monkeypatch.setattr(harness, "recipe_train", lambda *a, **k: pytest.fail("trained"))
        monkeypatch.setattr("sys.argv", ["stepnm", *command, "--config", str(path),
                                         "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestOutputDirectory:
    """Each driver writes into ``config.output_dir`` alone, checked before any compute."""

    DRIVERS = {
        "run": harness.run,
        "compare_switch": lambda config: harness.compare_switch(
            config, [SwitchCriterion(kind="fixed", step=1)]),
        "ablation": lambda config: harness.ablation("fixed_vs_updated_variance", config),
    }
    # compare_switch scores no switch below 1002 steps
    STEPS = {"run": 8, "compare_switch": 1002, "ablation": 8}

    def test_the_drivers_take_no_directory_and_compare_switch_no_default_criteria(self):
        for driver in (harness.run, harness.compare_switch, harness.ablation):
            assert "output_dir" not in inspect.signature(driver).parameters
        criteria = inspect.signature(harness.compare_switch).parameters["criteria"]
        assert criteria.default is inspect.Parameter.empty

    @pytest.mark.parametrize("driver, written", [
        ("run", ["summary.json", "trajectory_seed1.jsonl"]),
        ("compare_switch", ["compare_switch.csv"]),
        ("ablation", ["ablation_fixed_vs_updated_variance.csv"]),
    ])
    def test_each_driver_writes_into_the_configs_output_dir(self, tmp_path, monkeypatch, driver,
                                                            written):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "a" / "b"
        path, _ = make_config(tmp_path, seeds=[1], total_steps=self.STEPS[driver],
                              switch={"kind": "fixed", "step": 4}, output_dir=str(out))
        rows = self.DRIVERS[driver](harness.load_config(path))
        assert sorted(p.name for p in out.iterdir()) == written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "config.yaml"]
        if driver != "run":
            with open(out / written[0], newline="") as fh:
                assert list(csv.DictReader(fh)) == [
                    {key: "" if value is None else str(value) for key, value in row.items()}
                    for row in rows]

    @pytest.mark.parametrize("driver", list(DRIVERS))
    def test_a_directory_blocked_by_a_file_fails_before_any_training(self, tmp_path, monkeypatch,
                                                                     driver):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        path, _ = make_config(tmp_path, seeds=[1], total_steps=self.STEPS[driver],
                              switch={"kind": "fixed", "step": 4}, output_dir=str(taken / "out"))
        config = harness.load_config(path)
        calls = []
        monkeypatch.setattr(harness, "recipe_train", lambda *a, **k: calls.append("recipe_train"))
        monkeypatch.setattr(harness.DataConfig, "build", lambda *a, **k: calls.append("build"))
        message = f"cannot write to output directory {taken / 'out'}: {taken} is not a directory"
        with pytest.raises(ConfigError) as info:
            self.DRIVERS[driver](config)
        assert str(info.value) == message
        assert calls == []
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command, message", [
        (["run"], "output_dir must not be empty; leave it out for 'runs'"),
        (["compare-switch"], "output_dir must not be empty; leave it out for 'runs'"),
        (["ablate", "--kind", "fixed_vs_updated_variance"],
         "output_dir must not be empty; leave it out for 'runs'"),
        (["validate-theorem"], "output directory must not be empty"),
    ], ids=["run", "compare-switch", "ablate", "validate-theorem"])
    def test_an_empty_out_exits_2_before_any_step_or_draw(self, tmp_path, monkeypatch, capsys,
                                                          command, message):
        # Path('') is the current directory: an empty --out would write there
        path, _ = make_config(tmp_path)
        if command[0] != "validate-theorem":
            command = command + ["--config", str(path)]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(models.DataConfig, "build", lambda *a, **k: pytest.fail("data was built"))
        monkeypatch.setattr(theory.StationaryStream, "draw", lambda *a, **k: pytest.fail("drew"))
        monkeypatch.setattr("sys.argv", ["stepnm", *command, "--out", ""])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            if command[0] == "validate-theorem":
                harness.check_output_dir("")
            else:
                harness.load_config(path, output_dir="")


class TestCLI:
    def test_run_command(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[1], total_steps=60)
        runner = CliRunner()
        result = runner.invoke(cli_main, ["run", "--config", str(path),
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert "sparse eval loss" in result.output
        assert (tmp_path / "out" / "summary.json").exists()

    def test_run_seed_override(self, tmp_path):
        path, _ = make_config(tmp_path, seeds=[1, 2], total_steps=60)
        runner = CliRunner()
        result = runner.invoke(cli_main, ["run", "--config", str(path), "--seed", "7",
                                          "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "trajectory_seed7.jsonl").exists()
        assert not (tmp_path / "out" / "trajectory_seed1.jsonl").exists()

    def test_the_four_commands(self):
        result = CliRunner().invoke(cli_main, ["--help"])
        assert result.exit_code == 0
        assert sorted(cli_main.commands) == ["ablate", "compare-switch", "run", "validate-theorem"]
        for command in cli_main.commands:
            assert command in result.output
        result = CliRunner().invoke(cli_main, ["fd-check"])
        assert result.exit_code == 2 and "No such command 'fd-check'" in result.output

    def test_validate_theorem_command(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(cli_main, [
            "validate-theorem", "--stream", "bernoulli", "--g", "1.0",
            "--beta2", "0.99", "--t0", "200", "--t", "800", "--delta", "0.05",
            "--trials", "50", "--seed", "3", "--out", str(tmp_path / "rep"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "rep" / "bound_report.json").read_text())
        assert report["per_step_bound_ok"] is True
        assert report["trials"] == 50

    @pytest.mark.parametrize("args", [
        ["--g", "inf"], ["--g", "nan"], ["--stream", "trunc_gauss_sq", "--sigma", "nan"],
    ])
    def test_validate_theorem_rejects_non_finite_stream(self, args, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["stepnm", "validate-theorem", "--trials", "2",
                                         "--t", "2100", *args])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert "violations" not in captured.out

    @pytest.mark.parametrize("stream,option", [("uniform", "--level"), ("constant", "--p"),
                                               ("bernoulli", "--sigma"), ("trunc_gauss_sq", "--p")])
    def test_validate_theorem_rejects_a_parameter_its_stream_does_not_read(
            self, stream, option, tmp_path, monkeypatch, capsys):
        out = tmp_path / "thm"
        monkeypatch.setattr(theory, "validate_theorem", lambda *a: pytest.fail("the Monte Carlo ran"))
        monkeypatch.setattr("sys.argv", ["stepnm", "validate-theorem", "--stream", stream,
                                         option, "0.3", "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == (
            f"error: stream kind '{stream}' does not read ['{option[2:]}']\n")
        assert not out.exists()

    def test_validate_theorem_rejects_a_step_beyond_the_draw_budget(self, monkeypatch, capsys):
        # one step of one trial at dim 262145 is 2 MiB + 8 bytes
        monkeypatch.setattr("sys.argv", ["stepnm", "validate-theorem", "--dim", "262145",
                                         "--beta2", "0.9", "--t0", "12", "--t", "13",
                                         "--trials", "1"])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "error: stream dimension 262145 is too large" in captured.err
        assert "at most 262144" in captured.err
        assert "Traceback" not in captured.err
        assert "violations" not in captured.out

    def test_validate_theorem_runs_at_the_largest_dim(self, tmp_path):
        result = CliRunner().invoke(cli_main, [
            "validate-theorem", "--dim", "262144", "--beta2", "0.9", "--t0", "12", "--t", "13",
            "--trials", "1", "--out", str(tmp_path / "thm"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "thm" / "bound_report.json").read_text())
        assert report["trials"] == 1 and report["per_step_bound_ok"] is True

    def test_ablate_command(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc.update(seeds=[1], total_steps=60, switch={"kind": "fixed", "step": 20})
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        runner = CliRunner()
        result = runner.invoke(cli_main, ["ablate", "--config", str(path),
                                          "--kind", "fixed_vs_updated_variance",
                                          "--out", str(tmp_path / "abl")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "abl" / "ablation_fixed_vs_updated_variance.csv").exists()

    def test_compare_switch_command(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc.update(seeds=[1], total_steps=1200, recipe={"kind": "dense"},
                   optimizer={"lr": 0.005, "beta2": 0.99})
        doc.pop("switch")
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc))
        runner = CliRunner()
        result = runner.invoke(cli_main, ["compare-switch", "--config", str(path),
                                          "--criteria", "relative,staleness",
                                          "--out", str(tmp_path / "cmp")])
        assert result.exit_code == 0, result.output
        assert "relative" in result.output

    @pytest.mark.parametrize("command", [["run", "--jobs", "2"],
                                         ["ablate", "--kind", "fixed_vs_updated_variance",
                                          "--jobs", "1"]], ids=["run", "ablate"])
    def test_jobs_other_than_run_one_exits_2(self, tmp_path, command):
        path, _ = make_config(tmp_path, seeds=[1])
        result = CliRunner().invoke(cli_main, command + ["--config", str(path),
                                                         "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "--jobs" in result.output
        assert not (tmp_path / "out").exists()

    def test_jobs_is_hidden_or_gone(self):
        for command in ("run", "ablate"):
            result = CliRunner().invoke(cli_main, [command, "--help"])
            assert result.exit_code == 0 and "--jobs" not in result.output

    def test_repeated_seed_fails_at_load_and_exits_2_before_training(self, tmp_path, monkeypatch,
                                                                     capsys):
        path, _ = make_config(tmp_path, seeds=[1, 2, 1])
        with pytest.raises(ConfigError, match="seed 1 is given more than once"):
            harness.load_config(path)
        path, _ = make_config(tmp_path, seeds=[1])
        monkeypatch.setattr(harness, "recipe_train", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "out"
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path), "--seed", "3",
                                         "--seed", "3", "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert "seed 3 is given more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    @pytest.mark.parametrize("command", [
        ["run"],
        ["ablate", "--kind", "fixed_vs_updated_variance"],
        ["compare-switch", "--criteria", "relative"],
        ["validate-theorem", "--beta2", "0.9", "--t0", "50", "--t", "100", "--trials", "2"],
    ], ids=["run", "ablate", "compare-switch", "validate-theorem"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, monkeypatch, capsys,
                                                    command, under):
        if command[0] != "validate-theorem":
            # compare-switch scores a switch by the 1001 steps after it
            steps = 1100 if command[0] == "compare-switch" else 30
            path, _ = make_config(tmp_path, seeds=[1], total_steps=steps,
                                  switch={"kind": "fixed", "step": 10})
            command = command + ["--config", str(path)]
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = taken / "out" if under else taken
        # the output directory is checked before any training or Monte Carlo
        monkeypatch.setattr(harness, "recipe_train", lambda *a, **k: pytest.fail("trained"))
        monkeypatch.setattr(theory, "validate_theorem", lambda *a, **k: pytest.fail("validated"))
        monkeypatch.setattr("sys.argv", ["stepnm", *command, "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert f"cannot write to output directory {out}" in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("content, reason", [
        (b"model: [unclosed\n", "expected ',' or ']'"),
        (None, "Is a directory"),
        (b"model: \xff\n", "'utf-8' codec can't decode byte 0xff"),
        (b"seeds: 2001-13-45\n", "month must be in 1..12"),
    ], ids=["malformed_yaml", "directory", "not_utf8", "bad_date"])
    @pytest.mark.parametrize("command", [
        ["run"], ["ablate", "--kind", "fixed_vs_updated_variance"], ["compare-switch"],
    ], ids=["run", "ablate", "compare-switch"])
    def test_unreadable_config_exits_2(self, tmp_path, monkeypatch, capsys, command, content,
                                       reason):
        path = tmp_path / "config.yaml"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=re.escape(f"cannot read config {path}: ") + ".*"
                           + re.escape(reason)):
            harness.load_config(path)
        out = tmp_path / "out"
        monkeypatch.setattr("sys.argv", ["stepnm", *command, "--config", str(path),
                                         "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert f"error: cannot read config {path}" in capsys.readouterr().err
        assert not out.exists()

    # each size is far above the 128 TiB user address space, so numpy refuses it
    # before touching memory, whatever the overcommit setting
    @pytest.mark.parametrize("section, size", [
        ({"model": {"kind": "mlp_classifier", "layer_sizes": [2, 10**13, 2]}}, "364. TiB"),
        ({"data": {**BASE_CONFIG["data"], "n_samples": 10**15}}, "7.11 PiB"),
    ], ids=["layer_sizes", "n_samples"])
    @pytest.mark.parametrize("command", [
        ["run"], ["ablate", "--kind", "fixed_vs_updated_variance"], ["compare-switch"],
    ], ids=["run", "ablate", "compare-switch"])
    def test_config_too_large_to_allocate_exits_2(self, tmp_path, monkeypatch, capsys, command,
                                                  section, size):
        # 1002 steps: compare-switch refuses a shorter budget before it allocates
        path, _ = make_config(tmp_path, total_steps=1002, **section)
        out = tmp_path / "out"
        monkeypatch.setattr("sys.argv", ["stepnm", *command, "--config", str(path),
                                         "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: Unable to allocate {size} for an array")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("criteria", [",", " "], ids=["comma", "blank"])
    def test_compare_switch_needs_a_criterion(self, tmp_path, monkeypatch, capsys, criteria):
        # the flag names no kind, so compare_switch gets an empty list and refuses it
        path, _ = make_config(tmp_path, seeds=[1], total_steps=1002, recipe={"kind": "dense"},
                              switch=None)
        exits_2_before_any_work(monkeypatch, capsys,
                                ["compare-switch", "--config", str(path), "--criteria", criteria],
                                "compare_switch needs at least one criterion", tmp_path / "cmp")

    def test_help_names_every_kind_and_the_default_criteria(self):
        """The kinds a flag takes are help text, from the tables the library checks them against."""
        for command, names in [
            ("ablate", ["precondition_length", "fixed_vs_updated_variance", "decaying_mask"]),
            ("validate-theorem", ["constant", "uniform", "bernoulli", "trunc_gauss_sq"]),
            ("compare-switch", ["[default: autoswitch,relative,staleness]"]),
        ]:
            result = CliRunner().invoke(cli_main, [command, "--help"])
            assert result.exit_code == 0
            text = " ".join(result.output.split())
            assert all(name in text for name in names), (command, text)


class TestEveryBadInputExits2:
    """Inputs that reach a ``raise`` no other test reaches: the type, the message and exit 2."""

    @pytest.mark.parametrize("overrides, seeds, message", [
        ({"optimizer": {"lr": True}}, (), "optimizer.lr must be a number, got True"),
        ({"total_steps": True}, (), "total_steps must be an integer, got True"),
        ({}, (-1,), "seeds must be non-negative integers"),
        ({"optimizer": {"lr_schedule": "linear"}}, (), "unknown lr schedule 'linear'"),
        ({"switch": {"kind": "fixed", "step": 10, "step_ratio": 0.5}}, (),
         "give either step or step_ratio, not both"),
        ({"switch": {"kind": "relative", "threshold": 0}}, (), "criterion threshold must be positive"),
        (None, (), "config {path} must be a mapping document"),
        ({"recipe": {"kind": []}}, (), "unknown recipe kind []"),
        ({"recipe": {"kind": {}}}, (), "unknown recipe kind {{}}"),
        # a dense run without a switch: nothing but the budget's own check can refuse it
        ({"total_steps": 0, "recipe": {"kind": "dense"}, "switch": None}, (),
         "total_steps must be >= 1"),
        ({"total_steps": -5, "recipe": {"kind": "dense"}, "switch": None}, (),
         "total_steps must be >= 1"),
        # the classifier on blobs is the one model and data kind
        ({"model": {"kind": "linear_regression", "layer_sizes": [2, 1]}, "sparsity": None}, (),
         "unknown model kind 'linear_regression'"),
        ({"data": {"kind": "regression"}}, (), "unknown data kind 'regression'"),
        ({"data": {"kind": "csv"}}, (), "unknown data kind 'csv'"),
        ({"data": {"kind": "blobs", "path": "data.csv", "n_targets": 1}}, (),
         "unknown key(s) in 'data': ['n_targets', 'path']"),
        ({"model": {"kind": "mlp_classifier", "layer_sizes": [2, 16, 2], "activation": "sigmoid"}},
         (), "unknown activation 'sigmoid'"),
        ({"model": {"kind": "mlp_classifier", "layer_sizes": [2]}, "sparsity": None}, (),
         "layer_sizes needs >= 2 positive extents, got (2,)"),
        ({"model": {"kind": "mlp_classifier", "layer_sizes": [2, 0, 2]}}, (),
         "layer_sizes needs >= 2 positive extents, got (2, 0, 2)"),
        # the model's two ends must match the data it trains on
        ({"model": {"kind": "mlp_classifier", "layer_sizes": [3, 16, 2]}}, (),
         "model.layer_sizes must run from data.n_features 2 to data.n_classes 2, got (3, 16, 2)"),
        ({"model": {"kind": "mlp_classifier", "layer_sizes": [2, 16, 3]}}, (),
         "model.layer_sizes must run from data.n_features 2 to data.n_classes 2, got (2, 16, 3)"),
        ({"data": {"kind": "blobs", "n_features": 2, "n_classes": 3}}, (),
         "model.layer_sizes must run from data.n_features 2 to data.n_classes 3, got (2, 16, 2)"),
    ], ids=["bool_number", "bool_integer", "negative_seed_flag", "lr_schedule", "step_and_ratio",
            "zero_threshold", "not_a_mapping", "list_recipe_kind", "mapping_recipe_kind",
            "zero_total_steps", "negative_total_steps", "linear_regression_model_kind",
            "regression_data_kind", "csv_data_kind", "csv_data_keys", "unknown_activation",
            "one_layer_size", "zero_layer_size", "inputs_not_n_features", "outputs_above_n_classes",
            "outputs_below_n_classes"])
    def test_at_load(self, tmp_path, monkeypatch, capsys, overrides, seeds, message):
        if overrides is None:
            path = tmp_path / "config.yaml"
            path.write_text("- 1\n- 2\n")
        else:
            path, _ = make_config(tmp_path, **overrides)
        message = message.format(path=path)
        with pytest.raises(ConfigError) as info:
            harness.load_config(path, seeds=seeds)
        assert str(info.value) == message
        out = tmp_path / "out"
        monkeypatch.setattr(models.DataConfig, "build", lambda *a, **k: pytest.fail("data was built"))
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path), "--out", str(out),
                                         *(f"--seed={seed}" for seed in seeds)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, overrides, message", [
        # the two-phase cells take the config's switch, and their Recipe refuses to be built
        # without one, naming its kind
        ("fixed_vs_updated_variance", {"recipe": {"kind": "dense"}, "switch": None},
         "recipe 'step' needs a switch section"),
        ("decaying_mask", {}, "decaying_mask needs ablation.decay"),
        # an empty decay is one left out: the config loads with no decay
        ("decaying_mask", {"ablation": {"decay": None}}, "decaying_mask needs ablation.decay"),
        ("decaying_mask", {"recipe": {"kind": "dense"}, "switch": None,
                           "ablation": {"decay": {"m": 4, "stage_boundaries": [10]}}},
         "recipe 'step_updated_variance' needs a switch section"),
    ], ids=["fixed_vs_updated_without_switch", "decaying_without_decay",
            "decaying_with_null_decay", "decaying_without_switch"])
    def test_an_ablation_without_its_switch_or_decay(self, tmp_path, monkeypatch, capsys, kind,
                                                     overrides, message):
        path, _ = make_config(tmp_path, **overrides)
        trained = []
        monkeypatch.setattr(harness, "recipe_train", lambda *a, **k: trained.append(a))
        with pytest.raises(ConfigError) as info:
            harness.ablation(kind, harness.load_config(path))
        assert str(info.value) == message
        out = tmp_path / "out"
        monkeypatch.setattr("sys.argv", ["stepnm", "ablate", "--kind", kind, "--config", str(path),
                                         "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert trained == [] and not out.exists()

    def test_an_output_directory_name_too_long(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / ("x" * 300)  # a path component longer than 255 bytes
        message = f"cannot write to output directory {out}: File name too long"
        with pytest.raises(ConfigError) as info:
            harness.make_output_dir(out)
        assert str(info.value) == message
        path, _ = make_config(tmp_path, seeds=[1], total_steps=4, switch={"kind": "fixed", "step": 2})
        # the name is refused before any training, not by mkdir after the first seed
        monkeypatch.setattr(harness, "recipe_train", lambda *a, **k: pytest.fail("trained"))
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path), "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_an_unknown_criterion_exits_2_before_training(self, tmp_path, monkeypatch, capsys):
        path, _ = make_config(tmp_path, seeds=[1], total_steps=1002, recipe={"kind": "dense"},
                              switch=None)
        with pytest.raises(ConfigError) as info:
            harness.default_comparison_criteria(1002, ["relative", "foo"])
        assert str(info.value) == "unknown criterion kind 'foo'"
        exits_2_before_any_work(monkeypatch, capsys,
                                ["compare-switch", "--config", str(path), "--criteria", "relative,foo"],
                                "unknown criterion kind 'foo'", tmp_path / "cmp")

    @pytest.mark.parametrize("command", [
        ["run"], ["compare-switch"], ["ablate", "--kind", "fixed_vs_updated_variance"],
    ], ids=["run", "compare-switch", "ablate"])
    @pytest.mark.parametrize("made, reason", [(False, "No such file or directory"),
                                              (True, "Is a directory")], ids=["missing", "directory"])
    def test_a_config_flag_that_names_no_file(self, tmp_path, monkeypatch, capsys, command, made,
                                              reason):
        # load_config reads --config; the command line does not check that the path exists
        path = tmp_path / "config.yaml"
        if made:
            path.mkdir()
        message = f"cannot read config {path}: {reason}"
        with pytest.raises(ConfigError) as info:
            harness.load_config(path)
        assert str(info.value) == message
        exits_2_before_any_work(monkeypatch, capsys, [*command, "--config", str(path)], message,
                                tmp_path / "out")

    @pytest.mark.parametrize("argv, message", [
        (["ablate", "--kind", "bogus"], "unknown ablation kind 'bogus'"),
        (["validate-theorem", "--stream", "bogus"], "unknown stream kind 'bogus'"),
    ], ids=["ablation_kind", "stream_kind"])
    def test_an_unknown_kind_flag(self, tmp_path, monkeypatch, capsys, argv, message):
        # the kind is checked by the library, through check_kind, and by nothing in the CLI
        path, _ = make_config(tmp_path, seeds=[1], switch={"kind": "fixed", "step": 4})
        with pytest.raises(ConfigError) as info:
            if argv[0] == "ablate":
                harness.ablation("bogus", harness.load_config(path))
            else:
                theory.StationaryStream(kind="bogus", bound=1.0)
        assert str(info.value) == message
        if argv[0] == "ablate":
            argv = argv + ["--config", str(path)]
        exits_2_before_any_work(monkeypatch, capsys, argv, message, tmp_path / "out")


def test_huge_classifier_features_stop_naming_v_l2(tmp_path, monkeypatch, capsys):
    # features near 1e155 square to inf in v; the run stops at step 1, quietly,
    # before any output, and the command exits 2 naming the figure
    rng = np.random.default_rng(0)
    dataset = models.Dataset(1e155 * rng.standard_normal((64, 3)),
                             rng.integers(0, 2, 64).astype(float), 32)
    monkeypatch.setattr(models.DataConfig, "build", lambda data: dataset)
    out = tmp_path / "out"
    path, doc = make_config(
        tmp_path, model={"kind": "mlp_classifier", "layer_sizes": [3, 8, 2]},
        data={"kind": "blobs", "n_features": 3}, optimizer={"lr": 1e-3}, recipe={"kind": "dense"},
        sparsity=None, switch=None, seeds=[1, 2], total_steps=20, output_dir=str(out))
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(NumericalError, match=r"^non-finite v_l2 at step 1$"):
        warnings.simplefilter("always")
        harness.run(harness.config_from_dict(doc))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()
    monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path)])
    with pytest.raises(SystemExit) as exit_info:
        cli_entry()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == "error: non-finite v_l2 at step 1\n"
    assert not out.exists()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["demo.yaml", "compare_switch.yaml"])
def test_shipped_config_loads_as_plain_data(name):
    config = harness.load_config(CONFIGS / name)
    assert config == harness.load_config(CONFIGS / name)
    assert "<function" not in repr(config)


class TestShippedCompareSwitchConfig:
    def test_every_criterion_gets_a_metric(self, tmp_path):
        config = dataclasses.replace(harness.load_config(CONFIGS / "compare_switch.yaml"),
                                     seeds=(1,), output_dir=str(tmp_path / "cmp"))
        criteria = harness.default_comparison_criteria(config.total_steps)
        rows = harness.compare_switch(config, criteria)
        assert [r["criterion"] for r in rows] == [c.label() for c in criteria]
        assert all(r["t0"] is not None and r["avg_change_metric"] is not None for r in rows)


# a value of the wrong type or range in one slot, and the key its message names
TYPED_ERRORS = {
    "layer_sizes": ({"model": {"kind": "mlp_classifier", "layer_sizes": "ab"}}, "model.layer_sizes"),
    "layer_size_entry": ({"model": {"kind": "mlp_classifier", "layer_sizes": [2, "x", 2]}},
                         "model.layer_sizes"),
    "seeds": ({"seeds": 5}, "seeds"),
    "seed_entry": ({"seeds": [1, 2.5]}, "seeds"),
    "total_steps": ({"total_steps": "many"}, "total_steps"),
    "sparsity": ({"sparsity": ["fc2.weight"]}, "sparsity"),
    "sparsity_n": ({"sparsity": {"fc2.weight": {"n": "one", "m": 4}}}, "sparsity.fc2.weight.n"),
    "recipe_lam": ({"recipe": {"kind": "srste", "lam": "x"}}, "recipe.lam"),
    "switch_step": ({"switch": {"kind": "fixed", "step": "soon"}}, "switch.step"),
    "switch_threshold": ({"switch": {"kind": "relative", "threshold": "low"}}, "switch.threshold"),
    "data_n_samples": ({"data": {"kind": "blobs", "n_samples": -4}}, "data.n_samples"),
    "data_batch_size": ({"data": {"kind": "blobs", "batch_size": "big"}}, "data.batch_size"),
}


class TestTypedInputErrors:
    @pytest.mark.parametrize("overrides,key", list(TYPED_ERRORS.values()))
    def test_config_error(self, tmp_path, overrides, key):
        path, _ = make_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=re.escape(key)):
            harness.load_config(path)

    @pytest.mark.parametrize("overrides,extra,message", [
        ({"data": None}, "data: {kind: blobs, 1: 2, zz: 3}\n", "unknown key(s) in 'data': [1, 'zz']"),
        ({}, "~: 1\nzz: 2\n", "unknown key(s) in 'config': [None, 'zz']"),
        # sorted by str, and each key by its repr
        ({}, "zz: 1\n5: 2\n\"a'b\": 3\n~: 4\n'10': 5\n",
         "unknown key(s) in 'config': ['10', 5, None, \"a'b\", 'zz']"),
    ])
    def test_mixed_type_unknown_keys_exit_2(self, tmp_path, monkeypatch, capsys,
                                            overrides, extra, message):
        path, _ = make_config(tmp_path, **overrides)
        path.write_text(path.read_text() + extra)
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path),
                                         "--out", str(tmp_path / "out")])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("ratio", [1e308, -0.5, 0.0, 1.5])
    def test_step_ratio_outside_unit_interval(self, tmp_path, ratio):
        path, _ = make_config(tmp_path, switch={"kind": "fixed", "step_ratio": ratio})
        with pytest.raises(ConfigError, match="switch.step_ratio"):
            harness.load_config(path)

    @pytest.mark.parametrize("key,ratio", [
        ("t_min_ratio", 1e308), ("t_min_ratio", -0.5), ("t_max_ratio", 1.5), ("t_max_ratio", -1e308),
    ])
    def test_clip_ratio_outside_unit_interval(self, tmp_path, key, ratio):
        clip = {"t_min_ratio": 0.1, "t_max_ratio": 0.5, key: ratio}
        path, _ = make_config(tmp_path, switch={"kind": "autoswitch", "clip": clip})
        with pytest.raises(ConfigError, match=f"switch.clip.{key}"):
            harness.load_config(path)

    @pytest.mark.parametrize("case", TYPED_ERRORS)
    def test_cli_exits_2(self, tmp_path, monkeypatch, capsys, case):
        overrides, key = TYPED_ERRORS[case]
        path, _ = make_config(tmp_path, **overrides)
        out = tmp_path / "out"
        monkeypatch.setattr(models.DataConfig, "build", lambda *a, **k: pytest.fail("data was built"))
        monkeypatch.setattr("sys.argv", ["stepnm", "run", "--config", str(path), "--out", str(out)])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and err.count("\n") == 1
        assert not out.exists()


# arbitrary YAML-like values to drop into any slot of a valid config
_yaml_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats(allow_nan=True)
    | st.sampled_from([0, -1, 0.5, 1.5, 1e308, -1e308, 2**64, 10**400, "1e-08"])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# small in-range numbers, so that more fuzzed configs load and go on to train
_numbers = st.integers(-2, 300) | st.floats(-1.0, 2.0)


def _slots(doc, prefix=()):
    """Paths to every value of a nested config document."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _slots(value, prefix + (key,))


_FUZZ_BASE = {**json.loads(json.dumps(BASE_CONFIG)),
              "ablation": {"precondition_ratios": [0.5], "decay": {"m": 4, "stage_boundaries": [60]}}}
_FUZZ_SLOTS = sorted(_slots(_FUZZ_BASE))
# largest parameter count or data array a fuzzed config may train on
_FUZZ_TRAIN_CAP = 100_000


class TestConfigFuzz:
    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(_FUZZ_SLOTS), _yaml_values | _numbers),
                    min_size=1, max_size=3))
    def test_only_toolkit_errors(self, edits):
        doc = json.loads(json.dumps(_FUZZ_BASE))
        for path, value in edits:
            section = doc
            for key in path[:-1]:
                if not isinstance(section.get(key), dict):
                    break
                section = section[key]
            else:
                section[path[-1]] = value
        try:
            config = harness.config_from_dict(doc)
        except ToolkitError:
            return
        # a config that loads builds its data and trains, or fails as a ToolkitError
        data = config.data
        n_params = sum(math.prod(shape) for shape in models.param_shapes(config.model).values())
        if max(n_params, data.n_samples * data.n_features,
               data.n_classes * data.n_features) > _FUZZ_TRAIN_CAP:
            return
        try:
            dataset = data.build()
            optim.recipe_train(config.model, dataset, config.hyper, config.plan, config.recipe, 3,
                               config.seeds[0])
        except ToolkitError:
            pass


class TestBenchmarkHooks:
    """perfbench/child.py times a run by rebinding these attributes by name."""

    def test_wrapped_attributes_exist(self):
        wrapped = [
            (models, "batch_iterator"), (models, "loss_and_grad"), (models, "forward_loss"),
            (optim, "compute_nm_mask"), (optim, "adam_step"), (optim, "make_detector"),
            (harness, "write_trajectory"), (harness, "load_config"), (harness.DataConfig, "build"),
            (harness, "recipe_train"), (theory.StationaryStream, "draw"),
            (theory, "validate_theorem"),
        ]
        for owner, name in wrapped:
            assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"

    def test_bound_parameter_names(self):
        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert {"dataset", "seed", "total_steps"} <= set(params(harness.recipe_train))
        assert {"trials", "t"} <= set(params(theory.validate_theorem))
        assert params(models.loss_and_grad)[0] == "spec"
        assert params(models.loss_and_grad)[2] == "batch"
        assert params(optim.compute_nm_mask)[0] == "weights"
        assert params(harness.write_trajectory)[1] == "result"

    def test_callers_look_them_up_at_call_time(self, tmp_path, monkeypatch):
        calls = []

        def spy(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or real(*a, **k))

        for owner, name in [(models, "batch_iterator"), (models, "loss_and_grad"),
                            (models, "forward_loss"), (optim, "compute_nm_mask"),
                            (optim, "adam_step"), (optim, "make_detector"),
                            (harness, "write_trajectory"), (harness, "recipe_train")]:
            spy(owner, name)
        path, _ = make_config(tmp_path, seeds=[1], total_steps=4,
                              switch={"kind": "fixed", "step": 2}, output_dir=str(tmp_path / "out"))
        harness.run(harness.load_config(path))
        assert set(calls) == {"batch_iterator", "loss_and_grad", "forward_loss", "compute_nm_mask",
                              "adam_step", "make_detector", "write_trajectory", "recipe_train"}
        assert calls.count("adam_step") == 4  # one update call per step, in both phases

    def test_perfbench_run_argv(self, tmp_path):
        # the argv perfbench/run.py builds for its training workloads
        path, _ = make_config(tmp_path, seeds=[1], total_steps=4,
                              switch={"kind": "fixed", "step": 2})
        out = tmp_path / "out"
        result = CliRunner().invoke(cli_main, ["run", "--config", str(path), "--out", str(out),
                                               "--jobs", "1"])
        assert result.exit_code == 0, result.output
        assert (out / "summary.json").exists()

    def test_validator_draws_each_block_chunk_once(self, tmp_path, monkeypatch):
        calls = []

        def spy(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(name) or real(*a, **k))

        spy(theory, "validate_theorem")
        spy(theory.StationaryStream, "draw")
        # at dim 2 one step of one trial is 16 bytes: 4000 bytes give 3 trials
        # CHUNK steps each, so the 7 trials run in blocks of 3, 3 and 1, with
        # 4000 // (3 * 16) = 83-step chunks
        monkeypatch.setattr(theory, "DRAW_BUDGET", 4000)
        trials, t, blocks, chunk = 7, 1300, 3, 83
        result = CliRunner().invoke(cli_main, [
            "validate-theorem", "--stream", "uniform", "--dim", "2", "--beta2", "0.99",
            "--t0", "300", "--t", str(t), "--trials", str(trials), "--out", str(tmp_path / "thm"),
        ])
        assert result.exit_code == 0, result.output
        assert calls.count("validate_theorem") == 1
        assert calls.count("draw") == blocks * math.ceil(t / chunk)
