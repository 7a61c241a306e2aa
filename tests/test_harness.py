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
from typing import NamedTuple

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
from stepnm.errors import (ConfigError, DomainError, NumericalError, RangeError, ToolkitError,
                           check_kind, shown)

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


class TestConfigParsing:
    def test_load_round_trip(self, tmp_path):
        path, _ = make_config(tmp_path)
        config = harness.load_config(path)
        assert config.total_steps == 120
        assert config.seeds == (1, 2)
        assert config.plan["fc2.weight"].m == 4
        assert config.recipe.switch.clip == (12, 60)  # the clip ratios 0.1 and 0.5 of 120 steps

    def test_empty_output_dir_means_runs(self, tmp_path):
        path, _ = make_config(tmp_path)
        path.write_text(path.read_text().replace("output_dir: runs", "output_dir:"))
        assert harness.load_config(path).output_dir == "runs"

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

    def test_the_recipe_alone_holds_the_switch(self):
        assert [f.name for f in dataclasses.fields(harness.ExperimentConfig)] == [
            "model", "data", "hyper", "plan", "recipe", "total_steps", "seeds", "output_dir",
            "ablation"]

    def test_loaded_config_holds_the_validated_objects(self, tmp_path):
        path, _ = make_config(tmp_path, optimizer={"lr": 0.005, "lr_schedule": "constant"},
                              ablation={"decay": {"m": 4, "stage_boundaries": [60]}})
        config = harness.load_config(path)
        assert config.recipe.switch.clip == (12, 60)
        assert config.recipe == optim.Recipe("step", decay=DecaySchedule(4, (60,)), switch=BASE_SWITCH)
        assert config.ablation == harness.AblationConfig(decay=DecaySchedule(4, (60,)))
        assert config.hyper == optim.AdamHyper(lr=0.005)


# the (kind, key) pairs a switch section may not hold: each kind reads only some of its
# section's keys
UNREAD_SWITCH_KEYS = [
    ("autoswitch", "threshold"), ("autoswitch", "step"),
    *[(kind, key) for kind in ("relative", "staleness") for key in ("option", "clip", "step")],
    ("fixed", "option"), ("fixed", "threshold"), ("fixed", "clip"),
]
# a value for each key that the kinds reading it accept
SWITCH_VALUES = {"option": "arithmetic", "threshold": 0.5, "step": 30,
                 "clip": {"t_min_ratio": 0.1, "t_max_ratio": 0.5}}
DATA_VALUES = {"n_samples": 64, "n_features": 2, "n_classes": 2, "noise_std": 0.1, "seed": 0,
               "batch_size": 16}
# another value of each data key, and of each model and optimizer key (BASE_CONFIG's or
# the default)
CHANGED_DATA_VALUES = {"n_samples": 48, "n_features": 3, "n_classes": 3, "noise_std": 0.5,
                       "seed": 1, "batch_size": 8}
CHANGED_RUN_VALUES = {("model", "layer_sizes"): [2, 8, 2], ("model", "activation"): "tanh",
                      ("optimizer", "lr"): 0.002, ("optimizer", "beta1"): 0.8,
                      ("optimizer", "beta2"): 0.99, ("optimizer", "eps"): 1e-5}

# a bad value of each data field, and its message: a BAD_INPUTS row each
BAD_DATA = {
    "spiral_data_kind": ({"kind": "spiral"}, "unknown data kind 'spiral'"),
    "zero_n_samples": ({"kind": "blobs", "n_samples": 0}, "data.n_samples must be >= 1, got 0"),
    "negative_n_samples": ({"kind": "blobs", "n_samples": -3}, "data.n_samples must be >= 1, got -3"),
    "n_classes_below_two": ({"kind": "blobs", "n_classes": 1},
                            "data.n_classes must be >= 2 for blobs, got 1"),
    "negative_noise_std": ({"kind": "blobs", "noise_std": -0.5}, "data.noise_std must be >= 0, got -0.5"),
    "zero_n_features": ({"kind": "blobs", "n_features": 0}, "data.n_features must be >= 1, got 0"),
    "zero_batch_size": ({"kind": "blobs", "batch_size": 0}, "data.batch_size must be >= 1, got 0"),
    "negative_data_seed": ({"kind": "blobs", "seed": -1}, "data.seed must be >= 0, got -1"),
}


class TestDataConfig:
    def test_harness_reads_the_class_models_defines(self):
        assert harness.DataConfig is models.DataConfig
        for gone in ("gen_synthetic", "load_csv", "check_synthetic", "open_csv", "DATA_KINDS",
                     "_open_csv", "_read_csv"):
            assert not hasattr(models, gone)

    @pytest.mark.parametrize("fields,message", BAD_DATA.values(), ids=list(BAD_DATA))
    def test_made_directly_a_bad_field_gives_its_rows_message(self, fields, message):
        """``DataConfig`` refuses each field with the message that its config row gives."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            models.DataConfig(**fields)


class TestKeysByKind:
    def test_each_kind_loads_the_keys_it_reads(self):
        assert len(UNREAD_SWITCH_KEYS) == len(set(UNREAD_SWITCH_KEYS)) == 11
        for kind in ("autoswitch", "relative", "staleness", "fixed"):
            switch = {"kind": kind, **{key: value for key, value in SWITCH_VALUES.items()
                                       if (kind, key) not in UNREAD_SWITCH_KEYS}}
            assert harness.config_from_dict({**BASE_CONFIG, "switch": switch}).recipe.switch.kind == kind
        data = {"kind": "blobs", **DATA_VALUES}
        assert harness.config_from_dict({**BASE_CONFIG, "data": data}).data == models.DataConfig(**data)

    def test_the_constant_lr_schedule_is_the_default(self):
        """``lr_schedule: constant``, the one schedule, loads the config that leaving the
        key out loads."""
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["optimizer"]["lr_schedule"] = "constant"
        assert harness.config_from_dict(doc) == harness.config_from_dict(BASE_CONFIG)

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

    @pytest.mark.parametrize("kind", [[], {}, None, 3, "oracle"])
    def test_a_bad_kind_fails_as_the_kind(self, kind):
        """A kind that no table lists, or that is not a string, hashable or not, is unknown.

        The theorem validator's stream, which no config section builds, is the library call;
        a config section's kind is a ``BAD_INPUTS`` row.
        """
        with pytest.raises(ConfigError, match=rf"^unknown stream kind {re.escape(repr(kind))}$"):
            theory.StationaryStream(kind=kind, bound=1.0)

    def test_unread_keys_are_listed_sorted_as_text(self):
        with pytest.raises(ConfigError, match=r"^switch kind 'fixed' does not read \[1, 'a'\]$"):
            check_kind("switch", "fixed", autoswitch.CRITERION_KEYS, ["step", "a", 1])


class TestOptimizerNumbers:
    def test_json_dumps_exponent_floats_load_and_run(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc.update(seeds=[1], total_steps=30, output_dir=str(tmp_path / "out"),
                   optimizer={"lr": 5e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-08})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert '"eps": 1e-08' in path.read_text()
        config = harness.load_config(path)
        assert config.hyper.eps == 1e-8 and config.hyper.lr == 5e-3
        harness.run(config)
        assert (tmp_path / "out" / "trajectory_seed1.jsonl").exists()

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

    def test_seed_flag_replaces_a_malformed_entry(self, tmp_path):
        # the document alone is refused: the row seeds_as_text
        path, _ = make_config(tmp_path, seeds="three")
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

    def test_a_precondition_ratio_floors_to_its_step(self, tmp_path, monkeypatch):
        # 0.3 of 1001 steps is 300.3; 1e-4 of them is 0.1001, which is raised to step 1
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc.update(total_steps=1001, output_dir=str(tmp_path),
                   ablation={"precondition_ratios": [0.3, 1e-4]})
        config = harness.config_from_dict(doc)
        cells = []  # the cells that ablation hands to _train_runs; none trains here
        monkeypatch.setattr(harness, "_train_runs", lambda _, given: iter(cells.extend(given) or ()))
        harness.ablation("precondition_length", config)
        assert [(label, recipe.switch) for label, recipe in cells] == [
            ("ratio=0.3", SwitchCriterion(kind="fixed", step=300)),
            ("ratio=0.0001", SwitchCriterion(kind="fixed", step=1))]

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


class Bad(NamedTuple):
    """A refused input: ``stepnm *argv --config <config> --out <out>`` exits 2 with ``message``.

    ``config`` is ``make_config``'s overrides, the file's bytes, or "missing" or "directory"
    for a path that names no file; validate-theorem gets no ``--config``.  ``out`` is relative
    to the test's directory, which holds a file ``taken`` and is the working directory; "" is
    an empty ``--out``, and None passes no ``--out``, so the document's ``output_dir`` holds.  ``call``
    is the library call that refuses the input, with the flags cli.py would pass: "load_config",
    "driver" (the command's driver on the loaded config), "stream", "validate_theorem" or
    "check_output_dir"; it raises ``error``.  ``message`` may name ``{path}`` (the config),
    ``{out}`` and ``{tmp}`` (the test's directory), and a "…" in it is text PyYAML words.
    """
    argv: list
    message: str
    config: object = {}
    out: str | None = "out"
    call: str = "load_config"
    error: type = ConfigError


CONFIG_COMMANDS = {"run": ["run"], "compare-switch": ["compare-switch"],
                   "ablate": ["ablate", "--kind", "fixed_vs_updated_variance"]}
# each command with a config it would train on, so that only --out can refuse it; compare-switch
# scores a switch by the 1001 steps after it
FIXED = {"seeds": [1], "total_steps": 30, "switch": {"kind": "fixed", "step": 10}}
DRIVEN = {"run": (["run"], FIXED), "ablate": (CONFIG_COMMANDS["ablate"], FIXED),
          "compare-switch": (["compare-switch", "--criteria", "relative"],
                             {**FIXED, "total_steps": 1100}),
          "validate-theorem": (["validate-theorem", "--beta2", "0.9", "--t0", "50", "--t", "100",
                                "--trials", "2"], {})}
BLOCKED = "cannot write to output directory {out}: {tmp}/taken is not a directory"
# a dense config that compare-switch would profile
PROFILE = {"seeds": [1], "total_steps": 1002, "recipe": {"kind": "dense"}, "switch": None}
BASE_YAML = yaml.safe_dump(BASE_CONFIG).encode()
DECAYING = ["ablate", "--kind", "decaying_mask"]
THEOREM = ["validate-theorem", "--trials", "2", "--t", "2100"]
BIG = 10**400

BAD_INPUTS = {
    "bool_number": Bad(["run"], "optimizer.lr must be a number, got True", {"optimizer": {"lr": True}}),
    "bool_integer": Bad(["run"], "total_steps must be an integer, got True", {"total_steps": True}),
    "negative_seed_flag": Bad(["run", "--seed=-1"], "seeds must be non-negative integers"),
    "repeated_seed": Bad(["run"], "seed 1 is given more than once", {"seeds": [1, 2, 1]}),
    "repeated_seed_flag": Bad(["run", "--seed=3", "--seed=3"], "seed 3 is given more than once",
                              {"seeds": [1]}),
    "seed_flag_without_seeds": Bad(["run", "--seed=4"], "missing key(s) in 'config': ['seeds']",
                                   {"seeds": None}),
    "lr_schedule": Bad(["run"], "unknown lr schedule 'linear'", {"optimizer": {"lr_schedule": "linear"}}),
    # one learning rate for every step, and a fixed switch given as its step
    "lr_schedule_cosine": Bad(["run"], "unknown lr schedule 'cosine'",
                              {"optimizer": {"lr_schedule": "cosine"}}),
    "switch_step_ratio": Bad(["run"], "unknown key(s) in 'switch': ['step_ratio']",
                             {"switch": {"kind": "fixed", "step": 10, "step_ratio": 0.5}}),
    "unread_switch_key": Bad(["run"], "switch kind 'autoswitch' does not read ['threshold']",
                             {"switch": {**BASE_CONFIG["switch"], "threshold": 1.0}}),
    **{f"switch_{kind}_reads_no_{key}": Bad(
        ["run"], f"switch kind '{kind}' does not read ['{key}']",
        {"switch": {"kind": kind, key: SWITCH_VALUES[key], **({"step": 30} if kind == "fixed" else {})}})
       for kind, key in UNREAD_SWITCH_KEYS},
    "unread_switch_keys_sorted": Bad(["run"], "switch kind 'fixed' does not read ['option', 'threshold']",
                                     {"switch": {"kind": "fixed", "step": 3, "threshold": 0.5,
                                                 "option": "arithmetic"}}),
    # no kind reads step_ratio, so each fails it as an unknown key
    **{f"step_ratio-{kind}": Bad(["run"], "unknown key(s) in 'switch': ['step_ratio']", {
        "switch": {"kind": kind, "step_ratio": 0.5, **({"step": 30} if kind == "fixed" else {})}})
       for kind in ("autoswitch", "relative", "staleness", "fixed")},
    "unknown_top_level_key": Bad(["run"], "unknown key(s) in 'config': ['optimiser']",
                                 {"optimiser": {"lr": 0.1}}),
    "unknown_recipe_key": Bad(["run"], "unknown key(s) in 'recipe': ['lambda_']",
                              {"recipe": {"kind": "step", "lambda_": 0.1}}),
    "zero_threshold": Bad(["run"], "criterion threshold must be positive",
                          {"switch": {"kind": "relative", "threshold": 0}}),
    "not_a_mapping": Bad(["run"], "config {path} must be a mapping document", b"- 1\n- 2\n"),
    "list_recipe_kind": Bad(["run"], "unknown recipe kind []", {"recipe": {"kind": []}}),
    "mapping_recipe_kind": Bad(["run"], "unknown recipe kind {{}}", {"recipe": {"kind": {}}}),
    "sgd_recipe_kind": Bad(["run"], "unknown recipe kind 'sgd'", {"recipe": {"kind": "sgd"}}),
    # a kind that no table lists, or that is not a string, hashable or not
    **{f"{section}_kind_{name}": Bad(["run"], f"unknown {section} kind {text}", {section: {
        "kind": kind, **({"layer_sizes": [2, 16, 2]} if section == "model" else {})}})
       for section in ("switch", "data", "model")
       for name, kind, text in [("list", [], "[]"), ("mapping", {}, "{{}}"), ("null", None, "None"),
                                ("int", 3, "3"), ("oracle", "oracle", "'oracle'")]},
    **{f"{kind}_without_switch": Bad(["run"], f"recipe '{kind}' needs a switch section",
                                     {"recipe": {"kind": kind}, "switch": None})
       for kind, (_, mode) in optim.RECIPE_KINDS.items() if mode},
    "decay_m_below_two": Bad(["run"], "decay schedule needs m >= 2, got 1",
                             {"ablation": {"decay": {"m": 1, "stage_boundaries": [60]}}}),
    **{f"precondition_ratio-{name}": Bad(argv, "ablation.precondition_ratios must be in (0, 1], got 1.5",
                                         {"ablation": {"precondition_ratios": [1.5, -2]}})
       for name, argv in {**CONFIG_COMMANDS,
                          "ablate_length": ["ablate", "--kind", "precondition_length"]}.items()},
    # a dense run without a switch: nothing but the budget's own check can refuse it
    **{f"{name}_total_steps": Bad(["run"], "total_steps must be >= 1",
                                  {"total_steps": steps, "recipe": {"kind": "dense"}, "switch": None})
       for name, steps in [("zero", 0), ("negative", -5)]},
    # the classifier on blobs is the one model and data kind
    "linear_regression_model_kind": Bad(["run"], "unknown model kind 'linear_regression'", {
        "model": {"kind": "linear_regression", "layer_sizes": [2, 1]}, "sparsity": None}),
    "regression_data_kind": Bad(["run"], "unknown data kind 'regression'",
                                {"data": {"kind": "regression"}}),
    "csv_data_kind": Bad(["run"], "unknown data kind 'csv'", {"data": {"kind": "csv"}}),
    "images_data_kind": Bad(["run"], "unknown data kind 'images'", {"data": {"kind": "images"}}),
    **{name: Bad(["run"], message, {"data": fields}) for name, (fields, message) in BAD_DATA.items()},
    "csv_data_keys": Bad(["run"], "unknown key(s) in 'data': ['n_targets', 'path']",
                         {"data": {"kind": "blobs", "path": "data.csv", "n_targets": 1}}),
    "unknown_activation": Bad(["run"], "unknown activation 'sigmoid'", {"model": {
        "kind": "mlp_classifier", "layer_sizes": [2, 16, 2], "activation": "sigmoid"}}),
    "one_layer_size": Bad(["run"], "layer_sizes needs >= 2 positive extents, got (2,)", {
        "model": {"kind": "mlp_classifier", "layer_sizes": [2]}, "sparsity": None}),
    "zero_layer_size": Bad(["run"], "layer_sizes needs >= 2 positive extents, got (2, 0, 2)",
                           {"model": {"kind": "mlp_classifier", "layer_sizes": [2, 0, 2]}}),
    # the model's two ends must match the data it trains on
    "inputs_not_n_features": Bad(["run"], "model.layer_sizes must run from data.n_features 2 to "
                                 "data.n_classes 2, got (3, 16, 2)",
                                 {"model": {"kind": "mlp_classifier", "layer_sizes": [3, 16, 2]}}),
    "outputs_above_n_classes": Bad(["run"], "model.layer_sizes must run from data.n_features 2 to "
                                   "data.n_classes 2, got (2, 16, 3)",
                                   {"model": {"kind": "mlp_classifier", "layer_sizes": [2, 16, 3]}}),
    "outputs_below_n_classes": Bad(["run"], "model.layer_sizes must run from data.n_features 2 to "
                                   "data.n_classes 3, got (2, 16, 2)",
                                   {"data": {"kind": "blobs", "n_features": 2, "n_classes": 3}}),
    # a value of the wrong type or range in one slot
    "layer_sizes_not_a_list": Bad(["run"], "model.layer_sizes must be a list, got 'ab'",
                                  {"model": {"kind": "mlp_classifier", "layer_sizes": "ab"}}),
    "layer_size_not_an_integer": Bad(["run"], "model.layer_sizes[1] must be an integer, got 'x'",
                                     {"model": {"kind": "mlp_classifier", "layer_sizes": [2, "x", 2]}}),
    "seeds_not_a_list": Bad(["run"], "seeds must be a list, got 5", {"seeds": 5}),
    "seed_not_an_integer": Bad(["run"], "seeds[1] must be an integer, got 2.5", {"seeds": [1, 2.5]}),
    "total_steps_not_an_integer": Bad(["run"], "total_steps must be an integer, got 'many'",
                                      {"total_steps": "many"}),
    "sparsity_not_a_mapping": Bad(["run"], "section 'sparsity' must be a mapping",
                                  {"sparsity": ["fc2.weight"]}),
    # only a null sparsity section is the empty plan
    **{f"sparsity_{name}": Bad(["run"], "section 'sparsity' must be a mapping", {"sparsity": value})
       for name, value in [("empty_list", []), ("zero", 0), ("false", False), ("empty_string", "")]},
    "sparsity_n_not_an_integer": Bad(["run"], "sparsity.fc2.weight.n must be an integer, got 'one'",
                                     {"sparsity": {"fc2.weight": {"n": "one", "m": 4}}}),
    "lam_not_a_number": Bad(["run"], "recipe.lam must be a number, got 'x'",
                            {"recipe": {"kind": "srste", "lam": "x"}}),
    "switch_step_not_an_integer": Bad(["run"], "switch.step must be an integer, got 'soon'",
                                      {"switch": {"kind": "fixed", "step": "soon"}}),
    "threshold_not_a_number": Bad(["run"], "switch.threshold must be a number, got 'low'",
                                  {"switch": {"kind": "relative", "threshold": "low"}}),
    "lr_not_a_number": Bad(["run"], "optimizer.lr must be a number, got 'big'",
                           {"optimizer": {"lr": "big"}}),
    "n_samples_below_one": Bad(["run"], "data.n_samples must be >= 1, got -4",
                               {"data": {"kind": "blobs", "n_samples": -4}}),
    "batch_size_not_an_integer": Bad(["run"], "data.batch_size must be an integer, got 'big'",
                                     {"data": {"kind": "blobs", "batch_size": "big"}}),
    # a value in range for its type that its owner refuses
    "no_seeds": Bad(["run"], "seeds must be non-empty", {"seeds": []}),
    "negative_seeds": Bad(["run"], "seeds must be non-negative integers", {"seeds": [-1]}),
    "twice_the_same_seed": Bad(["run"], "seed 3 is given more than once", {"seeds": [3, 3]}),
    "seeds_as_text": Bad(["run"], "seeds must be a list, got 'three'", {"seeds": "three"}),
    # a config builds its recipe, which checks its switch, before it reads the seeds
    **{f"switch_named_before_{name}_seeds": Bad(["run"], "recipe 'step' needs a switch section",
                                                {"seeds": seeds, "switch": None})
       for name, seeds in [("no", []), ("negative", [-1]), ("repeated", [3, 3]), ("text", "three")]},
    "missing_total_steps": Bad(["run"], "missing key(s) in 'config': ['total_steps']",
                               {"total_steps": None}),
    "one_class": Bad(["run"], "data.n_classes must be >= 2 for blobs, got 1", {
        "model": {"kind": "mlp_classifier", "layer_sizes": [2, 16, 1]},
        "data": {"kind": "blobs", "n_classes": 1}, "sparsity": None}),
    "zero_lr": Bad(["run"], "learning rate must be positive", {"optimizer": {"lr": 0}}),
    "negative_lr": Bad(["run"], "learning rate must be positive", {"optimizer": {"lr": -0.01}}),
    "beta2_one": Bad(["run"], "beta2 must be in [0, 1), got 1.0", {"optimizer": {"beta2": 1.0}}),
    "negative_lam": Bad(["run"], "lam must be >= 0", {"recipe": {"kind": "srste", "lam": -1}}),
    "small_negative_lam": Bad(["run"], "lam must be >= 0", {"recipe": {"kind": "srste", "lam": -0.1}}),
    "lam_outside_srste": Bad(["run"], "lam only applies to the srste recipe",
                             {"recipe": {"kind": "step", "lam": 0.1}}),
    "lam_on_ste": Bad(["run"], "lam only applies to the srste recipe",
                      {"recipe": {"kind": "ste", "lam": 0.1}}),
    "unknown_sparsity_layer": Bad(["run"], "sparsity plan references unknown layer 'fc9.weight'",
                                  {"sparsity": {"fc9.weight": {"n": 1, "m": 4}}}),
    "sparsity_on_a_bias": Bad(["run"], "sparsity plan lists 'fc2.bias', which is not an (out, in) "
                              "weight", {"sparsity": {"fc2.bias": {"n": 1, "m": 2}}}),
    "sparsity_on_the_first_bias": Bad(["run"], "sparsity plan lists 'fc1.bias', which is not an "
                                      "(out, in) weight", {"sparsity": {"fc1.bias": {"n": 1, "m": 2}}}),
    "m_not_dividing_extent": Bad(["run"], "layer 'fc2.weight': innermost extent 16 not divisible "
                                 "by m=3", {"sparsity": {"fc2.weight": {"n": 1, "m": 3}}}),
    # fc1.weight is (16, 2)
    "m_not_dividing_the_first_extent": Bad(["run"], "layer 'fc1.weight': innermost extent 2 not "
                                           "divisible by m=4",
                                           {"sparsity": {"fc1.weight": {"n": 1, "m": 4}}}),
    # a decay's m must divide every planned layer, whichever recipe the config trains
    **{f"decay_m_not_dividing_extent-{kind}": Bad(
        ["run"], "layer 'fc2.weight': innermost extent 16 not divisible by m=3",
        {"recipe": {"kind": kind}, "ablation": {"decay": {"m": 3, "stage_boundaries": [60]}}})
       for kind in ("step", "dense")},
    "n_above_m": Bad(["run"], "need 1 <= n <= m, got 5:4",
                     {"sparsity": {"fc2.weight": {"n": 5, "m": 4}}}),
    "stage_boundaries_not_increasing": Bad(
        ["run"], "stage boundaries must be strictly increasing positive steps",
        {"ablation": {"decay": {"m": 4, "stage_boundaries": [60, 30]}}}),
    "unknown_sampler_option": Bad(["run"], "unknown sampler option 'bogus'",
                                  {"switch": {**BASE_CONFIG["switch"], "option": "bogus"}}),
    "clip_min_not_below_max": Bad(["run"], "clipping needs 0 <= T_min < T_max, got (60, 12)", {
        "switch": {"kind": "autoswitch", "clip": {"t_min_ratio": 0.5, "t_max_ratio": 0.1}}}),
    # the same clip on a document that names only the sections it needs
    "clip_min_not_below_max_at_1000_steps": Bad(
        ["run"], "clipping needs 0 <= T_min < T_max, got (500, 100)", {
            "model": {"kind": "mlp_classifier", "layer_sizes": [2, 4, 2]}, "data": {"kind": "blobs"},
            "optimizer": {}, "sparsity": None, "output_dir": None, "total_steps": 1000, "seeds": [0],
            "switch": {"kind": "autoswitch", "clip": {"t_min_ratio": 0.5, "t_max_ratio": 0.1}}},
        out=None),
    **{f"clip_{key}_{name}": Bad(["run"], f"switch.clip.{key} must be in [0, 1], got {ratio}", {
        "switch": {"kind": "autoswitch", "clip": {"t_min_ratio": 0.1, "t_max_ratio": 0.5, key: ratio}}})
       for key, name, ratio in [("t_min_ratio", "huge", 1e308), ("t_min_ratio", "negative", -0.5),
                                ("t_max_ratio", "above_one", 1.5),
                                ("t_max_ratio", "hugely_negative", -1e308)]},
    **{f"precondition_ratio_{name}": Bad(
        ["run"], f"ablation.precondition_ratios must be in (0, 1], got {ratio}",
        {"ablation": {"precondition_ratios": [0.5, ratio]}})
       for name, ratio in [("huge", 1e308), ("negative", -0.5), ("zero", 0.0), ("above_one", 1.5)]},
    **{f"output_dir_{name}": Bad(["run"], f"output_dir must be a string, got {text}",
                                 {"output_dir": value}, out=None)
       for name, value, text in [("list", ["a", "b"], "['a', 'b']"), ("int", 5, "5"),
                                 ("mapping", {"a": "b"}, "{{'a': 'b'}}")]},
    "fixed_step_zero": Bad(["run"], "fixed criterion needs a positive step",
                           {"switch": {"kind": "fixed", "step": 0}}),
    # YAML ints that float() cannot take, or that numpy cannot index with
    "lr_beyond_float": Bad(["run"], f"optimizer.lr must be finite, got {BIG}",
                           {"optimizer": {**BASE_CONFIG["optimizer"], "lr": BIG}}),
    "noise_std_beyond_float": Bad(["run"], f"data.noise_std must be finite, got {BIG}",
                                  {"data": {**BASE_CONFIG["data"], "noise_std": BIG}}),
    "t_max_ratio_beyond_float": Bad(["run"], f"switch.clip.t_max_ratio must be finite, got {BIG}", {
        "switch": {"kind": "autoswitch", "clip": {"t_min_ratio": 0.1, "t_max_ratio": BIG}}}),
    "total_steps_beyond_index": Bad(["run"], f"total_steps must be below 2**63, got {BIG}",
                                    {"total_steps": BIG}),
    "seed_beyond_index": Bad(["run"], f"seeds[0] must be below 2**63, got {BIG}", {"seeds": [BIG]}),
    "n_samples_beyond_index": Bad(["run"], f"data.n_samples must be below 2**63, got {BIG}",
                                  {"data": {**BASE_CONFIG["data"], "n_samples": BIG}}),
    "seed_flag_beyond_index": Bad(["run", f"--seed={10**300}"],
                                  f"seeds[0] must be below 2**63, got {10**300}"),
    # unknown keys of mixed types, sorted by str and each shown by its repr
    "mixed_unknown_data_keys": Bad(["run"], "unknown key(s) in 'data': [1, 'zz']", yaml.safe_dump(
        {key: value for key, value in BASE_CONFIG.items() if key != "data"}).encode()
        + b"data: {kind: blobs, 1: 2, zz: 3}\n"),
    "mixed_unknown_keys": Bad(["run"], "unknown key(s) in 'config': [None, 'zz']",
                              BASE_YAML + b"~: 1\nzz: 2\n"),
    "mixed_unknown_keys_sorted": Bad(["run"],
                                     "unknown key(s) in 'config': ['10', 5, None, \"a'b\", 'zz']",
                                     BASE_YAML + b"zz: 1\n5: 2\n\"a'b\": 3\n~: 4\n'10': 5\n"),
    # --config naming no readable file: load_config reads it, the command line checks nothing
    **{f"config_{name}-{command}": Bad(argv, f"cannot read config {{path}}: {reason}", name)
       for command, argv in CONFIG_COMMANDS.items()
       for name, reason in [("missing", "No such file or directory"),
                            ("directory", "Is a directory")]},
    **{f"config_{name}-{command}": Bad(argv, f"cannot read config {{path}}: {reason}", content)
       for command, argv in CONFIG_COMMANDS.items()
       for name, content, reason in [
           ("malformed_yaml", b"model: [unclosed\n", "…expected ',' or ']'…"),
           ("not_utf8", b"model: \xff\n", "'utf-8' codec can't decode byte 0xff…"),
           ("bad_date", b"seeds: 2001-13-45\n", "…month must be in 1..12")]},
    # the drivers' own refusals: two-phase cells take the config's switch, and their Recipe
    # refuses to be built without one; an empty decay is one left out
    "fixed_vs_updated_without_switch": Bad(CONFIG_COMMANDS["ablate"],
                                           "recipe 'step' needs a switch section",
                                           {"recipe": {"kind": "dense"}, "switch": None}, call="driver"),
    "decaying_without_decay": Bad(DECAYING, "decaying_mask needs ablation.decay", call="driver"),
    "decaying_with_null_decay": Bad(DECAYING, "decaying_mask needs ablation.decay",
                                    {"ablation": {"decay": None}}, call="driver"),
    "decaying_without_switch": Bad(DECAYING, "recipe 'step_updated_variance' needs a switch section", {
        "recipe": {"kind": "dense"}, "switch": None,
        "ablation": {"decay": {"m": 4, "stage_boundaries": [10]}}}, call="driver"),
    "ablation_kind": Bad(["ablate", "--kind", "bogus"], "unknown ablation kind 'bogus'", FIXED,
                         call="driver"),
    "weight_decay_ablation_kind": Bad(["ablate", "--kind", "weight_decay"],
                                      "unknown ablation kind 'weight_decay'", call="driver"),
    "precondition_length_without_ratios": Bad(
        ["ablate", "--kind", "precondition_length"],
        "precondition_length needs ablation.precondition_ratios", FIXED, call="driver"),
    "autoswitch_precondition_length_without_ratios": Bad(
        ["ablate", "--kind", "precondition_length"],
        "precondition_length needs ablation.precondition_ratios", call="driver"),
    "unknown_criterion": Bad(["compare-switch", "--criteria", "relative,foo"],
                             "unknown criterion kind 'foo'", PROFILE, call="driver"),
    # --criteria names no kind, so compare_switch gets an empty list and refuses it, before it
    # checks the budget
    **{f"no_criterion-{name}": Bad(["compare-switch", "--criteria", criteria],
                                   "compare_switch needs at least one criterion",
                                   {**PROFILE, "total_steps": steps}, call="driver")
       for name, criteria, steps in [("comma", ",", 1002), ("blank", " ", 1002),
                                     ("comma_at_1001_steps", ",", 1001),
                                     ("comma_at_120_steps", ",", 120)]},
    # compare_switch scores a switch at step 1 by the steps up to 1002: a shorter budget is
    # refused before it trains
    **{f"profile_too_short-{steps}": Bad(
        ["compare-switch", "--criteria", criteria], "profile too short for the metric window: a "
        f"switch at step 1 needs per-step changes up to step 1002, have {steps}",
        {**PROFILE, "total_steps": steps}, call="driver", error=RangeError)
       for criteria, steps in [("autoswitch", 1001), ("relative", 60)]},
    # an --out that cannot be a directory, checked before any step or draw: Path('') is the
    # current directory, so an empty --out would write there
    "out_name_too_long": Bad(["run"], "cannot write to output directory {out}: File name too long",
                             FIXED, out="x" * 300, call="driver"),
    **{f"out_{name}-{command}": Bad(argv, message, config, out=out, call=(
        "check_output_dir" if command == "validate-theorem" else "driver"))
       for command, (argv, config) in DRIVEN.items()
       for name, out, message in [("empty", "", "output directory must not be empty"),
                                  ("a_file", "taken", BLOCKED), ("under_a_file", "taken/out", BLOCKED)]},
    # the same, as the document's own output_dir, which no --out replaces
    **{f"output_dir_{name}-{command}": Bad(argv, message, {**config, "output_dir": out_dir}, out=None,
                                           call="driver")
       for command, (argv, config) in DRIVEN.items() if command != "validate-theorem"
       for name, out_dir, message in [
           ("empty", "", "output directory must not be empty"),
           ("under_a_file", "taken/out", "cannot write to output directory taken/out: taken is not a "
                                         "directory")]},
    # validate-theorem's flags, checked by the stream and the validator
    "stream_kind": Bad(["validate-theorem", "--stream", "bogus"], "unknown stream kind 'bogus'",
                       call="stream"),
    "g_inf": Bad([*THEOREM, "--g", "inf"], "stream bound G must be positive and finite, got inf",
                 call="stream"),
    "g_nan": Bad([*THEOREM, "--g", "nan"], "stream bound G must be positive and finite, got nan",
                 call="stream"),
    "sigma_nan": Bad([*THEOREM, "--stream", "trunc_gauss_sq", "--sigma", "nan"],
                     "sigma must be positive and finite, got nan", call="stream"),
    **{f"{stream}_reads_no_{option}": Bad(
        ["validate-theorem", "--stream", stream, f"--{option}", "0.3"],
        f"stream kind '{stream}' does not read ['{option}']", call="stream")
       for stream, option in [("uniform", "level"), ("constant", "p"), ("bernoulli", "sigma"),
                              ("trunc_gauss_sq", "p")]},
    "level_above_g": Bad(["validate-theorem", "--stream", "constant", "--level", "2"],
                         "constant level must lie in [0, G]", call="stream"),
    "p_above_one": Bad(["validate-theorem", "--p", "1.5"], "bernoulli probability must lie in [0, 1]",
                       call="stream"),
    "dim_zero": Bad(["validate-theorem", "--dim=0"], "stream dimension must be >= 1", call="stream"),
    "negative_stream_seed": Bad(["validate-theorem", "--seed=-1"],
                                "stream seed must be a non-negative integer", call="stream"),
    "beta2_above_one": Bad(["validate-theorem", "--beta2=1.5"], "beta2 must be in (0, 1), got 1.5",
                           call="validate_theorem", error=DomainError),
    "zero_trials": Bad(["validate-theorem", "--trials=0"], "trials must be >= 1",
                       call="validate_theorem"),
    "t0_too_small": Bad(["validate-theorem", "--beta2", "0.9", "--t0", "2"],
                        "t0=2 is too small: the bound needs t0 > 11.65 (minimal integer 12)",
                        call="validate_theorem"),
    "t_not_above_t0": Bad(["validate-theorem", "--beta2", "0.9", "--t0", "50", "--t", "50"],
                          "need t > t0 >= 1, got t=50, t0=50", call="validate_theorem",
                          error=RangeError),
    "delta_above_two": Bad(["validate-theorem", "--delta", "3"], "delta must be in (0, 2], got 3.0",
                           call="validate_theorem", error=DomainError),
    "t_beyond_index": Bad(["validate-theorem", f"--t={BIG}"], f"t must be below 2**63, got {BIG}",
                          call="validate_theorem", error=RangeError),
    # one step of one trial at dim 262145 is 2 MiB + 8 bytes
    "dim_beyond_draw_budget": Bad(
        ["validate-theorem", "--dim", "262145", "--beta2", "0.9", "--t0", "12", "--t", "13",
         "--trials", "1"],
        "stream dimension 262145 is too large: one step of one trial takes 2097160 bytes, more "
        "than the 2097152-byte draw buffer (dimension at most 262144)", call="validate_theorem"),
}


def library_call(call: str, argv: list) -> None:
    """The library call ``call`` of ``Bad``, made with the values click parses ``argv`` to."""
    flags = cli_main.commands[argv[0]].make_context(argv[0], argv[1:]).params
    if call == "check_output_dir":
        harness.check_output_dir(flags["out"])
    elif argv[0] == "validate-theorem":
        stream = theory.StationaryStream(
            kind=flags["stream"], bound=flags["bound_g"], dim=flags["dim"], seed=flags["seed"],
            level=flags["level"], p=flags["p"], sigma=flags["sigma"])
        if call == "validate_theorem":
            theory.validate_theorem(stream, flags["beta2"], flags["t0"], flags["t"], flags["delta"],
                                    flags["trials"])
    else:
        config = harness.load_config(flags["config_path"], seeds=flags.get("seeds", ()),
                                     output_dir=flags["out"])
        if call == "driver" and argv[0] == "run":
            harness.run(config)
        elif call == "driver" and argv[0] == "ablate":
            harness.ablation(flags["kind"], config)
        elif call == "driver":
            kinds = [kind.strip() for kind in flags["criteria"].split(",") if kind.strip()]
            harness.compare_switch(config, harness.default_comparison_criteria(config.total_steps, kinds))


def tree(root: Path) -> dict:
    """Every path under ``root``, with its bytes if it is a file."""
    return {p.relative_to(root): p.is_file() and p.read_bytes() for p in root.rglob("*")}


class TestEveryBadInputExits2:
    """Every input the toolkit refuses, and the one contract each refusal keeps."""

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, case):
        """The library call raises the row's error and message; ``stepnm`` prints exactly
        ``error: <message>`` and exits 2, before it builds data, trains or draws, and leaves the
        directory as it was: ``--out`` is not made, the file ``taken`` is unchanged."""
        bad = BAD_INPUTS[case]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("not a directory\n")
        path = tmp_path / "config.yaml"
        if isinstance(bad.config, dict):
            make_config(tmp_path, **bad.config)
        elif isinstance(bad.config, bytes):
            path.write_bytes(bad.config)
        elif bad.config == "directory":
            path.mkdir()
        out = str(tmp_path / bad.out) if bad.out else bad.out
        config_flag = [] if bad.argv[0] == "validate-theorem" else ["--config", str(path)]
        argv = [*bad.argv, *config_flag, *([] if out is None else ["--out", out])]
        work = [(models.DataConfig, "build"), (harness, "recipe_train"), (theory.StationaryStream, "draw")]
        if bad.call != "validate_theorem":  # else the validator's own checks are the refusal
            work.append((theory, "validate_theorem"))
        for owner, name in work:
            monkeypatch.setattr(owner, name, lambda *a, name=name, **k: pytest.fail(f"reached {name}"))
        before = tree(tmp_path)

        with pytest.raises(bad.error) as info:
            library_call(bad.call, argv)
        message = bad.message.format(path=path, out=out, tmp=tmp_path)
        assert type(info.value) is bad.error
        assert re.fullmatch(".*".join(map(re.escape, message.split("…"))), str(info.value))
        monkeypatch.setattr("sys.argv", ["stepnm", *argv])
        with pytest.raises(SystemExit) as exit_info:
            cli_entry()
        assert exit_info.value.code == 2
        assert capsys.readouterr() == ("", f"error: {info.value}\n")
        assert tree(tmp_path) == before


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
