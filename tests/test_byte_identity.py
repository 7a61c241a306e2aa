"""Pinned sha256 digests of whole training runs.

Each case trains once and hashes two things: the trajectory JSONL that
``harness.write_trajectory`` writes (every per-step loss, variance norm and
switch sample, plus the final evaluation record), and the final parameters'
bytes in ``models.param_shapes`` order.  The training cases train an MLP
classifier on blobs, one of them a single affine layer.  A change to the training loop that moves any bit of a
run fails here.  The wide case must also read the same digests with OpenBLAS
on one thread and on two.  The theorem validator's cases hash its report, as the
``validate-theorem`` command writes it, for each stream kind.

The digests were recorded with numpy 2.4.6 on OpenBLAS 0.3.31
(scipy-openblas, 64-bit ints, DYNAMIC_ARCH, Haswell kernels), x86-64,
Python 3.11.  Another BLAS build may round a matmul differently and then
reads other digests; on such a build, record them afresh from a commit whose
outputs are trusted before comparing another one against them.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stepnm
from stepnm import harness, models, optim, theory
from stepnm.autoswitch import SwitchCriterion
from stepnm.masks import DecaySchedule, NMRatio
from stepnm.optim import AdamHyper, Recipe

SMALL_STEPS = 300
FIXED = SwitchCriterion(kind="fixed", step=150)
DECAY = DecaySchedule(4, (100, 200))

# name: (recipe, beta2)
SMALL_CASES = {
    "dense": (Recipe("dense"), 0.999),
    "ste": (Recipe("ste"), 0.999),
    "srste": (Recipe("srste", lam=2e-3), 0.999),
    "step": (Recipe("step", switch=FIXED), 0.999),
    "step_updated_variance": (Recipe("step_updated_variance", switch=FIXED), 0.999),
    "ste+decay": (Recipe("ste", decay=DECAY), 0.999),
    "step_updated_variance+decay": (Recipe("step_updated_variance", decay=DECAY, switch=FIXED), 0.999),
    # beta2 = 0.99 gives 100-step windows, so every criterion fires inside the run
    "step/autoswitch+clip": (
        Recipe("step", switch=SwitchCriterion(kind="autoswitch", clip=(50, 150))), 0.99),
    "step/relative": (Recipe("step", switch=SwitchCriterion(kind="relative")), 0.99),
    "step/staleness": (Recipe("step", switch=SwitchCriterion(kind="staleness")), 0.99),
    "step/fixed": (Recipe("step", switch=SwitchCriterion(kind="fixed", step=120)), 0.99),
}

# name: (trajectory sha256, final params sha256)
DIGESTS = {
    "dense": (
        "2cf9fe580dbefffda6fd6054566cac58e4ec686c8c7c44dd20172003cdadebd7",
        "59262b1453cadaccfbeaba237d2af2d7b66355cede00377530e5b3438fd81ab8"),
    "srste": (
        "03a50b5478b28b0ce05b43ce7bc892ec6790257152add2c2fbb0ed5ed84ad47d",
        "4fce49789b45433acc44a059462626a78ca26e77e98209b9a66148905cbbec8c"),
    "ste": (
        "3cad0a6c83e54246f3bdd10c346c4841fa35137124d4276e37949e885cfcaeef",
        "dc187b34dd55b6e5277d7ca045508130fc7b8a8789babc245f7e3f3d5ffb30a2"),
    "ste+decay": (
        "60c6972cde32e48fa51f1972a294e8e734d807e5fbd7bdb508a404ff13e8d5aa",
        "8c5748b2ff28211efc242e7990206f08f3207405b9def4f9ff286196ce94a432"),
    "step": (
        "871a8218c240c4e0fd2edaf516d41ec8d486514f24b5eb641e1be776b9142b52",
        "1b4372f9bc60772de4ed5eece91c8665a75700edf00548204d710d6c6da87940"),
    "step/autoswitch+clip": (
        "df17147249a68a07d97a98babd23e407d4f5cdc22f783c475263edb4cf9fd572",
        "a2a5c38bf4fab6c04cb3f36fc13d056361d21bf87a03af6317d18e9847181f11"),
    "step/fixed": (
        "ed290d4f419d1446ed0d4176f2ffe569491580990b143d4a78d1256cea49b662",
        "25515c34d65639b7966c8e7c88f00805c81f70226214c5ce242c196eed8fbefe"),
    "step/relative": (
        "7b2614193e2fb8abd3bf34c54adbfa09150a2d56cdde5bde4a3534ec07ff785c",
        "2fa9fa6c66497bce762ab82b3e77bb30aee3d241efbcd85a00c3f19518c0f5ab"),
    "step/staleness": (
        "7f793fca742bf9d5696c8a4f672f064e6809ad42b01759a0d9a7009526724495",
        "82cf2915508be6d3b1d7f0871aff35bd3ee0e1c4b91d1183b658b7002bd69557"),
    "step_updated_variance": (
        "3436e995c5e5cb343a90fe9473ae15c2155b7934fd248d6a987f256334fd5fd1",
        "97b4d2cb432b390665924e19096daf1db95659763e5bf4149f6c8ddaadc1573a"),
    "step_updated_variance+decay": (
        "b2e21af09d606ae35ac3c98d58702c19310b6c6cd267d873f240238865eb9cd6",
        "e76ab13bc4caa7515bc0a4233597e8db3d7b1751c64d84b7aabcbd394fc5f8ef"),
    "one-layer": (
        "d9365c395d474b485956a64221b01698122d55c1dbdd77fc36adf047e367d513",
        "acf8783f9a80f3aa5bd495a549271230ace7bbd2208791dce225ccc3f877b0be"),
    "wide": (
        "7fb3138a7205fa5e49c557b555366d10af11cd8e72700a9ef3a7208c400d1a50",
        "36924b717dc8244fc7d64f8837dc2a0a7f7ee6da50c1b10b00827d426131a456"),
}


def _digests(spec, run, tmp_path):
    path = tmp_path / "trajectory.jsonl"
    harness.write_trajectory(path, run)
    params = hashlib.sha256()
    for name in models.param_shapes(spec):
        params.update(np.ascontiguousarray(run.params[name]).tobytes())
    return hashlib.sha256(path.read_bytes()).hexdigest(), params.hexdigest()


@pytest.mark.parametrize("name", sorted(SMALL_CASES))
def test_small_mlp_runs(name, tmp_path):
    recipe, beta2 = SMALL_CASES[name]
    spec = models.ModelSpec("mlp_classifier", (2, 16, 2))
    ds = models.DataConfig("blobs", 256, 2, n_classes=2, noise_std=0.6, seed=0,
                           batch_size=32).build()
    plan = {"fc2.weight": NMRatio(1, 4)}
    hyper = AdamHyper(beta2=beta2, lr=5e-3)
    run = optim.recipe_train(spec, ds, hyper, plan, recipe, SMALL_STEPS, seed=3)
    if recipe.switch is not None:
        assert run.switched_at is not None
    assert _digests(spec, run, tmp_path) == DIGESTS[name]


def test_one_layer_run(tmp_path):
    # a single affine layer under softmax, its one weight planned 2:4
    spec = models.ModelSpec("mlp_classifier", (4, 3))
    ds = models.DataConfig("blobs", 256, 4, n_classes=3, noise_std=0.6, seed=0,
                           batch_size=32).build()
    run = optim.recipe_train(spec, ds, AdamHyper(lr=5e-3), {"fc1.weight": NMRatio(2, 4)},
                             Recipe("step", switch=FIXED), SMALL_STEPS, seed=3)
    assert run.switched_at == 150
    assert _digests(spec, run, tmp_path) == DIGESTS["one-layer"]


def _wide_run_digests(tmp_path):
    # large enough that every matmul goes through BLAS kernels
    spec = models.ModelSpec("mlp_classifier", (64, 128, 128, 10))
    ds = models.DataConfig("blobs", 512, 64, n_classes=10, noise_std=1.0, seed=4,
                           batch_size=64).build()
    plan = {f"fc{i}.weight": NMRatio(2, 4) for i in (1, 2, 3)}
    hyper = AdamHyper(lr=1e-3)
    run = optim.recipe_train(spec, ds, hyper, plan,
                             Recipe("step", switch=SwitchCriterion(kind="fixed", step=5)), 10, seed=7)
    assert run.switched_at == 5
    return _digests(spec, run, tmp_path)


def test_wide_mlp_run(tmp_path):
    assert _wide_run_digests(tmp_path) == DIGESTS["wide"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_wide_mlp_run_is_blas_thread_count_invariant(threads, tmp_path):
    # OpenBLAS reads its thread count once, when it loads, so each count runs
    # the wide case in a process of its own
    code = ("import json, pathlib, sys, test_byte_identity as t; "
            "print(json.dumps(t._wide_run_digests(pathlib.Path(sys.argv[1]))))")
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(stepnm.__file__).parents[1])])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert tuple(json.loads(done.stdout)) == DIGESTS["wide"]


# stream kind: sha256 of the report's JSON
THEOREM_DIGESTS = {
    "constant": "68b7f145b09e2dd7e38be2c562732c4a3b9b17e037f53695d0945091a64e6884",
    "uniform": "b7bed2b354d8cbd0a2b198daf5abccace38e245a6cec7ee5bc56a95dedd6f999",
    "bernoulli": "ee95064da984c9d4cdb9a9234520e3660ecc7887375c554f3badf8cdc9204f8e",
    "trunc_gauss_sq": "6995ade2f1d83e33d3abc30ee1733145f09f78014b2ab9c9066b11b270317482",
}


@pytest.mark.parametrize("kind", theory.STREAM_KINDS)
def test_validate_theorem(kind):
    # the window after t0 is 1200 steps; test_theory.py's TestDrawBudget runs
    # this case again under budgets that cut it into blocks and chunks
    stream = theory.StationaryStream(kind=kind, bound=1.0, dim=3, seed=5)
    report = theory.validate_theorem(stream, 0.99, t0=300, t=1500, delta=0.05, trials=20)
    doc = json.dumps(dataclasses.asdict(report), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == THEOREM_DIGESTS[kind]
