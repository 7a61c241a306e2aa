"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the recipe-gap criterion gates on
paired seeds and reports the ordering of its seed means without gating it.
"""

import math
import time
from statistics import fmean

import numpy as np
import pytest

from conftest import buffer, simulate_vhat, step_record
from fd_check import finite_difference_check
from stepnm import harness, models, optim, theory
from stepnm.autoswitch import SwitchCriterion, make_detector, mixing_window
from stepnm.masks import NMRatio, compute_nm_mask
from stepnm.optim import AdamHyper, Recipe, adam_step, init_adam_state
from stepnm.theory import StationaryStream


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" :: {detail}" if detail else ""
    print(f"[{tag}] {name}{suffix}")


def _blob_mlp(hidden=16, noise=0.6, activation="relu"):
    spec = models.ModelSpec("mlp_classifier", (2, hidden, 2), activation=activation)
    ds = models.DataConfig(
        "blobs", 256, 2, n_classes=2, noise_std=noise, seed=0, batch_size=32
    ).build()
    return spec, ds


def test_mask_structure_exhaustive():
    """10^4 random tensors across 1:4, 2:4, 1:8, 2:8: counts and ordering, < 10 s."""
    start = time.time()
    rng = np.random.default_rng(2024)
    ratios = [NMRatio(1, 4), NMRatio(2, 4), NMRatio(1, 8), NMRatio(2, 8)]
    checked = 0
    for ratio in ratios:
        for i in range(2500):
            rows = int(rng.integers(1, 5))
            w = rng.standard_normal((rows, ratio.m * int(rng.integers(1, 4))))
            if i % 5 == 0:
                w = np.round(w, 1)  # quantized weights exercise the tie-break
            mask = compute_nm_mask(w, ratio)
            flat_w = w.ravel()
            flat_p = mask.ravel()
            for g in range(flat_w.size // ratio.m):
                idx = range(g * ratio.m, (g + 1) * ratio.m)
                kept = {j for j in idx if flat_p[j] == 1.0}
                assert len(kept) == ratio.n
                expected = set(sorted(idx, key=lambda j: (-abs(flat_w[j]), j))[: ratio.n])
                assert kept == expected
            checked += 1
    elapsed = time.time() - start
    ok = checked == 10_000 and elapsed < 10.0
    _report("mask structure (10^4 tensors, 4 ratios)", ok, f"{elapsed:.1f}s")
    assert ok


def test_adam_single_step_oracle():
    """Hand-computed step to 1e-12; 100 random cases against a scalar oracle."""
    hyper = AdamHyper(lr=1e-3)
    params = buffer(w=np.array([0.5]))
    state = init_adam_state(params)
    state, params = adam_step(state, hyper, params, buffer(w=np.array([2.0])))
    hand_ok = abs(params["w"][0] - 0.49900000000125) < 1e-12

    rng = np.random.default_rng(77)
    max_err = 0.0
    for _ in range(100):
        w0 = float(rng.standard_normal())
        g = float(rng.standard_normal())
        b1 = float(rng.uniform(0.5, 0.99))
        b2 = float(rng.uniform(0.9, 0.9999))
        eps = float(rng.uniform(1e-9, 1e-6))
        gamma = float(rng.uniform(1e-4, 1e-2))
        case_hyper = AdamHyper(beta1=b1, beta2=b2, eps=eps, lr=gamma)
        p = buffer(w=np.array([w0]))
        s = init_adam_state(p)
        s, p = adam_step(s, case_hyper, p, buffer(w=np.array([g])))
        # independent scalar oracle in plain python floats
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        ref = w0 - gamma * (m / (1 - b1)) / math.sqrt(v / (1 - b2) + eps)
        max_err = max(max_err, abs(p["w"][0] - ref))
    ok = hand_ok and max_err < 1e-12
    _report("adam single-step oracle", ok, f"max scalar-oracle error {max_err:.2e}")
    assert ok


def test_phase_one_bitwise_equivalence(train_with_snapshots):
    """Forced switch at 500: identical to plain Adam through step 500, bitwise.

    The switch step's snapshot is taken after the switch, so step's v there
    is already dense Adam's v* turned into sqrt(v* + eps).
    """
    spec, ds = _blob_mlp()
    plan = {"fc2.weight": NMRatio(1, 4)}
    hyper = AdamHyper(lr=5e-3)
    crit = SwitchCriterion(kind="fixed", step=500)
    step_run, step_snaps = train_with_snapshots(
        {500}, spec, ds, hyper, plan, Recipe("step", switch=crit), 800, seed=42
    )
    dense_run, dense_snaps = train_with_snapshots(
        {500}, spec, ds, hyper, plan, Recipe("dense"), 800, seed=42
    )
    p1, s1 = step_snaps[500]
    p2, s2 = dense_snaps[500]
    bitwise = all(np.array_equal(p1[k], p2[k]) for k in p1)
    bitwise &= all(np.array_equal(s1.m[k], s2.m[k]) for k in s1.m)
    bitwise &= all(np.array_equal(s1.v[k], np.sqrt(s2.v[k] + hyper.eps)) for k in s1.v)
    losses = all(a.loss == b.loss for a, b in zip(step_run.records[:500], dense_run.records[:500]))
    ok = bitwise and losses and step_run.switched_at == 500
    _report("phase-one bitwise equivalence (t0=500)", ok)
    assert ok


def test_frozen_variance_exact(train_with_snapshots):
    """Across two-phase runs, max over mask-learning steps of ||v_t - sqrt(v* + eps)||_inf == 0.

    At the switch, step writes sqrt(v* + eps) over v* in v's own buffer, so
    the snapshots hold it from the switch step on.  v* is dense Adam's v at
    that step, which step matches bit for bit up to it.
    """
    spec, ds = _blob_mlp()
    plan = {"fc2.weight": NMRatio(1, 4)}
    hyper = AdamHyper(lr=5e-3)
    worst = 0.0
    runs = 0
    for seed, crit in [
        (1, SwitchCriterion(kind="fixed", step=120)),
        (2, SwitchCriterion(kind="autoswitch", clip=(60, 300))),
        (3, SwitchCriterion(kind="fixed", step=37)),
    ]:
        # a copy after every step, since the autoswitch picks its own
        run, snapshots = train_with_snapshots(range(1, 601), spec, ds, hyper, plan,
                                              Recipe("step", switch=crit), 600, seed=seed)
        assert run.switched_at is not None and run.switched_at < 600
        _, dense = train_with_snapshots({run.switched_at}, spec, ds, hyper, plan, Recipe("dense"),
                                        run.switched_at, seed=seed)
        frozen = {k: np.sqrt(v_star + hyper.eps) for k, v_star in dense[run.switched_at][1].v.items()}
        for t in range(run.switched_at, 601):
            _, later = snapshots[t]
            for k, denom in frozen.items():
                worst = max(worst, float(np.max(np.abs(later.v[k] - denom))))
        phase2_l1 = {r.v_l1 for r in run.records if r.phase == "mask_learning"}
        assert len(phase2_l1) == 1
        runs += 1
    ok = worst == 0.0 and runs == 3
    _report("frozen variance exact", ok, f"max ||v - sqrt(v* + eps)||_inf = {worst}")
    assert ok


def test_theorem_monte_carlo():
    """Bernoulli{0,1}, beta2=0.999, t0=2000, t=12000, delta=0.01, 500 trials."""
    start = time.time()
    stream = StationaryStream(kind="bernoulli", bound=1.0, dim=1, seed=42)
    report = theory.validate_theorem(stream, 0.999, t0=2000, t=12000, delta=0.01, trials=500)
    elapsed = time.time() - start
    rate_ok = report.violation_rate <= 0.02
    step_ok = report.max_per_step_deviation <= 0.0014142135623730952 + 1e-12
    ok = rate_ok and step_ok and report.per_step_bound_ok
    _report(
        "theorem monte carlo",
        ok,
        f"violation_rate={report.violation_rate:.4f} (<=0.02), "
        f"max_step_dev={report.max_per_step_deviation:.6f} "
        f"(<= {report.per_step_bound_value:.7f}), {elapsed:.1f}s",
    )
    assert ok


def test_stationarity_identity():
    """Mean of v_1000 over 10^4 iid replicas of a mean-1 stream within 2% of 0.63230."""
    stream = StationaryStream(kind="bernoulli", bound=2.0, dim=10_000, seed=7)
    vhat = simulate_vhat(stream, 0.999, 1000)
    v_raw = vhat[999] * (1.0 - 0.999**1000)
    target = 1.0 - 0.999**1000  # 0.63230...
    rel = abs(float(v_raw.mean()) - target) / target
    ok = rel < 0.02
    _report("stationarity identity", ok, f"mean={float(v_raw.mean()):.5f} target={target:.5f} rel={rel:.4%}")
    assert ok


def test_gradient_correctness_fd():
    """20 random tanh MLPs pass the central-difference check at rel tol 1e-5."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    all_pass = True
    for i in range(20):
        spec = models.ModelSpec("mlp_classifier", (3, 5, 3), activation="tanh")
        params = models.init_params(spec, (2025, i))
        inputs = rng.standard_normal((8, 3))
        targets = rng.integers(0, 3, 8).astype(float)
        report = finite_difference_check(spec, params, (inputs, targets), h=1e-5, tol=1e-5)
        worst = max(worst, report.max_rel_error)
        all_pass &= report.passed
    _report("gradient correctness (20 tanh MLPs)", all_pass, f"worst rel error {worst:.2e}")
    assert all_pass


@pytest.mark.parametrize("beta2", [0.999, 0.99])
def test_switch_quality_ordering(beta2, tmp_path):
    """5-seed dense profiles: the clipped autoswitch's t0 beats both baselines.

    At beta2 = 0.999 the clip decides the autoswitch row, not the window: the
    windowed mean stays above eps up to T_max, so every seed switches at
    T_max = 1300, against steps 2-4 for ``relative`` and step 1001 for
    ``staleness``.  At beta2 = 0.99 (a window of 100 steps) the window decides:
    every seed switches below T_max (at 832-959 when this was written), and
    scores 400x to 4600x lower than both baselines.  The metric window stays
    1001 steps at both beta2, which is ten windows at 0.99; which window the
    metric should use at other beta2 is not settled here.
    """
    doc = {
        "model": {"kind": "mlp_classifier", "layer_sizes": [2, 16, 2], "activation": "relu"},
        "data": {"kind": "blobs", "n_samples": 256, "n_features": 2, "n_classes": 2,
                 "noise_std": 0.25, "seed": 0, "batch_size": 32},
        "optimizer": {"lr": 0.005, "beta2": beta2},
        "recipe": {"kind": "dense"},
        "total_steps": 2600,
        "seeds": [1, 2, 3, 4, 5],
        "output_dir": str(tmp_path),
    }
    config = harness.config_from_dict(doc)
    t_max = harness.default_comparison_criteria(config.total_steps)[0].clip[1]
    assert t_max == 1300
    rows = harness.compare_switch(config, harness.default_comparison_criteria(config.total_steps))
    by_seed = {}
    for row in rows:
        by_seed.setdefault(row["seed"], {})[row["criterion"].split("[")[0]] = row
    ok = True
    details = []
    for seed, entry in sorted(by_seed.items()):
        auto = entry["autoswitch"]["avg_change_metric"]
        rel = entry["relative"]["avg_change_metric"]
        stale = entry["staleness"]["avg_change_metric"]
        seed_ok = auto is not None and auto <= rel and auto <= stale
        if beta2 == 0.99:  # the window, not the clip, decides
            seed_ok &= entry["autoswitch"]["t0"] < t_max
        ok &= seed_ok
        details.append(f"seed{seed}: t0={entry['autoswitch']['t0']} auto={auto:.2e} "
                       f"rel={rel:.2e} stale={stale:.2e}")
    _report(f"switch-quality ordering (5 seeds, beta2={beta2})", ok, "; ".join(details))
    assert ok


def test_recipe_gap_direction():
    """Paired seeds: STEP's sparse loss is at or below each baseline's on at least 4 of 5 seeds,
    and in the seed mean.

    The baselines are STEP with its variance updated in the masked phase, SR-STE at two
    lambdas, and STE.  Runs are byte-reproducible, so the gate cannot be flaky, but it is no
    significance test: the smallest per-seed margin was 9e-5 (seed 5, against SR-STE at
    lambda 2e-4 and against STE) when this was written.  The ordering of the seed means,
    STEP <= SRSTE(best) <= STE, is printed with its numbers either way.
    """
    spec, ds = _blob_mlp(hidden=32, noise=0.6, activation="tanh")
    plan = {"fc2.weight": NMRatio(1, 4)}
    hyper = AdamHyper(lr=5e-3)
    total = 2000
    crit = SwitchCriterion(kind="autoswitch", clip=(int(0.1 * total), int(0.5 * total)))
    losses = {}
    for label, kind, lam in [
        ("step", "step", 0.0),
        ("step_updated_variance", "step_updated_variance", 0.0),
        ("srste_0.01", "srste", 0.01),
        ("srste_0.0002", "srste", 0.0002),
        ("ste", "ste", 0.0),
    ]:
        two_phase = optim.RECIPE_KINDS[kind][1] is not None
        losses[label] = []
        for seed in (1, 2, 3, 4, 5):
            run = optim.recipe_train(spec, ds, hyper, plan, Recipe(kind, lam=lam, switch=crit),
                                     total, seed)
            assert math.isfinite(run.sparse_eval_loss)
            if two_phase:
                assert run.switched_at is not None
                assert 0.1 * total < run.switched_at <= 0.5 * total
            losses[label].append(run.sparse_eval_loss)
    means = {label: fmean(values) for label, values in losses.items()}
    step = means["step"]
    srste = min(means["srste_0.01"], means["srste_0.0002"])
    ste = means["ste"]
    ordered = step <= srste <= ste
    detail = (
        f"STEP={step:.4f} STEP(updated v)={means['step_updated_variance']:.4f} "
        f"SRSTE(0.01)={means['srste_0.01']:.4f} "
        f"SRSTE(2e-4)={means['srste_0.0002']:.4f} STE={ste:.4f} "
        f"ordering={'holds' if ordered else 'not met (reported only)'}"
    )
    wins = {label: sum(a <= b for a, b in zip(losses["step"], values))
            for label, values in losses.items() if label != "step"}
    ok = all(wins[label] >= 4 and step <= means[label] for label in wins)
    _report("recipe-gap direction (paired seeds)", ok,
            detail + " seeds STEP wins: " + " ".join(f"{k}={v}/5" for k, v in wins.items()))
    assert ok, losses


def test_autoswitch_mechanics():
    """T_w = 1000 at beta2 = 0.999; clipped decisions respect the budget window."""
    tw_ok = mixing_window(0.999) == 1000

    never_early = True
    always_by_half = True
    for total in (1000, 4000):
        t_min, t_max = int(0.1 * total), int(0.5 * total)
        for z_value in (1e6, 0.0):  # adversarial constant streams, high and low
            criterion = SwitchCriterion(kind="autoswitch", clip=(t_min, t_max))
            detector = make_detector(criterion, beta2=0.999, eps=1e-8)
            fired_at = None
            for t in range(1, total + 1):
                if detector.observe(step_record(t, z_value, z_value, 1.0, 1.0)):
                    fired_at = t
                    break
            if fired_at is None or fired_at <= t_min:
                never_early = False
            if fired_at is None or fired_at > t_max:
                always_by_half = False
    ok = tw_ok and never_early and always_by_half
    _report("autoswitch mechanics", ok,
            f"T_w={mixing_window(0.999)}, never fires at <=0.1T, always by 0.5T")
    assert ok
