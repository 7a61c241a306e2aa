import collections
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import buffer, step_record
from stepnm.autoswitch import (
    DEFAULT_THRESHOLDS,
    SAMPLER_OPTIONS,
    SwitchCriterion,
    avg_change_metric_from_diffs,
    evaluate_offline,
    make_detector,
    mixing_window,
)
from stepnm.errors import ConfigError, NumericalError, RangeError
from stepnm.harness import config_from_dict
from stepnm.optim import GEOMETRIC_FLOOR, variance_stats


class TestMixingWindow:
    def test_beta2_point999_gives_1000(self):
        assert mixing_window(0.999) == 1000

    @pytest.mark.parametrize("beta2,expected", [(0.9, 10), (0.99, 100), (0.995, 200), (0.5, 2)])
    def test_values(self, beta2, expected):
        assert mixing_window(beta2) == expected

    def test_at_least_one(self):
        assert mixing_window(0.0) == 1


def change_stats(v, v_prev):
    """variance_stats of ``v`` (a dict of arrays) reached from ``v_prev``: dv = v - v_prev."""
    return variance_stats(buffer(**v), buffer(**{n: np.subtract(v[n], v_prev[n]) for n in v}))


class TestVarianceChangeSample:
    def test_arithmetic(self):
        z, _, _, _ = change_stats({"w": np.array([0.002, 0.001])}, {"w": np.array([0.001, 0.004])})
        assert math.isclose(z, 0.002, rel_tol=1e-15)

    def test_equal_coordinates_both_options(self):
        v_prev = {"a": np.array([1.0, 2.0]), "b": np.array([[3.0]])}
        v = {name: arr + 0.005 for name, arr in v_prev.items()}
        z, z_geom, _, _ = change_stats(v, v_prev)
        assert math.isclose(z, 0.005, rel_tol=1e-12)
        assert math.isclose(z_geom, 0.005, rel_tol=1e-12)

    def test_geometric_floor(self):
        _, z_geom, _, _ = change_stats({"w": np.array([1.0, 1.004])}, {"w": np.array([1.0, 1.0])})
        assert math.isclose(z_geom, math.sqrt(GEOMETRIC_FLOOR * 0.004), rel_tol=1e-9)


def autoswitch(clip=None, beta2=0.9):
    """The windowed detector; beta2 = 0.9 gives a window of 10."""
    return make_detector(SwitchCriterion(kind="autoswitch", clip=clip), beta2=beta2, eps=1e-8)


def feed(detector, zs, step):
    """Observe every change in ``zs`` at ``step``; the last decision."""
    fired = False
    for z in zs:
        fired = detector.observe(step_record(step, z, z, 1.0, 1.0))
    return fired


class TestWindowSampler:
    """The autoswitch detector's window of recent changes."""

    def test_mean_of_identical_values(self):
        det = autoswitch(beta2=0.999)
        feed(det, [0.002] * 1000, step=1)
        assert det.last_mean == 0.002

    def test_window_keeps_most_recent(self):
        det = autoswitch(beta2=2.0 / 3.0)  # window 3
        feed(det, (10.0, 1.0, 2.0, 3.0), step=1)
        assert len(det.window) == 3
        assert det.last_mean == 2.0


def observe_option(detector, option, step, z):
    """Observe ``z`` in the field that ``option`` reads, -1 in the other."""
    zs = (z, -1.0) if option == "arithmetic" else (-1.0, z)
    return detector.observe(step_record(step, *zs, 1.0, 1.0))


def assert_exact_mean(detector):
    expected = math.fsum(detector.window) / len(detector.window)
    assert detector.last_mean.hex() == expected.hex()


# beta2 -> window: 0.0 -> 1, 2/3 -> 3, 0.9 -> 10, 0.99 -> 100
WINDOW_BETA2 = (0.0, 2.0 / 3.0, 0.9, 0.99)
DBL_MAX = sys.float_info.max
_tiny_to_huge = st.floats(min_value=1e-300, max_value=1e300)
_subnormal = st.floats(min_value=5e-324, max_value=2.2e-308)  # pins the sum's 2**-1074 unit
_samples = st.one_of(
    _tiny_to_huge, _tiny_to_huge.map(lambda x: -x), st.sampled_from([0.0, -0.0]),
    _subnormal, _subnormal.map(lambda x: -x),
    st.sampled_from([1e-8, 0.1, 3.0, 7e299, 2e-300]),  # repeats
)


class TestExactWindowMean:
    """last_mean is math.fsum(window) / len(window), to the bit, after every observe."""

    @settings(deadline=None, max_examples=150)
    @given(st.lists(_samples, min_size=1, max_size=400),
           st.sampled_from(WINDOW_BETA2), st.sampled_from(SAMPLER_OPTIONS))
    def test_matches_fsum_of_the_window(self, zs, beta2, option):
        det = make_detector(SwitchCriterion(kind="autoswitch", option=option), beta2, 1e-8)
        for step, z in enumerate(zs, 1):
            observe_option(det, option, step, z)
            assert det.window[-1] == z
            assert_exact_mean(det)

    @pytest.mark.parametrize("option", SAMPLER_OPTIONS)
    def test_many_evictions_across_all_magnitudes(self, option):
        rng = np.random.default_rng(3)
        signs = rng.choice([-1.0, 1.0], 5000)
        zs = signs * 10.0 ** rng.uniform(-300, 300, 5000)
        zs[::7] = 0.0
        det = make_detector(SwitchCriterion(kind="autoswitch", option=option), 0.99, 1e-8)
        for step, z in enumerate(zs.tolist(), 1):
            observe_option(det, option, step, z)
            assert_exact_mean(det)

    @pytest.mark.parametrize("zs", [
        [1.0, 1e-300, math.inf, 2.0, math.inf, 3.0, 4.0, 5.0, 1e300, 6.0],
        [1.0, -math.inf, 2.0, 3.0, 4.0, -math.inf, 5.0, 6.0, 7.0],
        [1.0, math.nan, 2.0, math.inf, 3.0, 4.0, 5.0, 6.0],
        [math.inf, -math.inf, 1.0, 2.0, 3.0, 4.0],
        # a window sum past the float range
        [1e308, 1e308, 1.0, 2.0, -1e308, -1e308, 3.0, 4.0, 5.0],
        # windows summing to within half an ulp of DBL_MAX, then to exactly half an ulp past it
        [DBL_MAX, 2.0**969, -1.0, -DBL_MAX, DBL_MAX, 2.0**969, 2.0**969, 1.0],
    ])
    def test_non_finite_sample_or_overflowing_sum_raises(self, zs):
        det = autoswitch(beta2=2.0 / 3.0)  # window 3
        for step, z in enumerate(zs, 1):
            window = collections.deque(det.window, maxlen=det.window.maxlen)
            window.append(z)
            try:
                expected = math.fsum(window) / len(window)
            except (ValueError, OverflowError):
                expected = math.inf
            if not (math.isfinite(z) and math.isfinite(expected)):
                break
            det.observe(step_record(step, z, z, 1.0, 1.0))
            assert det.last_mean.hex() == expected.hex()
        else:
            pytest.fail("every sample was finite and every window sum in range")
        with pytest.raises(NumericalError, match=rf"^non-finite window sum of z at step {step}$"):
            det.observe(step_record(step, z, z, 1.0, 1.0))


class TestAutoswitchDecide:
    """The autoswitch detector's decision, with and without a clip."""

    def test_zero_changes_fire_unclipped(self):
        assert feed(autoswitch(), [0.0] * 10, step=50)

    def test_above_eps_does_not_fire(self):
        assert not feed(autoswitch(), [1.0] * 10, step=50)

    def test_a_full_window_whose_mean_is_exactly_eps_does_not_fire(self):
        # beta2 = 0.75 gives a window of 4, and these dyadic samples sum exactly to 4 * eps
        eps = 2.0**-4
        det = make_detector(SwitchCriterion(kind="autoswitch"), beta2=0.75, eps=eps)
        assert not feed(det, [2.0**-3, 0.0, 2.0**-4, 2.0**-4], step=50)
        assert len(det.window) == 4 and det.last_mean == eps
        det = make_detector(SwitchCriterion(kind="autoswitch"), beta2=0.75, eps=eps)
        assert feed(det, [2.0**-3, 0.0, 2.0**-4, 2.0**-4 - 2.0**-30], step=50)

    def test_partial_window_is_suppressed(self):
        assert not feed(autoswitch(), [0.0], step=1)

    def test_budget_cap_fires_regardless_of_window(self):
        assert feed(autoswitch(clip=(100, 500)), [1e6], step=501)
        assert feed(autoswitch(clip=(100, 500)), [1e6], step=500)

    def test_lower_clamp_blocks_early_fire(self):
        assert not feed(autoswitch(clip=(100, 500)), [0.0] * 10, step=100)
        assert feed(autoswitch(clip=(100, 500)), [0.0] * 10, step=101)

    def test_bad_clip(self):
        # a reversed clip from a config is refused before any detector exists
        doc = {"model": {"kind": "mlp_classifier", "layer_sizes": [2, 4, 2]},
               "data": {"kind": "blobs"}, "optimizer": {}, "recipe": {"kind": "step"},
               "switch": {"kind": "autoswitch", "clip": {"t_min_ratio": 0.5, "t_max_ratio": 0.1}},
               "total_steps": 1000, "seeds": [0]}
        with pytest.raises(ConfigError, match="clipping"):
            config_from_dict(doc)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=200),
    )
    def test_clip_invariants_over_random_streams(self, zs, t):
        t_min, t_max = 20, 120
        fired = feed(autoswitch(clip=(t_min, t_max)), zs, step=t)
        if t <= t_min:
            assert not fired
        if t >= t_max:
            assert fired


def relative_fires(norm, prev):
    det = make_detector(SwitchCriterion(kind="relative"), beta2=0.9, eps=1e-8)
    det.observe(step_record(1, 0.0, 0.0, 1.0, prev))
    return det.observe(step_record(2, 0.0, 0.0, 1.0, norm))


def staleness_fires(l1, lagged):
    det = make_detector(SwitchCriterion(kind="staleness"), beta2=0.0, eps=1e-8)  # lag 1
    det.observe(step_record(1, 0.0, 0.0, lagged, 1.0))
    return det.observe(step_record(2, 0.0, 0.0, l1, 1.0))


class TestBaselineCriteria:
    def test_relative_fires_under_half(self):
        assert relative_fires(1.4, 1.0)

    def test_relative_does_not_fire_at_or_above_half(self):
        assert not relative_fires(2.0, 1.0)
        assert not relative_fires(1.5, 1.0)

    def test_relative_equal_norms_fire(self):
        assert relative_fires(3.7, 3.7)

    def test_staleness_fires_above_threshold(self):
        assert staleness_fires(0.97, 1.0)

    def test_staleness_does_not_fire_when_decayed(self):
        assert not staleness_fires(0.5, 1.0)

    def test_staleness_does_not_fire_at_the_threshold(self):
        assert 0.96 / 1.0 == DEFAULT_THRESHOLDS["staleness"]
        assert not staleness_fires(0.96, 1.0)

    def test_staleness_equal_norms_fire(self):
        assert staleness_fires(2.5, 2.5)

    def test_zero_norms_never_fire(self):
        # identically-zero gradients leave nothing to compare against
        assert not relative_fires(1.0, 0.0)
        assert not staleness_fires(1.0, 0.0)


def make_stats(values_by_step):
    """Build StepRecord rows from dicts of per-step z/v values."""
    rows = []
    for step, (z, l1, l2) in enumerate(values_by_step, start=1):
        rows.append(step_record(step=step, z=z, z_geom=z, v_l1=l1, v_l2=l2))
    return rows


class TestDetectors:
    def test_relative_detector_needs_two_steps(self):
        crit = SwitchCriterion(kind="relative")
        det = make_detector(crit, beta2=0.9, eps=1e-8)
        stats = make_stats([(0.1, 1.0, 1.0), (0.1, 1.01, 1.01)])
        assert not det.observe(stats[0])
        assert det.observe(stats[1])

    def test_staleness_detector_uses_lag(self):
        crit = SwitchCriterion(kind="staleness")
        det = make_detector(crit, beta2=0.9, eps=1e-8)  # lag 10
        fired_at = None
        for step in range(1, 30):
            stats = step_record(step=step, z=0.1, z_geom=0.1, v_l1=5.0, v_l2=5.0)
            if det.observe(stats):
                fired_at = step
                break
        # constant norms: ratio 1 > 0.96 fires at the first step with a full lag window
        assert fired_at == 11

    def test_fixed_detector(self):
        crit = SwitchCriterion(kind="fixed", step=7)
        det = make_detector(crit, beta2=0.999, eps=1e-8)
        results = [det.observe(step_record(t, 0.0, 0.0, 1.0, 1.0)) for t in range(1, 9)]
        assert results == [False] * 6 + [True, True]

    def test_autoswitch_detector_tracks_mean(self):
        crit = SwitchCriterion(kind="autoswitch")
        det = make_detector(crit, beta2=0.5, eps=1e-8)  # window 2
        det.observe(step_record(1, 4.0, 4.0, 1.0, 1.0))
        det.observe(step_record(2, 2.0, 2.0, 1.0, 1.0))
        assert det.last_mean == 3.0

    def test_evaluate_offline_no_switch(self):
        crit = SwitchCriterion(kind="autoswitch")
        stats = make_stats([(1.0, 1.0, 1.0)] * 20)
        assert evaluate_offline(crit, stats, beta2=0.9, eps=1e-8) is None

    def test_evaluate_offline_finds_first_fire(self):
        crit = SwitchCriterion(kind="autoswitch")
        stats = make_stats([(0.0, 1.0, 1.0)] * 20)
        # window of 10 fills at step 10
        assert evaluate_offline(crit, stats, beta2=0.9, eps=1e-8) == 10

    def test_frozen_variance_profile_fires_everything_at_first_eligible_step(self):
        # constant variance: zero changes, constant norms
        stats = make_stats([(0.0, 5.0, 3.0)] * 1100)
        beta2, eps = 0.9, 1e-8  # window / lag of 10
        assert evaluate_offline(SwitchCriterion(kind="autoswitch"), stats, beta2, eps) == 10
        assert evaluate_offline(SwitchCriterion(kind="relative"), stats, beta2, eps) == 2
        assert evaluate_offline(SwitchCriterion(kind="staleness"), stats, beta2, eps) == 11
        diffs = [0.0] * 1101
        for crit_t0 in (10, 2, 11):
            assert avg_change_metric_from_diffs(diffs, crit_t0) == 0.0


class TestSwitchCriterionValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            SwitchCriterion(kind="oracle")
        with pytest.raises(ConfigError):  # and an unknown sampler option
            SwitchCriterion(kind="autoswitch", option="harmonic")

    def test_fixed_needs_step(self):
        with pytest.raises(ConfigError):
            SwitchCriterion(kind="fixed")

    def test_clip_ordering(self):
        with pytest.raises(ConfigError):
            SwitchCriterion(kind="autoswitch", clip=(500, 100))

    def test_a_clip_with_t_min_equal_to_t_max_is_refused(self):
        with pytest.raises(ConfigError, match=r"^clipping needs 0 <= T_min < T_max, got \(5, 5\)$"):
            SwitchCriterion(kind="autoswitch", clip=(5, 5))

    # the fields each kind does not read, with a value that is valid for the kinds that do
    @pytest.mark.parametrize("kind,field,value", [
        ("autoswitch", "threshold", 0.5), ("autoswitch", "step", 7),
        ("relative", "option", "arithmetic"), ("relative", "clip", (1, 5)), ("relative", "step", 7),
        ("staleness", "option", "arithmetic"), ("staleness", "clip", (1, 5)),
        ("staleness", "step", 7),
        ("fixed", "option", "arithmetic"), ("fixed", "threshold", 0.5), ("fixed", "clip", (1, 5)),
    ])
    def test_a_field_its_kind_does_not_read_must_stay_unset(self, kind, field, value):
        settings = {"step": 3} if kind == "fixed" else {}
        with pytest.raises(ConfigError, match=rf"switch kind '{kind}' does not read \['{field}'\]"):
            SwitchCriterion(kind=kind, **settings, **{field: value})

    @pytest.mark.parametrize("kind", ["relative", "staleness"])
    @pytest.mark.parametrize("threshold", [0.0, -0.5])
    def test_threshold_must_be_positive(self, kind, threshold):
        # through a config the same check exits 2: test_harness.py::TestEveryBadInputExits2
        with pytest.raises(ConfigError, match="^criterion threshold must be positive$"):
            SwitchCriterion(kind=kind, threshold=threshold)

    def test_autoswitch_option_defaults_to_arithmetic(self):
        assert SwitchCriterion(kind="autoswitch").option == "arithmetic"
        assert SwitchCriterion(kind="relative").option is None

    def test_labels(self):
        assert "autoswitch" in SwitchCriterion(kind="autoswitch").label()
        assert "0.5" in SwitchCriterion(kind="relative").label()
        assert "0.96" in SwitchCriterion(kind="staleness").label()


def _l1_diffs(v_by_step):
    """Entry t is ||v_t - v_{t-1}||_1 as the profile records it: z times the size."""
    diffs = [0.0]
    for t in range(1, len(v_by_step)):
        z, _, _, _ = change_stats({"v": v_by_step[t]}, {"v": v_by_step[t - 1]})
        diffs.append(z * v_by_step[t].size)
    return diffs


class TestAvgChangeMetric:
    def test_constant_change_recovers_rate(self):
        # each step changes one coordinate by c in l1: 1001 terms * c * 1e-3
        c = 0.004
        metric = avg_change_metric_from_diffs([0.0] + [c] * 1199, t0=50)
        assert math.isclose(metric, 1.001 * c, rel_tol=1e-9)

    def test_frozen_variance_gives_zero(self):
        v_by_step = [np.array([1.0, 2.0])] * 1200
        assert avg_change_metric_from_diffs(_l1_diffs(v_by_step), t0=10) == 0.0

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        diffs = [0.0] + list(rng.random(1199))
        m1 = avg_change_metric_from_diffs(diffs, t0=5)
        m2 = avg_change_metric_from_diffs([3.0 * d for d in diffs], t0=5)
        assert math.isclose(m2, 3.0 * m1, rel_tol=1e-12)

    def test_too_short_raises(self):
        with pytest.raises(RangeError):
            avg_change_metric_from_diffs([0.0] * 500, t0=0)
        with pytest.raises(RangeError):
            avg_change_metric_from_diffs([0.0] * 2000, t0=-1)

    def test_diffs_variant_agrees(self):
        # the metric over recorded statistics equals the direct sum of
        # ||v_{t+1} - v_t||_1 for t = t0 .. t0 + 1000 over the variance itself
        rng = np.random.default_rng(1)
        v_by_step = list(np.abs(np.cumsum(rng.standard_normal((1300, 3)), axis=0)))
        direct = 1e-3 * sum(float(np.sum(np.abs(v_by_step[t + 1] - v_by_step[t])))
                            for t in range(100, 1101))
        metric = avg_change_metric_from_diffs(_l1_diffs(v_by_step), t0=100)
        assert math.isclose(metric, direct, rel_tol=1e-12)

    def test_a_switch_at_step_0_is_scored(self):
        # the window is the changes of steps 1 to 1001
        assert avg_change_metric_from_diffs([5.0] + [2.0] * 1001 + [7.0], t0=0) == 1e-3 * 2002

    def test_a_profile_one_step_short_raises(self):
        # a switch at step 3 needs the changes up to step 1004, entries 0 to 1004
        assert avg_change_metric_from_diffs([1.0] * 1005, t0=3) == 1e-3 * 1001
        with pytest.raises(RangeError, match=r"needs per-step changes up to step 1004, have 1003$"):
            avg_change_metric_from_diffs([1.0] * 1004, t0=3)

    def test_diffs_variant_too_short(self):
        with pytest.raises(RangeError):
            avg_change_metric_from_diffs([0.0] * 900, t0=0)
