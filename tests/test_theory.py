import math

import numpy as np
import pytest

from conftest import simulate_vhat
from stepnm import theory
from stepnm.errors import ConfigError, DomainError, RangeError
from stepnm.theory import StationaryStream, azuma_bound, min_precondition_step


class TestAzumaBound:
    def test_hand_value(self):
        # sqrt(4 * 1e-6 * 1e4 * ln 200) = sqrt(0.2119...) = 0.460361...
        value = azuma_bound(1.0, 0.999, t=12000, t0=2000, delta=0.01)
        assert abs(value - 0.460361482600273) < 1e-12

    def test_delta_two_is_zero(self):
        assert azuma_bound(1.0, 0.999, t=2000, t0=1500, delta=2.0) == 0.0

    def test_linear_in_g(self):
        a = azuma_bound(1.0, 0.999, 5000, 2000, 0.05)
        b = azuma_bound(2.0, 0.999, 5000, 2000, 0.05)
        assert math.isclose(b, 2.0 * a, rel_tol=1e-15)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            azuma_bound(1.0, 0.999, t=100, t0=100, delta=0.01)
        with pytest.raises(RangeError):
            azuma_bound(1.0, 0.999, t=100, t0=0, delta=0.01)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            azuma_bound(0.0, 0.999, 200, 100, 0.01)
        with pytest.raises(DomainError):
            azuma_bound(1.0, 0.999, 200, 100, 3.0)


class TestMinPreconditionStep:
    def test_beta2_point999(self):
        value = min_precondition_step(0.999)
        assert abs(value - 1227.3331013307363) < 1e-9
        assert math.floor(value) + 1 == 1228

    def test_beta2_point9(self):
        value = min_precondition_step(0.9)
        assert abs(value - 11.654718749549916) < 1e-12
        assert math.floor(value) + 1 == 12

    def test_monotone_in_beta2(self):
        assert min_precondition_step(0.9) < min_precondition_step(0.99) < min_precondition_step(0.999)

    def test_statement_stricter_than_proof(self):
        for beta2 in (0.9, 0.99, 0.999):
            assert min_precondition_step(beta2) > theory.proof_min_precondition_step(beta2)


class TestStationaryStream:
    def test_draws_bounded(self):
        rng = np.random.default_rng(0)
        for kind in theory.STREAM_KINDS:
            stream = StationaryStream(kind=kind, bound=1.5, dim=4, seed=0)
            draws = stream.draw(rng, 200)
            assert draws.shape == (200, 4)
            assert np.all(draws >= 0.0)
            assert np.all(draws <= 1.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            StationaryStream(kind="cauchy", bound=1.0)
        with pytest.raises(ConfigError):
            StationaryStream(kind="constant", bound=0.0)
        with pytest.raises(ConfigError):
            StationaryStream(kind="constant", bound=1.0, level=2.0)
        with pytest.raises(ConfigError):
            StationaryStream(kind="bernoulli", bound=1.0, p=1.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigError, match="finite"):
                StationaryStream(kind="uniform", bound=bad)
            with pytest.raises(ConfigError, match="finite"):
                StationaryStream(kind="trunc_gauss_sq", bound=1.0, sigma=bad)


class TestSimulateVhat:
    """The reference accumulator that the validator is checked against."""

    def test_constant_stream_is_fixed_point(self):
        # mathematically vhat == c for every step; float rounding wobbles at ~1e-14
        stream = StationaryStream(kind="constant", bound=1.0, level=0.7, dim=3, seed=0)
        vhat = simulate_vhat(stream, 0.999, 200)
        np.testing.assert_allclose(vhat, 0.7, atol=1e-12)

    def test_reproducible_bitwise(self):
        stream = StationaryStream(kind="uniform", bound=1.0, dim=2, seed=123)
        a = simulate_vhat(stream, 0.999, 300)
        b = simulate_vhat(stream, 0.999, 300)
        np.testing.assert_array_equal(a, b)

    def test_bounded_by_g(self):
        stream = StationaryStream(kind="bernoulli", bound=2.0, dim=8, seed=5)
        vhat = simulate_vhat(stream, 0.99, 500)
        assert np.all(vhat <= 2.0 + 1e-12)
        assert np.all(vhat >= -1e-15)

    def test_stationarity_identity_mean_one_stream(self):
        # coordinates are iid replicas, so 10^4 of them act as 10^4 trials
        stream = StationaryStream(kind="bernoulli", bound=2.0, dim=10_000, seed=7)
        vhat = simulate_vhat(stream, 0.999, 1000)
        v_raw = vhat[999] * (1.0 - 0.999**1000)
        target = 1.0 - 0.999**1000
        assert abs(float(v_raw.mean()) - target) / target < 0.02

    def test_bad_steps(self):
        stream = StationaryStream(kind="constant", bound=1.0, seed=0)
        with pytest.raises(RangeError):
            simulate_vhat(stream, 0.999, 0)


class TestValidateTheorem:
    def test_degenerate_constant_stream(self):
        stream = StationaryStream(kind="constant", bound=1.0, level=0.4, dim=2, seed=0)
        report = theory.validate_theorem(stream, 0.999, t0=1300, t=2300, delta=0.01, trials=20)
        assert report.violations == 0
        # deviation is 0 in exact arithmetic; float rounding leaves ~1e-14
        assert report.max_observed_deviation < 1e-12
        assert report.per_step_bound_ok

    def test_small_bernoulli_run(self):
        stream = StationaryStream(kind="bernoulli", bound=1.0, dim=1, seed=11)
        report = theory.validate_theorem(stream, 0.99, t0=200, t=1200, delta=0.05, trials=100)
        assert report.violation_rate <= 2 * 0.05
        assert report.per_step_bound_ok
        assert report.max_per_step_deviation <= report.per_step_bound_value + 1e-12
        assert report.trials == 100
        assert report.violation_rate == report.violations / report.trials

    def test_uniform_and_truncated_gaussian_per_step_bound(self):
        for kind in ("uniform", "trunc_gauss_sq"):
            stream = StationaryStream(kind=kind, bound=1.0, dim=2, seed=3)
            report = theory.validate_theorem(stream, 0.99, t0=150, t=600, delta=0.05, trials=50)
            assert report.per_step_bound_ok

    def test_t0_below_minimum_is_config_error(self):
        stream = StationaryStream(kind="bernoulli", bound=1.0, seed=0)
        with pytest.raises(ConfigError, match="1228"):
            theory.validate_theorem(stream, 0.999, t0=1000, t=5000, delta=0.01, trials=10)

    def test_reports_both_t0_conditions(self):
        stream = StationaryStream(kind="bernoulli", bound=1.0, seed=0)
        report = theory.validate_theorem(stream, 0.99, t0=200, t=400, delta=0.05, trials=10)
        assert report.statement_min_t0 > report.proof_min_t0
        flat = report.to_flat_dict()
        assert "statement_min_t0" in flat and "proof_min_t0" in flat

    def test_trial_rngs_independent_of_master_seed_only(self):
        stream = StationaryStream(kind="uniform", bound=1.0, dim=1, seed=21)
        a = theory.validate_theorem(stream, 0.99, 150, 400, 0.05, trials=25)
        b = theory.validate_theorem(stream, 0.99, 150, 400, 0.05, trials=25)
        assert a.max_observed_deviation == b.max_observed_deviation
        c = theory.validate_theorem(stream, 0.99, 150, 400, 0.05, trials=25, master_seed=99)
        assert c.max_observed_deviation != a.max_observed_deviation


class TestAgainstReference:
    @pytest.mark.parametrize("kind", theory.STREAM_KINDS)
    def test_bitwise_equal_to_per_trial_recursion(self, kind):
        # each trial i is simulate_vhat on the generator (seed, i) the validator uses
        stream = StationaryStream(kind=kind, bound=1.0, dim=2, seed=5, level=0.3)
        t0, t, trials = 1300, 1500, 3
        report = theory.validate_theorem(stream, 0.999, t0, t, delta=0.01, trials=trials)
        drifts, step_devs = [], []
        for i in range(trials):
            vhat = simulate_vhat(stream, 0.999, t, seed=(stream.seed, i))
            drifts.append(float(np.max(np.abs(vhat[t - 1] - vhat[t0 - 1]))))
            step_devs.append(float(np.max(np.abs(np.diff(vhat[t0 - 1:], axis=0)))))
        assert report.max_observed_deviation == max(drifts)
        assert report.max_per_step_deviation == max(step_devs)
        assert report.violations == sum(d >= report.bound_value for d in drifts)


def one_shot_validate(stream, beta2, t0, t, trials, seed):
    """Every draw held at once: (max drift per trial, max per-step move)."""
    draws = np.stack(
        [stream.draw(np.random.default_rng((seed, i)), t) for i in range(trials)], axis=1
    )
    v = np.zeros((trials, stream.dim))
    vhat_prev = vhat_t0 = None
    max_step_dev = 0.0
    for k in range(1, t + 1):
        v = beta2 * v + (1.0 - beta2) * draws[k - 1]
        vhat = v / (1.0 - beta2**k)
        if k > t0:
            max_step_dev = max(max_step_dev, float(np.max(np.abs(vhat - vhat_prev))))
        if k == t0:
            vhat_t0 = vhat.copy()
        vhat_prev = vhat
    return np.abs(vhat_prev - vhat_t0).max(axis=1), max_step_dev


class TestChunkedDraws:
    @pytest.mark.parametrize("kind", theory.STREAM_KINDS)
    @pytest.mark.parametrize("chunk", [theory.CHUNK, 7])
    def test_chunked_equals_one_shot(self, kind, chunk, monkeypatch):
        monkeypatch.setattr(theory, "CHUNK", chunk)
        stream = StationaryStream(kind=kind, bound=1.0, dim=2, seed=4, level=0.3)
        t = 1300  # spans two default chunks and is a multiple of neither size
        assert t % chunk != 0 and t > chunk
        report = theory.validate_theorem(stream, 0.99, t0=150, t=t, delta=0.05, trials=9)
        per_trial_max, max_step_dev = one_shot_validate(stream, 0.99, 150, t, 9, seed=4)
        assert report.max_observed_deviation == float(per_trial_max.max())
        assert report.violations == int(np.count_nonzero(per_trial_max >= report.bound_value))
        assert report.max_per_step_deviation == max_step_dev
