import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import test_byte_identity
from conftest import simulate_vhat
from stepnm import theory
from stepnm.cli import entry as cli_entry
from stepnm.cli import main as cli_main
from stepnm.errors import ConfigError, DimensionError, DomainError, RangeError
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

    def test_delta_zero_is_refused(self):
        with pytest.raises(DomainError, match=r"^delta must be in \(0, 2\], got 0.0$"):
            azuma_bound(1.0, 0.999, 200, 100, 0.0)

    @pytest.mark.parametrize("beta2", [0.0, 1.0])
    def test_beta2_must_lie_strictly_inside_0_1(self, beta2):
        for check in (lambda: azuma_bound(1.0, beta2, 200, 100, 0.01),
                      lambda: min_precondition_step(beta2),
                      lambda: theory.proof_min_precondition_step(beta2)):
            with pytest.raises(DomainError, match=rf"^beta2 must be in \(0, 1\), got {beta2}$"):
                check()


    def test_t_must_be_below_2_to_the_63(self):
        # past it t - t0 may not convert to a float; 2**63 - 1 still gives a bound
        assert math.isfinite(azuma_bound(1.0, 0.999, t=2**63 - 1, t0=1, delta=0.01))
        with pytest.raises(RangeError, match=rf"^t must be below 2\*\*63, got {2**63}$"):
            azuma_bound(1.0, 0.999, t=2**63, t0=1, delta=0.01)
        with pytest.raises(RangeError, match=r"^t must be below 2\*\*63, got an integer of 16610 bits$"):
            azuma_bound(1.0, 0.999, t=10**5000, t0=1, delta=0.01)


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
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        for kind in theory.STREAM_KINDS:
            stream = StationaryStream(kind=kind, bound=1.5, dim=4, seed=0)
            draws = stream.draw(rngs, 200)
            assert draws.shape == (2, 200, 4)
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


    @pytest.mark.parametrize("kind", theory.STREAM_KINDS)
    def test_each_kind_takes_only_the_parameters_it_reads(self, kind):
        values = {"level": 0.3, "p": 0.3, "sigma": 0.3}
        for key, value in values.items():
            if key in theory.STREAM_PARAMS[kind]:
                assert getattr(StationaryStream(kind=kind, bound=1.0, **{key: value}), key) == value
            else:
                with pytest.raises(ConfigError,
                                   match=rf"^stream kind '{kind}' does not read \['{key}'\]$"):
                    StationaryStream(kind=kind, bound=1.0, **{key: value})

    @pytest.mark.parametrize("level", [0.0, 1.5])
    def test_a_constant_level_may_be_0_or_g(self, level):
        stream = StationaryStream(kind="constant", bound=1.5, level=level, dim=2)
        assert (stream.draw(fresh_rngs(0), 3) == level).all()

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_a_bernoulli_p_may_be_0_or_1(self, p):
        stream = StationaryStream(kind="bernoulli", bound=1.5, p=p, dim=2)
        assert (stream.draw(fresh_rngs(0), 50) == 1.5 * p).all()

    def test_a_sigma_of_zero_is_refused(self):
        with pytest.raises(ConfigError, match=r"^sigma must be positive and finite, got 0.0$"):
            StationaryStream(kind="trunc_gauss_sq", bound=1.0, sigma=0.0)

    def test_p_is_unset_but_for_bernoulli(self):
        assert StationaryStream(kind="bernoulli", bound=1.0).p == 0.5
        for kind in ("constant", "uniform", "trunc_gauss_sq"):
            assert StationaryStream(kind=kind, bound=1.0).p is None


def plain_draw(stream, rng, steps):
    """The stream's draws as plain numpy expressions, each making a new array."""
    shape = (steps, stream.dim)
    if stream.kind == "constant":
        return np.full(shape, stream.bound if stream.level is None else stream.level)
    if stream.kind == "uniform":
        return rng.uniform(0.0, stream.bound, shape)
    if stream.kind == "bernoulli":
        return np.where(rng.random(shape) < stream.p, stream.bound, 0.0)
    sigma = stream.sigma if stream.sigma is not None else math.sqrt(stream.bound) / 2.0
    return np.minimum(np.square(rng.normal(0.0, sigma, shape)), stream.bound)


def fresh_rngs(*seeds):
    return [np.random.default_rng(seed) for seed in seeds]


class TestDrawInPlace:
    @pytest.mark.parametrize("kind", theory.STREAM_KINDS)
    def test_out_matches_a_fresh_draw_and_the_plain_expressions(self, kind):
        stream = StationaryStream(kind=kind, bound=1.5, dim=3, seed=0,
                                  level=0.4 if kind == "constant" else None)
        out = np.full((2, 257, 3), np.nan)
        assert stream.draw(fresh_rngs(8, 9), 257, out=out) is out
        fresh = stream.draw(fresh_rngs(8, 9), 257)
        plain = np.stack([plain_draw(stream, rng, 257) for rng in fresh_rngs(8, 9)])
        assert out.tobytes() == fresh.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("kind", theory.STREAM_KINDS)
    def test_consecutive_draws_equal_one_draw(self, kind):
        stream = StationaryStream(kind=kind, bound=1.0, dim=2, seed=0,
                                  level=0.3 if kind == "constant" else None)
        rngs = fresh_rngs(17, 18)
        buf = np.empty((2, 300, 2))
        stream.draw(rngs, 123, out=buf[:, :123])
        stream.draw(rngs, 177, out=buf[:, 123:])
        assert buf.tobytes() == stream.draw(fresh_rngs(17, 18), 300).tobytes()

    @pytest.mark.parametrize("kind", theory.STREAM_KINDS)
    def test_rows_equal_one_generator_draws(self, kind):
        # a full 128-step chunk, then a short last chunk of 45 steps written
        # into the non-contiguous view draws[:, :45] of the same buffer, as
        # the validator does
        stream = StationaryStream(kind=kind, bound=1.5, dim=3, seed=0,
                                  level=0.4 if kind == "constant" else None)
        seeds = [(2, i) for i in range(5)]
        rngs = fresh_rngs(*seeds)
        draws = np.full((5, 128, 3), np.nan)
        first = stream.draw(rngs, 128, out=draws).copy()
        last = draws[:, :45]
        assert not last.flags.c_contiguous
        assert stream.draw(rngs, 45, out=last) is last
        assert draws[:, 45:].tobytes() == first[:, 45:].tobytes()
        for i, rng in enumerate(fresh_rngs(*seeds)):
            one = stream.draw([rng], 173)[0]
            assert first[i].tobytes() == one[:128].tobytes()
            assert last[i].tobytes() == one[128:].tobytes()

    @pytest.mark.parametrize("out", [
        np.empty((2, 10, 3)), np.empty((2, 9, 2)), np.empty(40),
        np.empty((2, 10, 2), dtype=np.float32), np.empty((2, 10, 4))[:, :, :2],
        np.empty((2, 20, 2))[:, ::2], np.empty((2, 2, 10)).transpose(0, 2, 1),
        np.empty((3, 10, 2)), np.empty((10, 2)),
    ], ids=["columns", "rows", "flat", "float32", "column-slice", "row-stride", "transposed",
            "trials", "one-trial"])
    def test_bad_out_fails_before_the_generator_moves(self, out):
        # the block is two generators' 10 steps at dim 2: shape (2, 10, 2)
        stream = StationaryStream(kind="uniform", bound=1.0, dim=2, seed=0)
        rngs = fresh_rngs(3, 4)
        states = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(DimensionError, match="out"):
            stream.draw(rngs, 10, out=out)
        assert [rng.bit_generator.state for rng in rngs] == states


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

    def test_t0_must_be_above_the_statement_minimum(self):
        # at beta2 = 0.999 the statement needs t0 > 1227.33
        stream = StationaryStream(kind="bernoulli", bound=1.0, seed=0)
        with pytest.raises(ConfigError, match=r"t0=1227 is too small.*minimal integer 1228"):
            theory.validate_theorem(stream, 0.999, t0=1227, t=1240, delta=0.01, trials=1)
        report = theory.validate_theorem(stream, 0.999, t0=1228, t=1240, delta=0.01, trials=1)
        assert report.t0 == 1228

    def test_a_drift_that_reaches_the_bound_is_a_violation(self, monkeypatch):
        stream = StationaryStream(kind="bernoulli", bound=1.0, dim=2, seed=4)
        first = theory.validate_theorem(stream, 0.9, t0=20, t=80, delta=0.05, trials=8)
        assert first.violations == 0
        monkeypatch.setattr(theory, "azuma_bound", lambda *a: first.max_observed_deviation)
        report = theory.validate_theorem(stream, 0.9, t0=20, t=80, delta=0.05, trials=8)
        assert report.bound_value == report.max_observed_deviation == first.max_observed_deviation
        assert report.violations >= 1

    def test_a_per_step_move_above_the_bound_fails_the_report_and_the_command(self, monkeypatch):
        stream = StationaryStream(kind="bernoulli", bound=1.0, seed=4)
        first = theory.validate_theorem(stream, 0.9, t0=20, t=80, delta=0.05, trials=8)
        assert first.per_step_bound_ok
        bound = first.max_per_step_deviation - 1e-9
        monkeypatch.setattr(theory, "per_step_bound", lambda *a: bound)
        report = theory.validate_theorem(stream, 0.9, t0=20, t=80, delta=0.05, trials=8)
        assert report.per_step_bound_value == bound and not report.per_step_bound_ok
        result = CliRunner().invoke(cli_main, [
            "validate-theorem", "--beta2", "0.9", "--t0", "20", "--t", "80", "--delta", "0.05",
            "--trials", "8", "--seed", "4"])
        assert result.exit_code == 1
        assert "per_step_bound_ok: False" in result.output

    def test_a_per_step_move_equal_to_the_bound_plus_its_slack_passes(self, monkeypatch):
        stream = StationaryStream(kind="bernoulli", bound=1.0, seed=4)
        first = theory.validate_theorem(stream, 0.9, t0=20, t=80, delta=0.05, trials=8)
        bound = first.max_per_step_deviation - theory.PER_STEP_SLACK
        assert bound + theory.PER_STEP_SLACK == first.max_per_step_deviation  # exact in floats
        monkeypatch.setattr(theory, "per_step_bound", lambda *a: bound)
        report = theory.validate_theorem(stream, 0.9, t0=20, t=80, delta=0.05, trials=8)
        assert report.max_per_step_deviation == first.max_per_step_deviation
        assert report.per_step_bound_value == bound and report.per_step_bound_ok

    def test_reports_both_t0_conditions(self):
        stream = StationaryStream(kind="bernoulli", bound=1.0, seed=0)
        report = theory.validate_theorem(stream, 0.99, t0=200, t=400, delta=0.05, trials=10)
        assert report.statement_min_t0 > report.proof_min_t0
        flat = dataclasses.asdict(report)
        assert "statement_min_t0" in flat and "proof_min_t0" in flat

    def test_trial_rngs_independent_of_master_seed_only(self):
        stream = StationaryStream(kind="uniform", bound=1.0, dim=1, seed=21)
        a = theory.validate_theorem(stream, 0.99, 150, 400, 0.05, trials=25)
        b = theory.validate_theorem(stream, 0.99, 150, 400, 0.05, trials=25)
        assert a.max_observed_deviation == b.max_observed_deviation
        c = theory.validate_theorem(dataclasses.replace(stream, seed=99), 0.99, 150, 400, 0.05,
                                    trials=25)
        assert c.max_observed_deviation != a.max_observed_deviation


class TestAgainstReference:
    @pytest.mark.parametrize("kind", theory.STREAM_KINDS)
    def test_bitwise_equal_to_per_trial_recursion(self, kind):
        # each trial i is simulate_vhat on the generator (seed, i) the validator uses
        stream = StationaryStream(kind=kind, bound=1.0, dim=2, seed=5,
                                  level=0.3 if kind == "constant" else None)
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
        [stream.draw([np.random.default_rng((seed, i))], t)[0] for i in range(trials)], axis=1
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


def spy_block_shapes(monkeypatch):
    """The set that collects the shape of every draw buffer _run_block is given."""
    seen = set()
    run_block = theory._run_block

    def spy(stream, rngs, beta2, t0, t, draws):
        seen.add(draws.shape)
        return run_block(stream, rngs, beta2, t0, t, draws)

    monkeypatch.setattr(theory, "_run_block", spy)
    return seen


class TestChunkedDraws:
    @pytest.mark.parametrize("kind", theory.STREAM_KINDS)
    @pytest.mark.parametrize("chunk", [theory.CHUNK, 512, 1024, 7])  # the default, two longer, shorter
    def test_chunked_equals_one_shot(self, kind, chunk, monkeypatch):
        # CHUNK is the shortest chunk a block of trials is cut to, so a budget
        # of exactly CHUNK steps of each of the 9 trials runs them as one
        # block in CHUNK-step chunks
        trials, dim = 9, 2
        monkeypatch.setattr(theory, "CHUNK", chunk)
        monkeypatch.setattr(theory, "DRAW_BUDGET", trials * chunk * dim * 8)
        shapes = spy_block_shapes(monkeypatch)
        stream = StationaryStream(kind=kind, bound=1.0, dim=dim, seed=4,
                                  level=0.3 if kind == "constant" else None)
        t = 1300  # a multiple of no chunk size
        assert t % chunk != 0 and t > chunk
        report = theory.validate_theorem(stream, 0.99, t0=150, t=t, delta=0.05, trials=trials)
        assert shapes == {(trials, chunk, dim)}
        per_trial_max, max_step_dev = one_shot_validate(stream, 0.99, 150, t, trials, seed=4)
        assert report.max_observed_deviation == float(per_trial_max.max())
        assert report.violations == int(np.count_nonzero(per_trial_max >= report.bound_value))
        assert report.max_per_step_deviation == max_step_dev


class TestDrawBudget:
    @pytest.mark.parametrize("kind", theory.STREAM_KINDS)
    @pytest.mark.parametrize("budget,shapes", [
        # the default: all 20 trials in one block, all 1500 steps in one chunk
        (theory.DRAW_BUDGET, {(20, 1500, 3)}),
        # 8 trials at CHUNK steps do not fit, so 20 trials run in blocks of
        # 7, 7 and 6, and the chunk grows from CHUNK to 73 steps
        (8 * theory.CHUNK * 24 - 1, {(7, 73, 3), (6, 73, 3)}),
        # 2 trials do not fit: one trial per block, in 127-step chunks
        (2 * theory.CHUNK * 24 - 1, {(1, 127, 3)}),
        (37 * 24 + 5, {(1, 37, 3)}),  # not even one trial at CHUNK: chunks shrink to 37 steps
    ], ids=["one-block", "multi-trial", "one-trial", "shrunk-chunk"])
    def test_blocking_keeps_the_pinned_reports(self, kind, budget, shapes, monkeypatch):
        # the pinned case has 20 trials, t = 1500 and dim 3, so one step of
        # one trial is 24 bytes
        monkeypatch.setattr(theory, "DRAW_BUDGET", budget)
        seen = spy_block_shapes(monkeypatch)
        test_byte_identity.test_validate_theorem(kind)
        assert seen == shapes

    def test_oversized_step_is_refused_before_allocating(self, monkeypatch):
        # one step of one trial at dim DRAW_BUDGET / 8 + 1 outgrows the budget
        dim = theory.DRAW_BUDGET // 8 + 1
        stream = StationaryStream(kind="bernoulli", bound=1.0, dim=dim, seed=0)
        monkeypatch.setattr(theory, "_run_block", lambda *a: pytest.fail("ran a block"))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"dimension {dim} is too large"):
                theory.validate_theorem(stream, 0.9, t0=12, t=13, delta=0.05, trials=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_peak_is_the_draw_buffer(self):
        # 500 trials at dim 4 fit the budget as one block of 131-step chunks,
        # the longest that fit: the peak is that buffer, plus the trials'
        # generators and the (trials, dim) state, with no per-trial
        # temporaries and no second buffer.  Measured 653 532 bytes above the
        # buffer with numpy 2.4 (669 012 above the old 8 MB buffer).
        trials, dim = 500, 4
        buffer = trials * 131 * dim * 8
        assert buffer <= theory.DRAW_BUDGET < buffer + trials * dim * 8
        stream = StationaryStream(kind="bernoulli", bound=1.0, dim=dim, seed=3)
        theory.validate_theorem(stream, 0.99, t0=300, t=400, delta=0.05, trials=2)  # warm-up
        tracemalloc.start()
        try:
            theory.validate_theorem(stream, 0.99, t0=300, t=1500, delta=0.05, trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert buffer <= peak <= buffer + 2**20


VALIDATE_DEFAULTS = {"beta2": 0.999, "t0": 2000, "t": 12000, "delta": 0.01, "trials": 500}


@pytest.mark.parametrize("flag, value, error, message", [
    ("beta2", 1.5, DomainError, "beta2 must be in (0, 1), got 1.5"),
    ("dim", 0, ConfigError, "stream dimension must be >= 1"),
    ("seed", -1, ConfigError, "stream seed must be a non-negative integer"),
    ("trials", 0, ConfigError, "trials must be >= 1"),
    ("t", 10**400, RangeError, f"t must be below 2**63, got {10**400}"),
], ids=["beta2", "dim", "seed", "trials", "t"])
def test_a_bad_flag_fails_before_any_draw_and_exits_2(monkeypatch, capsys, flag, value, error,
                                                      message):
    monkeypatch.setattr(StationaryStream, "draw", lambda *a, **k: pytest.fail("drew"))
    stream = {flag: value} if flag in ("dim", "seed") else {}
    with pytest.raises(error) as info:
        theory.validate_theorem(StationaryStream("bernoulli", 1.0, **stream),
                                **{**VALIDATE_DEFAULTS, **({} if stream else {flag: value})})
    assert str(info.value) == message
    monkeypatch.setattr("sys.argv", ["stepnm", "validate-theorem", f"--{flag}={value}"])
    with pytest.raises(SystemExit) as exit_info:
        cli_entry()
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
