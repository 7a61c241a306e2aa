import ast
import dataclasses
import inspect
import math
import re
import textwrap
import tracemalloc

import numpy as np
import pytest

from conftest import buffer, copied
from stepnm import models, optim
from stepnm.autoswitch import SwitchCriterion, evaluate_offline
from stepnm.errors import ConfigError, DimensionError, NumericalError
from stepnm.masks import DecaySchedule, NMRatio, compute_nm_mask
from stepnm.optim import (GEOMETRIC_FLOOR, AdamHyper, Recipe, adam_step, init_adam_state,
                          variance_stats)


def scalar_adam_oracle(w, g_seq, beta1, beta2, eps, gamma):
    """Independent reference: one weight, plain python floats."""
    m = v = 0.0
    for k, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**k)
        vhat = v / (1 - beta2**k)
        w = w - gamma * mhat / math.sqrt(vhat + eps)
    return w, m, v


def default_hyper(lr=1e-3):
    return AdamHyper(lr=lr)


def blob_setup(hidden=16, noise=0.6, seed=0, batch=32):
    spec = models.ModelSpec("mlp_classifier", (2, hidden, 2), activation="relu")
    ds = models.DataConfig("blobs", 256, 2, n_classes=2, noise_std=noise, seed=seed,
                           batch_size=batch).build()
    plan = {"fc2.weight": NMRatio(1, 4)}
    return spec, ds, plan


class TestAdamStep:
    def test_constant_learning_rate(self):
        """The learning rate is lr at every step, the thousandth as the first."""
        assert [f.name for f in dataclasses.fields(AdamHyper)] == ["beta1", "beta2", "eps", "lr"]
        assert not hasattr(AdamHyper, "lr_at")
        params = buffer(w=np.array([0.5]))
        state = init_adam_state(params)
        state.t, state.mode = 999, "frozen"
        state.v["w"][0] = 2.0  # a frozen denominator
        state, params = adam_step(state, AdamHyper(lr=0.01), params, buffer(w=np.array([1.0])))
        assert params["w"][0] == 0.5 - ((1.0 - 0.9) / (1.0 - 0.9**1000) * 0.01) / 2.0

    def test_random_multi_step_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        hyper = default_hyper()
        for _ in range(100):
            w0 = float(rng.standard_normal())
            g_seq = [float(g) for g in rng.standard_normal(3)]
            params = buffer(w=np.array([w0]))
            state = init_adam_state(params)
            for g in g_seq:
                state, params = adam_step(state, hyper, params, buffer(w=np.array([g])))
            w_ref, m_ref, v_ref = scalar_adam_oracle(w0, g_seq, 0.9, 0.999, 1e-8, 1e-3)
            assert abs(params["w"][0] - w_ref) < 1e-12
            assert abs(state.m["w"][0] - m_ref) < 1e-12
            assert abs(state.v["w"][0] - v_ref) < 1e-12

    def test_zero_gradient_is_noop(self):
        hyper = default_hyper()
        params = buffer(w=np.array([1.0, -2.0]))
        state = init_adam_state(params)
        state, params2 = adam_step(state, hyper, params, buffer(w=np.zeros(2)))
        np.testing.assert_array_equal(params2["w"], [1.0, -2.0])
        np.testing.assert_array_equal(state.m["w"], np.zeros(2))
        np.testing.assert_array_equal(state.v["w"], np.zeros(2))

    def test_identical_histories_identical_updates(self):
        hyper = default_hyper()
        params = buffer(w=np.array([0.3, 0.3]))
        state = init_adam_state(params)
        for g in (1.0, -0.5, 0.25):
            state, params = adam_step(state, hyper, params, buffer(w=np.array([g, g])))
        assert params["w"][0] == params["w"][1]

    def test_non_finite_gradient_reports_step(self):
        hyper = default_hyper()
        params = buffer(w=np.array([1.0]))
        state = init_adam_state(params)
        state, params = adam_step(state, hyper, params, buffer(w=np.array([1.0])))
        with pytest.raises(NumericalError, match="step 2"):
            adam_step(state, hyper, params, buffer(w=np.array([float("nan")])))

    def test_non_finite_gradient_names_the_parameter(self):
        hyper = default_hyper()
        params = buffer(a=np.ones((2, 3)), b=np.ones(4), c=np.ones(2))
        grads = buffer(**{name: np.ones_like(p) for name, p in params.items()})
        state, params = adam_step(init_adam_state(params), hyper, params, grads)
        grads["b"][2] = np.nan
        before = [b.flat.tobytes() for b in (params, state.m, state.v, grads)]
        with pytest.raises(NumericalError, match=r"gradient for 'b' at step 2$"):
            adam_step(state, hyper, params, grads)
        assert [b.flat.tobytes() for b in (params, state.m, state.v, grads)] == before

    def test_updates_in_place(self):
        hyper = default_hyper()
        params = buffer(w=np.array([1.0]))
        state = init_adam_state(params)
        m, v = state.m, state.v
        same, updated = adam_step(state, hyper, params, buffer(w=np.array([2.0])))
        assert same is state and state.t == 1
        assert updated is params and params["w"][0] < 1.0  # updated where it is
        assert state.m is m and m["w"][0] == (1.0 - 0.9) * 2.0
        # the new v is written over the previous one, in its own buffer
        assert state.v is v and v["w"][0] == (1.0 - 0.999) * 2.0 * 2.0
        assert vars(state).keys() == {"m", "v", "t", "mode"}  # no spare buffer
        assert state.mode == "corrected"
        v_flat = v.flat
        _, again = adam_step(state, hyper, params, buffer(w=np.array([2.0])))
        assert again is params
        assert state.v is v and v.flat is v_flat and state.t == 2
        assert v["w"][0] == 0.999 * ((1.0 - 0.999) * 2.0 * 2.0) + (1.0 - 0.999) * 2.0 * 2.0

    def test_bitwise_equal_to_plain_expressions(self):
        # the update writes into fresh buffers in place; every bit must match
        # the plain numpy expression, and grads must hold v_new - v_old
        rng = np.random.default_rng(11)
        hyper = AdamHyper(beta1=0.85, beta2=0.995, eps=1e-7, lr=3e-3)
        shapes = {"a": (64, 32), "b": (7,), "c": (1, 1)}
        params = buffer(**{k: rng.standard_normal(s) for k, s in shapes.items()})
        state = init_adam_state(params)
        for k in range(1, 6):
            grads = buffer(**{n: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)
                              for n, s in shapes.items()})
            # the update writes params, m and v in place: expect from copies
            old_p, old_g, old_m, old_v = [{n: a.copy() for n, a in d.items()}
                                          for d in (params, grads, state.m, state.v)]
            new_state, new_params = adam_step(state, hyper, params, grads)
            b1, b2, gamma = 0.85, 0.995, 3e-3
            for n, w in old_p.items():
                g = old_g[n]
                m = b1 * old_m[n] + (1.0 - b1) * g
                v = b2 * old_v[n] + (1.0 - b2) * g * g
                p = w - gamma * (m / (1.0 - b1**k)) / np.sqrt(v / (1.0 - b2**k) + 1e-7)
                assert new_state.m[n].tobytes() == m.tobytes()
                assert new_state.v[n].tobytes() == v.tobytes()
                assert new_params[n].tobytes() == p.tobytes()
                assert grads[n].tobytes() == (v - old_v[n]).tobytes()
            state, params = new_state, new_params

    @pytest.mark.parametrize("mode", ["corrected", "raw", "frozen"])
    def test_each_mode_bitwise_equal_to_plain_expressions(self, mode):
        # the three denominators: the bias-corrected running v (dense), the
        # raw running v (step_updated_variance) and sqrt(v* + eps) with v
        # frozen (step)
        rng = np.random.default_rng(12)
        hyper = AdamHyper(lr=2e-3)
        params = {"a": rng.standard_normal((16, 8)), "b": rng.standard_normal(8)}
        m0 = {n: rng.standard_normal(w.shape) * 1e-2 for n, w in params.items()}
        v0 = {n: rng.random(w.shape) * 1e-3 for n, w in params.items()}
        grads = {n: rng.standard_normal(w.shape) for n, w in params.items()}
        frozen = {n: np.sqrt(v + 1e-8) for n, v in v0.items()}
        freeze = mode == "frozen"
        # the update writes the state and the parameters in place, so expect
        # from copies; a frozen v already holds its denominator, which must
        # stay untouched
        state = optim.AdamState(m=buffer(**m0), v=buffer(**(frozen if freeze else v0)), t=9,
                                mode=mode)
        old_p, old_m, old_v = [{n: a.copy() for n, a in d.items()}
                               for d in (params, state.m, state.v)]
        new_state, new_params = adam_step(state, hyper, buffer(**params), buffer(**grads))
        assert new_state.mode == mode  # the update never changes the mode
        for n, w in old_p.items():
            g = grads[n]
            m = 0.9 * old_m[n] + (1.0 - 0.9) * g
            v = old_v[n] if freeze else 0.999 * old_v[n] + (1.0 - 0.999) * g * g
            d = v0[n] if freeze else v / (1.0 - 0.999**10) if mode == "corrected" else v
            p = w - 2e-3 * (m / (1.0 - 0.9**10)) / np.sqrt(d + 1e-8)
            assert new_state.m[n].tobytes() == m.tobytes()
            assert new_state.v[n].tobytes() == v.tobytes()
            assert new_params[n].tobytes() == p.tobytes()

    def test_multi_chunk_update_bitwise_equal_to_plain_expressions(self):
        # 3 * CHUNK + 17 coordinates: "b" straddles the first chunk boundary
        # and the last chunk is 17 long; all three denominators
        chunk = optim.CHUNK
        shapes = {"a": (3, 1000), "b": (chunk,), "c": (2 * chunk + 17 - 3000,)}
        rng = np.random.default_rng(14)
        hyper = AdamHyper(beta1=0.8, beta2=0.99, eps=1e-7, lr=2e-3)
        params = {n: rng.standard_normal(s) for n, s in shapes.items()}
        grads = {n: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3, s) for n, s in shapes.items()}
        m0 = {n: rng.standard_normal(s) * 1e-2 for n, s in shapes.items()}
        v0 = {n: rng.random(s) * 1e-3 for n, s in shapes.items()}
        frozen = {n: np.sqrt(v + 1e-7) for n, v in v0.items()}
        k = 5
        for mode in ("corrected", "raw", "frozen"):
            # a frozen v holds its denominator, sqrt(v0 + eps), and is left untouched
            v_in = frozen if mode == "frozen" else v0
            state = optim.AdamState(m=buffer(**m0), v=buffer(**v_in), t=k - 1, mode=mode)
            new_state, new_params = adam_step(state, hyper, buffer(**params), buffer(**grads))
            for n, w in params.items():
                g = grads[n]
                m = 0.8 * m0[n] + (1.0 - 0.8) * g
                if mode == "frozen":  # a frozen v is never bias-corrected
                    v = d = frozen[n]
                else:
                    v = 0.99 * v0[n] + (1.0 - 0.99) * g * g
                    d = np.sqrt((v / (1.0 - 0.99**k) if mode == "corrected" else v) + 1e-7)
                p = w - 2e-3 * (m / (1.0 - 0.8**k)) / d
                assert new_state.m[n].tobytes() == m.tobytes()
                assert new_state.v[n].tobytes() == v.tobytes()
                assert new_params[n].tobytes() == p.tobytes()

    def test_non_finite_gradient_in_the_last_chunk_moves_nothing(self):
        # with a running v as with a frozen one, a bad gradient writes no
        # buffer: not params, m or v, nor grads, which a running v would
        # otherwise overwrite with v_new - v_old
        chunk = optim.CHUNK
        shapes = {"a": (3, 1000), "b": (chunk,), "c": (2 * chunk + 17 - 3000,)}
        for mode in ("corrected", "raw", "frozen"):
            params = buffer(**{n: np.ones(s) for n, s in shapes.items()})
            grads = buffer(**{n: np.full(s, 0.5) for n, s in shapes.items()})
            state = optim.AdamState(m=buffer(**{n: np.full(s, 0.1) for n, s in shapes.items()}),
                                    v=buffer(**{n: np.full(s, 0.2) for n, s in shapes.items()}),
                                    t=3, mode=mode)
            grads.flat[-1] = np.inf
            before = [b.flat.tobytes() for b in (params, state.m, state.v, grads)]
            with pytest.raises(NumericalError, match=r"gradient for 'c' at step 4$"):
                adam_step(state, default_hyper(), params, grads)
            assert [b.flat.tobytes() for b in (params, state.m, state.v, grads)] == before
            assert state.t == 3

    @pytest.mark.parametrize("mode", ["Frozen", "", None, "step"])
    def test_an_unknown_mode_moves_nothing(self, mode):
        # only "corrected", "raw" and "frozen" pick a denominator; any other
        # mode is refused before a buffer is written
        params, grads = buffer(w=np.array([1.0, -0.5])), buffer(w=np.array([3.0, 0.25]))
        state = optim.AdamState(m=buffer(w=np.array([0.1, 0.2])), v=buffer(w=np.array([0.3, 0.4])),
                                t=7, mode=mode)
        before = [b.flat.tobytes() for b in (params, state.m, state.v, grads)]
        with pytest.raises(ConfigError, match=f"^unknown Adam mode {re.escape(repr(mode))}$"):
            adam_step(state, AdamHyper(lr=0.1), params, grads)
        assert [b.flat.tobytes() for b in (params, state.m, state.v, grads)] == before
        assert state.t == 7

    def test_variance_statistics_bitwise(self):
        rng = np.random.default_rng(13)
        # "c" is long enough for numpy's pairwise summation to split it; with
        # 2617 coordinates the passes share a scratch array, with 210517 they
        # run in place in dv (the bound is CHUNK / 4)
        for c_shape in ((30, 70), (300, 700)):
            v = {"a": rng.random((32, 16)) * 1e-4, "b": rng.random(5) * 1e-9,
                 "c": rng.random(c_shape) * 1e-6}
            prev = {"a": v["a"].copy(), "b": rng.random(5) * 1e-9, "c": rng.random(c_shape) * 1e-6}
            prev["a"][:4] *= 0.5
            dv = buffer(**{n: np.subtract(v[n], prev[n]) for n in v})
            v = buffer(**v)
            # the reference figures come from a copy of v and from prev: dv is work space
            v_before = copied(v)
            z, z_geom, l1, l2 = variance_stats(v, dv)
            deltas = [np.abs(v_before[n] - prev[n]) for n in v]
            count = sum(d.size for d in deltas)
            assert z == sum(float(np.sum(d)) for d in deltas) / count
            logs = sum(float(np.sum(np.log(np.maximum(d, GEOMETRIC_FLOOR)))) for d in deltas)
            assert z_geom == math.exp(logs / count)
            assert v.flat.tobytes() == v_before.flat.tobytes()  # v untouched
            assert l1 == sum(float(np.sum(np.abs(a))) for a in v_before.values())
            assert l2 == math.sqrt(sum(float(np.sum(np.square(a))) for a in v_before.values()))

    def test_v_nonnegative_over_run(self):
        rng = np.random.default_rng(5)
        hyper = default_hyper()
        params = buffer(w=rng.standard_normal(16))
        state = init_adam_state(params)
        for _ in range(200):
            state, params = adam_step(state, hyper, params, buffer(w=rng.standard_normal(16)))
            assert np.all(state.v["w"] >= 0.0)

    def test_v_recursion_unbiasedness_identity(self):
        # iid standard-normal gradients have E[g^2] = 1; coordinates act as trials
        rng = np.random.default_rng(6)
        hyper = default_hyper()
        d = 4000
        params = buffer(w=np.zeros(d))
        state = init_adam_state(params)
        for _ in range(1000):
            state, params = adam_step(state, hyper, params, buffer(w=rng.standard_normal(d)))
        target = 1.0 - 0.999**1000  # = 0.63230...
        assert abs(float(state.v["w"].mean()) - target) / target < 0.02

    def test_hyper_validation(self):
        with pytest.raises(ConfigError):
            AdamHyper(beta1=1.0)
        with pytest.raises(ConfigError):
            AdamHyper(beta2=-0.1)
        with pytest.raises(ConfigError):
            AdamHyper(eps=0.0)

    @pytest.mark.parametrize("key", ["beta1", "beta2"])
    def test_a_decay_rate_of_zero_is_allowed(self, key):
        # [0, 1): a rate of 0 keeps only the latest gradient (beta1) or its square (beta2)
        assert getattr(AdamHyper(**{key: 0.0}), key) == 0.0

    def test_a_beta2_of_one_is_refused(self):
        with pytest.raises(ConfigError, match=r"^beta2 must be in \[0, 1\), got 1.0$"):
            AdamHyper(beta2=1.0)


class TestGradientTransforms:
    def test_ste_dense_gradient_at_masked_point(self):
        # a one-layer classifier: each row of w keeps its larger entry, so the
        # masked point is u = [[0, 2], [2, 0]]; x = [3, 4] and the bias give
        # logits u x + b = [8, 8], softmax [0.5, 0.5], and for class 0
        # g = [-0.5, 0.5], so dW = outer(g, x), on every coordinate
        spec = models.ModelSpec("mlp_classifier", (2, 2))
        params = buffer(**{"fc1.weight": np.array([[1.0, 2.0], [2.0, 1.0]]),
                           "fc1.bias": np.array([0.0, 2.0])})
        plan = {"fc1.weight": NMRatio(1, 2)}
        batch = (np.array([[3.0, 4.0]]), np.array([0]))
        loss, grads = optim.ste_loss_and_grad(spec, params, plan, batch)
        np.testing.assert_array_equal(compute_nm_mask(params["fc1.weight"], plan["fc1.weight"]),
                                      [[0.0, 1.0], [1.0, 0.0]])
        assert math.isclose(loss, math.log(2.0), rel_tol=1e-15)
        np.testing.assert_allclose(grads["fc1.weight"], [[-1.5, -2.0], [1.5, 2.0]], atol=1e-12)
        np.testing.assert_allclose(grads["fc1.bias"], [-0.5, 0.5], atol=1e-12)

    def test_srste_adds_regularizer_on_pruned(self):
        # same setup; the pruned coordinates are w[0, 0] = w[1, 1] = 1, so lam
        # adds 0.01 * 1 there
        spec = models.ModelSpec("mlp_classifier", (2, 2))
        params = buffer(**{"fc1.weight": np.array([[1.0, 2.0], [2.0, 1.0]]),
                           "fc1.bias": np.array([0.0, 2.0])})
        plan = {"fc1.weight": NMRatio(1, 2)}
        batch = (np.array([[3.0, 4.0]]), np.array([0]))
        _, grads = optim.ste_loss_and_grad(spec, params, plan, batch, lam=0.01)
        np.testing.assert_allclose(grads["fc1.weight"], [[-1.49, -2.0], [1.5, 2.01]], atol=1e-12)

    def test_srste_zero_lam_equals_ste(self):
        spec, ds, plan = blob_setup()
        params = models.init_params(spec, 1)
        batch = next(models.batch_iterator(ds, 2))
        _, g1 = optim.ste_loss_and_grad(spec, params, plan, batch)
        _, g2 = optim.ste_loss_and_grad(spec, params, plan, batch, lam=0.0)
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])

    def test_identity_mask_equals_plain_grad(self):
        spec, ds, _ = blob_setup()
        params = models.init_params(spec, 1)
        batch = next(models.batch_iterator(ds, 2))
        plan = {"fc2.weight": NMRatio(4, 4)}  # keep everything
        _, g1 = optim.ste_loss_and_grad(spec, params, plan, batch)
        g2 = models.loss_and_grad(spec, params, batch)[1]
        assert np.all(compute_nm_mask(params["fc2.weight"], plan["fc2.weight"]) == 1.0)
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])

    def test_masked_forward_loss_matches_apply_mask(self):
        spec, ds, plan = blob_setup()
        params = models.init_params(spec, 3)
        batch = next(models.batch_iterator(ds, 4))
        mask = compute_nm_mask(params["fc2.weight"], NMRatio(1, 4))
        masked = copied(params)
        masked["fc2.weight"][...] = params["fc2.weight"] * mask
        expected = models.forward_loss(spec, masked, batch)
        ste_loss, grads = optim.ste_loss_and_grad(spec, params, plan, batch)
        # the trainer logs the masked loss; recompute it the same way here
        loss, at_masked = models.loss_and_grad(spec, masked, batch)
        assert loss == expected == ste_loss
        assert grads.flat.tobytes() == at_masked.flat.tobytes()

    def test_masked_point_buffer_gives_the_same_bits(self):
        # an out= buffer, whatever it held, gives the fresh call's bits
        spec, ds, plan = blob_setup()
        params = models.init_params(spec, 3)
        batch = next(models.batch_iterator(ds, 4))
        buf = models.ParamBuffer(params.shapes)
        for lam in (0.0, 0.01):
            loss, fresh = optim.ste_loss_and_grad(spec, params, plan, batch, lam=lam)
            buf.flat[...] = np.nan
            loss_buf, grads = optim.ste_loss_and_grad(spec, params, plan, batch, lam=lam, out=buf)
            assert grads is buf and loss_buf == loss
            assert grads.flat.tobytes() == fresh.flat.tobytes()
        other = models.ParamBuffer(models.param_shapes(models.ModelSpec("mlp_classifier", (2, 8, 2))))
        for bad in (dict(buf), other):
            with pytest.raises(DimensionError, match="gradient buffer"):
                optim.ste_loss_and_grad(spec, params, plan, batch, out=bad)

    @pytest.mark.parametrize("signed_zero_grads", [False, True])
    def test_srste_penalty_has_the_bits_of_the_plain_expression(self, signed_zero_grads,
                                                                monkeypatch):
        # g_at_masked_point + lam * (1 - mask) * w, bit for bit.  The weights
        # hold +0.0, -0.0 and tied magnitudes; input column 2 is all zero, so
        # its gradient entries are zeros, which the matmul makes +0.0 and
        # which signed_zero_grads turns into -0.0, the one gradient that
        # shows the sign of a zero penalty
        if signed_zero_grads:
            real = models.loss_and_grad

            def loss_and_grad(*args, **kwargs):
                loss, grads = real(*args, **kwargs)
                g = grads["fc1.weight"]
                g[g == 0.0] = -0.0
                return loss, grads
            monkeypatch.setattr(models, "loss_and_grad", loss_and_grad)
        spec = models.ModelSpec("mlp_classifier", (4, 3))
        w = np.array([[0.0, -0.0, -1.5, 1.0], [-0.0, 2.0, -0.0, 0.0], [1.5, -1.5, 0.5, -0.5]])
        params = buffer(**{"fc1.weight": w, "fc1.bias": np.zeros(3)})
        plan = {"fc1.weight": NMRatio(1, 2)}
        inputs = np.array([[1.0, 2.0, 0.0, 3.0], [0.5, 1.0, 0.0, 2.0]])
        batch = (inputs, np.array([0, 2]))
        lam = 0.01
        mask = compute_nm_mask(w, plan["fc1.weight"])
        masked = copied(params)
        masked["fc1.weight"][...] = mask * w
        _, expected = models.loss_and_grad(spec, masked, batch)
        expected["fc1.weight"][...] += lam * (1.0 - mask) * w
        _, grads = optim.ste_loss_and_grad(spec, params, plan, batch, lam=lam)
        zeros = grads["fc1.weight"][:, 2]
        assert (zeros == 0.0).all() and np.signbit(zeros).any() == signed_zero_grads
        assert grads.flat.tobytes() == expected.flat.tobytes()

    def test_negative_lam_rejected(self):
        with pytest.raises(ConfigError):
            Recipe("srste", lam=-1e-3)


class TestRecipeValidation:
    @pytest.mark.parametrize("kind", ["sgd", [], {}, None])
    def test_unknown_kind(self, kind):
        with pytest.raises(ConfigError, match=f"^unknown recipe kind {re.escape(repr(kind))}$"):
            Recipe(kind)

    def test_one_table_one_mode(self):
        # RECIPE_KINDS says what a recipe does; the Adam update reads its mode
        # from the state alone, and recipe_train names no recipe kind and takes
        # no switch but the recipe's
        assert list(inspect.signature(adam_step).parameters) == ["state", "hyper", "params", "grads"]
        assert [f.name for f in dataclasses.fields(Recipe)] == ["kind", "lam", "decay", "switch"]
        assert list(inspect.signature(optim.recipe_train).parameters) == [
            "spec", "dataset", "hyper", "plan", "recipe", "total_steps", "seed"]
        assert [f.name for f in dataclasses.fields(optim.AdamState)] == ["m", "v", "t", "mode"]
        assert not hasattr(optim, "TWO_PHASE_KINDS")
        assert {kind: mode for kind, (_, mode) in optim.RECIPE_KINDS.items() if mode} == {
            "step": "frozen", "step_updated_variance": "raw"}
        assert [kind for kind, (masked, _) in optim.RECIPE_KINDS.items() if masked] == ["ste", "srste"]
        assert list(inspect.signature(optim.Run).parameters) == [
            "spec", "dataset", "hyper", "plan", "recipe", "seed"]
        for trainer in (optim.Run, optim.recipe_train):
            tree = ast.parse(textwrap.dedent(inspect.getsource(trainer)))
            strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
            assert not strings & {"ste", "srste", "step", "step_updated_variance"}

    def test_lam_only_for_srste(self):
        with pytest.raises(ConfigError):
            Recipe("ste", lam=0.1)

    def test_dense_rejects_decay(self):
        with pytest.raises(ConfigError):
            Recipe("dense", decay=DecaySchedule(4))

    def test_two_phase_needs_switch(self):
        for kind in ("step", "step_updated_variance"):
            with pytest.raises(ConfigError, match=f"^recipe '{kind}' needs a switch section$"):
                Recipe(kind)
            assert Recipe(kind, switch=SwitchCriterion("fixed", step=3)).switch.step == 3

    @pytest.mark.parametrize("kind", ["dense", "ste", "srste"])
    def test_single_phase_kinds_ignore_a_switch(self, kind):
        spec, ds, plan = blob_setup()
        lam = 2e-4 if kind == "srste" else 0.0
        switch = SwitchCriterion("fixed", step=5)
        hyper = default_hyper(5e-3)
        a = optim.recipe_train(spec, ds, hyper, plan, Recipe(kind, lam, switch=switch), 20, 3)
        b = optim.recipe_train(spec, ds, hyper, plan, Recipe(kind, lam), 20, 3)
        assert a.switched_at is None
        assert repr([vars(r) for r in a.records]) == repr([vars(r) for r in b.records])
        assert a.params.flat.tobytes() == b.params.flat.tobytes()
        assert a.final_masks.keys() == b.final_masks.keys()
        assert all(a.final_masks[k].tobytes() == b.final_masks[k].tobytes() for k in a.final_masks)


class TestTwoPhaseTraining:
    @pytest.mark.parametrize("kind, after", [
        ("dense", "corrected"), ("ste", "corrected"), ("srste", "corrected"),
        ("step", "frozen"), ("step_updated_variance", "raw")])
    def test_adam_mode_sequence(self, monkeypatch, kind, after):
        # every update reads the state's mode: corrected up to the switch at
        # step 3, then the mode the recipe's switch sets
        spec, ds, plan = blob_setup()
        real, modes = optim.adam_step, []
        monkeypatch.setattr(optim, "adam_step",
                            lambda state, *args: modes.append(state.mode) or real(state, *args))
        # every kind is given the switch; only the two-phase kinds read it
        run = optim.recipe_train(spec, ds, default_hyper(), plan,
                                 Recipe(kind, switch=SwitchCriterion("fixed", step=3)), 6, 0)
        assert modes == ["corrected"] * 3 + [after] * 3
        masked_from = {"dense": 7, "ste": 1, "srste": 1}.get(kind, 4)  # 7: never
        assert [r.phase == "mask_learning" for r in run.records] == [
            t >= masked_from for t in range(1, 7)]

    def test_masked_phase_divides_by_raw_frozen_variance(self, train_with_snapshots):
        # pins the current convention: after the switch, step divides by
        # sqrt(v* + eps) with the raw frozen v*, not v* / (1 - beta2**t0)
        from stepnm.masks import compute_nm_mask

        spec, ds, plan = blob_setup()
        lr, t0, seed = 5e-3, 40, 5
        crit = SwitchCriterion(kind="fixed", step=t0)
        run, snapshots = train_with_snapshots({t0, t0 + 1, t0 + 2}, spec, ds, default_hyper(lr),
                                              plan, Recipe("step", switch=crit), t0 + 2, seed=seed)
        batches = models.batch_iterator(ds, (seed, 1))  # the trainer's batch stream
        for _ in range(t0):
            next(batches)
        _, dense = train_with_snapshots({t0}, spec, ds, default_hyper(lr), plan, Recipe("dense"), t0, seed)
        v_star = dense[t0][1].v  # step's v up to the switch, which then turns it into sqrt(v* + eps)
        for k in (t0 + 1, t0 + 2):
            params, state = snapshots[k - 1]
            masked = copied(params)
            masked["fc2.weight"][...] = params["fc2.weight"] * compute_nm_mask(
                params["fc2.weight"], NMRatio(1, 4))
            _, grads = models.loss_and_grad(spec, masked, next(batches))
            after, after_state = snapshots[k]
            for name, w in params.items():
                m_hat = (0.9 * state.m[name] + 0.1 * grads[name]) / (1.0 - 0.9**k)
                raw = w - lr * m_hat / np.sqrt(v_star[name] + 1e-8)
                corrected = w - lr * m_hat / np.sqrt(v_star[name] / (1.0 - 0.999**t0) + 1e-8)
                np.testing.assert_allclose(after[name], raw, rtol=1e-12, atol=0.0)
                assert not np.allclose(after[name], corrected, rtol=1e-9, atol=0.0)
                np.testing.assert_array_equal(after_state.v[name], np.sqrt(v_star[name] + 1e-8))

    def test_updated_variance_divides_by_raw_running_variance(self, train_with_snapshots):
        # pins the convention of step_updated_variance: after the switch it
        # divides by sqrt(v_t + eps) with the raw running v_t, not
        # v_t / (1 - beta2**t)
        from stepnm.masks import compute_nm_mask

        spec, ds, plan = blob_setup()
        lr, t0, seed = 5e-3, 40, 5
        crit = SwitchCriterion(kind="fixed", step=t0)
        run, snapshots = train_with_snapshots({t0, t0 + 1, t0 + 2}, spec, ds, default_hyper(lr),
                                              plan, Recipe("step_updated_variance", switch=crit),
                                              t0 + 2, seed=seed)
        batches = models.batch_iterator(ds, (seed, 1))  # the trainer's batch stream
        for _ in range(t0):
            next(batches)
        for k in (t0 + 1, t0 + 2):
            params, state = snapshots[k - 1]
            masked = copied(params)
            masked["fc2.weight"][...] = params["fc2.weight"] * compute_nm_mask(
                params["fc2.weight"], NMRatio(1, 4))
            _, grads = models.loss_and_grad(spec, masked, next(batches))
            after, after_state = snapshots[k]
            for name, w in params.items():
                g = grads[name]
                m_hat = (0.9 * state.m[name] + 0.1 * g) / (1.0 - 0.9**k)
                v = 0.999 * state.v[name] + 0.001 * g * g
                raw = w - lr * m_hat / np.sqrt(v + 1e-8)
                corrected = w - lr * m_hat / np.sqrt(v / (1.0 - 0.999**k) + 1e-8)
                np.testing.assert_allclose(after_state.v[name], v, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(after[name], raw, rtol=1e-12, atol=0.0)
                assert not np.allclose(after[name], corrected, rtol=1e-9, atol=0.0)

    def test_degenerate_switch_at_end_equals_dense_plus_mask(self):
        spec, ds, plan = blob_setup()
        hyper = default_hyper(5e-3)
        crit = SwitchCriterion(kind="fixed", step=60)
        a = optim.recipe_train(spec, ds, hyper, plan, Recipe("step", switch=crit), 60, seed=3)
        b = optim.recipe_train(spec, ds, hyper, plan, Recipe("dense"), 60, seed=3)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        assert a.final_masks.keys() == b.final_masks.keys()
        for k in a.final_masks:
            np.testing.assert_array_equal(a.final_masks[k], b.final_masks[k])
        assert a.sparse_eval_loss == b.sparse_eval_loss

    def test_criterion_never_fires_runs_dense(self):
        spec, ds, plan = blob_setup()
        # forced switch beyond the budget can never fire inside the run
        crit = SwitchCriterion(kind="fixed", step=10_000)
        run = optim.recipe_train(spec, ds, default_hyper(5e-3), plan, Recipe("step", switch=crit), 40, 4)
        assert run.switched_at is None
        assert all(r.phase == "precondition" for r in run.records)
        assert run.final_masks  # final mask still applied for sparse eval

    def test_updated_variance_differs_first_at_t0_plus_1(self, train_with_snapshots):
        spec, ds, plan = blob_setup()
        hyper = default_hyper(5e-3)
        crit = SwitchCriterion(kind="fixed", step=20)
        _, a = train_with_snapshots({20, 21}, spec, ds, hyper, plan, Recipe("step", switch=crit), 40, 5)
        _, b = train_with_snapshots({20, 21}, spec, ds, hyper, plan,
                                    Recipe("step_updated_variance", switch=crit), 40, 5)
        (pa20, sa20), (pb20, sb20) = a[20], b[20]
        for k in sa20.v:
            np.testing.assert_array_equal(pa20[k], pb20[k])
            np.testing.assert_array_equal(sa20.m[k], sb20.m[k])
            # one v*: step's switch turned it into sqrt(v* + eps), the other's keeps running
            np.testing.assert_array_equal(sa20.v[k], np.sqrt(sb20.v[k] + 1e-8))
        (pa21, _), (pb21, _) = a[21], b[21]
        assert any(not np.array_equal(pa21[k], pb21[k]) for k in pa21)

    def test_srste_lam_zero_trajectory_equals_ste(self):
        spec, ds, plan = blob_setup()
        hyper = default_hyper(5e-3)
        a = optim.recipe_train(spec, ds, hyper, plan, Recipe("ste"), 50, seed=6)
        b = optim.recipe_train(spec, ds, hyper, plan, Recipe("srste", lam=0.0), 50, seed=6)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        assert [r.loss for r in a.records] == [r.loss for r in b.records]

    def test_dense_recipe_never_masks_during_training(self, monkeypatch):
        spec, ds, plan = blob_setup()
        calls, steps = [], []  # per mask call, the gradients taken before it
        real_mask, real_grad = optim.compute_nm_mask, models.loss_and_grad
        monkeypatch.setattr(models, "loss_and_grad",
                            lambda *a, **k: steps.append(1) or real_grad(*a, **k))
        monkeypatch.setattr(optim, "compute_nm_mask",
                            lambda w, r, out=None: calls.append(len(steps)) or real_mask(w, r, out))
        run = optim.recipe_train(spec, ds, default_hyper(), plan, Recipe("dense"), 30, seed=7)
        # after the last step only: the final masked weights, then the kept final mask
        assert calls == [30, 30]
        assert all(r.phase == "precondition" for r in run.records)
        assert run.switched_at is None
        assert run.layer_sparsity == {"fc2.weight": 0.75}

    def test_single_stage_decay_equals_constant_ratio_ste(self):
        spec, ds, _ = blob_setup()
        hyper = default_hyper(5e-3)
        plan_34 = {"fc2.weight": NMRatio(3, 4)}
        decayed = optim.recipe_train(
            spec, ds, hyper, plan_34, Recipe("ste", decay=DecaySchedule(4)), 50, seed=8
        )
        constant = optim.recipe_train(spec, ds, hyper, plan_34, Recipe("ste"), 50, seed=8)
        for k in decayed.params:
            np.testing.assert_array_equal(decayed.params[k], constant.params[k])

    def test_decay_stages_change_sparsity(self):
        spec, ds, plan = blob_setup()
        sched = DecaySchedule(4, (20,))
        run = optim.recipe_train(
            spec, ds, default_hyper(5e-3), plan, Recipe("ste", decay=sched), 40, seed=9
        )
        # final stage is 2:4 regardless of the plan's 1:4
        assert run.layer_sparsity == {"fc2.weight": 0.5}

    def test_class_ids_checked_and_converted_once_per_run(self, monkeypatch):
        spec, ds, plan = blob_setup()
        seen = []
        real = models.check_targets

        def spy(spec, targets, rows):
            seen.append((np.asarray(targets).dtype, rows))
            return real(spec, targets, rows)

        monkeypatch.setattr(models, "check_targets", spy)
        optim.Run(spec, ds, default_hyper(), plan, Recipe("dense"), seed=0)
        assert seen == [(np.float64, ds.n_samples)]  # a Run built directly checks once too
        seen.clear()
        optim.recipe_train(spec, ds, default_hyper(), plan,
                           Recipe("step", switch=SwitchCriterion(kind="fixed", step=20)), 40, seed=0)
        # the dataset's float ids are checked and made int64 once, at entry;
        # every step and both evaluations then read int64 ids, which need
        # only their range checked
        assert seen[0] == (np.float64, ds.n_samples)
        assert [dtype for dtype, _ in seen[1:]] == [np.int64] * (40 + 2)

    @pytest.mark.parametrize("criterion", [
        SwitchCriterion(kind="fixed", step=25),
        SwitchCriterion(kind="relative"),
        SwitchCriterion(kind="staleness"),
        SwitchCriterion(kind="autoswitch", clip=(20, 60)),
    ], ids=lambda c: c.kind)
    def test_offline_replay_of_the_records_finds_the_online_switch(self, criterion):
        # the detector observes the very StepRecords that the run returns
        spec, ds, plan = blob_setup()
        hyper = AdamHyper(beta2=0.9, lr=5e-3)  # window / lag of 10
        run = optim.recipe_train(spec, ds, hyper, plan, Recipe("step", switch=criterion), 120, seed=5)
        assert run.switched_at is not None
        assert evaluate_offline(criterion, run.records, hyper.beta2, hyper.eps) == run.switched_at

    def test_reproducible_across_calls(self):
        spec, ds, plan = blob_setup()
        crit = SwitchCriterion(kind="fixed", step=25)
        a = optim.recipe_train(spec, ds, default_hyper(5e-3), plan, Recipe("step", switch=crit), 50, 10)
        b = optim.recipe_train(spec, ds, default_hyper(5e-3), plan, Recipe("step", switch=crit), 50, 10)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        assert [r.loss for r in a.records] == [r.loss for r in b.records]


RUN_CASES = [(kind, decay) for kind in optim.RECIPE_KINDS for decay in (None, DecaySchedule(4, (4, 9)))
             if not (kind == "dense" and decay)]


class TestRun:
    """``optim.Run`` stepped by hand: the run that ``recipe_train`` drives, bit for bit."""

    @pytest.mark.parametrize("k", [3, 6, 12])  # before, at and past the switch and the stages
    @pytest.mark.parametrize("kind, decay", RUN_CASES,
                             ids=[f"{kind}-{'decay' if decay else 'constant'}" for kind, decay in RUN_CASES])
    def test_k_steps_then_finish_is_recipe_train(self, kind, decay, k):
        spec, ds, plan = blob_setup()
        hyper = default_hyper(5e-3)
        recipe = Recipe(kind, lam=2e-4 if kind == "srste" else 0.0, decay=decay,
                        switch=SwitchCriterion("fixed", step=6))
        run = optim.Run(spec, ds, hyper, plan, recipe, 3)
        stepped = [run.step() for _ in range(k)]
        assert [id(r) for r in run.records] == [id(r) for r in stepped]
        got = run.finish()
        assert run.state is None  # m and v are freed
        want = optim.recipe_train(spec, ds, hyper, plan, recipe, k, 3)
        assert got.switched_at == want.switched_at == (
            6 if optim.RECIPE_KINDS[kind][1] and k >= 6 else None)
        assert repr([vars(r) for r in got.records]) == repr([vars(r) for r in want.records])
        assert got.params.flat.tobytes() == want.params.flat.tobytes()
        assert got.final_masks.keys() == want.final_masks.keys() == plan.keys()
        assert all(got.final_masks[n].tobytes() == want.final_masks[n].tobytes() for n in plan)
        assert repr((got.sparse_eval_loss, got.dense_eval_loss, got.layer_sparsity)) == repr(
            (want.sparse_eval_loss, want.dense_eval_loss, want.layer_sparsity))

    @pytest.mark.parametrize("figure", ["gradient", "loss", "v_l2"])
    def test_a_failed_step_names_itself_and_keeps_the_steps_before(self, figure, monkeypatch):
        # the gradient fails inside adam_step, before it writes; the others after it
        real_loss, real_stats = models.loss_and_grad, optim.variance_stats
        calls = []

        def loss_and_grad(*args, **kwargs):
            calls.append(1)
            loss, grads = real_loss(*args, **kwargs)
            if len(calls) == 3 and figure == "gradient":
                grads["fc1.weight"][0, 0] = math.nan
            return (math.inf if len(calls) == 3 and figure == "loss" else loss), grads

        def stats(*args):
            figures = real_stats(*args)
            return figures[:3] + (math.nan,) if len(calls) == 3 and figure == "v_l2" else figures

        monkeypatch.setattr(models, "loss_and_grad", loss_and_grad)
        monkeypatch.setattr(optim, "variance_stats", stats)
        spec, ds, plan = blob_setup()
        run = optim.Run(spec, ds, default_hyper(), plan,
                        Recipe("step", switch=SwitchCriterion("autoswitch")), 0)
        before = [run.step(), run.step()]
        name = "gradient for 'fc1.weight'" if figure == "gradient" else figure
        with pytest.raises(NumericalError, match=rf"^non-finite {name} at step 3$"):
            run.step()
        assert [id(r) for r in run.records] == [id(r) for r in before]
        assert [r.step for r in run.records] == [1, 2]


class TestNonFiniteFigures:
    """A non-finite loss, statistic or evaluation loss stops the run at the step that made it."""

    def test_the_gradient_check_comes_first(self):
        # an infinite input feature makes every logit infinite or NaN, so the loss
        # and the gradient are both NaN at step 1; the gradient is named
        rng = np.random.default_rng(0)
        spec = models.ModelSpec("mlp_classifier", (3, 2))
        inputs = rng.standard_normal((64, 3))
        inputs[:, 0] = np.inf
        ds = models.Dataset(inputs, rng.integers(0, 2, 64), 32)
        with pytest.raises(NumericalError, match=r"^non-finite gradient for 'fc1.weight' at step 1$"):
            optim.recipe_train(spec, ds, default_hyper(), {}, Recipe("dense"), 20, 1)

    @pytest.mark.parametrize("figure", ["loss", "z", "z_geom", "v_l1", "v_l2"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_named_before_the_record_is_kept_or_observed(self, figure, value, monkeypatch):
        real_stats, real_loss = optim.variance_stats, models.loss_and_grad
        calls = {"stats": 0, "loss": 0}

        def stats(*args):
            calls["stats"] += 1
            figures = list(real_stats(*args))  # z, z_geom, v_l1, v_l2
            if calls["stats"] == 3 and figure != "loss":
                figures[["z", "z_geom", "v_l1", "v_l2"].index(figure)] = value
            return tuple(figures)

        def loss_and_grad(*args, **kwargs):
            calls["loss"] += 1
            loss, grads = real_loss(*args, **kwargs)
            return (value if figure == "loss" and calls["loss"] == 3 else loss), grads

        observed = []
        real_detector = optim.make_detector

        def make_detector(*args):
            detector = real_detector(*args)
            observe = detector.observe
            detector.observe = lambda record: observed.append(record.step) or observe(record)
            return detector

        monkeypatch.setattr(optim, "variance_stats", stats)
        monkeypatch.setattr(models, "loss_and_grad", loss_and_grad)
        monkeypatch.setattr(optim, "make_detector", make_detector)
        spec, ds, plan = blob_setup()
        with pytest.raises(NumericalError, match=rf"^non-finite {figure} at step 3$"):
            optim.recipe_train(spec, ds, default_hyper(), plan,
                               Recipe("step", switch=SwitchCriterion(kind="autoswitch")), 10, 0)
        assert observed == [1, 2]

    @pytest.mark.parametrize("figure", ["sparse_eval_loss", "dense_eval_loss"])
    def test_non_finite_evaluation_loss(self, figure, monkeypatch):
        real = models.forward_loss
        losses = []

        def forward_loss(spec, params, batch):
            losses.append(real(spec, params, batch))
            bad = len(losses) == ("sparse_eval_loss", "dense_eval_loss").index(figure) + 1
            return math.nan if bad else losses[-1]

        monkeypatch.setattr(models, "forward_loss", forward_loss)
        spec, ds, plan = blob_setup()
        with pytest.raises(NumericalError, match=rf"^non-finite {figure} at step 12$"):
            optim.recipe_train(spec, ds, default_hyper(), plan, Recipe("dense"), 12, 0)
        assert len(losses) == 2


class TestTrainingMemory:
    @pytest.mark.parametrize("kind, bound", [
        ("step", 4.5), ("dense", 4.5), ("step_updated_variance", 4.5), ("ste", 4.5),
        ("srste", 5.5)])
    def test_allocation_peak_in_flat_buffers(self, kind, bound, monkeypatch):
        # Four P-sized buffers in every phase: params, grads, m and v.  grads
        # holds a masked step's masked weights, then every step's gradient,
        # then, after a running-v update, v_t - v_{t-1}, which the variance
        # statistics use as their work buffer.  From the switch on, step's v
        # holds sqrt(v* + eps).  Final evaluation, after m and v are freed: 2,
        # params and grads (the final masked weights), then 3 with the final
        # masks.  srste's masked steps also hold one bool per masked weight,
        # the pruned slots its penalty reads (about 1/8), and one layer's
        # penalty (0.87 for fc2).
        # The chunk-sized scratch of the Adam update and the mask, and the
        # activations, share the last 0.5
        spec = models.ModelSpec("mlp_classifier", (64, 512, 512, 10))
        ds = models.DataConfig("blobs", 256, 64, n_classes=10, noise_std=1.0, seed=0,
                               batch_size=32).build()
        plan = {f"fc{i}.weight": NMRatio(2, 4) for i in (1, 2, 3)}
        switch = SwitchCriterion("fixed", step=3) if optim.RECIPE_KINDS[kind][1] else None
        recipe = Recipe(kind, lam=2e-4 if kind == "srste" else 0.0, switch=switch)
        coords = sum(math.prod(s) for s in models.param_shapes(spec).values())
        made = []
        real_init = models.ParamBuffer.__init__
        monkeypatch.setattr(models.ParamBuffer, "__init__",
                            lambda buf, *a, **k: made.append(1) or real_init(buf, *a, **k))
        new_masks = []  # a mask made without out= is a new float64 array
        real_mask = optim.compute_nm_mask
        monkeypatch.setattr(optim, "compute_nm_mask",
                            lambda w, r, out=None: new_masks.append(out is None) or real_mask(w, r, out))
        tracemalloc.start()
        try:
            run = optim.recipe_train(spec, ds, default_hyper(), plan, recipe, 8, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.switched_at == (3 if switch else None)
        assert len(made) == 4  # params, grads, m and v
        assert sum(new_masks) == len(plan)  # TrainResult.final_masks only
        assert peak <= bound * 8 * coords, f"peak {peak / (8 * coords):.2f} x 8P bytes"

