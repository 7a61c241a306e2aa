import math
import re

import numpy as np
import pytest

from conftest import buffer, copied
from fd_check import finite_difference_check
from stepnm import models, optim
from stepnm.errors import ConfigError, DimensionError, DomainError
from stepnm.masks import NMRatio
from stepnm.models import Dataset, ModelSpec
from stepnm.optim import variance_stats


def mlp(sizes=(3, 5, 3), activation="tanh"):
    return ModelSpec("mlp_classifier", sizes, activation=activation)


def random_batch(spec, batch, seed):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((batch, spec.layer_sizes[0]))
    return inputs, rng.integers(0, spec.layer_sizes[-1], batch).astype(float)


# three-layer MLPs, whose inner layers pass a gradient through their weights, and a single
# linear layer
ALIASING_SPECS = [mlp((6, 8, 8, 4), "relu"), mlp((6, 8, 8, 4), "tanh"), mlp((6, 2))]


class TestModelSpec:
    def test_valid(self):
        ModelSpec("mlp_classifier", (4, 2))
        mlp()

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            ModelSpec("transformer", (2, 2))

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            ModelSpec("mlp_classifier", (4,))
        with pytest.raises(ConfigError):
            ModelSpec("mlp_classifier", (4, 0, 2))

    @pytest.mark.parametrize("activation", ["sigmoid", "RELU", ""])
    def test_unknown_activation(self, activation):
        with pytest.raises(ConfigError, match=f"^unknown activation {re.escape(repr(activation))}$"):
            ModelSpec("mlp_classifier", (4, 3, 2), activation)

    def test_param_shapes(self):
        shapes = models.param_shapes(mlp((2, 16, 2)))
        assert shapes == {
            "fc1.weight": (16, 2),
            "fc1.bias": (16,),
            "fc2.weight": (2, 16),
            "fc2.bias": (2,),
        }

    def test_param_shapes_is_built_once_and_read_only(self):
        shapes = models.param_shapes(mlp((2, 16, 2)))
        assert models.param_shapes(mlp((2, 16, 2))) is shapes
        with pytest.raises(TypeError):
            shapes["fc3.weight"] = (1, 1)
        with pytest.raises(TypeError):
            del shapes["fc1.bias"]
        assert list(models.param_shapes(mlp((2, 16, 2)))) == [
            "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]


class TestSynthetic:
    def test_blobs_deterministic(self):
        a, b = (models.DataConfig("blobs", 100, 2, n_classes=2, noise_std=0.1,
                                  seed=7).build() for _ in range(2))
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_a_single_sample(self):
        ds = models.DataConfig("blobs", 1, 2, seed=3, batch_size=1).build()
        assert ds.inputs.shape == (1, 2) and ds.n_samples == ds.batch_size == 1

    def test_zero_noise_puts_every_sample_on_its_class_centre(self):
        # labels take the classes in turn; each class's samples are one point,
        # and the three centres are distinct
        ds = models.DataConfig("blobs", 10, 4, n_classes=3, noise_std=0.0, seed=2,
                               batch_size=4).build()
        assert ds.targets.tolist() == [i % 3 for i in range(10)]
        for label in range(3):
            rows = ds.inputs[ds.targets == label]
            assert (rows == rows[0]).all()
        assert len({tuple(row) for row in ds.inputs}) == 3

    def test_a_batch_size_above_n_samples_becomes_one_full_batch(self):
        ds = models.DataConfig("blobs", 5, 2, batch_size=32).build()
        assert ds.batch_size == ds.n_samples == 5

    def test_blobs_needs_two_classes(self):
        with pytest.raises(ConfigError):
            models.DataConfig("blobs", 10, 2, n_classes=1)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            models.DataConfig("spiral", 10, 2)

    def test_dataset_keeps_int64_class_ids_and_makes_other_targets_float64(self):
        ids = np.array([0, 1, 1, 0], dtype=np.int64)
        assert Dataset(np.zeros((4, 2)), ids, batch_size=2).targets is ids
        for targets in (np.array([0, 1, 1, 0], dtype=np.int32), [0.0, 1.0, 1.0, 0.0]):
            converted = Dataset(np.zeros((4, 2)), targets, batch_size=2).targets
            assert converted.dtype == np.float64 and converted.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_dataset_invariants(self):
        with pytest.raises(ConfigError):
            Dataset(inputs=np.zeros((4, 2)), targets=np.zeros(4), batch_size=5)
        with pytest.raises(DimensionError):
            Dataset(inputs=np.zeros((4, 2)), targets=np.zeros(3), batch_size=2)


class TestForwardLoss:
    def test_uniform_logits_give_log_c(self):
        spec = mlp((2, 4, 3))
        params = models.init_params(spec, 0)
        # zero head makes every logit identical, hence a uniform softmax
        params["fc2.weight"][...] = 0.0
        params["fc2.bias"][...] = 0.0
        batch = random_batch(spec, 8, 1)
        assert math.isclose(models.forward_loss(spec, params, batch), math.log(3), rel_tol=1e-12)

    def test_finite_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            spec = mlp((3, 4, 2), activation="relu")
            params = models.init_params(spec, int(rng.integers(0, 1 << 31)))
            loss = models.forward_loss(spec, params, random_batch(spec, 6, int(rng.integers(0, 1 << 31))))
            assert math.isfinite(loss)
            assert loss >= 0.0

    def test_shape_mismatch(self):
        spec = mlp((3, 4, 2))
        params = models.init_params(spec, 0)
        with pytest.raises(DimensionError):
            models.forward_loss(spec, params, (np.zeros((4, 5)), np.zeros(4)))

    def test_does_not_mutate_params(self):
        spec = mlp((3, 4, 2))
        params = models.init_params(spec, 0)
        before = {k: v.copy() for k, v in params.items()}
        models.forward_loss(spec, params, random_batch(spec, 4, 0))
        models.loss_and_grad(spec, params, random_batch(spec, 4, 0))
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])


class TestParamBuffer:
    def test_views_share_the_flat_buffer(self):
        shapes = models.param_shapes(mlp((3, 5, 2)))
        buf = models.ParamBuffer(shapes)
        assert list(buf) == list(shapes) and buf.flat.size == 3 * 5 + 5 + 5 * 2 + 2
        for (name, shape), (start, stop) in zip(shapes.items(), buf.bounds):
            assert buf[name].shape == shape and np.shares_memory(buf[name], buf.flat)
            buf[name][...] = start
            assert np.all(buf.flat[start:stop] == start)

    def test_copy_is_refused(self):
        # dict.copy would give a plain dict sharing the views, not a copy of the data
        buf = models.init_params(mlp(), 1)
        with pytest.raises(TypeError, match="views of its flat array"):
            buf.copy()

    def test_entries_cannot_be_rebound_or_removed(self):
        # a rebound entry would no longer be a view of flat, so an update of
        # flat would leave it behind
        buf = models.init_params(mlp(), 1)
        before = buf.flat.copy()
        view = buf["fc1.weight"]
        for change in (lambda: buf.__setitem__("fc1.weight", np.ones((5, 3))),
                       lambda: buf.__setitem__("x", None),
                       lambda: buf.__delitem__("fc1.bias"), lambda: buf.update(a=np.ones(1)),
                       lambda: buf.pop("fc1.bias"), buf.popitem, buf.clear,
                       lambda: buf.setdefault("x", np.ones(1)),
                       lambda: buf.__ior__({"fc1.bias": np.ones(5)})):
            with pytest.raises(TypeError, match="views of its flat array"):
                change()
        assert list(buf) == list(buf.shapes) and buf["fc1.weight"] is view
        assert buf.flat.tobytes() == before.tobytes()
        # writes through the views, augmented assignment included, reach flat
        buf["fc1.weight"][...] = 2.0
        buf["fc1.bias"] += 1.0
        start, stop = buf.bounds[1]
        assert np.all(buf.flat[:start] == 2.0) and np.all(buf.flat[start:stop] == 1.0)
        plain = dict(buf)  # a plain dict of the views, free to rebind
        plain["fc1.weight"] = np.ones((5, 3))
        assert np.shares_memory(plain["fc1.bias"], buf.flat) and buf["fc1.weight"] is view

    def test_only_buffers_of_the_state_layout_are_taken(self):
        # a plain dict, or a buffer with other names, order or shapes, is
        # refused before anything is written, never copied into a buffer
        hyper = optim.AdamHyper()
        params = buffer(a=np.ones((2, 2)), b=np.ones(3))
        grads = buffer(a=np.ones((2, 2)), b=np.ones(3))
        state = optim.init_adam_state(params)
        plain = {"a": np.ones((2, 2)), "b": np.ones(3)}
        for bad in (plain, buffer(b=np.ones(3), a=np.ones((2, 2))),
                    buffer(a=np.ones((2, 2)), b=np.ones((3, 1))), buffer(a=np.ones((2, 2)))):
            for args in ((bad, grads), (params, bad)):
                with pytest.raises(DimensionError):
                    optim.adam_step(state, hyper, *args)
            with pytest.raises(DimensionError):
                optim.AdamState(m=state.m, v=bad)
            with pytest.raises(DimensionError):
                variance_stats(state.v, bad)
        for call in (lambda: optim.AdamState(m=plain, v=state.v), lambda: optim.init_adam_state(plain),
                     lambda: variance_stats(plain, state.v)):
            with pytest.raises(DimensionError, match="must be a ParamBuffer, got dict"):
                call()
        assert state.t == 0 and not state.m.flat.any() and (params.flat == 1.0).all()
        spec = mlp()
        with pytest.raises(DimensionError, match="gradient buffer"):
            models.loss_and_grad(spec, models.init_params(spec, 0), random_batch(spec, 2, 0), out={})

    @pytest.mark.parametrize("call", [
        lambda spec, params, batch: models.forward_loss(spec, params, batch),
        lambda spec, params, batch: models.loss_and_grad(spec, params, batch),
        lambda spec, params, batch: optim.ste_loss_and_grad(
            spec, params, {"fc1.weight": NMRatio(1, 3)}, batch),
        lambda spec, params, batch: finite_difference_check(spec, params, batch),
    ], ids=["forward_loss", "loss_and_grad", "ste_loss_and_grad", "finite_difference_check"])
    def test_model_passes_take_only_buffers_of_the_spec_layout(self, call):
        # the values are right; a dict of them is refused, and so is another layout
        spec = mlp()
        params = models.init_params(spec, 0)
        batch = random_batch(spec, 4, 0)
        with pytest.raises(DimensionError, match="parameters must be a ParamBuffer, got dict"):
            call(spec, dict(params), batch)
        with pytest.raises(DimensionError, match="parameters laid out as"):
            call(spec, buffer(**{name: params[name] for name in reversed(params)}), batch)


class TestGrad:
    def test_deterministic(self):
        spec = mlp()
        params = models.init_params(spec, 3)
        batch = random_batch(spec, 5, 4)
        g1 = models.loss_and_grad(spec, params, batch)[1]
        g2 = models.loss_and_grad(spec, params, batch)[1]
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k])

    def test_non_integral_class_ids_rejected(self):
        spec = mlp((3, 4, 2))
        params = models.init_params(spec, 0)
        inputs = np.zeros((3, 3))
        for bad in (0.7, np.nan):
            with pytest.raises(DomainError, match="integral"):
                models.loss_and_grad(spec, params, (inputs, np.array([0.0, bad, 1.0])))
        with pytest.raises(DimensionError):
            models.forward_loss(spec, params, (inputs, np.array([0.0, np.inf, 1.0])))
        # integral floats and integer arrays are class ids
        a = models.forward_loss(spec, params, (inputs, np.array([0.0, 1.0, 1.0])))
        b = models.forward_loss(spec, params, (inputs, np.array([0, 1, 1])))
        assert a == b

    def test_int64_class_ids_are_range_checked(self):
        spec = mlp((3, 4, 2))
        params = models.init_params(spec, 0)
        inputs = np.zeros((3, 3))
        for bad in (-1, 2, 2**62, -(2**63)):
            targets = np.array([0, bad, 1], dtype=np.int64)
            with pytest.raises(DimensionError, match="outside the output range"):
                models.loss_and_grad(spec, params, (inputs, targets))
            with pytest.raises(DimensionError, match="outside the output range"):
                models.forward_loss(spec, params, (inputs, targets))

    def test_check_targets(self):
        spec = mlp((3, 4, 2))
        labels = models.check_targets(spec, np.array([0.0, 1.0, 1.0]), 3)
        assert labels.dtype == np.int64 and labels.tolist() == [0, 1, 1]
        assert models.check_targets(spec, labels, 3) is labels
        with pytest.raises(DomainError, match="integral class ids, got 2.5"):
            models.check_targets(spec, np.array([0.0, 2.5, 1.0]), 3)
        with pytest.raises(DimensionError, match=re.escape("class id 7.0 outside the output range [0, 2)")):
            models.check_targets(spec, np.array([0.0, 7.0, 1.0]), 3)
        with pytest.raises(DimensionError, match="vector of class ids"):
            models.check_targets(spec, labels, 4)

    def test_one_layer_closed_form_at_zero(self):
        # zero parameters give a uniform softmax [0.5, 0.5], so the loss is
        # log 2 and g = (softmax - onehot) / n = +-0.25; dW = g.T @ x, db = 0
        spec = mlp((3, 2))
        params = models.ParamBuffer(models.param_shapes(spec))
        inputs = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        loss, grads = models.loss_and_grad(spec, params, (inputs, np.array([0, 1])))
        assert loss == math.log(2)
        np.testing.assert_array_equal(grads["fc1.weight"], [[0.75, 0.75, 0.75], [-0.75, -0.75, -0.75]])
        np.testing.assert_array_equal(grads["fc1.bias"], [0.0, 0.0])

    @pytest.mark.parametrize("spec", ALIASING_SPECS, ids=["relu", "tanh", "linear"])
    def test_head_gradients_sum_to_zero_over_classes(self, spec):
        # each row of softmax - onehot sums to 0, so the head's bias gradient
        # does, and so does every column of its weight gradient
        params = models.init_params(spec, 4)
        grads = models.loss_and_grad(spec, params, random_batch(spec, 16, 5))[1]
        head = f"fc{spec.n_layers}"
        assert abs(grads[f"{head}.bias"].sum()) < 1e-15
        np.testing.assert_allclose(grads[f"{head}.weight"].sum(axis=0), 0.0, atol=1e-15)
        assert np.abs(grads[f"{head}.weight"]).max() > 1e-3

    @pytest.mark.parametrize("sizes", [(3, 5, 3), (64, 128, 128, 10)])
    def test_out_buffer_gets_the_same_bits(self, sizes):
        spec = mlp(sizes)
        params = models.init_params(spec, 5)
        batch = random_batch(spec, 64, 6)
        loss, fresh = models.loss_and_grad(spec, params, batch)
        out = models.ParamBuffer(models.param_shapes(spec))
        out.flat[...] = np.nan
        loss_out, grads = models.loss_and_grad(spec, params, batch, out=out)
        assert grads is out and loss_out == loss
        for name, g in fresh.items():
            assert out[name].tobytes() == g.tobytes()

    @pytest.mark.parametrize("spec", ALIASING_SPECS, ids=["relu", "tanh", "linear"])
    def test_gradients_may_overwrite_their_parameters(self, spec):
        # out=params: each layer's g @ W is formed before its dW is written
        params = models.init_params(spec, 8)
        batch = random_batch(spec, 16, 9)
        loss, fresh = models.loss_and_grad(spec, params, batch)
        buf = copied(params)
        loss_in_place, grads = models.loss_and_grad(spec, buf, batch, out=buf)
        assert grads is buf and loss_in_place == loss
        assert buf.flat.tobytes() == fresh.flat.tobytes()

    @pytest.mark.parametrize("spec", ALIASING_SPECS, ids=["relu", "tanh", "linear"])
    def test_ste_gradients_may_overwrite_their_masked_point(self, spec):
        # the trainer's one work buffer holds the masked weights, then the
        # gradients taken at them, with and without the SR-STE penalty
        params = models.init_params(spec, 8)
        batch = random_batch(spec, 16, 9)
        ratios = {name: NMRatio(1, 2) for name in params if name.endswith(".weight")}
        for lam in (0.0, 0.01):
            loss, fresh = optim.ste_loss_and_grad(spec, params, ratios, batch, lam=lam)
            buf = models.ParamBuffer(params.shapes)
            loss_in_place, grads = optim.ste_loss_and_grad(spec, params, ratios, batch, lam=lam,
                                                           out=buf)
            assert grads is buf and loss_in_place == loss
            assert buf.flat.tobytes() == fresh.flat.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_forward_loss_has_the_bits_of_the_gradient_pass(self, activation):
        # the forward-only pass keeps no layer inputs; its loss is the same
        spec = mlp((16, 32, 32, 5), activation)
        params = models.init_params(spec, 7)
        for seed in range(3):
            batch = random_batch(spec, 48, seed)
            loss = models.forward_loss(spec, params, batch)
            assert loss.hex() == models.loss_and_grad(spec, params, batch)[0].hex()

    def test_relu_subgradient_at_zero_is_zero(self):
        spec = ModelSpec("mlp_classifier", (1, 1, 2), activation="relu")
        params = buffer(**{
            "fc1.weight": np.array([[1.0]]),
            "fc1.bias": np.array([0.0]),
            "fc2.weight": np.array([[1.0], [-1.0]]),
            "fc2.bias": np.array([0.0, 0.0]),
        })
        # pre-activation is exactly 0, so nothing flows back to fc1: +0.0,
        # although the gradient arriving from fc2 is negative
        grads = models.loss_and_grad(spec, params, (np.array([[0.0]]), np.array([0.0])))[1]
        np.testing.assert_array_equal(grads["fc1.weight"], [[0.0]])
        np.testing.assert_array_equal(grads["fc1.bias"], [0.0])
        assert not np.signbit(grads["fc1.weight"]).any()
        assert not np.signbit(grads["fc1.bias"]).any()


def reference_loss_and_grad(spec, params, inputs, targets):
    """Per-sample backprop with outer products, averaged over the batch.

    Written independently of models.py: one sample at a time, a
    log-sum-exp loss, and the relu subgradient 0 at a zero pre-activation.
    """
    n_layers = spec.n_layers
    weights = [params[f"fc{i}.weight"] for i in range(1, n_layers + 1)]
    biases = [params[f"fc{i}.bias"] for i in range(1, n_layers + 1)]
    grads = {name: np.zeros(np.shape(value)) for name, value in params.items()}
    total = 0.0
    n = inputs.shape[0]
    for x, y in zip(inputs, targets):
        acts, pres = [x], []
        for i in range(n_layers):
            pre = weights[i] @ acts[-1] + biases[i]
            pres.append(pre)
            if i < n_layers - 1:
                acts.append(np.maximum(pre, 0.0) if spec.activation == "relu" else np.tanh(pre))
        out = pres[-1]
        top = out.max()
        log_norm = top + math.log(np.exp(out - top).sum())
        total += log_norm - out[int(y)]
        delta = np.exp(out - log_norm)
        delta[int(y)] -= 1.0
        for i in reversed(range(n_layers)):
            grads[f"fc{i + 1}.weight"] += np.outer(delta, acts[i]) / n
            grads[f"fc{i + 1}.bias"] += delta / n
            if i > 0:
                if spec.activation == "relu":
                    slope = (pres[i - 1] > 0.0).astype(float)
                else:
                    slope = 1.0 - np.tanh(pres[i - 1]) ** 2
                delta = (weights[i].T @ delta) * slope
    return total / n, grads


def reference_cases():
    """(spec, params, batch) over activations and 0-3 hidden layers, one a bottleneck of width 1."""
    rng = np.random.default_rng(31)
    cases = []
    for activation in ("relu", "tanh"):
        for hidden in ((), (1,), (5,), (6, 4), (5, 7, 3)):
            cases.append(ModelSpec("mlp_classifier", (4, *hidden, 3), activation=activation))
    out = []
    for spec in cases:
        for zero_pre_activations in (False, True):
            params = models.init_params(spec, int(rng.integers(1 << 31)))
            params = buffer(**{k: v + 0.1 * rng.standard_normal(v.shape) for k, v in params.items()})
            inputs, targets = random_batch(spec, 7, int(rng.integers(1 << 31)))
            if zero_pre_activations:
                # a zero input row and zero first-layer biases give exact zeros
                # in layer 1; zero rows of a hidden weight do the same further up
                inputs[0] = 0.0
                params["fc1.bias"][:] = 0.0
                for i in range(2, spec.n_layers):
                    params[f"fc{i}.weight"][0] = 0.0
                    params[f"fc{i}.bias"][0] = 0.0
            out.append((spec, params, (inputs, targets)))
    return out


class TestReferenceGradient:
    @pytest.mark.parametrize("case", range(len(reference_cases())))
    def test_matches_reference(self, case):
        spec, params, (inputs, targets) = reference_cases()[case]
        before = {k: v.copy() for k, v in params.items()}
        loss, grads = models.loss_and_grad(spec, params, (inputs, targets))
        ref_loss, ref_grads = reference_loss_and_grad(spec, params, inputs, targets)
        assert math.isclose(loss, ref_loss, rel_tol=1e-12)
        assert models.forward_loss(spec, params, (inputs, targets)) == loss
        assert set(grads) == set(params)
        for name, g in grads.items():
            assert isinstance(g, np.ndarray) and g.dtype == np.float64
            assert g.shape == params[name].shape
            assert g.flags.c_contiguous
            # atol covers entries that cancel to ~1e-17 in either summation order
            np.testing.assert_allclose(g, ref_grads[name], rtol=1e-12, atol=1e-14)
        for name, value in params.items():
            np.testing.assert_array_equal(value, before[name])

    def test_cases_hit_zero_pre_activations(self):
        spec, params, (inputs, _) = reference_cases()[-1]
        assert spec.n_layers == 4
        pre = inputs @ params["fc1.weight"].T + params["fc1.bias"]
        assert np.any(pre == 0.0)


class TestFiniteDifference:
    def test_linear_passes(self):
        spec = mlp((3, 2))
        params = models.init_params(spec, 5)
        report = finite_difference_check(spec, params, random_batch(spec, 6, 6))
        assert report.passed
        assert report.max_rel_error <= 1e-5
        assert report.offenders == ()

    def test_mlp_tanh_passes(self):
        spec = mlp((3, 5, 3), activation="tanh")
        params = models.init_params(spec, 7)
        report = finite_difference_check(spec, params, random_batch(spec, 8, 8))
        assert report.passed

    def test_zero_tolerance_always_fails(self):
        spec = mlp((3, 5, 3), activation="tanh")
        params = models.init_params(spec, 9)
        report = finite_difference_check(spec, params, random_batch(spec, 8, 10), tol=0.0)
        assert not report.passed
        assert len(report.offenders) > 0

    def test_relu_kink_reported_not_crashing(self):
        spec = mlp((2, 3, 2), activation="relu")
        params = models.init_params(spec, 11)
        report = finite_difference_check(spec, params, random_batch(spec, 4, 12), h=1e-5)
        # relu instances may or may not sit near a kink; the report just lists offenders
        assert isinstance(report.passed, bool)
        assert report.max_rel_error >= 0.0

    def test_non_finite_difference_fails(self):
        # h = 1e300 against inputs near 1e10 overflows the logits of every
        # weight step to +-inf, so each weight's difference is NaN; a bias
        # step's logits stay finite, but its difference is far off too
        spec = mlp((2, 2))
        params = models.init_params(spec, 0)
        inputs, targets = random_batch(spec, 8, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            report = finite_difference_check(spec, params, (1e10 * inputs, targets), h=1e300)
        assert math.isnan(report.max_rel_error) and not report.passed
        assert [(name, idx, math.isnan(rel)) for name, idx, rel in report.offenders] == [
            ("fc1.weight", i, True) for i in range(4)] + [("fc1.bias", i, False) for i in range(2)]

    def test_bad_h(self):
        spec = mlp()
        params = models.init_params(spec, 0)
        for h in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                finite_difference_check(spec, params, random_batch(spec, 4, 0), h=h)


@pytest.mark.parametrize("inputs", [np.zeros(4), np.zeros((4, 2, 1))], ids=["1d", "3d"])
def test_dataset_inputs_must_be_2d(inputs):
    with pytest.raises(DimensionError) as info:
        Dataset(inputs, np.zeros(4), batch_size=1)
    assert str(info.value) == f"inputs must be 2-d, got shape {inputs.shape}"


class TestBatchIterator:
    def test_deterministic(self):
        ds = models.DataConfig("blobs", 64, 2, noise_std=0.0, seed=0,
                               batch_size=16).build()
        a = models.batch_iterator(ds, 42)
        b = models.batch_iterator(ds, 42)
        for _ in range(10):
            xa, ya = next(a)
            xb, yb = next(b)
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_a_tail_that_does_not_fill_a_batch_is_dropped(self):
        # 10 samples in batches of 4: two batches an epoch, each epoch a fresh
        # permutation whose last two samples go unused
        ds = models.DataConfig("blobs", 10, 3, noise_std=1.0, seed=0, batch_size=4).build()
        it = models.batch_iterator(ds, 5)
        rng = np.random.default_rng(5)
        for _ in range(3):
            order = rng.permutation(10)
            for i in range(2):
                inputs, targets = next(it)
                np.testing.assert_array_equal(inputs, ds.inputs[order[4 * i:4 * i + 4]])
                np.testing.assert_array_equal(targets, ds.targets[order[4 * i:4 * i + 4]])

    def test_epoch_covers_all_samples(self):
        ds = models.DataConfig("blobs", 64, 2, noise_std=0.0, seed=0,
                               batch_size=16).build()
        it = models.batch_iterator(ds, 1)
        seen = np.concatenate([next(it)[0] for _ in range(4)])
        assert seen.shape == (64, 2)
        # one epoch is a permutation of the dataset
        assert {tuple(r) for r in seen} == {tuple(r) for r in ds.inputs}
