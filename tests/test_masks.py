import numpy as np
import pytest

import reference_trainer
from stepnm import masks
from stepnm.errors import ConfigError, DimensionError
from stepnm.masks import (
    CHUNK,
    SMALL,
    DecaySchedule,
    NMRatio,
    check_plan,
    compute_nm_mask,
    mask_sparsity,
    plan_at,
)


def check_mask_valid(weights, mask, ratio):
    """Independent exhaustive check: counts plus magnitude/tie-break ordering."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    p = np.asarray(mask).ravel()
    m = ratio.m
    for g in range(w.size // m):
        idx = range(g * m, (g + 1) * m)
        kept = [i for i in idx if p[i] == 1.0]
        dropped = [i for i in idx if p[i] == 0.0]
        assert len(kept) == ratio.n
        assert len(dropped) == m - ratio.n
        # sorting by (-|w|, index) must reproduce the kept set
        expected = sorted(idx, key=lambda i: (-abs(w[i]), i))[: ratio.n]
        assert set(kept) == set(expected)


class TestNMRatio:
    def test_valid(self):
        NMRatio(2, 4)

    @pytest.mark.parametrize("n,m", [(0, 4), (5, 4), (-1, 2)])
    def test_invalid(self, n, m):
        with pytest.raises(ConfigError):
            NMRatio(n, m)


class TestComputeMask:
    def test_unique_max(self):
        mask = compute_nm_mask([0.1, -0.5, 0.3, 0.2], NMRatio(1, 4))
        np.testing.assert_array_equal(mask, [0, 1, 0, 0])

    def test_top2(self):
        mask = compute_nm_mask([1, -3, 2, 0.5], NMRatio(2, 4))
        np.testing.assert_array_equal(mask, [0, 1, 1, 0])

    def test_tie_break_lower_index(self):
        mask = compute_nm_mask([1, 1, 0, 0], NMRatio(1, 4))
        np.testing.assert_array_equal(mask, [1, 0, 0, 0])

    def test_all_zero_group_tie_break(self):
        # all-equal group: the first n indices win, deterministically
        mask = compute_nm_mask([0.0, 0.0, 0.0, 0.0], NMRatio(2, 4))
        np.testing.assert_array_equal(mask, [1, 1, 0, 0])

    def test_divisibility(self):
        with pytest.raises(DimensionError):
            compute_nm_mask([1.0, 2.0, 3.0], NMRatio(1, 2))

    def test_2d_groups_along_last_axis(self):
        w = np.array([[4.0, 1.0, 2.0, 3.0], [0.5, 0.6, 0.7, 0.8]])
        mask = compute_nm_mask(w, NMRatio(2, 4))
        np.testing.assert_array_equal(mask, [[1, 0, 0, 1], [0, 0, 1, 1]])

    def test_random_ordering_property(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.standard_normal((4, 8))
            ratio = NMRatio(int(rng.integers(1, 9)), 8)
            check_mask_valid(w, compute_nm_mask(w, ratio), ratio)

    def test_ties_ordering_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            # heavy quantization makes magnitude ties common
            w = np.round(rng.standard_normal((2, 8)), 1)
            ratio = NMRatio(int(rng.integers(1, 9)), 8)
            check_mask_valid(w, compute_nm_mask(w, ratio), ratio)

    def test_idempotent_under_apply(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.standard_normal((3, 8))
            ratio = NMRatio(2, 4)
            mask = compute_nm_mask(w, ratio)
            again = compute_nm_mask(w * mask, ratio)
            np.testing.assert_array_equal(mask, again)


def sort_reference(weights, ratio):
    """Mask from a lexicographic sort on (-|w|, slot), with NaN magnitudes last."""
    w = np.asarray(weights, dtype=np.float64)
    mags = np.abs(w).reshape(-1, ratio.m)
    slots = np.broadcast_to(np.arange(ratio.m), mags.shape)
    nan = np.isnan(mags)
    order = np.lexsort((slots, -np.where(nan, 0.0, mags), nan), axis=-1)
    mask = np.zeros(mags.shape)
    np.put_along_axis(mask, order[:, : ratio.n], 1.0, axis=1)
    return mask.reshape(w.shape)


class TestRankAgainstSortReference:
    """The sort-free rank against a sort, beyond the m <= 8 of the training configs."""

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_every_n(self, m):
        rng = np.random.default_rng(m)
        w = rng.standard_normal((48, 4 * m))
        quantized = np.round(w, 0)  # few distinct magnitudes: many ties
        for n in range(1, m + 1):
            ratio = NMRatio(n, m)
            for x in (w, quantized):
                np.testing.assert_array_equal(compute_nm_mask(x, ratio), sort_reference(x, ratio))

    @pytest.mark.parametrize("n,m", [(2, 4), (1, 4), (3, 8), (7, 32)])
    def test_1024_by_1024(self, n, m):
        rng = np.random.default_rng(n * 100 + m)
        w = rng.standard_normal((1024, 1024))
        ratio = NMRatio(n, m)
        mask = compute_nm_mask(w, ratio)
        np.testing.assert_array_equal(mask, sort_reference(w, ratio))
        assert mask_sparsity(mask) == 1 - n / m

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_all_equal_groups_keep_the_first_n(self, m):
        for value in (0.0, -0.0, 0.5, -2.0, np.inf):
            for n in range(1, m + 1):
                mask = compute_nm_mask(np.full((3, 2 * m), value), NMRatio(n, m))
                expected = np.tile(np.arange(m) < n, (3, 2)).astype(float)
                np.testing.assert_array_equal(mask, expected)

    def test_signed_zeros_tie(self):
        w = np.array([-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 1.0, -0.0])
        mask = compute_nm_mask(w, NMRatio(2, 4))
        np.testing.assert_array_equal(mask, [1, 1, 0, 0, 1, 0, 1, 0])
        rng = np.random.default_rng(5)
        signed = np.where(rng.random((16, 32)) < 0.5, -0.0, 0.0)
        signed[rng.random((16, 32)) < 0.3] = 1.0
        for n, m in [(1, 2), (2, 4), (3, 8), (5, 16), (9, 32)]:
            ratio = NMRatio(n, m)
            np.testing.assert_array_equal(compute_nm_mask(signed, ratio), sort_reference(signed, ratio))

    def test_nan_ranks_below_every_number(self):
        # a NaN in a later slot must not win: NaN compares false both ways
        np.testing.assert_array_equal(
            compute_nm_mask([1.0, 2.0, 3.0, np.nan], NMRatio(3, 4)), [1, 1, 1, 0])
        np.testing.assert_array_equal(
            compute_nm_mask([np.nan, 0.0, np.nan, -0.0], NMRatio(2, 4)), [0, 1, 0, 1])
        np.testing.assert_array_equal(
            compute_nm_mask([np.nan, 5.0, np.nan, 1.0], NMRatio(3, 4)), [1, 1, 0, 1])
        # NaNs among themselves: lower index first
        np.testing.assert_array_equal(
            compute_nm_mask([np.nan] * 4, NMRatio(2, 4)), [1, 1, 0, 0])

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_nan_and_inf_against_reference(self, m):
        rng = np.random.default_rng(10 + m)
        w = np.round(rng.standard_normal((32, 2 * m)), 0)
        w[rng.random(w.shape) < 0.2] = np.nan
        w[rng.random(w.shape) < 0.05] = -np.inf
        for n in range(1, m + 1):
            ratio = NMRatio(n, m)
            mask = compute_nm_mask(w, ratio)
            np.testing.assert_array_equal(mask, sort_reference(w, ratio))

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_chunk_boundaries(self, m):
        # the rank runs CHUNK coordinates of groups at a time; here the last
        # chunk is 5 groups, and special groups sit on both sides of each
        # chunk boundary
        step = CHUNK // m  # groups per chunk
        rng = np.random.default_rng(20 + m)
        w = np.round(rng.standard_normal((2 * step + 5, m)), 0)  # many ties
        for b in (step, 2 * step):  # b: the first group of a chunk
            w[b - 3] = w[b + 2] = 0.5 * (-1.0) ** np.arange(m)  # all-equal magnitudes
            w[b - 2] = w[b + 1] = np.where(np.arange(m) % 2, -0.0, 0.0)
            w[b - 1, ::2] = w[b, 1::2] = np.nan
        for n in range(1, m + 1):
            ratio = NMRatio(n, m)
            expected = sort_reference(w, ratio)
            np.testing.assert_array_equal(compute_nm_mask(w, ratio), expected)
            out = np.full(w.shape, np.nan)
            compute_nm_mask(w, ratio, out=out)
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_both_paths_around_the_threshold(self, monkeypatch, m, offset):
        # SMALL + offset * m weights: up to SMALL the mask comes from two stable argsorts,
        # above it from the slot-major rank; each path is forced in turn by moving SMALL
        size = SMALL + offset * m
        rng = np.random.default_rng(size)
        w = np.round(rng.standard_normal((size // m, m)), 0)  # few distinct magnitudes: many ties
        w[rng.random(w.shape) < 0.1] = np.nan
        w[rng.random(w.shape) < 0.05] = np.inf
        w[rng.random(w.shape) < 0.05] = -np.inf
        w[rng.random(w.shape) < 0.1] = -0.0
        w[0] = 0.5 * (-1.0) ** np.arange(m)  # an all-equal group
        w[1] = np.where(np.arange(m) % 2, -0.0, 0.0)
        w[2] = np.nan
        for n in range(1, m + 1):
            ratio = NMRatio(n, m)
            expected = sort_reference(w, ratio).tobytes()
            for small in (SMALL, size - 1, size):  # as shipped, the rank, the argsorts
                monkeypatch.setattr(masks, "SMALL", small)
                mask = compute_nm_mask(w, ratio)
                assert mask.tobytes() == expected, (n, small)
                assert mask.dtype == np.float64 and not mask.flags.writeable
                out = np.full(w.shape, np.nan)
                assert compute_nm_mask(w, ratio, out=out) is out and out.flags.writeable
                assert out.tobytes() == expected, (n, small)

    def test_output_is_fresh_read_only_float64(self):
        w = np.arange(32.0).reshape(8, 4)[:, ::-1]  # non-contiguous input
        before = w.copy()
        mask = compute_nm_mask(w, NMRatio(1, 4))
        np.testing.assert_array_equal(mask, np.tile([1.0, 0, 0, 0], (8, 1)))
        assert mask.dtype == np.float64 and mask.flags.c_contiguous
        assert not mask.flags.writeable
        np.testing.assert_array_equal(w, before)
        np.testing.assert_array_equal(compute_nm_mask([3, 1, 2, 5], NMRatio(2, 4)), [1, 0, 0, 1])

    def test_out_receives_the_mask(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((6, 8))
        w[0, :4] = 0.5  # a tied group
        ratio = NMRatio(2, 4)
        buf = np.full(w.shape, np.nan)
        assert compute_nm_mask(w, ratio, out=buf) is buf
        assert buf.tobytes() == compute_nm_mask(w, ratio).tobytes()
        assert buf.flags.writeable  # the caller's array keeps its flags
        wide = np.empty((6, 16))
        for bad in (np.empty((8, 6)), np.empty(48), np.empty((6, 8), dtype=np.float32),
                    wide[:, ::2], np.zeros((6, 8), dtype=np.int64), [[0.0] * 8] * 6):
            with pytest.raises(DimensionError, match="mask output"):
                compute_nm_mask(w, ratio, out=bad)
        frozen = np.empty(w.shape)
        frozen.setflags(write=False)
        with pytest.raises(DimensionError, match="writable"):
            compute_nm_mask(w, ratio, out=frozen)


PLAN = {"fc1.weight": NMRatio(2, 4), "fc2.weight": NMRatio(1, 8)}


def stage_n(m, s):
    """The n that ``plan_at`` keeps at decay stage s (one stage boundary per step)."""
    ratios = plan_at(PLAN, DecaySchedule(m, tuple(range(1, s + 1))), s)
    (ratio,) = set(ratios.values())  # one ratio for every planned layer
    assert ratio.m == m
    return ratio.n


class TestDecayedN:
    """The n of each decay stage: m-1 at stage 0, then max(1, m // 2**s)."""

    @pytest.mark.parametrize("s,expected", [(0, 7), (1, 4), (2, 2), (3, 1)])
    def test_m8(self, s, expected):
        assert stage_n(8, s) == expected

    @pytest.mark.parametrize("s,expected", [(1, 2), (2, 1)])
    def test_m4(self, s, expected):
        assert stage_n(4, s) == expected

    def test_floored_at_one(self):
        assert stage_n(4, 10) == 1

    def test_non_increasing(self):
        for m in (2, 4, 8, 16):
            ns = [stage_n(m, s) for s in range(8)]
            assert ns == sorted(ns, reverse=True)

    def test_invalid(self):
        # no stage index is negative: a step before every boundary, even a negative
        # one, is stage 0 (DecaySchedule's own m >= 2 check is TestDecaySchedule's)
        for step in (-1, 0, 4):
            assert plan_at(PLAN, DecaySchedule(4, (5,)), step) == dict.fromkeys(PLAN, NMRatio(3, 4))


class TestPlanAt:
    @pytest.mark.parametrize("boundaries", [(), (1,), (10, 20, 30)])
    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_matches_the_reference_trainer(self, m, boundaries):
        decay = DecaySchedule(m, boundaries)
        plan = {name: (r.n, r.m) for name, r in PLAN.items()}
        for step in range(max(boundaries, default=0) + 3):
            ratios = plan_at(PLAN, decay, step)
            assert {name: (r.n, r.m) for name, r in ratios.items()} == \
                reference_trainer.ratios_at(plan, (m, boundaries), step)
            # every stage keeps the decay's m, which ExperimentConfig checks at stage 0
            assert list(ratios) == list(PLAN)
            assert {r.m for r in ratios.values()} == {m}

    def test_without_a_decay_the_plan_itself(self):
        assert plan_at(PLAN, None, 0) is PLAN
        assert plan_at(PLAN, None, 10**6) is PLAN
        assert plan_at({}, DecaySchedule(4, (1,)), 5) == {}


class TestMaskSparsity:
    def test_quarter(self):
        mask = compute_nm_mask(np.arange(16.0), NMRatio(1, 4))
        assert mask_sparsity(mask) == 0.75

    def test_half(self):
        mask = compute_nm_mask(np.arange(8.0), NMRatio(2, 4))
        assert mask_sparsity(mask) == 0.5

    def test_dense(self):
        mask = compute_nm_mask(np.arange(8.0), NMRatio(4, 4))
        assert mask_sparsity(mask) == 0.0

    @pytest.mark.parametrize("shape", [(0,), (0, 4)])
    def test_an_empty_mask_is_a_dimension_error(self, shape):
        with pytest.raises(DimensionError, match="^empty mask$"):
            mask_sparsity(np.zeros(shape))

    def test_exact_fraction_for_generated_masks(self):
        rng = np.random.default_rng(3)
        for n, m in [(1, 4), (2, 4), (3, 8), (5, 8)]:
            w = rng.standard_normal((4, m))
            assert mask_sparsity(compute_nm_mask(w, NMRatio(n, m))) == 1 - n / m


class TestCheckPlan:
    def test_validate_ok(self):
        check_plan({"fc1.weight": NMRatio(1, 4)}, {"fc1.weight": (2, 8), "fc1.bias": (2,)})

    def test_unknown_layer(self):
        with pytest.raises(ConfigError):
            check_plan({"nope.weight": NMRatio(1, 4)}, {"fc1.weight": (2, 8)})

    def test_bad_divisibility(self):
        with pytest.raises(ConfigError):
            check_plan({"fc1.weight": NMRatio(1, 4)}, {"fc1.weight": (4, 6)})

    def test_bias_is_not_a_weight(self):
        with pytest.raises(ConfigError, match="'fc1.bias', which is not an"):
            check_plan({"fc1.bias": NMRatio(1, 2)}, {"fc1.weight": (2, 8), "fc1.bias": (2,)})


class TestDecaySchedule:
    def test_stages(self):
        sched = DecaySchedule(8, (100, 200, 300))
        for step, n in [(1, 7), (99, 7), (100, 4), (250, 2), (1000, 1)]:
            assert plan_at(PLAN, sched, step) == dict.fromkeys(PLAN, NMRatio(n, 8))

    def test_ratio_at(self):
        sched = DecaySchedule(8, (10,))
        assert plan_at(PLAN, sched, 5) == dict.fromkeys(PLAN, NMRatio(7, 8))
        assert plan_at(PLAN, sched, 10) == dict.fromkeys(PLAN, NMRatio(4, 8))

    @pytest.mark.parametrize("m", [1, 0])
    def test_m_below_two(self, m):
        with pytest.raises(ConfigError, match=f"decay schedule needs m >= 2, got {m}"):
            DecaySchedule(m)

    def test_bad_boundaries(self):
        with pytest.raises(ConfigError):
            DecaySchedule(8, (10, 10))
        with pytest.raises(ConfigError):
            DecaySchedule(8, (20, 10))
        with pytest.raises(ConfigError):
            DecaySchedule(8, (0,))
