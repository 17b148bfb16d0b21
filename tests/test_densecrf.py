"""Mean-field refinement: state handling, updates, energy, parameter search."""

import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import ndimage

from denseseg import cli, densecrf, hdfilter
from denseseg.atrous import upsample_bilinear
from denseseg.cli import bench_scene
from denseseg.core import (FeatureMap, LabelMap, RgbImage, ShapeError, read_tensor, write_pgm,
                           write_ppm, write_tensor)
from denseseg.densecrf import (
    BACKENDS,
    EXACT_MASS_MAX_PIXELS,
    MAX_WEIGHT,
    FilterCacheError,
    GridPoint,
    MeanFieldState,
    PairwiseFilters,
    PairwiseParams,
    SearchRanges,
    UnaryField,
    _infer,
    _refine_axis,
    _spatial_row_masses,
    bilateral_features,
    energy,
    grid_search,
    init_state,
    labels_from_state,
    mean_field_step,
    run_inference,
    spatial_features,
    unary_from_probs,
)
from denseseg.hdfilter import (
    GAIN_SAMPLE_ROWS,
    FeaturePoints,
    PermutohedralLattice,
    _kernel_block,
    _stride_sample,
    gaussian_filter_exact,
)
from denseseg.metrics import confusion, mean_iou
from denseseg.synth import Disk, Rect, SceneSpec, make_instance

from oracles import (
    energy_bruteforce,
    gaussian_filter_bruteforce,
    meanfield_every_update,
    meanfield_labels_all_pairs,
    meanfield_step_bruteforce,
    meanfield_update_total_minus_own,
    meanfield_update_whole_array,
    softmax_rows_whole_array,
    spatial_row_masses_full_matrix,
)

SCENE_COLORS = np.array(
    [[40, 40, 40], [200, 60, 60], [60, 200, 60], [60, 60, 200]], dtype=np.float64
)


def random_posterior(rng, h, w, labels):
    p = rng.random((h, w, labels)) + 0.05
    return p / p.sum(axis=2, keepdims=True)


def random_image(rng, h, w):
    return RgbImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))


def scene32(seed, blur=0, noise=0.0, size=32):
    """Two rectangles and a disk on a dark ground, with corrupted unaries.

    Corruption: one-hot ground truth, border-renormalized box blur of the
    given radius, additive logit noise, softmax back to a posterior. Another
    `size` scales the 32x32 layout to a size x size image.
    """
    rng = np.random.default_rng(seed)
    h = w = size
    gt = np.zeros((h, w), dtype=np.uint8)
    for label in (1, 2):
        top, left = rng.integers(2, 12, size=2) * size // 32
        hh, ww = rng.integers(8, 16, size=2) * size // 32
        gt[top : top + hh, left : left + ww] = label
    r0, c0 = rng.integers(10, 22, size=2) * size // 32
    ys, xs = np.mgrid[0:h, 0:w]
    gt[(ys - r0) ** 2 + (xs - c0) ** 2 <= 36 * size * size // 1024] = 3
    shaded = SCENE_COLORS[gt] + rng.normal(0.0, 3.0, (h, w, 3))
    img = np.clip(np.floor(shaded + 0.5), 0, 255).astype(np.uint8)
    z = np.eye(4, dtype=np.float64)[gt]
    if blur:
        size = 2 * blur + 1
        counts = ndimage.uniform_filter(
            np.ones((h, w)), size=size, mode="constant"
        )
        for l in range(4):
            z[..., l] = (
                ndimage.uniform_filter(z[..., l], size=size, mode="constant")
                / counts
            )
    if noise > 0.0:
        z = z + rng.normal(0.0, noise, z.shape)
    e = np.exp(z - z.max(axis=2, keepdims=True))
    p = e / e.sum(axis=2, keepdims=True)
    return unary_from_probs(p), RgbImage(img), LabelMap(gt)


class TestPairwiseParams:
    def test_defaults(self):
        p = PairwiseParams()
        assert (p.w1, p.sigma_alpha, p.sigma_beta) == (4.0, 60.0, 5.0)
        assert (p.w2, p.sigma_gamma) == (3.0, 3.0)

    def test_zero_weights_allowed(self):
        p = PairwiseParams(w1=0.0, w2=0.0)
        assert p.w1 == 0.0 and p.w2 == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PairwiseParams(w1=-1.0)

    @pytest.mark.parametrize("name", ["w1", "w2"])
    def test_weight_capped_at_max_weight(self, name):
        """MAX_WEIGHT itself is allowed; the next float above it is refused
        with a message naming the parameter."""
        assert getattr(PairwiseParams(**{name: MAX_WEIGHT}), name) == MAX_WEIGHT
        with pytest.raises(ValueError, match=f"^{name} must be in"):
            PairwiseParams(**{name: np.nextafter(MAX_WEIGHT, np.inf)})

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            PairwiseParams(sigma_alpha=0.0)
        with pytest.raises(ValueError):
            PairwiseParams(sigma_gamma=-2.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PairwiseParams(sigma_beta=float("nan"))


class TestUnaryField:
    def test_shape_and_props(self):
        u = UnaryField(np.zeros((4, 6, 3)))
        assert (u.height, u.width, u.labels) == (4, 6, 3)

    def test_two_dim_rejected(self):
        with pytest.raises(ShapeError):
            UnaryField(np.zeros((4, 6)))

    def test_single_label_rejected(self):
        with pytest.raises(ShapeError):
            UnaryField(np.zeros((4, 6, 1)))

    def test_nonfinite_rejected(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            UnaryField(t)


class TestContainerDtypes:
    """UnaryField and MeanFieldState keep a float32 array as it is and make
    any other input float64."""

    CONTAINERS = [(UnaryField, "theta"), (MeanFieldState, "q")]

    @pytest.mark.parametrize("make,field", CONTAINERS)
    def test_float32_shares_memory(self, make, field):
        values = np.full((3, 4, 2), 0.5, np.float32)
        got = getattr(make(values), field)
        assert got.dtype == np.float32
        assert np.shares_memory(got, values)

    @pytest.mark.parametrize("make,field", CONTAINERS)
    @pytest.mark.parametrize("values", [
        np.full((3, 4, 2), 0.5),
        np.eye(2, dtype=np.int64)[np.zeros((3, 4), np.int64)],
        [[[0.5, 0.5], [1.0, 0.0]]],
    ])
    def test_other_inputs_become_float64(self, make, field, values):
        got = getattr(make(values), field)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.asarray(values))

    def test_start_belief_is_float64_for_float32_costs(self):
        theta = np.random.default_rng(3).normal(scale=5.0, size=(4, 5, 3))
        wide = init_state(UnaryField(theta.astype(np.float32).astype(np.float64)))
        narrow = init_state(UnaryField(theta.astype(np.float32)))
        assert narrow.q.dtype == np.float64
        assert np.array_equal(narrow.q, wide.q)

    @pytest.mark.parametrize("backend,dtype", [("lattice", np.float32),
                                               ("exact", np.float64)])
    def test_inference_state_dtype_follows_backend(self, backend, dtype):
        rng = np.random.default_rng(4)
        unary = unary_from_probs(random_posterior(rng, 6, 7, 3))
        state, _ = run_inference(unary, random_image(rng, 6, 7), iters=2, backend=backend)
        assert state.q.dtype == dtype


class TestMeanFieldState:
    def test_rows_must_normalize(self):
        q = np.full((2, 2, 2), 0.4)
        with pytest.raises(ValueError):
            MeanFieldState(q)

    def test_negative_rejected(self):
        q = np.stack([np.full((2, 2), 1.2), np.full((2, 2), -0.2)], axis=2)
        with pytest.raises(ValueError):
            MeanFieldState(q)

    def test_nan_rejected(self):
        q = np.full((2, 2, 2), 0.5)
        q[1, 1] = np.nan
        with pytest.raises(ValueError):
            MeanFieldState(q)


class TestPosterior:
    def test_one_hot_costs(self):
        p = np.zeros((1, 1, 2))
        p[0, 0, 0] = 1.0
        u = unary_from_probs(p)
        assert u.theta[0, 0, 0] == 0.0
        assert u.theta[0, 0, 1] == pytest.approx(-math.log(1e-20), rel=1e-12)

    def test_uniform_costs(self):
        p = np.full((2, 3, 2), 0.5)
        assert np.allclose(unary_from_probs(p).theta, math.log(2.0), atol=1e-12)

    def test_skewed_costs(self):
        p = np.array([[[0.9, 0.1]]])
        u = unary_from_probs(p)
        assert u.theta[0, 0, 0] == pytest.approx(-math.log(0.9), rel=1e-12)
        assert u.theta[0, 0, 1] == pytest.approx(-math.log(0.1), rel=1e-12)

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValueError):
            unary_from_probs(np.full((1, 1, 2), 0.6))

    def test_negative_probs_rejected(self):
        p = np.array([[[1.2, -0.2]]])
        with pytest.raises(ValueError):
            unary_from_probs(p)

    def test_init_state_recovers_probs(self):
        rng = np.random.default_rng(7)
        p = random_posterior(rng, 5, 4, 3)
        state = init_state(unary_from_probs(p))
        np.testing.assert_allclose(state.q, p, atol=1e-6)

    def test_init_state_logistic_pair(self):
        # cost gap of 10 puts e^-10 of the mass on the expensive label
        u = UnaryField(np.array([[[0.0, 10.0]]]))
        state = init_state(u)
        denom = 1.0 + math.exp(-10.0)
        assert state.q[0, 0, 0] == pytest.approx(1.0 / denom, rel=1e-12)
        assert state.q[0, 0, 1] == pytest.approx(math.exp(-10.0) / denom, rel=1e-12)


class TestFilterCache:
    def test_matching_cache_accepted(self):
        rng = np.random.default_rng(0)
        image = random_image(rng, 4, 4)
        params = PairwiseParams()
        filters = PairwiseFilters(image, params, "exact")
        filters.require(image, params, "exact")
        copy = RgbImage(image.data.copy())
        filters.require(copy, params, "exact")

    def test_different_image_rejected(self):
        rng = np.random.default_rng(1)
        filters = PairwiseFilters(random_image(rng, 4, 4), PairwiseParams(), "exact")
        with pytest.raises(FilterCacheError):
            filters.require(random_image(rng, 4, 4), PairwiseParams(), "exact")

    def test_different_params_rejected(self):
        # the structures are built from the three kernel scales, so a change
        # in any of them is rejected
        rng = np.random.default_rng(2)
        image = random_image(rng, 4, 4)
        filters = PairwiseFilters(image, PairwiseParams(), "exact")
        for scale in ("sigma_alpha", "sigma_beta", "sigma_gamma"):
            with pytest.raises(FilterCacheError):
                filters.require(image, PairwiseParams(**{scale: 1.0}), "exact")

    @pytest.mark.parametrize("backend", ["exact", "lattice"])
    def test_weight_change_reuses_cache(self, backend):
        """w1 and w2 only scale the filtered messages, so filters built for
        one weight setting give the same inference as fresh ones."""
        rng = np.random.default_rng(5)
        image = random_image(rng, 6, 7)
        unary = unary_from_probs(random_posterior(rng, 6, 7, 3))
        filters = PairwiseFilters(image, PairwiseParams(w1=1.0, w2=0.5), backend)
        params = PairwiseParams(w1=5.0, w2=2.0)
        filters.require(image, params, backend)
        cached = fresh = init_state(unary)
        for _ in range(3):
            cached = mean_field_step(cached, unary, image, params, backend, filters=filters)
            fresh = mean_field_step(fresh, unary, image, params, backend)
        assert np.array_equal(cached.q, fresh.q)

    def test_inference_rejects_mismatched_filters(self):
        rng = np.random.default_rng(6)
        image = random_image(rng, 4, 4)
        unary = unary_from_probs(random_posterior(rng, 4, 4, 2))
        filters = PairwiseFilters(image, PairwiseParams(sigma_beta=2.0), "exact")
        with pytest.raises(FilterCacheError):
            mean_field_step(init_state(unary), unary, image, PairwiseParams(), "exact",
                            filters=filters)

    def test_exact_backend_capped_at_4096_pixels(self):
        rng = np.random.default_rng(7)
        PairwiseFilters(random_image(rng, 64, 64), PairwiseParams(), "exact")
        with pytest.raises(ValueError, match="--backend lattice"):
            PairwiseFilters(random_image(rng, 65, 64), PairwiseParams(), "exact")
        PairwiseFilters(random_image(rng, 65, 64), PairwiseParams(), "lattice")

    def test_spatial_cache_shared_only_where_it_applies(self):
        """The spatial kernel depends on the image size, sigma_gamma and
        backend alone: instances sharing a cache reuse it across images and
        other kernel scales, and build a new one when any of the three
        differs."""
        rng = np.random.default_rng(8)
        image = random_image(rng, 5, 6)
        cache = {}
        first = PairwiseFilters(image, PairwiseParams(), "lattice", spatial_cache=cache)
        other = RgbImage(image.data[::-1].copy())
        second = PairwiseFilters(other, PairwiseParams(sigma_alpha=20.0), "lattice",
                                 spatial_cache=cache)
        assert second.spatial is first.spatial
        for image_, params, backend in (
            (random_image(rng, 6, 5), PairwiseParams(), "lattice"),
            (image, PairwiseParams(sigma_gamma=1.0), "lattice"),
            (image, PairwiseParams(), "exact"),
        ):
            built = PairwiseFilters(image_, params, backend, spatial_cache=cache)
            assert built.spatial is not first.spatial
            fresh = PairwiseFilters(image_, params, backend)
            values = rng.random((image_.height * image_.width, 2))
            assert np.array_equal(built.filter_spatial(values), fresh.filter_spatial(values))
        assert len(cache) == 4

    def test_overflowing_features_refused_quietly(self):
        """Widths so small that features overflow fail FeaturePoints'
        finite check, with no overflow warning on the way."""
        image = RgbImage(np.full((2, 3, 3), 200, np.uint8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                bilateral_features(image, 1.0, 5e-324)
            with pytest.raises(ValueError, match="finite"):
                bilateral_features(image, 5e-324, 1.0)
            with pytest.raises(ValueError, match="finite"):
                spatial_features(2, 3, 5e-324)

    def test_lattice_refusal_comes_before_the_mass_pass(self, monkeypatch):
        calls = []

        def gain(feats, lattice_mass):
            calls.append(feats)
            return 1.0

        monkeypatch.setattr(densecrf, "sampled_mass_gain", gain)
        image = random_image(np.random.default_rng(3), 8, 8)
        with pytest.raises(ValueError, match="wider kernels"):
            PairwiseFilters(image, PairwiseParams(sigma_beta=1e-12), "lattice")
        assert calls == []
        PairwiseFilters(image, PairwiseParams(), "lattice")
        assert len(calls) == 1

    def test_lattice_never_filters_all_pairs(self, monkeypatch):
        """No pixel count switches the lattice backend to an all-pairs pass:
        at 64x64, the largest image the exact backend takes, a lattice run
        calibrates from samples alone."""
        def refuse(values, feats):
            raise AssertionError("all-pairs pass on the lattice backend")

        monkeypatch.setattr(densecrf, "gaussian_filter_exact", refuse)
        monkeypatch.setattr(hdfilter, "gaussian_filter_exact", refuse)
        rng = np.random.default_rng(8)
        assert 64 * 64 == EXACT_MASS_MAX_PIXELS
        unary = unary_from_probs(random_posterior(rng, 64, 64, 3))
        run_inference(unary, random_image(rng, 64, 64), iters=1, backend="lattice")

    def test_different_backend_rejected(self):
        rng = np.random.default_rng(3)
        image = random_image(rng, 4, 4)
        filters = PairwiseFilters(image, PairwiseParams(), "lattice")
        with pytest.raises(FilterCacheError):
            filters.require(image, PairwiseParams(), "exact")

    def test_build_timer_recorded(self):
        rng = np.random.default_rng(4)
        timer = {}
        unary = unary_from_probs(random_posterior(rng, 6, 6, 2))
        run_inference(unary, random_image(rng, 6, 6), iters=1, backend="lattice", timer=timer)
        assert timer["build"] > 0.0


class TestMeanFieldStep:
    def test_zero_weights_give_posterior(self):
        rng = np.random.default_rng(11)
        p = random_posterior(rng, 6, 5, 3)
        unary = unary_from_probs(p)
        image = random_image(rng, 6, 5)
        prev = MeanFieldState(random_posterior(rng, 6, 5, 3))
        params = PairwiseParams(w1=0.0, w2=0.0)
        nxt = mean_field_step(prev, unary, image, params, backend="exact")
        np.testing.assert_allclose(nxt.q, init_state(unary).q, atol=1e-12)

    @pytest.mark.parametrize("backend", ["exact", "lattice"])
    def test_single_pixel_fixed_point(self, backend):
        unary = unary_from_probs(np.array([[[0.3, 0.7]]]))
        image = RgbImage(np.array([[[10, 20, 30]]], dtype=np.uint8))
        state = init_state(unary)
        nxt = mean_field_step(state, unary, image, PairwiseParams(), backend=backend)
        np.testing.assert_allclose(nxt.q, state.q, atol=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h, w, labels = 8, 8, 3
        p = random_posterior(rng, h, w, labels)
        unary = unary_from_probs(p)
        image = random_image(rng, h, w)
        params = PairwiseParams(w1=2.0, sigma_alpha=5.0, sigma_beta=10.0,
                                w2=1.0, sigma_gamma=2.0)
        state = init_state(unary)
        nxt = mean_field_step(state, unary, image, params, backend="exact")
        want = meanfield_step_bruteforce(state.q, unary.theta, image.data, params)
        assert np.abs(nxt.q - want).max() <= 1e-6

    @pytest.mark.parametrize("backend", ["exact", "lattice"])
    def test_closed_form_matches_total_minus_own(self, backend):
        """The update drops the label-independent total from the Potts
        penalty; an explicit per-label total-minus-own update agrees."""
        rng = np.random.default_rng(17)
        h, w, labels = 9, 11, 4
        unary = unary_from_probs(random_posterior(rng, h, w, labels))
        image = random_image(rng, h, w)
        params = PairwiseParams(w1=3.0, sigma_alpha=6.0, sigma_beta=20.0,
                                w2=2.0, sigma_gamma=2.0)
        state = MeanFieldState(random_posterior(rng, h, w, labels))
        filters = PairwiseFilters(image, params, backend)
        dtype = np.float64 if backend == "exact" else np.float32
        q = state.q.reshape(-1, labels).astype(dtype)
        want = meanfield_update_total_minus_own(
            q, unary.theta.reshape(-1, labels).astype(dtype),
            filters.filter_bilateral(q), filters.filter_spatial(q),
            params.w1, params.w2,
        )
        got = mean_field_step(state, unary, image, params, backend, filters=filters)
        tol = 1e-12 if backend == "exact" else 2e-6
        assert np.abs(got.q.reshape(-1, labels) - want).max() <= tol

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("backend,size", [("exact", 24), ("lattice", 24),
                                              ("lattice", 72)])
    def test_iterated_steps_reproduce_inference(self, backend, size, threads):
        """A caller iterating mean_field_step from init_state replays
        run_inference bit for bit, in the same dtype. 72x72 is above
        EXACT_MASS_MAX_PIXELS, the exact backend's cap."""
        rng = np.random.default_rng(size)
        unary = unary_from_probs(random_posterior(rng, size, size, 5))
        image = random_image(rng, size, size)
        params = PairwiseParams(sigma_alpha=10.0, sigma_beta=40.0)
        want_state, want_labels = run_inference(unary, image, params, iters=4,
                                                backend=backend)
        filters = PairwiseFilters(image, params, backend)
        state = init_state(unary)
        for _ in range(4):
            state = mean_field_step(state, unary, image, params, backend,
                                    filters=filters, threads=threads)
        assert np.array_equal(labels_from_state(state).labels, want_labels.labels)
        assert state.q.dtype == want_state.q.dtype
        assert np.array_equal(state.q, want_state.q)

    def test_rows_stay_normalized(self):
        rng = np.random.default_rng(21)
        unary = unary_from_probs(random_posterior(rng, 7, 7, 4))
        image = random_image(rng, 7, 7)
        state = init_state(unary)
        for _ in range(3):
            state = mean_field_step(state, unary, image, PairwiseParams(),
                                    backend="exact")
            np.testing.assert_allclose(state.q.sum(axis=2), 1.0, atol=1e-9)

    def test_cost_shift_invariance(self):
        # adding a constant to one pixel's costs cannot change any belief
        rng = np.random.default_rng(31)
        p = random_posterior(rng, 5, 5, 3)
        image = random_image(rng, 5, 5)
        base = unary_from_probs(p)
        shifted = np.array(base.theta)
        shifted[2, 3, :] += 17.5
        state = MeanFieldState(random_posterior(rng, 5, 5, 3))
        params = PairwiseParams(w1=1.0, sigma_alpha=10.0, w2=1.0)
        a = mean_field_step(state, base, image, params, backend="exact")
        b = mean_field_step(state, UnaryField(shifted), image, params,
                            backend="exact")
        np.testing.assert_allclose(a.q, b.q, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(41)
        unary = unary_from_probs(random_posterior(rng, 4, 4, 2))
        state = init_state(unary)
        with pytest.raises(ShapeError):
            mean_field_step(state, unary, random_image(rng, 4, 5),
                            PairwiseParams(), backend="exact")

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(51)
        unary = unary_from_probs(random_posterior(rng, 4, 4, 2))
        state = init_state(unary)
        image = random_image(rng, 4, 4)
        filters = PairwiseFilters(image, PairwiseParams(), "exact")
        with pytest.raises(FilterCacheError):
            mean_field_step(state, unary, random_image(rng, 4, 4),
                            PairwiseParams(), backend="exact", filters=filters)

    def test_backends_agree_per_step(self):
        # float32 lattice vs float64 exact after one update, gentle coupling
        unary, image, _ = scene32(0, blur=0, noise=0.5)
        params = PairwiseParams(w1=0.3, sigma_alpha=30.0, sigma_beta=8.0,
                                w2=0.3, sigma_gamma=1.5)
        state = init_state(unary)
        a = mean_field_step(state, unary, image, params, backend="exact")
        b = mean_field_step(state, unary, image, params, backend="lattice")
        assert np.abs(a.q - b.q).max() <= 5e-2

    def test_thread_count_does_not_change_result(self):
        rng = np.random.default_rng(61)
        unary = unary_from_probs(random_posterior(rng, 9, 7, 3))
        image = random_image(rng, 9, 7)
        state = init_state(unary)
        one = mean_field_step(state, unary, image, PairwiseParams(),
                              backend="exact", threads=1)
        four = mean_field_step(state, unary, image, PairwiseParams(),
                               backend="exact", threads=4)
        assert np.array_equal(one.q, four.q)


class TestConvergenceBehavior:
    def test_entropy_decreases_on_blob(self):
        # gentle coupling keeps the belief off the one-hot floor, so the
        # entropy trace stays strictly ordered through every step
        rng = np.random.default_rng(42)
        h = w = 16
        ys, xs = np.mgrid[0:h, 0:w]
        disk = (ys - 8) ** 2 + (xs - 8) ** 2 <= 25
        img = np.full((h, w, 3), 50, np.uint8)
        img[disk] = [210, 80, 80]
        z = np.eye(2)[disk.astype(int)] * 0.5 + rng.normal(0.0, 0.8, (h, w, 2))
        e = np.exp(z - z.max(axis=2, keepdims=True))
        unary = unary_from_probs(e / e.sum(axis=2, keepdims=True))
        image = RgbImage(img)
        params = PairwiseParams(w1=0.02, sigma_alpha=20.0, sigma_beta=15.0,
                                w2=0.02, sigma_gamma=2.0)
        state = init_state(unary)
        filters = PairwiseFilters(image, params, "exact")

        def entropy(q):
            return float(-(q * np.log(np.maximum(q, 1e-300))).sum())

        trace = [entropy(state.q)]
        for _ in range(5):
            state = mean_field_step(state, unary, image, params,
                                    backend="exact", filters=filters)
            trace.append(entropy(state.q))
        assert all(a > b for a, b in zip(trace, trace[1:]))
        assert trace[-1] > 1.0

    def test_two_pixel_smoothing_is_monotone(self):
        # agreement mass sum_l q0(l) q1(l) grows with the spatial weight;
        # stronger coupling than w2=2 tips the synchronous update into the
        # swap oscillation, so the range stops there
        image = RgbImage(np.full((1, 2, 3), 100, np.uint8))
        unary = unary_from_probs(np.array([[[0.7, 0.3], [0.3, 0.7]]]))
        prev = init_state(unary)
        masses = []
        for w2 in (0.0, 0.5, 1.0, 2.0):
            params = PairwiseParams(w1=0.0, w2=w2, sigma_gamma=3.0)
            nxt = mean_field_step(prev, unary, image, params, backend="exact")
            masses.append(float((nxt.q[0, 0] * nxt.q[0, 1]).sum()))
        assert masses[0] == pytest.approx(0.42, abs=1e-9)
        assert all(a < b for a, b in zip(masses, masses[1:]))

    def test_backends_agree_on_labels(self):
        for seed in (0, 1):
            unary, image, _ = scene32(seed, blur=2, noise=0.8)
            _, exact = run_inference(unary, image, backend="exact")
            _, approx = run_inference(unary, image, backend="lattice")
            agree = float(np.mean(exact.labels == approx.labels))
            assert agree >= 0.99

    @pytest.mark.parametrize("size", [64, 65])
    def test_lattice_agrees_with_all_pairs_across_exact_mass_limit(self, size):
        """64x64 is the largest image the exact backend accepts and 65x65
        the smallest past EXACT_MASS_MAX_PIXELS, which it refuses, so the
        reference filters all pairs itself."""
        assert (size * size <= EXACT_MASS_MAX_PIXELS) == (size == 64)
        unary, image, _ = scene32(0, blur=2, noise=0.8, size=size)
        params = PairwiseParams()
        want = meanfield_labels_all_pairs(unary.theta, image, params, iters=5)
        _, got = run_inference(unary, image, params, iters=5, backend="lattice")
        assert float(np.mean(got.labels == want)) >= 0.99

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("size", [64, 65])
    def test_noisy_scenes_agree_with_all_pairs_on_both_sides_of_exact_cap(self, size, seed):
        """Quadrant scenes with colour noise 30, on either side of the
        exact backend's 4096-pixel cap, get one calibration rule. The worst
        agreement measured over these six was 0.9827 (64x64, seed 2); under
        per-point masses up to 4096 pixels and no bilateral gain above, it
        was 0.9688 (65x65, seed 2), which the bar of 0.975 excludes."""
        unary, image, _ = quadrant_case(size, size, seed, jitter=30.0)
        params = PairwiseParams()
        want = meanfield_labels_all_pairs(unary.theta, image, params, iters=10)
        _, got = run_inference(unary, image, params, iters=10, backend="lattice")
        assert float(np.mean(got.labels == want)) >= 0.975

    @pytest.mark.parametrize("family,seed,bar", [
        ("bench", 1, 0.995), ("jitter30", 1, 0.99), ("jitter30", 2, 0.99),
    ])
    def test_labels_agree_with_all_pairs_past_the_sampled_columns(self, family, seed, bar):
        """At 72x80 (5,760 pixels) the bilateral gain samples
        GAIN_SAMPLE_COLUMNS of the columns, as on every real image. Over
        seeds 100-109, 5 updates, the worst agreement with the all-pairs
        float64 mean field was 0.9977 on bench scenes and 0.9938 on jitter-30
        quadrant scenes; the bars sit below those, and these seeds were not
        among them."""
        assert 72 * 80 > hdfilter.GAIN_SAMPLE_COLUMNS
        if family == "bench":
            unary, image, _ = make_instance(bench_scene(72, 80, 21, seed), num_labels=21)
        else:
            unary, image, _ = quadrant_case(72, 80, seed, jitter=30.0)
        params = PairwiseParams()
        want = meanfield_labels_all_pairs(unary.theta, image, params, iters=5)
        _, got = run_inference(unary, image, params, iters=5, backend="lattice")
        assert float(np.mean(got.labels == want)) >= bar

    @pytest.mark.parametrize("seed", [0, 1])
    def test_colour_outliers_do_not_cycle(self, seed):
        """Parallel updates on criterion 11's scene family settle: labels
        after updates 19 and 20 are equal. Without a bilateral gain above
        4096 pixels, 3 (seed 0) and 6 (seed 1) colour-outlier pixels swung
        between two labels at every update."""
        unary, image, _ = make_instance(bench_scene(500, 375, 21, seed), num_labels=21)
        params = PairwiseParams()
        filters = PairwiseFilters(image, params, "lattice")
        state = MeanFieldState(next(_infer(unary, image, [params], 19, "lattice", filters, None)))
        after = mean_field_step(state, unary, image, params, "lattice", filters=filters)
        assert np.array_equal(labels_from_state(after).labels, labels_from_state(state).labels)


class TestLabelsAndInference:
    def test_argmax_tie_goes_to_lowest(self):
        q = np.array([[[0.5, 0.5], [0.25, 0.75]]])
        out = labels_from_state(MeanFieldState(q))
        assert out.labels.dtype == np.uint8
        assert out.labels.tolist() == [[0, 1]]

    def test_too_many_labels_rejected(self):
        """A 256th label would take id 255, the ignore label."""
        q = np.full((1, 1, 256), 1.0 / 256.0)
        with pytest.raises(ShapeError, match="255 is the ignore label"):
            labels_from_state(MeanFieldState(q))

    def test_255_labels_accepted(self):
        q = np.full((1, 2, 255), 0.5 / 254)
        q[..., -1] = 0.5
        assert labels_from_state(MeanFieldState(q)).labels.tolist() == [[254, 254]]

    def test_zero_iterations_returns_unary_argmax(self):
        rng = np.random.default_rng(5)
        p = random_posterior(rng, 6, 6, 4)
        unary = unary_from_probs(p)
        state, labels = run_inference(unary, random_image(rng, 6, 6), iters=0)
        assert np.array_equal(labels.labels, np.argmin(unary.theta, axis=2))
        np.testing.assert_allclose(state.q, p, atol=1e-6)

    def test_negative_iterations_rejected(self):
        rng = np.random.default_rng(6)
        unary = unary_from_probs(random_posterior(rng, 2, 2, 2))
        with pytest.raises(ValueError):
            run_inference(unary, random_image(rng, 2, 2), iters=-1)

    def test_unknown_backend_rejected(self):
        rng = np.random.default_rng(7)
        unary = unary_from_probs(random_posterior(rng, 2, 2, 2))
        with pytest.raises(ValueError):
            run_inference(unary, random_image(rng, 2, 2), backend="gpu")

    def test_zero_weights_keep_unary_argmax(self):
        rng = np.random.default_rng(8)
        unary = unary_from_probs(random_posterior(rng, 6, 6, 3))
        params = PairwiseParams(w1=0.0, w2=0.0)
        _, labels = run_inference(unary, random_image(rng, 6, 6), params, iters=5)
        assert np.array_equal(labels.labels, np.argmin(unary.theta, axis=2))

    def test_lattice_timer_stages(self):
        unary, image, _ = scene32(3, noise=0.5)
        timer = {}
        run_inference(unary, image, iters=2, backend="lattice", timer=timer)
        assert {"build", "splat", "blur", "slice", "update"} <= set(timer)
        assert all(v > 0.0 for v in timer.values())

    def test_refinement_beats_raw_argmax_on_scene(self):
        unary, image, gt = scene32(9, blur=2, noise=0.8)
        _, raw = run_inference(unary, image, iters=0)
        _, refined = run_inference(unary, image, backend="exact")
        before = mean_iou(confusion(raw, gt, 4))
        after = mean_iou(confusion(refined, gt, 4))
        assert after > before


class TestEnergy:
    def test_agreeing_labels_cost_unary_only(self):
        rng = np.random.default_rng(12)
        theta = rng.normal(size=(4, 5, 3))
        unary = UnaryField(theta)
        image = random_image(rng, 4, 5)
        labels = LabelMap(np.full((4, 5), 2, np.uint8))
        got = energy(labels, unary, image, PairwiseParams())
        assert got == pytest.approx(float(theta[:, :, 2].sum()), rel=1e-12)

    def test_float32_costs_sum_in_float64(self):
        rng = np.random.default_rng(13)
        theta = rng.normal(scale=1e3, size=(6, 7, 3)).astype(np.float32)
        image = random_image(rng, 6, 7)
        labels = LabelMap(rng.integers(0, 3, (6, 7)).astype(np.uint8))
        want = energy(labels, UnaryField(theta.astype(np.float64)), image, PairwiseParams())
        assert energy(labels, UnaryField(theta), image, PairwiseParams()) == want

    def test_single_pixel_energy(self):
        unary = UnaryField(np.array([[[1.5, -0.5]]]))
        image = RgbImage(np.zeros((1, 1, 3), np.uint8))
        labels = LabelMap(np.array([[1]], dtype=np.uint8))
        assert energy(labels, unary, image, PairwiseParams()) == pytest.approx(-0.5)

    def test_two_pixel_disagreement_at_huge_scales(self):
        # with both kernels effectively flat, the pair contributes w1 + w2
        unary = UnaryField(np.zeros((1, 2, 2)))
        image = RgbImage(np.array([[[0, 0, 0], [255, 255, 255]]], np.uint8))
        labels = LabelMap(np.array([[0, 1]], dtype=np.uint8))
        params = PairwiseParams(w1=1.5, sigma_alpha=1e12, sigma_beta=1e12,
                                w2=0.25, sigma_gamma=1e12)
        assert energy(labels, unary, image, params) == pytest.approx(1.75, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h, w, nl = 8, 8, 3
        theta = rng.normal(size=(h, w, nl))
        unary = UnaryField(theta)
        image = random_image(rng, h, w)
        labels = LabelMap(rng.integers(0, nl, (h, w)).astype(np.uint8))
        params = PairwiseParams(w1=2.0, sigma_alpha=8.0, sigma_beta=13.0,
                                w2=1.0, sigma_gamma=3.0)
        got = energy(labels, unary, image, params)
        want = energy_bruteforce(labels.labels, theta, image.data, params)
        assert got == pytest.approx(want, rel=1e-9)

    def test_out_of_range_label_rejected(self):
        unary = UnaryField(np.zeros((2, 2, 2)))
        image = RgbImage(np.zeros((2, 2, 3), np.uint8))
        labels = LabelMap(np.full((2, 2), 2, np.uint8))
        with pytest.raises(ValueError):
            energy(labels, unary, image, PairwiseParams())

    def test_shape_mismatch_rejected(self):
        unary = UnaryField(np.zeros((2, 2, 2)))
        image = RgbImage(np.zeros((2, 2, 3), np.uint8))
        labels = LabelMap(np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(ShapeError):
            energy(labels, unary, image, PairwiseParams())


def split_case(flip_seed, noise=1.2):
    """Two-color vertical split with a noisy posterior, for search tests."""
    rng = np.random.default_rng(flip_seed)
    gt = np.zeros((16, 16), np.uint8)
    gt[:, 8:] = 1
    img = np.zeros((16, 16, 3), np.uint8)
    img[:, :8] = [200, 50, 50]
    img[:, 8:] = [50, 50, 200]
    z = np.eye(2)[gt] + rng.normal(0.0, noise, (16, 16, 2))
    e = np.exp(z - z.max(axis=2, keepdims=True))
    unary = unary_from_probs(e / e.sum(axis=2, keepdims=True))
    return unary, RgbImage(img), LabelMap(gt)


def cropped_case(flip_seed, noise=1.2):
    """A split case cropped to 16x12, so cases differ in size."""
    unary, image, gt = split_case(flip_seed, noise)
    return (UnaryField(unary.theta[:, 2:14]), RgbImage(image.data[:, 2:14]),
            LabelMap(gt.labels[:, 2:14]))


def grid_search_per_point(cases, ranges, iters, backend, report):
    """The search with a fresh run_inference, and so fresh filters, for
    every (point, case) pair: the reference the shared-filter search must
    reproduce bit for bit."""
    cache = {}

    def score(point):
        if point not in cache:
            params = PairwiseParams(w1=point[0], sigma_alpha=point[1], sigma_beta=point[2])
            total = 0.0
            for unary, image, gt in cases:
                _, pred = run_inference(unary, image, params, iters=iters, backend=backend)
                total += mean_iou(confusion(pred, gt, unary.labels))
            cache[point] = total / len(cases)
        return cache[point]

    def scan(stage, points, best_point=None, best_score=-np.inf):
        for point in points:
            value = score(point)
            params = PairwiseParams(w1=point[0], sigma_alpha=point[1], sigma_beta=point[2])
            report.append(GridPoint(stage, params, value))
            if value > best_score:
                best_point, best_score = point, value
        return best_point

    coarse = [(a, b, c) for a in ranges.w1 for b in ranges.sigma_alpha
              for c in ranges.sigma_beta]
    winner = scan("coarse", coarse)
    refined = sorted(
        {
            (a, b, c)
            for a in _refine_axis(ranges.w1, winner[0])
            for b in _refine_axis(ranges.sigma_alpha, winner[1])
            for c in _refine_axis(ranges.sigma_beta, winner[2])
            if 0 <= a <= MAX_WEIGHT and b > 0 and c > 0
        }
    )
    final = scan("refine", refined, best_point=winner, best_score=score(winner))
    return PairwiseParams(w1=final[0], sigma_alpha=final[1], sigma_beta=final[2])


# Weak, short-range kernels on very noisy cases, so that scores differ
# from point to point and the order of the per-case sums shows.
SHARED_RANGES = SearchRanges(w1=(0.25, 0.5), sigma_alpha=(2.0, 4.0),
                             sigma_beta=(3.0, 4.0))


class TestGridSearch:
    @pytest.mark.parametrize("iters", [1, 2])
    @pytest.mark.parametrize("backend", ["exact", "lattice"])
    def test_shared_filters_match_per_point_search(self, backend, iters):
        """Four threads, more than the cores, switching often, score the
        units out of order while sharing the spatial lattices; the totals
        still add in manifest order, as the serial per-point reference does."""
        cases = [split_case(1, 3.0), cropped_case(2, 3.0), split_case(4, 3.0)]
        want_report = []
        want = grid_search_per_point(cases, SHARED_RANGES, iters, backend, want_report)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got, got_report = grid_search(cases, ranges=SHARED_RANGES, iters=iters,
                                          backend=backend, threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert got == want
        assert got_report == want_report
        assert {p.stage for p in got_report} == {"coarse", "refine"}
        assert len({p.score for p in got_report}) > 10

    def test_refine_stage_stays_within_weight_cap(self, monkeypatch):
        """When the coarse w1 axis ends at MAX_WEIGHT and that end wins, the
        refine stage drops its candidates above the cap instead of failing
        on them."""
        def infer(unary, image, batch, iters, backend, filters, timer, q=None):
            for p in batch:  # all label 1 at the cap, all label 0 below it
                belief = np.zeros(unary.theta.shape)
                belief[..., int(p.w1 == MAX_WEIGHT)] = 1.0
                yield belief

        monkeypatch.setattr(densecrf, "_infer", infer)
        rng = np.random.default_rng(5)
        case = (unary_from_probs(random_posterior(rng, 4, 5, 2)), random_image(rng, 4, 5),
                LabelMap(np.ones((4, 5), np.uint8)))
        ranges = SearchRanges(w1=(3.0, MAX_WEIGHT), sigma_alpha=(30.0,), sigma_beta=(4.0,))
        best, report = grid_search([case], ranges=ranges, iters=1)
        assert best.w1 == MAX_WEIGHT
        refined = [p.params.w1 for p in report if p.stage == "refine"]
        assert refined and max(refined) == MAX_WEIGHT

    def test_filters_built_once_per_case_and_sigma_pair(self, monkeypatch):
        built = []
        lattice_dims = []

        class CountingFilters(PairwiseFilters):
            def __init__(self, image, params, *args, **kwargs):
                built.append((params.sigma_alpha, params.sigma_beta))
                super().__init__(image, params, *args, **kwargs)

        class CountingLattice(densecrf.PermutohedralLattice):
            def __init__(self, feats, *args):
                lattice_dims.append(feats.d)
                super().__init__(feats, *args)

        monkeypatch.setattr(densecrf, "PairwiseFilters", CountingFilters)
        monkeypatch.setattr(densecrf, "PermutohedralLattice", CountingLattice)
        cases = [split_case(1), cropped_case(2), split_case(3)]
        _, report = grid_search(cases, ranges=SHARED_RANGES, iters=2, backend="lattice")
        points = {
            stage: {(p.params.w1, p.params.sigma_alpha, p.params.sigma_beta)
                    for p in report if p.stage == stage}
            for stage in ("coarse", "refine")
        }
        unscored = {"coarse": points["coarse"],
                    "refine": points["refine"] - points["coarse"]}
        sigma_pairs = sum(len({p[1:] for p in pts}) for pts in unscored.values())
        assert len(built) == sigma_pairs * len(cases)
        assert len(built) < sum(len(pts) for pts in unscored.values()) * len(cases)
        # bilateral lattices per case and sigma pair; the spatial lattice
        # once per image size (16x16 and 16x12) for the whole search
        assert lattice_dims.count(5) == len(built)
        assert lattice_dims.count(2) == 2

    def test_failing_unit_drops_queued_units_and_joins(self, monkeypatch):
        """The first unit in scan order fails while later ones are slow: the
        queued units never start and no worker thread outlives the call."""
        started = []

        class SlowFilters(PairwiseFilters):
            def __init__(self, image, params, *args, **kwargs):
                started.append(params.sigma_alpha)
                if params.sigma_alpha == 30.0:
                    raise ValueError("first unit fails")
                time.sleep(0.5)
                super().__init__(image, params, *args, **kwargs)

        monkeypatch.setattr(densecrf, "PairwiseFilters", SlowFilters)
        ranges = SearchRanges(w1=(3.0,), sigma_beta=(4.0,))  # 8 sigma_alpha units
        before = threading.active_count()
        with pytest.raises(ValueError, match="first unit fails"):
            grid_search([split_case(1)], ranges=ranges, iters=1, backend="lattice", threads=2)
        assert threading.active_count() == before
        assert 30.0 in started and len(started) <= 4

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_failing_unit_in_scan_order_raises(self, threads):
        """Both cases' images disagree with their unaries; the first case's
        error wins although its unit runs longer than the second's."""
        big, small = quadrant_case(96, 128, 1), split_case(2)
        cases = [(big[0], RgbImage(big[1].data[:, :-1]), big[2]),
                 (small[0], RgbImage(small[1].data[:-1]), small[2])]
        ranges = SearchRanges(w1=(3.0,), sigma_alpha=(30.0,), sigma_beta=(4.0,))
        with pytest.raises(ShapeError, match="image 96x127 does not match unary 96x128"):
            grid_search(cases, ranges=ranges, iters=1, backend="lattice", threads=threads)

    def test_empty_cases_rejected(self):
        with pytest.raises(ValueError):
            grid_search([])

    @pytest.mark.parametrize("threads", [0, -2])
    def test_thread_count_below_one_rejected_before_the_pool(self, monkeypatch, threads):
        """The pool's own "max_workers must be greater than 0" never shows:
        the count is checked before any lattice is built or pool started."""
        def refuse(*args, **kwargs):
            raise AssertionError("no work may start")

        monkeypatch.setattr(densecrf, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(densecrf, "_spatial_structure", refuse)
        with pytest.raises(ValueError, match=f"^threads must be at least 1, got {threads}$"):
            grid_search([split_case(1)], iters=1, threads=threads)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            SearchRanges(w1=())
        with pytest.raises(ValueError):
            SearchRanges(sigma_alpha=(40.0, 30.0))

    def test_single_point_ranges_echoed(self):
        ranges = SearchRanges(w1=(2.0,), sigma_alpha=(50.0,), sigma_beta=(4.0,))
        best, report = grid_search([split_case(0)], ranges=ranges, iters=2, backend="exact")
        assert (best.w1, best.sigma_alpha, best.sigma_beta) == (2.0, 50.0, 4.0)
        assert [p.stage for p in report] == ["coarse", "refine"]

    def test_perfect_unary_tie_break(self):
        # every candidate keeps the already-perfect labels, so the winner is
        # the lexicographically smallest coarse point and refinement keeps it
        gt = np.zeros((8, 8), np.uint8)
        gt[:, 4:] = 1
        img = np.zeros((8, 8, 3), np.uint8)
        img[:, :4] = [200, 50, 50]
        img[:, 4:] = [50, 50, 200]
        p = np.full((8, 8, 2), 0.001)
        p[gt == 0, 0] = 0.999
        p[gt == 1, 1] = 0.999
        case = (unary_from_probs(p), RgbImage(img), LabelMap(gt))
        best, report = grid_search([case], iters=5, backend="exact")
        assert (best.w1, best.sigma_alpha, best.sigma_beta) == (3.0, 30.0, 3.0)
        assert sum(p.stage == "coarse" for p in report) == 128
        assert all(p.score == 1.0 for p in report)

    def test_refine_never_below_coarse(self):
        cases = [split_case(s) for s in (1, 2)]
        ranges = SearchRanges(w1=(1.0, 2.0), sigma_alpha=(30.0, 40.0),
                              sigma_beta=(3.0, 4.0))
        best, report = grid_search(cases, ranges=ranges, iters=3, backend="lattice")
        coarse = [p.score for p in report if p.stage == "coarse"]
        by_point = {
            (p.params.w1, p.params.sigma_alpha, p.params.sigma_beta): p.score
            for p in report
        }
        final = by_point[(best.w1, best.sigma_alpha, best.sigma_beta)]
        assert final >= max(coarse)

    def test_fixed_params_stay_fixed(self):
        ranges = SearchRanges(w1=(1.0,), sigma_alpha=(40.0,), sigma_beta=(4.0,))
        best, report = grid_search([split_case(3)], ranges=ranges, iters=1, backend="exact")
        assert best.w2 == 3.0 and best.sigma_gamma == 3.0
        assert all(p.params.w2 == 3.0 for p in report)


PALETTE = ((205, 60, 55), (65, 70, 210), (60, 170, 75), (225, 200, 60),
           (160, 70, 190), (60, 190, 200))


def quadrant_case(height, width, seed, labels=5, jitter=6.0):
    """Four tiles in fixed colours and two disks, each with colour noise of
    `jitter`, and blurred, noisy unaries."""
    rng = np.random.default_rng(seed)
    row, col = height // 2, width // 2
    tiles = ((0, 0, row, col), (0, col, row, width - col),
             (row, 0, height - row, col), (row, col, height - row, width - col))
    shapes = [Rect(label=int(lab), top=t, left=l, height=h, width=w, color=PALETTE[k],
                   jitter=jitter)
              for k, (lab, (t, l, h, w)) in enumerate(zip(rng.permutation(4) + 1, tiles))]
    radius = min(height, width) // 6
    for k in (4, 5):
        shapes.append(Disk(label=int(rng.integers(1, 5)),
                           row=int(rng.integers(radius, height - radius)),
                           col=int(rng.integers(radius, width - radius)),
                           radius=float(radius), color=PALETTE[k], jitter=jitter))
    spec = SceneSpec(height=height, width=width, shapes=tuple(shapes),
                     background=(30, 30, 30), blur=2, noise_sigma=2.0, seed=seed)
    return make_instance(spec, num_labels=labels)


class TestBilateralRowMasses:
    """Exact bilateral masses, and the lattice's scalar bilateral gain: the
    median over fixed-stride rows of exact mass / lattice mass."""

    def test_far_points_keep_only_their_self_mass(self):
        feats = FeaturePoints(np.array([[0.0] * 5, [60.0] * 5, [-60.0] * 5]))
        np.testing.assert_allclose(gaussian_filter_exact(np.ones(3), feats), 1.0, rtol=1e-12)

    def test_constant_colour_far_from_origin_does_not_cancel(self):
        """Colours of 128 / 1e-7 put every point about 1e9 from the origin;
        the position distances must survive next to them."""
        image = RgbImage(np.full((12, 12, 3), 128, np.uint8))
        feats = bilateral_features(image, 2.0, 1e-7)
        want = gaussian_filter_bruteforce(np.ones(feats.n), feats.coords)
        got = gaussian_filter_exact(np.ones(feats.n), feats)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_lattice_gain_exact_on_two_colour_image(self):
        """Colours 0 and 255 over sigma_beta = 1e-7 sit at 0 and 2.55e9. A
        12x12 image samples every row and column, so the gain is the median
        of brute-force mass / lattice mass, to float32 rounding."""
        pixels = np.zeros((12, 12, 3), np.uint8)
        pixels[:, 6:] = 255
        image = RgbImage(pixels)
        feats = bilateral_features(image, 2.0, 1e-7)
        lattice_mass = PermutohedralLattice(feats).filter(np.ones(feats.n, np.float32))
        tiny = np.finfo(np.float32).tiny
        want = np.median(gaussian_filter_bruteforce(np.ones(feats.n), feats.coords)
                         / np.maximum(lattice_mass.astype(np.float64), tiny))
        params = PairwiseParams(sigma_alpha=2.0, sigma_beta=1e-7)
        got = PairwiseFilters(image, params, "lattice").bilateral.gain
        assert got.shape == ()
        assert abs(got / want - 1.0) <= np.finfo(np.float32).eps

    @pytest.mark.parametrize("sigmas", [(80.0, 4.0), (120.0, 4.0), (30.0, 3.0), (100.0, 6.0)])
    def test_lattice_gain_unchanged_on_quadrant_scene(self, sigmas):
        """At 48x64 every column is sampled, so the gain is the median over
        the fixed-stride rows of gaussian_filter_exact mass / lattice mass,
        to float32 rounding."""
        _, image, _ = quadrant_case(48, 64, seed=7)
        params = PairwiseParams(sigma_alpha=sigmas[0], sigma_beta=sigmas[1])
        feats = bilateral_features(image, *sigmas)
        lattice_mass = PermutohedralLattice(feats).filter(np.ones(feats.n, np.float32))
        rows = _stride_sample(feats.n, GAIN_SAMPLE_ROWS)
        want = np.median(gaussian_filter_exact(np.ones(feats.n), feats)[rows]
                         / lattice_mass[rows].astype(np.float64))
        got = PairwiseFilters(image, params, "lattice").bilateral.gain
        assert abs(got / want - 1.0) <= np.finfo(np.float32).eps


class TestSpatialRowMasses:
    @pytest.mark.parametrize("sigma_gamma", [1e-3, 0.5, 3.0, 40.0, 1e6])
    def test_blocks_match_the_full_matrix(self, sigma_gamma):
        """Summed in strips of rows, each mass is bit-identical to the whole
        difference matrix's row sum, on sides within one strip and, at 700
        (57 rows a strip), across several; at sigma_gamma 1e-3 every
        off-diagonal entry is 0, at 1e6 every entry is near 1."""
        assert hdfilter._chunk_rows(700) == 57
        for height, width in ((1, 1), (5, 63), (64, 65), (129, 2), (3, 200), (1, 700)):
            want = spatial_row_masses_full_matrix(height, width, sigma_gamma)
            assert np.array_equal(_spatial_row_masses(height, width, sigma_gamma), want)

    def test_scratch_grows_with_the_side_not_its_square(self):
        """A 1x4000 image: the whole-matrix sum traced 384 MB."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            _spatial_row_masses(1, 4000, 3.0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestCalibratedSlice:
    @pytest.mark.parametrize("side", [64, 65])
    def test_all_ones_give_true_masses(self, side):
        """A calibrated lattice filters all-ones values to the true kernel
        masses within float32 rounding on the spatial kernel, and on the
        bilateral one to masses whose median ratio to the true ones at the
        sampled rows is 1. Spatial: the worst measured was 3.4e-7 relative
        on four random images; the bound is 8 float32 eps (9.5e-7).
        Bilateral: the worst median measured was 6.4e-7 off on four random
        images per size; the bound is 2e-6."""
        image = random_image(np.random.default_rng(side), side, side)
        params = PairwiseParams()
        filters = PairwiseFilters(image, params, "lattice")
        n = side * side
        ones = np.ones((n, 1), np.float32)
        spatial = filters.filter_spatial(ones)[:, 0].astype(np.float64)
        true_spatial = _spatial_row_masses(side, side, params.sigma_gamma)
        assert np.abs(spatial / true_spatial - 1.0).max() <= 8 * np.finfo(np.float32).eps
        feats = bilateral_features(image, params.sigma_alpha, params.sigma_beta)
        rows = _stride_sample(n, GAIN_SAMPLE_ROWS)
        bilateral = filters.filter_bilateral(ones)[rows, 0].astype(np.float64)
        ratio = bilateral / gaussian_filter_exact(np.ones(n), feats)[rows]
        assert abs(np.median(ratio) - 1.0) <= 2e-6


    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_rows_match_exact_at_voc_size(self, seed):
        """At 504x376 the calibrated lattice rows of random beliefs stay near
        their exact all-column filter on 64 fixed-stride rows, and the
        sampled bilateral gain near its all-column median. Worst measured on
        bench scenes seeds 0-3, error over the row's exact mass: bilateral
        0.0153 (bound 0.025), spatial 0.0015 (bound 0.003); gain 0.55% off
        the all-column median (bound 1%)."""
        unary, image, _ = make_instance(bench_scene(504, 376, 21, seed), num_labels=21)
        params = PairwiseParams()
        filters = PairwiseFilters(image, params, "lattice")
        n = image.height * image.width
        beliefs = random_posterior(np.random.default_rng(seed), 504, 376, 21)
        beliefs = beliefs.reshape(n, 21).astype(np.float32)
        values = np.concatenate([beliefs, np.ones((n, 1), np.float32)], axis=1).astype(np.float64)
        bilateral = bilateral_features(image, params.sigma_alpha, params.sigma_beta)
        spatial = spatial_features(image.height, image.width, params.sigma_gamma)

        def exact_rows(feats, rows, v):
            return sum(_kernel_block(feats.coords[rows], feats.coords[lo:lo + 16384])
                       @ v[lo:lo + 16384] for lo in range(0, n, 16384))

        rows = _stride_sample(n, 64)
        for feats, filt, bound in ((bilateral, filters.filter_bilateral, 0.025),
                                   (spatial, filters.filter_spatial, 0.003)):
            want = exact_rows(feats, rows, values)
            got = filt(beliefs)[rows].astype(np.float64)
            assert (np.abs(got - want[:, :-1]) / want[:, -1:]).max() <= bound
        rows = _stride_sample(n, GAIN_SAMPLE_ROWS)
        lattice_mass = PermutohedralLattice(bilateral).filter(np.ones(n, np.float32))
        median = np.median(exact_rows(bilateral, rows, values[:, -1:])[:, 0]
                           / lattice_mass[rows].astype(np.float64))
        assert abs(filters.bilateral.gain / median - 1.0) <= 0.01


class TestBatchedWeights:
    WEIGHTS = (0.1, 3.5, 4.7)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("per_run", [3, 2])
    def test_batch_matches_lone_runs(self, monkeypatch, backend, per_run):
        """Each w1 of a batch gets the belief a lone run_inference gives, bit
        for bit, including w1 values float32 cannot hold exactly. With a
        budget of two weights the lattice batch runs as 2 + 1; the exact
        backend always runs one weight at a time."""
        rng = np.random.default_rng(31)
        h, w, labels = 12, 10, 2
        unary = unary_from_probs(random_posterior(rng, h, w, labels))
        image = random_image(rng, h, w)
        monkeypatch.setattr(densecrf, "BATCH_MAX_ELEMENTS", per_run * h * w * labels)
        batch = [PairwiseParams(w1=w1, sigma_alpha=20.0, sigma_beta=10.0)
                 for w1 in self.WEIGHTS]
        filters = PairwiseFilters(image, batch[0], backend)
        calls = counted_updates(monkeypatch)
        got = list(_infer(unary, image, batch, 3, backend, filters, None))
        columns = [width for width, _, _ in calls]
        for params, q in zip(batch, got):
            want, _ = run_inference(unary, image, params, iters=3, backend=backend)
            assert np.array_equal(np.asarray(q, np.float64), want.q), params.w1
        if backend == "exact":
            runs = [1, 1, 1]
        else:
            runs = [3] if per_run == 3 else [2, 1]
        assert columns == [k * labels for k in runs for _ in range(3)]

    def test_zero_iterations_return_the_posterior_per_weight(self):
        rng = np.random.default_rng(32)
        unary = unary_from_probs(random_posterior(rng, 4, 5, 3))
        batch = [PairwiseParams(w1=w1) for w1 in self.WEIGHTS]
        got = list(_infer(unary, random_image(rng, 4, 5), batch, 0, "lattice", None, None))
        assert len(got) == 3
        for q in got:
            np.testing.assert_allclose(q, init_state(unary).q, atol=1e-12)


class _FixedFilters:
    """Filters returning fresh copies of fixed outputs, as the update expects."""

    def __init__(self, zb, zs):
        self.zb, self.zs = zb, zs

    def filter_bilateral(self, q, timer=None):
        return self.zb.copy()

    def filter_spatial(self, q, timer=None):
        return self.zs.copy()


def update_inputs(rng, n, k, labels, dtype, tied):
    """Beliefs, costs and filter outputs for one blocked-update check. With
    `tied`, small integers give many tied row maxima after the update."""
    if tied:
        draw = lambda *shape: rng.integers(0, 3, shape).astype(dtype)  # noqa: E731
    else:
        draw = lambda *shape: rng.normal(size=shape).astype(dtype)  # noqa: E731
    return draw(n, k * labels), draw(n, labels), draw(n, k * labels), draw(n, k * labels)


class TestBlockedUpdate:
    """The update and start softmax run over UPDATE_BLOCK_POINTS-point blocks
    and must equal the whole-array arithmetic bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("labels", [2, 5, 21, 256])
    @pytest.mark.parametrize("k", [1, 3])
    def test_update_matches_whole_array(self, monkeypatch, dtype, labels, k):
        block = 64
        monkeypatch.setattr(densecrf, "UPDATE_BLOCK_POINTS", block)
        rng = np.random.default_rng(labels * 10 + k)
        w1 = np.array([4.0, 0.1, 3.5][:k], dtype)[:, None]
        w12 = np.array([7.0, 3.1, 6.5][:k], dtype)[:, None]
        for n in (block - 1, block, block + 1, 2 * block + 3):
            for tied in (False, True):
                q, theta, zb, zs = update_inputs(rng, n, k, labels, dtype, tied)
                want = meanfield_update_whole_array(q, theta, zb.copy(), zs.copy(), w1, w12, 3.0)
                got = q.copy()
                densecrf._update(got, theta, _FixedFilters(zb, zs), w1, w12, 3.0, None)
                assert got.dtype == dtype
                assert np.array_equal(got, want), (n, tied)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("labels", [2, 5, 21, 256])
    def test_softmax_rows_matches_whole_array(self, monkeypatch, dtype, labels):
        block = 64
        monkeypatch.setattr(densecrf, "UPDATE_BLOCK_POINTS", block)
        rng = np.random.default_rng(labels)
        for n in (block - 1, block, block + 1, 2 * block + 3):
            for z in (rng.normal(scale=20.0, size=(n, 1, labels)),
                      rng.integers(-2, 1, (1, n, labels)).astype(np.float64)):
                z = z.astype(dtype)
                want = softmax_rows_whole_array(z)
                got = densecrf._softmax_rows(z.copy())
                assert got.shape == z.shape and got.dtype == dtype
                assert np.array_equal(got, want), n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cost_dtype", [np.float32, np.float64])
    def test_posterior_matches_whole_array(self, dtype, cost_dtype):
        """The start belief, written block by block into `dtype`, equals the
        float64 whole-array softmax of the negated costs cast once, at
        3 * (block / 2 + 1) points: not a multiple of the block size."""
        block = densecrf.UPDATE_BLOCK_POINTS
        theta = np.random.default_rng(8).normal(scale=5.0, size=(3, block // 2 + 1, 21))
        theta = theta.astype(cost_dtype)
        want = softmax_rows_whole_array(-theta.astype(np.float64)).astype(dtype)
        got = densecrf._posterior(UnaryField(theta), dtype)
        assert got.dtype == dtype and got.shape == theta.shape
        assert np.array_equal(got, want)

    def test_posterior_never_holds_a_whole_float64_copy(self):
        """At 504x376x21 the float32 start belief traces its own 16 MB and
        one block's float64 scratch; a whole float64 posterior and its cast
        would trace 48 MB."""
        theta = np.random.default_rng(9).normal(size=(504, 376, 21)).astype(np.float32)
        unary = UnaryField(theta)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            q = densecrf._posterior(unary, np.float32)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= q.nbytes + 4e6

    def test_module_block_points(self):
        """The unpatched block size on both sides of two block edges."""
        block = densecrf.UPDATE_BLOCK_POINTS
        rng = np.random.default_rng(7)
        w1, w12 = np.float32([[4.0]]), np.float32([[7.0]])
        for n in (block - 1, block + 1, 2 * block + 3):
            q, theta, zb, zs = update_inputs(rng, n, 1, 21, np.float32, n == block + 1)
            want = meanfield_update_whole_array(q, theta, zb.copy(), zs.copy(), w1, w12, 3.0)
            got = q.copy()
            densecrf._update(got, theta, _FixedFilters(zb, zs), w1, w12, 3.0, None)
            assert np.array_equal(got, want)
            z = rng.normal(scale=20.0, size=(n, 21))
            assert np.array_equal(densecrf._softmax_rows(z.copy()), softmax_rows_whole_array(z))


def counted_updates(monkeypatch) -> list:
    """(columns, partial, keeps vertex values) of every densecrf._update
    call from here on."""
    calls = []
    update = densecrf._update

    def counting(q, theta, filters, w1, w12, w2, timer, stages=None, changed=None):
        calls.append((q.shape[1], changed is not None, stages is not None))
        return update(q, theta, filters, w1, w12, w2, timer, stages, changed)

    monkeypatch.setattr(densecrf, "_update", counting)
    return calls


def repeating_case():
    """The split case: its updates first return their input within 10
    updates, at update 3, 7 and 2 under w1 1, 0 and 4 on the lattice, and
    at 3, 9 and 3 on the exact backend."""
    return split_case(1)


def nonrepeating_case():
    """A jitter-30 quadrant scene whose updates never return their input
    within 25 updates, on either backend."""
    return quadrant_case(40, 48, 1, jitter=30.0)


class TestFixedPointStop:
    """Mean field stops at the first update that returns its input bit for
    bit, and on the lattice recomputes only the rows a few changed rows
    reach; every output equals running all --iters updates in full."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("make,repeats", [(repeating_case, True),
                                              (nonrepeating_case, False)])
    def test_refine_bytes_equal_every_update(self, tmp_path, backend, make, repeats):
        unary, image, _ = make()
        paths = {name: tmp_path / name for name in ("u.dlt", "i.ppm", "o.pgm", "q.dlt",
                                                   "ref.pgm", "ref.dlt")}
        write_tensor(FeatureMap(unary.theta), str(paths["u.dlt"]))
        write_ppm(image, str(paths["i.ppm"]))
        assert cli.main(["refine", "--unary", str(paths["u.dlt"]), "--image", str(paths["i.ppm"]),
                         "--out", str(paths["o.pgm"]), "--q-out", str(paths["q.dlt"]),
                         "--factor", "1", "--iters", "10", "--backend", backend]) == 0
        unary = UnaryField(read_tensor(str(paths["u.dlt"])).data)
        params = PairwiseParams()
        state, first = meanfield_every_update(unary, image, params, backend,
                                              PairwiseFilters(image, params, backend), 10)
        assert (first is not None and first < 10) == repeats
        write_pgm(labels_from_state(state), str(paths["ref.pgm"]))
        write_tensor(FeatureMap(state.q), str(paths["ref.dlt"]))
        for name in ("o.pgm", "q.dlt"):
            assert paths[name].read_bytes() == paths[f"ref.{name[2:]}"].read_bytes(), name

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_runs_up_to_and_including_the_first_repeat(self, monkeypatch, backend):
        unary, image, _ = repeating_case()
        params = PairwiseParams()
        filters = PairwiseFilters(image, params, backend)
        _, first = meanfield_every_update(unary, image, params, backend, filters, 10)
        assert first is not None and first > 1
        calls = counted_updates(monkeypatch)
        for iters in (first - 1, first, first + 1, 10):
            want, _ = meanfield_every_update(unary, image, params, backend, filters, iters)
            calls.clear()
            got = next(_infer(unary, image, [params], iters, backend, filters, None))
            assert len(calls) == min(iters, first), iters
            assert np.array_equal(got, want.q), iters

    @pytest.mark.parametrize("backend,stop", [("lattice", max), ("exact", sum)])
    def test_batch_stops_at_its_last_column_repeat(self, monkeypatch, backend, stop):
        """A lattice batch runs all w1 columns side by side until the last
        one repeats; the exact backend runs each w1 alone to its own. The
        middle column repeats last on both backends."""
        unary, image, _ = repeating_case()
        batch = [PairwiseParams(w1=w1) for w1 in (1.0, 0.0, 4.0)]
        filters = PairwiseFilters(image, batch[0], backend)
        lone = [meanfield_every_update(unary, image, p, backend, filters, 10) for p in batch]
        firsts = [first for _, first in lone]
        assert None not in firsts and len(set(firsts)) > 1
        calls = counted_updates(monkeypatch)
        got = list(_infer(unary, image, batch, 10, backend, filters, None))
        for (state, _), q in zip(lone, got):
            assert np.array_equal(q, state.q)
        assert len(calls) == stop(firsts)
        assert {call[0] for call in calls} == {unary.labels * (3 if backend == "lattice" else 1)}

    @pytest.mark.parametrize("per_run", [1, 3])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_partial_updates_equal_whole_updates(self, monkeypatch, seed, per_run):
        """On bench scenes, later lattice updates change few rows and
        recompute only the rows that can change; the beliefs equal running
        every update in full, alone or batched."""
        monkeypatch.setattr(densecrf, "BATCH_MAX_ELEMENTS", per_run * 48 * 64 * 21)
        unary, image, _ = make_instance(bench_scene(48, 64, 21, seed), num_labels=21)
        batch = [PairwiseParams(w1=w1) for w1 in (4.0, 3.0, 5.0)]
        filters = PairwiseFilters(image, batch[0], "lattice")
        lone = [meanfield_every_update(unary, image, p, "lattice", filters, 10)[0] for p in batch]
        calls = counted_updates(monkeypatch)
        for state, q in zip(lone, _infer(unary, image, batch, 10, "lattice", filters, None)):
            assert np.array_equal(q, state.q)
        assert any(partial for _, partial, _ in calls)
        calls.clear()
        list(_infer(unary, image, batch, 3, "lattice", filters, None))
        assert not any(keeps for _, _, keeps in calls)  # no later update could use them


def bench_case(height, width, seed):
    """A bench scene at factor 8: its costs upsampled from the coarse grid,
    as `refine --factor 8` makes them, in float64."""
    coarse, image, gt = make_instance(bench_scene(height, width, 21, seed), num_labels=21, factor=8)
    fine = upsample_bilinear(FeatureMap(coarse.theta.astype(np.float32)), 8)
    return UnaryField(fine.data.astype(np.float64)), image, gt


def bench_48x64():
    return bench_case(48, 64, 1)


def lattice_kept_bytes(lattice, width):
    """Bytes a lattice holds through a run with partial updates: its splat,
    slice and blur matrices, vertex keys and gain, its CSR splat copy, and
    float32 vertex values `width` columns wide after the splat and after
    each blur direction. Arrays that share memory count once."""
    arrays = [a for m in (lattice._splat, lattice._slice, *lattice._blur, lattice._gather)
              for a in (m.data, m.indices, m.indptr)]
    arrays += [lattice.vertex_keys, np.asarray(lattice.gain)]
    by_address = {a.__array_interface__["data"][0]: a.nbytes for a in arrays}
    return sum(by_address.values()) + (lattice.dim + 2) * (lattice.num_vertices + 1) * width * 4


class TestInPlaceUpdate:
    """Every update writes its rows over the run's one belief, block by
    block, and no array handed in is ever written."""

    BLOCK = 37  # divides no image width below, so blocks end mid-row

    @pytest.mark.parametrize("backend,make,per_run", [
        *(("lattice", make, per_run) for make in (repeating_case, nonrepeating_case, bench_48x64)
          for per_run in (1, 3)),
        ("exact", repeating_case, 1), ("exact", nonrepeating_case, 1)])
    def test_small_blocks_equal_whole_updates(self, monkeypatch, backend, make, per_run):
        """With blocks of 37 points, each w1 of a run, alone or batched (the
        exact backend runs one w1 at a time), gets the bytes of running
        every update over the whole belief in one block; the bench scene's
        lattice run also updates partially."""
        unary, image, _ = make()
        n = unary.height * unary.width
        assert n <= densecrf.UPDATE_BLOCK_POINTS  # the reference's one block
        batch = [PairwiseParams(w1=w1) for w1 in (4.0, 3.0, 5.0)]
        filters = PairwiseFilters(image, batch[0], backend)
        lone = [meanfield_every_update(unary, image, p, backend, filters, 10)[0] for p in batch]
        monkeypatch.setattr(densecrf, "UPDATE_BLOCK_POINTS", self.BLOCK)
        monkeypatch.setattr(densecrf, "BATCH_MAX_ELEMENTS", per_run * n * unary.labels)
        calls = counted_updates(monkeypatch)
        got = list(_infer(unary, image, batch, 10, backend, filters, None))
        for state, q in zip(lone, got, strict=True):
            assert q.dtype == state.q.dtype and q.tobytes() == state.q.tobytes()
        if make is bench_48x64:
            assert any(partial for _, partial, _ in calls)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_caller_beliefs_are_never_written(self, monkeypatch, backend):
        """mean_field_step and _infer(q=) leave the caller's belief's bytes
        as they were, also when it already has the run's dtype, and return
        what steps from it give."""
        monkeypatch.setattr(densecrf, "UPDATE_BLOCK_POINTS", self.BLOCK)
        unary, image, _ = nonrepeating_case()
        params = PairwiseParams()
        filters = PairwiseFilters(image, params, backend)
        dtype = np.float64 if backend == "exact" else np.float32
        state = MeanFieldState(init_state(unary).q.astype(dtype))
        before = state.q.tobytes()
        step = mean_field_step(state, unary, image, params, backend, filters=filters)
        assert state.q.tobytes() == before
        assert not np.shares_memory(step.q, state.q)
        want = state
        for _ in range(3):
            want = mean_field_step(want, unary, image, params, backend, filters=filters)
        batch = [params] if backend == "exact" else [params, PairwiseParams(w1=1.0)]
        got = next(_infer(unary, image, batch, 3, backend, filters, None, q=state.q))
        assert state.q.tobytes() == before
        assert got.tobytes() == want.q.tobytes()

    @pytest.mark.parametrize("seed", [4, 5])
    def test_run_traces_one_belief(self, monkeypatch, seed):
        """A 160x120x21 lattice run of 10 updates, partial ones among them,
        traces at most its float32 costs, one belief, each lattice's kept
        arrays and vertex values (lattice_kept_bytes) and eight blocks of
        update scratch: the rows of both filter outputs, of a partial
        update's belief and costs, and their comparison. At 1,024 points a
        block is 1/19 of the belief, so one whole-belief temporary, such as
        a whole filter output or a copy of the belief, exceeds the bound."""
        block = 1024
        monkeypatch.setattr(densecrf, "UPDATE_BLOCK_POINTS", block)
        unary, image, _ = bench_case(160, 120, seed)
        calls = counted_updates(monkeypatch)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run_inference(unary, image, iters=10, backend="lattice")
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert any(partial for _, partial, _ in calls)
        filters = PairwiseFilters(image, PairwiseParams(), "lattice")
        belief = unary.theta.size * 4
        kept = sum(lattice_kept_bytes(lat, unary.labels)
                   for lat in (filters.bilateral, filters.spatial))
        assert peak <= 2 * belief + kept + 8 * block * unary.labels * 4
