"""Atrous convolution: both routes, field-of-view law, bilinear upsampling."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.ndimage

from denseseg.aspp import rescale_pyramid
from denseseg.atrous import (
    AtrousRate,
    ConvKernel,
    _resample_bilinear,
    atrous_conv_2d_holes,
    atrous_conv_2d_subsampled,
    effective_kernel_size,
    upsample_bilinear,
)
from denseseg.core import FeatureMap, ShapeError
from oracles import reference_bilinear, reference_conv2d, relative_linf


def random_case(seed, h=16, w=16, c_in=2, c_out=4, k=3):
    rng = np.random.default_rng(seed)
    fm = FeatureMap(rng.normal(size=(h, w, c_in)).astype(np.float32))
    kernel = ConvKernel(rng.normal(size=(k, k, c_in, c_out)).astype(np.float32))
    return fm, kernel


class TestTypes:
    def test_rate_validation(self):
        assert AtrousRate(1).r == 1
        with pytest.raises(ValueError):
            AtrousRate(0)
        with pytest.raises(TypeError):
            AtrousRate(2.0)

    def test_kernel_validation(self):
        k = ConvKernel(np.ones((3, 3, 2, 4), dtype=np.float32))
        assert (k.k_h, k.k_w, k.c_in, k.c_out) == (3, 3, 2, 4)
        with pytest.raises(ShapeError):
            ConvKernel(np.ones((3, 3, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            ConvKernel(np.full((1, 1, 1, 1), np.nan, dtype=np.float32))

    def test_kernel_weight_count_matches_dims(self):
        k = ConvKernel(np.ones((3, 4, 2, 5), dtype=np.float32))
        assert k.weights.size == k.k_h * k.k_w * k.c_in * k.c_out


class TestEffectiveKernelSize:
    def test_wide_field_of_view(self):
        assert effective_kernel_size(3, 12) == 25

    def test_single_tap_has_no_holes(self):
        for r in (1, 2, 7, 100):
            assert effective_kernel_size(1, r) == 1

    def test_rate_one_is_identity(self):
        assert effective_kernel_size(3, 1) == 3

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            effective_kernel_size(0, 1)
        with pytest.raises(ValueError):
            effective_kernel_size(3, 0)


class TestConv2dHoles:
    def test_impulse_spread_rate_two(self):
        """3x3 ones at rate 2 echo the center impulse at offsets {-2,0,2}^2."""
        imp = np.zeros((5, 5, 1), dtype=np.float32)
        imp[2, 2, 0] = 1.0
        out = atrous_conv_2d_holes(
            FeatureMap(imp), ConvKernel(np.ones((3, 3, 1, 1), dtype=np.float32)), 2
        )
        expected = np.zeros((5, 5))
        expected[0::2, 0::2] = 1.0
        assert np.array_equal(out.data[:, :, 0], expected)

    def test_zero_kernel_gives_zero_output(self):
        fm, _ = random_case(0)
        out = atrous_conv_2d_holes(fm, ConvKernel(np.zeros((3, 3, 2, 4), np.float32)), 3)
        assert not out.data.any()

    def test_rate_one_matches_scipy_correlate(self):
        """Independent value check of anchor and padding for an odd kernel."""
        rng = np.random.default_rng(21)
        x = rng.normal(size=(9, 11, 1)).astype(np.float32)
        w = rng.normal(size=(3, 3, 1, 1)).astype(np.float32)
        out = atrous_conv_2d_holes(FeatureMap(x), ConvKernel(w), 1)
        expected = scipy.ndimage.correlate(
            x[:, :, 0].astype(np.float64), w[:, :, 0, 0].astype(np.float64), mode="constant"
        )
        assert np.allclose(out.data[:, :, 0], expected, rtol=1e-6, atol=1e-6)

    def test_rate_two_matches_scipy_with_stuffed_kernel(self):
        """Hole sampling equals correlation with a zero-stuffed dense kernel."""
        rng = np.random.default_rng(22)
        x = rng.normal(size=(12, 10, 1)).astype(np.float32)
        w = rng.normal(size=(3, 3, 1, 1)).astype(np.float32)
        stuffed = np.zeros((5, 5))
        stuffed[::2, ::2] = w[:, :, 0, 0].astype(np.float64)
        out = atrous_conv_2d_holes(FeatureMap(x), ConvKernel(w), 2)
        expected = scipy.ndimage.correlate(
            x[:, :, 0].astype(np.float64), stuffed, mode="constant"
        )
        assert np.allclose(out.data[:, :, 0], expected, rtol=1e-6, atol=1e-6)

    def test_even_kernel_anchors_before_middle(self):
        """A 4-tap axis anchors at index 1, so an impulse echoes at -1..+2."""
        imp = np.zeros((7, 7, 1), dtype=np.float32)
        imp[3, 3, 0] = 1.0
        out = atrous_conv_2d_holes(
            FeatureMap(imp), ConvKernel(np.ones((4, 4, 1, 1), dtype=np.float32)), 1
        )
        expected = np.zeros((7, 7))
        expected[1:5, 1:5] = 1.0
        assert np.array_equal(out.data[:, :, 0], expected)

    def test_valid_mode_shape_and_values(self):
        fm, kernel = random_case(23)
        out = atrous_conv_2d_holes(fm, kernel, 3, padding=False)
        assert out.data.shape == (16 - 3 * 2, 16 - 3 * 2, 4)
        expected = reference_conv2d(fm.data, kernel.weights, 3, padding=False)
        assert np.array_equal(out.data, expected)

    def test_valid_mode_too_small_raises(self):
        fm, kernel = random_case(24, h=5, w=5)
        with pytest.raises(ShapeError):
            atrous_conv_2d_holes(fm, kernel, 3, padding=False)

    def test_channel_mismatch_raises(self):
        fm, _ = random_case(25, c_in=2)
        bad = ConvKernel(np.ones((3, 3, 5, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            atrous_conv_2d_holes(fm, bad, 1)

    def test_weight_footprint_constant_across_rates(self):
        """Impulse response carries exactly k*k echoes however wide the holes."""
        for r in (1, 2, 3):
            imp = np.zeros((25, 25, 1), dtype=np.float32)
            imp[12, 12, 0] = 1.0
            out = atrous_conv_2d_holes(
                FeatureMap(imp), ConvKernel(np.ones((3, 3, 1, 1), dtype=np.float32)), r
            )
            assert int(np.count_nonzero(out.data)) == 9

    def test_linearity(self):
        rng = np.random.default_rng(26)
        a = rng.normal(size=(10, 10, 2)).astype(np.float32)
        b = rng.normal(size=(10, 10, 2)).astype(np.float32)
        kernel = ConvKernel(rng.normal(size=(3, 3, 2, 3)).astype(np.float32))
        lhs = atrous_conv_2d_holes(FeatureMap(2.0 * a + 0.5 * b), kernel, 2).data
        rhs = (
            2.0 * atrous_conv_2d_holes(FeatureMap(a), kernel, 2).data
            + 0.5 * atrous_conv_2d_holes(FeatureMap(b), kernel, 2).data
        )
        assert relative_linf(lhs, rhs) < 1e-6


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def sweep_cases():
    """Seeded (h, w, kh, kw, rate, padding) cases, some with rates at or past
    the map side, 1-pixel maps and even kernels; without padding, only maps
    that cover at least one output position."""
    rng = np.random.default_rng(70)
    cases = [(1, 1, 3, 3, 1, True), (1, 1, 3, 3, 5, True), (1, 9, 3, 3, 2, True),
             (9, 1, 4, 4, 9, True), (7, 5, 2, 2, 7, True), (6, 8, 4, 3, 40, True),
             (1, 9, 1, 3, 4, False), (9, 1, 4, 1, 2, False), (12, 11, 4, 2, 3, False),
             (5, 5, 3, 3, 2, False)]
    while len(cases) < 60:
        h, w = (int(v) for v in rng.integers(1, 33, size=2))
        kh, kw = (int(v) for v in rng.integers(1, 5, size=2))
        rate, padding = int(rng.integers(1, 40)), bool(rng.integers(0, 2))
        if padding or (h > rate * (kh - 1) and w > rate * (kw - 1)):
            cases.append((h, w, kh, kw, rate, padding))
    return cases


class TestTapsSkipPadding:
    """Taps add only where they meet the map; the sums equal the zero-padded
    correlation's bit for bit."""

    @pytest.mark.parametrize("case", sweep_cases())
    def test_both_routes_equal_padded_oracle_bytes(self, case):
        h, w, kh, kw, rate, padding = case
        rng = np.random.default_rng(h * 1000 + w * 10 + rate)
        fm = FeatureMap(rng.normal(size=(h, w, 3)).astype(np.float32))
        kernel = ConvKernel(rng.normal(size=(kh, kw, 3, 5)).astype(np.float32))
        want = reference_conv2d(fm.data, kernel.weights, rate, padding)
        assert_same_bytes(atrous_conv_2d_holes(fm, kernel, rate, padding).data, want)
        assert_same_bytes(atrous_conv_2d_subsampled(fm, kernel, rate, padding).data, want)

    @pytest.mark.parametrize("h, w, rate", [(1, 1, 1), (5, 7, 7), (9, 4, 12), (16, 16, 24)])
    def test_rate_past_map_degenerates_to_centre_tap(self, h, w, rate):
        """At a rate of at least the map side every off-centre tap reads only
        padding, so a 3x3 conv is the 1x1 conv by its centre weights."""
        fm, kernel = random_case(71 + rate, h=h, w=w, c_in=4, c_out=6)
        centre = ConvKernel(kernel.weights[1:2, 1:2])
        want = atrous_conv_2d_holes(fm, centre, 1).data
        assert_same_bytes(atrous_conv_2d_holes(fm, kernel, rate).data, want)
        assert_same_bytes(atrous_conv_2d_subsampled(fm, kernel, rate).data, want)


class TestRouteEquivalence:
    @pytest.mark.parametrize("rate", [2, 3, 4])
    def test_matches_holes_on_random_maps(self, rate):
        fm, kernel = random_case(30 + rate)
        a = atrous_conv_2d_holes(fm, kernel, rate).data
        b = atrous_conv_2d_subsampled(fm, kernel, rate).data
        assert relative_linf(b, a) < 1e-5

    @pytest.mark.parametrize("rate", [2, 3, 5])
    def test_matches_holes_without_padding(self, rate):
        fm, kernel = random_case(40 + rate, h=24, w=20)
        a = atrous_conv_2d_holes(fm, kernel, rate, padding=False).data
        b = atrous_conv_2d_subsampled(fm, kernel, rate, padding=False).data
        assert a.shape == b.shape
        assert relative_linf(b, a) < 1e-5

    def test_rate_one_single_phase_bit_exact(self):
        fm, kernel = random_case(50)
        a = atrous_conv_2d_holes(fm, kernel, 1).data
        b = atrous_conv_2d_subsampled(fm, kernel, 1).data
        ref = reference_conv2d(fm.data, kernel.weights, 1, padding=True)
        assert np.array_equal(a, ref)
        assert np.array_equal(b, ref)

    def test_impulse_pattern_identical(self):
        imp = np.zeros((11, 11, 1), dtype=np.float32)
        imp[5, 5, 0] = 1.0
        kernel = ConvKernel(np.ones((3, 3, 1, 1), dtype=np.float32))
        a = atrous_conv_2d_holes(FeatureMap(imp), kernel, 3).data
        b = atrous_conv_2d_subsampled(FeatureMap(imp), kernel, 3).data
        assert np.array_equal(a, b)

    def test_rate_larger_than_input(self):
        """Rates beyond the map size still agree (phases beyond bounds are empty)."""
        fm, kernel = random_case(51, h=4, w=4)
        a = atrous_conv_2d_holes(fm, kernel, 6).data
        b = atrous_conv_2d_subsampled(fm, kernel, 6).data
        assert relative_linf(b, a) < 1e-5

    def test_even_kernel_agreement(self):
        rng = np.random.default_rng(52)
        fm = FeatureMap(rng.normal(size=(14, 15, 2)).astype(np.float32))
        kernel = ConvKernel(rng.normal(size=(4, 4, 2, 3)).astype(np.float32))
        for rate in (2, 3):
            a = atrous_conv_2d_holes(fm, kernel, rate).data
            b = atrous_conv_2d_subsampled(fm, kernel, rate).data
            assert relative_linf(b, a) < 1e-5


class TestUpsampleBilinear:
    def test_constant_preserved(self):
        fm = FeatureMap(np.full((3, 4, 2), 2.5, dtype=np.float32))
        out = upsample_bilinear(fm, 4)
        assert out.data.shape == (12, 16, 2)
        assert np.all(out.data == 2.5)

    def test_two_sample_ramp(self):
        """Align-corners ramp: 16 outputs hit j*8/15 with exact endpoints."""
        fm = FeatureMap(np.array([0.0, 8.0], dtype=np.float32).reshape(2, 1, 1))
        out = upsample_bilinear(fm, 8)
        assert out.data.shape == (16, 8, 1)
        expected = np.array([8.0 * j / 15.0 for j in range(16)], dtype=np.float32)
        assert np.allclose(out.data[:, 0, 0], expected, rtol=1e-6, atol=1e-7)
        assert out.data[0, 0, 0] == 0.0
        assert out.data[15, 0, 0] == 8.0

    def test_factor_one_identity(self):
        fm, _ = random_case(60)
        assert upsample_bilinear(fm, 1) is fm

    def test_corners_exact(self):
        fm, _ = random_case(61, h=5, w=7, c_in=3)
        out = upsample_bilinear(fm, 3)
        for (ys, xs), (yd, xd) in [
            ((0, 0), (0, 0)),
            ((0, 6), (0, 20)),
            ((4, 0), (14, 0)),
            ((4, 6), (14, 20)),
        ]:
            assert np.array_equal(out.data[yd, xd], fm.data[ys, xs])

    def test_output_within_input_range(self):
        fm, _ = random_case(62, h=6, w=5, c_in=3)
        out = upsample_bilinear(fm, 5)
        for c in range(3):
            assert out.data[:, :, c].min() >= fm.data[:, :, c].min()
            assert out.data[:, :, c].max() <= fm.data[:, :, c].max()

    def test_factor_validation(self):
        fm, _ = random_case(63)
        with pytest.raises(ValueError):
            upsample_bilinear(fm, 0)
        with pytest.raises(ValueError):
            upsample_bilinear(fm, 2.0)

    @pytest.mark.parametrize("h, w, c, resize, out_h, out_w", [
        (21, 3, 3, 3, 63, 9), (8, 5, 3, 8, 64, 40), (13, 4, 3, 5, 65, 20),
        (63, 47, 3, 8, 504, 376), (1, 6, 3, 4, 4, 24), (7, 1, 3, 9, 63, 9),
        (1, 5, 3, 7, 7, 35), (2, 3, 3, 4, 8, 12), (3, 1, 3, 3, 9, 3),
        (5, 2, 3, 3, 15, 6), (1, 2, 3, 17, 17, 34),
        (63, 47, 128, 0.5, 32, 24), (63, 47, 128, 0.75, 47, 35),
        (32, 24, 21, 63 / 32, 63, 47), (47, 35, 21, 63 / 47, 63, 47),
    ])
    def test_row_blocks_equal_whole_array_oracle(self, h, w, c, resize, out_h, out_w):
        """Output heights 7, 8, 9, 15, 17, 63, 64, 65 and 504 sit at and
        across the BAND_ROWS-row bands, and 1-pixel axes resample from one
        sample. An integer `resize` is an upsample_bilinear factor, a float a
        rescale_pyramid scale: the last four are deeplab_front's pyramid."""
        fm, _ = random_case(64 + h, h=h, w=w, c_in=c)
        if isinstance(resize, int):
            out = upsample_bilinear(fm, resize)
        else:
            (out,) = rescale_pyramid(fm, [resize])
        assert (out.height, out.width) == (out_h, out_w)
        assert_same_bytes(out.data, reference_bilinear(fm.data, out_h, out_w))

    def test_band_scratch_stays_small(self):
        """The float64 scratch is one band's, not the map's: the traced peak
        of a 63x47x21 x8 resample stays within its output plus 2 MB."""
        fm, _ = random_case(65, h=63, w=47, c_in=21)
        tracemalloc.start()
        try:
            out = _resample_bilinear(fm.data, 504, 376)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2_000_000
