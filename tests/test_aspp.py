"""Pyramid fusion semantics, multi-scale max, and rational rescaling."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from denseseg import aspp
from denseseg.aspp import (
    AsppBranch,
    AsppConfig,
    aspp_forward,
    multiscale_max_fuse,
    random_config,
    rescale_pyramid,
)
from denseseg.atrous import AtrousRate, ConvKernel, atrous_conv_2d_holes
from denseseg.core import FeatureMap, ShapeError
from oracles import reference_bilinear


def ones_branch(rate: int) -> AsppBranch:
    """Single-channel branch whose 1x1 stages are identities."""
    return AsppBranch(
        AtrousRate(rate),
        (
            ConvKernel(np.ones((3, 3, 1, 1), dtype=np.float32)),
            ConvKernel(np.ones((1, 1, 1, 1), dtype=np.float32)),
            ConvKernel(np.ones((1, 1, 1, 1), dtype=np.float32)),
        ),
    )


def impulse_map(size: int) -> FeatureMap:
    data = np.zeros((size, size, 1), dtype=np.float32)
    data[size // 2, size // 2, 0] = 1.0
    return FeatureMap(data)


class TestConfigValidation:
    def test_requires_a_branch(self):
        with pytest.raises(ValueError):
            AsppConfig(())

    def test_chain_must_have_three_stages(self):
        with pytest.raises(ValueError):
            AsppBranch(AtrousRate(2), (ConvKernel(np.ones((3, 3, 1, 1), np.float32)),))

    def test_later_stages_must_be_1x1(self):
        with pytest.raises(ShapeError):
            AsppBranch(
                AtrousRate(2),
                (
                    ConvKernel(np.ones((3, 3, 1, 2), np.float32)),
                    ConvKernel(np.ones((3, 3, 2, 2), np.float32)),
                    ConvKernel(np.ones((1, 1, 2, 1), np.float32)),
                ),
            )

    def test_chain_width_mismatch(self):
        with pytest.raises(ShapeError):
            AsppBranch(
                AtrousRate(2),
                (
                    ConvKernel(np.ones((3, 3, 1, 2), np.float32)),
                    ConvKernel(np.ones((1, 1, 5, 2), np.float32)),
                    ConvKernel(np.ones((1, 1, 2, 1), np.float32)),
                ),
            )

    def test_branches_must_share_output_width(self):
        cfg = random_config([2, 4], c_in=3, hidden=4, labels=5)
        assert cfg.c_out == 5
        other = random_config([2], c_in=3, hidden=4, labels=6)
        with pytest.raises(ShapeError):
            AsppConfig(cfg.branches + other.branches)


class TestAsppForward:
    def test_single_branch_equals_composed_chain(self):
        rng = np.random.default_rng(70)
        fm = FeatureMap(rng.normal(size=(12, 13, 3)).astype(np.float32))
        cfg = random_config([12], c_in=3, hidden=6, labels=4, seed=1)
        out = aspp_forward(fm, cfg)
        branch = cfg.branches[0]
        y = atrous_conv_2d_holes(fm, branch.kernels[0], branch.rate)
        y = atrous_conv_2d_holes(y, branch.kernels[1], 1)
        y = atrous_conv_2d_holes(y, branch.kernels[2], 1)
        assert np.array_equal(out.data, y.data)

    def test_duplicate_branch_doubles_output(self):
        rng = np.random.default_rng(71)
        fm = FeatureMap(rng.normal(size=(9, 9, 2)).astype(np.float32))
        single = random_config([1], c_in=2, hidden=4, labels=3, seed=2)
        double = AsppConfig(single.branches + single.branches)
        one = aspp_forward(fm, single)
        two = aspp_forward(fm, double)
        assert np.allclose(two.data, 2.0 * one.data, rtol=1e-6, atol=1e-7)

    def test_impulse_support_is_union_of_dilated_footprints(self):
        """Wide-rate ones-branches echo the impulse at every dilated tap site."""
        rates = (6, 12, 18, 24)
        fm = impulse_map(65)
        cfg = AsppConfig(tuple(ones_branch(r) for r in rates))
        out = aspp_forward(fm, cfg)
        per_branch = [
            atrous_conv_2d_holes(fm, ones_branch(r).kernels[0], r).data for r in rates
        ]
        assert np.allclose(out.data, np.sum(per_branch, axis=0), rtol=1e-6, atol=1e-7)
        expected_support = set()
        for r in rates:
            for dy in (-r, 0, r):
                for dx in (-r, 0, r):
                    expected_support.add((32 + dy, 32 + dx))
        got = {(int(y), int(x)) for y, x in zip(*np.nonzero(out.data[:, :, 0]))}
        assert got == expected_support

    def test_branch_permutation_invariance(self):
        rng = np.random.default_rng(72)
        fm = FeatureMap(rng.normal(size=(8, 8, 2)).astype(np.float32))
        cfg = random_config([2, 4, 8], c_in=2, hidden=4, labels=3, seed=3)
        flipped = AsppConfig(tuple(reversed(cfg.branches)))
        a, b = aspp_forward(fm, cfg), aspp_forward(fm, flipped)
        assert np.allclose(a.data, b.data, rtol=1e-6, atol=1e-7)

    def test_input_width_mismatch(self):
        fm = FeatureMap(np.zeros((4, 4, 5), dtype=np.float32))
        cfg = random_config([2], c_in=3, hidden=4, labels=2)
        with pytest.raises(ShapeError):
            aspp_forward(fm, cfg)


def whole_map_chain(fm: FeatureMap, cfg: AsppConfig) -> np.ndarray:
    """Each branch's whole-map atrous_conv_2d_holes chain, summed in branch
    order into a float64 total and cast to float32 once."""
    total = np.zeros((fm.height, fm.width, cfg.c_out))
    for branch in cfg.branches:
        y = atrous_conv_2d_holes(fm, branch.kernels[0], branch.rate)
        for kernel in branch.kernels[1:]:
            y = atrous_conv_2d_holes(y, kernel, 1)
        total += y.data
    return total.astype(np.float32)


# (height, width, c_in, hidden, labels, rates): heights off the band size,
# a 1-row last band (17 = 2 * 8 + 1), one band, rates at or past the map's
# side, a single-column window (width = rate + 1) that the band edge at row 8
# cuts to one valid row, and the benchmark's three front-end map sizes.
BAND_CASES = [
    (13, 11, 3, 6, 4, (1, 2, 12)),
    (17, 9, 5, 7, 3, (3, 9, 17)),
    (1, 6, 4, 5, 2, (1, 6)),
    (8, 8, 4, 4, 3, (8, 30)),
    (5, 3, 2, 3, 2, (5, 4, 2)),
    (13, 5, 128, 16, 5, (4,)),
    (32, 24, 16, 32, 21, (6, 12, 18, 24)),
    (47, 35, 16, 32, 21, (6, 12, 18, 24)),
    (63, 47, 16, 32, 21, (6, 12, 18, 24)),
    # Stage output widths 17, 18, 20, 33 and 36 over 16-64 input channels:
    # OpenBLAS's SkylakeX kernels can move a float64 product row's last bit
    # with the rows beside it at these widths, and on OpenBLAS 0.3.31 every
    # case here has bands whose float64 sums differ from the whole map's.
    # The float32 cast of each stage must absorb those bits.
    (20, 13, 16, 17, 18, (1, 3)),
    (19, 15, 64, 33, 20, (2, 7)),
    (27, 19, 64, 36, 17, (3, 1)),
    (20, 12, 16, 20, 33, (11, 1)),
    (25, 9, 32, 18, 36, (4, 9)),
]


class TestBands:
    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("h, w, c_in, hidden, labels, rates", BAND_CASES)
    def test_bands_match_the_whole_map_chain(
        self, monkeypatch, cpus, h, w, c_in, hidden, labels, rates
    ):
        monkeypatch.setattr(aspp, "_usable_cpus", lambda: cpus)
        rng = np.random.default_rng(h * 1000 + w)
        fm = FeatureMap(rng.normal(size=(h, w, c_in)).astype(np.float32))
        cfg = random_config(rates, c_in=c_in, hidden=hidden, labels=labels, seed=h + w)
        out = aspp_forward(fm, cfg)
        assert out.data.tobytes() == whole_map_chain(fm, cfg).tobytes()

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(aspp, "_usable_cpus", lambda: 4)
        rng = np.random.default_rng(80)
        fm = FeatureMap(rng.normal(size=(20, 6, 3)).astype(np.float32))
        cfg = random_config([1, 2], c_in=3, hidden=4, labels=2, seed=4)
        before = threading.enumerate()
        aspp_forward(fm, cfg)
        assert threading.enumerate() == before

        branch_rows = aspp._branch_rows

        def fail_second_band(x, rate, weights, rows):
            if rows[0] == aspp.BAND_ROWS:
                raise RuntimeError("band failed")
            return branch_rows(x, rate, weights, rows)

        monkeypatch.setattr(aspp, "_branch_rows", fail_second_band)
        with pytest.raises(RuntimeError, match="band failed"):
            aspp_forward(fm, cfg)
        assert threading.enumerate() == before

    @pytest.mark.parametrize("cpus, height", [(1, 20), (4, aspp.BAND_ROWS)])
    def test_one_cpu_or_one_band_starts_no_thread(self, monkeypatch, cpus, height):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was opened")

        monkeypatch.setattr(aspp, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(aspp, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        rng = np.random.default_rng(81)
        fm = FeatureMap(rng.normal(size=(height, 5, 2)).astype(np.float32))
        cfg = random_config([1, 3], c_in=2, hidden=3, labels=2, seed=5)
        assert aspp_forward(fm, cfg).data.tobytes() == whole_map_chain(fm, cfg).tobytes()


class TestMultiscaleMaxFuse:
    def test_single_map_is_itself(self):
        fm = impulse_map(5)
        assert np.array_equal(multiscale_max_fuse([fm]).data, fm.data)

    def test_dominant_map_wins_everywhere(self):
        rng = np.random.default_rng(73)
        a = FeatureMap(rng.normal(size=(6, 7, 2)).astype(np.float32))
        b = FeatureMap(a.data + 1.0)
        assert np.array_equal(multiscale_max_fuse([a, b]).data, b.data)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(74)
        maps = [FeatureMap(rng.normal(size=(4, 5, 3)).astype(np.float32)) for _ in range(3)]
        fused = multiscale_max_fuse(maps).data
        for y in range(4):
            for x in range(5):
                for c in range(3):
                    assert fused[y, x, c] == max(m.data[y, x, c] for m in maps)

    def test_result_dominates_every_input(self):
        rng = np.random.default_rng(75)
        maps = [FeatureMap(rng.normal(size=(5, 4, 2)).astype(np.float32)) for _ in range(4)]
        fused = multiscale_max_fuse(maps).data
        for m in maps:
            assert np.all(fused >= m.data)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(76)
        maps = [FeatureMap(rng.normal(size=(3, 3, 1)).astype(np.float32)) for _ in range(3)]
        assert np.array_equal(
            multiscale_max_fuse(maps).data, multiscale_max_fuse(maps[::-1]).data
        )

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            multiscale_max_fuse([])

    def test_shape_mismatch_rejected(self):
        a = FeatureMap(np.zeros((3, 3, 1), dtype=np.float32))
        b = FeatureMap(np.zeros((3, 4, 1), dtype=np.float32))
        with pytest.raises(ShapeError):
            multiscale_max_fuse([a, b])


class TestRescalePyramid:
    def test_scale_one_is_identity(self):
        fm = impulse_map(5)
        (out,) = rescale_pyramid(fm, [1.0])
        assert out is fm

    def test_constant_map_any_scale(self):
        fm = FeatureMap(np.full((6, 8, 2), 3.25, dtype=np.float32))
        for out in rescale_pyramid(fm, [0.5, 0.75, 1.0]):
            assert np.all(out.data == 3.25)

    def test_half_scale_ramp_hits_source_corners(self):
        """4 -> 2 samples under align-corners land on source columns/rows 0 and 3."""
        ramp = np.arange(16, dtype=np.float32).reshape(4, 4, 1)
        (out,) = rescale_pyramid(FeatureMap(ramp), [0.5])
        assert out.data.shape == (2, 2, 1)
        assert out.data[:, :, 0].tolist() == [[0.0, 3.0], [12.0, 15.0]]

    def test_three_quarter_scale_matches_closed_form(self):
        """8 -> 6 samples: src = j*7/5, interpolated on a linear ramp."""
        ramp = np.arange(8, dtype=np.float32).reshape(8, 1, 1)
        (out,) = rescale_pyramid(FeatureMap(ramp), [0.75])
        expected = [j * 7.0 / 5.0 for j in range(6)]
        assert np.allclose(out.data[:, 0, 0], expected, rtol=1e-6, atol=1e-6)

    def test_scale_sizes_round_half_up(self):
        fm = FeatureMap(np.zeros((5, 3, 1), dtype=np.float32))
        (out,) = rescale_pyramid(fm, [0.5])
        assert (out.height, out.width) == (3, 2)

    def test_bad_scale_rejected(self):
        fm = impulse_map(4)
        with pytest.raises(ValueError):
            rescale_pyramid(fm, [0.0])
        with pytest.raises(ValueError):
            rescale_pyramid(fm, [-1.0])

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            rescale_pyramid(np.zeros((3, 3)), [1.0])

    def test_finite_scale_too_large_rejected(self):
        """63 * 1e300 asks numpy for an impossible array and 63 * 1e308
        overflows to inf; both are a ValueError, not an OverflowError."""
        fm = FeatureMap(np.zeros((63, 47, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            rescale_pyramid(fm, [1e300])
        with pytest.raises(ValueError, match=r"scale 1e\+308"):
            rescale_pyramid(fm, [1e308])

    @pytest.mark.parametrize("h, w, out_h", [(63, 47, 1), (126, 9, 63), (63, 47, 64),
                                             (63, 47, 65), (63, 47, 504), (1, 40, 130),
                                             (70, 1, 35), (1, 1, 66)])
    def test_equals_whole_array_oracle(self, h, w, out_h):
        """Output heights 1, 63, 64, 65 and 504, inputs with a 1-pixel axis
        included."""
        rng = np.random.default_rng(h + out_h)
        fm = FeatureMap(rng.normal(size=(h, w, 3)).astype(np.float32))
        (out,) = rescale_pyramid(fm, [out_h / h])
        assert out.height == out_h
        want = reference_bilinear(fm.data, out_h, out.width)
        assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()


class TestRandomConfig:
    def test_same_seed_same_weights(self):
        """deeplab_front rebuilds its pyramid from a seed on every run."""
        cfg1 = random_config([6, 12, 18, 24], c_in=3, hidden=8, labels=5, seed=9)
        cfg2 = random_config([6, 12, 18, 24], c_in=3, hidden=8, labels=5, seed=9)
        assert tuple(b.rate.r for b in cfg1.branches) == (6, 12, 18, 24)
        assert cfg1.c_in == 3
        assert cfg1.c_out == 5
        for b1, b2 in zip(cfg1.branches, cfg2.branches):
            for k1, k2 in zip(b1.kernels, b2.kernels):
                assert np.array_equal(k1.weights, k2.weights)


    @pytest.mark.parametrize("rate", [2.5, True])
    def test_rates_take_atrous_rate_check(self, rate):
        """A fractional rate once truncated to 2 and True became rate 1."""
        with pytest.raises(TypeError):
            random_config([rate], c_in=2, hidden=2, labels=2)

    def test_numpy_integer_rate_stored_as_int(self):
        rate = random_config([np.int64(6)], c_in=2, hidden=2, labels=2).branches[0].rate.r
        assert type(rate) is int and rate == 6
