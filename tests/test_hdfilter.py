"""Exact Gaussian filter oracle and permutohedral lattice approximation."""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from denseseg import hdfilter
from denseseg.cli import bench_scene
from denseseg.core import RgbImage, ShapeError
from denseseg.densecrf import PairwiseParams, bilateral_features, spatial_features
from denseseg.hdfilter import (
    FeaturePoints,
    PermutohedralLattice,
    gaussian_filter_exact,
    lattice_filter_normalized,
)
from denseseg.synth import render_scene
from oracles import (
    gaussian_filter_bruteforce,
    kernel_block_cdist,
    lattice_embed_reference,
    lattice_filter_reference,
    relative_l2,
)


@st.composite
def edge_points(draw):
    """Small sets of points on integer grids whose spans sit at and next to
    powers of two, so boundary vertices have neighbours just outside the
    key ranges. At the largest scale the lattice accepts, the digits of the
    folded keys pass 2^63 for d >= 2 and are renumbered."""
    d = draw(st.integers(1, 6))
    span = draw(st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 255, 256]))
    rows = draw(st.lists(st.lists(st.integers(-span, span), min_size=d, max_size=d),
                         min_size=1, max_size=40))
    wide = 2.0**38 / (d * (d + 1) * span)
    unit = draw(st.sampled_from([1.0, 0.5, 1.0 / 3.0, 1.0 / (d + 1), 0.37, wide]))
    return np.array(rows, dtype=np.float64) * unit


def grid_with_flat_halves(d, far):
    """A 45x60 pixel grid at sigma 6 in the first min(d, 2) dimensions and
    flat in the others, with the right half `far` away in the last one:
    2,700 points on at most 572 simplices. At a far of 3e9 the digits of
    the folded keys pass 2^63 for d >= 2 and are renumbered."""
    rows, cols = np.mgrid[0:45, 0:60]
    pts = np.zeros((rows.size, d))
    pts[:, 0] = cols.ravel() / 6.0
    if d > 1:
        pts[:, 1] = rows.ravel() / 6.0
    pts[cols.ravel() >= 30, -1] += far
    return pts


@st.composite
def integer_rows(draw):
    """Up to 40 rows of 1-6 int64 columns, many rows repeated. Each column
    is a few small values times a scale around a shift of up to -+2^42, so
    columns are negative and span up to about 2^44, or 2^62 at the largest
    scale. The products of the spans often pass 2^63, and a column spanning
    2^62 passes it with a few distinct rows before it."""
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width),
                         min_size=1, max_size=40))
    scale = draw(st.lists(st.sampled_from([1, 7, 2**20, 2**41, 2**60]),
                          min_size=width, max_size=width))
    shift = draw(st.lists(st.sampled_from([0, -2**42, 2**42]), min_size=width, max_size=width))
    return np.array(rows, dtype=np.int64) * np.array(scale) + np.array(shift)


def embed_weights(pts) -> np.ndarray:
    """The build's own float64 barycentric weights for these points."""
    return hdfilter._embed(FeaturePoints(pts).coords)[2]


def assert_matches_direct_construction(lat, pts):
    offsets, bary, keys, n1, n2 = lattice_embed_reference(pts)
    for got, want in ((lat.offsets, offsets), (embed_weights(pts), bary),
                      (lat.vertex_keys, keys), (lat.blur_n1, n1), (lat.blur_n2, n2)):
        assert np.array_equal(got, want)


def cluster(rng, n, d, spread=1.0, center=None):
    pts = rng.normal(scale=spread, size=(n, d))
    if center is not None:
        pts = pts + np.asarray(center)
    return FeaturePoints(pts)


class TestFeaturePoints:
    def test_properties(self):
        f = FeaturePoints(np.zeros((4, 3)))
        assert (f.n, f.d) == (4, 3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            FeaturePoints(np.zeros(5))
        with pytest.raises(ShapeError):
            FeaturePoints(np.zeros((0, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeaturePoints(np.array([[0.0, np.inf]]))


class TestExactFilter:
    def test_single_point_returns_values(self):
        f = FeaturePoints(np.array([[1.0, 2.0]]))
        v = np.array([[3.0, -1.0]])
        assert np.array_equal(gaussian_filter_exact(v, f), v)

    def test_coincident_pair_sums_unit_weights(self):
        f = FeaturePoints(np.zeros((2, 3)))
        out = gaussian_filter_exact(np.array([[1.0, 0.0], [0.0, 1.0]]), f)
        assert np.allclose(out, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)

    def test_three_collinear_points_hand_weights(self):
        """Unit spacing gives weights 1, e^-1/2, e^-2 by direct evaluation."""
        f = FeaturePoints(np.array([[0.0], [1.0], [2.0]]))
        out = gaussian_filter_exact(np.ones((3, 1)), f)
        near, far = math.exp(-0.5), math.exp(-2.0)
        assert np.allclose(out[:, 0], [1 + near + far, near + 1 + near, far + near + 1], atol=1e-12)

    def test_matches_bruteforce_double_loop(self):
        rng = np.random.default_rng(80)
        f = rng.normal(size=(40, 5))
        v = rng.normal(size=(40, 3))
        out = gaussian_filter_exact(v, FeaturePoints(f))
        ref = gaussian_filter_bruteforce(v, f)
        assert np.allclose(out, ref, rtol=1e-10, atol=1e-10)

    def test_operator_is_symmetric(self):
        rng = np.random.default_rng(81)
        f = FeaturePoints(rng.normal(size=(60, 2)))
        u, v = rng.normal(size=(60, 1)), rng.normal(size=(60, 1))
        lhs = float((gaussian_filter_exact(u, f) * v).sum())
        rhs = float((u * gaussian_filter_exact(v, f)).sum())
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_receding_point_receives_less_mass(self):
        """Mass from the cluster decays strictly as the probe moves away."""
        rng = np.random.default_rng(82)
        base = rng.normal(scale=0.4, size=(20, 2))
        masses = []
        for t in (1.0, 1.5, 2.0, 3.0):
            pts = np.vstack([base, [[t, 0.0]]])
            out = gaussian_filter_exact(np.ones(21), FeaturePoints(pts))
            masses.append(float(out[-1]) - 1.0)  # drop the self term
        assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_row_count_mismatch(self):
        f = FeaturePoints(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            gaussian_filter_exact(np.zeros((4, 1)), f)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 131])
    def test_matches_bruteforce_across_strip_edges(self, n):
        """One point, one strip less one row, exactly one strip, one row
        over, and a partial third strip: every pair a strip credits to a
        later row lands there once. Positive values keep rtol meaningful."""
        assert hdfilter.EXACT_STRIP_ROWS == 64
        rng = np.random.default_rng(n)
        f = rng.normal(0.0, 2.0, (n, 5))
        v = np.column_stack([np.ones(n), rng.uniform(0.5, 1.5, (n, 2))])
        out = gaussian_filter_exact(v, FeaturePoints(f))
        np.testing.assert_allclose(out, gaussian_filter_bruteforce(v, f), rtol=1e-12, atol=0.0)

    def test_subnormal_kernel_entries_dropped(self):
        """Squared distances straddle 2 ln(1/tiny), where exp turns subnormal.
        Dropping those entries leaves the all-ones mass bit-identical to the
        unflushed formula and moves other outputs by at most n tiny max|v|."""
        tiny = np.finfo(np.float64).tiny
        rng = np.random.default_rng(84)
        f = rng.uniform(0.0, 60.0, size=(400, 2))
        d2 = cdist(f, f, "sqeuclidean")
        kernel = np.exp(-0.5 * d2)
        assert ((kernel > 0.0) & (kernel < tiny)).sum() > 100
        assert (d2 < -2.0 * math.log(tiny)).mean() > 0.5

        def unflushed(v):
            """The same symmetric strips, summed in the same order."""
            strip, out = hdfilter.EXACT_STRIP_ROWS, np.zeros_like(v)
            for lo in range(0, len(v), strip):
                hi = lo + strip
                k = np.exp(-0.5 * cdist(f[lo:hi], f[lo:], "sqeuclidean"))
                out[lo:hi] += k @ v[lo:]
                out[hi:] += k[:, hi - lo:].T @ v[lo:hi]
            return out

        ones = np.ones((400, 1))
        assert np.array_equal(gaussian_filter_exact(ones, FeaturePoints(f)), unflushed(ones))
        v = rng.normal(size=(400, 3))
        diff = np.abs(gaussian_filter_exact(v, FeaturePoints(f)) - unflushed(v)).max()
        assert diff <= 400 * tiny * np.abs(v).max()

    def test_huge_coordinates_keep_every_term(self):
        """Direct differences lose no term: distances whose squares
        overflow give 0 entries while coincident points keep theirs
        (0, 1e200, 2e200 and 0, 2e200, 2e200), a common offset cancels
        nothing (1e8, 1e8 + 1), and coincident points at the float limit
        keep their pair (1.5e308)."""
        cases = (
            ([[0.0], [1e200], [2e200]], [1.0, 1.0, 1.0]),
            ([[0.0], [2e200], [2e200]], [1.0, 2.0, 2.0]),
            ([[1e8], [1e8 + 1.0]], [1.0 + math.exp(-0.5)] * 2),
            ([[1.5e308, -3.0], [1.5e308, -3.0]], [2.0, 2.0]),
        )
        for coords, mass in cases:
            out = gaussian_filter_exact(np.ones(len(coords)), FeaturePoints(np.array(coords)))
            assert np.allclose(out, mass, rtol=1e-12, atol=0.0), coords

    def test_constant_colour_at_tiny_colour_width(self):
        """Colours over sigma_beta = 1e-7 sit near 2e9 in every row; the
        position term must survive next to them."""
        rng = np.random.default_rng(85)
        image = RgbImage(np.broadcast_to(np.uint8([17, 200, 90]), (6, 5, 3)).copy())
        feats = bilateral_features(image, 2.0, 1e-7)
        v = rng.normal(size=(30, 2))
        out = gaussian_filter_exact(v, feats)
        assert np.allclose(out, gaussian_filter_bruteforce(v, feats.coords), rtol=1e-10, atol=1e-10)

    def test_two_colours_at_tiny_colour_width(self):
        """Colours 0 and 255 over sigma_beta = 1e-7 put the halves at 0 and
        2.55e9; the position term must survive on both sides."""
        rng = np.random.default_rng(86)
        pixels = np.zeros((12, 12, 3), np.uint8)
        pixels[:, 6:] = 255
        feats = bilateral_features(RgbImage(pixels), 2.0, 1e-7)
        v = np.column_stack([np.ones(feats.n), rng.uniform(0.5, 1.5, feats.n)])
        want = gaussian_filter_bruteforce(v, feats.coords)
        np.testing.assert_allclose(gaussian_filter_exact(v, feats), want, rtol=1e-12, atol=0.0)


class TestKernelBlock:
    """The strip kernel behind the exact filter and the sampled gain adds
    squared coordinate differences one dimension at a time."""

    @pytest.mark.parametrize("d", range(1, 8))
    def test_matches_cdist_byte_for_byte(self, d):
        """Negative coordinates, entries either side of the subnormal cut,
        and ~1e160 coordinates whose squared differences overflow to inf
        (a 0 entry, and no warning) or cancel (a coincident huge pair). With
        6007 columns a chunk holds 6 rows, so 37 rows end in a partial one."""
        rng = np.random.default_rng(d)
        rows = rng.uniform(-30.0, 30.0, (37, d))
        cols = rng.uniform(-30.0, 30.0, (6007, d))
        assert hdfilter._chunk_rows(len(cols)) == 6
        rows[3] = 1e160
        cols[7, -1] = -1.2e160
        cols[8] = rows[3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hdfilter._kernel_block(rows, cols)
        assert got.tobytes() == kernel_block_cdist(rows, cols).tobytes()
        assert got[3, 8] == 1.0 and (got[:, 7] == 0.0).all()
        assert ((got > 0.0) & (got < 1e-100)).any()

    @pytest.mark.parametrize("n", [7, 300, 4096, 20011])
    def test_sampled_gain_matches_one_block(self, n):
        """Strips of one kernel chunk give the gain of one block over every
        sampled row and column, bit for bit: each row sums the same columns."""
        rng = np.random.default_rng(n)
        f = rng.normal(0.0, 4.0, (n, 5))
        mass = rng.uniform(0.5, 2.0, n)
        rows = hdfilter._stride_sample(n, hdfilter.GAIN_SAMPLE_ROWS)
        cols = hdfilter._stride_sample(n, hdfilter.GAIN_SAMPLE_COLUMNS)
        exact = kernel_block_cdist(f[rows], f[cols]).sum(axis=1)
        want = float(np.median(exact * (n / len(cols)) / mass[rows]))
        assert hdfilter.sampled_mass_gain(FeaturePoints(f), mass) == want


class TestFold:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(integer_rows())
    def test_keys_rank_rows_lexicographically(self, rows):
        """The fold's keys, ranked densely, are the ranks of the distinct
        rows in lexicographic order, also where its digits pass 2^63 and
        the key, or the key and a column, are renumbered on the way."""
        spans = [int(s) for s in rows.max(axis=0) - rows.min(axis=0) + 1]
        bound, renumbered = 1, "one int64"
        for i, span in enumerate(spans):
            if bound * span >= 2**63:
                bound = len(np.unique(rows[:, :i], axis=0))
                renumbered = "key renumbered"
            if bound * span >= 2**63:
                event("a column renumbered")
                span = len(np.unique(rows[:, i]))
            bound *= span
        event(renumbered)
        keys = hdfilter._fold(rows.T)
        assert keys.dtype == np.int64
        want = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
        assert np.array_equal(np.unique(keys, return_inverse=True)[1], want)


class TestLatticeStructure:
    def test_single_point_creates_one_simplex(self):
        for d in (2, 5):
            lat = PermutohedralLattice(FeaturePoints(np.random.default_rng(d).normal(size=(1, d))))
            assert lat.num_vertices == d + 1
            assert lat.offsets.shape == (1, d + 1)

    def test_identical_points_share_vertices(self):
        pts = np.tile([[0.3, -1.2, 0.7]], (25, 1))
        lat = PermutohedralLattice(FeaturePoints(pts))
        assert lat.num_vertices == 4
        assert (lat.offsets == lat.offsets[0]).all()
        bary = embed_weights(pts)
        assert np.allclose(bary, bary[0])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_barycentric_weights_valid(self, d):
        rng = np.random.default_rng(90 + d)
        b = embed_weights(cluster(rng, 300, d, spread=3.0).coords)
        assert b.min() >= -1e-12
        assert b.max() <= 1.0 + 1e-12
        assert np.abs(b.sum(axis=1) - 1.0).max() <= 1e-6

    def test_every_referenced_vertex_exists(self):
        rng = np.random.default_rng(94)
        lat = PermutohedralLattice(cluster(rng, 100, 2, spread=2.0))
        assert lat.offsets.min() >= 1
        assert lat.offsets.max() <= lat.num_vertices

    def test_blur_links_have_reverse_links(self):
        """If u is v's lower neighbor along axis j, v is u's upper neighbor."""
        rng = np.random.default_rng(95)
        lat = PermutohedralLattice(cluster(rng, 100, 2, spread=2.0))
        for j in range(lat.dim + 1):
            for v in range(1, lat.num_vertices + 1):
                u = int(lat.blur_n1[j, v])
                if u != 0:
                    assert int(lat.blur_n2[j, u]) == v
                w = int(lat.blur_n2[j, v])
                if w != 0:
                    assert int(lat.blur_n1[j, w]) == v

    def test_vertex_keys_unique(self):
        rng = np.random.default_rng(96)
        lat = PermutohedralLattice(cluster(rng, 200, 3, spread=2.0))
        assert len(np.unique(lat.vertex_keys, axis=0)) == lat.num_vertices

    def test_wide_coordinate_fallback_keeps_invariants(self):
        """Huge feature magnitudes make folded keys that pass 2^63 and are
        renumbered; every blur link must still have its reverse link."""
        rng = np.random.default_rng(97)
        pts = rng.normal(scale=3e8, size=(40, 5))
        lat = PermutohedralLattice(FeaturePoints(pts))
        b = embed_weights(pts)
        assert b.min() >= -1e-12 and np.abs(b.sum(axis=1) - 1).max() <= 1e-6
        for j in range(lat.dim + 1):
            for v in range(1, lat.num_vertices + 1):
                u = int(lat.blur_n1[j, v])
                if u != 0:
                    assert int(lat.blur_n2[j, u]) == v

    def test_features_past_exact_key_range_rejected(self):
        """Past 2^40 embedded units, such as colors over a 1e-20 kernel
        width, float rounding gives keys outside the simplex: refused."""
        rng = np.random.default_rng(98)
        colors = rng.integers(0, 256, (6, 5)).astype(np.float64)
        with pytest.raises(ValueError, match="wider kernels"):
            PermutohedralLattice(FeaturePoints(colors / 1e-20))
        with pytest.raises(ValueError, match="wider kernels"):
            PermutohedralLattice(FeaturePoints(np.array([[0.0, 2.0**40 / 6]])))
        PermutohedralLattice(FeaturePoints(np.array([[0.0, 2.0**40 / 6.5]])))

    def test_too_narrow_point_in_a_late_embed_block_is_refused(self):
        """The kernel-width check covers every point before the first
        block is embedded."""
        pts = np.zeros((2 * hdfilter.EMBED_BLOCK_POINTS + 5, 2))
        pts[-1, 1] = 2.0**40 / 6
        with pytest.raises(ValueError, match="wider kernels"):
            PermutohedralLattice(FeaturePoints(pts))

    @pytest.mark.parametrize("d", [2, 5])
    def test_embed_blocks_equal_one_whole_array_pass(self, d, monkeypatch):
        """`_embed` runs per block of EMBED_BLOCK_POINTS points; with a
        partial last block its outputs are the bits of one block holding
        every point. Half the points are integers, whose elevated
        remainders tie."""
        rng = np.random.default_rng(140 + d)
        n = 2 * hdfilter.EMBED_BLOCK_POINTS + 777
        pts = rng.normal(scale=4.0, size=(n, d))
        pts[::2] = rng.integers(-6, 7, size=(len(pts[::2]), d))
        blocked = hdfilter._embed(pts)
        monkeypatch.setattr(hdfilter, "EMBED_BLOCK_POINTS", n)
        whole = hdfilter._embed(pts)
        for got, want in zip(blocked, whole, strict=True):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("scale", [1.0, 1.0 / 3.0, 3e8])
    def test_embed_matches_direct_construction(self, d, scale):
        """Sort-based ranks, scattered barycentric weights and folded keys
        reproduce the direct construction bit for bit. Integer coordinates
        tie elevated remainders; at 3e8 the folded keys are renumbered."""
        rng = np.random.default_rng(130 + d)
        pts = rng.integers(-6, 7, size=(400, d)).astype(np.float64) * scale
        lat = PermutohedralLattice(FeaturePoints(pts))
        offsets, bary, keys, n1, n2 = lattice_embed_reference(pts)
        assert np.array_equal(lat.offsets, offsets)
        assert np.array_equal(embed_weights(pts), bary)
        assert np.array_equal(lat.vertex_keys, keys)
        assert np.array_equal(lat.blur_n1, n1)
        assert np.array_equal(lat.blur_n2, n2)

    @pytest.mark.parametrize("d, far", [(1, 0.0), (2, 0.0), (5, 0.0), (8, 0.0),
                                        (2, 3e9), (5, 3e9), (8, 3e9)])
    def test_embed_matches_direct_construction_when_points_share_simplices(self, d, far):
        """The build keys each simplex once; with many points per simplex
        every structure must still match the direct construction, also
        where the folded keys are renumbered."""
        pts = grid_with_flat_halves(d, far)
        lat = PermutohedralLattice(FeaturePoints(pts))
        assert len(np.unique(lat.offsets, axis=0)) <= len(pts) // 4
        assert_matches_direct_construction(lat, pts)

    @pytest.mark.parametrize("kernel", ["spatial", "flat bilateral", "narrow bilateral"])
    def test_embed_matches_direct_construction_on_pixel_features(self, kernel):
        """A 60x45 pixel grid at sigma_gamma 3, a flat-colour image's
        bilateral features, and a rendered scene's at sigma_beta 1e-6, whose
        colour keys span about 2^30 each, so the folded keys are renumbered."""
        if kernel == "spatial":
            feats = spatial_features(45, 60, 3.0)
        elif kernel == "flat bilateral":
            feats = bilateral_features(RgbImage(np.full((45, 60, 3), 120, np.uint8)), 4.0, 5.0)
        else:
            image = render_scene(bench_scene(45, 60, 21, 0))[0]
            feats = bilateral_features(image, 60.0, 1e-6)
        lat = PermutohedralLattice(feats)
        assert_matches_direct_construction(lat, feats.coords)

    @pytest.mark.parametrize("d", [7, 15])
    def test_simplex_keys_renumber_before_overflow(self, d):
        """Points one lattice step apart share their rank permutation, so
        their simplex keys differ only in the home vertex's digits. Those
        digits pass 2^63, so the key must be renumbered on the way; without
        that, homes collided and the structures differed from the direct
        construction. At d = 15, 15 home coordinates span about 2^6.6
        each; at d = 7, four span about 2^24 each and the other three are
        constant."""
        rng = np.random.default_rng(4)
        # Feature-space moves of the elevated point by (d+1) (e_j - e_d),
        # lattice vectors that keep every remainder and so every rank.
        moves = (d + 1) * (np.eye(d + 1)[:-1] - np.eye(d + 1)[-1])
        t = np.linalg.lstsq(hdfilter._elevate(np.eye(d)), moves.T, rcond=None)[0].T
        if d == 15:
            steps = rng.integers(-3, 4, size=(300, d))
        else:
            steps = np.zeros((64, d), dtype=np.int64)
            steps[:, :4] = rng.integers(-2**20, 2**20, size=(64, 4))
        pts = rng.normal(size=d) + steps @ t
        lat = PermutohedralLattice(FeaturePoints(pts))
        # the home vertex is every point's corner 0; the rank digits are
        # constant, so the home spans alone decide whether the fold renumbers
        home = lat.vertex_keys[lat.offsets[:, 0] - 1]
        assert math.prod(int(s) for s in home.max(axis=0) - home.min(axis=0) + 1) >= 2**63
        assert_matches_direct_construction(lat, pts)

    @pytest.mark.parametrize("kernel", ["bilateral", "spatial"])
    def test_build_scratch_per_point_corner(self, kernel):
        """Building a 252x188 lattice allocates at most 80 traced bytes per
        point corner (n (d+1)) above what it started with; the build kept
        about 20 float64 and int64 (n, d+1) arrays alive at once when it
        took 161-166 B, and takes 38-42 B. Its vertex ids are the splat's
        indices, and its neighbour ids the blur matrices', not copies."""
        image = render_scene(bench_scene(252, 188, 21, 0))[0]
        params = PairwiseParams()
        feats = (bilateral_features(image, params.sigma_alpha, params.sigma_beta)
                 if kernel == "bilateral" else spatial_features(252, 188, params.sigma_gamma))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            lat = PermutohedralLattice(feats)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak / (feats.n * (feats.d + 1)) <= 80
        assert np.shares_memory(lat.offsets, lat._splat.indices)
        for j, blur in enumerate(lat._blur):
            assert np.shares_memory(lat.blur_n1[j], blur.indices)
            assert np.shares_memory(lat.blur_n2[j], blur.indices)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_elevation_matches_basis_product(self, d):
        """The running-sum elevation equals the product with the explicit
        projection basis within 1e-12 of the largest entry: only the
        summation order differs."""
        coords = np.random.default_rng(140 + d).normal(scale=50.0, size=(500, d))
        idx = np.arange(d, dtype=np.float64)
        scale = ((d + 1) * np.sqrt(2.0 / 3.0)) / np.sqrt((idx + 1.0) * (idx + 2.0))
        basis = np.zeros((d + 1, d))
        basis[0, :] = 1.0
        for j in range(1, d + 1):
            basis[j, j - 1] = -float(j)
            basis[j, j:] = 1.0
        want = (coords * scale) @ basis.T
        got = hdfilter._elevate(coords).T
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(edge_points())
    def test_blur_neighbours_match_direct_construction(self, pts):
        """Neighbours come from folding the vertex keys together with one
        moved copy per direction and a sorted lookup, with no validity mask;
        each found link also gives the reverse one. They must be the direct
        construction's, at the edges of the key ranges too, and also where
        the folded keys are renumbered."""
        lat = PermutohedralLattice(FeaturePoints(pts))
        offsets, bary, keys, n1, n2 = lattice_embed_reference(pts)
        spans = keys.max(axis=0) - keys.min(axis=0) + 1
        event("vertex keys renumbered" if math.prod(int(s) for s in spans) >= 2**63
              else "vertex keys in one int64")
        assert np.array_equal(lat.vertex_keys, keys)
        assert np.array_equal(lat.offsets, offsets)
        assert np.array_equal(lat.blur_n1, n1)
        assert np.array_equal(lat.blur_n2, n2)

    def test_build_is_deterministic(self):
        rng = np.random.default_rng(98)
        pts = rng.normal(size=(150, 5))
        a = PermutohedralLattice(FeaturePoints(pts))
        b = PermutohedralLattice(FeaturePoints(pts))
        assert np.array_equal(a.vertex_keys, b.vertex_keys)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a._splat.data, b._splat.data)
        assert np.array_equal(a._slice.data, b._slice.data)
        assert np.array_equal(embed_weights(pts), embed_weights(pts))


class TestCalibratedSlice:
    @pytest.mark.parametrize("gain", [None, "scalar", "per point"])
    @pytest.mark.parametrize("kernel", ["spatial", "bilateral"])
    def test_slice_is_embed_weights_times_alpha_and_gain(self, kernel, gain):
        """The slice weights are float32(weight * alpha * gain) from the
        build's own float64 weights, bit for bit, and the lattice keeps no
        float64 array with one row per point once they are written."""
        if kernel == "spatial":
            feats = spatial_features(45, 60, 3.0)
        else:
            feats = bilateral_features(render_scene(bench_scene(45, 60, 21, 0))[0], 60.0, 10.0)
        calibrate = {
            None: None,
            "scalar": lambda mass: hdfilter.sampled_mass_gain(feats, mass),
            "per point": lambda mass: np.linspace(0.5, 2.0, len(mass)) / mass,
        }[gain]
        lat = PermutohedralLattice(feats, calibrate)
        d = feats.d
        scale = 2.0 ** (d + 1) / (1.0 + 2.0 ** -d)
        if gain is not None:
            assert lat.gain.dtype == np.float32 and lat.gain.size == (1 if gain == "scalar" else feats.n)
            scale = scale * lat.gain.astype(np.float64)
        want = (embed_weights(feats.coords) * np.asarray(scale)[..., None]).astype(np.float32)
        assert lat._slice.data.tobytes() == want.tobytes()

        def arrays(value):
            if isinstance(value, list):
                return [a for item in value for a in arrays(item)]
            if scipy.sparse.issparse(value):
                return [value.data, value.indices, value.indptr]
            return [value] if isinstance(value, np.ndarray) else []

        kept = [a for value in vars(lat).values() for a in arrays(value)]
        assert not [a for a in kept if a.dtype == np.float64 and len(a) == feats.n]


class TestLatticeFilter:
    def test_constant_is_fixed_point_after_normalization(self):
        rng = np.random.default_rng(100)
        for d, c in ((2, 1.0), (5, 2.5)):
            lat = PermutohedralLattice(cluster(rng, 400, d, spread=1.5))
            out = lattice_filter_normalized(lat, np.full((400, 2), c, dtype=np.float64))
            assert np.abs(out - c).max() < 1e-4

    def test_dense_cluster_matches_exact_after_scale_calibration(self):
        """200 clustered d=5 points: one fitted scalar brings raw output
        within 5% relative L2 of the exact filter."""
        rng = np.random.default_rng(101)
        feats = cluster(rng, 200, 5, spread=0.4)
        v = rng.random(size=(200, 3))
        approx = PermutohedralLattice(feats).filter(v).astype(np.float64)
        exact = gaussian_filter_exact(v, feats)
        scale = float((exact * approx).sum() / (approx * approx).sum())
        assert relative_l2(scale * approx, exact) <= 0.05

    def test_normalized_matches_normalized_exact(self):
        rng = np.random.default_rng(102)
        for d in (2, 5):
            feats = cluster(rng, 500, d, spread=0.8)
            v = rng.random(size=(500, 2))
            approx = lattice_filter_normalized(PermutohedralLattice(feats), v).astype(np.float64)
            exact = gaussian_filter_exact(v, feats)
            exact /= gaussian_filter_exact(np.ones(500), feats)[:, None]
            assert relative_l2(approx, exact) <= 0.05

    def test_far_clusters_do_not_interact(self):
        """Clusters separated by many kernel widths exchange < 0.1% influence."""
        rng = np.random.default_rng(103)
        a = rng.normal(scale=0.5, size=(60, 2))
        b = rng.normal(scale=0.5, size=(60, 2)) + 40.0
        feats = FeaturePoints(np.vstack([a, b]))
        indicator = np.zeros((120, 1))
        indicator[:60] = 1.0
        out = PermutohedralLattice(feats).filter(indicator)
        within = float(np.abs(out[:60]).mean())
        across = float(np.abs(out[60:]).max())
        assert across <= 1e-3 * within

    def test_filter_linear_and_deterministic(self):
        rng = np.random.default_rng(104)
        feats = cluster(rng, 120, 3, spread=1.0)
        lat = PermutohedralLattice(feats)
        u = rng.normal(size=(120, 2)).astype(np.float32)
        w = rng.normal(size=(120, 2)).astype(np.float32)
        both = lat.filter(np.hstack([u, w]))
        assert np.array_equal(both, lat.filter(np.hstack([u, w])))
        sep = np.hstack([lat.filter(u), lat.filter(w)])
        assert np.allclose(both, sep, rtol=1e-5, atol=1e-5)

    def test_single_point_normalized_identity(self):
        lat = PermutohedralLattice(FeaturePoints(np.array([[0.7, -0.2, 1.1, 0.0, 3.0]])))
        out = lattice_filter_normalized(lat, np.array([[4.0, -2.0]]))
        assert np.allclose(out, [[4.0, -2.0]], atol=1e-5)

    def test_one_dimensional_values_round_trip_shape(self):
        rng = np.random.default_rng(105)
        feats = cluster(rng, 30, 2)
        out = PermutohedralLattice(feats).filter(np.ones(30))
        assert out.shape == (30,)

    @pytest.mark.parametrize("columns", [1, 21, 63])
    @pytest.mark.parametrize("d", [2, 5])
    def test_refilter_repeats_the_whole_filter_bit_for_bit(self, d, columns):
        """After values change at a few rows, refilter's stages equal those
        of a whole filter call and slice_rows its output, bit for bit, on
        the rows it names, and every other output row is unchanged."""
        rng = np.random.default_rng(170 + d)
        image = RgbImage(rng.integers(0, 256, (40, 36, 3), dtype=np.uint8))
        if d == 2:
            feats = spatial_features(40, 36, 3.0)
        else:
            feats = bilateral_features(image, 20.0, 30.0)
        lat = PermutohedralLattice(feats, lambda mass: 1.7 / mass)
        values = rng.random((feats.n, columns)).astype(np.float32)
        stages = lat.splat_blur(values, stages=[])
        before = lat.slice_rows(slice(0, feats.n), stages)
        for changed in ([], [0], [feats.n - 1], sorted(rng.choice(feats.n, 40, replace=False))):
            values = values.copy()
            values[changed] = rng.random((len(changed), columns)).astype(np.float32)
            rows = lat.refilter(values, np.asarray(changed, np.intp), stages)
            whole = lat.splat_blur(values, stages=[])
            want = lat.slice_rows(slice(0, feats.n), whole)
            assert all(np.array_equal(a, b) for a, b in zip(stages, whole, strict=True))
            assert np.array_equal(lat.slice_rows(rows, stages), want[rows])
            kept = np.setdiff1d(np.arange(feats.n), rows)
            assert np.array_equal(want[kept], before[kept])
            assert set(changed) <= set(rows.tolist())
            assert len(rows) < feats.n or len(changed) > 1
            before = want

    def test_row_blocks_equal_the_whole_filter_under_threads(self):
        """Slicing row blocks of splat_blur's vertex values gives the whole
        filter's rows bit for bit. Threads share a lattice (tune's spatial
        kernel): eight threads slicing every block in their own orders all
        get those bytes, and the lattice's attributes are the same objects
        with the same contents afterwards, so slicing keeps no state."""
        rng = np.random.default_rng(175)
        feats = spatial_features(40, 36, 3.0)
        lat = PermutohedralLattice(feats, lambda mass: 1.7 / mass)
        values = rng.random((feats.n, 21)).astype(np.float32)
        vertices, want = lat.splat_blur(values), lat.filter(values)
        blocks = [slice(lo, min(lo + 37, feats.n)) for lo in range(0, feats.n, 37)]
        blocks.append(slice(0, feats.n))
        wrong = []

        def snapshot():
            return {name: (id(value), {k: id(v) for k, v in value.items()}
                           if isinstance(value, dict) else None)
                    for name, value in vars(lat).items()}

        before = snapshot()

        def slice_all(seed):
            for k in np.random.default_rng(seed).permutation(len(blocks)):
                if not np.array_equal(lat.slice_rows(blocks[k], vertices), want[blocks[k]]):
                    wrong.append(blocks[k])

        threads = [threading.Thread(target=slice_all, args=(seed,)) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert snapshot() == before

    def test_row_count_mismatch(self):
        lat = PermutohedralLattice(FeaturePoints(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            lat.filter(np.zeros((4, 1)))

    @pytest.mark.parametrize("columns", [1, 21, 63])
    @pytest.mark.parametrize("d", [2, 5])
    def test_matches_float64_reference(self, d, columns):
        """The float32 filter, alpha folded into its slice weights, against
        the same splat, blur and slice in float64. Inputs and outputs are
        positive, so the error is taken per entry; the worst measured over
        six seeds on such features was 5.2e-7 relative (4.4 float32 eps) and
        the bound is 8 float32 eps."""
        rng = np.random.default_rng(150 + d)
        h, w = 45, 50
        if d == 2:
            feats = FeaturePoints(np.mgrid[0:h, 0:w].reshape(2, -1).T / 3.0)
        else:
            blocks = rng.integers(0, 256, (h // 8 + 1, w // 8 + 1, 3))
            pixels = np.repeat(np.repeat(blocks, 8, 0), 8, 1)[:h, :w].astype(np.uint8)
            feats = bilateral_features(RgbImage(pixels), 20.0, 5.0)
        lat = PermutohedralLattice(feats)
        v = rng.random((feats.n, columns)).astype(np.float32)
        want = lattice_filter_reference(lat, feats.coords, v)
        got = lat.filter(v).astype(np.float64)
        assert (np.abs(got - want) / want).max() <= 8 * np.finfo(np.float32).eps

    def test_timer_accumulates_stages(self):
        rng = np.random.default_rng(106)
        lat = PermutohedralLattice(cluster(rng, 50, 2))
        timer: dict[str, float] = {}
        lat.filter(np.ones((50, 1)), timer=timer)
        assert set(timer) == {"splat", "blur", "slice"}
        assert all(v >= 0.0 for v in timer.values())
