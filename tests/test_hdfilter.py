"""Exact Gaussian filter oracle and permutohedral lattice approximation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from denseseg.core import RgbImage, ShapeError
from denseseg.densecrf import bilateral_features
from denseseg.hdfilter import (
    FeaturePoints,
    PermutohedralLattice,
    gaussian_filter_exact,
    lattice_filter_normalized,
)
from oracles import gaussian_filter_bruteforce, lattice_embed_reference, relative_l2


@st.composite
def edge_points(draw):
    """Small sets of points on integer grids whose spans sit at and next to
    powers of two, so key ranges often fill their packed fields exactly and
    boundary vertices have neighbours just outside them. The largest scale
    the lattice accepts takes the wide-key path for d >= 2."""
    d = draw(st.integers(1, 6))
    span = draw(st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 255, 256]))
    rows = draw(st.lists(st.lists(st.integers(-span, span), min_size=d, max_size=d),
                         min_size=1, max_size=40))
    wide = 2.0**38 / (d * (d + 1) * span)
    unit = draw(st.sampled_from([1.0, 0.5, 1.0 / 3.0, 1.0 / (d + 1), 0.37, wide]))
    return np.array(rows, dtype=np.float64) * unit


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

    def test_blocked_evaluation_matches_unblocked(self):
        rng = np.random.default_rng(83)
        f = FeaturePoints(rng.normal(size=(50, 3)))
        v = rng.normal(size=(50, 2))
        a = gaussian_filter_exact(v, f, block_size=7)
        b = gaussian_filter_exact(v, f, block_size=4096)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_subnormal_kernel_entries_dropped(self):
        """Squared distances straddle 2 ln(1/tiny), where exp turns subnormal.
        Dropping those entries leaves the all-ones mass bit-identical to the
        unflushed formula and moves other outputs by at most n tiny max|v|."""
        tiny = np.finfo(np.float64).tiny
        rng = np.random.default_rng(84)
        f = rng.uniform(0.0, 60.0, size=(400, 2))
        c = f - (f.min(axis=0) / 2 + f.max(axis=0) / 2)
        sq = np.einsum("ij,ij->i", c, c)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (c @ c.T), 0.0)
        np.fill_diagonal(d2, 0.0)
        kernel = np.exp(-0.5 * d2)
        assert ((kernel > 0.0) & (kernel < tiny)).sum() > 100
        assert (d2 < -2.0 * math.log(tiny)).mean() > 0.5

        ones = np.ones((400, 1))
        assert np.array_equal(gaussian_filter_exact(ones, FeaturePoints(f)), kernel @ ones)
        v = rng.normal(size=(400, 3))
        diff = np.abs(gaussian_filter_exact(v, FeaturePoints(f)) - kernel @ v).max()
        assert diff <= 400 * tiny * np.abs(v).max()

    def test_huge_coordinates_keep_every_term(self):
        """Centring keeps the identity from overflowing (0, 1e200, 2e200)
        or cancelling (1e8, 1e8 + 1); the midrange centre cannot overflow
        where the mean would (two points at 1.5e308)."""
        cases = (
            ([[0.0], [1e200], [2e200]], [1.0, 1.0, 1.0]),
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
        assert np.allclose(lat.barycentric, lat.barycentric[0])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_barycentric_weights_valid(self, d):
        rng = np.random.default_rng(90 + d)
        lat = PermutohedralLattice(cluster(rng, 300, d, spread=3.0))
        b = lat.barycentric
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
        """Huge feature magnitudes overflow packed keys; the row lookup must hold."""
        rng = np.random.default_rng(97)
        lat = PermutohedralLattice(FeaturePoints(rng.normal(scale=3e8, size=(40, 5))))
        b = lat.barycentric
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

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("scale", [1.0, 1.0 / 3.0, 3e8])
    def test_embed_matches_direct_construction(self, d, scale):
        """Sort-based ranks, scattered barycentric weights and incrementally
        packed keys reproduce the direct construction bit for bit. Integer
        coordinates tie elevated remainders; 3e8 takes the wide-key path."""
        rng = np.random.default_rng(130 + d)
        pts = rng.integers(-6, 7, size=(400, d)).astype(np.float64) * scale
        lat = PermutohedralLattice(FeaturePoints(pts))
        offsets, bary, keys, n1, n2 = lattice_embed_reference(pts)
        assert lat._packable == (scale < 1e6)
        assert np.array_equal(lat.offsets, offsets)
        assert np.array_equal(lat.barycentric, bary)
        assert np.array_equal(lat.vertex_keys, keys)
        assert np.array_equal(lat.blur_n1, n1)
        assert np.array_equal(lat.blur_n2, n2)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(edge_points())
    def test_blur_neighbours_match_direct_construction(self, pts):
        """Packed neighbours come from uniq +- a constant per direction with
        no validity mask; wide keys from a sorted row lookup. Both must give
        the direct construction's neighbour ids, field edges included."""
        lat = PermutohedralLattice(FeaturePoints(pts))
        offsets, bary, keys, n1, n2 = lattice_embed_reference(pts)
        span = keys.max(axis=0) - keys.min(axis=0)
        event("wide keys" if not lat._packable else
              "a field exactly full" if (span & (span + 1) == 0).any() else "packed")
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
        assert np.array_equal(a.barycentric, b.barycentric)


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

    def test_row_count_mismatch(self):
        lat = PermutohedralLattice(FeaturePoints(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            lat.filter(np.zeros((4, 1)))

    def test_timer_accumulates_stages(self):
        rng = np.random.default_rng(106)
        lat = PermutohedralLattice(cluster(rng, 50, 2))
        timer: dict[str, float] = {}
        lat.filter(np.ones((50, 1)), timer=timer)
        assert set(timer) == {"splat", "blur", "slice"}
        assert all(v >= 0.0 for v in timer.values())
