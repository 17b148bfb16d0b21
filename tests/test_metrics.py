"""Confusion counts, IOU aggregation, and boundary-band scoring."""

from __future__ import annotations

import numpy as np
import pytest

from denseseg.core import LabelMap, ShapeError
from denseseg.metrics import (
    ConfusionMatrix,
    TrimapBand,
    UndefinedMetricError,
    confusion,
    mean_iou,
    per_class_iou,
    trimap_mask,
    trimap_miou,
)
from oracles import confusion_bruteforce, mean_iou_bruteforce, trimap_band_bruteforce


def lmap(rows):
    return LabelMap(np.asarray(rows, dtype=np.uint8))


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        gt = lmap([[0, 1], [2, 1]])
        cm = confusion(gt, gt, 3)
        assert np.array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_all_zero_gt_predicted_one(self):
        gt = lmap(np.zeros((2, 2)))
        pred = lmap(np.ones((2, 2)))
        cm = confusion(pred, gt, 2)
        assert cm.counts[0, 1] == 4
        assert cm.counts.sum() == 4

    def test_ignore_label_excluded(self):
        gt = lmap([[0, 255], [1, 1]])
        pred = lmap([[0, 0], [255, 1]])
        cm = confusion(pred, gt, 2)
        assert cm.counts.sum() == 2
        assert cm.counts[0, 0] == 1 and cm.counts[1, 1] == 1

    def test_matches_bruteforce_tally(self):
        rng = np.random.default_rng(7)
        gt = rng.integers(0, 5, size=(8, 8)).astype(np.uint8)
        gt[0, 0] = 255
        pred = rng.integers(0, 5, size=(8, 8)).astype(np.uint8)
        cm = confusion(lmap(pred), lmap(gt), 5)
        assert np.array_equal(cm.counts, confusion_bruteforce(pred, gt, 5))

    def test_mask_restricts_counts(self):
        rng = np.random.default_rng(8)
        gt = rng.integers(0, 3, size=(6, 6)).astype(np.uint8)
        pred = rng.integers(0, 3, size=(6, 6)).astype(np.uint8)
        mask = rng.random((6, 6)) < 0.5
        cm = confusion(lmap(pred), lmap(gt), 3, mask=mask)
        assert np.array_equal(cm.counts, confusion_bruteforce(pred, gt, 3, mask))

    def test_full_mask_equals_no_mask(self):
        rng = np.random.default_rng(9)
        gt = rng.integers(0, 4, size=(5, 7)).astype(np.uint8)
        pred = rng.integers(0, 4, size=(5, 7)).astype(np.uint8)
        a = confusion(lmap(pred), lmap(gt), 4)
        b = confusion(lmap(pred), lmap(gt), 4, mask=np.ones((5, 7), dtype=bool))
        assert np.array_equal(a.counts, b.counts)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            confusion(lmap(np.zeros((2, 2))), lmap(np.zeros((2, 3))), 2)

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            confusion(lmap([[5]]), lmap([[0]]), 2)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]))

    @pytest.mark.parametrize("entry", [2.5, np.nan, np.inf, -np.inf, 1e300, 2.0**63])
    def test_counts_must_be_whole_numbers_within_int64(self, entry):
        """No entry is rounded or wrapped by the cast to int64."""
        with pytest.raises(ValueError, match="ConfusionMatrix.counts must hold whole numbers"):
            ConfusionMatrix(np.array([[entry, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("counts", [
        np.array([[3, 1], [0, 2]]),
        np.array([[3, 1], [0, 2]], np.int32),
        np.array([[3.0, 1.0], [0.0, 2.0**62]]),
    ])
    def test_integer_and_whole_float_counts_stored_unchanged(self, counts):
        got = ConfusionMatrix(counts).counts
        assert got.dtype == np.int64
        assert np.array_equal(got, counts)
        if counts.dtype == np.int64:
            assert got is counts


class TestMeanIou:
    def test_perfect_three_classes(self):
        cm = ConfusionMatrix(np.diag([4, 2, 9]))
        assert mean_iou(cm) == 1.0

    def test_half_of_class_zero_flipped(self):
        # gt has 4 pixels each of classes 0 and 1; two class-0 pixels are
        # predicted 1. IOU_0 = 2/(4+2-2), IOU_1 = 4/(4+6-4).
        cm = ConfusionMatrix(np.array([[2, 2], [0, 4]]))
        assert mean_iou(cm) == pytest.approx((0.5 + 4 / 6) / 2, abs=1e-12)

    def test_absent_class_excluded(self):
        cm = ConfusionMatrix(np.array([[3, 0, 0], [0, 5, 0], [0, 0, 0]]))
        assert mean_iou(cm) == 1.0
        assert np.isnan(per_class_iou(cm)[2])

    def test_all_classes_empty(self):
        with pytest.raises(UndefinedMetricError):
            mean_iou(ConfusionMatrix(np.zeros((3, 3))))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            counts = rng.integers(0, 9, size=(4, 4))
            counts[3] = 0
            counts[:, 3] = 0
            cm = ConfusionMatrix(counts)
            assert mean_iou(cm) == pytest.approx(mean_iou_bruteforce(counts), abs=1e-12)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(11)
        gt = rng.integers(0, 4, size=(8, 8)).astype(np.uint8)
        pred = rng.integers(0, 4, size=(8, 8)).astype(np.uint8)
        perm = np.array([2, 0, 3, 1], dtype=np.uint8)
        a = mean_iou(confusion(lmap(pred), lmap(gt), 4))
        b = mean_iou(confusion(lmap(perm[pred]), lmap(perm[gt]), 4))
        assert a == pytest.approx(b, abs=1e-12)

    def test_bounded_and_diagonal_iff_one(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            counts = rng.integers(0, 6, size=(3, 3))
            if counts.sum() == 0:
                continue
            v = mean_iou(ConfusionMatrix(counts))
            assert 0.0 <= v <= 1.0
            offdiag = counts - np.diag(np.diag(counts))
            if v == 1.0:
                assert not offdiag.any()


class TestTrimap:
    def test_constant_map_has_empty_band(self):
        band = trimap_mask(lmap(np.zeros((6, 6))), 3)
        assert not band.mask.any()

    def test_vertical_edge_width_two_gives_four_columns(self):
        gt = np.zeros((8, 8), dtype=np.uint8)
        gt[:, 4:] = 1
        band = trimap_mask(lmap(gt), 2)
        expected = np.zeros((8, 8), dtype=bool)
        expected[:, 2:6] = True
        assert np.array_equal(band.mask, expected)

    def test_width_one_marks_boundary_pixels_only(self):
        gt = np.zeros((5, 5), dtype=np.uint8)
        gt[:, 3:] = 1
        band = trimap_mask(lmap(gt), 1)
        expected = np.zeros((5, 5), dtype=bool)
        expected[:, 2:4] = True
        assert np.array_equal(band.mask, expected)

    def test_huge_width_covers_everything(self):
        gt = np.zeros((6, 9), dtype=np.uint8)
        gt[2, 3] = 1
        band = trimap_mask(lmap(gt), 16)
        assert band.mask.all()

    def test_matches_bruteforce_band(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            gt = rng.integers(0, 3, size=(8, 8)).astype(np.uint8)
            for width in (1, 2, 3):
                band = trimap_mask(lmap(gt), width)
                assert np.array_equal(band.mask, trimap_band_bruteforce(gt, width))

    def test_monotone_in_width(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            gt = rng.integers(0, 4, size=(10, 10)).astype(np.uint8)
            prev = trimap_mask(lmap(gt), 1).mask
            for width in (2, 3, 5):
                cur = trimap_mask(lmap(gt), width).mask
                assert (prev <= cur).all()
                prev = cur

    def test_width_past_int32_equals_width_past_image(self):
        """Dilation steps stop at max(h, w), where the band already covers
        the image: a width of 2^40 gives the same band, with no overflow."""
        gt = np.zeros((6, 9), dtype=np.uint8)
        gt[2, 3] = 1
        assert np.array_equal(trimap_mask(lmap(gt), 2**40).mask,
                              trimap_mask(lmap(gt), 9 + 1).mask)

    @pytest.mark.parametrize("entry", [0.5, np.nan, np.inf, 2, -1])
    def test_mask_must_hold_only_0_and_1(self, entry):
        """No entry becomes True or False by the cast to bool."""
        mask = np.array([[entry, 0], [1, 0]], dtype=np.asarray(entry).dtype)
        with pytest.raises(ValueError, match="TrimapBand.mask must hold only 0 and 1"):
            TrimapBand(1, mask)

    @pytest.mark.parametrize("mask", [
        np.eye(2, dtype=bool), np.eye(2, dtype=np.uint8), np.eye(2),
    ])
    def test_bool_and_0_1_masks_stored_unchanged(self, mask):
        got = TrimapBand(1, mask).mask
        assert got.dtype == bool
        assert np.array_equal(got, mask)
        if mask.dtype == bool:
            assert got is mask

    def test_width_zero_rejected(self):
        with pytest.raises(ValueError):
            trimap_mask(lmap(np.zeros((3, 3))), 0)
        with pytest.raises(ValueError):
            TrimapBand(0, np.zeros((2, 2), dtype=bool))


class TestTrimapMiou:
    def test_perfect_prediction_scores_one(self):
        gt = np.zeros((8, 8), dtype=np.uint8)
        gt[2:6, 2:6] = 1
        for width in (1, 2, 4):
            assert trimap_miou(lmap(gt), lmap(gt), 2, width) == 1.0

    def test_eroded_prediction_worse_at_narrow_band(self):
        gt = np.zeros((16, 16), dtype=np.uint8)
        gt[4:12, 4:12] = 1
        pred = np.zeros((16, 16), dtype=np.uint8)
        pred[5:11, 5:11] = 1  # shrunk by one pixel: errors hug the boundary
        narrow = trimap_miou(lmap(pred), lmap(gt), 2, 2)
        wide = trimap_miou(lmap(pred), lmap(gt), 2, 10)
        assert narrow < wide

    def test_errors_outside_band_invisible(self):
        gt = np.zeros((12, 12), dtype=np.uint8)
        gt[:, 6:] = 1
        pred = gt.copy()
        pred[0, 0] = 1  # far from the edge
        assert trimap_miou(lmap(pred), lmap(gt), 2, 2) == 1.0

    def test_constant_gt_undefined(self):
        with pytest.raises(UndefinedMetricError):
            trimap_miou(lmap(np.zeros((4, 4))), lmap(np.zeros((4, 4))), 2, 2)

    def test_matches_oracle_composition(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            gt = rng.integers(0, 3, size=(8, 8)).astype(np.uint8)
            pred = rng.integers(0, 3, size=(8, 8)).astype(np.uint8)
            band = trimap_band_bruteforce(gt, 2)
            if not band.any():
                continue
            expect = mean_iou_bruteforce(confusion_bruteforce(pred, gt, 3, band))
            got = trimap_miou(lmap(pred), lmap(gt), 3, 2)
            assert got == pytest.approx(expect, abs=1e-12)
