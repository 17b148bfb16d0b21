"""Segmentation quality metrics.

Confusion counts, per-class and mean intersection-over-union, and
boundary-band ("trimap") restricted scoring.  Label 255 marks ignored
pixels and never enters any count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelMap, ShapeError, _store

IGNORE_LABEL = 255


def check_label_count(labels: int) -> None:
    """Label maps hold ids below IGNORE_LABEL, the ignore label."""
    if labels > IGNORE_LABEL:
        raise ShapeError(f"label maps hold at most {IGNORE_LABEL} classes (ids 0-"
                         f"{IGNORE_LABEL - 1}; {IGNORE_LABEL} is the ignore label), got {labels}")


class UndefinedMetricError(ValueError):
    """Raised when no class has any pixels to score."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count table; entry (g, p) = pixels with truth g predicted p."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        c = _store(self, "counts", ("truth", "prediction"), np.int64)
        if c.shape[0] != c.shape[1]:
            raise ShapeError(f"ConfusionMatrix.counts must be square, got {c.shape}")
        if (c < 0).any():
            raise ValueError("ConfusionMatrix.counts must be nonnegative")

    @property
    def labels(self) -> int:
        return self.counts.shape[0]


@dataclass(frozen=True)
class TrimapBand:
    """Boolean mask of pixels near a ground-truth label boundary."""

    width: int
    mask: np.ndarray

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"band width must be >= 1, got {self.width}")
        _store(self, "mask", ("height", "width"), bool)


def confusion(
    pred: LabelMap,
    gt: LabelMap,
    num_labels: int,
    mask: np.ndarray | None = None,
) -> ConfusionMatrix:
    """Tally (truth, prediction) pairs over unmasked, non-ignored pixels."""
    if num_labels < 1:
        raise ValueError(f"need at least one class, got {num_labels}")
    p = pred.labels
    g = gt.labels
    if p.shape != g.shape:
        raise ShapeError(f"prediction {p.shape} does not match truth {g.shape}")
    keep = (g != IGNORE_LABEL) & (p != IGNORE_LABEL)
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != g.shape:
            raise ShapeError(f"mask {m.shape} does not match labels {g.shape}")
        keep &= m
    gs = g[keep].astype(np.int64)
    ps = p[keep].astype(np.int64)
    if gs.size and (gs.max() >= num_labels or ps.max() >= num_labels):
        raise ValueError(f"labels must be < {num_labels} or {IGNORE_LABEL}")
    flat = np.bincount(gs * num_labels + ps, minlength=num_labels * num_labels)
    return ConfusionMatrix(flat.reshape(num_labels, num_labels))


def per_class_iou(cm: ConfusionMatrix) -> np.ndarray:
    """Per-class intersection/union; NaN where a class has zero union."""
    c = cm.counts.astype(np.float64)
    diag = np.diag(c)
    union = c.sum(axis=1) + c.sum(axis=0) - diag
    out = np.full(cm.labels, np.nan)
    present = union > 0
    out[present] = diag[present] / union[present]
    return out


def mean_iou(cm: ConfusionMatrix) -> float:
    """Mean IOU over classes that appear in truth or prediction."""
    iou = per_class_iou(cm)
    present = ~np.isnan(iou)
    if not present.any():
        raise UndefinedMetricError("no class has any counted pixels")
    return float(iou[present].mean())


def _boundary_4conn(values: np.ndarray) -> np.ndarray:
    """Pixels with at least one 4-neighbor carrying a different label."""
    b = np.zeros(values.shape, dtype=bool)
    dv = values[1:, :] != values[:-1, :]
    b[1:, :] |= dv
    b[:-1, :] |= dv
    dh = values[:, 1:] != values[:, :-1]
    b[:, 1:] |= dh
    b[:, :-1] |= dh
    return b


def trimap_mask(gt: LabelMap, width: int) -> TrimapBand:
    """Band of pixels within `width` of a label edge.

    Boundary pixels sit at distance 1 from the inter-pixel edge, so the
    band is the boundary set grown by width-1 steps of 8-connected
    dilation: a width-2 band around a straight edge is 4 pixels across.
    Past max(h, w) steps the band covers every pixel, so the steps stop there.
    """
    from scipy import ndimage  # on first use: loading it adds about 0.1 s to every start-up

    boundary = _boundary_4conn(gt.labels)
    if width > 1 and boundary.any():
        band = ndimage.binary_dilation(
            boundary, structure=np.ones((3, 3), dtype=bool),
            iterations=min(width - 1, max(boundary.shape)),
        )
    else:
        band = boundary
    return TrimapBand(width, band)


def trimap_miou(pred: LabelMap, gt: LabelMap, num_labels: int, width: int) -> float:
    """Mean IOU restricted to the boundary band of the ground truth."""
    band = trimap_mask(gt, width)
    if not band.mask.any():
        raise UndefinedMetricError("label map has no boundaries to band")
    return mean_iou(confusion(pred, gt, num_labels, mask=band.mask))
