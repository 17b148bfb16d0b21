"""Spatial pyramid of parallel atrous branches plus multi-scale fusion.

Each pyramid branch filters the shared input map with its own tap rate, then
narrows through two 1x1 stages to the common score width; branch scores are
fused by elementwise sum. A separate max-fusion helper combines score maps
computed at several image scales after they are resampled to a common grid.
Branches carry user-supplied or seeded random weights; nothing here is
trained.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from denseseg.atrous import (
    BAND_ROWS,
    AtrousRate,
    ConvKernel,
    _conv2d_accumulate,
    _rate_value,
    _resample_bilinear,
)
from denseseg.core import FeatureMap, ShapeError


@dataclass(frozen=True)
class AsppBranch:
    """One pyramid branch: a rated conv followed by two 1x1 stages."""

    rate: AtrousRate
    kernels: tuple[ConvKernel, ...]

    def __post_init__(self) -> None:
        kernels = tuple(self.kernels)
        if len(kernels) != 3:
            raise ValueError(f"branch chain must have exactly 3 stages, got {len(kernels)}")
        for k in kernels[1:]:
            if (k.k_h, k.k_w) != (1, 1):
                raise ShapeError(f"later branch stages must be 1x1, got {k.k_h}x{k.k_w}")
        for a, b in zip(kernels, kernels[1:]):
            if a.c_out != b.c_in:
                raise ShapeError(
                    f"branch stage outputs {a.c_out} channels but next expects {b.c_in}"
                )
        object.__setattr__(self, "kernels", kernels)

    @property
    def c_in(self) -> int:
        return self.kernels[0].c_in

    @property
    def c_out(self) -> int:
        return self.kernels[-1].c_out


@dataclass(frozen=True)
class AsppConfig:
    """Parallel branches over one input map, all ending at the same width."""

    branches: tuple[AsppBranch, ...]

    def __post_init__(self) -> None:
        branches = tuple(self.branches)
        if not branches:
            raise ValueError("pyramid needs at least one branch")
        c_in, c_out = branches[0].c_in, branches[0].c_out
        for b in branches[1:]:
            if b.c_in != c_in:
                raise ShapeError(
                    f"branches disagree on input width: {c_in} vs {b.c_in}"
                )
            if b.c_out != c_out:
                raise ShapeError(
                    f"branches disagree on output width: {c_out} vs {b.c_out}"
                )
        object.__setattr__(self, "branches", branches)

    @property
    def c_in(self) -> int:
        return self.branches[0].c_in

    @property
    def c_out(self) -> int:
        return self.branches[0].c_out


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _branch_rows(x: np.ndarray, rate: int, weights: list, rows: tuple[int, int]) -> np.ndarray:
    """One branch's float32 scores on output rows `rows` of float64 map `x`.

    Each stage's output is cast to float32 and checked as a FeatureMap, as
    atrous_conv_2d_holes does; the 1x1 stages need only the band's rows.
    """
    y = FeatureMap(_conv2d_accumulate(x, weights[0], rate, True, rows).astype(np.float32))
    for w in weights[1:]:
        y = FeatureMap(_conv2d_accumulate(y.data.astype(np.float64), w, 1, True).astype(np.float32))
    return y.data


def aspp_forward(fm: FeatureMap, cfg: AsppConfig) -> FeatureMap:
    """Run every branch on the same map and sum the branch scores.

    Every branch runs in bands of BAND_ROWS output rows, on a thread per
    usable CPU up to one per band, and this thread adds each band into the
    float64 total in branch order. The bands depend only on the map's
    height and a band's sums are the whole map's, so the bytes are those of
    the whole-map atrous_conv_2d_holes chain, for any CPU count.
    """
    if fm.channels != cfg.c_in:
        raise ShapeError(f"input has {fm.channels} channels, pyramid expects {cfg.c_in}")
    x = fm.data.astype(np.float64)
    bands = [(r0, min(r0 + BAND_ROWS, fm.height)) for r0 in range(0, fm.height, BAND_ROWS)]
    chains = [(b.rate.r, [k.weights.astype(np.float64) for k in b.kernels]) for b in cfg.branches]
    units = [(rate, weights, rows) for rate, weights in chains for rows in bands]
    total = np.zeros((fm.height, fm.width, cfg.c_out), dtype=np.float64)

    def run(unit: tuple) -> np.ndarray:
        return _branch_rows(x, *unit)

    def add(scores) -> None:
        for (_, _, (r0, r1)), y in zip(units, scores):
            total[r0:r1] += y

    workers = min(len(bands), _usable_cpus())
    if workers == 1:
        add(map(run, units))
    else:
        with ThreadPoolExecutor(workers) as pool:
            add(pool.map(run, units))
    return FeatureMap(total.astype(np.float32))


def multiscale_max_fuse(scores: Sequence[FeatureMap]) -> FeatureMap:
    """Elementwise max over same-shape score maps."""
    if len(scores) == 0:
        raise ValueError("max fusion needs at least one score map")
    shape = scores[0].data.shape
    for fm in scores[1:]:
        if fm.data.shape != shape:
            raise ShapeError(f"score map shapes differ: {shape} vs {fm.data.shape}")
    return FeatureMap(np.maximum.reduce([fm.data for fm in scores]))


def _scaled_size(n: int, scale: float) -> int:
    size = n * scale + 0.5
    if not np.isfinite(size):
        raise ValueError(f"scale {scale!r} makes a side of {n} samples overflow")
    return max(1, int(np.floor(size)))


def rescale_pyramid(fm: FeatureMap, scales: Sequence[float]) -> list[FeatureMap]:
    """Bilinearly resample a map to each scale (align-corners).

    Scale 1.0 returns the input map unchanged.
    """
    for s in scales:
        if not np.isfinite(s) or s <= 0:
            raise ValueError(f"scales must be positive, got {s!r}")
    if not isinstance(fm, FeatureMap):
        raise TypeError(f"expected FeatureMap, got {type(fm).__name__}")
    out = []
    for s in scales:
        if s == 1.0:
            out.append(fm)
            continue
        h, w = _scaled_size(fm.height, s), _scaled_size(fm.width, s)
        out.append(FeatureMap(_resample_bilinear(fm.data, h, w)))
    return out


def random_config(
    rates: Sequence[int],
    c_in: int,
    hidden: int,
    labels: int,
    kernel_size: int = 3,
    seed: int = 0,
) -> AsppConfig:
    """Seeded random pyramid weights for structural runs; not trained."""
    if c_in < 1 or hidden < 1 or labels < 1 or kernel_size < 1:
        raise ValueError("channel widths and kernel size must be positive")
    rng = np.random.default_rng(seed)
    branches = []
    for r in rates:
        stage_dims = [
            (kernel_size, kernel_size, c_in, hidden),
            (1, 1, hidden, hidden),
            (1, 1, hidden, labels),
        ]
        kernels = []
        for dims in stage_dims:
            fan_in = dims[0] * dims[1] * dims[2]
            w = rng.normal(scale=1.0 / np.sqrt(fan_in), size=dims)
            kernels.append(ConvKernel(w.astype(np.float32)))
        branches.append(AsppBranch(AtrousRate(_rate_value(r)), tuple(kernels)))
    return AsppConfig(tuple(branches))
