"""Hole-sampled (atrous) convolution with two equivalent evaluation routes.

A rate-r convolution samples its taps r pixels apart without adding weights,
widening the field of view of a k-tap filter to k + (k-1)(r-1) input samples.
Route one slides the sparse filter over the full-resolution input; route two
deinterlaces the input into r*r phase-shifted submaps, runs the dense filter
on each, and reinterlaces. Rate 1 reduces both to standard correlation.

Accumulation-order contract (needed for bit-exact cross-checks): per output
position, tap contributions are added in row-major tap order, each contribution
a float64 product reduced over input channels; the float64 accumulator is cast
to float32 once at the end. Taps meeting only zero padding are skipped, not
multiplied: their terms are exact zeros, so the sums are the padded ones.
A row band of the output gets the whole map's sums: its windows are row
slices of the whole map's, and BLAS forms each row of a product apart from
the rows beside it. (OpenBLAS's SkylakeX kernels can move a last float64 bit
in one-row products and at some output widths, such as 17-20; the float32
cast has absorbed every such bit on the shapes tested.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from denseseg.core import FeatureMap, ShapeError, _store

# Output rows per band, in aspp_forward and in _resample_bilinear. On a
# 2-core host running ASPP-L (deeplab_front), 16- and 32-row aspp bands raised
# peak RSS from 137 MB to 145 and 161 MB, and were no faster. The 63x47x21 ->
# 504x376 resample took 16.1, 14.5, 14.3, 15.2, 17.1 and 17.4 ms at 2, 4, 8,
# 16, 32 and 64 rows, and 8 rows cut its float64 scratch from 12.7 to 1.6 MB.
BAND_ROWS = 8


@dataclass(frozen=True)
class ConvKernel:
    """Filter bank with weights indexed (tap_row, tap_col, c_in, c_out)."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        _store(self, "weights", ("k_h", "k_w", "c_in", "c_out"), np.float32, finite=True)

    @property
    def k_h(self) -> int:
        return self.weights.shape[0]

    @property
    def k_w(self) -> int:
        return self.weights.shape[1]

    @property
    def c_in(self) -> int:
        return self.weights.shape[2]

    @property
    def c_out(self) -> int:
        return self.weights.shape[3]


@dataclass(frozen=True)
class AtrousRate:
    """Sampling stride of the filter taps; rate 1 is a dense filter."""

    r: int

    def __post_init__(self) -> None:
        if not isinstance(self.r, (int, np.integer)) or isinstance(self.r, bool):
            raise TypeError(f"rate must be an integer, got {type(self.r).__name__}")
        if self.r < 1:
            raise ValueError(f"rate must be >= 1, got {self.r}")


def _rate_value(rate: AtrousRate | int) -> int:
    if isinstance(rate, AtrousRate):
        return rate.r
    AtrousRate(rate)  # reuse its validation
    return int(rate)


def effective_kernel_size(k: int, rate: AtrousRate | int) -> int:
    """Input samples spanned by a k-tap filter at the given rate."""
    r = _rate_value(rate)
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValueError(f"tap count must be a positive integer, got {k!r}")
    return int(k) + (int(k) - 1) * (r - 1)


def _output_size(h: int, w: int, kh: int, kw: int, r: int, padding: bool) -> tuple[int, int]:
    """Output grid of a rate-r kh x kw correlation over an h x w input: the
    input grid with padding, else only the fully covered positions."""
    if padding:
        return h, w
    out_h, out_w = h - r * (kh - 1), w - r * (kw - 1)
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"input {h}x{w} too small for {kh}x{kw} taps at rate {r} without padding"
        )
    return out_h, out_w


def _conv2d_accumulate(
    x: np.ndarray, w: np.ndarray, r: int, padding: bool, rows: tuple[int, int] | None = None
) -> np.ndarray:
    """Shared rate-r correlation core on float64 arrays; returns float64.

    With padding, the tap anchor is the kernel center (k-1)//2 per axis, so
    even kernels anchor one short of the middle and the extra zero padding
    lands after the data. No padding is built: each tap adds its product only
    where its input samples lie in the map, and the accumulator starts at
    +0.0, so the skipped exact-zero terms change no bit. `rows` = (r0, r1)
    computes only output rows r0..r1-1, as an (r1 - r0)-row array.
    """
    kh, kw, c_in, c_out = w.shape
    h, wid = x.shape[:2]
    out_h, out_w = _output_size(h, wid, kh, kw, r, padding)
    r0, r1 = rows or (0, out_h)
    anchor_h, anchor_w = ((kh - 1) // 2, (kw - 1) // 2) if padding else (0, 0)
    acc = np.zeros((r1 - r0, out_w, c_out), dtype=np.float64)
    for i in range(kh):
        dy = (i - anchor_h) * r
        y0, y1 = max(r0, -dy), min(r1, h - dy)
        for j in range(kw):
            dx = (j - anchor_w) * r
            x0, x1 = max(0, -dx), min(out_w, wid - dx)
            if y0 >= y1 or x0 >= x1:
                continue
            window = np.ascontiguousarray(x[y0 + dy : y1 + dy, x0 + dx : x1 + dx])
            rect = acc[y0 - r0 : y1 - r0, x0:x1]
            rect += (window.reshape(-1, c_in) @ w[i, j]).reshape(rect.shape)
    return acc


def _check_input(fm: FeatureMap, kernel: ConvKernel) -> None:
    if fm.channels != kernel.c_in:
        raise ShapeError(
            f"input has {fm.channels} channels but kernel expects {kernel.c_in}"
        )


def atrous_conv_2d_holes(
    fm: FeatureMap, kernel: ConvKernel, rate: AtrousRate | int, padding: bool = True
) -> FeatureMap:
    """Rate-r correlation by sliding the hole-sampled filter over the input."""
    r = _rate_value(rate)
    _check_input(fm, kernel)
    out = _conv2d_accumulate(
        fm.data.astype(np.float64), kernel.weights.astype(np.float64), r, padding
    )
    return FeatureMap(out.astype(np.float32))


def atrous_conv_2d_subsampled(
    fm: FeatureMap, kernel: ConvKernel, rate: AtrousRate | int, padding: bool = True
) -> FeatureMap:
    """Rate-r correlation by phase deinterlacing.

    The input splits into r*r submaps, one per (row mod r, col mod r) phase;
    each is filtered densely at rate 1 and written back to its phase of the
    output grid. Produces the same map as the hole-sampling route.
    """
    r = _rate_value(rate)
    _check_input(fm, kernel)
    x = fm.data.astype(np.float64)
    w = kernel.weights.astype(np.float64)
    kh, kw = kernel.k_h, kernel.k_w
    out_h, out_w = _output_size(fm.height, fm.width, kh, kw, r, padding)
    out = np.zeros((out_h, out_w, kernel.c_out), dtype=np.float64)
    for py in range(min(r, fm.height)):
        for px in range(min(r, fm.width)):
            phase = np.ascontiguousarray(x[py::r, px::r, :])
            if not padding and (phase.shape[0] < kh or phase.shape[1] < kw):
                continue  # this phase covers no valid output position
            out[py::r, px::r, :] = _conv2d_accumulate(phase, w, 1, padding)
    return FeatureMap(out.astype(np.float32))


def _axis_samples(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align-corners source pairs (lo, hi, frac) for resampling one axis.

    Source position of output j is j*(n_in-1)/(n_out-1); computed with exact
    integer division so endpoint samples hit the input corners bit-exactly.
    """
    if n_in == 1 or n_out == 1:
        zeros = np.zeros(n_out, dtype=np.int64)
        return zeros, zeros, np.zeros(n_out, dtype=np.float64)
    num = np.arange(n_out, dtype=np.int64) * (n_in - 1)
    den = n_out - 1
    lo = num // den
    frac = (num - lo * den) / float(den)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, frac


def _resample_bilinear(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable align-corners bilinear resample of (h, w, c) data to float32,
    interpolated in float64 one band of BAND_ROWS output rows at a time (no
    whole-map copy). It runs on the calling thread: a band's numpy calls are
    too short to gain from threads."""
    r_lo, r_hi, r_t = _axis_samples(data.shape[0], out_h)
    c_lo, c_hi, c_t = _axis_samples(data.shape[1], out_w)
    out = np.empty((out_h, out_w, data.shape[2]), dtype=np.float32)
    for b in range(0, out_h, BAND_ROWS):
        e = b + BAND_ROWS
        t = r_t[b:e, None, None]
        rows = data[r_lo[b:e]] * (1.0 - t) + data[r_hi[b:e]] * t
        band = np.take(rows, c_lo, axis=1)
        band *= (1.0 - c_t)[None, :, None]
        far = np.take(rows, c_hi, axis=1)
        far *= c_t[None, :, None]
        band += far
        out[b:e] = band
    return out


def upsample_bilinear(fm: FeatureMap, factor: int) -> FeatureMap:
    """Enlarge a map factor-fold per axis with align-corners bilinear sampling."""
    if not isinstance(factor, (int, np.integer)) or isinstance(factor, bool) or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor!r}")
    if factor == 1:
        return fm
    return FeatureMap(_resample_bilinear(fm.data, fm.height * factor, fm.width * factor))
