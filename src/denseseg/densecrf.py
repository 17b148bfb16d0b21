"""Fully-connected pairwise refinement of per-pixel label costs.

Every pixel pair is coupled through two Gaussian kernels, one over position
and color (the bilateral kernel) and one over position alone, gated by a
label-disagreement penalty.  Inference runs synchronous fixed-point updates
on a fully factorized belief: filter the current belief under each kernel,
drop each pixel's own contribution, fold in the penalty weights, and
renormalize per pixel with a softmax.

Two interchangeable filtering backends implement the kernel sums: "exact"
evaluates all pairs in float64 and is the correctness reference; "lattice"
routes the same sums through the permutohedral approximation, calibrated by
one rule at every image size, and is the one that scales to real images.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import LabelMap, RgbImage, ShapeError, _check_fields, _checked, _in, _store
from .hdfilter import (FeaturePoints, PermutohedralLattice, _index_set, _row_masses, _tick,
                       gaussian_filter_exact, sampled_mass_gain)
from .metrics import check_label_count, confusion, mean_iou

PROB_CLAMP = 1e-20
BACKENDS = ("exact", "lattice")

# Largest image the exact backend takes: its O(n^2) all-pairs filtering runs
# twice per iteration.
EXACT_MASS_MAX_PIXELS = 4096

# Most belief entries (pixels x w1 values x labels) one lattice mean-field run
# carries: about one 504x376x21 belief, so VOC-size `tune` runs one w1 at a time.
BATCH_MAX_ELEMENTS = 1 << 22

# Points per block of the belief update's elementwise and softmax passes:
# one block's rows stay in cache from the first pass to the last.
UPDATE_BLOCK_POINTS = 8192

# Largest share of belief entries an update may change for the next one to
# recompute only the rows that can change, on the lattice backend, and for the
# next one to keep the lattices' vertex values that this takes. On 504x376
# bench scenes at factor 8 update 1 changes every entry, update 2 3.4-6.5%,
# update 3, the first that keeps vertex values, at most 0.08%, and each
# partial update at most 0.04%.
PARTIAL_MAX_SHARE = 1 / 64
STAGES_MAX_SHARE = 1 / 4

# Largest w1 or w2: 1e5 times the paper's tuned range (w1 3-6, w2 3), and weight
# times kernel mass stays far below float32 max for images up to 2^31 pixels.
MAX_WEIGHT = 1e6

DEFAULT_ITERATIONS = 10


class FilterCacheError(ValueError):
    """Cached pairwise filters no longer match the image or parameters."""


@dataclass(frozen=True)
class PairwiseParams:
    """Kernel weights and scales for the two pairwise terms.

    w1 scales the bilateral (position + color) kernel, w2 the purely
    spatial one.  Color distances are taken on raw 0..255 channel values.
    """

    w1: float = _in(0, MAX_WEIGHT, default=4.0)
    sigma_alpha: float = _in(math.ulp(0.0), default=60.0)  # any positive scale
    sigma_beta: float = _in(math.ulp(0.0), default=5.0)
    w2: float = _in(0, MAX_WEIGHT, default=3.0)
    sigma_gamma: float = _in(math.ulp(0.0), default=3.0)

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class UnaryField:
    """Per-pixel, per-label assignment costs, shape (height, width, labels)."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        _store(self, "theta", ("height", "width", "labels"), finite=True)

    @property
    def height(self) -> int:
        return self.theta.shape[0]

    @property
    def width(self) -> int:
        return self.theta.shape[1]

    @property
    def labels(self) -> int:
        return self.theta.shape[2]


@dataclass(frozen=True)
class MeanFieldState:
    """Factorized per-pixel belief, shape (height, width, labels)."""

    q: np.ndarray

    def __post_init__(self) -> None:
        arr = _store(self, "q", ("height", "width", "labels"))
        if not (arr >= 0).all():
            raise ValueError("MeanFieldState.q entries must be >= 0 and not NaN")
        sums = np.einsum("ijk->ij", arr, dtype=np.float64)
        if np.abs(sums - 1.0).max() > 1e-5:
            raise ValueError("MeanFieldState.q rows must sum to 1 within 1e-5")

    @property
    def labels(self) -> int:
        return self.q.shape[2]


def _exp_minus_row_max(rows: np.ndarray) -> None:
    """exp(rows - row max), in place on a C-contiguous (m, labels) block.

    numpy reduces a short last axis row by row, so the max is taken one
    label column at a time instead; max is exact, so the result is the same.
    """
    top = rows[:, 0].copy()
    for column in rows.T[1:]:
        np.maximum(top, column, out=top)
    # Every entry is at most its row's max, so the subtraction can overflow
    # only to -inf, whose exp, 0, is the correct limit.
    with np.errstate(over="ignore"):
        rows -= top[:, None]
    np.exp(rows, out=rows)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Rowwise softmax along the last axis, in place on C-contiguous z.

    Rows sum by numpy's pairwise sum; einsum, as in _update, would round
    some start beliefs differently.
    """
    rows = z.reshape(-1, z.shape[-1])
    for lo in range(0, len(rows), UPDATE_BLOCK_POINTS):
        block = rows[lo:lo + UPDATE_BLOCK_POINTS]
        _exp_minus_row_max(block)
        block /= block.sum(axis=1, keepdims=True)
    return z


def unary_from_probs(probs: np.ndarray) -> UnaryField:
    """Turn per-pixel label probabilities into negative-log costs, with
    probabilities clamped below at PROB_CLAMP."""
    p = _checked(probs, "probabilities", ("height", "width", "labels"), np.float64, finite=True)
    if (p < 0).any():
        raise ValueError("probabilities must be >= 0")
    if np.abs(np.einsum("ijk->ij", p) - 1.0).max() > 1e-4:  # inf, not a warning, on overflow
        raise ValueError("probabilities must sum to 1 per pixel within 1e-4")
    return UnaryField(-np.log(np.maximum(p, PROB_CLAMP)))


def _posterior(unary: UnaryField, dtype) -> np.ndarray:
    """The classifier posterior, softmax of negated costs, as `dtype`.

    Each UPDATE_BLOCK_POINTS block is computed in float64, for float32
    costs too, and written straight into the output, so no whole float64
    posterior is ever held next to its cast.
    """
    theta = unary.theta.reshape(-1, unary.labels)
    out = np.empty(theta.shape, dtype)
    for lo in range(0, len(theta), UPDATE_BLOCK_POINTS):
        block = slice(lo, lo + UPDATE_BLOCK_POINTS)
        out[block] = _softmax_rows(np.negative(theta[block], dtype=np.float64))
    return out.reshape(unary.theta.shape)


def init_state(unary: UnaryField) -> MeanFieldState:
    """Initial belief: the classifier posterior, in float64."""
    return MeanFieldState(_posterior(unary, np.float64))


def bilateral_features(
    image: RgbImage, sigma_alpha: float, sigma_beta: float
) -> FeaturePoints:
    """Stack (x, y) / sigma_alpha with raw 0..255 colors / sigma_beta.

    Rows follow row-major pixel order; d = 5.
    """
    position = spatial_features(image.height, image.width, sigma_alpha).coords
    with np.errstate(over="ignore"):  # inf fails FeaturePoints' finite check
        color = image.data.reshape(-1, 3).astype(np.float64) / sigma_beta
    return FeaturePoints(np.concatenate([position, color], axis=1))


def spatial_features(height: int, width: int, sigma_gamma: float) -> FeaturePoints:
    """Pixel coordinates scaled by sigma_gamma, row-major order; d = 2."""
    rows, cols = np.mgrid[0:height, 0:width].astype(np.float64)
    feats = np.empty((height * width, 2))
    with np.errstate(over="ignore"):  # inf fails FeaturePoints' finite check
        feats[:, 0] = cols.ravel() / sigma_gamma
        feats[:, 1] = rows.ravel() / sigma_gamma
    return FeaturePoints(feats)


def _kernel_scales(params: PairwiseParams) -> tuple[float, float, float]:
    return (params.sigma_alpha, params.sigma_beta, params.sigma_gamma)


def _check_image_size(image: RgbImage, unary: UnaryField) -> None:
    if (image.height, image.width) != (unary.height, unary.width):
        raise ShapeError(
            f"image {image.height}x{image.width} does not match "
            f"unary {unary.height}x{unary.width}"
        )


def _spatial_row_masses(height: int, width: int, sigma_gamma: float) -> np.ndarray:
    """Exact per-pixel sums of the spatial kernel over the whole grid.

    The kernel separates over rows and columns, so the full (n x n) row sum
    is an outer product of two 1-d mass vectors, each summed in strips
    (hdfilter._row_masses): scratch grows with the side, not its square.
    """
    ys, xs = (np.arange(n, dtype=np.float64)[:, None] / sigma_gamma for n in (height, width))
    return np.outer(_row_masses(ys, ys), _row_masses(xs, xs)).reshape(-1)


def _filter(structure, values: np.ndarray, timer: dict | None) -> np.ndarray:
    """One unit Gaussian kernel's sums: all pairs on FeaturePoints, else the lattice."""
    if isinstance(structure, FeaturePoints):
        return gaussian_filter_exact(values, structure)
    return structure.filter(values, timer=timer)


def _spatial_structure(cache: dict, h: int, w: int, sigma_gamma: float, backend: str):
    """The spatial kernel's structure for an h x w image, from `cache` (keyed
    by image size, sigma_gamma and backend) or built into it."""
    key = (h, w, sigma_gamma, backend)
    if key not in cache:
        spatial = spatial_features(h, w, sigma_gamma)
        cache[key] = spatial if backend == "exact" else PermutohedralLattice(
            spatial, lambda mass: _spatial_row_masses(h, w, sigma_gamma) / mass)
    return cache[key]


class PairwiseFilters:
    """Kernel filtering structures for one image, backend and kernel scales.

    The structures depend on sigma_alpha, sigma_beta and sigma_gamma but not
    on w1 and w2, so one instance serves every weight setting; `require`
    refuses a cache built for another image, backend or kernel scale. A
    `spatial_cache` dict keyed by image size, sigma_gamma and backend shares
    the spatial kernel between instances.

    The raw lattice undercounts the true row mass, so each lattice scales
    its output by true mass / lattice mass, by one rule at every image size:
    per point on the spatial kernel, whose exact masses are cheap and lower
    at the borders, and by one sampled scalar on the bilateral kernel
    (hdfilter.sampled_mass_gain). No all-pairs pass runs.
    """

    def __init__(
        self,
        image: RgbImage,
        params: PairwiseParams,
        backend: str = "exact",
        spatial_cache: dict | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        h, w = image.height, image.width
        if backend == "exact" and h * w > EXACT_MASS_MAX_PIXELS:
            raise ValueError(
                f"--backend exact is capped at {EXACT_MASS_MAX_PIXELS} pixels "
                f"(got {h}x{w}); use --backend lattice"
            )
        self.backend = backend
        self._sigmas = _kernel_scales(params)
        self.shape = (h, w)
        self._pixels = image.data
        bilateral = bilateral_features(image, params.sigma_alpha, params.sigma_beta)
        self.bilateral = bilateral if backend == "exact" else PermutohedralLattice(
            bilateral, lambda mass: sampled_mass_gain(bilateral, mass))
        self.spatial = _spatial_structure({} if spatial_cache is None else spatial_cache,
                                          h, w, params.sigma_gamma, backend)

    def filter_bilateral(self, values: np.ndarray, timer: dict | None = None) -> np.ndarray:
        return _filter(self.bilateral, values, timer)

    def filter_spatial(self, values: np.ndarray, timer: dict | None = None) -> np.ndarray:
        return _filter(self.spatial, values, timer)

    def require(self, image: RgbImage, params: PairwiseParams, backend: str) -> None:
        built = (self.backend, self._sigmas, self.shape)
        if built != (backend, _kernel_scales(params), (image.height, image.width)) or not (
            image.data is self._pixels or np.array_equal(image.data, self._pixels)
        ):
            raise FilterCacheError(
                "cached pairwise filters were built for a different "
                "image, kernel scale, or backend"
            )


def _lattices(filters) -> tuple | None:
    """The two lattices of lattice PairwiseFilters, else None: the exact
    backend, and stand-ins that forward filter_bilateral and filter_spatial
    (the benchmark's traced replay), give whole filter outputs."""
    if isinstance(filters, PairwiseFilters) and filters.backend == "lattice":
        return filters.bilateral, filters.spatial
    return None


def _update(q, theta, filters, w1, w12, w2, timer, stages=None, changed=None):
    """One synchronous update of flat (n, K*labels) beliefs in their dtype,
    written over q; each block's rows of the (n, labels) costs theta are
    cast to that dtype as they are read. Returns the number of entries it
    changed and, with `stages` and while that is at most PARTIAL_MAX_SHARE
    of them, the sorted rows it changed, else None.

    Under Potts gating each label pays for the message mass of all other
    labels: the total minus its own. The total is the same for every label
    and cancels in the softmax, which leaves
    softmax(w1 K_b q + w2 K_s q - (w1 + w2) q - theta); subtracting q drops
    each kernel's unit self term. Column block k is the belief under w1[k],
    with w12[k] = w1[k] + w2; kernels act per column, so it equals a lone run.

    Row i of the result reads only row i of q and of the two filter outputs,
    so once q is filtered the update runs over blocks of UPDATE_BLOCK_POINTS
    rows: mix, compare with q's rows bit for bit, write over them. A lattice
    splats and blurs q into its vertex values once and each block slices its
    own rows, so no whole filter output is made; other filters (_lattices)
    give whole outputs, which the blocks index.

    With `stages`, one list per lattice, the lattices keep their vertex
    values (PermutohedralLattice.refilter). Given also the rows `changed`
    where q differs from the input of the update that filled them, only the
    rows whose filtered values or belief can have changed are recomputed;
    every other row of q already holds what that update wrote there.
    """
    n, width = q.shape
    lattices = _lattices(filters)
    step = UPDATE_BLOCK_POINTS
    found = None if stages is None else []  # read before `stages` is rebound
    if changed is not None:
        rows = _index_set(n, *(lat.refilter(q, changed, st, timer)
                               for lat, st in zip(lattices, stages)))
        blocks = [rows[lo:lo + step] for lo in range(0, len(rows), step)]
    else:
        blocks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
        if lattices is None:
            whole = filters.filter_bilateral(q, timer=timer), filters.filter_spatial(q, timer=timer)
        else:
            stages = [lat.splat_blur(q, timer, st)
                      for lat, st in zip(lattices, stages or (None, None))]
    bits = f"u{q.itemsize}"
    limit, count = PARTIAL_MAX_SHARE * q.size, 0
    for block in blocks:
        if lattices is None:
            z, zs = whole[0][block], whole[1][block]
        else:
            z, zs = (lat.slice_rows(block, st, timer) for lat, st in zip(lattices, stages))
        start = time.perf_counter()
        old = q[block]
        _mix(z, zs, old, theta[block].astype(q.dtype, copy=False), w1, w12, w2)
        differ = z.view(bits) != old.view(bits)
        changes = np.count_nonzero(differ)
        count += changes
        if changes and found is not None:
            if count > limit:
                found = None
            else:
                hits = np.flatnonzero(differ) // width
                found.append(block[hits] if isinstance(block, np.ndarray) else hits + block.start)
        q[block] = z
        _tick(timer, "update", start)
    return count, None if found is None else _index_set(n, *found)


def _mix(z, zs, q, theta, w1, w12, w2) -> None:
    """The update's arithmetic after filtering, in place on a block of rows
    of the bilateral output z, with the same operations in the same order on
    every element: each row's result depends on that row alone."""
    labels = theta.shape[1]
    b, r = (a.reshape(len(a), -1, labels) for a in (z, zs))
    b *= w1
    r *= w2
    b += r
    np.multiply(q.reshape(b.shape), w12, out=r)
    b -= r
    b -= theta[:, None]
    rows = z.reshape(-1, labels)
    _exp_minus_row_max(rows)
    rows /= np.einsum("ij->i", rows)[:, None]


def mean_field_step(
    state: MeanFieldState,
    unary: UnaryField,
    image: RgbImage,
    params: PairwiseParams,
    backend: str = "exact",
    filters: PairwiseFilters | None = None,
    threads: int = 1,
    timer: dict | None = None,
) -> MeanFieldState:
    """One synchronous belief update; every pixel reads only the old state.

    Runs run_inference's update, so iterating it from init_state reproduces
    run_inference's beliefs. `threads` has no effect; it is accepted because
    the benchmark's traced replay (perfbench/workloads.py) passes it.
    """
    if state.q.shape != unary.theta.shape:
        raise ShapeError(
            f"belief shape {state.q.shape} does not match unary {unary.theta.shape}"
        )
    return MeanFieldState(next(_infer(unary, image, [params], 1, backend, filters, timer, state.q)))


def labels_from_state(state: MeanFieldState) -> LabelMap:
    """Per-pixel argmax of the belief; ties go to the lowest label index."""
    check_label_count(state.labels)
    return LabelMap(np.argmax(state.q, axis=2).astype(np.uint8))


def run_inference(
    unary: UnaryField,
    image: RgbImage,
    params: PairwiseParams | None = None,
    iters: int = DEFAULT_ITERATIONS,
    backend: str = "exact",
    timer: dict | None = None,
) -> tuple[MeanFieldState, LabelMap]:
    """The belief after `iters` updates from the classifier posterior. The
    run skips work that cannot change a bit (see _infer): the bytes are
    those of running every update in full.

    iters=0 returns the posterior itself, so the label map degenerates to
    the unary argmax.
    """
    check_label_count(unary.labels)
    batch = [params or PairwiseParams()]
    q = next(_infer(unary, image, batch, iters, backend, None, timer))
    start = time.perf_counter()
    state = MeanFieldState(q)
    labels = labels_from_state(state)
    _tick(timer, "finish", start)
    return state, labels


def _infer(unary, image, batch, iters, backend, filters, timer, q=None):
    """Yield the (h, w, labels) belief after `iters` updates from belief q,
    by default the classifier posterior, under each of `batch`, PairwiseParams
    that differ only in w1. `filters`, when given, must have been built for
    this image, backend and kernel scales; otherwise they are built here.

    An update reads only its input belief, the costs and the filters, and is
    deterministic, so once one returns its input bit for bit every later
    update would too: the run stops there and yields that belief, the same
    bytes all `iters` updates give. A batched run stops when every column
    block repeats; a block that repeated earlier keeps returning its bytes.
    Likewise a row's next value can change only where the filters carry a
    changed row to it: on the lattice, once an update changes at most
    PARTIAL_MAX_SHARE of the entries, the next recomputes only those rows
    (_update), bit for bit as a whole update would. The vertex values this
    needs are kept only through updates that such an update may follow.

    Each run holds the costs as the caller gave them and one belief, which
    every update writes over row block by row block (_update); an array
    handed in as q is copied, never written.

    The float32 lattice path runs as many weights side by side as
    BATCH_MAX_ELEMENTS allows, one run after another, so a caller consuming
    beliefs as they come holds one run's at a time. The float64 exact
    reference runs one weight at a time: its BLAS product sums in an order
    that depends on the column count.
    """
    if iters < 0:
        raise ValueError(f"iteration count must be >= 0, got {iters}")
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    _check_image_size(image, unary)
    if iters == 0:
        yield from [_posterior(unary, np.float64) if q is None else q] * len(batch)
        return
    params, (h, w, labels), n = batch[0], unary.theta.shape, unary.height * unary.width
    if filters is None:
        start = time.perf_counter()
        filters = PairwiseFilters(image, params, backend)
        _tick(timer, "build", start)
    else:
        filters.require(image, params, backend)
    dtype = np.float64 if backend == "exact" else np.float32
    per_run = 1 if backend == "exact" else max(1, BATCH_MAX_ELEMENTS // (n * labels))
    theta = unary.theta.reshape(n, labels)
    for lo in range(0, len(batch), per_run):
        part = batch[lo:lo + per_run]
        w1 = np.array([p.w1 for p in part], dtype)[:, None]
        w12 = np.array([p.w1 + p.w2 for p in part], dtype)[:, None]
        # one belief per run, which every update writes over: the start
        # posterior, or a copy of q, whose owner keeps it; K > 1 blocks tile it
        start = time.perf_counter()
        qk = (_posterior(unary, dtype) if q is None else q.astype(dtype)).reshape(n, labels)
        if len(part) > 1:
            qk = np.tile(qk, len(part))
        _tick(timer, "init", start)
        stages = changed = None
        for left in reversed(range(iters)):  # updates left after this one
            count, rows = _update(qk, theta, filters, w1, w12, params.w2, timer, stages, changed)
            if not left or not count:
                break
            if rows is not None:
                changed = rows
            else:
                changed = None
                keep = (_lattices(filters) is not None and left > 1
                        and count <= STAGES_MAX_SHARE * qk.size)
                stages = ([], []) if keep else None
        yield from np.moveaxis(qk.reshape(h, w, len(part), labels), 2, 0)


def energy(
    labels: LabelMap, unary: UnaryField, image: RgbImage, params: PairwiseParams
) -> float:
    """Total labeling cost: unary plus once-per-pair weighted kernel sums.

    Evaluates all pixel pairs exactly, so it is a diagnostic for small
    instances, not something to run on full-size images.
    """
    if (labels.height, labels.width) != (unary.height, unary.width):
        raise ShapeError(
            f"labels {labels.labels.shape} do not match unary "
            f"{(unary.height, unary.width)}"
        )
    _check_image_size(image, unary)
    lab = labels.labels.reshape(-1).astype(np.int64)
    if lab.max() >= unary.labels:
        raise ValueError(f"labels must be < {unary.labels}")
    n = lab.size
    rows = np.arange(n)
    theta_total = float(unary.theta.reshape(n, unary.labels)[rows, lab].astype(np.float64).sum())
    # With one-hot labels Y, (K Y)[i, l] is pixel i's kernel mass on label l;
    # the mass on the other labels, summed over i, counts each disagreeing
    # pair twice. The self term sits on the own label and drops out.
    onehot = np.eye(unary.labels)[lab]
    bilateral = bilateral_features(image, params.sigma_alpha, params.sigma_beta)
    spatial = spatial_features(image.height, image.width, params.sigma_gamma)
    mass = params.w1 * gaussian_filter_exact(onehot, bilateral)
    mass += params.w2 * gaussian_filter_exact(onehot, spatial)
    mass[rows, lab] = 0.0
    return theta_total + 0.5 * float(mass.sum())


@dataclass(frozen=True)
class SearchRanges:
    """Coarse grid over the three searched parameters, by default the
    paper's (w1 3:6, sigma_alpha 30:10:100, sigma_beta 3:6); w2 and
    sigma_gamma stay fixed at their defaults throughout the search."""

    w1: tuple = (3.0, 4.0, 5.0, 6.0)
    sigma_alpha: tuple = (30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0)
    sigma_beta: tuple = (3.0, 4.0, 5.0, 6.0)

    def __post_init__(self) -> None:
        for name in ("w1", "sigma_alpha", "sigma_beta"):
            axis = tuple(float(v) for v in getattr(self, name))
            if not axis:
                raise ValueError(f"search axis {name} must be non-empty")
            if list(axis) != sorted(axis):
                raise ValueError(f"search axis {name} must be ascending")
            object.__setattr__(self, name, axis)


@dataclass(frozen=True)
class GridPoint:
    """One evaluated search candidate."""

    stage: str
    params: PairwiseParams
    score: float


def _refine_axis(values: tuple, best: float) -> list[float]:
    """Candidates at half the coarse step within one coarse step of `best`."""
    if len(values) < 2:
        return [best]
    step = values[1] - values[0]
    return [best + off for off in (-step, -step / 2, 0.0, step / 2, step)]


def grid_search(
    cases,
    ranges: SearchRanges = SearchRanges(),
    iters: int = DEFAULT_ITERATIONS,
    backend: str = "lattice",
    threads: int = 1,
) -> tuple[PairwiseParams, list[GridPoint]]:
    """Two-stage parameter search scored by mean IOU over the cases.

    Stage one scans the coarse grid; stage two rescans around the winner
    with halved steps and keeps the stage-one winner unless a candidate
    scores strictly better.  Ties resolve to the lexicographically
    smallest (w1, sigma_alpha, sigma_beta): points scan in ascending
    order and the first of equal scores wins. Returns the winner and the
    report, one GridPoint per scanned point in scan order.

    The pairwise filters depend on the kernel scales but not on w1, so a
    stage's unit of work is one case under one (sigma_alpha, sigma_beta)
    pair: it builds that case's filters and runs every w1 of the pair
    through them in as few batched runs as BATCH_MAX_ELEMENTS allows. Up to
    `threads` units run at once; the first failing unit in scan order raises
    and the queued ones are dropped. Each point's total adds its cases'
    scores in manifest order, so results do not depend on `threads`.
    sigma_gamma is fixed, so each image size's spatial kernel is built once,
    before any unit starts, and units only read it.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    cases = list(cases)
    if not cases:
        raise ValueError("grid search needs at least one validation case")
    for unary, _, _ in cases:
        check_label_count(unary.labels)
    scores: dict[tuple, float] = {}
    spatial_cache: dict = {}
    if iters > 0:
        for _, image, _ in cases:
            _spatial_structure(spatial_cache, image.height, image.width,
                               PairwiseParams.sigma_gamma, backend)
    report: list[GridPoint] = []

    def unit(batch: list[PairwiseParams], case: tuple) -> list[float]:
        unary, image, gt = case
        filters = (PairwiseFilters(image, batch[0], backend, spatial_cache=spatial_cache)
                   if iters > 0 else None)
        return [mean_iou(confusion(labels_from_state(MeanFieldState(q)), gt, unary.labels))
                for q in _infer(unary, image, batch, iters, backend, filters, None)]

    def scan(stage: str, points: list[tuple], keep: tuple = ()) -> tuple:
        groups: dict[tuple, list[tuple]] = {}
        for point in points:
            if point not in scores:
                groups.setdefault(point[1:], []).append(point)
        if groups:
            batches = [[PairwiseParams(*p) for p in group] for group in groups.values()]
            with ThreadPoolExecutor(min(threads, len(batches) * len(cases))) as pool:
                # results come in submission order; the first failure cancels the rest
                runs = pool.map(unit, [b for b in batches for _ in cases], cases * len(batches))
                for group in groups.values():
                    totals = [0.0] * len(group)
                    for _ in cases:
                        for k, score in enumerate(next(runs)):
                            totals[k] += score
                    scores.update((p, total / len(cases)) for p, total in zip(group, totals))
        report.extend(GridPoint(stage, PairwiseParams(*point), scores[point]) for point in points)
        # max keeps the first of equal scores, so `keep` wins ties
        return max([*keep, *points], key=scores.__getitem__)

    axes = (ranges.w1, ranges.sigma_alpha, ranges.sigma_beta)
    winner = scan("coarse", list(product(*axes)))
    near = product(*(_refine_axis(axis, best) for axis, best in zip(axes, winner)))
    refined = sorted(p for p in set(near)
                     if 0 <= p[0] <= MAX_WEIGHT and 0 < p[1] < np.inf and 0 < p[2] < np.inf)
    best = scan("refine", refined, keep=(winner,))
    return PairwiseParams(*best), report
