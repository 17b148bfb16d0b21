"""Fully-connected pairwise refinement of per-pixel label costs.

Every pixel pair is coupled through two Gaussian kernels, one over position
and color (the bilateral kernel) and one over position alone, gated by a
label-disagreement penalty.  Inference runs synchronous fixed-point updates
on a fully factorized belief: filter the current belief under each kernel,
drop each pixel's own contribution, fold in the penalty weights, and
renormalize per pixel with a softmax.

Two interchangeable filtering backends implement the kernel sums: "exact"
evaluates all pairs in float64 and is the correctness reference; "lattice"
routes the same sums through the permutohedral approximation and is the
one that scales to real images.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import LabelMap, RgbImage, ShapeError
from .hdfilter import FeaturePoints, PermutohedralLattice, gaussian_filter_exact
from .metrics import confusion, mean_iou

PROB_CLAMP = 1e-20
BACKENDS = ("exact", "lattice")

# Largest pixel count for which all-pairs O(n^2) work is done: the exact
# backend refuses larger images, and the lattice backend computes the
# bilateral kernel's row masses exactly up to it (one all-pairs pass at
# filter-build time). Above this the lattice's own mass estimate is used.
EXACT_MASS_MAX_PIXELS = 4096

DEFAULT_WEIGHT_BILATERAL = 4.0
DEFAULT_WEIGHT_SPATIAL = 3.0
DEFAULT_SIGMA_POSITION = 60.0
DEFAULT_SIGMA_COLOR = 5.0
DEFAULT_SIGMA_SPATIAL = 3.0
DEFAULT_ITERATIONS = 10


class FilterCacheError(ValueError):
    """Cached pairwise filters no longer match the image or parameters."""


@dataclass(frozen=True)
class PairwiseParams:
    """Kernel weights and scales for the two pairwise terms.

    w1 scales the bilateral (position + color) kernel, w2 the purely
    spatial one.  Color distances are taken on raw 0..255 channel values.
    """

    w1: float = DEFAULT_WEIGHT_BILATERAL
    sigma_alpha: float = DEFAULT_SIGMA_POSITION
    sigma_beta: float = DEFAULT_SIGMA_COLOR
    w2: float = DEFAULT_WEIGHT_SPATIAL
    sigma_gamma: float = DEFAULT_SIGMA_SPATIAL

    def __post_init__(self) -> None:
        for name in ("w1", "sigma_alpha", "sigma_beta", "w2", "sigma_gamma"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError(f"kernel weights must be >= 0, got {self.w1}, {self.w2}")
        if min(self.sigma_alpha, self.sigma_beta, self.sigma_gamma) <= 0:
            raise ValueError("kernel scales must be > 0")


@dataclass(frozen=True)
class UnaryField:
    """Per-pixel, per-label assignment costs, shape (height, width, labels)."""

    theta: np.ndarray

    def __post_init__(self) -> None:
        t = np.ascontiguousarray(np.asarray(self.theta), dtype=np.float64)
        if t.ndim != 3:
            raise ShapeError(f"unary costs must be 3-d, got shape {t.shape}")
        if t.shape[2] < 2:
            raise ShapeError(f"need at least 2 labels, got {t.shape[2]}")
        if not np.isfinite(t).all():
            raise ValueError("unary costs must be finite")
        object.__setattr__(self, "theta", t)

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
        arr = np.ascontiguousarray(np.asarray(self.q), dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] < 2:
            raise ShapeError(f"belief must be (h, w, labels>=2), got {arr.shape}")
        if (arr < 0).any():
            raise ValueError("belief entries must be >= 0")
        sums = arr.sum(axis=2)
        if np.abs(sums - 1.0).max() > 1e-5:
            raise ValueError("belief rows must sum to 1 within 1e-5")
        object.__setattr__(self, "q", arr)

    @property
    def labels(self) -> int:
        return self.q.shape[2]


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Rowwise softmax along the last axis, dtype-preserving."""
    shifted = z - z.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def unary_from_probs(probs: np.ndarray, epsilon: float = PROB_CLAMP) -> UnaryField:
    """Turn per-pixel label probabilities into clamped negative-log costs."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 3 or p.shape[2] < 2:
        raise ShapeError(f"probabilities must be (h, w, labels>=2), got {p.shape}")
    if not (epsilon > 0):
        raise ValueError(f"clamp floor must be > 0, got {epsilon}")
    if not np.isfinite(p).all() or (p < 0).any():
        raise ValueError("probabilities must be finite and >= 0")
    if np.abs(p.sum(axis=2) - 1.0).max() > 1e-4:
        raise ValueError("probability rows must sum to 1 within 1e-4")
    return UnaryField(-np.log(np.maximum(p, epsilon)))


def init_state(unary: UnaryField) -> MeanFieldState:
    """Initial belief: the classifier posterior, softmax of negated costs."""
    return MeanFieldState(_softmax_rows(-unary.theta))


def bilateral_features(
    image: RgbImage, sigma_alpha: float, sigma_beta: float
) -> FeaturePoints:
    """Stack (x, y) / sigma_alpha with raw 0..255 colors / sigma_beta.

    Rows follow row-major pixel order; d = 5.
    """
    h, w = image.height, image.width
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    feats = np.empty((h * w, 5))
    feats[:, 0] = cols.ravel() / sigma_alpha
    feats[:, 1] = rows.ravel() / sigma_alpha
    feats[:, 2:] = image.data.reshape(-1, 3).astype(np.float64) / sigma_beta
    return FeaturePoints(feats)


def spatial_features(height: int, width: int, sigma_gamma: float) -> FeaturePoints:
    """Pixel coordinates scaled by sigma_gamma, row-major order; d = 2."""
    rows, cols = np.mgrid[0:height, 0:width].astype(np.float64)
    feats = np.empty((height * width, 2))
    feats[:, 0] = cols.ravel() / sigma_gamma
    feats[:, 1] = rows.ravel() / sigma_gamma
    return FeaturePoints(feats)


def _kernel_scales(params: PairwiseParams) -> tuple[float, float, float]:
    return (params.sigma_alpha, params.sigma_beta, params.sigma_gamma)


def _spatial_row_masses(height: int, width: int, sigma_gamma: float) -> np.ndarray:
    """Exact per-pixel sums of the spatial kernel over the whole grid.

    The kernel separates over rows and columns, so the full (n x n) row sum
    is an outer product of two small 1-d mass vectors.
    """
    def axis_mass(n: int) -> np.ndarray:
        pos = np.arange(n, dtype=np.float64) / sigma_gamma
        d = pos[:, None] - pos[None, :]
        return np.exp(-0.5 * d * d).sum(axis=1)

    return np.outer(axis_mass(height), axis_mass(width)).reshape(-1)


class PairwiseFilters:
    """Kernel filtering structures for one image, backend and kernel scales.

    Feature geometry never changes across iterations, so the structures are
    built once and reused. They depend on sigma_alpha, sigma_beta and
    sigma_gamma but not on the weights w1 and w2, so one instance serves
    every weight setting; `require` guards against silently filtering with
    a cache built for a different image, backend or kernel scale.

    The lattice path does not emit raw lattice output: the raw kernel has a
    point-dependent gain (and a badly shrunk self-coefficient), so each
    filtered value is rescaled by true_row_mass / lattice_row_mass. The
    lattice mass comes from filtering an all-ones vector once at build; the
    true mass is exact for the spatial kernel at any size (separability)
    and exact for the bilateral kernel up to EXACT_MASS_MAX_PIXELS pixels,
    beyond which the lattice's own estimate stands in.
    """

    def __init__(
        self,
        image: RgbImage,
        params: PairwiseParams,
        backend: str = "exact",
        timer: dict | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        n = image.height * image.width
        if backend == "exact" and n > EXACT_MASS_MAX_PIXELS:
            raise ValueError(
                f"--backend exact is capped at {EXACT_MASS_MAX_PIXELS} pixels "
                f"(got {image.height}x{image.width}); use --backend lattice"
            )
        self.backend = backend
        self._sigmas = _kernel_scales(params)
        self.shape = (image.height, image.width)
        self._pixels = image.data
        start = time.perf_counter()
        bilateral = bilateral_features(image, params.sigma_alpha, params.sigma_beta)
        spatial = spatial_features(image.height, image.width, params.sigma_gamma)
        self._gain_bilateral = None
        self._gain_spatial = None
        if backend == "lattice":
            ones = np.ones(n, dtype=np.float32)
            self._bilateral = PermutohedralLattice(bilateral)
            self._spatial = PermutohedralLattice(spatial)
            lattice_mass_b = self._bilateral.filter(ones).astype(np.float64)
            lattice_mass_s = self._spatial.filter(ones).astype(np.float64)
            true_mass_s = _spatial_row_masses(
                image.height, image.width, params.sigma_gamma
            )
            if n <= EXACT_MASS_MAX_PIXELS:
                true_mass_b = gaussian_filter_exact(np.ones(n), bilateral)
            else:
                true_mass_b = lattice_mass_b
            tiny = np.finfo(np.float32).tiny
            self._gain_bilateral = (
                true_mass_b / np.maximum(lattice_mass_b, tiny)
            ).astype(np.float32)[:, None]
            self._gain_spatial = (
                true_mass_s / np.maximum(lattice_mass_s, tiny)
            ).astype(np.float32)[:, None]
        else:
            self._bilateral = bilateral
            self._spatial = spatial
        if timer is not None:
            timer["build"] = timer.get("build", 0.0) + time.perf_counter() - start

    def matches(self, image: RgbImage, params: PairwiseParams, backend: str) -> bool:
        if backend != self.backend or _kernel_scales(params) != self._sigmas:
            return False
        if (image.height, image.width) != self.shape:
            return False
        return image.data is self._pixels or np.array_equal(image.data, self._pixels)

    def require(self, image: RgbImage, params: PairwiseParams, backend: str) -> None:
        if not self.matches(image, params, backend):
            raise FilterCacheError(
                "cached pairwise filters were built for a different "
                "image, kernel scale, or backend"
            )

    def _apply(self, structure, gain, values: np.ndarray, timer: dict | None) -> np.ndarray:
        if self.backend == "lattice":
            out = structure.filter(values, timer=timer)
            out *= gain if out.ndim == 2 else gain[:, 0]
            return out
        return gaussian_filter_exact(values, structure)

    def filter_bilateral(self, values: np.ndarray, timer: dict | None = None) -> np.ndarray:
        return self._apply(self._bilateral, self._gain_bilateral, values, timer)

    def filter_spatial(self, values: np.ndarray, timer: dict | None = None) -> np.ndarray:
        return self._apply(self._spatial, self._gain_spatial, values, timer)


def _check_dims(state: MeanFieldState, unary: UnaryField, image: RgbImage) -> None:
    if state.q.shape != unary.theta.shape:
        raise ShapeError(
            f"belief shape {state.q.shape} does not match unary {unary.theta.shape}"
        )
    if (image.height, image.width) != (unary.height, unary.width):
        raise ShapeError(
            f"image {image.height}x{image.width} does not match "
            f"unary {unary.height}x{unary.width}"
        )


def _update_rows(out, theta, filt_b, filt_s, q, w1, w2, lo, hi) -> None:
    """Belief update for pixel rows [lo, hi): penalty, negate, softmax.

    Writes into a disjoint slice of the preallocated output, so concurrent
    calls on non-overlapping ranges are safe and give results identical to
    a single sequential pass.
    """
    mb = filt_b[lo:hi] - q[lo:hi]
    ms = filt_s[lo:hi] - q[lo:hi]
    z = out[lo:hi]
    # Potts gating: each label pays for the message mass of all others,
    # computed as (total - own) rather than an explicit label-pair loop.
    z[:] = mb.sum(axis=1, keepdims=True)
    z -= mb
    z *= -w1
    tmp = ms.sum(axis=1, keepdims=True) - ms
    tmp *= w2
    z -= tmp
    z -= theta[lo:hi]
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)


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
    """One synchronous belief update; every pixel reads only the old state."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    _check_dims(state, unary, image)
    if filters is None:
        filters = PairwiseFilters(image, params, backend)
    else:
        filters.require(image, params, backend)
    h, w, labels = state.q.shape
    n = h * w
    # The exact backend is the float64 correctness reference; the lattice
    # path runs in float32, matching its filtering precision.
    dtype = np.float64 if backend == "exact" else np.float32
    q = np.ascontiguousarray(state.q.reshape(n, labels), dtype=dtype)
    theta = unary.theta.reshape(n, labels).astype(dtype, copy=False)
    filt_b = filters.filter_bilateral(q, timer=timer)
    filt_s = filters.filter_spatial(q, timer=timer)
    start = time.perf_counter()
    out = np.empty((n, labels), dtype=dtype)
    if threads > 1 and n >= threads:
        bounds = np.linspace(0, n, threads + 1, dtype=np.int64)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            jobs = [
                pool.submit(
                    _update_rows, out, theta, filt_b, filt_s, q,
                    params.w1, params.w2, int(lo), int(hi),
                )
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            for job in jobs:
                job.result()
    else:
        _update_rows(out, theta, filt_b, filt_s, q, params.w1, params.w2, 0, n)
    if timer is not None:
        timer["update"] = timer.get("update", 0.0) + time.perf_counter() - start
    return MeanFieldState(out.reshape(h, w, labels))


def labels_from_state(state: MeanFieldState) -> LabelMap:
    """Per-pixel argmax of the belief; ties go to the lowest label index."""
    if state.labels > 256:
        raise ShapeError(f"label maps support at most 256 classes, got {state.labels}")
    return LabelMap(np.argmax(state.q, axis=2).astype(np.uint8))


def run_inference(
    unary: UnaryField,
    image: RgbImage,
    params: PairwiseParams | None = None,
    iters: int = DEFAULT_ITERATIONS,
    backend: str = "exact",
    threads: int = 1,
    timer: dict | None = None,
    filters: PairwiseFilters | None = None,
) -> tuple[MeanFieldState, LabelMap]:
    """Run `iters` belief updates from the classifier posterior.

    iters=0 returns the posterior itself, so the label map degenerates to
    the unary argmax. `filters`, when given, must have been built for this
    image, backend and kernel scales; otherwise they are built here.
    """
    if params is None:
        params = PairwiseParams()
    if iters < 0:
        raise ValueError(f"iteration count must be >= 0, got {iters}")
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    state = init_state(unary)
    _check_dims(state, unary, image)
    if iters > 0:
        if filters is None:
            filters = PairwiseFilters(image, params, backend, timer=timer)
        for _ in range(iters):
            state = mean_field_step(
                state, unary, image, params, backend,
                filters=filters, threads=threads, timer=timer,
            )
    return state, labels_from_state(state)


def _kernel_matrix(feats: np.ndarray) -> np.ndarray:
    """All-pairs unit Gaussian kernel in float64 via the norm expansion."""
    sq = (feats * feats).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (feats @ feats.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-0.5 * d2)


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
    if (image.height, image.width) != (unary.height, unary.width):
        raise ShapeError(
            f"image {image.height}x{image.width} does not match "
            f"unary {unary.height}x{unary.width}"
        )
    lab = labels.labels.reshape(-1).astype(np.int64)
    if lab.max() >= unary.labels:
        raise ValueError(f"labels must be < {unary.labels}")
    n = lab.size
    theta_total = float(unary.theta.reshape(n, unary.labels)[np.arange(n), lab].sum())
    kb = _kernel_matrix(
        bilateral_features(image, params.sigma_alpha, params.sigma_beta).coords
    )
    ks = _kernel_matrix(
        spatial_features(image.height, image.width, params.sigma_gamma).coords
    )
    disagree = (lab[:, None] != lab[None, :]) & np.tri(n, k=-1, dtype=bool).T
    pair_total = float((params.w1 * kb + params.w2 * ks)[disagree].sum())
    return theta_total + pair_total


COARSE_W1 = (3.0, 4.0, 5.0, 6.0)
COARSE_SIGMA_ALPHA = (30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0)
COARSE_SIGMA_BETA = (3.0, 4.0, 5.0, 6.0)


@dataclass(frozen=True)
class SearchRanges:
    """Coarse grid over the three searched parameters; w2 and sigma_gamma
    stay fixed at their defaults throughout the search."""

    w1: tuple = COARSE_W1
    sigma_alpha: tuple = COARSE_SIGMA_ALPHA
    sigma_beta: tuple = COARSE_SIGMA_BETA

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
    ranges: SearchRanges | None = None,
    iters: int = DEFAULT_ITERATIONS,
    backend: str = "lattice",
    threads: int = 1,
    report: list | None = None,
) -> PairwiseParams:
    """Two-stage parameter search scored by mean IOU over the cases.

    Stage one scans the coarse grid; stage two rescans around the winner
    with halved steps and keeps the stage-one winner unless a candidate
    scores strictly better.  Ties resolve to the lexicographically
    smallest (w1, sigma_alpha, sigma_beta), which the ascending scan
    order plus strictly-better updates give for free.

    The pairwise filters depend on the kernel scales but not on w1, so each
    stage builds them once per case and (sigma_alpha, sigma_beta) pair and
    runs every w1 of that pair through them.
    """
    cases = list(cases)
    if not cases:
        raise ValueError("grid search needs at least one validation case")
    if ranges is None:
        ranges = SearchRanges()
    cache: dict[tuple, float] = {}

    def score_unscored(points) -> None:
        totals = {point: 0.0 for point in points if point not in cache}
        by_sigmas: dict[tuple, list[float]] = {}
        for w1, sigma_alpha, sigma_beta in totals:
            by_sigmas.setdefault((sigma_alpha, sigma_beta), []).append(w1)
        for (sigma_alpha, sigma_beta), weights in by_sigmas.items():
            scales = PairwiseParams(sigma_alpha=sigma_alpha, sigma_beta=sigma_beta)
            # Cases in manifest order, so each point's total sums as before;
            # one case's filters are dropped before the next case's are built.
            for unary, image, gt in cases:
                filters = PairwiseFilters(image, scales, backend) if iters > 0 else None
                for w1 in weights:
                    params = PairwiseParams(
                        w1=w1, sigma_alpha=sigma_alpha, sigma_beta=sigma_beta
                    )
                    _, pred = run_inference(
                        unary, image, params, iters=iters, backend=backend,
                        threads=threads, filters=filters,
                    )
                    totals[(w1, sigma_alpha, sigma_beta)] += mean_iou(
                        confusion(pred, gt, unary.labels)
                    )
                del filters
        for point, total in totals.items():
            cache[point] = total / len(cases)

    def scan(stage: str, points, best_point=None, best_score=-np.inf) -> tuple:
        score_unscored(points)
        for point in points:
            value = cache[point]
            if report is not None:
                report.append(
                    GridPoint(
                        stage,
                        PairwiseParams(
                            w1=point[0], sigma_alpha=point[1], sigma_beta=point[2]
                        ),
                        value,
                    )
                )
            if value > best_score:
                best_point, best_score = point, value
        return best_point

    coarse = [
        (a, b, c)
        for a in ranges.w1
        for b in ranges.sigma_alpha
        for c in ranges.sigma_beta
    ]
    winner = scan("coarse", coarse)
    refined = sorted(
        {
            (a, b, c)
            for a in _refine_axis(ranges.w1, winner[0])
            for b in _refine_axis(ranges.sigma_alpha, winner[1])
            for c in _refine_axis(ranges.sigma_beta, winner[2])
            if a >= 0 and b > 0 and c > 0
        }
    )
    final = scan("refine", refined, best_point=winner, best_score=cache[winner])
    return PairwiseParams(w1=final[0], sigma_alpha=final[1], sigma_beta=final[2])
