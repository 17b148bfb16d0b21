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
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import LabelMap, RgbImage, ShapeError
from .hdfilter import _LOG_TINY, FeaturePoints, PermutohedralLattice, gaussian_filter_exact
from .metrics import confusion, mean_iou

PROB_CLAMP = 1e-20
BACKENDS = ("exact", "lattice")

# Largest pixel count for which all-pairs O(n^2) work is done: the exact
# backend refuses larger images, and the lattice backend computes the
# bilateral kernel's row masses exactly up to it (one all-pairs pass at
# filter-build time). Above this the lattice's own mass estimate is used.
EXACT_MASS_MAX_PIXELS = 4096

# Most belief entries (pixels x w1 values x labels) one lattice mean-field run
# carries: about one 504x376x21 belief, so VOC-size `tune` runs one w1 at a time.
BATCH_MAX_ELEMENTS = 1 << 22

# Points per block of the belief update's elementwise and softmax passes:
# one block's rows stay in cache from the first pass to the last.
UPDATE_BLOCK_POINTS = 8192

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
        if not (arr >= 0).all():
            raise ValueError("belief entries must be >= 0 and not NaN")
        sums = arr.sum(axis=2)
        if np.abs(sums - 1.0).max() > 1e-5:
            raise ValueError("belief rows must sum to 1 within 1e-5")
        object.__setattr__(self, "q", arr)

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


def _bilateral_row_masses(feats: FeaturePoints) -> np.ndarray:
    """Exact per-point kernel sums, as gaussian_filter_exact on all-ones values.

    The kernel is symmetric, so a strip of 256 rows meets only its own and
    later columns and credits both. Exponents are clamped at ln(tiny) + 1,
    out of exp's slow subnormal range; each mass moves by at most n * e * tiny.
    """
    f, tile = feats.coords, 256
    sq = np.einsum("ij,ij->i", f, f)
    mass = np.zeros(feats.n)
    for lo in range(0, feats.n, tile):
        d2 = sq[lo:lo + tile, None] + sq[None, lo:] - 2.0 * (f[lo:lo + tile] @ f[lo:].T)
        kernel = np.exp(np.maximum(-0.5 * np.maximum(d2, 0.0), _LOG_TINY + 1.0))
        mass[lo:lo + tile] += kernel.sum(axis=1)
        mass[lo + tile:] += kernel[:, tile:].sum(axis=0)
    return mass


class _KernelFilter:
    """One unit Gaussian kernel over fixed feature points, on one backend.

    On the lattice, the exact row masses from `true_mass()` turn into a
    per-point gain true_mass / lattice_mass on every output. They are asked
    for once the lattice is built, so features it refuses never reach an
    all-pairs pass.
    """

    def __init__(self, feats: FeaturePoints, backend: str, true_mass=None) -> None:
        self.backend, self.gain = backend, None
        self.structure = feats if backend == "exact" else PermutohedralLattice(feats)
        if backend == "lattice" and true_mass is not None:
            mass = self.structure.filter(np.ones(feats.n, np.float32)).astype(np.float64)
            tiny = np.finfo(np.float32).tiny
            self.gain = (true_mass() / np.maximum(mass, tiny)).astype(np.float32)[:, None]

    def __call__(self, values: np.ndarray, timer: dict | None = None) -> np.ndarray:
        if self.backend == "exact":
            return gaussian_filter_exact(values, self.structure)
        out = self.structure.filter(values, timer=timer)
        if self.gain is not None:
            out *= self.gain if out.ndim == 2 else self.gain[:, 0]
        return out


class PairwiseFilters:
    """Kernel filtering structures for one image, backend and kernel scales.

    Feature geometry never changes across iterations, so the structures are
    built once and reused. They depend on sigma_alpha, sigma_beta and
    sigma_gamma but not on the weights w1 and w2, so one instance serves
    every weight setting; `require` guards against silently filtering with
    a cache built for a different image, backend or kernel scale. The
    spatial kernel depends only on the image size, sigma_gamma and backend;
    a `spatial_cache` dict keyed by those shares it between instances.

    The lattice path does not emit raw lattice output: the raw kernel has a
    point-dependent gain (and a badly shrunk self-coefficient), so each
    filtered value is rescaled by true_row_mass / lattice_row_mass. The
    lattice mass comes from filtering an all-ones vector once at build; the
    true mass is exact for the spatial kernel at any size (separability)
    and exact for the bilateral kernel up to EXACT_MASS_MAX_PIXELS pixels,
    beyond which the lattice's own estimate stands in, a gain of one.
    """

    def __init__(
        self,
        image: RgbImage,
        params: PairwiseParams,
        backend: str = "exact",
        timer: dict | None = None,
        spatial_cache: dict | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        h, w = image.height, image.width
        n = h * w
        if backend == "exact" and n > EXACT_MASS_MAX_PIXELS:
            raise ValueError(
                f"--backend exact is capped at {EXACT_MASS_MAX_PIXELS} pixels "
                f"(got {h}x{w}); use --backend lattice"
            )
        self.backend = backend
        self._sigmas = _kernel_scales(params)
        self.shape = (h, w)
        self._pixels = image.data
        start = time.perf_counter()
        bilateral = bilateral_features(image, params.sigma_alpha, params.sigma_beta)
        small = backend == "lattice" and n <= EXACT_MASS_MAX_PIXELS
        self.filter_bilateral = _KernelFilter(
            bilateral, backend, partial(_bilateral_row_masses, bilateral) if small else None
        )
        cache = {} if spatial_cache is None else spatial_cache
        key = (h, w, params.sigma_gamma, backend)
        if key not in cache:
            cache[key] = _KernelFilter(
                spatial_features(h, w, params.sigma_gamma), backend,
                partial(_spatial_row_masses, h, w, params.sigma_gamma),
            )
        self.filter_spatial = cache[key]
        if timer is not None:
            timer["build"] = timer.get("build", 0.0) + time.perf_counter() - start

    def require(self, image: RgbImage, params: PairwiseParams, backend: str) -> None:
        built = (self.backend, self._sigmas, self.shape)
        if built != (backend, _kernel_scales(params), (image.height, image.width)) or not (
            image.data is self._pixels or np.array_equal(image.data, self._pixels)
        ):
            raise FilterCacheError(
                "cached pairwise filters were built for a different "
                "image, kernel scale, or backend"
            )


def _update(q, theta, filters, w1, w12, w2, timer) -> np.ndarray:
    """One synchronous update of flat (n, K*labels) beliefs in their dtype.

    Under Potts gating each label pays for the message mass of all other
    labels: the total minus its own. The total is the same for every label
    and cancels in the softmax, which leaves
    softmax(w1 K_b q + w2 K_s q - (w1 + w2) q - theta); subtracting q drops
    each kernel's unit self term. Column block k is the belief under w1[k],
    with w12[k] = w1[k] + w2; kernels act per column, so it equals a lone run.
    Every step after filtering runs over blocks of UPDATE_BLOCK_POINTS points,
    with the same operations in the same order on every element.
    """
    z = filters.filter_bilateral(q, timer=timer)
    zs = filters.filter_spatial(q, timer=timer)
    start = time.perf_counter()
    n, labels = theta.shape
    zb, zr, qb = (a.reshape(n, -1, labels) for a in (z, zs, q))
    for lo in range(0, n, UPDATE_BLOCK_POINTS):
        hi = lo + UPDATE_BLOCK_POINTS
        b, r = zb[lo:hi], zr[lo:hi]
        b *= w1
        r *= w2
        b += r
        np.multiply(qb[lo:hi], w12, out=r)
        b -= r
        b -= theta[lo:hi, None]
        rows = b.reshape(-1, labels)
        _exp_minus_row_max(rows)
        rows /= np.einsum("ij->i", rows)[:, None]
    if timer is not None:
        timer["update"] = timer.get("update", 0.0) + time.perf_counter() - start
    return z


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
    run_inference's beliefs. `threads` is accepted and has no effect.
    """
    if state.q.shape != unary.theta.shape:
        raise ShapeError(
            f"belief shape {state.q.shape} does not match unary {unary.theta.shape}"
        )
    return MeanFieldState(next(_infer(unary, image, [params], 1, backend, filters, timer, state.q)))


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
    `threads` is accepted and has no effect.
    """
    batch = [params or PairwiseParams()]
    state = MeanFieldState(next(_infer(unary, image, batch, iters, backend, filters, timer)))
    return state, labels_from_state(state)


def _infer(unary, image, batch, iters, backend, filters, timer, q=None):
    """Yield the (h, w, labels) belief after `iters` updates from belief q,
    by default the classifier posterior, under each of `batch`, PairwiseParams
    that differ only in w1.

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
    if (image.height, image.width) != (unary.height, unary.width):
        raise ShapeError(
            f"image {image.height}x{image.width} does not match "
            f"unary {unary.height}x{unary.width}"
        )
    if iters == 0:
        yield from [_softmax_rows(-unary.theta) if q is None else q] * len(batch)
        return
    params, (h, w, labels), n = batch[0], unary.theta.shape, unary.height * unary.width
    if filters is None:
        filters = PairwiseFilters(image, params, backend, timer=timer)
    else:
        filters.require(image, params, backend)
    dtype = np.float64 if backend == "exact" else np.float32
    per_run = 1 if backend == "exact" else max(1, BATCH_MAX_ELEMENTS // (n * labels))
    theta = unary.theta.reshape(n, labels).astype(dtype, copy=False)
    for lo in range(0, len(batch), per_run):
        part = batch[lo:lo + per_run]
        w1 = np.array([p.w1 for p in part], dtype)[:, None]
        w12 = np.array([p.w1 + p.w2 for p in part], dtype)[:, None]
        # a start belief per run, freed by its first update; K > 1 blocks
        # copy it, and the update never writes to its input
        qk = _softmax_rows(-unary.theta) if q is None else q
        qk = qk.reshape(n, 1, labels).astype(dtype, copy=False)
        qk = np.broadcast_to(qk, (n, len(part), labels)).reshape(n, -1)
        for _ in range(iters):
            qk = _update(qk, theta, filters, w1, w12, params.w2, timer)
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
    if (image.height, image.width) != (unary.height, unary.width):
        raise ShapeError(
            f"image {image.height}x{image.width} does not match "
            f"unary {unary.height}x{unary.width}"
        )
    lab = labels.labels.reshape(-1).astype(np.int64)
    if lab.max() >= unary.labels:
        raise ValueError(f"labels must be < {unary.labels}")
    n = lab.size
    rows = np.arange(n)
    theta_total = float(unary.theta.reshape(n, unary.labels)[rows, lab].sum())
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
    runs every w1 of that pair through them in as few batched runs as
    BATCH_MAX_ELEMENTS allows. sigma_gamma is fixed, so the spatial kernel is
    built once per image size for the whole search. `threads` has no effect.
    """
    cases = list(cases)
    if not cases:
        raise ValueError("grid search needs at least one validation case")
    if ranges is None:
        ranges = SearchRanges()
    cache: dict[tuple, float] = {}
    spatial_cache: dict = {}

    def score_unscored(points) -> None:
        totals = {point: 0.0 for point in points if point not in cache}
        by_sigmas: dict[tuple, list[PairwiseParams]] = {}
        for w1, sigma_alpha, sigma_beta in totals:
            by_sigmas.setdefault((sigma_alpha, sigma_beta), []).append(
                PairwiseParams(w1=w1, sigma_alpha=sigma_alpha, sigma_beta=sigma_beta)
            )
        for batch in by_sigmas.values():
            # Cases in manifest order, so each point's total sums as before;
            # one case's filters are dropped before the next case's are built.
            for unary, image, gt in cases:
                filters = (PairwiseFilters(image, batch[0], backend, spatial_cache=spatial_cache)
                           if iters > 0 else None)
                beliefs = _infer(unary, image, batch, iters, backend, filters, None)
                for p, q in zip(batch, beliefs):
                    totals[(p.w1, p.sigma_alpha, p.sigma_beta)] += mean_iou(
                        confusion(labels_from_state(MeanFieldState(q)), gt, unary.labels)
                    )
                del filters, beliefs
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
