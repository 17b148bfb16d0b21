"""High-dimensional Gaussian filtering: exact reference and lattice approximation.

The exact route computes ``out[i] = sum_j exp(-||f_i - f_j||^2 / 2) v[j]``
(self term included) in O(n^2) and serves as the oracle. The fast route embeds
the points on the permutohedral hyperplane in d+1 dimensions, scatters each
point's value onto the d+1 vertices of its enclosing simplex (splat), runs a
[1, 2, 1]/4 pass along each of the d+1 lattice directions (blur), and gathers
back with the same barycentric weights times a fixed gain (slice). Feature
coordinates must arrive pre-divided by their sigma; the kernel here is always
unit variance. A lattice calibrates its slice weights by a gain from its own
kernel masses: per point against known exact masses, or one scalar from
exact masses at a fixed-stride sample of rows (``sampled_mass_gain``).

Lattices are immutable after calibration; filtering allocates per-call
scratch, so one lattice may filter several value buffers concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from denseseg.core import ShapeError, _store


@dataclass(frozen=True)
class FeaturePoints:
    """n points in a d-dimensional feature space, already scaled to unit sigma."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        _store(self, "coords", ("n", "d"), np.float64, finite=True)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


def _as_value_matrix(values, n: int) -> tuple[np.ndarray, bool]:
    v = np.asarray(values)
    squeezed = v.ndim == 1
    if squeezed:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] != n:
        raise ShapeError(f"values must be (n, L) with n={n}, got shape {np.shape(values)}")
    return v, squeezed


# log of the smallest normal float64: kernel entries exp(-d2 / 2) below it
# are not evaluated.
_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))

# Rows per strip of the all-pairs sum; its summation order follows the strips.
EXACT_STRIP_ROWS = 64

# Rows and columns the scalar calibration samples: at 504x376 the sample takes
# about 10 ms, and its gain sits within 0.6% of the all-column median.
GAIN_SAMPLE_ROWS = 200
GAIN_SAMPLE_COLUMNS = 5000

# Most entries in one chunk of a kernel block, 320 KB of float64 (8 rows of
# the calibration sample): a chunk's squared distances stay in cache through
# the loop over dimensions, and a small block is one chunk.
KERNEL_CHUNK_ENTRIES = 8 * GAIN_SAMPLE_COLUMNS

# Points per block of the lattice embedding: a block's (d+1, points) float64
# temporaries stay in cache. At 504x376 (medians of 9), 8,192-point blocks cut
# the bilateral embedding from 53 to 35 ms and the spatial one from 22-25 to
# 14-15 ms; 2,048 and 32,768 points were slower.
EMBED_BLOCK_POINTS = 8192


def _kernel_block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """exp(-||r - c||^2 / 2) for every row and column point, float64, from
    squared coordinate differences added one dimension at a time (in
    cdist's order), so no offset or magnitude cancels."""
    step = _chunk_rows(len(cols))
    kernel = np.zeros((len(rows), len(cols)))
    d2 = np.empty((min(len(rows), step), len(cols)))
    term = np.empty_like(d2)
    cols = cols.T.copy()  # one contiguous row per dimension
    # A difference or square past float max is inf, whose kernel entry is 0.
    with np.errstate(over="ignore"):
        for lo in range(0, len(rows), step):
            chunk = rows[lo:lo + step]
            sq, t = d2[:len(chunk)], term[:len(chunk)]
            np.subtract.outer(chunk[:, 0], cols[0], out=sq)
            sq *= sq
            for r, c in zip(chunk.T[1:], cols[1:]):
                np.subtract.outer(r, c, out=t)
                t *= t
                sq += t
            sq *= -0.5  # now the log of each kernel entry
            # exp is many times slower where its result is subnormal. Entries
            # below tiny stay 0, which moves a row sum by at most
            # columns * tiny * max|v|.
            np.exp(sq, out=kernel[lo:lo + step], where=sq >= _LOG_TINY)
    return kernel


def _chunk_rows(columns: int) -> int:
    """Rows per kernel chunk of `columns` entries each."""
    return max(1, KERNEL_CHUNK_ENTRIES // columns)


def gaussian_filter_exact(values, feats: FeaturePoints) -> np.ndarray:
    """All-pairs unit-variance Gaussian filtering, float64, self term included.

    The kernel is symmetric: a strip of rows meets only its own and later
    columns and credits each pair to both.
    """
    v, squeezed = _as_value_matrix(values, feats.n)
    v = v.astype(np.float64)
    f = feats.coords
    out = np.zeros_like(v)
    for lo in range(0, feats.n, EXACT_STRIP_ROWS):
        hi = lo + EXACT_STRIP_ROWS
        kernel = _kernel_block(f[lo:hi], f[lo:])
        out[lo:hi] += kernel @ v[lo:]
        out[hi:] += kernel[:, hi - lo:].T @ v[lo:hi]
    return out[:, 0] if squeezed else out


def _row_masses(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Float64 unit Gaussian mass of each row point over the column points, in
    strips of one kernel chunk (at most 320 KB); a row's sum is the same at any height."""
    step = _chunk_rows(len(cols))
    return np.concatenate([_kernel_block(rows[lo:lo + step], cols).sum(axis=1)
                           for lo in range(0, len(rows), step)])


def _stride_sample(n: int, count: int) -> np.ndarray:
    """At most `count` indices into range(n) at one stride; all n if n <= count."""
    return np.arange(0, n, -(-n // count))


def sampled_mass_gain(feats: FeaturePoints, lattice_mass: np.ndarray) -> float:
    """Median over fixed-stride rows of exact row mass / lattice row mass, each
    exact mass summed over fixed-stride columns and scaled by n / columns."""
    n, f = feats.n, feats.coords
    rows, cols = _stride_sample(n, GAIN_SAMPLE_ROWS), _stride_sample(n, GAIN_SAMPLE_COLUMNS)
    exact = _row_masses(f[rows], f[cols])
    return float(np.median(exact * (n / len(cols)) / lattice_mass[rows]))


def _tick(timer: dict | None, key: str, t0: float) -> float:
    if timer is None:
        return t0
    now = time.perf_counter()
    timer[key] = timer.get(key, 0.0) + (now - t0)
    return now


def _fold(columns) -> np.ndarray:
    """One int64 key per row of equally long integer columns (each spanning
    less than 2^63), in the rows' lexicographic order; equal rows get equal
    keys. Each column adds a digit, key * span + (column - min). Where that
    could pass 2^63, the key is renumbered densely first, and the column too
    if still needed: both keep their order, and rows^2 fits."""
    key, bound = 0, 1
    for col in columns:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if bound * span >= 2**63:
            key = np.unique(key, return_inverse=True)[1]
            bound = int(key.max()) + 1
        if bound * span >= 2**63:
            values, digit = np.unique(col, return_inverse=True)
            span = len(values)
        else:
            digit = np.subtract(col, lo, dtype=np.int64)
        key = key * span + digit
        bound *= span
    return key


def _elevate(coords: np.ndarray) -> np.ndarray:
    """(n, d) points scaled so the [1,2,1] blur chain matches a unit Gaussian,
    on the zero-sum hyperplane in d+1 coordinates, laid out (d+1, n). A running
    sum as in the reference lattice code: on 2 cores, OpenBLAS's default
    threads made a BLAS product tens of times slower than one thread."""
    d = coords.shape[1]
    idx = np.arange(d, dtype=np.float64)
    scale = ((d + 1) * np.sqrt(2.0 / 3.0)) / np.sqrt((idx + 1.0) * (idx + 2.0))
    scaled = np.multiply(coords.T, scale[:, None], order="C")
    elevated = np.zeros((d + 1, coords.shape[0]))
    for j in range(d, 0, -1):  # row j: the sum of scaled[j:] less j scaled[j - 1]
        np.multiply(scaled[j - 1], -j, out=elevated[j])
        elevated[j] += elevated[0]
        elevated[0] += scaled[j - 1]
    return elevated


def _embed(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point: its remainder-0 vertex's first d coordinates (int64, (d, n)),
    its elevated coordinates' ranks ((d+1, n), narrow signed int) and its
    float64 (n, d+1) barycentric weights in rank order. Every step but the
    kernel-width check is per point, so blocks of EMBED_BLOCK_POINTS points
    give the bits one whole-array pass would."""
    n, d = coords.shape
    dp1 = d + 1
    # keys stay consistent below 2^40 embedded units, at most d (d+1) |feature|
    if not np.abs(coords).max() < 2.0**40 / (d * dp1):
        raise ValueError("kernel widths too narrow for the lattice; use wider kernels")
    rem0_int = np.empty((d, n), dtype=np.int64)
    rank = np.empty((dp1, n), dtype=np.min_scalar_type(-2 * d - 1))
    bary = np.empty((n, dp1))
    for lo in range(0, n, EMBED_BLOCK_POINTS):
        hi = lo + EMBED_BLOCK_POINTS
        _embed_block(coords[lo:hi], rem0_int[:, lo:hi], rank[:, lo:hi], bary[lo:hi])
    return rem0_int, rank, bary


def _embed_block(coords: np.ndarray, rem0_int: np.ndarray, rank: np.ndarray,
                 bary: np.ndarray) -> None:
    """`_embed` of one block of points, written into its slices of the outputs."""
    n, d = coords.shape
    dp1 = d + 1
    elevated = _elevate(coords)  # (d+1, n), columns sum to 0

    # Nearest zero-remainder point along each coordinate (ties go down).
    # Two work buffers: the upper candidate, and the gap elevated - rem0
    # to the lower one, moved to the upper one where that is nearer.
    rem0 = elevated / dp1
    up = np.ceil(rem0)
    up *= dp1
    np.floor(rem0, out=rem0)
    rem0 *= dp1
    gap = elevated - rem0
    pick_up = np.empty((dp1, n), dtype=bool)
    for i in range(dp1):
        np.less(up[i] - elevated[i], gap[i], out=pick_up[i])
    np.copyto(rem0, up, where=pick_up)
    np.subtract(elevated, up, out=gap, where=pick_up)
    # rem0 holds multiples of d+1 below 2^44, so any summation order is exact
    coord_sums = np.rint(rem0.sum(axis=0) / dp1)

    # rank[i] = how many coordinates exceed coordinate i (ties to the earlier
    # index), counted by pairwise comparison as in the reference lattice
    # code, then shifted back onto the canonical simplex range. Shifted
    # ranks lie in [-d, 2d], so a narrow signed type holds them.
    rank[:] = 0
    for i in range(dp1):
        for k in range(i + 1, dp1):
            k_first = gap[k] > gap[i]
            rank[i] += k_first
            rank[k] += ~k_first
    rank += coord_sums.astype(rank.dtype)
    wrap = dp1 * ((rank < 0).astype(rank.dtype) - (rank > d))
    rank += wrap
    # only where it moves, so rem0 keeps the signs of its zeros
    np.add(rem0, wrap, out=rem0, where=wrap != 0)

    # Barycentric weights from the fractional remainders in rank order
    # (rem0 may have moved in the wraparound fix above): vertex k gets
    # s[d - k] - s[d + 1 - k], and vertex 0 also the wrapped 1 - s[0].
    frac = np.subtract(elevated, rem0, out=gap)
    frac /= dp1
    rem0_int[:] = np.rint(rem0[:d])
    by_rank = np.empty_like(frac)
    points = np.arange(n)
    for i in range(dp1):
        by_rank[rank[i], points] = frac[i]
    np.subtract(by_rank[d - 1::-1], by_rank[:0:-1], out=bary.T[1:])
    bary[:, 0] = by_rank[d] + (1.0 - by_rank[0])


def _index_set(size: int, *parts: np.ndarray) -> np.ndarray:
    """The distinct ids, all below `size`, in `parts`, sorted; a mask is
    faster than np.unique on large inputs."""
    mask = np.zeros(size, dtype=bool)
    for part in parts:
        mask[part] = True
    return np.flatnonzero(mask)


class PermutohedralLattice:
    """Simplex lattice for one fixed set of feature points.

    Exposed structure (read-only): ``offsets`` maps each point to the ids of
    its d+1 enclosing vertices (ids start at 1; row 0 of every vertex-indexed
    array is an all-zero sentinel for missing neighbors), ``vertex_keys``
    holds the integer lattice coordinates (first d of d+1, the last is
    implied by the zero-sum constraint), and ``blur_n1``/``blur_n2`` the
    neighbor ids along each of the d+1 blur directions.

    A built lattice keeps, per point, its int32 vertex ids (``offsets`` is a
    view of the splat matrix's indices, which the slice matrix shares) and
    the float32 splat and slice weights: 12 bytes per point corner. Per
    vertex it keeps ``vertex_keys`` and one sparse matrix per blur
    direction, whose int32 indices hold each vertex's own id and its two
    neighbours' (``blur_n1``/``blur_n2`` are views of them). The build's
    scratch is freed when it returns, and its float64 barycentric weights
    (``_embed``) once the slice is written.

    ``calibrate``, if given, maps the lattice's own (n,) float64 row masses
    to the gain the slice applies: one scalar, or one per point. That gain,
    float32, is then ``gain``, else None.
    """

    def __init__(self, feats: FeaturePoints, calibrate=None) -> None:
        alpha, bary = self._build(feats)
        # Asked for only now, so features the lattice refuses never reach an
        # exact mass pass and the build's scratch is freed; the lattice mass
        # is the filtered all-ones.
        self.gain = None
        if calibrate is not None:
            ones = np.ones(self.num_points, np.float32)
            mass = np.maximum(self.filter(ones), np.finfo(np.float32).tiny)
            self.gain = np.asarray(calibrate(mass.astype(np.float64)), np.float32)
            gain = alpha * self.gain.astype(np.float64)
            self._slice.data = (bary * gain[..., None]).astype(np.float32).ravel()

    def _build(self, feats: FeaturePoints) -> tuple[float, np.ndarray]:
        """Splat, blur and uncalibrated slice; returns the slice's alpha and
        the float64 barycentric weights, which the lattice does not keep.

        Points are grouped by enclosing simplex first, so vertex keys are spelled
        out once per simplex, not once per point. Row lookups compare `_fold` keys.
        """
        from scipy import sparse  # on first use: loading it adds about 0.15 s to every start-up

        rem0_int, rank, bary = _embed(feats.coords)
        self.num_points, self.dim = n, d = feats.n, feats.d
        dp1 = d + 1
        # A simplex is its home vertex rem0 and the ranks of its first d
        # coordinates (the last of each is implied); one point stands for it.
        simplex = np.unique(_fold([*rem0_int, *rank[:d]]), return_inverse=True)[1]
        members = np.empty(simplex.max() + 1, dtype=np.intp)
        members[simplex] = np.arange(n)
        home, rank = rem0_int[:, members], rank[:, members]
        del rem0_int, members

        # Corner r of a simplex has home + move[rank, r] in each stored
        # coordinate: r, less d+1 where the coordinate's rank exceeds d - r.
        corners = np.arange(dp1)
        move = corners - dp1 * (corners > d - corners[:, None])
        table, inverse = np.unique(
            _fold((move.take(rank[i], axis=0) + home[i, :, None]).ravel() for i in range(d)),
            return_inverse=True)
        self.num_vertices = len(table)
        # each vertex's key from one corner that reaches it
        first = np.empty(self.num_vertices, dtype=np.intp)
        first[inverse] = np.arange(inverse.size)
        at, corner = np.divmod(first, dp1)
        self.vertex_keys = np.stack(
            [move[rank[i, at], corner] + home[i, at] for i in range(d)], axis=1)
        del table, home, rank, first, at, corner
        # vertex ids per simplex, then per point in rank order
        vertex_ids = (inverse.reshape(-1, dp1) + 1).astype(np.int32)[simplex]
        del inverse, simplex

        # Blur direction j moves a key by -+(1 - (d+1) e_j) in the stored
        # coordinates (the implied last one has no e_j). Row v of
        # `neighbours[j]` holds v and its two neighbours' ids (0 where none).
        # Folding the keys with their copies moved by -(...) finds each
        # vertex's first neighbour u; v is then u's second.
        m = self.num_vertices + 1
        step = dp1 * np.eye(dp1, d, dtype=np.int64) - 1
        neighbours = np.zeros((dp1, m, 3), dtype=np.int32)
        neighbours[:, :, 0] = np.arange(m)
        for j in range(dp1):
            key = _fold(np.concatenate([c, c + step[j, i]]) for i, c in enumerate(self.vertex_keys.T))
            table, query = key[:m - 1], key[m - 1:]
            pos = np.searchsorted(table, query)
            found = np.flatnonzero(table.take(pos, mode="clip") == query)
            neighbours[j, found + 1, 1] = pos[found] + 1
            neighbours[j, pos[found] + 1, 2] = found + 1
        self.blur_n1, self.blur_n2 = neighbours[:, :, 1], neighbours[:, :, 2]
        # Blur direction j as a sparse matrix: each vertex keeps 1/2 of itself
        # and gets 1/4 of each neighbour (the sentinel row 0 stays 0).
        weights = np.tile(np.array([0.5, 0.25, 0.25], np.float32), m)
        self._blur = [sparse.csr_matrix(
            (weights, ids.ravel(), np.arange(0, 3 * m + 1, 3)), shape=(m, m)) for ids in neighbours]
        for blur, ids in zip(self._blur, neighbours):
            blur.indices = ids.ravel()  # the constructor copied a view of a larger array

        # Gain restoring the halved blur mass over d+1 passes, times the
        # classic correction matching the lattice kernel to the unit Gaussian.
        alpha = float(2 ** (dp1)) / (1.0 + 2.0 ** (-d))
        # Vertex ids per point in rank order, stored once as the splat's
        # indices and seen as `offsets`: the splat is their (V+1, n) CSC
        # matrix of float32 weights (each vertex sums in point order), the
        # slice the (n, V+1) CSR of alpha * gain * weight.
        indptr = np.arange(0, n * dp1 + 1, dp1)
        self._splat = sparse.csc_matrix(
            (bary.astype(np.float32).ravel(), vertex_ids.ravel(), indptr), shape=(m, n))
        self.offsets = self._splat.indices.reshape(n, dp1)
        slice_weights = np.multiply(bary, alpha, out=np.empty((n, dp1), np.float32))
        self._slice = sparse.csr_matrix(
            (slice_weights.ravel(), self._splat.indices, self._splat.indptr), shape=(n, m))
        return alpha, bary

    def filter(self, values, timer: dict | None = None) -> np.ndarray:
        """Splat -> blur -> slice; float32 output approximating the exact filter."""
        v, squeezed = _as_value_matrix(values, self.num_points)
        out = self.slice_rows(slice(0, self.num_points), self.splat_blur(v, timer), timer)
        return out[:, 0] if squeezed else out

    def splat_blur(self, values, timer: dict | None = None, stages: list | None = None) -> list:
        """`filter` without the slice: (n, L) values splatted and blurred into
        the vertex values that `slice_rows` reads. Returns `stages`, refilled
        with the vertex values after the splat and after each blur direction
        (for `refilter`), or without it a list of the blurred values alone.
        """
        v, _ = _as_value_matrix(values, self.num_points)
        t0 = time.perf_counter() if timer is not None else 0.0
        lat = self._splat @ np.ascontiguousarray(v, dtype=np.float32)
        if stages is not None:
            stages[:] = [lat]
        t0 = _tick(timer, "splat", t0)
        for blur in self._blur:
            lat = blur @ lat
            if stages is not None:
                stages.append(lat)
        _tick(timer, "blur", t0)
        return [lat] if stages is None else stages

    def refilter(self, values: np.ndarray, points: np.ndarray, stages: list,
                 timer: dict | None = None) -> np.ndarray:
        """Bring `stages`, filled by `splat_blur` from values that differ from
        (n, L) `values` only at the rows `points`, up to `values`; return the
        sorted rows whose filter output can have changed.

        Only the vertices whose inputs changed are recomputed, each by its
        own row of the products `splat_blur` runs: a vertex sums its points
        in point order and a blur row reads fixed neighbours either way, so
        the stages hold the bits a whole `splat_blur` call would.
        """
        t0 = time.perf_counter() if timer is not None else 0.0
        gather, m = self._gather, self.num_vertices + 1
        verts = _index_set(m, self.offsets[points])
        stages[0][verts] = gather[verts] @ np.ascontiguousarray(values, dtype=np.float32)
        t0 = _tick(timer, "splat", t0)
        for j, blur in enumerate(self._blur):
            verts = _index_set(m, verts, self.blur_n1[j, verts], self.blur_n2[j, verts])
            stages[j + 1][verts] = blur[verts] @ stages[j]
        rows = _index_set(self.num_points, gather[verts].indices)
        _tick(timer, "blur", t0)
        return rows

    def slice_rows(self, rows, stages: list, timer: dict | None = None) -> np.ndarray:
        """The filter output at `rows`, sorted ids or a slice, from up-to-date
        `stages`. A slice reads its row block of the slice matrix as a view
        made for this call: every row holds d+1 entries, so the block's data
        and indices are slices of the whole matrix's and its row starts a
        prefix of its indptr."""
        t0 = time.perf_counter() if timer is not None else 0.0
        if not isinstance(rows, slice):
            part = self._slice[rows]
        elif rows == slice(0, self.num_points):
            part = self._slice
        else:
            from scipy import sparse

            dp1 = self.dim + 1
            # set after construction, which would copy them
            part = sparse.csr_matrix((rows.stop - rows.start, self.num_vertices + 1),
                                    dtype=np.float32)
            part.data = self._slice.data[rows.start * dp1:rows.stop * dp1]
            part.indices = self._slice.indices[rows.start * dp1:rows.stop * dp1]
            part.indptr = self._slice.indptr[:part.shape[0] + 1]
        out = part @ stages[-1]
        _tick(timer, "slice", t0)
        return out

    @cached_property
    def _gather(self):
        """The splat as CSR: row v holds vertex v's points in point order."""
        return self._splat.tocsr()


def lattice_filter_normalized(lattice: PermutohedralLattice, values) -> np.ndarray:
    """Filter with an appended all-ones column and divide it out.

    The homogeneous division cancels the lattice's spatially varying mass, so
    constant inputs come back as the same constants (up to float32 noise).
    """
    v, squeezed = _as_value_matrix(values, lattice.num_points)
    stacked = np.concatenate([v, np.ones((lattice.num_points, 1), v.dtype)], axis=1)
    filtered = lattice.filter(stacked)
    out = filtered[:, :-1] / filtered[:, -1:]
    return out[:, 0] if squeezed else out
