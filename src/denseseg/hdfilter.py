"""High-dimensional Gaussian filtering: exact reference and lattice approximation.

The exact route computes ``out[i] = sum_j exp(-||f_i - f_j||^2 / 2) v[j]``
(self term included) in O(n^2) and serves as the oracle. The fast route embeds
the points on the permutohedral hyperplane in d+1 dimensions, scatters each
point's value onto the d+1 vertices of its enclosing simplex (splat), runs a
[1, 2, 1]/4 pass along each of the d+1 lattice directions (blur), and gathers
back with the same barycentric weights times a fixed gain (slice). Feature
coordinates must arrive pre-divided by their sigma; the kernel here is always
unit variance.

Lattices are immutable after construction; filtering allocates per-call
scratch, so one lattice may filter several value buffers concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from denseseg.core import ShapeError


@dataclass(frozen=True)
class FeaturePoints:
    """n points in a d-dimensional feature space, already scaled to unit sigma."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.coords), dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"feature coords must be 2-d (n, d), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"need at least one point and one dimension, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("feature coords must be finite")
        object.__setattr__(self, "coords", arr)

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


def gaussian_filter_exact(values, feats: FeaturePoints, block_size: int = 2048) -> np.ndarray:
    """All-pairs unit-variance Gaussian filtering, float64, self term included."""
    v, squeezed = _as_value_matrix(values, feats.n)
    v = v.astype(np.float64)
    # Centre each dimension on its midrange, which leaves the smallest
    # magnitudes (and, unlike the mean, cannot overflow): a common offset
    # would otherwise cancel the distances out of the identity below.
    low, high = feats.coords.min(axis=0), feats.coords.max(axis=0)
    f = feats.coords - (low / 2 + high / 2)
    out = np.empty_like(v)
    # Squares past the float range give inf or NaN distances, whose kernel
    # entries are left at 0; each point's own distance is set to 0.
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", f, f)
        for start in range(0, feats.n, block_size):
            stop = min(start + block_size, feats.n)
            # ||a-b||^2 via the inner-product identity; clamp the tiny negatives
            d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (f[start:stop] @ f.T)
            np.maximum(d2, 0.0, out=d2)
            d2[np.arange(stop - start), np.arange(start, stop)] = 0.0
            d2 *= -0.5  # now the log of each kernel entry
            # exp is many times slower where its result is subnormal. Entries
            # below tiny are left at 0 unevaluated, which moves an output row
            # by at most n * tiny * max|v|.
            kernel = np.zeros_like(d2)
            np.exp(d2, out=kernel, where=d2 >= _LOG_TINY)
            out[start:stop] = kernel @ v
    return out[:, 0] if squeezed else out


def _tick(timer: dict | None, key: str, t0: float) -> float:
    if timer is None:
        return t0
    now = time.perf_counter()
    timer[key] = timer.get(key, 0.0) + (now - t0)
    return now


def _byte_rows(keys: np.ndarray) -> np.ndarray:
    """int64 key rows as raw byte strings whose bytewise order is the rows'
    lexicographic order (sign bit flipped, most significant byte first), so
    searchsorted and == compare each row as one value."""
    flipped = keys.view(np.uint64) ^ np.uint64(1 << 63)
    return flipped.astype(">u8").view(np.dtype((np.void, 8 * keys.shape[-1])))[..., 0]


class PermutohedralLattice:
    """Simplex lattice for one fixed set of feature points.

    Exposed structure (read-only): ``offsets`` maps each point to the ids of
    its d+1 enclosing vertices (ids start at 1; row 0 of every vertex-indexed
    array is an all-zero sentinel for missing neighbors), ``barycentric``
    holds the matching interpolation weights, ``vertex_keys`` the integer
    lattice coordinates (first d of d+1, the last is implied by the zero-sum
    constraint), and ``blur_n1``/``blur_n2`` the neighbor ids along each of
    the d+1 blur directions.
    """

    def __init__(self, feats: FeaturePoints) -> None:
        if not isinstance(feats, FeaturePoints):
            feats = FeaturePoints(feats)
        n, d = feats.n, feats.d
        dp1 = d + 1
        # keys stay consistent below 2^40 embedded units, at most d (d+1) |feature|
        if not np.abs(feats.coords).max() < 2.0**40 / (d * dp1):
            raise ValueError("kernel widths too narrow for the lattice; use wider kernels")
        self.num_points = n
        self.dim = d

        # Scale so the [1,2,1] blur chain matches a unit Gaussian, then project
        # onto the zero-sum hyperplane in d+1 coordinates.
        idx = np.arange(d, dtype=np.float64)
        scale = (dp1 * np.sqrt(2.0 / 3.0)) / np.sqrt((idx + 1.0) * (idx + 2.0))
        basis = np.zeros((dp1, d))
        basis[0, :] = 1.0
        for j in range(1, dp1):
            basis[j, j - 1] = -float(j)
            basis[j, j:] = 1.0
        elevated = (feats.coords * scale) @ basis.T  # (n, d+1), rows sum to 0

        # Nearest zero-remainder point along each coordinate (ties go down).
        v = elevated / dp1
        up = np.ceil(v) * dp1
        down = np.floor(v) * dp1
        rem0 = np.where(up - elevated < elevated - down, up, down)
        # rem0 holds multiples of d+1 below 2^44, so any summation order is exact
        coord_sums = np.rint(np.einsum("ij->i", rem0) / dp1).astype(np.int64)

        # rank[i] = how many coordinates exceed coordinate i (ties to the earlier
        # index), counted by pairwise comparison as in the reference lattice
        # code, then shifted back onto the canonical simplex range.
        gap = np.ascontiguousarray((elevated - rem0).T)
        rank_t = np.zeros((dp1, n), dtype=np.int64)
        for i in range(dp1):
            for k in range(i + 1, dp1):
                k_first = gap[k] > gap[i]
                rank_t[i] += k_first
                rank_t[k] += ~k_first
        rank_t += coord_sums
        wrap = dp1 * ((rank_t < 0).astype(np.int64) - (rank_t > d))
        rank_t += wrap
        # only where it moves, so rem0 keeps the signs of its zeros
        np.add(rem0.T, wrap, out=rem0.T, where=wrap != 0)
        rank = rank_t.T
        # flat index of each (point, rank) cell in a C-ordered (n, d+1) array
        by_rank_at = rank + np.arange(0, n * dp1, dp1)[:, None]

        # Barycentric weights from the fractional remainders in rank order
        # (rem0 may have moved in the wraparound fix above): vertex k gets
        # s[d - k] - s[d + 1 - k], and vertex 0 also the wrapped 1 - s[0].
        by_rank = np.empty((n, dp1))
        by_rank.reshape(-1)[by_rank_at] = (elevated - rem0) / dp1
        rev = by_rank[:, ::-1]
        bary = np.empty_like(by_rank)
        np.subtract(rev[:, 1:], rev[:, :-1], out=bary[:, 1:])
        bary[:, 0] = by_rank[:, d] + (1.0 - by_rank[:, 0])
        self.barycentric = bary

        # Vertex r of a point has key rem0 + r in each stored coordinate,
        # less d+1 where rank + r > d; over r, coordinate j spans
        # [rem0_j - rank_j, rem0_j - rank_j + d].
        rem0_int = np.rint(rem0[:, :d]).astype(np.int64)
        lowest = rem0_int - rank[:, :d]
        key_min = lowest.min(axis=0)
        key_range = lowest.max(axis=0) + d - key_min
        # Blur direction j moves a key by -+(1 - (d+1) e_j) in the stored
        # coordinates (the implied last one has no e_j).
        step = dp1 * np.eye(dp1, d, dtype=np.int64) - 1
        # Each packed field has one spare bit: key_range >= d, so a step out
        # of [0, key_range] either borrows, leaving a field above its range,
        # or lands in (key_range, key_range + d] with no carry. Either way
        # the packed query matches no vertex, so no validity mask is needed.
        bits = np.array([int(r).bit_length() + 1 for r in key_range], dtype=np.int64)
        self._packable = int(bits.sum()) <= 63
        if self._packable:
            shifts = np.concatenate([np.cumsum(bits[::-1])[::-1][1:], [0]])
            # Vertex 0 is rem0 itself; vertex r adds one to every column and
            # wraps the column of rank d + 1 - r (the implied last column
            # has no field).
            unit = np.append(1 << shifts, 0)
            unit_by_rank = np.empty((n, dp1), dtype=np.int64)
            unit_by_rank.reshape(-1)[by_rank_at] = unit
            packed = np.empty((n, dp1), dtype=np.int64)
            packed[:, 0] = (rem0_int - key_min) @ unit[:d]
            packed[:, 1:] = unit.sum() - dp1 * unit_by_rank[:, :0:-1]
            np.cumsum(packed, axis=1, out=packed)
            table, inverse = np.unique(packed.reshape(-1), return_inverse=True)
            self.vertex_keys = ((table[:, None] >> shifts) & ((1 << bits) - 1)) + key_min
            base, moves = table, step @ unit[:d]
        else:
            keys = np.stack(
                [rem0_int + r - dp1 * (rank[:, :d] > d - r) for r in range(dp1)], axis=1
            )
            self.vertex_keys, inverse = np.unique(
                keys.reshape(-1, d), axis=0, return_inverse=True
            )
            table = _byte_rows(self.vertex_keys)  # sorted, as np.unique left them
            base, moves = self.vertex_keys, step
        self.num_vertices = len(self.vertex_keys)
        self.offsets = (inverse.reshape(n, dp1) + 1).astype(np.int64)

        self.blur_n1 = np.zeros((dp1, self.num_vertices + 1), dtype=np.int64)
        self.blur_n2 = np.zeros((dp1, self.num_vertices + 1), dtype=np.int64)
        for out, sign in ((self.blur_n1, 1), (self.blur_n2, -1)):
            queries = base[None] + sign * moves[:, None]
            if not self._packable:
                queries = _byte_rows(queries)
            pos = np.searchsorted(table, queries)
            np.minimum(pos, self.num_vertices - 1, out=pos)
            out[:, 1:] = np.where(table[pos] == queries, pos + 1, 0)

        # Gain restoring the halved blur mass over d+1 passes, times the
        # classic correction matching the lattice kernel to the unit Gaussian.
        self.alpha = float(2 ** (dp1)) / (1.0 + 2.0 ** (-d))

        # splat uses the CSC transpose view: each vertex sums in point order
        weights32 = self.barycentric.astype(np.float32)
        point_ids = np.repeat(np.arange(n, dtype=np.int64), dp1)
        self._slice = scipy.sparse.csr_matrix(
            (weights32.ravel(), (self.offsets.ravel(), point_ids)),
            shape=(self.num_vertices + 1, n),
        ).T.tocsr()

    def filter(self, values, timer: dict | None = None) -> np.ndarray:
        """Splat -> blur -> slice; float32 output approximating the exact filter."""
        v, squeezed = _as_value_matrix(values, self.num_points)
        t0 = time.perf_counter() if timer is not None else 0.0
        lat = self._slice.T @ np.ascontiguousarray(v, dtype=np.float32)
        t0 = _tick(timer, "splat", t0)
        scratch = np.empty_like(lat)
        gathered = np.empty_like(lat)
        for j in range(self.dim + 1):
            np.take(lat, self.blur_n1[j], axis=0, out=scratch)
            np.take(lat, self.blur_n2[j], axis=0, out=gathered)
            scratch += gathered
            scratch *= 0.25
            lat *= 0.5
            lat += scratch
        t0 = _tick(timer, "blur", t0)
        out = self._slice @ lat
        out *= np.float32(self.alpha)
        _tick(timer, "slice", t0)
        return out[:, 0] if squeezed else out


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
