"""Independent reference implementations used to pin expected test values.

Everything here is written for clarity over speed and sticks to the documented
numeric contracts (float64 accumulation, row-major tap order) so that
bit-exactness claims are meaningful where the contracts promise them.
"""

from __future__ import annotations

import numpy as np


def reference_conv2d(
    data: np.ndarray, weights: np.ndarray, rate: int, padding: bool
) -> np.ndarray:
    """Standard-order rate-r correlation built from explicit tap offset lists.

    data: (h, w, c_in); weights: (kh, kw, c_in, c_out). Zero-pads around the
    center anchor (k-1)//2 when padding is on, otherwise emits only fully
    covered positions. Accumulates per tap in row-major tap order with float64
    matrix products and casts to float32 once at the end, which is the
    accumulation-order contract the library documents.
    """
    x = np.asarray(data, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    kh, kw, c_in, c_out = w.shape
    h, wid = x.shape[:2]
    anchor_y, anchor_x = (kh - 1) // 2, (kw - 1) // 2
    offsets = [
        (rate * (i - anchor_y), rate * (j - anchor_x), i, j)
        for i in range(kh)
        for j in range(kw)
    ]
    if padding:
        out_h, out_w = h, wid
        lead_y, lead_x = rate * anchor_y, rate * anchor_x
        padded = np.zeros(
            (h + rate * (kh - 1), wid + rate * (kw - 1), c_in), dtype=np.float64
        )
        padded[lead_y : lead_y + h, lead_x : lead_x + wid] = x
    else:
        out_h, out_w = h - rate * (kh - 1), wid - rate * (kw - 1)
        lead_y, lead_x = rate * anchor_y, rate * anchor_x
        padded = x
    acc = np.zeros((out_h * out_w, c_out), dtype=np.float64)
    for dy, dx, i, j in offsets:
        y0 = lead_y + dy
        x0 = lead_x + dx
        window = padded[y0 : y0 + out_h, x0 : x0 + out_w, :]
        acc += np.ascontiguousarray(window).reshape(-1, c_in) @ w[i, j]
    return acc.reshape(out_h, out_w, c_out).astype(np.float32)


def reference_bilinear(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Whole-array align-corners bilinear resample of (h, w, c) data.

    Output sample j of an axis reads source position j (n_in - 1) / (n_out - 1)
    (0 if either side has one sample), split into its integer part and an
    exact fraction by integer division. Rows are interpolated first, then
    columns, all in float64 over the whole map, and cast to float32 once.
    """
    def axis(n_in, n_out):
        if n_in == 1 or n_out == 1:
            zero = np.zeros(n_out, dtype=np.int64)
            return zero, zero, np.zeros(n_out)
        num = np.arange(n_out, dtype=np.int64) * (n_in - 1)
        lo = num // (n_out - 1)
        return lo, np.minimum(lo + 1, n_in - 1), (num % (n_out - 1)) / float(n_out - 1)

    x = np.asarray(data, dtype=np.float64)
    r_lo, r_hi, r_t = axis(x.shape[0], out_h)
    c_lo, c_hi, c_t = axis(x.shape[1], out_w)
    rows = x[r_lo] * (1.0 - r_t)[:, None, None] + x[r_hi] * r_t[:, None, None]
    out = rows[:, c_lo] * (1.0 - c_t)[None, :, None] + rows[:, c_hi] * c_t[None, :, None]
    return out.astype(np.float32)


def gaussian_filter_bruteforce(values: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """All-pairs unit Gaussian filter, explicit double loop over points.

    out[i] = sum_j exp(-||f_i - f_j||^2 / 2) * v[j], self term included.
    """
    v = np.asarray(values, dtype=np.float64)
    f = np.asarray(feats, dtype=np.float64)
    n = f.shape[0]
    out = np.zeros_like(v)
    for i in range(n):
        for j in range(n):
            d = f[i] - f[j]
            out[i] += np.exp(-0.5 * float(d @ d)) * v[j]
    return out


def spatial_row_masses_full_matrix(height: int, width: int, sigma_gamma: float) -> np.ndarray:
    """Per-pixel spatial kernel masses from whole (side x side) difference
    matrices per axis, each row summed by numpy, as an outer product."""
    def axis_mass(n):
        pos = np.arange(n, dtype=np.float64) / sigma_gamma
        d = pos[:, None] - pos[None, :]
        return np.exp(-0.5 * d * d).sum(axis=1)

    return np.outer(axis_mass(height), axis_mass(width)).reshape(-1)


def confusion_bruteforce(pred, gt, num_labels, mask=None):
    """Per-pixel tally with explicit loops; 255 in either map is skipped."""
    counts = np.zeros((num_labels, num_labels), dtype=np.int64)
    h, w = gt.shape
    for r in range(h):
        for c in range(w):
            if gt[r, c] == 255 or pred[r, c] == 255:
                continue
            if mask is not None and not mask[r, c]:
                continue
            counts[int(gt[r, c]), int(pred[r, c])] += 1
    return counts


def mean_iou_bruteforce(counts):
    """Scalar-loop mean IOU; classes with empty union are skipped."""
    total, kept = 0.0, 0
    n = counts.shape[0]
    for k in range(n):
        inter = int(counts[k, k])
        union = int(counts[k, :].sum()) + int(counts[:, k].sum()) - inter
        if union > 0:
            total += inter / union
            kept += 1
    if kept == 0:
        raise ZeroDivisionError("no class present")
    return total / kept


def trimap_band_bruteforce(gt, width):
    """Chebyshev-ball band around 4-connected label boundaries, by loops."""
    h, w = gt.shape
    boundary = []
    for r in range(h):
        for c in range(w):
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and gt[rr, cc] != gt[r, c]:
                    boundary.append((r, c))
                    break
    band = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            for br, bc in boundary:
                if max(abs(br - r), abs(bc - c)) <= width - 1:
                    band[r, c] = True
                    break
    return band


def meanfield_step_bruteforce(q, theta, pixels, params):
    """One synchronous belief update, explicit double loop over pixel pairs.

    q, theta: (h, w, labels) float64; pixels: (h, w, 3) uint8 colors.
    Messages exclude the self pair by construction (j != i loops), the
    label penalty counts disagreeing labels only, and each row is
    renormalized with an exp-softmax.
    """
    h, w, labels = q.shape
    out = np.zeros_like(q)
    coords = [(r, c) for r in range(h) for c in range(w)]
    for r, c in coords:
        m_bilateral = np.zeros(labels)
        m_spatial = np.zeros(labels)
        for rr, cc in coords:
            if (rr, cc) == (r, c):
                continue
            dpos = ((r - rr) ** 2 + (c - cc) ** 2) / params.sigma_alpha**2
            dcol = float(
                ((pixels[r, c].astype(np.float64) - pixels[rr, cc]) ** 2).sum()
            ) / params.sigma_beta**2
            m_bilateral += np.exp(-0.5 * (dpos + dcol)) * q[rr, cc]
            dspat = ((r - rr) ** 2 + (c - cc) ** 2) / params.sigma_gamma**2
            m_spatial += np.exp(-0.5 * dspat) * q[rr, cc]
        penalty = np.zeros(labels)
        for lab in range(labels):
            for other in range(labels):
                if other != lab:
                    penalty[lab] += params.w1 * m_bilateral[other]
                    penalty[lab] += params.w2 * m_spatial[other]
        z = -theta[r, c] - penalty
        e = np.exp(z - z.max())
        out[r, c] = e / e.sum()
    return out


def energy_bruteforce(labels, theta, pixels, params):
    """Scalar-loop total energy: unary plus once-per-pair weighted kernels."""
    h, w = labels.shape
    coords = [(r, c) for r in range(h) for c in range(w)]
    total = 0.0
    for r, c in coords:
        total += float(theta[r, c, int(labels[r, c])])
    for i, (r, c) in enumerate(coords):
        for rr, cc in coords[i + 1 :]:
            if labels[r, c] == labels[rr, cc]:
                continue
            dpos = (r - rr) ** 2 + (c - cc) ** 2
            dcol = float(
                ((pixels[r, c].astype(np.float64) - pixels[rr, cc]) ** 2).sum()
            )
            kb = np.exp(-0.5 * (dpos / params.sigma_alpha**2 + dcol / params.sigma_beta**2))
            ks = np.exp(-0.5 * dpos / params.sigma_gamma**2)
            total += params.w1 * kb + params.w2 * ks
    return total


def relative_linf(actual: np.ndarray, expected: np.ndarray) -> float:
    """L-infinity error of `actual` scaled by the L-infinity size of `expected`."""
    scale = float(np.max(np.abs(expected)))
    if scale == 0.0:
        return float(np.max(np.abs(actual)))
    return float(np.max(np.abs(actual - expected))) / scale


def relative_l2(actual: np.ndarray, expected: np.ndarray) -> float:
    num = float(np.linalg.norm(np.asarray(actual) - np.asarray(expected)))
    den = float(np.linalg.norm(np.asarray(expected)))
    return num / den if den > 0 else num


def box_blur_bruteforce(plane, radius):
    """Windowed mean with explicit loops, window clipped at the borders."""
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    out = np.empty_like(plane)
    for r in range(h):
        for c in range(w):
            r0, r1 = max(0, r - radius), min(h, r + radius + 1)
            c0, c1 = max(0, c - radius), min(w, c + radius + 1)
            total, count = 0.0, 0
            for rr in range(r0, r1):
                for cc in range(c0, c1):
                    total += plane[rr, cc]
                    count += 1
            out[r, c] = total / count
    return out


def lattice_embed_reference(coords: np.ndarray):
    """Permutohedral embedding by the direct construction, for comparison.

    Ranks each elevated coordinate by counting the coordinates that beat it
    in an (n, d+1, d+1) comparison tensor, scatters barycentric weights one
    column at a time, spells out every vertex key of every point, and finds
    blur neighbors through a dict from key to vertex id. Vertex ids number
    the distinct keys in lexicographic order from 1, as the lattice does.

    Returns (offsets, barycentric, vertex_keys, blur_n1, blur_n2) with the
    lattice's shapes and conventions.
    """
    f = np.asarray(coords, dtype=np.float64)
    n, d = f.shape
    dp1 = d + 1
    idx = np.arange(d, dtype=np.float64)
    scale = (dp1 * np.sqrt(2.0 / 3.0)) / np.sqrt((idx + 1.0) * (idx + 2.0))
    # elevation by the reference lattice code's running sum
    scaled = f * scale
    elevated = np.empty((n, dp1))
    running = np.zeros(n)
    for i in range(d, 0, -1):
        elevated[:, i] = running - i * scaled[:, i - 1]
        running = running + scaled[:, i - 1]
    elevated[:, 0] = running

    v = elevated / dp1
    up = np.ceil(v) * dp1
    down = np.floor(v) * dp1
    rem0 = np.where(up - elevated < elevated - down, up, down)
    coord_sums = np.rint(rem0.sum(axis=1) / dp1).astype(np.int64)

    diff = elevated - rem0
    beats = (diff[:, :, None] > diff[:, None, :]) | (
        (diff[:, :, None] == diff[:, None, :])
        & (np.arange(dp1)[None, :, None] < np.arange(dp1)[None, None, :])
    )
    rank = beats.sum(axis=1) + coord_sums[:, None]
    low = rank < 0
    rank[low] += dp1
    rem0[low] += dp1
    high = rank > d
    rank[high] -= dp1
    rem0[high] -= dp1

    bary = np.zeros((n, d + 2))
    rows = np.arange(n)
    frac = (elevated - rem0) / dp1
    for c in range(dp1):
        bary[rows, d - rank[:, c]] += frac[:, c]
        bary[rows, d + 1 - rank[:, c]] -= frac[:, c]
    bary[:, 0] += 1.0 + bary[:, d + 1]

    rem0_int = np.rint(rem0[:, :d]).astype(np.int64)
    keys = np.empty((n, dp1, d), dtype=np.int64)
    for remainder in range(dp1):
        canonical = np.where(rank[:, :d] <= d - remainder, remainder, remainder - dp1)
        keys[:, remainder, :] = rem0_int + canonical
    vertex_keys, inverse = np.unique(keys.reshape(-1, d), axis=0, return_inverse=True)
    offsets = inverse.reshape(n, dp1) + 1

    table = {tuple(key): i + 1 for i, key in enumerate(vertex_keys.tolist())}
    blur_n1 = np.zeros((dp1, len(vertex_keys) + 1), dtype=np.int64)
    blur_n2 = np.zeros_like(blur_n1)
    for j in range(dp1):
        step = np.ones(d, dtype=np.int64)
        if j < d:
            step[j] -= dp1
        for i, key in enumerate(vertex_keys):
            blur_n1[j, i + 1] = table.get(tuple((key - step).tolist()), 0)
            blur_n2[j, i + 1] = table.get(tuple((key + step).tolist()), 0)
    return offsets, bary[:, :dp1], vertex_keys, blur_n1, blur_n2


def lattice_filter_reference(lattice, values) -> np.ndarray:
    """A built lattice's splat, blur and slice in float64, times the gain
    2^(d+1) / (1 + 2^-d), read from its offsets, barycentric weights and
    blur neighbour ids alone; no per-point calibration gain.

    Splat adds each point's weighted values into its d+1 vertices, each blur
    direction replaces every vertex by 1/4, 1/2, 1/4 of its two neighbours
    and itself (row 0, the missing-neighbour sentinel, stays 0), and slice
    takes each point's weighted sum of its vertices.
    """
    v = np.asarray(values, dtype=np.float64)
    offsets, bary = lattice.offsets, lattice.barycentric
    n, dp1 = offsets.shape
    lat = np.zeros((lattice.num_vertices + 1, v.shape[1]))
    for k in range(dp1):
        np.add.at(lat, offsets[:, k], bary[:, k, None] * v)
    for j in range(dp1):
        lat = 0.5 * lat + 0.25 * (lat[lattice.blur_n1[j]] + lat[lattice.blur_n2[j]])
    out = np.zeros_like(v)
    for k in range(dp1):
        out += bary[:, k, None] * lat[offsets[:, k]]
    d = dp1 - 1
    return out * (2.0 ** dp1 / (1.0 + 2.0 ** -d))


def meanfield_update_total_minus_own(q, theta, filt_bilateral, filt_spatial, w1, w2):
    """One belief update from filtered beliefs, spelled out per label, float64.

    q, theta, filt_*: (n, labels). The filtered values include each
    kernel's unit self term, which is dropped first. Label l then pays w1
    times the bilateral message mass of every other label (the total over
    labels minus its own) plus the same for the spatial message, and rows
    are renormalized with an exp-softmax.
    """
    q = np.asarray(q, dtype=np.float64)
    mb = np.asarray(filt_bilateral, dtype=np.float64) - q
    ms = np.asarray(filt_spatial, dtype=np.float64) - q
    penalty = np.zeros_like(q)
    for lab in range(q.shape[1]):
        penalty[:, lab] = w1 * (mb.sum(axis=1) - mb[:, lab]) + w2 * (
            ms.sum(axis=1) - ms[:, lab]
        )
    z = -np.asarray(theta, dtype=np.float64) - penalty
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def meanfield_labels_all_pairs(theta, image, params, iters):
    """Labels after `iters` float64 mean-field updates at any image size.

    The bilateral and spatial sums come from gaussian_filter_exact over all
    pixel pairs, with no pixel cap, so this is the exact reference beyond
    the size the exact backend accepts.
    """
    from denseseg.densecrf import bilateral_features, spatial_features
    from denseseg.hdfilter import gaussian_filter_exact

    h, w, labels = theta.shape
    theta = np.asarray(theta, dtype=np.float64).reshape(-1, labels)
    bilateral = bilateral_features(image, params.sigma_alpha, params.sigma_beta)
    spatial = spatial_features(h, w, params.sigma_gamma)
    e = np.exp(-theta - (-theta).max(axis=1, keepdims=True))
    q = e / e.sum(axis=1, keepdims=True)
    for _ in range(iters):
        q = meanfield_update_total_minus_own(
            q, theta, gaussian_filter_exact(q, bilateral),
            gaussian_filter_exact(q, spatial), params.w1, params.w2,
        )
    return np.argmax(q, axis=1).reshape(h, w)


def softmax_rows_whole_array(z):
    """Rowwise softmax over the whole array in one pass each: the row max by
    max(axis=-1) and the row sum by sum(axis=-1), on a copy of z."""
    shifted = z - z.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def meanfield_update_whole_array(q, theta, zb, zs, w1, w12, w2):
    """The closed-form belief update over the whole flat (n, K*labels) array.

    zb and zs are the bilateral and spatial filter outputs for q; zb is
    overwritten and returned. Each step runs once over every element, the
    row max by max(axis=1) and the row sum by einsum.
    """
    n, labels = theta.shape
    b, r = zb.reshape(n, -1, labels), zs.reshape(n, -1, labels)
    b *= w1
    r *= w2
    b += r
    np.multiply(q.reshape(b.shape), w12, out=r)
    b -= r
    b -= theta[:, None]
    rows = zb.reshape(-1, labels)
    rows -= rows.max(axis=1, keepdims=True)
    np.exp(rows, out=rows)
    rows /= np.einsum("ij->i", rows)[:, None]
    return zb
