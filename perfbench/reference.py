"""Float64 reference for the DeepLab front end, written apart from the program.

It follows the same definitions as the program (same-size atrous
correlation anchored at the kernel centre, align-corners bilinear
resampling, round-half-up pyramid sizes, branch sum, max fusion) but keeps
float64 throughout and evaluates each convolution as one im2col contraction
instead of a per-tap sum, so it shares no code and no rounding with the
program. deeplab_front scores the program's labels against its labels.
"""

from __future__ import annotations

import numpy as np


def conv(x: np.ndarray, w: np.ndarray, rate: int) -> np.ndarray:
    """Same-size rate-`rate` correlation of (h, w, c_in) by (kh, kw, c_in, c_out)."""
    kh, kw, c_in, c_out = w.shape
    h, wd = x.shape[:2]
    ah, aw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((rate * ah, rate * (kh - 1 - ah)), (rate * aw, rate * (kw - 1 - aw)), (0, 0)))
    cols = np.stack(
        [xp[i * rate : i * rate + h, j * rate : j * rate + wd] for i in range(kh) for j in range(kw)],
        axis=2,
    )
    return np.tensordot(cols, w.reshape(kh * kw, c_in, c_out), axes=([2, 3], [0, 1]))


def _axis(n_in: int, n_out: int):
    if n_in == 1 or n_out == 1:
        pos = np.zeros(n_out)
    else:
        pos = np.arange(n_out) * (n_in - 1) / (n_out - 1)
    lo = np.floor(pos).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, pos - lo


def resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Align-corners bilinear resampling of (h, w, c) to (out_h, out_w, c)."""
    r_lo, r_hi, r_t = _axis(x.shape[0], out_h)
    c_lo, c_hi, c_t = _axis(x.shape[1], out_w)
    rows = x[r_lo] * (1 - r_t)[:, None, None] + x[r_hi] * r_t[:, None, None]
    return rows[:, c_lo] * (1 - c_t)[None, :, None] + rows[:, c_hi] * c_t[None, :, None]


def front_end(features: np.ndarray, branches, scales, factor: int) -> np.ndarray:
    """Multi-scale ASPP scores upsampled `factor`-fold; `branches` holds
    (rate, [w0, w1, w2]) with float weights of the program's layout."""
    x = features.astype(np.float64)
    h, w = x.shape[:2]
    fused = None
    for s in scales:
        sh, sw = max(1, int(np.floor(h * s + 0.5))), max(1, int(np.floor(w * s + 0.5)))
        xs = x if (sh, sw) == (h, w) else resize(x, sh, sw)
        total = 0.0
        for rate, weights in branches:
            y = conv(xs, weights[0].astype(np.float64), rate)
            for k in weights[1:]:
                y = conv(y, k.astype(np.float64), 1)
            total = total + y
        if total.shape[:2] != (h, w):
            total = resize(total, h, w)
        fused = total if fused is None else np.maximum(fused, total)
    return resize(fused, h * factor, w * factor)
