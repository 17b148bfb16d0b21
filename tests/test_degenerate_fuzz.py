"""Property tests: degenerate shapes and parameters through mean field.

1x1, 1xN and Nx1 images, 2 to 255 labels, constant images and kernel
widths anywhere in (0, max float) run through run_inference on both
backends and through a one-case grid_search. Each run either refuses its
input with ShapeError or ValueError or returns valid beliefs: finite,
non-negative, rows summing to 1. Arrays of any small shape and dtype, NaN
and infinities mixed in, reach every array container, which either holds
them or refuses them in its own words.
"""

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from denseseg.core import LabelMap, RgbImage, ShapeError
from denseseg.densecrf import (
    BACKENDS,
    PairwiseParams,
    SearchRanges,
    grid_search,
    run_inference,
    unary_from_probs,
)
from test_containers import TARGETS

PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)

SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(1)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
)
# every width PairwiseParams accepts, subnormals and the largest float
# included, with working widths mixed in so the lattice also runs often
SIGMAS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-20, 1e-12, 1e12, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=0.01, max_value=1e4),
    st.floats(min_value=0.0, max_value=1.7976931348623157e308, exclude_min=True),
)
WEIGHTS = st.sampled_from([0.0, 0.1, 4.0, 1e3])


@st.composite
def instances(draw):
    h, w = draw(SHAPES)
    labels = draw(st.sampled_from([2, 3, 255]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pixels = np.broadcast_to(rng.integers(0, 256, 3, dtype=np.uint8), (h, w, 3))
    else:
        pixels = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    # peaked posteriors put some costs at the clamp, -log(1e-20)
    probs = rng.random((h, w, labels)) ** draw(st.sampled_from([1.0, 40.0]))
    probs /= probs.sum(axis=2, keepdims=True)
    params = PairwiseParams(
        w1=draw(WEIGHTS), sigma_alpha=draw(SIGMAS), sigma_beta=draw(SIGMAS),
        w2=draw(WEIGHTS), sigma_gamma=draw(SIGMAS),
    )
    gt = LabelMap(rng.integers(0, labels, (h, w)).astype(np.uint8))
    return unary_from_probs(probs), RgbImage(np.array(pixels)), gt, params


def assert_valid(q: np.ndarray, labels: int) -> None:
    assert q.shape[2] == labels
    assert np.isfinite(q).all()
    assert (q >= 0).all()
    np.testing.assert_allclose(q.sum(axis=2), 1.0, atol=1e-5)


@PROPERTY
@given(instances())
def test_inference_keeps_beliefs_valid(instance):
    unary, image, _, params = instance
    for backend in BACKENDS:
        try:
            state, labels = run_inference(unary, image, params, iters=2, backend=backend)
        except (ShapeError, ValueError):
            event(f"{backend} refused")
            continue
        event(f"{backend} ran")
        assert_valid(state.q, unary.labels)
        assert labels.labels.shape == (image.height, image.width)
        assert int(labels.labels.max()) < unary.labels


@PROPERTY
@given(instances(), st.sampled_from(BACKENDS))
def test_one_case_search_returns_a_grid_point(instance, backend):
    unary, image, gt, params = instance
    ranges = SearchRanges(w1=(params.w1,), sigma_alpha=(params.sigma_alpha,),
                          sigma_beta=(params.sigma_beta,))
    try:
        best, report = grid_search([(unary, image, gt)], ranges=ranges, iters=2,
                                   backend=backend)
    except (ShapeError, ValueError):
        event(f"{backend} refused")
        return
    event(f"{backend} ran")
    assert (best.w1, best.sigma_alpha, best.sigma_beta) == (
        params.w1, params.sigma_alpha, params.sigma_beta)
    assert all(0.0 <= p.score <= 1.0 for p in report)


# Entries of the fuzzed arrays; casts to the drawn dtype wrap, saturate or
# overflow to inf, as a caller's own cast would.
ENTRIES = [0.0, 0.25, 0.5, 1.0, 3.0, -1.0, 300.0, 1e30, 1.7976931348623157e308,
           np.nan, np.inf, -np.inf]


@st.composite
def any_arrays(draw):
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=5)))
    dtype = draw(st.sampled_from([bool, np.uint8, np.int64, np.float16, np.float32,
                                  np.float64]))
    entries = draw(st.lists(st.sampled_from(ENTRIES), min_size=int(np.prod(shape)),
                            max_size=int(np.prod(shape))))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array(entries).reshape(shape).astype(dtype)


@PROPERTY
@given(st.sampled_from(TARGETS), any_arrays())
@example(TARGETS[-1], np.full((1, 1, 2), np.finfo(np.float64).max))  # sums overflow
def test_containers_hold_or_refuse_in_their_own_words(target, values):
    """Every refusal names the container, or its field's labels axis for the
    two-label rule; none is numpy's own message."""
    name, make, field, _ = target
    try:
        stored = getattr(make(values), field)
    except (ShapeError, ValueError, TypeError) as exc:
        event(f"{name} refused")
        assert name in str(exc) or str(exc).startswith("need at least 2 labels"), str(exc)
        return
    event(f"{name} held")
    assert stored.flags.c_contiguous and 0 not in stored.shape
