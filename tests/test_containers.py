"""One rule for every array container: each converts its array, requires one
extent of at least 1 per axis, refuses non-finite entries where it needs
finite ones, and stores the array C-contiguous; unary_from_probs checks its
probabilities by the same rule. One rule for every numeric field declared
with `core._in`: it converts the value by the field's type and refuses
anything not finite or outside the field's range."""

from __future__ import annotations

import dataclasses
import importlib
import math
import pkgutil
import warnings

import numpy as np
import pytest

import denseseg
from denseseg.atrous import ConvKernel
from denseseg.core import FeatureMap, LabelMap, RgbImage, ShapeError
from denseseg.densecrf import MeanFieldState, PairwiseParams, UnaryField, unary_from_probs
from denseseg.hdfilter import FeaturePoints
from denseseg.metrics import ConfusionMatrix, TrimapBand
from denseseg.synth import Disk, Rect, SceneSpec

# (name its messages carry, constructor, field holding the stored array, a valid input)
TARGETS = [
    ("FeatureMap", FeatureMap, "data", np.ones((2, 3, 4), np.float32)),
    ("RgbImage", RgbImage, "data", np.arange(18, dtype=np.uint8).reshape(2, 3, 3)),
    ("LabelMap", LabelMap, "labels", np.arange(6, dtype=np.uint8).reshape(2, 3)),
    ("UnaryField", UnaryField, "theta", np.linspace(-1, 1, 24).reshape(2, 3, 4)),
    ("MeanFieldState", MeanFieldState, "q", np.full((2, 3, 4), 0.25)),
    ("FeaturePoints", FeaturePoints, "coords", np.linspace(0, 1, 10).reshape(5, 2)),
    ("ConvKernel", ConvKernel, "weights", np.ones((3, 2, 2, 4), np.float32)),
    ("ConfusionMatrix", ConfusionMatrix, "counts", np.arange(9).reshape(3, 3)),
    ("TrimapBand", lambda mask: TrimapBand(1, mask), "mask", np.eye(4, 5, dtype=bool)),
    ("probabilities", unary_from_probs, "theta", np.full((2, 3, 4), 0.25)),
]
FLOAT_TARGETS = [t for t in TARGETS if t[3].dtype.kind == "f"]
ARRAY_CONTAINERS = {t[0] for t in TARGETS} - {"probabilities"}


def target_ids(targets):
    return [t[0] for t in targets]


@pytest.mark.parametrize("name,make,field,valid", TARGETS, ids=target_ids(TARGETS))
def test_wrong_rank_and_zero_extents_name_the_container(name, make, field, valid):
    bad = [valid[0], valid[..., None], np.asarray(valid.flat[0])]
    for axis in range(valid.ndim):
        shape = list(valid.shape)
        shape[axis] = 0
        bad.append(np.zeros(shape, valid.dtype))
    for values in bad:
        with pytest.raises(ShapeError, match=name):
            make(values)


@pytest.mark.parametrize("name,make,field,valid", FLOAT_TARGETS, ids=target_ids(FLOAT_TARGETS))
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_nonfinite_entries_refused(name, make, field, valid, entry):
    values = valid.copy()
    values[(0,) * values.ndim] = entry
    with pytest.raises(ValueError, match=name):
        make(values)


@pytest.mark.parametrize("name,make,field,valid", TARGETS, ids=target_ids(TARGETS))
def test_strided_view_stored_c_contiguous(name, make, field, valid):
    view = np.repeat(valid, 2, axis=0)[::2]
    assert not view.flags.c_contiguous
    got = getattr(make(view), field)
    assert got.flags.c_contiguous
    assert np.array_equal(got, getattr(make(valid), field))


def test_every_array_dataclass_refuses_empty_arrays():
    """Walks the package, so a container added later meets the rule too."""
    found = set()
    for info in pkgutil.iter_modules(denseseg.__path__):
        module = importlib.import_module(f"denseseg.{info.name}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                continue
            fields = dataclasses.fields(cls)
            arrays = {f.name for f in fields if f.type in ("np.ndarray", np.ndarray)}
            if not arrays:
                continue
            found.add(cls.__name__)
            for rank in range(1, 6):
                empty = np.zeros((0,) * rank, np.uint8)
                with pytest.raises(ShapeError, match=cls.__name__):
                    cls(**{f.name: empty if f.name in arrays else 1 for f in fields})
    assert found == ARRAY_CONTAINERS


# a valid, whole-numbered value for every numeric field of each class
FIELD_OWNERS = {
    Rect: dict(label=1, top=0, left=0, height=2, width=2, color=(200, 60, 60), jitter=1),
    Disk: dict(label=1, row=3, col=3, radius=2, color=(200, 60, 60), jitter=1),
    SceneSpec: dict(height=8, width=8, background=(30, 30, 30), blur=1, noise_sigma=1, seed=3),
    PairwiseParams: dict(w1=4, sigma_alpha=60, sigma_beta=5, w2=3, sigma_gamma=3),
    TrimapBand: dict(width=1, mask=np.eye(4, 5, dtype=bool)),
}
RANGED_FIELDS = [(cls, f) for cls in FIELD_OWNERS for f in dataclasses.fields(cls) if f.metadata]


@pytest.mark.parametrize("cls,f", RANGED_FIELDS,
                         ids=[f"{cls.__name__}.{f.name}" for cls, f in RANGED_FIELDS])
def test_every_ranged_field_takes_numpy_numbers(cls, f):
    """NumPy float32, float64 and integer values are stored as the field's
    Python type with no warning; NaN, +-inf and a value outside the field's
    range, or past float range, raise a ValueError that names it. A float32
    compared with float max used to warn of an overflow in the cast."""
    low, high = f.metadata["range"]
    rgb = f.type in (tuple, "tuple")
    kind = int if rgb else {"int": int, "float": float}.get(f.type, f.type)
    whole = FIELD_OWNERS[cls][f.name]
    whole = whole[0] if rgb else whole

    def build(value):
        return cls(**{**FIELD_OWNERS[cls], f.name: (value, 60, 60) if rgb else value})

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for number in (np.float32, np.float64, np.int64):
            got = getattr(build(number(whole)), f.name)
            got = got[0] if rgb else got
            assert type(got) is kind and got == whole, number
    outside = [low - 1] * (low > -math.inf) + [2 * high] * (high < math.inf)
    if np.finfo(np.longdouble).max > np.finfo(np.float64).max:
        outside.append(np.longdouble(10) ** 400)  # finite, but no float holds it
    for value in [math.nan, math.inf, -math.inf, *outside]:
        with pytest.raises(ValueError, match=f.name.replace("_", " ")):
            build(value)
