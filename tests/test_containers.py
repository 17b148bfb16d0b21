"""One rule for every array container: each converts its array, requires one
extent of at least 1 per axis, refuses non-finite entries where it needs
finite ones, and stores the array C-contiguous; unary_from_probs checks its
probabilities by the same rule."""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import denseseg
from denseseg.atrous import ConvKernel
from denseseg.core import FeatureMap, LabelMap, RgbImage, ShapeError
from denseseg.densecrf import MeanFieldState, UnaryField, unary_from_probs
from denseseg.hdfilter import FeaturePoints
from denseseg.metrics import ConfusionMatrix, TrimapBand

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
