"""Core containers and file formats for dense prediction maps.

Arrays are row-major and channel-last throughout: a feature map stores
``data[y, x, c]`` so the flat element offset is ``(y * width + x) * channels + c``.
Containers validate on construction and are treated as immutable afterwards;
nothing in this package mutates a container's array in place.
"""

from __future__ import annotations

import builtins
import math
import struct
import sys
from dataclasses import dataclass, field, fields

import numpy as np

TENSOR_MAGIC = b"DLT1"


class ShapeError(ValueError):
    """Array has the wrong rank or incompatible dimensions."""


class FormatError(ValueError):
    """Byte stream does not parse as the expected file format."""


def _checked(values, name: str, axes: tuple, dtype=None, finite: bool = False) -> np.ndarray:
    """`values` as a C-contiguous array of `dtype`, else an error naming `name`.

    dtype None keeps float32, uncopied, and makes anything else float64; no
    array is cast to uint8, since the cast wraps. An integer or bool dtype
    takes only values it holds exactly: whole numbers in its range, or 0 and
    1. The array needs one extent of at least 1 per named axis, and a
    "labels" axis at least 2. With `finite`, NaN and infinite entries,
    overflow of the cast included, raise ValueError.
    """
    arr = np.asarray(values)
    if dtype == np.uint8 and arr.dtype != dtype:
        raise ValueError(f"{name} must be uint8, got {arr.dtype}")
    if arr.ndim != len(axes) or 0 in arr.shape:
        raise ShapeError(f"{name} must be ({', '.join(axes)}) with every extent "
                         f"at least 1, got shape {arr.shape}")
    if axes[-1] == "labels" and arr.shape[-1] < 2:
        raise ShapeError(f"need at least 2 labels, got {arr.shape[-1]}")
    if dtype is None:
        dtype = np.float32 if arr.dtype == np.float32 else np.float64
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.ascontiguousarray(arr, dtype)
    if out.dtype.kind in "bi" and out.dtype != arr.dtype and not np.array_equal(out, arr):
        held = "only 0 and 1" if out.dtype.kind == "b" else f"whole numbers within {out.dtype}"
        raise ValueError(f"{name} must hold {held}")
    if finite and not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    return out


def _store(obj, field: str, axes: tuple, dtype=None, finite: bool = False) -> np.ndarray:
    """Check a frozen container's array field by `_checked` and store the result."""
    arr = _checked(getattr(obj, field), f"{type(obj).__name__}.{field}", axes, dtype, finite)
    object.__setattr__(obj, field, arr)
    return arr


def _number(name: str, value, cast, low, high=math.inf):
    """`value` through `cast` (int() truncates fractions), finite and in
    [low, high], else a ValueError naming the field. A float of any width
    is tested as a Python float: compared with float max, a NumPy float32
    would cast the max to float32, and a long double could pass it."""
    if isinstance(value, (int, np.integer)):
        finite = cast is int or abs(value) <= sys.float_info.max  # float() of more raises
    else:
        finite = math.isfinite(value)
    number = cast(value) if finite else math.nan
    if not low <= number <= high:
        raise ValueError(f"{name.replace('_', ' ')} must be in [{low!r}, {high!r}], got {value}")
    return number


def _in(low, high=math.inf, **kwargs):
    """A numeric field, converted by its annotated type (a colour's three
    values by int()) and checked by `_number` against [low, high]."""
    return field(metadata={"range": (low, high)}, **kwargs)


def _convert(f, value):
    """`value` for the `_in` field `f`, by its type and range; a type given
    as its name, under postponed annotations, is looked up by it."""
    cast = getattr(builtins, f.type) if isinstance(f.type, str) else f.type
    if cast is not tuple:
        return _number(f.name, value, cast, *f.metadata["range"])
    rgb = tuple(_number(f.name, c, int, *f.metadata["range"]) for c in value)
    if len(rgb) != 3:
        raise ValueError(f"{f.name} must be three values, got {len(rgb)}")
    return rgb


def _check_fields(obj) -> None:
    """Convert and check every `_in` field of a frozen dataclass in place."""
    for f in fields(obj):
        if f.metadata:
            object.__setattr__(obj, f.name, _convert(f, getattr(obj, f.name)))


@dataclass(frozen=True)
class FeatureMap:
    """Dense real-valued map of shape (height, width, channels), float32."""

    data: np.ndarray

    def __post_init__(self) -> None:
        _store(self, "data", ("height", "width", "channels"), np.float32, finite=True)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class RgbImage:
    """8-bit color image of shape (height, width, 3)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        if _store(self, "data", ("height", "width", "channels"), np.uint8).shape[2] != 3:
            raise ShapeError(f"RgbImage.data must have 3 channels, got shape {self.data.shape}")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel class ids of shape (height, width), uint8."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        _store(self, "labels", ("height", "width"), np.uint8)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


# --- tensor file format ------------------------------------------------------
#
# Layout: 4-byte magic "DLT1", then uint32 ndim (always 3), then ndim uint32
# dims (height, width, channels), then height*width*channels float32 payload.
# All integers and floats little-endian; payload in flat (y, x, c) order.


def write_tensor(fm: FeatureMap, path: str) -> None:
    """Serialize a feature map; a 1x1x1 map produces a 24-byte file."""
    if not isinstance(fm, FeatureMap):
        raise TypeError(f"expected FeatureMap, got {type(fm).__name__}")
    header = TENSOR_MAGIC + struct.pack("<IIII", 3, fm.height, fm.width, fm.channels)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(fm.data, dtype="<f4").tobytes())


def read_tensor(path: str) -> FeatureMap:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise FormatError(f"{path}: truncated tensor header at byte {len(blob)}")
    if blob[:4] != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r} at byte 0, expected {TENSOR_MAGIC!r}")
    (ndim,) = struct.unpack_from("<I", blob, 4)
    if ndim != 3:
        raise FormatError(f"{path}: expected 3 dimensions at byte 4, header says {ndim}")
    if len(blob) < 8 + 12:
        raise FormatError(f"{path}: truncated dimension list at byte {len(blob)}")
    h, w, c = struct.unpack_from("<III", blob, 8)
    if h < 1 or w < 1 or c < 1:
        raise FormatError(f"{path}: dimensions at byte 8 must be positive, got ({h}, {w}, {c})")
    expected = 20 + 4 * h * w * c
    if len(blob) != expected:
        raise FormatError(
            f"{path}: file is {len(blob)} bytes, format requires {expected} (payload at byte 20)"
        )
    payload = np.frombuffer(blob, dtype="<f4", count=h * w * c, offset=20)
    if not np.isfinite(payload).all():
        raise FormatError(f"{path}: payload contains non-finite values")
    return FeatureMap(payload.reshape(h, w, c))


# --- PPM / PGM ---------------------------------------------------------------
#
# Binary flavors only (P6 color, P5 gray), maxval 255. Writers emit exactly
# "P6\n<w> <h>\n255\n" followed by the raw samples; readers require the four
# header tokens whitespace-separated with a single whitespace byte before the
# payload.

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _parse_pnm_header(blob: bytes, magic: bytes, path: str) -> tuple[int, int, int]:
    """Return (width, height, payload offset); raises FormatError on misparse."""
    if blob[:2] != magic:
        raise FormatError(f"{path}: bad magic {blob[:2]!r}, expected {magic!r}")
    pos = 2
    fields = []
    for _ in range(3):
        if pos >= len(blob) or blob[pos : pos + 1] not in _WHITESPACE:
            raise FormatError(f"{path}: malformed header, expected whitespace at byte {pos}")
        while pos < len(blob) and blob[pos : pos + 1] in _WHITESPACE:
            pos += 1
        start = pos
        while pos < len(blob) and blob[pos : pos + 1].isdigit():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: malformed header, expected digits at byte {start}")
        digits = blob[start:pos].lstrip(b"0")  # int() refuses very long digit strings
        if len(digits) > 9:
            raise FormatError(f"{path}: header number at byte {start} is too large")
        fields.append(int(digits or b"0"))
    if pos >= len(blob) or blob[pos : pos + 1] not in _WHITESPACE:
        raise FormatError(f"{path}: missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: image dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    return width, height, pos


def _read_pnm(path: str, magic: bytes, channels: int) -> np.ndarray:
    """The (height, width, channels) uint8 payload of a binary PNM file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    width, height, pos = _parse_pnm_header(blob, magic, path)
    expected = channels * width * height
    if len(blob) - pos != expected:
        raise FormatError(f"{path}: payload is {len(blob) - pos} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype=np.uint8, count=expected, offset=pos)
    return data.reshape(height, width, channels)


def read_ppm(path: str) -> RgbImage:
    return RgbImage(_read_pnm(path, b"P6", 3))


def write_ppm(image: RgbImage, path: str) -> None:
    if not isinstance(image, RgbImage):
        raise TypeError(f"expected RgbImage, got {type(image).__name__}")
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (image.width, image.height))
        fh.write(image.data.tobytes())


def read_pgm(path: str) -> LabelMap:
    return LabelMap(_read_pnm(path, b"P5", 1)[..., 0])


def write_pgm(labels: LabelMap, path: str) -> None:
    """Write a label map as binary grayscale; class ids are gray levels."""
    if not isinstance(labels, LabelMap):
        raise TypeError(f"expected LabelMap, got {type(labels).__name__}")
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (labels.width, labels.height))
        fh.write(labels.labels.tobytes())
