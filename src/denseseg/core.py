"""Core containers and file formats for dense prediction maps.

Arrays are row-major and channel-last throughout: a feature map stores
``data[y, x, c]`` so the flat element offset is ``(y * width + x) * channels + c``.
Containers validate on construction and are treated as immutable afterwards;
nothing in this package mutates a container's array in place.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

TENSOR_MAGIC = b"DLT1"


class ShapeError(ValueError):
    """Array has the wrong rank or incompatible dimensions."""


class FormatError(ValueError):
    """Byte stream does not parse as the expected file format."""


@dataclass(frozen=True)
class FeatureMap:
    """Dense real-valued map of shape (height, width, channels), float32."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.data), dtype=np.float32)
        if arr.ndim != 3:
            raise ShapeError(f"feature map must be 3-d (h, w, c), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ShapeError(f"feature map dimensions must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("feature map values must be finite")
        object.__setattr__(self, "data", arr)

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
        arr = np.ascontiguousarray(self.data)
        if arr.dtype != np.uint8:
            raise ValueError(f"image data must be uint8, got {arr.dtype}")
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ShapeError(f"image must have shape (h, w, 3), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"image dimensions must be positive, got {arr.shape}")
        object.__setattr__(self, "data", arr)

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
        arr = np.ascontiguousarray(self.labels)
        if arr.dtype != np.uint8:
            raise ValueError(f"labels must be uint8, got {arr.dtype}")
        if arr.ndim != 2:
            raise ShapeError(f"label map must be 2-d, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"label map dimensions must be positive, got {arr.shape}")
        object.__setattr__(self, "labels", arr)

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


def read_ppm(path: str) -> RgbImage:
    with open(path, "rb") as fh:
        blob = fh.read()
    width, height, pos = _parse_pnm_header(blob, b"P6", path)
    expected = 3 * width * height
    if len(blob) - pos != expected:
        raise FormatError(f"{path}: payload is {len(blob) - pos} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype=np.uint8, count=expected, offset=pos)
    return RgbImage(data.reshape(height, width, 3))


def write_ppm(image: RgbImage, path: str) -> None:
    if not isinstance(image, RgbImage):
        raise TypeError(f"expected RgbImage, got {type(image).__name__}")
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (image.width, image.height))
        fh.write(image.data.tobytes())


def read_pgm(path: str) -> LabelMap:
    with open(path, "rb") as fh:
        blob = fh.read()
    width, height, pos = _parse_pnm_header(blob, b"P5", path)
    expected = width * height
    if len(blob) - pos != expected:
        raise FormatError(f"{path}: payload is {len(blob) - pos} bytes, expected {expected}")
    data = np.frombuffer(blob, dtype=np.uint8, count=expected, offset=pos)
    return LabelMap(data.reshape(height, width))


def write_pgm(labels: LabelMap, path: str) -> None:
    """Write a label map as binary grayscale; class ids are gray levels."""
    if not isinstance(labels, LabelMap):
        raise TypeError(f"expected LabelMap, got {type(labels).__name__}")
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (labels.width, labels.height))
        fh.write(labels.labels.tobytes())
