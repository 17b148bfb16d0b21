"""Synthetic scenes with ground truth and controllably corrupted unaries.

Scenes are flat-colored rectangles and disks over a background, later
shapes occluding earlier ones.  Unary costs come from the ground truth by
blurring one-hot logits with a border-renormalized box filter, adding
Gaussian logit noise, and softmaxing back to a posterior, which mimics a
smooth, slightly wrong classifier.

Randomness is split per instance: the scene seed spawns two child
streams, the first consumed by shape color jitter (one full-grid normal
field per shape, in shape order), the second by the logit noise.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import FormatError, LabelMap, RgbImage
from .densecrf import UnaryField, _softmax_rows, unary_from_probs

MAX_SHAPE_LABEL = 254


def _check_color(color) -> tuple:
    rgb = tuple(int(c) for c in color)
    if len(rgb) != 3 or any(c < 0 or c > 255 for c in rgb):
        raise ValueError(f"color must be three values in 0..255, got {color!r}")
    return rgb


def _check_label(label: int) -> int:
    label = int(label)
    if not 1 <= label <= MAX_SHAPE_LABEL:
        raise ValueError(
            f"shape labels must be in 1..{MAX_SHAPE_LABEL} "
            f"(0 is background, 255 is reserved), got {label}"
        )
    return label


@dataclass(frozen=True)
class Rect:
    """Axis-aligned filled rectangle."""

    label: int
    top: int
    left: int
    height: int
    width: int
    color: tuple
    jitter: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", _check_label(self.label))
        for name in ("top", "left", "height", "width"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.top < 0 or self.left < 0:
            raise ValueError(f"rect origin must be >= 0, got ({self.top}, {self.left})")
        if self.height < 1 or self.width < 1:
            raise ValueError(
                f"rect extent must be >= 1, got ({self.height}, {self.width})"
            )
        object.__setattr__(self, "color", _check_color(self.color))
        object.__setattr__(self, "jitter", float(self.jitter))
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def fits(self, height: int, width: int) -> bool:
        return self.top + self.height <= height and self.left + self.width <= width

    def mask(self, height: int, width: int) -> np.ndarray:
        m = np.zeros((height, width), dtype=bool)
        m[self.top : self.top + self.height, self.left : self.left + self.width] = True
        return m


@dataclass(frozen=True)
class Disk:
    """Filled disk: pixels with (y - row)^2 + (x - col)^2 <= radius^2."""

    label: int
    row: int
    col: int
    radius: float
    color: tuple
    jitter: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", _check_label(self.label))
        object.__setattr__(self, "row", int(self.row))
        object.__setattr__(self, "col", int(self.col))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError(f"disk radius must be > 0, got {self.radius}")
        object.__setattr__(self, "color", _check_color(self.color))
        object.__setattr__(self, "jitter", float(self.jitter))
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def fits(self, height: int, width: int) -> bool:
        return (
            self.row - self.radius >= 0
            and self.col - self.radius >= 0
            and self.row + self.radius <= height - 1
            and self.col + self.radius <= width - 1
        )

    def mask(self, height: int, width: int) -> np.ndarray:
        ys, xs = np.mgrid[0:height, 0:width]
        dy = ys - self.row
        dx = xs - self.col
        return dy * dy + dx * dx <= self.radius * self.radius


@dataclass(frozen=True)
class SceneSpec:
    """Full recipe for one ground-truthed instance."""

    height: int
    width: int
    shapes: tuple = ()
    background: tuple = (0, 0, 0)
    blur: int = 0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "height", int(self.height))
        object.__setattr__(self, "width", int(self.width))
        if self.height < 1 or self.width < 1:
            raise ValueError(
                f"scene must be at least 1x1, got {self.height}x{self.width}"
            )
        shapes = tuple(self.shapes)
        for shape in shapes:
            if not isinstance(shape, (Rect, Disk)):
                raise TypeError(f"unsupported shape {type(shape).__name__}")
            if not shape.fits(self.height, self.width):
                raise ValueError(
                    f"{type(shape).__name__} with label {shape.label} does not "
                    f"fit inside {self.height}x{self.width}"
                )
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "background", _check_color(self.background))
        object.__setattr__(self, "blur", int(self.blur))
        if self.blur < 0:
            raise ValueError(f"blur radius must be >= 0, got {self.blur}")
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))
        if self.noise_sigma < 0:
            raise ValueError(f"noise sigma must be >= 0, got {self.noise_sigma}")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def num_labels(self) -> int:
        """Smallest label count covering the scene, never below 2."""
        top = max((s.label for s in self.shapes), default=0)
        return max(top + 1, 2)


def _scene_rng(spec: SceneSpec) -> tuple:
    scene_child, noise_child = np.random.SeedSequence(spec.seed).spawn(2)
    return np.random.default_rng(scene_child), np.random.default_rng(noise_child)


def render_scene(spec: SceneSpec) -> tuple:
    """Rasterize the scene; later shapes occlude earlier ones.

    Every shape consumes one full-grid jitter field regardless of its
    jitter amplitude, so geometry edits never reshuffle the noise of the
    shapes that follow.
    """
    rng, _ = _scene_rng(spec)
    h, w = spec.height, spec.width
    canvas = np.empty((h, w, 3), dtype=np.float64)
    canvas[:] = spec.background
    labels = np.zeros((h, w), dtype=np.uint8)
    for shape in spec.shapes:
        noise = rng.standard_normal((h, w, 3))
        inside = shape.mask(h, w)
        canvas[inside] = np.asarray(shape.color, dtype=np.float64)
        canvas[inside] += shape.jitter * noise[inside]
        labels[inside] = shape.label
    img = np.clip(np.floor(canvas + 0.5), 0, 255).astype(np.uint8)
    return RgbImage(img), LabelMap(labels)


def box_blur(plane: np.ndarray, radius: int) -> np.ndarray:
    """Mean over the (2r+1)^2 window clipped to the image bounds."""
    if radius < 0:
        raise ValueError(f"blur radius must be >= 0, got {radius}")
    plane = np.asarray(plane, dtype=np.float64)
    size = 2 * radius + 1
    total = ndimage.uniform_filter(plane, size=size, mode="constant")
    share = ndimage.uniform_filter(np.ones_like(plane), size=size, mode="constant")
    return total / share


def corrupt_unary(
    gt: LabelMap,
    num_labels: int,
    blur: int = 0,
    noise_sigma: float = 0.0,
    seed=0,
) -> UnaryField:
    """Degrade perfect one-hot logits into a smooth, noisy posterior.

    `seed` may be an integer or an already-seeded numpy Generator.
    """
    if num_labels < 2:
        raise ValueError(f"need at least 2 labels, got {num_labels}")
    if noise_sigma < 0:
        raise ValueError(f"noise sigma must be >= 0, got {noise_sigma}")
    if gt.labels.max() >= num_labels:
        raise ValueError(
            f"ground truth uses label {gt.labels.max()} outside 0..{num_labels - 1}"
        )
    rng = np.random.default_rng(seed)
    z = np.eye(num_labels, dtype=np.float64)[gt.labels]
    if blur > 0:
        for l in range(num_labels):
            z[..., l] = box_blur(z[..., l], blur)
    if noise_sigma > 0.0:
        z += rng.normal(0.0, noise_sigma, z.shape)
    return unary_from_probs(_softmax_rows(z))


def make_instance(
    spec: SceneSpec, num_labels: int | None = None, factor: int = 1
) -> tuple:
    """Render the scene and corrupt its unaries with the scene's settings.

    factor > 1 corrupts the stride-`factor` subsampled ground truth
    instead, producing a coarse unary that factor-fold bilinear
    upsampling maps back onto the full image grid.  That requires the
    scene extent to be divisible by the factor.
    """
    if num_labels is None:
        num_labels = spec.num_labels
    top = max((s.label for s in spec.shapes), default=0)
    if top >= num_labels:
        raise ValueError(f"scene uses label {top}, needs num_labels > {top}")
    factor = int(factor)
    if factor < 1:
        raise ValueError(f"subsampling factor must be >= 1, got {factor}")
    if spec.height % factor or spec.width % factor:
        raise ValueError(
            f"factor {factor} does not tile {spec.height}x{spec.width}: "
            "scene extent must be divisible by it"
        )
    _, noise_rng = _scene_rng(spec)
    image, gt = render_scene(spec)
    coarse = LabelMap(gt.labels[::factor, ::factor]) if factor > 1 else gt
    unary = corrupt_unary(coarse, num_labels, spec.blur, spec.noise_sigma, noise_rng)
    return unary, image, gt


_SCALAR_KEYS = ("height", "width", "blur", "seed", "noise_sigma", "background")
_RECT_FIELDS = ("label", "top", "left", "height", "width", "color")
_DISK_FIELDS = ("label", "row", "col", "radius", "color")


def _parse_shape_tokens(kind: str, body: str, lineno: int) -> dict:
    fields = {}
    for token in body.split():
        key, sep, value = token.partition(":")
        if not sep or not key or not value:
            raise FormatError(f"line {lineno}: malformed {kind} field {token!r}")
        if key in fields:
            raise FormatError(f"line {lineno}: duplicate {kind} field {key!r}")
        fields[key] = value
    return fields


def _shape_from_line(kind: str, body: str, lineno: int):
    fields = _parse_shape_tokens(kind, body, lineno)
    required = _RECT_FIELDS if kind == "rect" else _DISK_FIELDS
    allowed = set(required) | {"jitter"}
    missing = [name for name in required if name not in fields]
    if missing:
        raise FormatError(f"line {lineno}: {kind} is missing {', '.join(missing)}")
    unknown = sorted(set(fields) - allowed)
    if unknown:
        raise FormatError(f"line {lineno}: unknown {kind} field {unknown[0]!r}")
    try:
        kwargs = {
            name: fields[name] if name == "color" else float(fields[name])
            for name in fields
        }
        if "color" in kwargs:
            kwargs["color"] = tuple(int(c) for c in fields["color"].split(","))
        if kind == "rect":
            return Rect(**kwargs)
        return Disk(**kwargs)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"line {lineno}: bad {kind}: {exc}") from exc


def scene_from_text(text: str) -> SceneSpec:
    """Parse the key = value scene description format.

    Scalar keys: height, width (required), blur, seed, noise_sigma,
    background (r,g,b).  Each `rect =` / `disk =` line appends one shape
    in file order.  Full-line comments start with '#'.
    """
    scalars: dict = {}
    shapes: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise FormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key in ("rect", "disk"):
            shapes.append(_shape_from_line(key, value, lineno))
            continue
        if key not in _SCALAR_KEYS:
            raise FormatError(f"line {lineno}: unknown key {key!r}")
        if key in scalars:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key == "background":
                scalars[key] = tuple(int(c) for c in value.split(","))
            elif key == "noise_sigma":
                scalars[key] = float(value)
            else:
                scalars[key] = int(value)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    for need in ("height", "width"):
        if need not in scalars:
            raise FormatError(f"scene text must set {need!r}")
    try:
        return SceneSpec(shapes=tuple(shapes), **scalars)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid scene: {exc}") from exc
