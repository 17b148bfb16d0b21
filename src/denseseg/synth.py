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

import math
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .core import FormatError, LabelMap, RgbImage
from .densecrf import UnaryField, _softmax_rows, unary_from_probs
from .metrics import IGNORE_LABEL, check_label_count

# Largest colour jitter or logit noise amplitude: its normal draws stay far
# below float max, so neither the jittered colours nor the softmax of the
# noisy logits can overflow (past about 1e3 either is pure noise anyway).
MAX_NOISE = 1e300


def _number(name: str, value, cast, low, high=math.inf):
    """`value` through `cast` (int() truncates fractions), finite and in
    [low, high], else a ValueError naming the field."""
    finite = -math.inf < value < math.inf and (cast is int or abs(value) <= sys.float_info.max)
    number = cast(value) if finite else math.nan
    if not low <= number <= high:
        raise ValueError(f"{name.replace('_', ' ')} must be in [{low!r}, {high!r}], got {value}")
    return number


def _in(low, high=math.inf, **kwargs):
    """A numeric field, converted by its annotated type (a colour's three
    values by int()) and checked by `_number` against [low, high]."""
    return field(metadata={"range": (low, high)}, **kwargs)


def _convert(f, value):
    """`value` for the `_in` field `f`, by its type and range."""
    if f.type is not tuple:
        return _number(f.name, value, f.type, *f.metadata["range"])
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
class Rect:
    """Axis-aligned filled rectangle."""

    label: int = _in(1, IGNORE_LABEL - 1)  # 0 is background
    top: int = _in(0)
    left: int = _in(0)
    height: int = _in(1)
    width: int = _in(1)
    color: tuple = _in(0, 255)
    jitter: float = _in(0, MAX_NOISE, default=0.0)

    def __post_init__(self) -> None:
        _check_fields(self)

    def fits(self, height: int, width: int) -> bool:
        return self.top + self.height <= height and self.left + self.width <= width

    def mask(self, height: int, width: int) -> np.ndarray:
        m = np.zeros((height, width), dtype=bool)
        m[self.top : self.top + self.height, self.left : self.left + self.width] = True
        return m


@dataclass(frozen=True)
class Disk:
    """Filled disk: pixels with (y - row)^2 + (x - col)^2 <= radius^2."""

    label: int = _in(1, IGNORE_LABEL - 1)
    row: int = _in(-math.inf)
    col: int = _in(-math.inf)
    radius: float = _in(math.ulp(0.0))  # any positive radius
    color: tuple = _in(0, 255)
    jitter: float = _in(0, MAX_NOISE, default=0.0)

    def __post_init__(self) -> None:
        _check_fields(self)

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

    height: int = _in(1)
    width: int = _in(1)
    shapes: tuple = ()
    background: tuple = _in(0, 255, default=(0, 0, 0))
    blur: int = _in(0, default=0)
    noise_sigma: float = _in(0, MAX_NOISE, default=0.0)
    seed: int = _in(0, default=0)

    def __post_init__(self) -> None:
        _check_fields(self)
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
    """Mean over the (2r+1)^2 window clipped to the image bounds, of an
    (h, w) plane or of each plane of an (h, w, planes) stack."""
    from scipy import ndimage  # on first use: loading it adds about 0.1 s to every start-up

    if radius < 0:
        raise ValueError(f"blur radius must be >= 0, got {radius}")
    plane = np.asarray(plane, dtype=np.float64)
    # past the image extent every window already spans the whole image
    size = 2 * min(radius, max(plane.shape[:2])) + 1
    planes = (1,) * (plane.ndim - 2)  # no averaging across planes
    total = ndimage.uniform_filter(plane, size=(size, size, *planes), mode="constant")
    share = ndimage.uniform_filter(np.ones(plane.shape[:2]), size=size, mode="constant")
    total /= share.reshape(share.shape + planes)
    return total


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
    blur = _number("blur", blur, int, 0)
    noise_sigma = _number("noise_sigma", noise_sigma, float, 0, MAX_NOISE)
    if gt.labels.max() >= num_labels:
        raise ValueError(
            f"ground truth uses label {gt.labels.max()} outside 0..{num_labels - 1}"
        )
    rng = np.random.default_rng(seed)
    z = np.eye(num_labels, dtype=np.float64)[gt.labels]
    if blur > 0:
        z = box_blur(z, blur)
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
    check_label_count(num_labels)
    top = max((s.label for s in spec.shapes), default=0)
    if top >= num_labels:
        raise ValueError(f"scene uses label {top}, needs num_labels > {top}")
    factor = _number("factor", factor, int, 1)
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


def _from_fields(cls, items: list, what: str, where: str, number=None, **extra):
    """Build `cls` from (lineno, name, text) items that name its numeric
    fields, none twice and each one without a default present. A text
    reads as its field's type, or as `number` when given, a colour as
    comma-separated integers, and is checked at its line."""
    known = {f.name: f for f in fields(cls) if f.metadata}
    kwargs = {}
    for lineno, name, text in items:
        if name not in known:
            raise FormatError(f"line {lineno}: unknown {what} field {name!r}")
        if name in kwargs:
            raise FormatError(f"line {lineno}: duplicate {what} field {name!r}")
        f = known[name]
        try:
            value = [int(c) for c in text.split(",")] if f.type is tuple else (number or f.type)(text)
            kwargs[name] = _convert(f, value)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad value for {name!r}: {exc}") from exc
    missing = [name for name, f in known.items() if f.default is MISSING and name not in kwargs]
    if missing:
        raise FormatError(f"{where}{what} is missing {', '.join(missing)}")
    try:
        return cls(**kwargs, **extra)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}bad {what}: {exc}") from exc


def _shape_from_line(kind: str, body: str, lineno: int):
    items = []
    for token in body.split():
        key, sep, value = token.partition(":")
        if not sep or not key or not value:
            raise FormatError(f"line {lineno}: malformed {kind} field {token!r}")
        items.append((lineno, key, value))
    # shape numbers read as floats, so `row:21.0` is a row
    return _from_fields(Rect if kind == "rect" else Disk, items, kind, f"line {lineno}: ", float)


def scene_from_text(text: str) -> SceneSpec:
    """Parse the key = value scene description format.

    Scalar keys: height, width (required), blur, seed, noise_sigma,
    background (r,g,b).  Each `rect =` / `disk =` line appends one shape
    in file order.  Full-line comments start with '#'.
    """
    scalars: list = []
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
        else:
            scalars.append((lineno, key, value))
    return _from_fields(SceneSpec, scalars, "scene", "", shapes=tuple(shapes))
