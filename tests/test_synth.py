"""Scene rendering, unary corruption, and the scene text format."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from denseseg.core import FormatError, LabelMap
from denseseg.densecrf import init_state
from denseseg.synth import (
    MAX_NOISE,
    Disk,
    Rect,
    SceneSpec,
    box_blur,
    corrupt_unary,
    make_instance,
    render_scene,
    scene_from_text,
)

from oracles import box_blur_bruteforce, render_scene_full_masks

README = Path(__file__).resolve().parents[1] / "README.md"
RED = (200, 60, 60)
GREEN = (60, 200, 60)
BLUE = (60, 60, 200)


def demo_spec(**overrides):
    base = dict(
        height=24,
        width=24,
        shapes=(
            Rect(label=1, top=2, left=2, height=10, width=12, color=RED, jitter=2.0),
            Disk(label=2, row=15, col=15, radius=6, color=GREEN, jitter=2.0),
        ),
        background=(40, 40, 40),
        seed=5,
    )
    base.update(overrides)
    return SceneSpec(**base)


class TestShapeValidation:
    def test_rect_mask_covers_exact_region(self):
        m = Rect(label=1, top=1, left=2, height=3, width=4, color=RED).mask(6, 8)
        assert m.sum() == 12
        assert m[1:4, 2:6].all()

    def test_disk_mask_is_membership_predicate(self):
        m = Disk(label=1, row=3, col=3, radius=2.0, color=RED).mask(7, 7)
        assert m.sum() == 13
        assert np.array_equal(m, m[::-1])
        assert np.array_equal(m, m[:, ::-1])

    def test_background_label_rejected_for_shapes(self):
        with pytest.raises(ValueError):
            Rect(label=0, top=0, left=0, height=1, width=1, color=RED)

    def test_ignore_label_rejected_for_shapes(self):
        with pytest.raises(ValueError):
            Disk(label=255, row=2, col=2, radius=1.0, color=RED)

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError):
            Rect(label=1, top=0, left=0, height=0, width=3, color=RED)
        with pytest.raises(ValueError):
            Disk(label=1, row=2, col=2, radius=0.0, color=RED)

    def test_color_range_checked(self):
        with pytest.raises(ValueError):
            Rect(label=1, top=0, left=0, height=1, width=1, color=(300, 0, 0))

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            Disk(label=1, row=2, col=2, radius=1.0, color=RED, jitter=-0.5)

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf"), 1e308])
    def test_jitter_bounded(self, jitter):
        """A NaN jitter used to paint NaN into the canvas, whose cast to
        uint8 is undefined, and 1e308 overflowed its product with the noise."""
        with pytest.raises(ValueError, match="jitter must be in"):
            Rect(label=1, top=0, left=0, height=1, width=1, color=RED, jitter=jitter)
        with pytest.raises(ValueError, match="jitter must be in"):
            Disk(label=1, row=2, col=2, radius=1.0, color=RED, jitter=jitter)

    def test_integer_fields_truncate_fractions(self):
        rect = Rect(label=1.9, top=2.7, left=-0.5, height=3.99, width=np.float32(4.5),
                    color=(1.5, 2, 255.9))
        assert (rect.label, rect.top, rect.left, rect.height, rect.width) == (1, 2, 0, 3, 4)
        assert rect.color == (1, 2, 255)
        assert all(type(v) is int for v in (rect.label, rect.top, rect.width, *rect.color))
        spec = SceneSpec(height=8.5, width=np.int64(9), seed=2**70)
        assert (type(spec.height), type(spec.width), spec.seed) == (int, int, 2**70)


# a valid value for every numeric field; each case swaps one for any number
VALID = {
    Rect: dict(label=1, top=0, left=0, height=2, width=2, color=RED, jitter=1.0),
    Disk: dict(label=1, row=3, col=3, radius=2.0, color=RED, jitter=1.0),
    SceneSpec: dict(height=8, width=8, background=RED, blur=1, noise_sigma=0.5, seed=3),
}
NUMERIC_ARGUMENTS = [(owner, name) for owner, values in VALID.items() for name in values] + [
    (make_instance, "factor"), (corrupt_unary, "blur"), (corrupt_unary, "noise_sigma")]
ANY_NUMBER = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 2**70, -(2**70), 10**400]),
    st.floats(),
    st.integers(-(2**70), 2**70),
)


def call_with(owner, name, value):
    if owner is make_instance:
        return make_instance(SceneSpec(height=8, width=8), factor=value)
    if owner is corrupt_unary:
        return corrupt_unary(LabelMap(np.zeros((4, 4), np.uint8)), 2, **{name: value})
    kwargs = dict(VALID[owner])
    kwargs[name] = (value, 60, 60) if name in ("color", "background") else value
    return owner(**kwargs)


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(target=st.sampled_from(NUMERIC_ARGUMENTS), value=ANY_NUMBER)
def test_every_numeric_field_takes_any_number(target, value):
    """Every numeric field of the scene classes, and the factor, blur and
    noise arguments, either takes any float (+-inf, nan and 1e308 included)
    or any integer up to 2^70 (and 10^400, past float range), or raises a
    ValueError that names it. int() of an infinity used to escape as
    OverflowError."""
    owner, name = target
    try:
        built = call_with(owner, name, value)
    except ValueError as exc:
        assert name.replace("_", " ") in str(exc)
        return
    if owner in VALID:
        kind = next(f.type for f in dataclasses.fields(owner) if f.name == name)
        stored = getattr(built, name)
        assert type(stored[0] if kind is tuple else stored) is (int if kind is tuple else kind)


class TestSceneSpec:
    def test_empty_scene_allowed(self):
        spec = SceneSpec(height=4, width=6)
        assert spec.shapes == ()
        assert spec.num_labels == 2

    def test_num_labels_covers_highest_shape(self):
        assert demo_spec().num_labels == 3

    def test_out_of_bounds_rect_rejected(self):
        shape = Rect(label=1, top=20, left=0, height=10, width=4, color=RED)
        with pytest.raises(ValueError):
            SceneSpec(height=24, width=24, shapes=(shape,))

    def test_disk_may_touch_the_border(self):
        shape = Disk(label=1, row=6, col=6, radius=6.0, color=RED)
        SceneSpec(height=13, width=13, shapes=(shape,))
        with pytest.raises(ValueError):
            SceneSpec(height=12, width=13, shapes=(shape,))

    def test_non_shape_rejected(self):
        with pytest.raises(TypeError):
            SceneSpec(height=4, width=4, shapes=("circle",))

    def test_bad_corruption_settings_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(height=4, width=4, blur=-1)
        with pytest.raises(ValueError):
            SceneSpec(height=4, width=4, noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 1e308])
    def test_noise_sigma_bounded(self, sigma):
        """A NaN sigma used to pass as no noise, and draws at infinite or
        near-float-max sigma overflowed the softmax's max subtraction."""
        with pytest.raises(ValueError, match="noise sigma must be in"):
            SceneSpec(height=4, width=4, noise_sigma=sigma)
        with pytest.raises(ValueError, match="noise sigma must be in"):
            corrupt_unary(LabelMap(np.zeros((2, 2), np.uint8)), 2, noise_sigma=sigma)

    def test_negative_seed_names_the_seed(self):
        """numpy's seeding used to refuse it only at render time, with an
        unnamed "expected non-negative integer"."""
        with pytest.raises(ValueError, match=r"^seed must be in \[0, inf\], got -1$"):
            SceneSpec(height=4, width=4, seed=-1)
        with pytest.raises(FormatError, match="seed must be in"):
            scene_from_text("height = 4\nwidth = 4\nseed = -1\n")

    def test_largest_noise_renders_finite_outputs(self):
        shape = Rect(label=1, top=0, left=0, height=8, width=8, color=RED, jitter=MAX_NOISE)
        unary, image, _ = make_instance(SceneSpec(height=8, width=8, shapes=(shape,),
                                                  blur=1, noise_sigma=MAX_NOISE))
        assert np.isfinite(unary.theta).all()
        assert {0, 255} >= set(np.unique(image.data))


class TestRenderScene:
    def test_empty_scene_is_uniform_background(self):
        image, gt = render_scene(SceneSpec(height=5, width=7, background=(9, 8, 7)))
        assert (image.data == [9, 8, 7]).all()
        assert not gt.labels.any()

    def test_disk_labels_match_membership(self):
        shape = Disk(label=3, row=8, col=8, radius=4.0, color=BLUE)
        spec = SceneSpec(height=17, width=17, shapes=(shape,))
        _, gt = render_scene(spec)
        assert np.array_equal(gt.labels == 3, shape.mask(17, 17))

    def test_later_shapes_occlude(self):
        a = Rect(label=1, top=0, left=0, height=4, width=4, color=RED)
        b = Rect(label=2, top=2, left=2, height=4, width=4, color=GREEN)
        image, gt = render_scene(SceneSpec(height=8, width=8, shapes=(a, b)))
        assert gt.labels[3, 3] == 2
        assert gt.labels[1, 1] == 1
        assert tuple(image.data[3, 3]) == GREEN

    def test_render_is_deterministic(self):
        img1, gt1 = render_scene(demo_spec())
        img2, gt2 = render_scene(demo_spec())
        assert np.array_equal(img1.data, img2.data)
        assert np.array_equal(gt1.labels, gt2.labels)

    def test_seed_changes_jitter(self):
        img1, _ = render_scene(demo_spec(seed=1))
        img2, _ = render_scene(demo_spec(seed=2))
        assert not np.array_equal(img1.data, img2.data)

    def test_zero_jitter_paints_exact_colors(self):
        shape = Rect(label=1, top=1, left=1, height=2, width=2, color=RED)
        image, _ = render_scene(SceneSpec(height=4, width=4, shapes=(shape,)))
        assert tuple(image.data[1, 1]) == RED

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_full_grid_masks(self, seed):
        """Random overlapping rects and disks with zero or positive jitter.
        Rects run from the top-left corner or to the bottom-right one;
        disks take integer radii, which reach the border when the centre's
        room allows no more, or fractional ones."""
        rng = np.random.default_rng(seed)
        h, w = (int(n) for n in rng.integers(1, 40, size=2))
        shapes = []
        for k in range(int(rng.integers(2, 9))):
            style = dict(label=int(rng.integers(1, 6)), jitter=float(rng.choice([0.0, 0.5, 30.0])),
                         color=tuple(int(c) for c in rng.integers(0, 256, size=3)))
            row, col = int(rng.integers(0, h)), int(rng.integers(0, w))
            room = min(row, col, h - 1 - row, w - 1 - col)
            if k % 2 and room > 0:
                radius = float(room) if rng.random() < 0.5 else float(rng.uniform(0.2, room))
                shapes.append(Disk(row=row, col=col, radius=radius, **style))
            elif rng.random() < 0.5:
                shapes.append(Rect(top=0, left=0, height=row + 1, width=col + 1, **style))
            else:
                shapes.append(Rect(top=row, left=col, height=h - row, width=w - col, **style))
        spec = SceneSpec(height=h, width=w, shapes=tuple(shapes), seed=seed)
        image, gt = render_scene(spec)
        want_image, want_labels = render_scene_full_masks(spec)
        assert image.data.tobytes() == want_image.tobytes()
        assert gt.labels.tobytes() == want_labels.tobytes()

    def test_appending_a_shape_leaves_earlier_pixels_alone(self):
        rect = Rect(label=1, top=2, left=2, height=8, width=8, color=RED, jitter=3.0)
        disk = Disk(label=2, row=15, col=15, radius=4.0, color=GREEN, jitter=3.0)
        short = SceneSpec(height=20, width=20, shapes=(rect,), seed=11)
        full = SceneSpec(height=20, width=20, shapes=(rect, disk), seed=11)
        img_a, _ = render_scene(short)
        img_b, _ = render_scene(full)
        outside = ~disk.mask(20, 20)
        assert np.array_equal(img_a.data[outside], img_b.data[outside])


class TestBoxBlur:
    def test_zero_radius_is_identity(self):
        rng = np.random.default_rng(0)
        plane = rng.random((5, 6))
        assert np.array_equal(box_blur(plane, 0), plane)

    def test_constant_plane_survives_borders(self):
        out = box_blur(np.full((6, 9), 2.5), 3)
        np.testing.assert_allclose(out, 2.5, atol=1e-12)

    def test_impulse_weights(self):
        plane = np.zeros((7, 7))
        plane[3, 3] = 1.0
        assert box_blur(plane, 1)[3, 3] == pytest.approx(1.0 / 9.0)
        corner = np.zeros((7, 7))
        corner[0, 0] = 1.0
        assert box_blur(corner, 1)[0, 0] == pytest.approx(1.0 / 4.0)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_matches_scalar_oracle(self, radius):
        rng = np.random.default_rng(radius)
        plane = rng.random((9, 11))
        got = box_blur(plane, radius)
        np.testing.assert_allclose(got, box_blur_bruteforce(plane, radius), atol=1e-12)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            box_blur(np.zeros((3, 3)), -1)

    @pytest.mark.parametrize("shape,radius", [((63, 47, 21), 2), ((24, 30, 3), 1),
                                              ((5, 7, 4), 3), ((64, 48, 5), 2)])
    def test_stack_blurs_each_plane_bit_for_bit(self, shape, radius):
        """An (h, w, planes) stack blurs in one call exactly as its planes
        do one at a time, on random and on one-hot planes."""
        rng = np.random.default_rng(sum(shape))
        onehot = np.eye(shape[2])[rng.integers(0, shape[2], shape[:2])]
        for stack in (rng.random(shape), onehot):
            per_plane = [box_blur(stack[..., k], radius) for k in range(shape[2])]
            assert np.array_equal(box_blur(stack, radius), np.stack(per_plane, axis=2))

    @pytest.mark.parametrize("radius", [7, 2**40])
    def test_radius_past_the_extent_is_the_whole_image_mean(self, radius):
        """Past the image extent every window spans the whole image, so a
        larger radius changes nothing and allocates nothing more (2^40 used
        to ask for a 2^41-element buffer)."""
        plane = np.random.default_rng(0).random((4, 6))
        got = box_blur(plane, radius)
        assert np.array_equal(got, box_blur(plane, 6))
        np.testing.assert_allclose(got, plane.mean(), rtol=1e-12)


class TestCorruptUnary:
    def test_clean_corruption_inverts_to_gt(self):
        _, gt = render_scene(demo_spec())
        unary = corrupt_unary(gt, 3)
        assert np.array_equal(np.argmin(unary.theta, axis=2), gt.labels)
        q = init_state(unary).q
        top = np.e / (np.e + 2.0)
        np.testing.assert_allclose(q.max(axis=2), top, atol=1e-12)

    def test_deterministic_per_seed(self):
        _, gt = render_scene(demo_spec())
        a = corrupt_unary(gt, 3, blur=1, noise_sigma=0.7, seed=9)
        b = corrupt_unary(gt, 3, blur=1, noise_sigma=0.7, seed=9)
        assert np.array_equal(a.theta, b.theta)
        c = corrupt_unary(gt, 3, blur=1, noise_sigma=0.7, seed=10)
        assert not np.array_equal(a.theta, c.theta)

    def test_generator_seed_equivalent_to_int(self):
        _, gt = render_scene(demo_spec())
        a = corrupt_unary(gt, 3, noise_sigma=0.7, seed=4)
        b = corrupt_unary(gt, 3, noise_sigma=0.7, seed=np.random.default_rng(4))
        assert np.array_equal(a.theta, b.theta)

    def test_blur_only_flips_near_boundaries(self):
        # windows that never straddle a class edge keep an exact one-hot,
        # so any argmax flip sits within chebyshev distance blur of an edge
        for blur in (1, 2, 3):
            _, gt = render_scene(demo_spec())
            unary = corrupt_unary(gt, 3, blur=blur)
            pred = np.argmin(unary.theta, axis=2)
            size = 2 * blur + 1
            g = gt.labels.astype(np.int32)
            single = ndimage.maximum_filter(g, size=size) == ndimage.minimum_filter(
                g, size=size
            )
            assert np.array_equal(pred[single], g[single])

    def test_heavy_noise_drives_accuracy_to_chance(self):
        gt = LabelMap(np.zeros((64, 64), dtype=np.uint8))
        hits = []
        for seed in range(3):
            unary = corrupt_unary(gt, 4, noise_sigma=50.0, seed=seed)
            pred = np.argmin(unary.theta, axis=2)
            hits.append(float(np.mean(pred == 0)))
        assert abs(np.mean(hits) - 0.25) < 0.05

    def test_validation(self):
        _, gt = render_scene(demo_spec())
        with pytest.raises(ValueError):
            corrupt_unary(gt, 1)
        with pytest.raises(ValueError):
            corrupt_unary(gt, 2)  # scene uses label 2
        with pytest.raises(ValueError):
            corrupt_unary(gt, 3, noise_sigma=-1.0)

    def test_negative_blur_rejected(self):
        """A negative blur used to skip the blur without a word."""
        _, gt = render_scene(demo_spec())
        with pytest.raises(ValueError, match="blur must be in"):
            corrupt_unary(gt, 3, blur=-1)


class TestMakeInstance:
    def test_deterministic(self):
        u1, i1, g1 = make_instance(demo_spec(blur=1, noise_sigma=0.5))
        u2, i2, g2 = make_instance(demo_spec(blur=1, noise_sigma=0.5))
        assert np.array_equal(u1.theta, u2.theta)
        assert np.array_equal(i1.data, i2.data)
        assert np.array_equal(g1.labels, g2.labels)

    def test_defaults_to_scene_label_count(self):
        unary, _, gt = make_instance(demo_spec())
        assert unary.labels == 3
        assert np.array_equal(np.argmin(unary.theta, axis=2), gt.labels)

    def test_explicit_label_count_checked(self):
        with pytest.raises(ValueError):
            make_instance(demo_spec(), num_labels=2)

    def test_subsampled_unary_dimensions(self):
        spec = demo_spec(height=32, width=40)
        unary, image, gt = make_instance(spec, factor=8)
        assert (unary.height, unary.width) == (4, 5)
        assert (image.height, image.width) == (32, 40)
        assert np.array_equal(
            np.argmin(unary.theta, axis=2), gt.labels[::8, ::8]
        )

    def test_factor_must_tile_scene(self):
        with pytest.raises(ValueError):
            make_instance(demo_spec(), factor=7)  # 24 % 7 != 0
        with pytest.raises(ValueError):
            make_instance(demo_spec(), factor=0)

    def test_jitter_amplitude_does_not_reach_unary_noise(self):
        # scene jitter and logit noise ride separate child streams
        calm = demo_spec(noise_sigma=0.5)
        loud_shapes = tuple(
            type(s)(**{**s.__dict__, "jitter": 9.0}) for s in calm.shapes
        )
        loud = demo_spec(noise_sigma=0.5, shapes=loud_shapes)
        u_calm, _, _ = make_instance(calm)
        u_loud, _, _ = make_instance(loud)
        assert np.array_equal(u_calm.theta, u_loud.theta)


class TestSceneText:
    def test_every_key_parses_to_spec(self):
        text = (
            "height = 24\n"
            "width = 30\n"
            "background = 40,41,42\n"
            "blur = 2\n"
            "noise_sigma = 0.8\n"
            "seed = 5\n"
            "rect = label:1 top:2 left:3 height:10 width:12 color:200,60,60 jitter:2.5\n"
            "disk = label:2 row:15 col:16 radius:6.5 color:60,200,60 jitter:0.25\n"
        )
        want = SceneSpec(
            height=24,
            width=30,
            shapes=(
                Rect(label=1, top=2, left=3, height=10, width=12, color=RED, jitter=2.5),
                Disk(label=2, row=15, col=16, radius=6.5, color=GREEN, jitter=0.25),
            ),
            background=(40, 41, 42),
            blur=2,
            noise_sigma=0.8,
            seed=5,
        )
        assert scene_from_text(text) == want

    def test_minimal_text_uses_defaults(self):
        spec = scene_from_text("height = 4\nwidth = 6\n")
        assert (spec.height, spec.width) == (4, 6)
        assert spec.background == (0, 0, 0)
        assert (spec.blur, spec.noise_sigma, spec.seed) == (0, 0.0, 0)

    def test_comments_and_blanks_skipped(self):
        text = "# scene\n\nheight = 4\n# more\nwidth = 6\n"
        assert scene_from_text(text).height == 4

    def test_shape_order_preserved(self):
        text = (
            "height = 20\nwidth = 20\n"
            "rect = label:2 top:0 left:0 height:4 width:4 color:1,2,3\n"
            "disk = label:1 row:10 col:10 radius:3 color:4,5,6 jitter:1.5\n"
        )
        spec = scene_from_text(text)
        assert [s.label for s in spec.shapes] == [2, 1]
        assert isinstance(spec.shapes[0], Rect)
        assert spec.shapes[1].jitter == 1.5

    def test_missing_dimension_rejected(self):
        with pytest.raises(FormatError):
            scene_from_text("height = 4\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError):
            scene_from_text("height = 4\nwidth = 4\ndepth = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(FormatError):
            scene_from_text("height = 4\nwidth = 4\nheight = 5\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(FormatError):
            scene_from_text("height = 4\nwidth = 4\nblur\n")

    def test_shape_field_errors_rejected(self):
        head = "height = 20\nwidth = 20\n"
        with pytest.raises(FormatError):
            scene_from_text(head + "rect = label:1 top:0 left:0 height:4\n")
        with pytest.raises(FormatError):
            scene_from_text(
                head + "rect = label:1 top:0 left:0 height:4 width:4 "
                "color:1,2,3 angle:30\n"
            )
        with pytest.raises(FormatError):
            scene_from_text(head + "disk = label:1 row:3 col:3 radius:2 color:1,2\n")

    def test_out_of_bounds_shape_rejected_as_format_error(self):
        text = "height = 8\nwidth = 8\ndisk = label:1 row:7 col:7 radius:4 color:1,2,3\n"
        with pytest.raises(FormatError):
            scene_from_text(text)

    def test_bad_scalar_value_rejected(self):
        with pytest.raises(FormatError):
            scene_from_text("height = tall\nwidth = 4\n")

    @pytest.mark.parametrize("line", [
        "width = x", "background = 1,x,3", "depth = 2", "height = 5", "shapes = 1", "blur",
        "rect = label:1 top:0", "rect = label:1 top:0 top:1",
        "disk = label:1 row:2 col:2 radius:1 color:1,2,3 hue:1",
        "rect = label:1 top:inf left:0 height:1 width:1 color:1,2,3",
        "disk = label:1 row:2 col:2 radius:1 color:1,2",
        "blur = -1", "seed = -1", "noise_sigma = nan", "background = 1,2", "width = 0",
    ])
    def test_line_errors_name_their_line(self, line):
        """Every error one line makes names that line; a scalar out of its
        range (the last five) used to surface only as an invalid scene."""
        with pytest.raises(FormatError, match="^line 3: "):
            scene_from_text(f"height = 4\n# comment\n{line}\nwidth = 4\n")

    def test_readme_shape_lines_parse_to_documented_fields(self):
        """The `rect =` and `disk =` lines of the README's synth section
        parse to the shapes its prose describes, `row:21.0` an integer row."""
        section = README.read_text(encoding="utf-8").split("### synth", 1)[1].split("###", 1)[0]
        lines = [line for line in section.splitlines() if line.startswith(("rect =", "disk ="))]
        spec = scene_from_text("height = 64\nwidth = 64\n" + "\n".join(lines))
        assert spec.shapes == (
            Rect(label=1, top=4, left=5, height=12, width=13, color=(205, 60, 55), jitter=3.0),
            Disk(label=2, row=21, col=22, radius=6.5, color=(65, 70, 210), jitter=3.0),
        )
        assert type(spec.shapes[1].row) is int and type(spec.shapes[1].radius) is float
