"""Property tests: whatever bytes the DLT1, PPM and PGM readers get, whatever
scene text `synth` reads and whatever integers the size and count flags
take, the CLI exits 2 (validation) or 3 (I/O, undecodable file), or 0 if the
input happens to be valid, and never escapes with a traceback.

Scene sides are at most 64 or at least 2^24: a scene of the first kind is
cheap to render, and one of the second is refused by its first allocation,
so no example touches much memory."""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from denseseg.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from denseseg.core import (
    FeatureMap,
    LabelMap,
    RgbImage,
    read_pgm,
    write_pgm,
    write_ppm,
    write_tensor,
)

HEIGHT, WIDTH, LABELS = 3, 4, 3
F32_MAX = float(np.finfo(np.float32).max)
FUZZ = settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
WHITESPACE = st.sampled_from([b" ", b"\n", b"\t", b"\r", b"  ", b"\n\n", b""])
HUGE = 2**24
# counts and sizes: small ones, 0 and negatives included, or huge ones
COUNTS = st.one_of(st.integers(-3, 300), st.integers(HUGE, 2**70), st.integers(-2**70, -HUGE))
NUMBERS = st.one_of(
    COUNTS.map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "1e400", "-0", "0x10", "1_0"]),
)


def mostly(valid, junk=NUMBERS):
    """`valid` mostly and `junk` now and then, so that many scenes render
    and most of the rest fail on one value."""
    return st.integers(0, 9).flatmap(lambda k: junk if k == 9 else valid)


def small(low: int, high: int):
    return mostly(st.integers(low, high).map(str))


def amplitude(high: float):
    return mostly(st.floats(0, high).map(repr))


COLOR = mostly(st.tuples(*[st.integers(0, 255)] * 3),
               st.lists(st.integers(-1, 300), max_size=4)).map(lambda xs: ",".join(map(str, xs)))
SCALARS = {"blur": small(0, 3), "seed": small(0, 2**32), "noise_sigma": amplitude(2.0),
           "background": COLOR}
SHAPE_FIELDS = {
    "rect": {"label": small(1, 4), "top": small(0, 32), "left": small(0, 32),
             "height": small(1, 32), "width": small(1, 32), "color": COLOR},
    "disk": {"label": small(1, 4), "row": small(0, 32), "col": small(0, 32),
             "radius": mostly(st.floats(0.5, 16).map(repr)), "color": COLOR},
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One small valid unary, image and label map."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    paths = {name: root / name for name in ("unary.dlt", "image.ppm", "gt.pgm")}
    write_tensor(FeatureMap(rng.normal(size=(HEIGHT, WIDTH, LABELS))), str(paths["unary.dlt"]))
    write_ppm(RgbImage(rng.integers(0, 256, (HEIGHT, WIDTH, 3), dtype=np.uint8)),
              str(paths["image.ppm"]))
    write_pgm(LabelMap(rng.integers(0, LABELS, (HEIGHT, WIDTH)).astype(np.uint8)),
              str(paths["gt.pgm"]))
    paths["root"] = root
    return paths


def run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def dims():
    """The valid input's size, anything small (0 included), or anything up
    to the largest uint32."""
    return st.one_of(
        st.just((HEIGHT, WIDTH)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    )


def size_of(*extents: int) -> int:
    """Payload bytes to draw: the size the header claims, if it is small."""
    return min(int(np.prod(extents, dtype=object)), 256)


@st.composite
def tensor_bytes(draw):
    """A DLT1 header with small dimensions and any payload bytes (NaN, inf,
    subnormal and huge floats included), its truncation, or raw bytes."""
    (h, w), c = draw(dims()), draw(st.integers(0, 5))
    header = b"DLT1" + struct.pack("<IIII", draw(st.sampled_from([3, 3, 2])), h, w, c)
    count = size_of(h, w, c)
    payload = draw(st.one_of(
        st.binary(min_size=4 * count, max_size=4 * count),
        st.lists(st.floats(width=32), min_size=count, max_size=count).map(
            lambda xs: struct.pack(f"<{len(xs)}f", *xs)),
        st.binary(max_size=4 * count + 8),
    ))
    blob = header + payload
    return draw(st.one_of(st.just(blob), st.binary(max_size=64),
                          st.integers(0, len(blob)).map(lambda k: blob[:k])))


@st.composite
def pnm_bytes(draw, magic: bytes, channels: int):
    """A P5/P6 header with arbitrary separators, numbers and payload, its
    truncation, or raw bytes."""
    (h, w) = draw(dims())
    maxval = draw(st.sampled_from([255, 255, 0, 65535]))
    head = magic
    for value in (w, h, maxval):
        digits = draw(st.one_of(st.just(str(value)), st.text("0123456789", max_size=6000)))
        head += draw(WHITESPACE) + digits.encode()
    head += draw(WHITESPACE)
    size = size_of(channels, h, w)
    payload = draw(st.one_of(st.binary(min_size=size, max_size=size),
                             st.binary(max_size=size + 4)))
    blob = head + payload
    return draw(st.one_of(st.just(blob), st.binary(max_size=64),
                          st.integers(0, len(blob)).map(lambda k: blob[:k])))


def assert_contract(code: int) -> None:
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_IO)


def valid_tensor(costs) -> bytes:
    """A DLT1 unary of the fixture's size with the same costs at every pixel."""
    header = b"DLT1" + struct.pack("<IIII", 3, HEIGHT, WIDTH, LABELS)
    return header + struct.pack(f"<{HEIGHT * WIDTH * LABELS}f", *costs * (HEIGHT * WIDTH))


@pytest.mark.parametrize("backend", ["lattice", "exact"])
@FUZZ
@given(blob=tensor_bytes())
@example(blob=valid_tensor([-F32_MAX, F32_MAX, F32_MAX]))
@example(blob=valid_tensor([F32_MAX, -F32_MAX, 0.0]))
def test_refine_survives_any_tensor(valid, backend, blob):
    unary = valid["root"] / f"fuzz-{backend}.dlt"
    unary.write_bytes(blob)
    assert_contract(run_quietly([
        "refine", "--unary", unary, "--image", valid["image.ppm"],
        "--out", valid["root"] / f"out-{backend}.pgm", "--factor", 1,
        "--iters", 2, "--backend", backend,
    ]))


@pytest.mark.parametrize("backend", ["lattice", "exact"])
def test_extreme_costs_pick_the_cheapest_label(valid, backend):
    """Costs of -+float32 max, the widest a DLT1 unary holds, overflow no
    step of the update: each pixel takes its cheapest label."""
    rng = np.random.default_rng(1)
    cheapest = rng.integers(0, LABELS, (HEIGHT, WIDTH))
    costs = np.full((HEIGHT, WIDTH, LABELS), F32_MAX, np.float32)
    costs[np.arange(HEIGHT)[:, None], np.arange(WIDTH), cheapest] = -F32_MAX
    costs[0, 0] = (F32_MAX, -F32_MAX, 0.0)
    cheapest[0, 0] = 1
    unary, out = valid["root"] / "extreme.dlt", valid["root"] / f"extreme-{backend}.pgm"
    write_tensor(FeatureMap(costs), str(unary))
    assert run_quietly([
        "refine", "--unary", unary, "--image", valid["image.ppm"], "--out", out,
        "--factor", 1, "--iters", 2, "--backend", backend,
    ]) == EXIT_OK
    assert np.array_equal(read_pgm(str(out)).labels, cheapest)


@FUZZ
@given(blob=pnm_bytes(b"P6", 3))
def test_refine_survives_any_image(valid, blob):
    image = valid["root"] / "fuzz.ppm"
    image.write_bytes(blob)
    assert_contract(run_quietly([
        "refine", "--unary", valid["unary.dlt"], "--image", image,
        "--out", valid["root"] / "out.pgm", "--factor", 1, "--iters", 2,
    ]))


@pytest.mark.parametrize("role", ["--pred", "--gt"])
@FUZZ
@given(blob=pnm_bytes(b"P5", 1))
def test_eval_survives_any_label_map(valid, role, blob):
    labels = valid["root"] / f"fuzz{role}.pgm"
    labels.write_bytes(blob)
    other = "--gt" if role == "--pred" else "--pred"
    assert_contract(run_quietly([
        "eval", role, labels, other, valid["gt.pgm"], "--trimap", 1,
    ]))


def test_valid_inputs_run(valid):
    """The fixtures themselves are valid, so the fuzzed runs start from a
    working command."""
    assert run_quietly([
        "refine", "--unary", valid["unary.dlt"], "--image", valid["image.ppm"],
        "--out", valid["root"] / "ok.pgm", "--factor", 1, "--iters", 2,
    ]) == EXIT_OK
    assert run_quietly(["eval", "--pred", valid["root"] / "ok.pgm",
                        "--gt", valid["gt.pgm"]]) == EXIT_OK


@pytest.mark.parametrize("digits,code", [(b"1" * 10, EXIT_IO), (b"9" * 5000, EXIT_IO),
                                         (b"0" * 5000 + b"3", EXIT_OK)])
def test_header_number_length(valid, digits, code):
    """A header number too long to be a size is a format error (exit 3), not
    a failed int() conversion; leading zeros do not count."""
    image = valid["root"] / "long.ppm"
    image.write_bytes(b"P6 4 " + digits + b" 255\n" + bytes(36))
    assert run_quietly([
        "refine", "--unary", valid["unary.dlt"], "--image", image,
        "--out", valid["root"] / "out.pgm", "--factor", 1, "--iters", 1,
    ]) == code


@st.composite
def scene_text(draw):
    """Scene-spec text: height and width both at most 64 or both at least
    2^24, the other keys and the shape fields mostly valid but now and then
    huge, negative, non-finite or malformed, shape fields maybe dropped,
    repeated or unknown, lines in any order with maybe one bad line; or its
    truncation (small scenes only), or raw text."""
    huge = draw(st.booleans())
    side = st.integers(HUGE, 2**70) if huge else mostly(st.integers(1, 64), st.integers(-1, 0))
    lines = [f"height = {draw(side)}", f"width = {draw(side)}"]
    for key in draw(st.lists(st.sampled_from(sorted(SCALARS)), unique=True)):
        lines.append(f"{key} = {draw(SCALARS[key])}")
    for kind in draw(st.lists(st.sampled_from(sorted(SHAPE_FIELDS)), max_size=3)):
        values = {**SHAPE_FIELDS[kind], "jitter": amplitude(8.0), "hue": small(0, 1)}
        names = list(SHAPE_FIELDS[kind]) + draw(st.sampled_from([[], ["jitter"]]))
        if not draw(mostly(st.just(True), st.just(False))):
            names = draw(st.lists(st.sampled_from(sorted(values)), max_size=8))
        lines.append(f"{kind} = " + " ".join(f"{name}:{draw(values[name])}" for name in names))
    lines.append(draw(mostly(st.just(""), st.sampled_from(["height = 3", "hue = 1", "rect"]))))
    text = "\n".join(draw(st.permutations(lines))) + "\n"
    # a cut could leave one huge side and one small one, which would render
    cut = st.just(text) if huge else st.integers(0, len(text)).map(lambda k: text[:k])
    return draw(mostly(st.just(text), st.one_of(st.text(max_size=64), cut)))


@FUZZ
@given(text=scene_text())
@example(text=f"height = {HUGE}\nwidth = {HUGE}\n")
@example(text="height = 4\nwidth = 4\nblur = 1000000000000\nnoise_sigma = 1e300\n")
@example(text="height = 4\nwidth = 4\nrect = label:1 top:0 left:0 height:2 width:2 "
              "color:1,2,3 jitter:nan\n")
def test_synth_survives_any_scene_text(valid, text):
    spec = valid["root"] / "fuzz-scene.txt"
    spec.write_text(text, encoding="utf-8")
    argv = ["synth", "--spec", spec]
    for flag in ("--out-image", "--out-gt", "--out-unary"):
        argv += [flag, valid["root"] / f"scene{flag}"]
    assert_contract(run_quietly(argv))


@pytest.fixture(scope="module")
def scene(valid):
    path = valid["root"] / "scene.txt"
    path.write_text("height = 4\nwidth = 4\nrect = label:1 top:0 left:0 height:2 width:2 "
                    "color:200,10,10\n")
    return path


@FUZZ
@given(classes=st.one_of(st.none(), COUNTS), widths=st.lists(COUNTS, max_size=3))
@example(classes=HUGE, widths=[1])
def test_eval_survives_any_counts(valid, classes, widths):
    argv = ["eval", "--pred", valid["gt.pgm"], "--gt", valid["gt.pgm"]]
    argv += [] if classes is None else ["--classes", classes]
    for width in widths:
        argv += ["--trimap", width]
    assert_contract(run_quietly(argv))


@FUZZ
@given(labels=st.one_of(st.none(), COUNTS), factor=COUNTS)
@example(labels=HUGE, factor=1)
def test_synth_survives_any_counts(valid, scene, labels, factor):
    argv = ["synth", "--spec", scene, "--out-unary", valid["root"] / "counts.dlt",
            "--factor", factor]
    argv += [] if labels is None else ["--labels", labels]
    assert_contract(run_quietly(argv))


@FUZZ
@given(labels=COUNTS)
@example(labels=HUGE)
def test_bench_survives_any_label_count(labels):
    assert_contract(run_quietly(["bench", "--height", 1, "--width", 1, "--labels", labels,
                                 "--iters", 1]))
