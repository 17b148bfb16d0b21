"""The three workloads: seeded inputs, the timed operation, its checks and a
traced replay that splits one operation by layer.

Every workload is a closed loop with one client in one process. The program
sees only the files written by `setup` (and, for deeplab_front, the seeded
pyramid weights); the benchmark keeps the ground truth to itself.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import time
from pathlib import Path

import numpy as np

from denseseg import cli
from denseseg.aspp import aspp_forward, multiscale_max_fuse, random_config, rescale_pyramid
from denseseg.atrous import atrous_conv_2d_holes, atrous_conv_2d_subsampled, upsample_bilinear
from denseseg.core import FeatureMap, LabelMap, read_pgm, read_ppm, read_tensor, write_pgm, write_ppm, write_tensor
from denseseg.densecrf import (
    PairwiseFilters,
    PairwiseParams,
    UnaryField,
    bilateral_features,
    init_state,
    labels_from_state,
    mean_field_step,
    spatial_features,
)
from denseseg.hdfilter import PermutohedralLattice
from denseseg.metrics import ConfusionMatrix, confusion, mean_iou, per_class_iou, trimap_mask, trimap_miou
from denseseg.synth import Disk, Rect, SceneSpec, make_instance

import reference
from spans import Tracer, TimedFilters

TRIMAP_WIDTH = 5
# A traced replay must reproduce the program's labels on at least this share
# of pixels, or the layer split it reports is not a split of the program.
REPLAY_AGREEMENT = 0.999


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def subseed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_cli(argv: list[str]) -> str:
    """Run one denseseg subcommand in-process; return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"denseseg {argv[0]} exited with {code}")
    return out.getvalue()


def decode_pgm(path: Path) -> np.ndarray:
    """Decode a binary PGM without the program's reader."""
    blob = path.read_bytes()
    match = re.match(rb"P5\s(\d+)\s(\d+)\s255\s", blob)
    if match is None:
        raise CheckFailed(f"{path.name}: not a binary PGM")
    width, height = int(match.group(1)), int(match.group(2))
    payload = blob[match.end():]
    if len(payload) != width * height:
        raise CheckFailed(f"{path.name}: payload is {len(payload)} bytes, not {width * height}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def pooled_miou(pairs, labels: int, band: bool) -> float:
    """Dataset-level mIOU as in VOC: one confusion matrix summed over
    (pred, truth) pairs, averaged over the classes the truth contains.

    With `band`, only pixels in the width-5 boundary band of the truth count.
    A class predicted but absent from the truth lowers the score through the
    true classes' missed pixels, not as a class of its own, so the score
    does not jump with the number of such classes.
    """
    counts = np.zeros((labels, labels), dtype=np.int64)
    for pred, gt in pairs:
        mask = trimap_mask(gt, TRIMAP_WIDTH).mask if band else None
        counts += confusion(pred, gt, labels, mask=mask).counts
    present = counts.sum(axis=1) > 0
    return float(per_class_iou(ConfusionMatrix(counts))[present].mean())


def agreement(a: np.ndarray, b: np.ndarray) -> float:
    return float((a == b).mean()) if a.shape == b.shape else 0.0


def filter_mb(points: int, dim: int, vertices: int, labels: int) -> float:
    """Megabytes one lattice filter call must touch, computed from array sizes.

    Values in and out (float32), splat and slice weights with their vertex
    ids (float32 + int64 per point and simplex corner), the lattice buffer
    written by splat and read by slice, and per blur direction two gathers
    plus one update of the buffer and its two neighbour-id rows.
    """
    lattice = 4 * (vertices + 1) * labels
    corners = 12 * points * (dim + 1)
    blur = (dim + 1) * (3 * lattice + 16 * (vertices + 1))
    return (8 * points * labels + 2 * corners + 2 * lattice + blur) / 1e6


def crf_layers(tracer: Tracer, timer: dict, iters: int) -> dict:
    """Per-layer values shared by the two CRF replays."""
    steps = tracer.total("densecrf.step")
    filtering = tracer.total("hdfilter.filter")
    per_iter = max(tracer.count("densecrf.step"), 1)
    return {
        "densecrf.init_s": tracer.total("densecrf.init"),
        "densecrf.filters_build_s": tracer.total("densecrf.filters_build"),
        "densecrf.step_s": steps / per_iter,
        "densecrf.update_s": (steps - filtering) / per_iter,
        "densecrf.argmax_s": tracer.total("densecrf.argmax"),
        "densecrf.iterations": iters,
        "hdfilter.filter_s": filtering,
        "hdfilter.splat_s": timer.get("splat", 0.0),
        "hdfilter.blur_s": timer.get("blur", 0.0),
        "hdfilter.slice_s": timer.get("slice", 0.0),
    }


def traced_inference(tracer, timer, unary_fm, image, params, iters, threads):
    """Replay run_inference's order under spans; returns (labels, last dq, changed)."""
    with tracer.span("densecrf.init"):
        unary = UnaryField(np.asarray(unary_fm.data, dtype=np.float64))
        state = init_state(unary)
    with tracer.span("densecrf.filters_build"):
        filters = PairwiseFilters(image, params, "lattice")
    timed = TimedFilters(filters, tracer)
    prev = state
    for _ in range(iters):
        prev = state
        with tracer.span("densecrf.step"):
            state = mean_field_step(
                state, unary, image, params, "lattice",
                filters=timed, threads=threads, timer=timer,
            )
    with tracer.span("densecrf.argmax"):
        labels = labels_from_state(state)
    dq = float(np.abs(state.q - prev.q).mean())
    changed = int((np.argmax(state.q, axis=2) != np.argmax(prev.q, axis=2)).sum())
    return labels, dq, changed


def standalone_builds(image, params) -> dict:
    """Build the two lattices PairwiseFilters builds, outside the traced wall,
    to split its time into lattice builds and calibration."""
    bilateral = bilateral_features(image, params.sigma_alpha, params.sigma_beta)
    spatial = spatial_features(image.height, image.width, params.sigma_gamma)
    t0 = time.perf_counter()
    lat_b = PermutohedralLattice(bilateral)
    t1 = time.perf_counter()
    lat_s = PermutohedralLattice(spatial)
    t2 = time.perf_counter()
    return {
        "build_b": t1 - t0, "build_s": t2 - t1, "points": bilateral.n,
        "vertices_b": lat_b.num_vertices, "vertices_s": lat_s.num_vertices,
    }


# Fixed, well-separated colours per region. The 48x64 tune case computes
# exact bilateral masses, whose exp() runs many times slower where it returns
# subnormals, so its cost follows the scene's colour-distance mix; fixing the
# colours and the tile split keeps that mix, and the sweep's cost, the same
# for every seed.
PALETTE = ((205, 60, 55), (65, 70, 210), (60, 170, 75), (225, 200, 60), (160, 70, 190), (60, 190, 200))


def quadrant_scene(height: int, width: int, seed: int) -> SceneSpec:
    """Four jittered tiles in fixed colours plus two fixed-size disks; the
    seed draws the labels, the disk positions and all noise."""
    rng = np.random.default_rng(seed)
    row, col = height // 2, width // 2
    tiles = ((0, 0, row, col), (0, col, row, width - col),
             (row, 0, height - row, col), (row, col, height - row, width - col))
    shapes = [Rect(label=int(label), top=t, left=l, height=h, width=w, color=PALETTE[k], jitter=6.0)
              for k, (label, (t, l, h, w)) in enumerate(zip(rng.permutation(4) + 1, tiles))]
    radius = min(height, width) // 6
    for k in (4, 5):
        shapes.append(Disk(label=int(rng.integers(1, 5)), row=int(rng.integers(radius, height - radius)),
                           col=int(rng.integers(radius, width - radius)), radius=float(radius),
                           color=PALETTE[k], jitter=6.0))
    return SceneSpec(height=height, width=width, shapes=tuple(shapes), background=(30, 30, 30),
                     blur=2, noise_sigma=2.0, seed=seed)


class VocRefine:
    """`denseseg refine` from files on bench_scene images, lattice backend."""

    name = "voc_refine"
    SIZES = {
        # 8 images: fewer left the pooled mIOU spread across seeds too wide
        "full": dict(height=504, width=376, labels=21, factor=8, images=8, iters=10),
        "tiny": dict(height=64, width=48, labels=21, factor=8, images=2, iters=10),
    }

    def __init__(self, size: str) -> None:
        self.dims = self.SIZES[size]
        self.min_ops = self.dims["images"]
        self.params = PairwiseParams()
        self.outputs: dict[int, np.ndarray] = {}

    def setup(self, workdir: Path, seed: int) -> None:
        d = self.dims
        workdir.mkdir(parents=True)
        self.cases = []
        for i in range(d["images"]):
            spec = cli.bench_scene(d["height"], d["width"], d["labels"], subseed(seed, i))
            unary, image, gt = make_instance(spec, num_labels=d["labels"], factor=d["factor"])
            case = {name: workdir / f"{name}{i}.{ext}" for name, ext in
                    (("unary", "dlt"), ("image", "ppm"), ("out", "pgm"), ("traced", "pgm"))}
            write_tensor(FeatureMap(unary.theta.astype(np.float32)), str(case["unary"]))
            write_ppm(image, str(case["image"]))
            case["gt"] = gt
            self.cases.append(case)

    def _argv(self, case) -> list[str]:
        d = self.dims
        return ["refine", "--unary", str(case["unary"]), "--image", str(case["image"]),
                "--out", str(case["out"]), "--factor", str(d["factor"]),
                "--iters", str(d["iters"]), "--backend", "lattice", "--threads", "1"]

    def op(self, i: int) -> np.ndarray:
        case = self.cases[i % len(self.cases)]
        run_cli(self._argv(case))
        labels = decode_pgm(case["out"])
        d = self.dims
        if labels.shape != (d["height"], d["width"]):
            raise CheckFailed(f"label map is {labels.shape}, image is {d['height']}x{d['width']}")
        if labels.max() >= d["labels"]:
            raise CheckFailed(f"label {labels.max()} is not below {d['labels']}")
        self.outputs.setdefault(i % len(self.cases), labels)
        return labels

    def quality(self) -> tuple[float, float, list]:
        """Pooled mIOU and trimap mIOU of each image's first output; no
        further checks."""
        pairs = [(LabelMap(self.outputs[i]), case["gt"]) for i, case in enumerate(self.cases)]
        labels = self.dims["labels"]
        return pooled_miou(pairs, labels, band=False), pooled_miou(pairs, labels, band=True), []

    plain_unit = op

    def trace_unit(self, i: int, plain: np.ndarray) -> dict:
        case = self.cases[i % len(self.cases)]
        d = self.dims
        tracer, timer = Tracer(), {}
        start = time.perf_counter()
        with tracer.span("core.read"):
            fm = read_tensor(str(case["unary"]))
            image = read_ppm(str(case["image"]))
        with tracer.span("atrous.upsample"):
            fm = upsample_bilinear(fm, d["factor"])
        labels, dq, changed = traced_inference(tracer, timer, fm, image, self.params, d["iters"], 1)
        with tracer.span("core.write"):
            write_pgm(labels, str(case["traced"]))
        wall = time.perf_counter() - start
        attributed = tracer.attributed()

        if agreement(labels.labels, plain) < REPLAY_AGREEMENT:
            raise CheckFailed("traced replay disagrees with the refine command")
        t0 = time.perf_counter()
        trimap_miou(labels, case["gt"], d["labels"], TRIMAP_WIDTH)
        mean_iou(confusion(labels, case["gt"], d["labels"]))
        score_s = time.perf_counter() - t0
        builds = standalone_builds(image, self.params)
        values = crf_layers(tracer, timer, d["iters"])
        values.update({
            "trace.wall": wall, "trace.attributed": attributed,
            "core.read_s": tracer.total("core.read"),
            "core.write_s": tracer.total("core.write"),
            "core.bytes_read": os.path.getsize(case["unary"]) + os.path.getsize(case["image"]),
            "core.bytes_written": os.path.getsize(case["traced"]),
            "atrous.upsample_s": tracer.total("atrous.upsample"),
            "densecrf.calibrate_s": values["densecrf.filters_build_s"] - builds["build_b"] - builds["build_s"],
            "densecrf.final_mean_abs_dq": dq,
            "densecrf.final_labels_changed": changed,
            "hdfilter.build_bilateral_s": builds["build_b"],
            "hdfilter.build_spatial_s": builds["build_s"],
            "hdfilter.points": builds["points"],
            "hdfilter.vertices_bilateral": builds["vertices_b"],
            "hdfilter.vertices_spatial": builds["vertices_s"],
            "hdfilter.filter_mb_computed": d["iters"] * (
                filter_mb(builds["points"], 5, builds["vertices_b"], d["labels"])
                + filter_mb(builds["points"], 2, builds["vertices_s"], d["labels"])),
            "metrics.score_s": score_s,
        })
        return values

    def trace_prepare(self) -> dict:
        return {}


class TuneSweep:
    """`denseseg tune` over a seeded manifest of four synthetic cases."""

    name = "tune_sweep"
    SIZES = {
        # 48x64 sits below EXACT_MASS_MAX_PIXELS (4096); the other three above.
        "full": dict(shapes=((48, 64), (96, 128), (128, 96), (168, 128)), labels=5),
        "tiny": dict(shapes=((16, 24), (24, 16)), labels=5),
    }
    ITERS = 3
    THREADS = 2
    # Two values per axis around a coarse winner with sigma_alpha >= 80 keep
    # every refine candidate positive, so each seed scans 25 distinct points
    # and builds 5 distinct bilateral lattices per case.
    GRID = {"--w1-values": "3,5", "--sigma-alpha-values": "80,120", "--sigma-beta-values": "4"}
    TRACED_POINT = PairwiseParams(w1=3.0, sigma_alpha=80.0, sigma_beta=4.0)
    min_ops = 2

    def __init__(self, size: str) -> None:
        self.dims = self.SIZES[size]
        self.best_row: str | None = None

    def setup(self, workdir: Path, seed: int) -> None:
        workdir.mkdir(parents=True)
        self.cases = []
        lines = []
        for i, (h, w) in enumerate(self.dims["shapes"]):
            spec = quadrant_scene(h, w, subseed(seed, i))
            unary, image, gt = make_instance(spec, num_labels=self.dims["labels"])
            case = {name: workdir / f"{name}{i}.{ext}" for name, ext in
                    (("unary", "dlt"), ("image", "ppm"), ("gt", "pgm"), ("out", "pgm"))}
            write_tensor(FeatureMap(unary.theta.astype(np.float32)), str(case["unary"]))
            write_ppm(image, str(case["image"]))
            write_pgm(gt, str(case["gt"]))
            case["truth"] = gt
            self.cases.append(case)
            lines.append(f"{case['unary']} {case['image']} {case['gt']}")
        self.manifest = workdir / "cases.txt"
        self.manifest.write_text("\n".join(lines) + "\n")

    def _tune(self, grid: dict) -> list[list[str]]:
        argv = ["tune", "--manifest", str(self.manifest), "--iters", str(self.ITERS),
                "--backend", "lattice", "--threads", str(self.THREADS)]
        for flag, values in grid.items():
            argv += [flag, values]
        lines = run_cli(argv).strip().splitlines()
        if not lines or lines[0] != "stage,w1,sigma_alpha,sigma_beta,mean_miou":
            raise CheckFailed("tune printed no report header")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) < 2 or rows[-1][0] != "best" or any(len(r) != 5 for r in rows):
            raise CheckFailed("tune report is malformed")
        points, best = rows[:-1], rows[-1]
        top = max(float(r[4]) for r in points)
        if float(best[4]) != top:
            raise CheckFailed(f"best score {best[4]} is not the report maximum {top}")
        if best[1:4] not in [r[1:4] for r in points if float(r[4]) == top]:
            raise CheckFailed("best parameters are not a top-scoring report point")
        return rows

    def op(self, i: int) -> list[list[str]]:
        rows = self._tune(self.GRID)
        best = ",".join(rows[-1])
        if self.best_row is None:
            self.best_row = best
        elif best != self.best_row:
            raise CheckFailed(f"sweep {i} picked {best}, sweep 0 picked {self.best_row}")
        return rows

    def quality(self) -> tuple[float, float, list]:
        """The winner's manifest score and the pooled trimap mIOU of the labels
        the winning parameters give; refining every case with them must
        reproduce the reported score."""
        _, w1, sigma_alpha, sigma_beta, score = self.best_row.split(",")
        labels = self.dims["labels"]
        pairs, scores = [], []
        for case in self.cases:
            run_cli(["refine", "--unary", str(case["unary"]), "--image", str(case["image"]),
                     "--out", str(case["out"]), "--factor", "1", "--iters", str(self.ITERS),
                     "--backend", "lattice", "--threads", str(self.THREADS), "--w1", w1,
                     "--sigma-alpha", sigma_alpha, "--sigma-beta", sigma_beta])
            pred = read_pgm(str(case["out"]))
            pairs.append((pred, case["truth"]))
            scores.append(mean_iou(confusion(pred, case["truth"], labels)))
        wrong = []
        if abs(float(np.mean(scores)) - float(score)) > 1e-6:
            wrong.append(f"refining with the winner scores {np.mean(scores)}, tune reported {score}")
        return float(score), pooled_miou(pairs, labels, band=True), wrong

    def plain_unit(self, i: int) -> float:
        """tune over the one-point grid the traced unit replays."""
        p = self.TRACED_POINT
        grid = {"--w1-values": str(p.w1), "--sigma-alpha-values": str(p.sigma_alpha),
                "--sigma-beta-values": str(p.sigma_beta)}
        return float(self._tune(grid)[-1][4])

    def trace_prepare(self) -> dict:
        """Counts of one full sweep, from the report tune prints."""
        rows = self.op(0)[:-1]
        points = {tuple(r[1:4]) for r in rows}
        sigmas = {p[1:] for p in points}
        cases = len(self.cases)
        return {
            "densecrf.tune_points": len(points),
            "densecrf.tune_inference_calls": len(points) * cases,
            # one bilateral lattice per distinct (sigma_alpha, sigma_beta) and
            # one spatial lattice per case, since sigma_gamma is fixed
            "densecrf.tune_lattices_needed": cases * (len(sigmas) + 1),
        }

    def trace_unit(self, i: int, plain: float) -> dict:
        """One grid point on every case, replaying tune's order under spans."""
        labels = self.dims["labels"]
        params = self.TRACED_POINT
        tracer, timer = Tracer(), {}
        start = time.perf_counter()
        with tracer.span("core.read"):
            inputs = [(read_tensor(str(c["unary"])), read_ppm(str(c["image"])), read_pgm(str(c["gt"])))
                      for c in self.cases]
        scores, dqs, changed = [], [], 0
        for fm, image, gt in inputs:
            pred, dq, moved = traced_inference(tracer, timer, fm, image, params, self.ITERS, self.THREADS)
            with tracer.span("metrics.score"):
                scores.append(mean_iou(confusion(pred, gt, labels)))
            dqs.append(dq)
            changed += moved
        wall = time.perf_counter() - start
        attributed = tracer.attributed()

        if abs(float(np.mean(scores)) - plain) > 1e-6:
            raise CheckFailed(f"traced replay scores {np.mean(scores)}, tune scores {plain}")
        builds = [standalone_builds(image, params) for _, image, _ in inputs]
        total = {key: sum(b[key] for b in builds) for key in builds[0]}
        values = crf_layers(tracer, timer, self.ITERS)
        values.update({
            "trace.wall": wall, "trace.attributed": attributed,
            "core.read_s": tracer.total("core.read"),
            "core.bytes_read": os.path.getsize(self.manifest) + sum(
                os.path.getsize(c[k]) for c in self.cases for k in ("unary", "image", "gt")),
            "densecrf.calibrate_s": values["densecrf.filters_build_s"] - total["build_b"] - total["build_s"],
            "densecrf.final_mean_abs_dq": float(np.mean(dqs)),
            "densecrf.final_labels_changed": changed,
            "hdfilter.build_bilateral_s": total["build_b"],
            "hdfilter.build_spatial_s": total["build_s"],
            "hdfilter.points": total["points"],
            "hdfilter.vertices_bilateral": total["vertices_b"],
            "hdfilter.vertices_spatial": total["vertices_s"],
            "hdfilter.filter_mb_computed": self.ITERS * sum(
                filter_mb(b["points"], 5, b["vertices_b"], labels)
                + filter_mb(b["points"], 2, b["vertices_s"], labels) for b in builds),
            "metrics.score_s": tracer.total("metrics.score"),
        })
        return values


class DeeplabFront:
    """Multi-scale ASPP-L front end on a seeded feature map, no CRF."""

    name = "deeplab_front"
    SIZES = {
        "full": dict(height=63, width=47, channels=128, hidden=256, labels=21, rates=(6, 12, 18, 24)),
        "tiny": dict(height=16, width=12, channels=8, hidden=8, labels=5, rates=(1, 2)),
    }
    SCALES = (0.5, 0.75, 1.0)
    FACTOR = 8
    min_ops = 1

    def __init__(self, size: str) -> None:
        self.dims = self.SIZES[size]
        self.first: np.ndarray | None = None
        self._reference: np.ndarray | None = None

    def setup(self, workdir: Path, seed: int) -> None:
        """Features are a seeded random embedding of a bench_scene's coarse
        label posterior, so score maps have the spatial structure of a scene."""
        d = self.dims
        workdir.mkdir(parents=True)
        spec = cli.bench_scene(d["height"] * self.FACTOR, d["width"] * self.FACTOR, 21, subseed(seed, 0))
        unary, _, _ = make_instance(spec, num_labels=21, factor=self.FACTOR)
        rng = np.random.default_rng(subseed(seed, 1))
        embed = rng.normal(scale=1 / np.sqrt(21), size=(21, d["channels"]))
        feats = np.tanh(-unary.theta @ embed) + rng.normal(scale=0.1, size=(d["height"], d["width"], d["channels"]))
        self.features = workdir / "features.dlt"
        write_tensor(FeatureMap(feats.astype(np.float32)), str(self.features))
        self.config = random_config(d["rates"], d["channels"], d["hidden"], d["labels"],
                                    kernel_size=3, seed=subseed(seed, 2))

    def _to_grid(self, fm: FeatureMap) -> FeatureMap:
        h = self.dims["height"]
        return fm if fm.height == h else rescale_pyramid(fm, [h / fm.height])[0]

    def _check(self, scores: FeatureMap) -> None:
        d = self.dims
        shape = (d["height"] * self.FACTOR, d["width"] * self.FACTOR, d["labels"])
        if scores.data.shape != shape:
            raise CheckFailed(f"scores are {scores.data.shape}, expected {shape}")
        if not np.isfinite(scores.data).all():
            raise CheckFailed("scores are not finite")

    def op(self, i: int) -> np.ndarray:
        fm = read_tensor(str(self.features))
        outs = [self._to_grid(aspp_forward(x, self.config)) for x in rescale_pyramid(fm, self.SCALES)]
        scores = upsample_bilinear(multiscale_max_fuse(outs), self.FACTOR)
        self._check(scores)
        if self.first is None:
            self.first = scores.data
        elif not np.array_equal(scores.data, self.first):
            raise CheckFailed(f"pass {i} differs from pass 0 on the same input")
        return scores.data

    plain_unit = op

    def reference_labels(self) -> np.ndarray:
        if self._reference is None:
            branches = [(b.rate.r, [k.weights for k in b.kernels]) for b in self.config.branches]
            feats = read_tensor(str(self.features)).data
            ref = reference.front_end(feats, branches, self.SCALES, self.FACTOR)
            self._reference = np.argmax(ref, axis=2).astype(np.uint8)
        return self._reference

    def _score(self, scores: np.ndarray) -> tuple[float, float]:
        pairs = [(LabelMap(np.argmax(scores, axis=2).astype(np.uint8)),
                  LabelMap(self.reference_labels()))]
        labels = self.dims["labels"]
        return pooled_miou(pairs, labels, band=False), pooled_miou(pairs, labels, band=True)

    def quality(self) -> tuple[float, float, list]:
        """mIOU of the program's labels against the float64 reference's; the
        two atrous routes must also agree bit for bit on branch 0."""
        fm = read_tensor(str(self.features))
        branch = self.config.branches[0]
        holes = atrous_conv_2d_holes(fm, branch.kernels[0], branch.rate)
        sub = atrous_conv_2d_subsampled(fm, branch.kernels[0], branch.rate)
        wrong = [] if np.array_equal(holes.data, sub.data) else [
            "atrous holes and subsampled routes differ on branch 0"]
        return (*self._score(self.first), wrong)

    def trace_prepare(self) -> dict:
        self.reference_labels()
        return {}

    def trace_unit(self, i: int, plain: np.ndarray) -> dict:
        """Replay the pass with aspp_forward's branch loop opened up, so each
        atrous convolution gets its own span inside the forward span."""
        d = self.dims
        tracer = Tracer()
        start = time.perf_counter()
        with tracer.span("core.read"):
            fm = read_tensor(str(self.features))
        with tracer.span("aspp.rescale"):
            pyramid = rescale_pyramid(fm, self.SCALES)
        outs, macs = [], 0
        for x in pyramid:
            with tracer.span("aspp.forward"):
                total = np.zeros((x.height, x.width, self.config.c_out))
                for branch in self.config.branches:
                    y, rate = x, branch.rate
                    for kernel in branch.kernels:
                        with tracer.span("atrous.conv_holes"):
                            y = atrous_conv_2d_holes(y, kernel, rate, padding=True)
                        macs += x.height * x.width * kernel.weights.size
                        rate = 1
                    total += y.data
                y = FeatureMap(total.astype(np.float32))
            with tracer.span("aspp.rescale"):
                outs.append(self._to_grid(y))
        with tracer.span("aspp.fuse"):
            fused = multiscale_max_fuse(outs)
        with tracer.span("atrous.upsample"):
            scores = upsample_bilinear(fused, self.FACTOR)
        wall = time.perf_counter() - start
        attributed = tracer.attributed()

        self._check(scores)
        if agreement(np.argmax(scores.data, axis=2), np.argmax(plain, axis=2)) < REPLAY_AGREEMENT:
            raise CheckFailed("traced replay disagrees with the front-end pass")
        branch = self.config.branches[0]
        t0 = time.perf_counter()
        atrous_conv_2d_subsampled(fm, branch.kernels[0], branch.rate)
        subsampled_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        self._score(scores.data)
        score_s = time.perf_counter() - t0
        return {
            "trace.wall": wall, "trace.attributed": attributed,
            "core.read_s": tracer.total("core.read"),
            "core.bytes_read": os.path.getsize(self.features),
            "atrous.upsample_s": tracer.total("atrous.upsample"),
            "atrous.conv_holes_s": tracer.total("atrous.conv_holes"),
            "atrous.conv_subsampled_s": subsampled_s,
            "atrous.macs": macs,
            "aspp.forward_s": tracer.total("aspp.forward"),
            "aspp.rescale_s": tracer.total("aspp.rescale"),
            "aspp.fuse_s": tracer.total("aspp.fuse"),
            "aspp.branches": len(self.config.branches) * len(self.SCALES),
            "metrics.score_s": score_s,
        }


WORKLOADS = {cls.name: cls for cls in (VocRefine, TuneSweep, DeeplabFront)}
