"""Command line front end: refine, eval, tune, synth, bench.

Exit codes are fixed for scripting: 0 success, 2 validation failures
(a request too large to allocate included), 3 I/O failures (missing or
undecodable files).
"""

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from .atrous import upsample_bilinear
from .core import (
    FeatureMap,
    FormatError,
    LabelMap,
    ShapeError,
    read_pgm,
    read_ppm,
    read_tensor,
    write_pgm,
    write_ppm,
    write_tensor,
)
from .densecrf import (
    BACKENDS,
    DEFAULT_ITERATIONS,
    PairwiseParams,
    SearchRanges,
    UnaryField,
    grid_search,
    run_inference,
)
from .metrics import (IGNORE_LABEL, UndefinedMetricError, check_label_count, confusion,
                      mean_iou, per_class_iou, trimap_miou)
from .synth import Disk, Rect, SceneSpec, make_instance, scene_from_text

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3

# refine's kernel flags, in --help order
_PAIRWISE_FLAGS = ("w1", "w2", "sigma_alpha", "sigma_beta", "sigma_gamma")


def _fmt(value: float) -> str:
    return format(float(value), ".6f")


def _params_from_args(args) -> PairwiseParams:
    return PairwiseParams(**{name: getattr(args, name) for name in _PAIRWISE_FLAGS})


def _add_common(parser) -> None:
    parser.add_argument("--threads", type=int, default=1,
                        help="tune: score up to N (sigma pair, case) units at once; "
                             "other subcommands run on one thread (default 1)")


def _add_crf_flags(parser, pairwise: bool) -> None:
    parser.add_argument("--iters", type=int, default=DEFAULT_ITERATIONS)
    if pairwise:
        defaults = PairwiseParams()
        for name in _PAIRWISE_FLAGS:
            parser.add_argument("--" + name.replace("_", "-"), type=float,
                                default=getattr(defaults, name))
    parser.add_argument("--backend", choices=BACKENDS, default="lattice")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denseseg",
        description="Dense label refinement over RGB images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="upsample a unary tensor and refine it")
    p.add_argument("--unary", required=True, help="DLT1 tensor of unary costs")
    p.add_argument("--image", required=True, help="binary PPM guide image")
    p.add_argument("--out", required=True, help="refined label PGM")
    p.add_argument("--q-out", default=None, help="optional DLT1 of final beliefs")
    p.add_argument("--factor", type=int, default=8,
                   help="bilinear upsampling factor applied to the unary")
    _add_crf_flags(p, pairwise=True)
    _add_common(p)

    p = sub.add_parser("eval", help="score a predicted label map against truth")
    p.add_argument("--pred", required=True, help="predicted label PGM")
    p.add_argument("--gt", required=True, help="ground-truth label PGM")
    p.add_argument("--classes", type=int, default=None,
                   help="label count (default: largest label present + 1)")
    p.add_argument("--trimap", type=int, action="append", default=[],
                   metavar="W", help="also report mIOU inside the width-W band")
    _add_common(p)

    p = sub.add_parser("tune", help="grid-search CRF parameters over a manifest")
    p.add_argument("--manifest", required=True,
                   help="text file of 'unary image gt' path triples")
    _add_crf_flags(p, pairwise=False)
    p.add_argument("--w1-values", default=None,
                   help="comma-separated coarse grid for the bilateral weight")
    p.add_argument("--sigma-alpha-values", default=None)
    p.add_argument("--sigma-beta-values", default=None)
    _add_common(p)

    p = sub.add_parser("synth", help="render a scene spec to image/gt/unary files")
    p.add_argument("--spec", required=True, help="scene description text file")
    p.add_argument("--out-image", default=None, help="PPM output path")
    p.add_argument("--out-gt", default=None, help="PGM output path")
    p.add_argument("--out-unary", default=None, help="DLT1 output path")
    p.add_argument("--labels", type=int, default=None,
                   help="unary channel count (default: scene labels)")
    p.add_argument("--factor", type=int, default=1,
                   help="write the unary at 1/factor resolution")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scene file's seed")
    _add_common(p)

    p = sub.add_parser("bench", help="time lattice-backend inference per stage")
    p.add_argument("--height", type=int, default=500)
    p.add_argument("--width", type=int, default=375)
    p.add_argument("--labels", type=int, default=21)
    p.add_argument("--iters", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--seed", type=int, default=0, help="scene seed")
    _add_common(p)

    return parser


def cmd_refine(args) -> int:
    fm = read_tensor(args.unary)
    image = read_ppm(args.image)
    # check the size before upsampling, so a wrong factor allocates nothing
    height, width = fm.height * args.factor, fm.width * args.factor
    if args.factor >= 1 and (height, width) != (image.height, image.width):
        raise ShapeError(
            f"upsampled unary is {height}x{width} but the image is "
            f"{image.height}x{image.width}; check --factor"
        )
    unary = UnaryField(upsample_bilinear(fm, args.factor).data)
    state, labels = run_inference(unary, image, _params_from_args(args), iters=args.iters,
                                  backend=args.backend)
    write_pgm(labels, args.out)
    if args.q_out:
        write_tensor(FeatureMap(state.q), args.q_out)
    return EXIT_OK


def _derive_classes(pred: LabelMap, gt: LabelMap) -> int:
    merged = np.concatenate([pred.labels.reshape(-1), gt.labels.reshape(-1)])
    merged = merged[merged != IGNORE_LABEL]
    top = int(merged.max()) if merged.size else 0
    return max(top + 1, 2)


def cmd_eval(args) -> int:
    pred = read_pgm(args.pred)
    gt = read_pgm(args.gt)
    classes = args.classes if args.classes is not None else _derive_classes(pred, gt)
    check_label_count(classes)
    cm = confusion(pred, gt, classes)
    lines = ["class_id,iou"]
    for class_id, iou in enumerate(per_class_iou(cm)):
        lines.append(f"{class_id},{'nan' if np.isnan(iou) else _fmt(iou)}")
    lines.append(f"mean,{_fmt(mean_iou(cm))}")
    for width in args.trimap:
        try:
            score = _fmt(trimap_miou(pred, gt, classes, width))
        except UndefinedMetricError:  # no boundary or no scored pixel: nan, as for an absent class
            score = "nan"
        lines.append(f"trimap_{width},{score}")
    print("\n".join(lines))
    return EXIT_OK


def _read_manifest(path: str) -> list:
    cases = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{lineno}: manifest lines are 'unary image gt', "
                    f"got {len(parts)} fields"
                )
            unary_path, image_path, gt_path = parts
            unary = UnaryField(read_tensor(unary_path).data)
            cases.append((unary, read_ppm(image_path), read_pgm(gt_path)))
    return cases


def cmd_tune(args) -> int:
    cases = _read_manifest(args.manifest)
    if not cases:
        raise ValueError(f"manifest {args.manifest} lists no cases")
    given = {name: getattr(args, f"{name}_values") for name in ("w1", "sigma_alpha", "sigma_beta")}
    ranges = SearchRanges(**{name: tuple(float(tok) for tok in text.split(","))
                             for name, text in given.items() if text is not None})
    best, report = grid_search(cases, ranges=ranges, iters=args.iters, backend=args.backend,
                               threads=args.threads)
    lines = ["stage,w1,sigma_alpha,sigma_beta,mean_miou"]
    for point in report:
        p = point.params
        lines.append(
            f"{point.stage},{p.w1!r},{p.sigma_alpha!r},{p.sigma_beta!r},"
            f"{_fmt(point.score)}"
        )
    best_score = max(point.score for point in report)
    lines.append(
        f"best,{best.w1!r},{best.sigma_alpha!r},{best.sigma_beta!r},"
        f"{_fmt(best_score)}"
    )
    print("\n".join(lines))
    return EXIT_OK


def cmd_synth(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        spec = scene_from_text(text)
    except FormatError as exc:
        # content problems in a spec are validation, not I/O
        raise ValueError(str(exc)) from exc
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    unary, image, gt = make_instance(spec, num_labels=args.labels, factor=args.factor)
    if args.out_image:
        write_ppm(image, args.out_image)
    if args.out_gt:
        write_pgm(gt, args.out_gt)
    if args.out_unary:
        write_tensor(FeatureMap(unary.theta), args.out_unary)
    return EXIT_OK


def bench_scene(height: int, width: int, labels: int, seed: int) -> SceneSpec:
    """Reproducible mixed-shape scene sized for timing runs."""
    rng = np.random.default_rng(seed)
    shapes = []
    if height >= 16 and width >= 16 and labels >= 2:
        span = min(height, width)
        for index in range(6):
            label = 1 + index % (labels - 1)
            color = tuple(int(c) for c in rng.integers(0, 256, size=3))
            if index % 2 == 0:
                top = int(rng.integers(0, height - 8))
                left = int(rng.integers(0, width - 8))
                extent_h = int(min(rng.integers(8, max(9, span // 2)), height - top))
                extent_w = int(min(rng.integers(8, max(9, span // 2)), width - left))
                shapes.append(
                    Rect(label=label, top=top, left=left, height=extent_h,
                         width=extent_w, color=color, jitter=6.0)
                )
            else:
                radius = int(rng.integers(4, max(5, span // 4)))
                row = int(rng.integers(radius, height - radius))
                col = int(rng.integers(radius, width - radius))
                shapes.append(
                    Disk(label=label, row=row, col=col, radius=float(radius),
                         color=color, jitter=6.0)
                )
    return SceneSpec(height=height, width=width, shapes=tuple(shapes), background=(30, 30, 30),
                     blur=2, noise_sigma=1.0, seed=seed)


def cmd_bench(args) -> int:
    if args.labels < 2:
        raise ValueError(f"--labels must be at least 2, got {args.labels}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    spec = bench_scene(args.height, args.width, args.labels, args.seed)
    unary, image, _ = make_instance(spec, num_labels=args.labels)
    # The lattice loads scipy.sparse on first use; loading it here keeps
    # that out of the `build` stage.
    import scipy.sparse  # noqa: F401
    timer: dict = {}
    start = time.perf_counter()
    run_inference(unary, image, iters=args.iters, backend="lattice", timer=timer)
    total = time.perf_counter() - start
    lines = ["stage,seconds"]
    for stage in ("build", "init", "splat", "blur", "slice", "update", "finish"):
        lines.append(f"{stage},{timer.get(stage, 0.0):.6f}")
    lines.append(f"total,{total:.6f}")
    print("\n".join(lines))
    return EXIT_OK


_COMMANDS = {
    "refine": cmd_refine,
    "eval": cmd_eval,
    "tune": cmd_tune,
    "synth": cmd_synth,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return _COMMANDS[args.command](args)
    except (FormatError, OSError) as exc:
        print(f"denseseg {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ShapeError, ValueError, MemoryError) as exc:
        print(f"denseseg {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
