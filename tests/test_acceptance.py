"""End-to-end acceptance checks, one test per criterion.

Each test prints one ``criterion NN PASS/FAIL`` line with the measured
margin so a plain pytest -s run doubles as the acceptance report.
"""

import dataclasses
import time

import numpy as np

from denseseg.atrous import (
    ConvKernel,
    atrous_conv_2d_holes,
    atrous_conv_2d_subsampled,
    effective_kernel_size,
    upsample_bilinear,
)
from denseseg.cli import bench_scene, main
from denseseg.core import FeatureMap, LabelMap, RgbImage, write_pgm, write_ppm, write_tensor
from denseseg.densecrf import (
    PairwiseParams,
    UnaryField,
    init_state,
    mean_field_step,
    run_inference,
    unary_from_probs,
)
from denseseg.hdfilter import (
    FeaturePoints,
    PermutohedralLattice,
    gaussian_filter_exact,
    lattice_filter_normalized,
)
from denseseg.metrics import (
    ConfusionMatrix,
    confusion,
    mean_iou,
    per_class_iou,
    trimap_mask,
    trimap_miou,
)
from denseseg.synth import Disk, Rect, SceneSpec, make_instance
from oracles import (
    confusion_bruteforce,
    mean_iou_bruteforce,
    meanfield_step_bruteforce,
    reference_conv2d,
    relative_l2,
    relative_linf,
    trimap_band_bruteforce,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def suite_scene(seed: int, blur: int, noise_sigma: float) -> SceneSpec:
    """32x32 three-shape scene with per-seed geometry jitter."""
    rng = np.random.default_rng(seed)
    dy, dx, ey, ex = (int(v) for v in rng.integers(-3, 4, size=4))
    shapes = (
        Rect(label=1, top=4 + dy, left=5 + dx, height=12, width=13,
             color=(205, 60, 55), jitter=3.0),
        Rect(label=2, top=17 + ey, left=15 + ex, height=11, width=14,
             color=(60, 205, 65), jitter=3.0),
        Disk(label=3, row=10.0 + dx, col=21.0 + ey, radius=6.0,
             color=(65, 70, 210), jitter=3.0),
    )
    return SceneSpec(height=32, width=32, shapes=shapes, background=(25, 25, 25),
                     blur=blur, noise_sigma=noise_sigma, seed=seed)


def posterior_from_unary(theta: np.ndarray) -> np.ndarray:
    p = np.exp(-theta)
    return p / p.sum(axis=2, keepdims=True)


def test_criterion_01_atrous_route_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(200):
        k = int(rng.choice([1, 3, 4, 5]))
        r = int(rng.integers(1, 7))
        ke = effective_kernel_size(k, r)
        h = int(rng.integers(max(8, ke), 49))
        w = int(rng.integers(max(8, ke), 49))
        fm = FeatureMap(rng.standard_normal((h, w, int(rng.integers(1, 9)))).astype(np.float32))
        kern = ConvKernel(
            rng.standard_normal((k, k, fm.channels, int(rng.integers(1, 9)))).astype(np.float32)
        )
        padding = bool(rng.integers(0, 2))
        a = atrous_conv_2d_holes(fm, kern, r, padding=padding)
        b = atrous_conv_2d_subsampled(fm, kern, r, padding=padding)
        worst = max(worst, relative_linf(b.data, a.data))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 30.0
    report(1, ok, f"200 cases, worst rel Linf {worst:.2e} (tol 1e-5), {elapsed:.1f}s (limit 30s)")


def test_criterion_02_rate_one_reduces_to_standard_conv():
    rng = np.random.default_rng(7)
    exact = 0
    for _ in range(50):
        k = int(rng.choice([1, 3, 4, 5]))
        h = int(rng.integers(k, 25))
        w = int(rng.integers(k, 25))
        fm = FeatureMap(rng.standard_normal((h, w, int(rng.integers(1, 5)))).astype(np.float32))
        kern = ConvKernel(
            rng.standard_normal((k, k, fm.channels, int(rng.integers(1, 5)))).astype(np.float32)
        )
        padding = bool(rng.integers(0, 2))
        want = reference_conv2d(fm.data, kern.weights, 1, padding)
        a = atrous_conv_2d_holes(fm, kern, 1, padding=padding)
        b = atrous_conv_2d_subsampled(fm, kern, 1, padding=padding)
        exact += int(np.array_equal(a.data, want) and np.array_equal(b.data, want))
    report(2, exact == 50, f"{exact}/50 cases bit-exact against the reference convolution")


def test_criterion_03_effective_kernel_size_law():
    failures = []
    for k in (1, 3, 5):
        for r in (1, 2, 3, 4, 12):
            ke = effective_kernel_size(k, r)
            size = 2 * ke + 7
            fm = np.zeros((size, size, 1), dtype=np.float32)
            fm[size // 2, size // 2, 0] = 1.0
            kern = ConvKernel(np.ones((k, k, 1, 1), dtype=np.float32))
            out = atrous_conv_2d_holes(FeatureMap(fm), kern, r).data[:, :, 0]
            ys, xs = np.nonzero(out)
            extent = (int(ys.max() - ys.min() + 1), int(xs.max() - xs.min() + 1))
            if extent != (ke, ke):
                failures.append((k, r, extent, ke))
    report(3, not failures, f"impulse support equals k+(k-1)(r-1) for all 15 (k,r) pairs"
           + (f"; failures {failures}" if failures else ""))


def test_criterion_04_lattice_matches_exact_filter():
    rng = np.random.default_rng(40)
    worst = {2: 0.0, 5: 0.0}
    worst_const = 0.0
    for case in range(50):
        d = 2 if case % 2 == 0 else 5
        h = int(rng.integers(16, 65))
        w = int(rng.integers(16, min(65, 4096 // h + 1)))
        n = h * w
        seed = int(rng.integers(0, 10_000))
        unary, image, _ = make_instance(bench_scene(h, w, 4, seed))
        values = posterior_from_unary(unary.theta).reshape(n, -1)
        ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
        if d == 2:
            sg = float(rng.uniform(1.0, 5.0))
            pts = np.stack([ys / sg, xs / sg], axis=-1).reshape(n, 2)
        else:
            sa = float(rng.uniform(30.0, 100.0))
            sb = float(rng.uniform(3.0, 6.0))
            pts = np.concatenate(
                [np.stack([ys / sa, xs / sa], axis=-1),
                 image.data.astype(np.float64) / sb],
                axis=-1,
            ).reshape(n, 5)
        feats = FeaturePoints(pts)
        lat = PermutohedralLattice(feats)
        approx = lattice_filter_normalized(lat, values).astype(np.float64)
        exact = gaussian_filter_exact(values, feats)
        exact /= gaussian_filter_exact(np.ones(n), feats)[:, None]
        worst[d] = max(worst[d], relative_l2(approx, exact))
        const = lattice_filter_normalized(lat, np.full((n, 1), 2.5))
        worst_const = max(worst_const, float(np.abs(const - 2.5).max()))
    ok = worst[2] <= 0.05 and worst[5] <= 0.05 and worst_const <= 1e-4
    report(4, ok, f"50 image-feature instances: worst rel L2 d=2 {worst[2]:.4f}, "
                  f"d=5 {worst[5]:.4f} (tol 0.05); constant error {worst_const:.1e} (tol 1e-4)")


def test_criterion_05_exact_step_matches_brute_force():
    worst = 0.0
    worst_sum = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = rng.random((8, 8, 3)) + 0.05
        p /= p.sum(axis=2, keepdims=True)
        unary = unary_from_probs(p)
        image = RgbImage(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
        params = PairwiseParams(
            w1=float(rng.uniform(0.5, 3.0)),
            sigma_alpha=float(rng.uniform(2.0, 20.0)),
            sigma_beta=float(rng.uniform(2.0, 15.0)),
            w2=float(rng.uniform(0.3, 2.0)),
            sigma_gamma=float(rng.uniform(1.0, 5.0)),
        )
        state = init_state(unary)
        nxt = mean_field_step(state, unary, image, params, backend="exact")
        want = meanfield_step_bruteforce(state.q, unary.theta, image.data, params)
        worst = max(worst, float(np.abs(nxt.q - want).max()))
        worst_sum = max(worst_sum, float(np.abs(nxt.q.sum(axis=2) - 1.0).max()))
    # multi-iteration row sums, both backends
    rng = np.random.default_rng(99)
    p = rng.random((8, 8, 4)) + 0.05
    p /= p.sum(axis=2, keepdims=True)
    unary = unary_from_probs(p)
    image = RgbImage(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
    for backend in ("exact", "lattice"):
        state = init_state(unary)
        for _ in range(10):
            state = mean_field_step(state, unary, image, PairwiseParams(), backend=backend)
            worst_sum = max(worst_sum, float(np.abs(state.q.sum(axis=2) - 1.0).max()))
    ok = worst <= 1e-6 and worst_sum <= 1e-5
    report(5, ok, f"20 seeds: worst per-step Linf vs brute force {worst:.2e} (tol 1e-6); "
                  f"worst row-sum deviation {worst_sum:.2e} (tol 1e-5)")


def test_criterion_06_backends_agree_on_labels():
    agreements = []
    for seed in range(10):
        unary, image, _ = make_instance(suite_scene(seed, blur=2, noise_sigma=0.8))
        _, lat = run_inference(unary, image, iters=10, backend="lattice")
        _, exa = run_inference(unary, image, iters=10, backend="exact")
        agreements.append(float(np.mean(lat.labels == exa.labels)))
    ok = min(agreements) >= 0.99
    report(6, ok, f"10 seeds at 32x32 L=4: min label agreement {min(agreements):.4f} (bar 0.99)")


def test_criterion_07_degenerate_limits():
    rng = np.random.default_rng(3)
    argmax_ok = True
    for backend in ("exact", "lattice"):
        for _ in range(3):
            p = rng.random((12, 9, 4)) + 0.05
            p /= p.sum(axis=2, keepdims=True)
            unary = unary_from_probs(p)
            image = RgbImage(rng.integers(0, 256, (12, 9, 3), dtype=np.uint8))
            zero = PairwiseParams(w1=0.0, w2=0.0)
            _, labels = run_inference(unary, image, params=zero, iters=5, backend=backend)
            argmax_ok &= np.array_equal(labels.labels, np.argmin(unary.theta, axis=2))
    unary = unary_from_probs(np.array([[[0.2, 0.5, 0.3]]]))
    image = RgbImage(np.array([[[90, 10, 200]]], dtype=np.uint8))
    state = init_state(unary)
    fixed_err = 0.0
    for backend in ("exact", "lattice"):
        nxt = mean_field_step(state, unary, image, PairwiseParams(), backend=backend)
        fixed_err = max(fixed_err, float(np.abs(nxt.q - state.q).max()))
    ok = argmax_ok and fixed_err <= 1e-6
    report(7, ok, f"zero-weight inference equals unary argmax exactly: {argmax_ok}; "
                  f"1x1 step deviation {fixed_err:.2e} (tol 1e-6)")


def test_criterion_08_refinement_beats_raw_argmax():
    d_miou, d_tri = [], []
    for seed in range(10):
        unary, image, gt = make_instance(suite_scene(seed, blur=3, noise_sigma=1.5))
        raw = LabelMap(np.argmin(unary.theta, axis=2).astype(np.uint8))
        _, refined = run_inference(unary, image, iters=10, backend="exact")
        d_miou.append(mean_iou(confusion(refined, gt, 4)) - mean_iou(confusion(raw, gt, 4)))
        d_tri.append(trimap_miou(refined, gt, 4, 2) - trimap_miou(raw, gt, 4, 2))
    gain_m = float(np.mean(d_miou))
    gain_t = float(np.mean(d_tri))
    ok = gain_m >= 0.05 and gain_t >= 0.08
    report(8, ok, f"10 scenes blur=3 sigma=1.5: mean mIOU gain {gain_m:+.3f} (bar +0.05), "
                  f"mean trimap(2) gain {gain_t:+.3f} (bar +0.08)")


def test_criterion_09_grid_search_protocol(tmp_path, capsys):
    lines = []
    for seed in (0, 1):
        unary, image, gt = make_instance(suite_scene(seed, blur=2, noise_sigma=0.8))
        base = tmp_path / f"case{seed}"
        write_tensor(FeatureMap(unary.theta.astype(np.float32)), str(base) + ".dlt")
        write_ppm(image, str(base) + ".ppm")
        write_pgm(gt, str(base) + ".pgm")
        lines.append(f"{base}.dlt {base}.ppm {base}.pgm")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    rc = main(["tune", "--manifest", str(manifest), "--iters", "3", "--backend", "lattice"])
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
    assert rc == 0
    coarse = [(float(r[1]), float(r[2]), float(r[3]), float(r[4]))
              for r in rows[1:] if r[0] == "coarse"]
    scores = [c[3] for c in coarse]
    winner = coarse[int(np.argmax(scores))]  # first max in ascending lex scan order
    best = rows[-1]
    best_params = (float(best[1]), float(best[2]), float(best[3]))
    best_score = float(best[4])
    dominates = all(s <= winner[3] for s in scores)
    never_worse = best_score >= winner[3]
    kept_or_improved = best_params == winner[:3] or best_score > winner[3]
    ok = rows[0] == ["stage", "w1", "sigma_alpha", "sigma_beta", "mean_miou"] \
        and len(coarse) == 4 * 8 * 4 and best[0] == "best" \
        and dominates and never_worse and kept_or_improved
    report(9, ok, f"coarse winner {winner[:3]} score {winner[3]:.6f} dominates all "
                  f"{len(coarse)} coarse points; best {best_params} score {best_score:.6f} never worse")


def test_criterion_10_metric_oracles_and_trimap_monotonicity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        gt_arr = rng.integers(0, 4, (8, 8)).astype(np.uint8)
        pred_arr = rng.integers(0, 4, (8, 8)).astype(np.uint8)
        gt_arr[rng.random((8, 8)) < 0.05] = 255
        pred, gt = LabelMap(pred_arr), LabelMap(gt_arr)
        got = mean_iou(confusion(pred, gt, 4))
        want = mean_iou_bruteforce(confusion_bruteforce(pred_arr, gt_arr, 4))
        worst = max(worst, abs(got - want))
        for width in (1, 2, 3):
            got_t = trimap_miou(pred, gt, 4, width)
            band = trimap_band_bruteforce(gt_arr, width)
            want_t = mean_iou_bruteforce(confusion_bruteforce(pred_arr, gt_arr, 4, mask=band))
            worst = max(worst, abs(got_t - want_t))
    monotone = True
    for _ in range(20):
        gt = LabelMap(rng.integers(0, 4, (16, 16)).astype(np.uint8))
        masks = [trimap_mask(gt, w).mask for w in range(1, 7)]
        monotone &= all(bool(np.all(a <= b)) for a, b in zip(masks, masks[1:]))
    ok = worst <= 1e-9 and monotone
    report(10, ok, f"worst metric deviation from scalar oracles {worst:.2e} (tol 1e-9); "
                   f"trimap band monotone in width for 20 maps: {monotone}")


def test_criterion_11_inference_speed_gate():
    unary, image, _ = make_instance(bench_scene(500, 375, 21, 0), num_labels=21)
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        run_inference(unary, image, iters=10, backend="lattice")
        best = min(best, time.perf_counter() - start)
    ok = best <= 3.0
    target = "meets" if best <= 1.0 else "misses"
    report(11, ok, f"500x375 L=21 10-iteration lattice inference: {best:.2f}s "
                   f"(hard gate 3.0s; {target} the 1.0s target)")


def test_criterion_12_thread_count_never_changes_output(tmp_path, capsys):
    spec = tmp_path / "scene.txt"
    spec.write_text(
        "height = 32\nwidth = 32\nbackground = 25,25,25\nblur = 1\n"
        "noise_sigma = 0.6\nseed = 4\n"
        "rect = label:1 top:5 left:4 height:13 width:14 color:205,60,55 jitter:3.0\n"
        "disk = label:2 row:21.0 col:22.0 radius:6.5 color:65,70,210 jitter:3.0\n"
    )
    per_command: dict[str, list] = {}
    for threads in ("1", "8"):
        work = tmp_path / f"t{threads}"
        work.mkdir()
        image, gt, unary = work / "img.ppm", work / "gt.pgm", work / "unary.dlt"
        assert main(["synth", "--spec", str(spec), "--out-image", str(image),
                     "--out-gt", str(gt), "--out-unary", str(unary),
                     "--threads", threads]) == 0
        per_command.setdefault("synth", []).append(
            image.read_bytes() + gt.read_bytes() + unary.read_bytes()
        )
        pred, q = work / "pred.pgm", work / "q.dlt"
        assert main(["refine", "--unary", str(unary), "--image", str(image),
                     "--out", str(pred), "--q-out", str(q), "--factor", "1",
                     "--backend", "lattice", "--threads", threads]) == 0
        per_command.setdefault("refine", []).append(pred.read_bytes() + q.read_bytes())
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred), "--gt", str(gt), "--trimap", "2",
                     "--threads", threads]) == 0
        per_command.setdefault("eval", []).append(capsys.readouterr().out)
        # two more cases at other sizes, so tune's stages run several units
        lines = [f"{unary} {image} {gt}"]
        for size in ("36x44", "44x36"):
            height, width = size.split("x")
            sized = work / f"scene{size}.txt"
            sized.write_text(spec.read_text().replace("height = 32", f"height = {height}")
                             .replace("width = 32", f"width = {width}"))
            files = [work / f"{name}{size}.{ext}" for name, ext in
                     (("unary", "dlt"), ("img", "ppm"), ("gt", "pgm"))]
            assert main(["synth", "--spec", str(sized), "--out-unary", str(files[0]),
                         "--out-image", str(files[1]), "--out-gt", str(files[2])]) == 0
            lines.append(" ".join(map(str, files)))
        manifest = work / "manifest.txt"
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["tune", "--manifest", str(manifest), "--iters", "2",
                     "--backend", "lattice", "--w1-values", "2,3",
                     "--sigma-alpha-values", "30,60", "--sigma-beta-values", "4",
                     "--threads", threads]) == 0
        per_command.setdefault("tune", []).append(capsys.readouterr().out)
        assert main(["bench", "--height", "64", "--width", "48", "--labels", "4",
                     "--iters", "3", "--threads", threads]) == 0
        stages = [line.split(",")[0] for line in capsys.readouterr().out.strip().splitlines()]
        per_command.setdefault("bench", []).append(stages)
    mismatched = [name for name, (a, b) in per_command.items() if a != b]
    report(12, not mismatched,
           "synth/refine file bytes, eval/tune stdout, bench stage structure all "
           "identical for --threads 1 vs 8"
           + (f"; mismatches {mismatched}" if mismatched else ""))


def paper_regime_case(seed: int) -> tuple:
    """A 192x256 bench scene whose coarse unaries carry no logit noise,
    upsampled from factor 8 as `refine --factor 8` does: the paper's regime,
    where the scores are right inside objects and blurred across their
    boundaries."""
    spec = dataclasses.replace(bench_scene(192, 256, 21, seed), noise_sigma=0.0)
    coarse, image, gt = make_instance(spec, num_labels=21, factor=8)
    fine = upsample_bilinear(FeatureMap(coarse.theta.astype(np.float32)), 8)
    return UnaryField(fine.data), image, gt


def pooled_miou(counts: list) -> float:
    """VOC's mIOU: confusion counts pooled over the images, IOU averaged
    over the classes present in the truth."""
    total = sum(counts)
    return float(per_class_iou(ConfusionMatrix(total))[total.sum(axis=1) > 0].mean())


def test_criterion_13_crf_gain_is_largest_at_boundaries():
    bands = (None, 1, 2, 4, 8, 16)  # None: every pixel
    counts = {band: ([], []) for band in bands}
    for seed in range(1601, 1605):
        unary, image, gt = paper_regime_case(seed)
        raw = LabelMap(np.argmin(unary.theta, axis=2).astype(np.uint8))
        _, refined = run_inference(unary, image, backend="lattice")
        for band in bands:
            mask = None if band is None else trimap_mask(gt, band).mask
            for pooled, labels in zip(counts[band], (raw, refined)):
                pooled.append(confusion(labels, gt, 21, mask).counts)
    scores = {band: (pooled_miou(r), pooled_miou(c)) for band, (r, c) in counts.items()}
    gain = {band: c - r for band, (r, c) in scores.items()}
    ok = all(g > 0 for g in gain.values()) and gain[1] > gain[None]
    detail = ", ".join(f"{'all' if band is None else f'band {band}'} {r:.3f} -> {c:.3f}"
                       for band, (r, c) in scores.items())
    report(13, ok, f"4 noise-free factor-8 192x256 scenes, pooled mIOU raw -> CRF: {detail} "
                   f"(CRF must gain everywhere, more in band 1 than overall)")
