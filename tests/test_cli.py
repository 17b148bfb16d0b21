"""Exercises every subcommand through main(), including exit codes."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from denseseg import cli, densecrf, synth
from denseseg.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, bench_scene, main
from denseseg.core import (
    FeatureMap,
    LabelMap,
    RgbImage,
    read_pgm,
    read_tensor,
    write_pgm,
    write_ppm,
    write_tensor,
)
from denseseg.densecrf import (
    BACKENDS,
    DEFAULT_ITERATIONS,
    GridPoint,
    PairwiseFilters,
    PairwiseParams,
    SearchRanges,
    labels_from_state,
    run_inference,
)
from denseseg.metrics import confusion, mean_iou
from denseseg.synth import make_instance

from oracles import meanfield_every_update

SCENE = """\
height = 32
width = 32
background = 40,40,40
blur = 1
noise_sigma = 0.6
seed = 3
rect = label:1 top:4 left:4 height:12 width:14 color:200,60,60 jitter:3.0
disk = label:2 row:22 col:22 radius:7 color:60,200,60 jitter:3.0
"""
# a side no allocation can cover: a scene of it is refused outright
HUGE = 2**24


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def synth_files(tmp_path, factor=1, seed=None, scene=SCENE):
    tmp_path.mkdir(parents=True, exist_ok=True)
    spec = tmp_path / "scene.txt"
    spec.write_text(scene)
    paths = {
        "spec": spec,
        "image": tmp_path / "img.ppm",
        "gt": tmp_path / "gt.pgm",
        "unary": tmp_path / "unary.dlt",
    }
    argv = [
        "synth", "--spec", spec,
        "--out-image", paths["image"],
        "--out-gt", paths["gt"],
        "--out-unary", paths["unary"],
        "--factor", factor,
    ]
    if seed is not None:
        argv += ["--seed", seed]
    assert run_cli(*argv) == EXIT_OK
    return paths


def parse_csv(text: str) -> list:
    return [line.split(",") for line in text.strip().splitlines()]


def refuse(*args, **kwargs):
    raise AssertionError("called after a check that should have failed first")


class TestRefine:
    def test_zero_iterations_is_unary_argmax(self, tmp_path):
        paths = synth_files(tmp_path)
        out = tmp_path / "pred.pgm"
        rc = run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                     "--out", out, "--factor", 1, "--iters", 0)
        assert rc == EXIT_OK
        theta = read_tensor(paths["unary"]).data
        assert np.array_equal(read_pgm(out).labels, np.argmin(theta, axis=2))

    def test_zero_weights_match_zero_iterations(self, tmp_path):
        paths = synth_files(tmp_path)
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                "--out", a, "--factor", 1, "--iters", 0)
        run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                "--out", b, "--factor", 1, "--w1", 0, "--w2", 0)
        assert a.read_bytes() == b.read_bytes()

    def test_upsampling_chain(self, tmp_path):
        paths = synth_files(tmp_path, factor=4)
        out = tmp_path / "pred.pgm"
        q_out = tmp_path / "q.dlt"
        rc = run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                     "--out", out, "--q-out", q_out, "--factor", 4)
        assert rc == EXIT_OK
        pred = read_pgm(out)
        assert (pred.height, pred.width) == (32, 32)
        q = read_tensor(q_out).data
        assert q.shape == (32, 32, 3)
        np.testing.assert_allclose(q.sum(axis=2), 1.0, atol=1e-4)

    def test_refinement_improves_noisy_scene(self, tmp_path):
        from denseseg.metrics import confusion, mean_iou
        paths = synth_files(tmp_path)
        raw = tmp_path / "raw.pgm"
        ref = tmp_path / "ref.pgm"
        run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                "--out", raw, "--factor", 1, "--iters", 0)
        run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                "--out", ref, "--factor", 1)
        gt = read_pgm(paths["gt"])
        before = mean_iou(confusion(read_pgm(raw), gt, 3))
        after = mean_iou(confusion(read_pgm(ref), gt, 3))
        assert after > before

    def test_factor_mismatch_exits_2(self, tmp_path, capsys):
        paths = synth_files(tmp_path)
        rc = run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                     "--out", tmp_path / "x.pgm", "--factor", 2)
        assert rc == EXIT_VALIDATION
        assert "--factor" in capsys.readouterr().err

    @pytest.mark.parametrize("factor", [2, 10**6])
    def test_factor_checked_before_upsampling(self, tmp_path, capsys, monkeypatch, factor):
        """A factor that misses the image size exits 2 before any upsampling:
        a large one would otherwise allocate its whole upsampled unary."""
        def refuse(*args):
            raise AssertionError("upsampled before the size check")

        monkeypatch.setattr(cli, "upsample_bilinear", refuse)
        paths = synth_files(tmp_path)
        rc = run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                     "--out", tmp_path / "x.pgm", "--factor", factor)
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--factor" in err and "Traceback" not in err

    @pytest.mark.parametrize("factor", [0, -3])
    def test_non_positive_factor_exits_2(self, tmp_path, capsys, factor):
        paths = synth_files(tmp_path)
        rc = run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                     "--out", tmp_path / "x.pgm", "--factor", factor)
        assert rc == EXIT_VALIDATION
        assert "positive integer" in capsys.readouterr().err

    def test_exact_backend_capped_at_4096_pixels(self, tmp_path, capsys):
        """65x64 exceeds the exact backend's cap and exits 2 naming the
        lattice backend; 64x64 still runs, and the default is lattice."""
        for height, expected in ((65, EXIT_VALIDATION), (64, EXIT_OK)):
            scene = SCENE.replace("height = 32", f"height = {height}").replace(
                "width = 32", "width = 64")
            paths = synth_files(tmp_path / str(height), scene=scene)
            argv = ["refine", "--unary", paths["unary"], "--image", paths["image"],
                    "--out", tmp_path / "x.pgm", "--factor", 1, "--iters", 1]
            capsys.readouterr()
            assert run_cli(*argv, "--backend", "exact") == expected
            err = capsys.readouterr().err
            assert ("--backend lattice" in err) == (expected == EXIT_VALIDATION)
            assert "Traceback" not in err
            assert run_cli(*argv) == EXIT_OK

    def test_tiny_kernel_width_exits_2(self, tmp_path, capsys):
        """A color width of 1e-20 puts the features out of the lattice's
        exact key range: exit 2 with a message, no traceback."""
        paths = synth_files(tmp_path)
        rc = run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                     "--out", tmp_path / "x.pgm", "--factor", 1, "--sigma-beta", "1e-20")
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "wider kernels" in err and "Traceback" not in err

    @pytest.mark.parametrize("backend, side, weight, expected", [
        ("lattice", 64, "1e36", EXIT_VALIDATION),
        ("exact", 16, "1e308", EXIT_VALIDATION),
        ("lattice", 64, "1e6", EXIT_OK),
        ("exact", 16, "1e6", EXIT_OK),
    ])
    def test_pairwise_weights_capped(self, tmp_path, capsys, backend, side, weight, expected):
        """Weights above MAX_WEIGHT (1e6) exit 2 naming w1; at the cap the
        run completes with no RuntimeWarning, which the suite turns into an
        error."""
        scene = (f"height = {side}\nwidth = {side}\nseed = 3\nnoise_sigma = 0.6\n"
                 "rect = label:1 top:2 left:3 height:9 width:8 color:200,60,60 jitter:3.0\n")
        paths = synth_files(tmp_path, scene=scene)
        rc = run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                     "--out", tmp_path / "x.pgm", "--factor", 1, "--iters", 2,
                     "--backend", backend, "--w1", weight, "--w2", weight)
        assert rc == expected
        err = capsys.readouterr().err
        assert ("w1 must be in [0, 1000000.0]" in err) == (expected == EXIT_VALIDATION)
        assert "Traceback" not in err

    def test_ignore_label_never_written(self, tmp_path, capsys, monkeypatch):
        """A 256-label unary whose top half prefers label 255, the ignore
        id, is refused before inference: refine and tune exit 2 and write no
        label map."""
        def no_inference(*args, **kwargs):
            raise AssertionError("inference ran on a unary the label map cannot hold")

        monkeypatch.setattr(densecrf, "_infer", no_inference)
        theta = np.ones((4, 4, 256), np.float32)
        theta[:2, :, 255] = 0.0
        theta[2:, :, 1] = 0.0
        write_tensor(FeatureMap(theta), str(tmp_path / "u.dlt"))
        write_ppm(RgbImage(np.zeros((4, 4, 3), np.uint8)), str(tmp_path / "i.ppm"))
        write_pgm(LabelMap(np.ones((4, 4), np.uint8)), str(tmp_path / "gt.pgm"))
        out = tmp_path / "pred.pgm"
        rc = run_cli("refine", "--unary", tmp_path / "u.dlt", "--image", tmp_path / "i.ppm",
                     "--out", out, "--factor", 1)
        assert rc == EXIT_VALIDATION
        assert "255 is the ignore label" in capsys.readouterr().err
        assert not out.exists()
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"{tmp_path / 'u.dlt'} {tmp_path / 'i.ppm'} {tmp_path / 'gt.pgm'}\n")
        rc = run_cli("tune", "--manifest", manifest, "--iters", 1, "--w1-values", 3,
                     "--sigma-alpha-values", 30, "--sigma-beta-values", 3)
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "255 is the ignore label" in captured.err and captured.out == ""

    def test_missing_input_exits_3(self, tmp_path):
        paths = synth_files(tmp_path)
        rc = run_cli("refine", "--unary", tmp_path / "nope.dlt",
                     "--image", paths["image"], "--out", tmp_path / "x.pgm")
        assert rc == EXIT_IO

    def test_corrupt_tensor_exits_3(self, tmp_path):
        paths = synth_files(tmp_path)
        bad = tmp_path / "bad.dlt"
        bad.write_bytes(b"not a tensor")
        rc = run_cli("refine", "--unary", bad, "--image", paths["image"],
                     "--out", tmp_path / "x.pgm", "--factor", 1)
        assert rc == EXIT_IO


class TestEval:
    def test_identical_maps_score_one(self, tmp_path, capsys):
        paths = synth_files(tmp_path)
        rc = run_cli("eval", "--pred", paths["gt"], "--gt", paths["gt"])
        assert rc == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0] == ["class_id", "iou"]
        assert rows[1:4] == [["0", "1.000000"], ["1", "1.000000"], ["2", "1.000000"]]
        assert rows[4] == ["mean", "1.000000"]

    def test_trimap_rows_follow_requested_widths(self, tmp_path, capsys):
        paths = synth_files(tmp_path)
        rc = run_cli("eval", "--pred", paths["gt"], "--gt", paths["gt"],
                     "--trimap", 2, "--trimap", 10)
        assert rc == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[-2][0] == "trimap_2"
        assert rows[-1][0] == "trimap_10"

    def test_trimap_width_past_int32_exits_0(self, tmp_path, capsys):
        """A width of 3e9 once overflowed scipy's dilation count into a
        traceback; the band is then the whole image."""
        paths = synth_files(tmp_path)
        rc = run_cli("eval", "--pred", paths["gt"], "--gt", paths["gt"],
                     "--trimap", 3000000000)
        assert rc == EXIT_OK
        assert parse_csv(capsys.readouterr().out)[-1] == ["trimap_3000000000", "1.000000"]

    def test_eroded_prediction_band_ordering(self, tmp_path, capsys):
        # errors hug the boundary, so the narrow band scores worse
        gt = np.zeros((32, 32), np.uint8)
        gt[:, 16:] = 1
        pred = np.zeros((32, 32), np.uint8)
        pred[:, 18:] = 1
        write_pgm(LabelMap(gt), str(tmp_path / "gt.pgm"))
        write_pgm(LabelMap(pred), str(tmp_path / "pred.pgm"))
        rc = run_cli("eval", "--pred", tmp_path / "pred.pgm",
                     "--gt", tmp_path / "gt.pgm", "--trimap", 2, "--trimap", 10)
        assert rc == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        narrow = float(rows[-2][1])
        wide = float(rows[-1][1])
        assert narrow <= wide

    def test_trimap_without_boundary_reports_nan(self, tmp_path, capsys):
        """A constant truth map has no band to score: its trimap row reads
        nan, as an absent class does, and the rows before it still print."""
        write_pgm(LabelMap(np.ones((6, 7), np.uint8)), str(tmp_path / "gt.pgm"))
        rc = run_cli("eval", "--pred", tmp_path / "gt.pgm", "--gt", tmp_path / "gt.pgm",
                     "--trimap", 3)
        assert rc == EXIT_OK
        assert parse_csv(capsys.readouterr().out) == [
            ["class_id", "iou"], ["0", "nan"], ["1", "1.000000"], ["mean", "1.000000"],
            ["trimap_3", "nan"]]

    def test_absent_classes_report_nan(self, tmp_path, capsys):
        paths = synth_files(tmp_path)
        rc = run_cli("eval", "--pred", paths["gt"], "--gt", paths["gt"],
                     "--classes", 5)
        assert rc == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[4] == ["3", "nan"]
        assert rows[5] == ["4", "nan"]

    def test_size_mismatch_exits_2(self, tmp_path):
        write_pgm(LabelMap(np.zeros((4, 4), np.uint8)), str(tmp_path / "a.pgm"))
        write_pgm(LabelMap(np.zeros((4, 5), np.uint8)), str(tmp_path / "b.pgm"))
        rc = run_cli("eval", "--pred", tmp_path / "a.pgm", "--gt", tmp_path / "b.pgm")
        assert rc == EXIT_VALIDATION

    def test_missing_gt_exits_3(self, tmp_path):
        paths = synth_files(tmp_path)
        rc = run_cli("eval", "--pred", paths["gt"], "--gt", tmp_path / "nope.pgm")
        assert rc == EXIT_IO


class TestTune:
    def test_single_point_ranges_echoed(self, tmp_path, capsys):
        paths = synth_files(tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            f"# one case\n{paths['unary']} {paths['image']} {paths['gt']}\n"
        )
        rc = run_cli("tune", "--manifest", manifest, "--iters", 2,
                     "--backend", "exact", "--w1-values", "2.5",
                     "--sigma-alpha-values", "45", "--sigma-beta-values", "4")
        assert rc == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0] == ["stage", "w1", "sigma_alpha", "sigma_beta", "mean_miou"]
        assert rows[1][:4] == ["coarse", "2.5", "45.0", "4.0"]
        assert rows[-1][:4] == ["best", "2.5", "45.0", "4.0"]

    def test_best_never_below_coarse(self, tmp_path, capsys):
        paths = synth_files(tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{paths['unary']} {paths['image']} {paths['gt']}\n")
        rc = run_cli("tune", "--manifest", manifest, "--iters", 2,
                     "--backend", "lattice", "--w1-values", "1,3",
                     "--sigma-alpha-values", "30", "--sigma-beta-values", "4,6")
        assert rc == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        coarse = [float(r[4]) for r in rows[1:] if r[0] == "coarse"]
        best = float(rows[-1][4])
        assert best >= max(coarse)

    def test_weight_above_cap_exits_2(self, tmp_path, capsys):
        paths = synth_files(tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{paths['unary']} {paths['image']} {paths['gt']}\n")
        rc = run_cli("tune", "--manifest", manifest, "--iters", 1,
                     "--w1-values", "3,2e6", "--sigma-alpha-values", "30",
                     "--sigma-beta-values", "4")
        assert rc == EXIT_VALIDATION
        assert "w1 must be in" in capsys.readouterr().err

    def test_empty_manifest_exits_2(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# nothing here\n\n")
        assert run_cli("tune", "--manifest", manifest) == EXIT_VALIDATION

    def test_malformed_manifest_exits_2(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("two fields\n")
        assert run_cli("tune", "--manifest", manifest) == EXIT_VALIDATION

    def test_manifest_with_missing_file_exits_3(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("a.dlt b.ppm c.pgm\n")
        assert run_cli("tune", "--manifest", manifest) == EXIT_IO

    def test_refine_candidates_stay_finite(self, tmp_path, capsys):
        """Half a coarse step past 1.7e308 overflows to inf; the refine stage
        drops that candidate as it drops sigmas <= 0."""
        manifest = write_manifest(tmp_path, sizes=((48, 64),))
        rc = run_cli("tune", "--manifest", manifest, "--iters", 1, "--w1-values", "3",
                     "--sigma-alpha-values", "1,1.7e308", "--sigma-beta-values", "4")
        assert rc == EXIT_OK, capsys.readouterr().err
        rows = parse_csv(capsys.readouterr().out)
        assert "refine" in [r[0] for r in rows]
        assert all(0 < float(r[2]) < np.inf for r in rows[1:])

    def test_unset_axes_keep_the_coarse_grid(self, tmp_path, monkeypatch, capsys):
        """Only the axes given on the command line replace SearchRanges'
        own defaults."""
        manifest = write_manifest(tmp_path)
        seen = []

        def fake_search(cases, ranges, **kwargs):
            seen.append(ranges)
            return PairwiseParams(), [GridPoint("coarse", PairwiseParams(), 1.0)]

        monkeypatch.setattr(cli, "grid_search", fake_search)
        assert run_cli("tune", "--manifest", manifest, "--sigma-beta-values", "2,7") == EXIT_OK
        assert seen == [SearchRanges(sigma_beta=(2.0, 7.0))]
        assert seen[0].w1 == SearchRanges().w1
        assert seen[0].sigma_alpha == SearchRanges().sigma_alpha


class TestSynth:
    def test_fixed_seed_reproduces_bytes(self, tmp_path):
        a = synth_files(tmp_path / "a")
        b = synth_files(tmp_path / "b")
        for key in ("image", "gt", "unary"):
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        a = synth_files(tmp_path / "a")
        b = synth_files(tmp_path / "b", seed=99)
        assert a["unary"].read_bytes() != b["unary"].read_bytes()

    def test_empty_scene_uniform_outputs(self, tmp_path, capsys):
        scene = "height = 8\nwidth = 8\nbackground = 7,9,11\n"
        paths = synth_files(tmp_path, scene=scene)
        image = np.fromfile(paths["image"], dtype=np.uint8)[-192:]
        assert np.array_equal(image.reshape(-1, 3), np.tile([7, 9, 11], (64, 1)))
        assert not read_pgm(paths["gt"]).labels.any()

    def test_clean_chain_scores_perfectly(self, tmp_path, capsys):
        scene = SCENE.replace("blur = 1", "blur = 0").replace(
            "noise_sigma = 0.6", "noise_sigma = 0"
        )
        paths = synth_files(tmp_path, scene=scene)
        out = tmp_path / "pred.pgm"
        run_cli("refine", "--unary", paths["unary"], "--image", paths["image"],
                "--out", out, "--factor", 1, "--iters", 0)
        rc = run_cli("eval", "--pred", out, "--gt", paths["gt"])
        assert rc == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[-1] == ["mean", "1.000000"]

    def test_bad_spec_exits_2(self, tmp_path):
        spec = tmp_path / "scene.txt"
        spec.write_text("height = 8\nwidth = 8\nblur = -3\n")
        rc = run_cli("synth", "--spec", spec, "--out-gt", tmp_path / "gt.pgm")
        assert rc == EXIT_VALIDATION

    def test_missing_spec_exits_3(self, tmp_path):
        rc = run_cli("synth", "--spec", tmp_path / "none.txt",
                     "--out-gt", tmp_path / "gt.pgm")
        assert rc == EXIT_IO

    def test_untileable_factor_exits_2(self, tmp_path):
        spec = tmp_path / "scene.txt"
        spec.write_text("height = 9\nwidth = 9\n")
        rc = run_cli("synth", "--spec", spec, "--out-gt", tmp_path / "gt.pgm",
                     "--factor", 2)
        assert rc == EXIT_VALIDATION


class TestBench:
    def test_single_pixel_completes(self, capsys):
        rc = run_cli("bench", "--height", 1, "--width", 1, "--labels", 2,
                     "--iters", 1)
        assert rc == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        assert rows[0] == ["stage", "seconds"]
        assert [r[0] for r in rows[1:]] == [
            "build", "init", "splat", "blur", "slice", "update", "finish", "total",
        ]
        assert all(float(r[1]) >= 0.0 for r in rows[1:])

    def test_stage_times_sum_below_total(self, capsys):
        rc = run_cli("bench", "--height", 64, "--width", 48, "--labels", 4,
                     "--iters", 3)
        assert rc == EXIT_OK
        rows = parse_csv(capsys.readouterr().out)
        times = {r[0]: float(r[1]) for r in rows[1:]}
        assert sum(v for k, v in times.items() if k != "total") <= times["total"]

    @pytest.mark.parametrize("labels", [1, 0, -3])
    def test_label_count_below_two_exits_2(self, capsys, labels):
        rc = run_cli("bench", "--height", 16, "--width", 16, "--labels", labels,
                     "--iters", 1)
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"--labels must be at least 2, got {labels}" in captured.err
        assert captured.out == ""

    def test_near_linear_scaling_in_pixels(self):
        def best_time(height):
            spec = bench_scene(height, 96, 8, 0)
            unary, image, _ = make_instance(spec, num_labels=8)
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                run_inference(unary, image, iters=10, backend="lattice")
                best = min(best, time.perf_counter() - start)
            return best

        assert best_time(256) / best_time(128) < 2.6


class TestSeedFlag:
    """Only the subcommands that draw randomness take --seed."""

    def test_synth_and_bench_accept_it(self, tmp_path, capsys):
        synth_files(tmp_path, seed=5)
        assert run_cli("bench", "--height", 1, "--width", 1, "--labels", 2,
                       "--iters", 1, "--seed", 5) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["refine", "--unary", "u.dlt", "--image", "i.ppm", "--out", "o.pgm"],
        ["eval", "--pred", "p.pgm", "--gt", "g.pgm"],
        ["tune", "--manifest", "m.txt"],
    ])
    def test_other_commands_reject_it(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--seed", 5)
        assert exc.value.code == EXIT_VALIDATION
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("where,message", [
        ("flag", "seed must be in [0, inf], got -1"),
        ("scene", "line 6: bad value for 'seed': seed must be in [0, inf], got -1"),
        ("bench", "--seed must be at least 0, got -1"),
    ])
    def test_negative_seed_exits_2_naming_the_seed(self, tmp_path, capsys, monkeypatch,
                                                   where, message):
        """numpy's seeding used to fail late with an unnamed "expected
        non-negative integer"; now nothing is rendered."""
        monkeypatch.setattr(synth, "render_scene", refuse)
        spec = tmp_path / "scene.txt"
        spec.write_text(SCENE.replace("seed = 3", "seed = -1") if where == "scene" else SCENE)
        if where == "bench":
            argv = ["bench", "--height", 16, "--width", 16, "--labels", 3, "--seed", -1]
        else:
            argv = ["synth", "--spec", spec, "--out-gt", tmp_path / "gt.pgm"]
            argv += ["--seed", -1] if where == "flag" else []
        assert run_cli(*argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"denseseg {argv[0]}: {message}\n"
        assert captured.out == ""


class TestOversizedRequests:
    """A request too large to allocate exits 2 with numpy's message, and a
    label count past the label maps' range exits 2 before anything is
    allocated. Every side is 2^24 or more, so each failing allocation is
    refused outright and no memory is touched."""

    def test_huge_scene_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "scene.txt"
        spec.write_text(f"height = {HUGE}\nwidth = {HUGE}\n")
        assert run_cli("synth", "--spec", spec, "--out-gt", tmp_path / "gt.pgm") == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("denseseg synth: Unable to allocate")
        assert not (tmp_path / "gt.pgm").exists()

    def test_huge_bench_exits_2(self, capsys):
        rc = run_cli("bench", "--height", HUGE, "--width", HUGE, "--iters", 1)
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("denseseg bench: Unable to allocate")
        assert captured.out == ""

    def test_bare_memory_error_exits_2(self, monkeypatch, capsys):
        def out_of_memory(args):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "eval", out_of_memory)
        assert run_cli("eval", "--pred", "p.pgm", "--gt", "g.pgm") == EXIT_VALIDATION
        assert capsys.readouterr().err == "denseseg eval: out of memory\n"

    @pytest.mark.parametrize("classes", [256, HUGE])
    def test_eval_classes_checked_before_counting(self, tmp_path, monkeypatch, capsys, classes):
        paths = synth_files(tmp_path)
        monkeypatch.setattr(cli, "confusion", refuse)
        rc = run_cli("eval", "--pred", paths["gt"], "--gt", paths["gt"], "--classes", classes)
        assert rc == EXIT_VALIDATION
        assert "label maps hold at most 255 classes" in capsys.readouterr().err

    def test_eval_accepts_255_classes(self, tmp_path, capsys):
        paths = synth_files(tmp_path)
        assert run_cli("eval", "--pred", paths["gt"], "--gt", paths["gt"],
                       "--classes", 255) == EXIT_OK
        assert parse_csv(capsys.readouterr().out)[255] == ["254", "nan"]

    @pytest.mark.parametrize("labels", [256, HUGE])
    @pytest.mark.parametrize("command", ["synth", "bench"])
    def test_label_count_checked_before_rendering(self, tmp_path, monkeypatch, capsys,
                                                  command, labels):
        spec = tmp_path / "scene.txt"
        spec.write_text(SCENE)
        monkeypatch.setattr(synth, "render_scene", refuse)
        argv = (["synth", "--spec", spec] if command == "synth"
                else ["bench", "--height", 16, "--width", 16, "--iters", 1])
        assert run_cli(*argv, "--labels", labels) == EXIT_VALIDATION
        assert "label maps hold at most 255 classes" in capsys.readouterr().err


class TestFlagDefaults:
    """The CLI's CRF defaults are the library's."""

    def test_refine_defaults(self):
        args = cli.build_parser().parse_args(["refine", "--unary", "u", "--image", "i",
                                              "--out", "o"])
        assert cli._params_from_args(args) == PairwiseParams()
        assert args.iters == DEFAULT_ITERATIONS

    @pytest.mark.parametrize("argv", [["tune", "--manifest", "m"], ["bench"]])
    def test_iteration_default(self, argv):
        assert cli.build_parser().parse_args(argv).iters == DEFAULT_ITERATIONS

    @pytest.mark.parametrize("command", ["refine", "tune"])
    def test_backend_choices(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        assert "--backend {" + ",".join(BACKENDS) + "}" in capsys.readouterr().out


def sized_scene(height, width):
    return SCENE.replace("height = 32", f"height = {height}").replace("width = 32", f"width = {width}")


def write_manifest(tmp_path, sizes=((32, 32),)):
    """A manifest of one synthetic case per (height, width)."""
    lines = []
    for height, width in sizes:
        paths = synth_files(tmp_path / f"case{height}x{width}", scene=sized_scene(height, width))
        lines.append(f"{paths['unary']} {paths['image']} {paths['gt']}")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


class TestThreadsFlag:
    """--threads sizes tune's pool of (sigma pair, case) units; every
    subcommand refuses counts below 1."""

    @pytest.mark.parametrize("threads", [0, -5])
    @pytest.mark.parametrize("argv", [
        ["refine", "--unary", "u.dlt", "--image", "i.ppm", "--out", "o.pgm"],
        ["eval", "--pred", "p.pgm", "--gt", "g.pgm"],
        ["tune", "--manifest", "m.txt"],
        ["synth", "--spec", "s.txt"],
        ["bench", "--height", 1, "--width", 1, "--labels", 2, "--iters", 1],
    ])
    def test_below_one_exits_2(self, argv, threads, capsys):
        assert run_cli(*argv, "--threads", threads) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"--threads must be at least 1, got {threads}" in err

    def test_huge_count_on_one_unit_grid(self, tmp_path, capsys):
        """One case and one point make one unit per stage, so the pool
        starts one worker whatever the count."""
        manifest = write_manifest(tmp_path)
        outputs = []
        for threads in (1, 10**9):
            before = threading.active_count()
            rc = run_cli("tune", "--manifest", manifest, "--iters", 1, "--w1-values", "3",
                         "--sigma-alpha-values", "30", "--sigma-beta-values", "4",
                         "--threads", threads)
            assert rc == EXIT_OK
            assert threading.active_count() == before
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_failing_unit_exits_as_serial_run_and_joins(self, tmp_path, capsys):
        """Colour widths of 1e-30 fail every unit's lattice build: the pooled
        run exits with the serial run's message and leaves no worker."""
        manifest = write_manifest(tmp_path, sizes=((32, 32), (36, 44)))
        errors = []
        for threads in (1, 2):
            before = threading.active_count()
            rc = run_cli("tune", "--manifest", manifest, "--iters", 1,
                         "--sigma-beta-values", "1e-30", "--threads", threads)
            assert rc == EXIT_VALIDATION
            assert threading.active_count() == before
            errors.append(capsys.readouterr().err)
        assert "use wider kernels" in errors[0]
        assert errors[0] == errors[1]


def test_lattice_refine_leaves_scipy_spatial_unimported(tmp_path):
    """The lattice path computes its kernel blocks without scipy.spatial,
    whose import costs a fresh process about 0.1 s and 10 MB."""
    paths = synth_files(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["refine", "--unary", str(paths["unary"]), "--image", str(paths["image"]),
            "--out", str(tmp_path / "pred.pgm"), "--factor", "1", "--backend", "lattice"]
    code = ("import sys; from denseseg.cli import main; "
            f"assert main({argv!r}) == 0; print('scipy.spatial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestDeterminismAcrossThreads:
    def test_refine_outputs_bit_identical(self, tmp_path):
        paths = synth_files(tmp_path)
        outs = {}
        for threads in (1, 8):
            out = tmp_path / f"pred{threads}.pgm"
            q_out = tmp_path / f"q{threads}.dlt"
            rc = run_cli("refine", "--unary", paths["unary"],
                         "--image", paths["image"], "--out", out,
                         "--q-out", q_out, "--factor", 1,
                         "--backend", "lattice", "--threads", threads)
            assert rc == EXIT_OK
            outs[threads] = out.read_bytes() + q_out.read_bytes()
        assert outs[1] == outs[8]

    def test_tune_stdout_bit_identical(self, tmp_path, capsys):
        """Three image sizes and two sigma_alpha values give every stage
        several units, so --threads 8 runs them concurrently."""
        manifest = write_manifest(tmp_path, sizes=((32, 32), (36, 44), (44, 36)))
        outputs = []
        for threads in (1, 8):
            rc = run_cli("tune", "--manifest", manifest, "--iters", 2,
                         "--backend", "lattice", "--w1-values", "2,3",
                         "--sigma-alpha-values", "30,60",
                         "--sigma-beta-values", "4", "--threads", threads)
            assert rc == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_tune_stdout_with_fixed_point_stops(self, tmp_path, capsys, monkeypatch):
        """At 10 updates the cases' w1 columns first return their input at
        different updates, so batched runs stop early. --threads 2 prints
        the bytes --threads 1 does, and every score is that of running all
        10 updates."""
        manifest = write_manifest(tmp_path, sizes=((32, 32), (36, 44)))
        runs, updates = [], []
        infer, update = densecrf._infer, densecrf._update
        monkeypatch.setattr(densecrf, "_infer", lambda *args: runs.append(1) or infer(*args))
        monkeypatch.setattr(densecrf, "_update",
                            lambda *args: updates.append(1) or update(*args))
        outputs = []
        for threads in (1, 2):
            runs.clear()
            updates.clear()
            rc = run_cli("tune", "--manifest", manifest, "--iters", 10,
                         "--backend", "lattice", "--w1-values", "0,1,4",
                         "--sigma-alpha-values", "30,60",
                         "--sigma-beta-values", "4", "--threads", threads)
            assert rc == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(updates) < 10 * len(runs)  # each case's w1 batch is one lattice run
        cases = cli._read_manifest(str(manifest))
        for stage, w1, sigma_alpha, sigma_beta, score in parse_csv(outputs[0])[1:-1]:
            params = PairwiseParams(w1=float(w1), sigma_alpha=float(sigma_alpha),
                                    sigma_beta=float(sigma_beta))
            scores = []
            for unary, image, gt in cases:
                filters = PairwiseFilters(image, params, "lattice")
                state, _ = meanfield_every_update(unary, image, params, "lattice", filters, 10)
                scores.append(mean_iou(confusion(labels_from_state(state), gt, unary.labels)))
            assert score == cli._fmt(sum(scores) / len(scores)), (stage, w1, sigma_alpha)


def test_module_entry_point_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "denseseg.cli", "bench", "--height", "1",
         "--width", "1", "--labels", "2", "--iters", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("stage,seconds")
