"""The benchmark in perfbench/ still drives the program through its public API.

perfbench/ calls mean_field_step(..., filters=, threads=, timer=),
PairwiseFilters(image, params, "lattice") wrapped in a stand-in that forwards
only require/filter_bilateral/filter_spatial, and
PermutohedralLattice(feats).num_vertices, and its deeplab_front replay calls
atrous_conv_2d_holes(..., padding=) and atrous_conv_2d_subsampled directly.
A traced tiny run of each workload exercises all of them and checks every
output it produces; an untraced tiny run of every workload covers the mode
that measures the end-to-end metrics.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_tiny(workload: str, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--size", "tiny", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout + proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", ["voc_refine", "tune_sweep", "deeplab_front"])
def test_traced_tiny_run_is_correct(workload):
    run_tiny(workload, trace=1)


@pytest.mark.parametrize("workload", ["voc_refine", "tune_sweep", "deeplab_front"])
def test_untraced_tiny_run_is_correct(workload):
    metrics = run_tiny(workload, trace=0)["metrics"]
    assert {"op_s", "setup_s", "peak_rss_mb", "miou", "trimap_miou"} <= set(metrics)
    assert all(m["value"] > 0 for m in metrics.values())
