"""Smoke check of the benchmark itself at tiny input sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every workload, traced and untraced, prints each metric named in
BENCHMARK.json with its unit; that a missing input file is counted as a
failed operation instead of raising; and that without the program's sources
the benchmark exits non-zero and prints no result.
"""

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(message: str) -> None:
    raise SystemExit(f"smoke: FAIL: {message}")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            proc = bench(ROOT, workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys are {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{workload} --trace {trace}: {result['attempted']} attempted, "
                     f"{result['failed']} failed, correct={result['correct']}\n{proc.stderr}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                fail(f"{workload} --trace {trace}: metrics/units differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(expected.items()))}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    fail(f"{workload}: {name} is {m['value']!r}")
            print(f"smoke: {workload} --trace {trace}: {len(got)} metrics with units")


def check_missing_input(scratch: Path) -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads

    victims = {"voc_refine": lambda wl: wl.cases[0]["unary"],
               "tune_sweep": lambda wl: wl.cases[1]["image"],
               "deeplab_front": lambda wl: wl.features}
    for name, victim in victims.items():
        wl = workloads.WORKLOADS[name]("tiny")
        wl.setup(scratch / name, 3)
        victim(wl).unlink()
        result = run.timed_run(wl, 0.2)
        if not (result["attempted"] >= 1 and result["failed"] >= 1 and result["problems"]):
            fail(f"{name}: a missing input gave {result['failed']} failures of "
                 f"{result['attempted']} and problems {result['problems']}")
        print(f"smoke: {name}: missing input counted, "
              f"error_rate {result['failed'] / result['attempted']:.2f}")


def check_without_sources(scratch: Path) -> None:
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "voc_refine", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without src/ the benchmark exited {proc.returncode} and printed {proc.stdout!r}")
    print(f"smoke: without the program's sources: exit {proc.returncode}, no result")


def main() -> None:
    check_metrics()
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".bench_tmp"))
    try:
        check_without_sources(scratch)
        check_missing_input(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_tmp").rmdir()
    print("smoke: ok")


if __name__ == "__main__":
    main()
