"""denseseg benchmark: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload voc_refine --seed 1 --seconds 40 --trace 0

With --trace 0 the run times whole operations untraced and prints the
end-to-end metrics; with --trace 1 it alternates an untraced unit with a
traced replay of the same unit and prints the per-layer split. Metric names
and units come from BENCHMARK.json; what each per-layer metric should move
is in perfbench/layers.json. Run from the root of a source checkout: the
program is imported from its src/ directory.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
# Every workload runs with one BLAS thread: the front end's matrix products
# were the least steady part of the benchmark with more.
BLAS_THREADS = 1
SETUP_REPEATS = 3


def machine(numpy, scipy) -> dict:
    """What a result must be read against."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the requested one."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"{BLAS_THREADS} (requested; not queryable)"


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_seconds() -> float:
    """Start a fresh interpreter that imports the program, as a user's would."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import denseseg, denseseg.cli"], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return time.perf_counter() - start


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def attempt(label: str, fn, log: list):
    """Run one unit; return (seconds, output) with output None on failure."""
    start = time.perf_counter()
    try:
        out = fn()
    except Exception:  # a failed operation is counted, not fatal
        if not log:
            traceback.print_exc(file=sys.stderr)
        log.append(f"{label}: {traceback.format_exc(limit=1).splitlines()[-1]}")
        out = None
    return time.perf_counter() - start, out


def timed_run(wl, seconds: float) -> dict:
    """Untraced closed loop: whole operations until the next would overrun."""
    times, failures = [], []
    start = time.perf_counter()
    while True:
        i = len(times)
        elapsed, _ = attempt(f"op {i}", lambda: wl.op(i), failures)
        times.append(elapsed)
        done = time.perf_counter() - start
        if len(times) >= wl.min_ops and done + statistics.median(times) > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = list(failures)
    try:
        miou, trimap, wrong = wl.quality()
        problems += wrong
    except Exception:  # no quality without outputs; reported, not fatal
        traceback.print_exc(file=sys.stderr)
        problems.append("quality could not be computed")
        miou = trimap = 0.0
    return {
        "attempted": len(times), "failed": len(failures), "problems": problems,
        "ops": spread(times),
        "values": {"op_s": statistics.median(times), "peak_rss_mb": peak_mb,
                   "miou": miou, "trimap_miou": trimap},
    }


def traced_run(wl, seconds: float, layer_names: list) -> dict:
    """Alternate an untraced unit with its traced replay; per-layer medians."""
    failures, plain_times, units = [], [], []
    start = time.perf_counter()
    try:
        counts = wl.trace_prepare()
    except Exception:  # counted like a failed operation
        traceback.print_exc(file=sys.stderr)
        failures.append("trace_prepare failed")
        counts = {}
    attempted = 1
    i = 0
    while True:
        pair_start = time.perf_counter()
        elapsed, plain = attempt(f"untraced unit {i}", lambda: wl.plain_unit(i), failures)
        plain_times.append(elapsed)
        attempted += 1
        if plain is not None:
            _, values = attempt(f"traced unit {i}", lambda: wl.trace_unit(i, plain), failures)
            attempted += 1
            if values is not None:
                # each replay is compared with the untraced unit run just before it
                values["trace.overhead_frac"] = values["trace.wall"] / elapsed - 1
                values["trace.unattributed_frac"] = 1 - values["trace.attributed"] / values["trace.wall"]
                units.append(values)
        i += 1
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds and (units or now - start > seconds):
            break
    values = {name: 0.0 for name in layer_names}
    values.update(counts)
    if units:
        for key in units[0]:
            values[key] = statistics.median(u[key] for u in units)
    return {
        "attempted": attempted, "failed": len(failures), "problems": list(failures),
        "ops": spread(plain_times), "traced_units": len(units),
        "values": {name: values[name] for name in layer_names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke check")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import numpy
        import scipy
        import workloads
    except ImportError as exc:
        print(f"benchmark: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"benchmark: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}

    wl = workloads.WORKLOADS[args.workload](args.size)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        imports, generate = [], []
        for rep in range(SETUP_REPEATS):
            imports.append(import_seconds())
            t0 = time.perf_counter()
            wl.setup(workdir / f"inputs{rep}", args.seed)
            generate.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(generate)
        if args.trace:
            result = traced_run(wl, args.seconds, list(units))
        else:
            result = timed_run(wl, args.seconds)
            result["values"]["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            (ROOT / ".bench_tmp").rmdir()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "machine": machine(numpy, scipy),
        "setup": {"import_s": imports, "generate_s": generate, "setup_s": setup_s},
        "ops_s": result["ops"],
        "error_rate": result["failed"] / result["attempted"],
        "problems": result["problems"],
    }
    layers = {}
    if args.trace:
        record["traced_units"] = result["traced_units"]
        layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    print(json.dumps({"record": record}))
    values = {name: result["values"][name] for name in units}
    for name, value in values.items():
        line = f"{name:30s} {value:>14.6g} {units[name]:6s}"
        if name in layers:
            moves = ", ".join(f"{m['metric']}@{m['workload']}" for m in layers[name]["moves"])
            line += f" {layers[name]['how']:13s} {moves}"
        print(line)
    print(f"{'error_rate':30s} {record['error_rate']:>14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} failed)")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
