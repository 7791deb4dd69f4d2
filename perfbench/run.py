"""koopmanix benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  The workload repeats its
timed region until `--seconds` have passed (at least once) and checks
every pass's outputs.  With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes and reports per-layer
self times, work counts and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The
lines before it are a readable report and a `detail` JSON line.
"""

import argparse
import ctypes
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
from contextlib import contextmanager
from pathlib import Path

from clock import SpeedClock, kernel_s, scaled_import
from spans import COMPUTED, COUNTS, PUBLIC, Calls, layer_busy, merge_counts, repeatable

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / ".work"

SETUP_REPEATS = 3  # set-ups per run, and import timings per run
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, koopmanix; t = time.perf_counter() - t; "
                "from clock import kernel_s; print(t, *(kernel_s() for _ in range(3)))")
HELD_OUT_SEED = 1000  # kept out of tuning; later changes confirm a claim on it

# the metrics the result line carries (BENCHMARK.json lists the same)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"))


def per_layer_catalog() -> list[tuple[str, str]]:
    timed = [(f"{fn}.{kind}", unit) for fn in PUBLIC for kind, unit in (("busy_s", "s"), ("failed", "count"))]
    return timed + list(COUNTS) + list(TRACE_METRICS)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "git_commit": _git_commit(),
    }


def import_times(first: float) -> list[tuple[float, float]]:
    """Import time of numpy and the package, raw and scaled: this process's,
    then fresh ones.  Each is scaled by kernel runs made right after it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "src"), str(HERE)))}
    times = [(first, scaled_import(first, [kernel_s() for _ in range(3)]))]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        raw, *kernels = map(float, proc.stdout.split())
        times.append((raw, scaled_import(raw, kernels)))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None, replace=None,
                 imports=((0.0, 0.0),)):
    """Run one workload; returns (result line, detail).  `imports` holds
    (raw, scaled) import times; setup_s is the median scaled import plus the
    median scaled set-up."""
    from workloads import WORKLOADS, Checks, bind_api  # imports the package

    wl = WORKLOADS[name](seed, **(sizes or {}))
    calls = Calls()
    api = bind_api(calls, replace)
    checks = Checks()
    setup_clock, pass_clock = SpeedClock(), SpeedClock(sample=wl.SCALE_WALL)
    setups, walls, scaled, kernels, traced_walls, kept, setup_seg, pass_segs = [], [], [], [], [], [], [], []
    error = None
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        try:
            if trace:
                with calls.segment(setup_seg), calls.traced():
                    inputs = wl.setup(api)
            else:
                for _ in range(SETUP_REPEATS):
                    inputs = None  # free the last set-up's inputs before timing the next
                    with timed(calls, setup_clock, setups):
                        inputs = wl.setup(api)
            start = time.perf_counter()
            index = 0
            while True:
                work = Path(tmp) / f"pass{index}"
                work.mkdir()
                if trace and index % 2:
                    with calls.segment(pass_segs), calls.traced():
                        t0 = time.perf_counter()
                        out = wl.region(api, inputs, work)
                        traced_walls.append(time.perf_counter() - t0)
                        with calls.probe():
                            wl.probe(api, inputs, out)
                else:
                    with timed(calls, pass_clock, scaled):
                        out = wl.region(api, inputs, work)
                    walls.append(scaled[-1][0])
                    kernels.append(pass_clock.kernels)
                wl.check(inputs, out, checks)
                kept.append({key: out[key] for key in wl.KEEP})
                out = None
                shutil.rmtree(work)
                index += 1
                if time.perf_counter() - start >= seconds and (traced_walls or not trace):
                    break
        except Exception as exc:  # report the failure, keep what was measured
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"

    metrics, extra, raw, layers = {}, {}, {}, {}
    if not trace and walls:
        # Times on the result line are scaled by the host's speed (clock.py),
        # wall_s only where the workload's SCALE_WALL says; raw times are in `raw`.
        setup_s = statistics.median(t for _, t in imports) + statistics.median(t for _, t in setups)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(t for _, t in scaled), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
        extra = {key: {"value": v, "unit": u} for key, (v, u) in wl.metrics(kept).items()}
        raw = {  # unscaled; on a shared host most of these spread wider than the bounds (README)
            "raw_setup_s": {"value": statistics.median(t for t, _ in imports)
                            + statistics.median(t for t, _ in setups), "unit": "s"},
            "raw_wall_s": {"value": statistics.median(walls), "unit": "s"},
        }
    elif trace and walls and traced_walls:
        if len(pass_segs) > 1:
            checks.add("trace: counts repeat across traced passes",
                       all(repeatable(seg[2]) == repeatable(pass_segs[0][2]) for seg in pass_segs[1:]))
        busy, probes = layer_busy(setup_seg[0], pass_segs)
        counts = merge_counts(setup_seg[0][2], pass_segs[0][2])
        for fn in PUBLIC:
            kind = "probe" if fn in probes else ("span" if fn in busy else "not called")
            layers[f"{fn}.busy_s"] = {"value": busy.get(fn, 0.0), "unit": "s", "kind": kind}
            layers[f"{fn}.failed"] = {"value": calls.failed[fn], "unit": "count", "kind": "count"}
        for key, unit in COUNTS:
            kind = "count (computed)" if key in COMPUTED else "count"
            layers[key] = {"value": counts[key], "unit": unit, "kind": kind}
        untraced, traced = statistics.median(walls), statistics.median(traced_walls)
        layers["trace.overhead_s"] = {"value": traced - untraced, "unit": "s", "kind": "overhead"}
        layers["trace.wall_s"] = {"value": traced, "unit": "s", "kind": "overhead"}
        layers["trace.untraced_wall_s"] = {"value": untraced, "unit": "s", "kind": "overhead"}
        metrics = {key: {"value": m["value"], "unit": m["unit"]} for key, m in layers.items()}

    attempted = calls.total_attempted + len(checks.results)
    failed = calls.total_failed + checks.failed
    detail = {
        "workload": name,
        "seed": seed,
        "input_seeds": wl.seeds,
        "sizes": {k: list(v) if isinstance(v, tuple) else v for k, v in wl.sizes.items()},
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(),
        "error": error,
        "passes": len(walls),
        "traced_passes": len(traced_walls),
        "pass_wall_s": walls,
        "pass_scaled_s": [t for _, t in scaled],
        "pass_kernel_median_s": [statistics.median(k) if k else None for k in kernels],
        "traced_pass_wall_s": traced_walls,
        "setup_repeats_s": [list(t) for t in setups],
        "import_s": [list(t) for t in imports],
        "metrics": {**metrics, **extra} if not trace else {},
        "raw": raw,
        "failed_op_ratio": {"failed": failed, "attempted": attempted, "value": failed / max(attempted, 1)},
        "per_layer": layers,
        "counts_per_traced_pass": [dict(seg[2]) for seg in pass_segs],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results],
        "calls": {"attempted": dict(calls.attempted), "failed": dict(calls.failed)},
    }
    result = {"correct": error is None and failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, detail


@contextmanager
def timed(calls, clock, out: list):
    """Time the block on `clock`, cut at the public calls it makes; appends
    (raw s, scaled s) to `out`."""
    calls.clock = clock
    clock.start()
    try:
        yield
    finally:
        calls.clock = None
    out.append(clock.stop())


def report(detail: dict) -> str:
    """Readable summary of one run."""
    prov = detail["provenance"]
    blas = prov["blas"]
    lines = [
        f"perfbench {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
        f"input seeds {detail['input_seeds']} sizes {detail['sizes']}",
        f"machine: {prov['nproc']} cores ({prov['cpu']}), Python {prov['python']}, numpy {prov['numpy']}, "
        f"BLAS {blas['name']} {blas['version']} with {blas['threads']} threads, commit {prov['git_commit']}",
    ]
    ratio = detail["failed_op_ratio"]
    for key, m in detail["metrics"].items():
        lines.append(f"  {key:<18} {m['value']:>14.6g} {m['unit']}")
    for key, m in detail["raw"].items():
        lines.append(f"  {key:<18} {m['value']:>14.6g} {m['unit']} (unscaled)")
    lines.append(f"  {'failed_op_ratio':<18} {ratio['value']:>14.6g} ({ratio['failed']} failed / "
                 f"{ratio['attempted']} attempted)")
    for key, m in detail.get("per_layer", {}).items():
        lines.append(f"  {key:<40} {m['value']:>14.6g} {m['unit']:<6} {m['kind']}")
    verdicts: dict[str, tuple[bool, str]] = {}
    for check in detail["checks"]:  # one line per check, failed if any pass failed
        ok, note = verdicts.get(check["name"], (True, ""))
        verdicts[check["name"]] = (ok and check["ok"], note if not ok else check["detail"])
    passed = sum(c["ok"] for c in detail["checks"])
    lines.append(f"checks: {passed}/{len(detail['checks'])} passed over all passes")
    for name, (ok, note) in verdicts.items():
        lines.append(f"  {'ok  ' if ok else 'FAIL'} {name} {note}")
    if detail["error"]:
        lines.append(f"error: {detail['error']}")
    return "\n".join(lines)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "operator", "closed-loop"))
    parser.add_argument("--seed", type=_seed, default=0,
                        help=f"input seed offset; 0 gives the acceptance-test seeds, {HELD_OUT_SEED} is held out")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        import numpy  # noqa: F401
        import koopmanix
    except ImportError as exc:
        print(f"perfbench: cannot import koopmanix from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    first_import = time.perf_counter() - t0
    if not Path(koopmanix.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: koopmanix came from {koopmanix.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    imports = ((first_import, first_import),) if args.trace else import_times(first_import)
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), imports=imports)
    if not result["metrics"]:
        print(report(detail), file=sys.stderr)
        return 1
    print(report(detail))
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
