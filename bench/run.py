"""koopseed benchmark: one workload per process, metrics as JSON.

Usage (from the repository root):

    python3 bench/run.py --workload reproduce-duffing --seed 7120 --seconds 30 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Full results go to
``bench/out/``. The exit status is 0 when every correctness check passed,
1 when one failed, and 2 when the program's sources are missing.
See bench/README.md for the workloads and metrics.
"""

import os
import sys

# Pin the BLAS before numpy loads: threading changes results and, under
# contention, roughly doubles wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
REFERENCE = os.path.join(BENCH_DIR, "reference")

WORKLOADS = ("reproduce-duffing", "reproduce-vdp", "stream-duffing")
DEFAULT_SECONDS = 30

_SC_LEVEL3_CACHE_SIZE = 194  # glibc's sysconf name; Python does not expose it


def _llc_bytes():
    try:
        size = ctypes.CDLL(None).sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
        "machine": platform.machine(),
        "bytes_are": "computed from array sizes, not measured bandwidth",
    }


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import koopseed

    if os.path.dirname(os.path.abspath(koopseed.__file__)) != os.path.join(SRC, "koopseed"):
        print(f"error: koopseed imported from {koopseed.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    preset = args.workload.split("-", 1)[1]
    seed = args.seed
    if seed is None:
        seed = koopseed.load_config(preset).root_seed
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    spans_prefix = os.path.join(OUT, f"spans-{args.workload}-seed{seed}")
    if args.workload.startswith("reproduce-"):
        result = workloads.run_reproduce(
            preset, seed, args.seconds, bool(args.trace), SRC,
            os.path.join(OUT, tag), os.path.join(REFERENCE, preset), spans_prefix,
        )
    else:
        result = workloads.run_stream(seed, args.seconds, bool(args.trace), SRC, spans_prefix)

    correct = result.failed == 0
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_frac": result.failed / max(result.attempted, 1),
        "failures": result.failures,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in result.metrics.items()
        },
        "details": result.details,
        "environment": environment(),
    }
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for message in result.failures:
        print(f"FAILED {message}")
    print(f"{args.workload} seed={seed}: attempted {result.attempted}, failed {result.failed}")
    for name, (value, unit, samples) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in result.metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh interpreter of its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        print(f"== {workload}", flush=True)
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, done.returncode)
        if done.returncode == 2 or not lines:
            return 2
        last = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the preset's root_seed)")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "koopseed", "__init__.py")):
        print(f"error: no koopseed sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
