"""pulsefront benchmark launcher.

    python3 perfbench/run.py --workload front-scan --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout of the repository; it uses the
package sources under src/ of that checkout.  It pins the BLAS and OpenMP
thread counts to 1, times set-up in fresh processes, then runs the workload
in one worker process (worker.py) and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    # Peak RSS must not depend on the host or on the order of earlier
    # allocations.  With glibc's dynamic thresholds a freed 13 MB capture array
    # raises the mmap threshold, freed heap is then kept, and front-scan peaked
    # at 139 or 166 MiB on identical inputs; fixed thresholds keep arrays of
    # 4 MiB and more in mmap.  numpy would also ask for transparent huge pages,
    # which the host grants or not depending on its memory state.
    env["MALLOC_MMAP_THRESHOLD_"] = str(4 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(32 << 20)
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, env, timeout):
    """Run worker.py with args; returns its stdout, or raises on failure."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pulsefront benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "pulsefront", "__init__.py")):
        print(f"no pulsefront sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_s = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                out = run_child(common + ["--probe-setup"], env, 60.0)
                setup_s.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        budget = RUN_LIMIT_S - (time.perf_counter() - t0)
        out = run_child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                        env, budget)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").splitlines()
    worker = json.loads(lines[-1])
    metrics = worker["metrics"]
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        median = statistics.median(setup_s)
        print(f"setup_s          {median:.6g} s  median of {len(setup_s)} fresh processes "
              f"({', '.join(f'{s:.3f}' for s in setup_s)})")
        metrics["setup_s"] = {"value": median, "unit": "s"}
    print(json.dumps({"correct": worker["correct"], "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
