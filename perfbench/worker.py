"""One workload in one process: set up, run passes for the given seconds,
check every output, and print the metrics.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --probe-setup --workload W --seed N

run.py starts this with the thread counts pinned to 1.  The last line of
standard output is one JSON object; the lines above it are for people.
A pass runs every operation of the workload once on the seed's instances;
it is closed-loop with one caller, and passes repeat until the given seconds
have passed, so a run measures at least that long and whole passes only.
With --trace 1, untraced and traced passes alternate, so the tracing
overhead is the difference of their medians.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.path.dirname(HERE), ".perfbench_out")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def import_package():
    """Import every pulsefront module the benchmark touches (the import half
    of set-up)."""
    import numpy
    import numpy.linalg
    import pulsefront  # noqa: F401
    from pulsefront import (config, fronts, homogenize, profiles, runner, solver,
                            spectral, stability)
    return {"numpy": numpy, "numpy_linalg": numpy.linalg, "config": config,
            "fronts": fronts, "homogenize": homogenize, "profiles": profiles,
            "runner": runner, "solver": solver, "spectral": spectral,
            "stability": stability}


def probe_setup(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    pf = import_package()
    wl.setup(wl.generate(workload, seed), pf)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def known_failures(workload: str) -> dict[str, str]:
    """Failures present at the seed commit, from plan.json, keyed by check name.
    They count in `failed`; any other failure makes the run incorrect."""
    with open(os.path.join(HERE, "plan.json")) as fh:
        listed = json.load(fh)["known_failures"]
    return {key.split("/", 1)[1]: why for key, why in listed.items()
            if key.split("/", 1)[0] == workload}


def upper_percentile(samples):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    p = 100.0 * (n - 10) / n
    k = max(0, min(n - 1, math.ceil(p / 100.0 * n) - 1))
    return p, sorted(samples)[k]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true")
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    t0 = time.perf_counter()
    pf = import_package()
    import_s = time.perf_counter() - t0
    plan = wl.generate(args.workload, args.seed)
    state = wl.setup(plan, pf)
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)

    from layers import install_layer_probes, install_node_step_counter, layer_metrics
    counter = Tracer()
    tracer = Tracer()
    root = tracer.intern("bench.pass")
    untraced, traced, checks = [], [], []
    node_steps = []
    t_loop = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        if trace_this:
            install_layer_probes(tracer, pf)
            tracer.enter(root)
        else:
            install_node_step_counter(counter, pf["solver"])
            before = counter.counts["solver.node_steps"]
        t = time.perf_counter()
        try:
            checks += wl.run_pass(plan, state, pf, out_dir)
        finally:
            dt = time.perf_counter() - t
            if trace_this:
                tracer.exit()
                tracer.uninstall()
            else:
                counter.uninstall()
        (traced if trace_this else untraced).append(dt)
        if not trace_this:
            node_steps.append(counter.counts["solver.node_steps"] - before)
            if len(untraced) == 1:   # later passes may only grow the heap further
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        need_traced = args.trace and not traced
        if not need_traced and time.perf_counter() - t_loop >= args.seconds:
            break

    known = known_failures(args.workload)
    failed = [c for c in checks if not c.ok]
    unexpected = [c for c in failed if c.op not in known]
    attempted = len(checks)
    wall = statistics.median(untraced)
    passes_ops = attempted // (len(untraced) + len(traced))

    print(f"# pulsefront benchmark: workload={args.workload} seed={args.seed} "
          f"(held-out seed {wl.HELD_OUT_SEED}) seconds={args.seconds:g} trace={args.trace}")
    print(f"# closed loop, one caller, workers=1; {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {passes_ops} operations")
    for case in plan.cases:
        print(f"# instance: {case['name']}")
    seen = set()
    for c in checks:
        if (c.op, c.ok) in seen:
            continue
        seen.add((c.op, c.ok))
        tag = "ok" if c.ok else ("FAIL (known)" if c.op in known else "FAIL")
        print(f"check {tag:12s} {c.op}: {c.detail}")
    for op, why in known.items():
        print(f"# known failure at the seed commit: {op}: {why}")

    result = {"correct": not unexpected, "attempted": attempted, "failed": len(failed)}
    if not args.trace:
        errs = [c.speed_err for c in checks if c.speed_err is not None]
        metrics = {
            "wall_s": (wall, "s"),
            "node_steps_per_s": (statistics.median(node_steps) / wall, "1/s"),
            "speed_err": (max(errs) if errs else math.nan, "x/t"),
            "ok_ratio": ((attempted - len(failed)) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        pct = upper_percentile(untraced)
        print(f"wall_s           {wall:.4f} s  median of n={len(untraced)} passes; "
              + (f"p{pct[0]:.0f} {pct[1]:.4f} s" if pct else
                 "no upper percentile (needs at least 11 passes)"))
        print(f"fail_ratio       {len(failed)}/{attempted} = {len(failed) / attempted:.4f}"
              f" ({len(unexpected)} unexpected)")
        for name, (v, unit) in metrics.items():
            if name != "wall_s":
                print(f"{name:16s} {v:.6g} {unit}")
    else:
        lm = layer_metrics(tracer, len(traced))
        traced_wall = statistics.median(traced)
        layer_sum = sum(lm[f"{layer}.self_s"][0] for layer in LAYERS)
        lm["setup.import_s"] = (import_s, "s")
        lm["trace.wall_s"] = (traced_wall, "s")
        lm["trace.untraced_wall_s"] = (wall, "s")
        lm["trace.overhead_s"] = (traced_wall - wall, "s")
        lm["trace.layer_share"] = (layer_sum / traced_wall, "ratio")
        lm["trace.spans"] = (len(tracer.span_start) / len(traced), "count")
        print(f"# node-steps per pass: traced {lm['solver.node_steps'][0]:.0f}, "
              f"untraced {statistics.median(node_steps):.0f}")
        print(f"# traced wall {traced_wall:.4f} s, untraced {wall:.4f} s, tracing overhead "
              f"{traced_wall - wall:+.4f} s ({(traced_wall - wall) / wall:+.1%})")
        print(f"# layer self times add up to {layer_sum / traced_wall:.2%} of the traced "
              f"wall ({'within' if layer_sum >= 0.95 * traced_wall else 'OUTSIDE'} 5%); "
              f"the rest is the harness (bench.self_s)")
        for name, (v, unit) in sorted(lm.items()):
            print(f"{name:38s} {v:.6g} {unit}")
        metrics = lm
        span_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(span_path, {"workload": args.workload, "seed": args.seed,
                                 "traced_passes": len(traced)})
        print(f"# spans written to {span_path}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["seed"] = args.seed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
