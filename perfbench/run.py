"""ratbound benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload atoms --seed 1 --seconds 15 --trace 0

Workloads: atoms, sampling, escape, algebra (see perfbench/README.md).  The
workload runs in a fresh interpreter (worker.py) with one BLAS thread, as a
closed loop of one client: each op starts when the previous one and its
check have finished.  2 * SETUP_PROBES more interpreters only set up, so
that setup_s is a median of eleven.

--trace 0 prints setup_s, wall_s, op_p50_s, op_tail_s and peak_rss_mb;
--trace 1 runs every op untraced and traced, back to back, and prints the
per-layer metrics and trace.overhead_frac.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; fail_frac is failed/attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5  # before and again after the measured run
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10  # op_tail_s: the slowest latency with at least this many ops beyond it
# worker.speed_probe's time on the reference machine (2 cores) when quiet;
# timings are reported at this probe speed
PROBE_REFERENCE_S = 0.0032

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _child(args, *extra):
    """Run worker.py to completion and return its JSON line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PERFBENCH_T0=repr(time.monotonic()))
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _load_adjusted(latencies, probes):
    """Scale each op by PROBE_REFERENCE_S over the mean of the speed probes
    taken just before and just after it (README.md, "Load adjustment")."""
    return [[t * 2.0 * PROBE_REFERENCE_S / (pr[i] + pr[i + 1]) for i, t in enumerate(lat)]
            for lat, pr in zip(latencies, probes)]


def _timings(passes):
    """wall_s, op_p50_s, op_tail_s from per-pass lists of op latencies."""
    lat = sorted(t for p in passes for t in p)
    if len(lat) <= TAIL_BEYOND:
        raise SystemExit(f"perfbench: {len(lat)} ops are too few for op_tail_s")
    return {"wall_s": statistics.median(map(sum, passes)),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": lat[len(lat) - TAIL_BEYOND - 1]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # set-up probes on both sides of the measured run sample different load
    n_setup = 0 if args.trace else SETUP_PROBES
    setups = [_child(args, "--setup-only") for _ in range(n_setup)]
    res = _child(args)
    setups.append(res["setup"])
    setups += [_child(args, "--setup-only") for _ in range(n_setup)]

    print(f"# env {json.dumps(res['env'], sort_keys=True)}")
    print(f"# workload={args.workload} seed={args.seed} passes={res['passes']} "
          f"reference={res['reference']}")
    for msg in res["failures"]:
        print(f"# FAILED {msg}")
    print(f"fail_frac {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} ops)")

    if args.trace:
        metrics = dict(res["layers"])
        metrics["trace.overhead_frac"] = (statistics.median(res["traced_walls"])
                                          / statistics.median(res["walls"]) - 1.0)
        print(f"# spans written to {res['spans_file']}")
    else:
        raw = {"setup_s": statistics.median(s["setup_s"] for s in setups),
               **_timings(res["latencies"])}
        adjusted = _timings(_load_adjusted(res["latencies"], res["probes"]))
        metrics = {"setup_s": statistics.median(s["setup_s"] * PROBE_REFERENCE_S / s["probe"]
                                                for s in setups),
                   **adjusted, "peak_rss_mb": res["peak_rss_mb"]}
        n = sum(map(len, res["latencies"]))
        print(f"# op_tail_s is p{100.0 * (n - TAIL_BEYOND - 1) / (n - 1):.1f} of n={n} ops "
              f"({TAIL_BEYOND} ops beyond it)")
        flat = [x for pr in res["probes"] for x in pr]
        print(f"# speed probe min {min(flat) * 1e3:.3f} ms, median "
              f"{statistics.median(flat) * 1e3:.3f} ms; before load adjustment: "
              + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}")

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
