"""One workload in a fresh interpreter: set up, run the timed passes, check.

run.py starts this script once per measurement (and a few more times with
--setup-only to sample the set-up time) and reads the one JSON line it
prints.  PERFBENCH_T0 carries the parent's CLOCK_MONOTONIC reading taken just
before the interpreter was started, so setup_s includes interpreter start,
`import ratbound` and building the inputs.

    python3 perfbench/worker.py --workload algebra --seed 1 --seconds 10
    python3 perfbench/worker.py --workload atoms --record-reference
"""

from __future__ import annotations

import os
import time

T_START = float(os.environ.get("PERFBENCH_T0", time.monotonic()))

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

# the per-layer metrics BENCHMARK.json lists, reported per traced pass;
# trace.overhead_frac is computed by run.py from the pass times
LAYER_METRICS = tuple(m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                      ["per_layer"] if m["name"] != "trace.overhead_frac")


def _import_package():
    """Import ratbound from this checkout's sources, never from elsewhere."""
    if not (SRC / "ratbound" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ratbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ratbound

    if Path(ratbound.__file__).resolve().parent != SRC / "ratbound":
        raise SystemExit(f"perfbench: imported ratbound from {ratbound.__file__}")


def speed_probe():
    """Seconds taken by a fixed 3-4 ms kernel that never touches ratbound:
    interpreted complex arithmetic, small-array numpy calls, a 20k-element
    sort and a batch of 5x5 eigenvalue problems, the instruction mix of the
    workloads.  On a shared machine its time tracks how fast the core runs at
    the moment; run.py scales each op by the probes taken around it
    (README.md, "Load adjustment")."""
    import numpy as np

    vec = np.linspace(0.1, 1.0, 9) + 0.3j
    mats = np.cos(np.arange(60 * 25, dtype=float)).reshape(60, 5, 5) + 0.5j
    t0 = time.perf_counter()
    acc = 0j
    for i in range(1500):
        z = complex(i % 7, 0.5)
        acc += (z * z + 1.5 * z - 0.25) / (abs(z) + 1.0)
        acc = acc / max(abs(acc), 1.0)
    for _ in range(300):
        acc = complex(np.abs(vec * acc).max()) + 0.1j
    np.sort(np.arange(20000, dtype=float)[::-1] * 1.5)
    np.linalg.eigvals(mats)
    return time.perf_counter() - t0


def _close(a, b, rel=1e-6, abs_tol=1e-9):
    """Nested digests agree: same keys and lengths, numbers within tolerance."""
    if a is None or b is None:
        return a is b
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_close(a[k], b[k], rel, abs_tol) for k in a))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(_close(x, y, rel, abs_tol) for x, y in zip(a, b)))
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def environment():
    """Versions, BLAS build, core count, thread settings and source commit."""
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["numpy_blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["numpy_blas"] = "unknown"
    try:
        import scipy

        env["scipy"] = scipy.__version__
    except ImportError:
        env["scipy"] = None
    env["commit"] = _commit()
    return env


def _commit():
    """HEAD of the checkout when it is a git work tree; read, not run."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-reference", action="store_true",
                    help="run one pass at DEFAULT_SEED and store its digests")
    args = ap.parse_args(argv)

    _import_package()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}")
    seed = wl.DEFAULT_SEED if args.seed is None or args.record_reference else args.seed
    ws_root = OUT / f"work-{args.workload}-{seed}-{os.getpid()}"
    try:
        ws = wl.Workspace(ws_root)
        ops = wl.WORKLOADS[args.workload](random.Random(f"{args.workload}:{seed}"), ws)
        setup_s = time.monotonic() - T_START
        # the machine's speed right after set-up, for run.py's load adjustment
        setup = {"setup_s": setup_s, "probe": min(speed_probe() for _ in range(3))}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        return _measure(args, wl, ops, seed, setup)
    finally:
        shutil.rmtree(ws_root, ignore_errors=True)


def _measure(args, wl, ops, seed, setup):
    """Run the passes.  With --trace 1 every op runs twice in a row, once
    untraced and once traced (the order alternates), so both runs of an op
    see the same machine load and their ratio is the tracing overhead."""
    # traced runs do every op twice, so half the passes
    scaled = wl.PASSES_PER_10S[args.workload] * args.seconds / 10 / (2 if args.trace else 1)
    # at least two passes for a median, and more than ten ops for op_tail_s
    passes = 1 if args.record_reference else max(2, math.ceil(11 / len(ops)), round(scaled))
    reference = None
    if seed == wl.DEFAULT_SEED and not args.record_reference:
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    walls, traced_walls, latencies, probes = [], [], [], []
    failures, digests = [], {}
    attempted = 0
    bytes_out = 0
    for p in range(passes):
        wall = {False: 0.0, True: 0.0}
        lat, probe = [], []
        for i, op in enumerate(ops):
            key = f"{i:03d}:{op.label}"
            modes = (False,) if tracer is None else ((False, True) if (p + i) % 2 == 0
                                                     else (True, False))
            for traced in modes:
                attempted += 1
                if tracer is None:
                    probe.append(speed_probe())
                dt = 0.0
                try:
                    if op.prep is not None:
                        op.prep()
                    t0 = time.perf_counter()
                    result = tracer.run_op(op.label, op.run) if traced else op.run()
                    dt = time.perf_counter() - t0
                    if traced and op.out and os.path.exists(op.out):
                        bytes_out += os.path.getsize(op.out)
                    digest = op.check(result)
                except wl.CheckFailed as exc:
                    failures.append(f"pass {p} op {key}: {exc}")
                    continue
                except Exception:  # a crash in an op or its check is a failed op
                    failures.append(f"pass {p} op {key}: {traceback.format_exc(limit=3)}")
                    continue
                finally:
                    wall[traced] += dt
                    if not traced:
                        lat.append(dt)
                if p == 0 and not traced:
                    digests[key] = digest
                    if reference is not None and not _close(reference.get(key), digest):
                        failures.append(f"op {key}: output differs from reference.json")
        if tracer is None:
            probe.append(speed_probe())
        walls.append(wall[False])
        latencies.append(lat)
        probes.append(probe)
        if tracer is not None:
            traced_walls.append(wall[True])

    if args.record_reference:
        if failures:
            raise SystemExit("perfbench: not recording a reference from failing ops:\n"
                             + "\n".join(failures))
        data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        data[args.workload] = digests
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    out = {
        "setup": setup,
        "passes": passes,
        "walls": walls,
        "traced_walls": traced_walls,
        "latencies": latencies,
        "probes": probes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "reference": ("compared" if reference is not None else "skipped (seed is not "
                      f"{wl.DEFAULT_SEED})"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, len(traced_walls), bytes_out)
        path = OUT / f"trace-{args.workload}-seed{seed}.json"
        tracer.write(path)
        out["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


def _layer_metrics(tracer, n_passes, bytes_out):
    calls, selfs = tracer.self_times()
    values = {}
    for metric in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            v = calls.get(layer, 0)
        elif stat == "self_s":
            v = selfs.get(layer, 0.0)
        elif metric == "cli.bytes_out":
            v = bytes_out
        elif stat == "kept_frac":
            c = tracer.counts[layer]
            v = c["atoms_out"] / c["atoms_in"] if c["atoms_in"] else 0.0
            values[metric] = v
            continue
        else:
            v = tracer.counts[layer][stat]
        values[metric] = v / n_passes
    return values


if __name__ == "__main__":
    sys.exit(main())
