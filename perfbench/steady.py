"""Steadiness report: run every workload repeatedly and summarize the spread.

    python3 perfbench/steady.py --runs 10

Round r runs every workload of BENCHMARK.json once with seed r + 1 and the
file's run_seconds, in the listed order on even rounds and in reverse order
on odd ones, through run.py exactly as the benchmark is run.  For every
end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json; "ok" means the spread is below a third of the bound.  All values are also written as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=str(ROOT / ".perfbench_out" / "steady.json"))
    args = ap.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in names}
    failed = {w: 0 for w in names}
    for r in range(args.runs):
        for w in (names if r % 2 == 0 else names[::-1]):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(r + 1), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"steady: {w} seed {r + 1} exited "
                                 f"{proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            failed[w] += res["failed"]
            for m in bounds:
                values[w][m].append(res["metrics"][m]["value"])
            print(f"# round {r} {w}: " + " ".join(
                f"{m}={res['metrics'][m]['value']:.4g}" for m in bounds), flush=True)

    print(f"{'workload':10} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    summary = {}
    for w in names:
        summary[w] = {"failed_ops": failed[w]}
        for m, vals in values[w].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < bounds[m] / 3 else "WIDE"
            print(f"{w:10} {m:12} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {bounds[m]:6.2f} {verdict}")
            summary[w][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
