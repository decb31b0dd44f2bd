"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json

For every workload it makes one untraced run per seed and reports, for each
end-to-end metric, the median, the quartiles (statistics.quantiles with
n=4) and the spread (q3 - q1) / median.  With --trace-seed it adds one
traced run per workload for the per-layer numbers.  Run it from the root of
a checkout; it only calls run.py.
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


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="like 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        failed = 0
        for seed in args.seeds:
            ctx, result = run(workload, seed, args.seconds, 0)
            report["context"] = {k: ctx[k] for k in ("python", "commit", "source_sha256", "nproc")}
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        entry = {"failed": failed, "end_to_end": {}}
        for m in bench["end_to_end"]:
            entry["end_to_end"][m["name"]] = s = summarise(values[m["name"]])
            flag = "" if m["name"] == "setup_s" or s["spread"] <= m["bound"] / 3 else "  > bound/3"
            print(f"{workload:16s} {m['name']:12s} median {s['median']:.6g}  "
                  f"spread {s['spread']:.3f}  bound {m['bound']}{flag}", flush=True)
        if args.trace_seed is not None:
            ctx, result = run(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "failed": result["failed"],
                                  "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
