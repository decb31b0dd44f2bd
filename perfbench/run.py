"""Benchmark runner: drives one workload through fresh child processes.

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ``src/``, nothing
is installed.  With ``--trace 0`` the run is untraced and reports the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it runs a
fixed number of rounds traced, replays them untraced, and reports the
per-layer metrics plus the tracing overhead.  The last line of standard
output is the result object; the line before it gives the run's context
(seed, Python, commit, nproc, tail percentile, failures).  A copy of both,
with every per-operation record, goes to ``.perfbench/results/``.

Load model: one caller in a closed loop, so each operation starts only
after the previous verdict is back.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BUDGET_S = 170.0     # every run ends well inside the 180 s limit
SETUP_SAMPLES = 7    # fresh processes that only time the import

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import workloads  # noqa: E402


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_child(spec, deadline):
    """Run child.py with spec; returns (records, end summary, error or None).

    A child still running at the deadline is killed: the operation it was
    working on then counts as failed instead of stalling the benchmark.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(dict(spec, src=str(SRC)))]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
        out, error = proc.stdout, None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            error = f"child exited with code {proc.returncode}: {tail[0]}"
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else exc.stdout or ""
        error = f"run timeout after {timeout:.0f} s"
    records, end = [], None
    for line in out.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if not isinstance(obj, dict):
            continue
        if "end" in obj:
            end = obj["end"]
        elif "kind" in obj:
            records.append(obj)
    if end is None and error is None:
        error = "child ended without a summary"
    # times at the reference speed; a child cut off before its summary has none
    for rec, n in zip(records, (end or {}).get("normalised_s", [None] * len(records))):
        rec["n"] = n
    return records, end, error


class Run:
    """Records and child summaries of one pass over a workload."""

    def __init__(self):
        self.records = []
        self.ends = []
        self.errors = []   # children that stopped early; each costs one failed operation

    def add(self, child):
        records, end, error = child
        self.records += records
        if end is not None:
            self.ends.append(end)
        if error is not None:
            self.errors.append(error)

    @property
    def wall(self):
        """Wall time of the children's operation loops, at the reference speed."""
        return sum(e["wall_s"] * calibration.REF_S / e["cal_median"] for e in self.ends)

    @property
    def attempted(self):
        return len(self.records) + len(self.errors)

    @property
    def failures(self):
        return [f"{r['kind']} (round {r['round']}, op {r['index']}): {r['error']}"
                for r in self.records if r["error"]] + self.errors


def drive(work, seed, deadline, seconds=None, rounds=None, trace=False):
    """Run whole rounds until `seconds` have passed, or exactly `rounds`."""
    spec = {"mode": "run", "workload": work.name, "seed": seed, "trace": trace,
            "seconds": seconds, "rounds": rounds}
    spans = OUT / "spans" / f"{work.name}-seed{seed}"
    run = Run()
    if not work.cold_per_op:
        run.add(run_child(dict(spec, spans_out=str(spans) + ".json.gz" if trace else None),
                          deadline))
        return run
    begin = time.monotonic()
    for r, ops in enumerate(work.rounds(seed)):
        for k in range(len(ops)):
            out = str(spans) + f"-{r}-{k}.json.gz" if trace else None
            run.add(run_child(dict(spec, only=[r, k], spans_out=out), deadline))
            if time.monotonic() >= deadline:
                return run
        if (rounds is not None and r + 1 >= rounds) or \
                (rounds is None and time.monotonic() - begin >= seconds):
            return run


def end_to_end(work, run, setup):
    """End-to-end metrics; times are at the reference speed, and the raw
    wall-clock figures go into the notes."""
    lat = [r["n"] for r in run.records if r["n"] is not None]
    raw = [r["s"] for r in run.records]
    tail = percentile(lat, work.tail_pct) if lat else None
    metrics = {
        "ops_per_s": len(lat) / sum(lat) if lat else None,
        "op_s.p50": percentile(lat, 50) if lat else None,
        "op_s.tail": tail,
        "setup_s": statistics.median(s * calibration.REF_S / c for s, c in setup),
        "peak_rss_mb": max((e["peak_rss_mb"] for e in run.ends), default=None),
    }
    notes = {"tail_percentile": work.tail_pct, "latency_samples": len(lat),
             "samples_beyond_tail": sum(1 for x in lat if x > tail) if lat else 0,
             "raw_ops_per_s": len(raw) / sum(raw) if raw else None,
             "raw_op_s.p50": percentile(raw, 50) if raw else None,
             "raw_setup_s": statistics.median(s for s, _ in setup),
             "reference_loop_s": statistics.median(e["cal_median"] for e in run.ends)
             if run.ends else None}
    return metrics, notes


def _sum_traces(ends):
    total = {"calls": {}, "busy": {}, "self": {}, "algebra_in": {}, "nf": {},
             "algebra_busy": 0.0, "spans": 0, "missing_targets": []}
    entries, sized = [], True
    for end in ends:
        tr = end["trace"]
        speed = calibration.REF_S / end["cal_median"]
        for key in ("calls", "busy", "self", "algebra_in", "nf"):
            scale = speed if key in ("busy", "self", "algebra_in") else 1
            for name, v in tr[key].items():
                total[key][name] = total[key].get(name, 0) + v * scale
        total["algebra_busy"] += tr["algebra_busy"] * speed
        total["spans"] += tr["spans"]
        sized = sized and tr["cache_sized"]
        total["missing_targets"] = sorted(set(total["missing_targets"])
                                          | set(tr["missing_targets"]))
        entries.append(tr["cache_entries"])
    # with one process per operation, the largest cold cache is what memory sees
    total["cache_entries"] = max(entries) if sized and entries else None
    total["cache_sized"] = sized
    return total


def per_layer(work, traced, plain):
    t = _sum_traces(traced.ends)
    calls, busy, self_s, nf = t["calls"], t["busy"], t["self"], t["nf"]
    c = lambda name: calls.get(name, 0)
    b = lambda name: busy.get(name, 0.0)
    s = lambda name: self_s.get(name, 0.0)
    sized = t["cache_sized"]
    pure = nf.get("pure_calls", 0)
    hits = nf.get("hits", 0) if sized else None
    metrics = {
        "exact_algebra.busy_s": t["algebra_busy"],
        "exact_algebra.mul.calls": c("exact_algebra.mul"),
        "exact_algebra.subs.calls": c("exact_algebra.subs"),
        "exact_algebra.subs.busy_s": b("exact_algebra.subs"),
        "exact_algebra.shifted.calls": c("exact_algebra.shifted"),
        "exact_algebra.eval_at.calls": c("exact_algebra.eval_at"),
        "exact_algebra.eval_at.busy_s": b("exact_algebra.eval_at"),
        "pbw.nf.calls": c("pbw.nf"),
        "pbw.nf.busy_s": b("pbw.nf"),
        "pbw.nf.self_s": s("pbw.nf"),
        "pbw.nf.algebra_s": t["algebra_in"].get("pbw.nf", 0.0),
        "pbw.nf.terms_out": nf.get("terms_out", 0),
        "pbw.nf.pure_calls": pure,
        "pbw.nf.cache_hits": hits,
        "pbw.nf.cache_misses": nf.get("misses", 0) if sized else None,
        "pbw.nf.cache_hit_ratio": hits / pure if sized and pure else None,
        "pbw.nf.cache_entries": t["cache_entries"],
        "pbw.uea_mul.calls": c("pbw.uea_mul"),
        "pbw.uea_mul.busy_s": b("pbw.uea_mul"),
        "pbw.normal_order.busy_s": b("pbw.normal_order"),
        "verma.act.calls": c("verma.act"),
        "verma.act.busy_s": b("verma.act"),
        "verma.act.self_s": s("verma.act"),
        "verma.act.algebra_s": t["algebra_in"].get("verma.act", 0.0),
        "verma.solve.busy_s": b("verma.solve"),
        "hessenberg.det_lr.calls": c("hessenberg.det_lr"),
        "hessenberg.det_lr.busy_s": b("hessenberg.det_lr"),
        "hessenberg.det_lr.self_s": s("hessenberg.det_lr"),
        "construct.build.busy_s": b("construct.build"),
        "construct.body.busy_s": b("construct.body"),
        "construct.verma_vector.busy_s": b("construct.verma_vector"),
        "construct.check.self_s": s("construct.check"),
        "cli.run.calls": c("cli.run"),
        "cli.run.self_s": s("cli.run"),
        "trace.overhead_s": traced.wall - plain.wall,
        "trace.overhead_ratio": traced.wall / plain.wall if plain.wall else None,
    }
    algebra_calls = sum(v for k, v in calls.items() if k.startswith("exact_algebra."))
    silent = [layer for layer in work.layers
              if (algebra_calls if layer == "exact_algebra" else c(layer)) == 0]
    notes = {"rounds": work.trace_rounds, "spans": t["spans"],
             "trace_targets_missing": t["missing_targets"],
             "traced_wall_s": traced.wall, "untraced_wall_s": plain.wall,
             "layers_without_calls": silent}
    return metrics, notes


def context(args):
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "commit": commit,
            "source_sha256": digest.hexdigest(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "load": "closed loop, one caller"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shapovalov" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'shapovalov'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    declared = json.loads(spec_path.read_text())

    deadline = time.monotonic() + BUDGET_S
    work = workloads.WORKLOADS[args.workload]
    setup = []
    for _ in range(SETUP_SAMPLES):
        records, end, error = run_child({"mode": "setup"}, deadline)
        if error:
            print(f"error: set-up process failed: {error}", file=sys.stderr)
            return 1
        setup.append((end["setup_s"], end["cal"]))

    if args.trace:
        traced = drive(work, args.seed, deadline, rounds=work.trace_rounds, trace=True)
        plain = drive(work, args.seed, deadline, rounds=work.trace_rounds)
        runs = [traced, plain]
        values, notes = per_layer(work, traced, plain)
        wanted = declared["per_layer"]
    else:
        run = drive(work, args.seed, deadline, seconds=args.seconds)
        runs = [run]
        values, notes = end_to_end(work, run, setup)
        wanted = declared["end_to_end"]

    failures = [f for run in runs for f in run.failures]
    attempted = sum(run.attempted for run in runs)
    ctx = dict(context(args), **notes, fail_ratio=len(failures) / max(attempted, 1),
               controls=sum(1 for run in runs for r in run.records if r["control"]),
               failures=failures[:20])
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures) if attempted else 1,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    OUT.joinpath("results", name).write_text(json.dumps(
        {"context": ctx, "result": result,
         "records": [r for run in runs for r in run.records]}, indent=1))
    print(json.dumps({"context": ctx}))
    if args.trace and notes["layers_without_calls"]:
        print(f"error: traced layers recorded no calls: {notes['layers_without_calls']}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
