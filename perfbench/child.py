"""One fresh process of a benchmark run.

Usage: python3 perfbench/child.py '<json spec>' with the package's ``src``
directory on PYTHONPATH.  The spec's mode is

  setup  time ``import shapovalov`` and print the seconds;
  run    execute operations of a workload and print one JSON line per
         operation, then a final ``{"end": ...}`` line.

A run executes whole rounds until ``seconds`` have passed, or exactly
``rounds`` rounds, or the single operation ``only = [round, index]``.
The final line also carries each operation's seconds at the reference
machine speed (see calibration.py).
"""

import sys
import time

_start = time.perf_counter()
import shapovalov  # noqa: E402  (the import is what setup_s measures)

SETUP_S = time.perf_counter() - _start

import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import calibration  # noqa: E402


def emit(obj):
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def main(spec):
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(shapovalov.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported shapovalov from {shapovalov.__file__}, not from {src}")
    if spec["mode"] == "setup":
        emit({"end": {"setup_s": SETUP_S, "cal": calibration.measure()}})
        return

    import ops
    import workloads

    work = workloads.WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    memo = {}
    timings = []
    rounds_done = 0
    only = spec.get("only")
    with calibration.Sampler() as speed:
        begin = time.perf_counter()
        try:
            for r, ops_of_round in enumerate(work.rounds(spec["seed"])):
                for k, op in enumerate(ops_of_round):
                    if only is not None and [r, k] != only:
                        continue
                    if tracer:
                        tracer.op = f"{r}:{k}"
                    speed.between()
                    start, seconds, error = ops.execute(op, memo)
                    timings.append((start, seconds))
                    emit({"round": r, "index": k, "kind": op["kind"], "label": workloads.label(op),
                          "control": op.get("control", False), "s": seconds, "error": error})
                rounds_done = r + 1
                if only is not None:
                    if r >= only[0]:
                        break
                elif spec.get("rounds") is not None:
                    if rounds_done >= spec["rounds"]:
                        break
                elif time.perf_counter() - begin >= spec["seconds"]:
                    break
            wall = time.perf_counter() - begin
        finally:
            if tracer:
                tracer.restore()
    end = {"wall_s": wall, "rounds": rounds_done, "setup_s": SETUP_S,
           "cal_median": speed.median(),
           "normalised_s": [speed.normalise(t, s) for t, s in timings],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        end["trace"] = tracer.summary()
        if spec.get("spans_out"):
            os.makedirs(os.path.dirname(spec["spans_out"]), exist_ok=True)
            with gzip.open(spec["spans_out"], "wt") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh)
    emit({"end": end})


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
