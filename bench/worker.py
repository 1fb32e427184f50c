"""One run of one benchmark workload, in a fresh process.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and BLAS
threads capped. It makes the workload's ops from the seed, makes one
untimed warm-up call, then repeats passes over the ops as a closed loop
(each call starts when the previous one returns) until `--seconds` have
passed. After each chunk of calls it times a reference loop and rescales
the chunk's latencies to nominal-host seconds (see reference.py); the raw
wall time of each pass is kept beside them. Peak memory is read before the
output checks import scipy. With `--trace 1` untraced and traced passes
alternate, so the tracing overhead is measured in the same process. Prints
one JSON object of raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from reference import Clock
from tracing import NAMESPACES, ROOT_LAYER, Tracer
from workloads import REFERENCE, Outcome, check, defect_probe, make_ops

CHUNK_S = 0.1  # calls between two reference timings, in wall seconds


def call(run, argv) -> tuple[float, Outcome]:
    out, err = io.StringIO(), io.StringIO()
    exc = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run(list(argv))
        except Exception as e:  # an escaped exception is a failed op, not a crash
            rc, exc = None, f"{type(e).__name__}: {e}"
    elapsed = time.perf_counter() - start
    return elapsed, Outcome(rc, out.getvalue(), err.getvalue(), exc)


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float,
            spans_path: Path | None = None) -> dict:
    ops = make_ops(workload, seed, scale)
    from avgcorr.cli import run

    tracer = Tracer() if trace else None
    modules = [importlib.import_module(name) for name in NAMESPACES]
    call(run, next(op for op in ops if op.kind != "usage_error").argv)  # warm-up, untimed
    clock = Clock(REFERENCE[workload])

    latencies = [[] for _ in ops]        # per op, per pass, nominal-host seconds
    outcomes = [Counter() for _ in ops]  # per op, distinct outcomes
    passes = []                          # {"traced", "wall_s", "raw_s", "bytes"}
    factors = []                         # one per chunk
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        fn = tracer.wrap(ROOT_LAYER, run) if traced else run
        wall, raw, nbytes = 0.0, 0.0, 0
        chunk, chunk_start = [], time.perf_counter()
        with tracer.patched(modules) if traced else contextlib.nullcontext():
            for i, op in enumerate(ops):
                elapsed, res = call(fn, op.argv)
                nbytes += len(res.out.encode())
                outcomes[i][res] += 1
                chunk.append((i, elapsed))
                if time.perf_counter() - chunk_start < CHUNK_S and i + 1 < len(ops):
                    continue
                factor = clock.factor()
                factors.append(factor)
                for j, elapsed in chunk:
                    latencies[j].append(elapsed * factor)
                    wall += elapsed * factor
                    raw += elapsed
                chunk, chunk_start = [], time.perf_counter()
        passes.append({"traced": traced, "wall_s": wall, "raw_s": raw, "bytes": nbytes})
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(passes) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops_out = []
    for op, lat, seen in zip(ops, latencies, outcomes):
        failures, points = [], 0
        for res, count in seen.items():
            why, delivered = check(op, res)
            points += delivered * count
            if why:
                failures.append({"count": count, "why": why})
        ops_out.append({"kind": op.kind, "latency_s": lat, "points": points,
                        "failed": sum(f["count"] for f in failures), "failures": failures})

    probe = []
    if workload == "sigma_queries":
        for op in defect_probe(seed):
            why, _ = check(op, call(run, op.argv)[1])
            probe.append({"argv": op.argv, "why": why})

    result = {"passes": passes, "ops": ops_out, "peak_rss_mb": peak_rss_mb,
              "probe": probe, "argv_sample": ops[0].argv, "factors": factors}
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        result["counts"] = dict(tracer.counts)
        if spans_path is not None:
            tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.scale, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
