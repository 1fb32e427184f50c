"""Benchmark of the avgcorr pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is not installed: each
workload runs in a fresh `python3 bench/worker.py` process with
PYTHONPATH=src and BLAS threads capped at the CPU count, driving the program
only through `avgcorr.cli.run(argv)`. Workloads and their reasons are in
workloads.WORKLOADS and BENCHMARK.json.

Every time it reports from the workload is in nominal-host seconds: wall
time rescaled by the host's speed at that moment, as timed by a fixed
reference loop between chunks of calls (reference.py), because the shared
host's speed swings by up to 2x within seconds. Raw wall times are printed
and recorded beside them. `setup_s` is scaled the same way by the start of
a bare interpreter timed around each set-up.

With --trace 0 the run first times `setup_s` (a fresh interpreter importing
avgcorr.cli and building the parser, median of several) and then reports
the end-to-end metrics. With --trace 1 it reports the per-layer metrics of
a traced run: each layer's self time as a share of the traced pass time
(so a layer a workload never calls reads 0 rather than a time), call counts,
and the tracing overhead. Latencies are per call of `run()` (on
sigma_queries, well-formed calls only): each distinct call of a pass gets
its median latency over the run's passes, and `latency_p50_ms` and
`latency_p99_ms` rank those (nearest rank). The percentiles thus rank the
inputs, and a stall of the host that hits a few calls of one pass does not
move them. On sigma_queries a pass has about 950 well-formed calls, so
about ten lie beyond the p99; a sweep or verify pass has five calls, so
there the p99 is the slowest of the five.

Before the result it prints the run environment and a table of every
metric with its unit; the last line of stdout is the JSON result. The full
record (and, when traced, the spans) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_RUNS = 11
SETUP_CODE = "import avgcorr.cli as cli; cli.build_parser()"
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH_DIR))
from reference import Clock  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _version(package: str) -> str:
    try:
        return version(package)
    except PackageNotFoundError:
        return "not installed"


def environment(nproc: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "blas_threads": nproc,
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(env: dict) -> tuple[float, float]:
    """Median set-up time of SETUP_RUNS fresh interpreters: (nominal, raw) seconds."""
    clock = Clock("startup")
    nominal, raw = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        # no timeout, as in reference._startup: it would round the time up
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        nominal.append(raw[-1] * clock.factor())
    return statistics.median(nominal), statistics.median(raw)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(raw: dict, setup_s: float) -> dict:
    wall_s = statistics.median(p["wall_s"] for p in raw["passes"])
    ops = raw["ops"]
    # sigma_queries: latency over well-formed calls only
    good = [op for op in ops if op["kind"] != "usage_error"]
    per_call = [statistics.median(op["latency_s"]) for op in good]
    points_per_pass = sum(op["points"] for op in ops) / len(raw["passes"])
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "points_per_s": points_per_pass / wall_s,
        "latency_p50_ms": 1e3 * nearest_rank(per_call, 0.5),
        "latency_p99_ms": 1e3 * nearest_rank(per_call, 0.99),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw: dict) -> tuple[dict, dict]:
    """Per-layer metrics and the per-pass layer table behind them."""
    traced = [p for p in raw["passes"] if p["traced"]]
    plain = [p for p in raw["passes"] if not p["traced"]]
    n = len(traced)
    traced_s = sum(p["raw_s"] for p in traced)  # self times are raw seconds
    layers = raw["layers"]
    table = {name: {"calls_per_pass": v["calls"] / n, "busy_s_per_pass": v["self_s"] / n,
                    "busy_share": v["self_s"] / traced_s} for name, v in layers.items()}
    counts = raw["counts"]
    mc_s = layers["correlation.mc"]["self_s"]
    closed_requests = counts.get("closed.requests", 0)
    metrics = {f"{name}.busy_share": row["busy_share"] for name, row in table.items()
               if name not in ("op", "sweep", "correlation.dispatch")}
    metrics.update({
        "sweep.self_share": table["sweep"]["busy_share"],
        "channels.apply.calls": table["channels.apply"]["calls_per_pass"],
        "correlation.quadrature.calls": table["correlation.quadrature"]["calls_per_pass"],
        "correlation.closed_hit_ratio":
            layers["correlation.closed"]["calls"] / closed_requests if closed_requests else 0.0,
        "correlation.mc.samples_per_s": counts.get("mc.samples", 0) / mc_s if mc_s else 0.0,
        "cli.render.bytes": statistics.median(p["bytes"] for p in traced),
        "trace.pass_s": statistics.median(p["wall_s"] for p in traced),
        "trace.overhead_ratio": statistics.median(p["wall_s"] for p in traced)
                                / statistics.median(p["wall_s"] for p in plain),
    })
    return metrics, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="avgcorr benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor; below 1 only for the benchmark's own tests")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "avgcorr" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no avgcorr source tree and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "env": environment(nproc)}
    print("env " + json.dumps(record["env"]), flush=True)

    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(env)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS_DIR / f"{stem}-spans.json.gz"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)] + (["--spans", str(spans_path)] if args.trace else [])
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker ran longer than {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.splitlines()[-1])

    if args.trace:
        metrics, record["layers"] = per_layer(raw)
    else:
        metrics = end_to_end(raw, setup_s)
    missing = {m["name"] for m in declared} ^ set(metrics)
    if missing:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(missing)}", file=sys.stderr)
        return 1

    attempted = sum(len(op["latency_s"]) for op in raw["ops"])
    failed = sum(op["failed"] for op in raw["ops"])
    failures = [f for op in raw["ops"] for f in op["failures"]]
    probe_failed = [p for p in raw["probe"] if p["why"]]
    raw_wall_s = statistics.median(p["raw_s"] for p in raw["passes"])
    speed = statistics.median(raw["factors"])
    record.update(metrics=metrics, attempted=attempted, failed=failed, failures=failures[:20],
                  passes=raw["passes"], probe=raw["probe"], argv_sample=raw["argv_sample"],
                  raw_wall_s=raw_wall_s, setup_raw_s=setup_raw_s, factors=raw["factors"])
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(raw['passes'])}  "
          f"ops {attempted}  error_rate {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"raw wall per pass {raw_wall_s:.6g} s; nominal/raw time factor {speed:.4g} "
          f"(median of {len(raw['factors'])} chunks)" +
          (f"; raw setup {setup_raw_s:.6g} s" if setup_raw_s is not None else ""))
    for f in failures[:5]:
        print(f"  failed x{f['count']}: {f['why']}")
    if raw["probe"]:
        print(f"known-defect probe (non-finite rates, untimed): {len(probe_failed)}/"
              f"{len(raw['probe'])} mishandled" + (f", e.g. {probe_failed[0]['why']}"
                                                   if probe_failed else ""))
    if args.trace:
        print(f"  {'layer':24s} {'calls/pass':>11s} {'busy_s/pass':>12s} {'share':>7s}")
        for name in LAYERS:
            row = record["layers"][name]
            print(f"  {name:24s} {row['calls_per_pass']:11.1f} {row['busy_s_per_pass']:12.6f} "
                  f"{row['busy_share']:7.3f}")
    units = {m["name"]: m["unit"] for m in declared}
    for m in declared:
        print(f"  {m['name']:32s} {metrics[m['name']]:14.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
