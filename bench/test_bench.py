"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repo root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import LAYERS, Tracer  # noqa: E402
from worker import call  # noqa: E402
from workloads import WORKLOADS, Op, Outcome, check, defect_probe, make_ops  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == list(WORKLOADS.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--scale", "0.01")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "sigma_queries", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seed_fixes_inputs_and_size():
    for workload in WORKLOADS:
        a, b, c = (make_ops(workload, s) for s in (1, 1, 2))
        assert a == b
        assert a != c
        assert len(a) == len(c)
        assert sorted(op.kind for op in a) == sorted(op.kind for op in c)


def _run_op(op: Op) -> Outcome:
    from avgcorr.cli import run
    return call(run, op.argv)[1]


@pytest.mark.parametrize("workload", ["sweep_quadrature", "sweep_closed_json"])
def test_check_flags_perturbed_sweep_sigma(workload):
    op = make_ops(workload, 3, scale=0.05)[0]
    res = _run_op(op)
    assert check(op, res) == (None, 3 * op.params["steps"])
    if op.params["fmt"] == "csv":
        lines = res.out.splitlines()
        fields = lines[5].split(",")
        fields[6] = repr(float(fields[6]) + 1e-7)
        lines[5] = ",".join(fields)
        bad = "\n".join(lines) + "\n"
    else:
        payload = json.loads(res.out)
        payload["blocks"][1]["rows"][4]["sigma"] += 1e-7
        bad = json.dumps(payload)
    why, points = check(op, Outcome(0, bad, ""))
    assert points == 0 and why.startswith("sigma row")


def test_check_flags_perturbed_query_sigma():
    op = next(op for op in make_ops("sigma_queries", 3, scale=0.05) if op.kind == "sigma")
    res = _run_op(op)
    assert check(op, res) == (None, 1)
    value, label = res.out.split()
    why, _ = check(op, Outcome(0, f"{float(value) + 1e-7!r} {label}\n", ""))
    assert why.startswith("sigma")


def test_usage_error_rules():
    op = Op(("sigma",), "usage_error")
    assert check(op, Outcome(2, "", "usage: ...\nerror: bad\n"))[0] is None
    assert check(op, Outcome(1, "", "error: bad\n"))[0] is None
    assert check(op, Outcome(1, "", "Traceback\nValueError\n"))[0] is not None
    assert check(op, Outcome(0, "0.3 indeterminate\n", ""))[0] is not None
    assert check(op, Outcome(None, "", "", "ValueError: nan"))[0] is not None


def test_usage_errors_in_the_workload_pass_today():
    for op in make_ops("sigma_queries", 4, scale=0.1):
        if op.kind == "usage_error":
            assert check(op, _run_op(op))[0] is None, op.argv


def test_defect_probe_is_seeded_and_non_finite():
    ops = defect_probe(1)
    assert ops == defect_probe(1) and ops != defect_probe(2)
    assert all(op.argv[op.argv.index("--gamma") + 1] in ("nan", "inf") for op in ops)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    def nested():
        return traced_leaf()

    def inner():
        return traced_leaf() + traced_nested()

    traced_leaf = tracer.wrap("correlation.svd", leaf)
    traced_nested = tracer.wrap("correlation.matrix", nested)  # inside a matrix span: folded
    traced_inner = tracer.wrap("correlation.matrix", inner)
    tracer.wrap("op", lambda: traced_inner() + traced_inner())()

    totals = tracer.layer_totals()
    assert set(totals) == set(LAYERS)
    calls = [totals[k]["calls"] for k in ("op", "correlation.matrix", "correlation.svd")]
    assert calls == [1, 2, 4]
    root = tracer.spans[0]
    assert sum(v["self_s"] for v in totals.values()) == pytest.approx((root[6] - root[5]) * 1e-9)
    assert all(v["self_s"] >= 0 for v in totals.values())
    layer_of = {s[0]: s[3] for s in tracer.spans}
    svd_parents = {layer_of[s[1]] for s in tracer.spans if s[3] == "correlation.svd"}
    assert svd_parents == {"correlation.matrix"}
    assert all(s[2] == 0 for s in tracer.spans)


def test_clock_scales_chunks_to_nominal_seconds(monkeypatch):
    from reference import LOOPS, Clock

    clock = Clock("interp")
    nominal = LOOPS["interp"][1]
    clock.last_s = 2.0 * nominal
    monkeypatch.setattr(clock, "sample", lambda: 4.0 * nominal)
    assert clock.factor() == pytest.approx(1.0 / 3.0)  # host ran at a third of nominal speed
    assert clock.last_s == 4.0 * nominal
