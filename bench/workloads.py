"""Workload inputs and output checks for the avgcorr benchmark.

Every input is an argv list for `avgcorr.cli.run`, generated from the run
seed: the same seed gives the same argv lists, another seed gives other
values of the same size. The checks compare each printed Sigma with
0.5 * scipy.special.elliprg(alpha^2, beta^2, gamma^2) of the analytic damped
singular triple, so they share no code with the program. scipy is imported
only inside the check functions, after the timed passes have ended.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

# Why each workload exists; BENCHMARK.json carries the same text.
WORKLOADS = {
    "sweep_quadrature": "amplitude sweep, quadrature, CSV: the estimator "
                        "and Kraus path dominate, so estimator gains show",
    "sweep_closed_json": "phase sweep, closed form, JSON: estimator is ~2%, "
                         "Kraus path and JSON rendering dominate",
    "verify_mc": "verify with 10^6 Monte Carlo samples: isolates the "
                 "oracle and memory",
    "sigma_queries": "1000 one-shot sigma calls, 5% usage errors: CLI "
                     "parsing dominates and n=1 pipeline cost shows",
}

# Reference loop (reference.LOOPS) whose instruction mix matches each workload.
REFERENCE = {
    "sweep_quadrature": "interp",
    "sweep_closed_json": "interp",
    "verify_mc": "vector",
    "sigma_queries": "interp",
}

# A sweep pass is SWEEP_CALLS calls of SWEEP_RATES x SWEEP_STEPS points
# (6000 points), and a verify pass VERIFY_CALLS calls of VERIFY_TRIALS
# trials (10 trials): calls of about 0.5 s let the reference loop be timed
# between them often enough to follow the host's speed.
SWEEP_CALLS = 5
SWEEP_STEPS = 400
SWEEP_T_MAX = 8.0
SWEEP_RATES = 3
VERIFY_CALLS = 5
VERIFY_SAMPLES = 1_000_000
VERIFY_TRIALS = 2
QUERIES = 1000
MALFORMED_SHARE = 0.05

# Thresholds and tolerances of the documented output contract.
CLASSICAL_MAX = 0.25
NONCLASSICAL_MIN = 0.5 / math.sqrt(2.0)
SIGMA_TOL = 1e-9            # absolute, Sigma lies in [0, 1/2]
PRINTED_REL_TOL = 1e-11     # 12 significant digits
CSV_HEADER = "gamma,t,p,alpha,beta,gamma_sv,sigma,classification"
CHANNELS = ("phase", "amplitude")


@dataclass(frozen=True)
class Op:
    """One call of `run(argv)` and what its output must show."""

    argv: tuple[str, ...]
    kind: str  # "sweep", "verify", "sigma" or "usage_error"
    params: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass(frozen=True)
class Outcome:
    """What one call returned: exit code (None if it raised), streams, exception."""

    rc: int | None
    out: str
    err: str
    exc: str | None = None


def _num(x: float) -> str:
    return repr(float(x))


def _sweep_op(rng, channel: str, method: str, fmt: str, scale: float) -> Op:
    gammas = tuple(float(g) for g in rng.uniform(0.2, 3.0, SWEEP_RATES))
    c = float(rng.uniform(0.05, 0.95))
    steps = max(2, round(SWEEP_STEPS * scale))
    argv = ("sweep", "--channel", channel, "--method", method,
            "--c", _num(c), "--gammas", ",".join(_num(g) for g in gammas),
            "--t-max", _num(SWEEP_T_MAX), "--steps", str(steps), "--format", fmt)
    return Op(argv, "sweep", dict(channel=channel, c=c, gammas=gammas,
                                  t_max=SWEEP_T_MAX, steps=steps, fmt=fmt))


def _verify_op(rng, scale: float) -> Op:
    samples = max(1000, round(VERIFY_SAMPLES * scale))
    seed = int(rng.integers(0, 2**31))
    argv = ("verify", "--samples", str(samples), "--trials", str(VERIFY_TRIALS),
            "--seed", str(seed))
    return Op(argv, "verify", dict(trials=VERIFY_TRIALS))


def _sigma_op(rng, channel: str, form: str, method: str) -> Op:
    c = float(rng.uniform(0.0, 1.0))
    argv = ["sigma", "--c", _num(c), "--channel", channel, "--method", method]
    if form == "p":
        p = float(rng.uniform(0.0, 1.0))
        argv += ["--p", _num(p)]
    else:
        gamma, t = float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.0, 8.0))
        argv += ["--gamma", _num(gamma), "--t", _num(t)]
        p = -math.expm1(-gamma * t)
    return Op(tuple(argv), "sigma", dict(channel=channel, c=c, p=p))


def _usage_error_op(rng, kind: str) -> Op:
    """A documented usage error that the CLI rejects today."""
    c, p = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0))
    outside = float(rng.uniform(0.01, 1.0))
    outside = -outside if rng.random() < 0.5 else 1.0 + outside
    channel = str(rng.choice(CHANNELS))
    argv = ["sigma", "--channel", channel]
    if kind == "c_range":
        argv += ["--c", _num(outside), "--p", _num(p)]
    elif kind == "p_range":
        argv += ["--c", _num(c), "--p", _num(outside)]
    else:  # --p together with --gamma/--t
        argv += ["--c", _num(c), "--p", _num(p), "--gamma", "1.0", "--t", "1.0"]
    return Op(tuple(argv), "usage_error")


def _sigma_queries(rng, scale: float) -> list[Op]:
    n = max(40, round(QUERIES * scale))
    n_bad = max(3, round(n * MALFORMED_SHARE))
    cells = [(ch, form, m) for ch in CHANNELS for form in ("p", "gamma_t")
             for m in ("closed", "quadrature")]
    # fixed count per cell, so the latency mix is the same for every seed
    ops = [_sigma_op(rng, *cells[i % len(cells)]) for i in range(n - n_bad)]
    bad_kinds = ("c_range", "p_range", "p_with_gamma")
    ops += [_usage_error_op(rng, bad_kinds[i % 3]) for i in range(n_bad)]
    return [ops[i] for i in rng.permutation(len(ops))]


def make_ops(workload: str, seed: int, scale: float = 1.0) -> list[Op]:
    """The ops of one pass; every pass of a run repeats them in order."""
    key = list(WORKLOADS).index(workload)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
    if workload == "sweep_quadrature":
        return [_sweep_op(rng, "amplitude", "quadrature", "csv", scale)
                for _ in range(SWEEP_CALLS)]
    if workload == "sweep_closed_json":
        return [_sweep_op(rng, "phase", "closed", "json", scale) for _ in range(SWEEP_CALLS)]
    if workload == "verify_mc":
        return [_verify_op(rng, scale) for _ in range(VERIFY_CALLS)]
    if workload == "sigma_queries":
        return _sigma_queries(rng, scale)
    raise ValueError(f"unknown workload {workload!r}")


def defect_probe(seed: int) -> list[Op]:
    """Non-finite rates: usage errors that today escape `run()` as a
    ValueError or print a value (ROADMAP open item 4). Run untimed, apart
    from the workload, and reported on their own."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(99,)))
    ops = []
    cases = (("nan", rng.uniform(0.0, 8.0)), ("inf", 0.0), ("inf", rng.uniform(0.1, 8.0)))
    for gamma, t in cases:
        for channel in CHANNELS:
            argv = ("sigma", "--c", _num(rng.uniform(0.0, 1.0)), "--channel", channel,
                    "--gamma", gamma, "--t", _num(t))
            ops.append(Op(argv, "usage_error"))
    return ops


# ---------------------------------------------------------------- checks

def reference(channel: str, c: float, p) -> tuple[np.ndarray, np.ndarray]:
    """Analytic damped triple (descending, shape (..., 3)) and its Sigma."""
    from scipy.special import elliprg

    p = np.asarray(p, dtype=float)
    shrunk = 2.0 * c * math.sqrt(1.0 - c * c) * (1.0 - p)
    third = np.ones_like(p) if channel == "phase" else np.abs(1.0 - 2.0 * p)
    triple = -np.sort(-np.stack([shrunk, shrunk, third], axis=-1), axis=-1)
    sq = triple**2
    return triple, 0.5 * elliprg(sq[..., 0], sq[..., 1], sq[..., 2])


def label(sigma: np.ndarray) -> np.ndarray:
    return np.where(sigma <= CLASSICAL_MAX, "classical_compatible",
                    np.where(sigma > NONCLASSICAL_MIN, "nonclassical", "indeterminate"))


def _near_threshold(sigma: np.ndarray) -> np.ndarray:
    return np.minimum(np.abs(sigma - CLASSICAL_MAX), np.abs(sigma - NONCLASSICAL_MIN)) <= SIGMA_TOL


def _compare_rows(params: dict, cols: dict) -> str | None:
    """First disagreement between parsed sweep rows and the reference, or None."""
    steps, gammas = params["steps"], params["gammas"]
    if len(cols["sigma"]) != steps * len(gammas):
        return f"{len(cols['sigma'])} rows, expected {steps * len(gammas)}"
    g = np.repeat(gammas, steps)
    t = np.tile(np.linspace(0.0, params["t_max"], steps), len(gammas))
    p = -np.expm1(-g * t)
    triple, sigma = reference(params["channel"], params["c"], p)
    expect = dict(gamma=g, t=t, p=p, alpha=triple[:, 0], beta=triple[:, 1],
                  gamma_sv=triple[:, 2], sigma=sigma)
    for name, want in expect.items():
        got = cols[name]
        tol = SIGMA_TOL if name in ("alpha", "beta", "gamma_sv", "sigma") else 0.0
        bad = np.abs(got - want) > tol + PRINTED_REL_TOL * np.abs(want)
        if bad.any():
            i = int(np.argmax(bad))
            return f"{name} row {i}: got {got[i]!r}, expected {want[i]!r}"
    bad = (cols["classification"] != label(sigma)) & ~_near_threshold(sigma)
    if bad.any():
        i = int(np.argmax(bad))
        return f"classification row {i}: got {cols['classification'][i]}, sigma {sigma[i]!r}"
    return None


def _parse_sweep(text: str, fmt: str) -> dict:
    names = CSV_HEADER.split(",")
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError(f"bad CSV header {lines[:1]!r}")
        rows = [line.split(",") for line in lines[1:]]
    else:
        payload = json.loads(text)
        rows = [[block["gamma"]] + [row[n] for n in names[1:]]
                for block in payload["blocks"] for row in block["rows"]]
    return {n: np.array([r[i] for r in rows], dtype=float if i < 7 else str)
            for i, n in enumerate(names)}


_VERIFY_TRIAL = re.compile(
    r"trial +\d+: quadrature=(\S+) mc=(\S+) stderr=(\S+) gap/stderr= *\S+ ok$")


def check(op: Op, res: Outcome) -> tuple[str | None, int]:
    """(None, Sigma values delivered) if the outcome is right, else (reason, 0)."""
    if op.kind == "usage_error":
        if res.exc is not None:
            return f"raised {res.exc}", 0
        one_line = res.err.count("\n") == 1 and res.err.endswith("\n")
        if res.rc == 2 or (res.rc == 1 and one_line):
            return None, 0
        return f"exit {res.rc} with {res.err.count(chr(10))} stderr lines", 0
    if res.exc is not None:
        return f"raised {res.exc}", 0
    if res.rc != 0:
        return f"exit {res.rc}: {res.err.strip()[-200:]}", 0
    try:
        if op.kind == "sweep":
            why = _compare_rows(op.params, _parse_sweep(res.out, op.params["fmt"]))
            return why, 0 if why else op.params["steps"] * len(op.params["gammas"])
        if op.kind == "verify":
            return _check_verify(op.params["trials"], res.out)
        return _check_sigma(op.params, res.out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {exc!r}", 0


def _check_sigma(params: dict, out: str) -> tuple[str | None, int]:
    value_text, got_label = out.split()
    value = float(value_text)
    _, sigma = reference(params["channel"], params["c"], params["p"])
    if abs(value - sigma) > SIGMA_TOL:
        return f"sigma {value!r}, expected {float(sigma)!r}", 0
    if got_label != label(sigma) and not _near_threshold(sigma):
        return f"label {got_label}, sigma {float(sigma)!r}", 0
    return None, 1


def _check_verify(trials: int, out: str) -> tuple[str | None, int]:
    lines = out.splitlines()
    matches = [_VERIFY_TRIAL.match(line) for line in lines[:-1]]
    if len(lines) != trials + 1 or not all(matches):
        return f"expected {trials} ok trial lines and a summary, got {lines!r:.200}", 0
    for m in matches:
        quad, mc, stderr = (float(x) for x in m.groups())
        if abs(quad - mc) > 4.0 * stderr and quad != mc:
            return f"quadrature {quad} and mc {mc} differ by more than 4 x {stderr}", 0
    if "all within 4 standard errors" not in lines[-1]:
        return f"summary line {lines[-1]!r}", 0
    return None, 2 * trials
