"""Fixed reference loops that measure how fast the host runs right now.

The benchmark shares a few cores of a host whose speed swings by up to 2x
within seconds, as other tenants load the cores and caches it shares. The
worker times one reference loop after every chunk of workload calls (about
0.1 s of calls, or one call if a call is longer) and scales each call's
latency by NOMINAL_S / (mean of the reference times before and after its
chunk). A reported time is thus in nominal-host seconds: the wall time the
call would take on a host that runs the reference loop in NOMINAL_S.

Each loop matches the work it scales: `interp` is interpreter-bound (4x4
numpy calls, a dict, float formatting) like the sweeps and the one-shot
queries, `vector` streams large arrays like the Monte Carlo oracle, and
`startup` starts a bare interpreter, as the set-up time starts one before
importing the program. None touches the program, so a change to the
program cannot move them.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

INTERP_ROUNDS = 400
VECTOR_ROUNDS = 4
VECTOR_ROWS = 65536


def _interp() -> float:
    rng = np.random.default_rng(12345)
    acc = 0.0
    table: dict[str, float] = {}
    parts = []
    for i in range(INTERP_ROUNDS):
        m = rng.standard_normal((4, 4))
        r = np.kron(m[:2, :2], m[2:, 2:])
        acc += float(np.einsum("ij,ij->", r, r.T))
        acc += float(np.linalg.svd(m[:3, :3], compute_uv=False).sum())
        table[f"k{i & 63}"] = math.sin(acc)
        parts.append(f"{acc:.12g}")
    return acc + len(",".join(parts)) + sum(table.values())


def _vector() -> float:
    rng = np.random.default_rng(12345)
    k = np.diag([0.9, 0.5, 0.3])
    acc = 0.0
    for _ in range(VECTOR_ROUNDS):
        a = rng.standard_normal((VECTOR_ROWS, 3))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        acc += float(np.abs(np.sum((a @ k) * a[::-1], axis=1)).sum())
    return acc


def _startup() -> None:
    # no timeout: with one, subprocess polls for the exit in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "pass"], check=True)


# kind -> (loop, its time in seconds on the nominal host: about the lower
# quartile of repeated timings on a 2-vCPU Intel Xeon guest, Python 3.11, numpy 2.4)
LOOPS = {
    "interp": (_interp, 0.016),
    "vector": (_vector, 0.032),
    "startup": (_startup, 0.060),
}


class Clock:
    """Times reference loops of one kind and turns wall seconds of the
    chunk between two of them into nominal-host seconds."""

    def __init__(self, kind: str):
        self.loop, self.nominal_s = LOOPS[kind]
        self.loop()  # warm-up, untimed
        self.last_s = self.sample()

    def sample(self) -> float:
        start = time.perf_counter()
        self.loop()
        return time.perf_counter() - start

    def factor(self) -> float:
        """Time the loop again; the scale for the chunk since the last call."""
        before, self.last_s = self.last_s, self.sample()
        return self.nominal_s / (0.5 * (before + self.last_s))
