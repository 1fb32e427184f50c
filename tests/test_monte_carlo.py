"""The Monte Carlo oracle: the blocked estimate against the one-shot loop,
the concurrent batch against one estimate at a time, and its input checks.

Every value here must be the same bytes on one CPU and on many; CI also
runs this file pinned to one CPU.
"""

import concurrent.futures
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgcorr.correlation as correlation
from avgcorr.cli import run
from avgcorr.correlation import (
    MC_BLOCK,
    MC_CHUNK,
    MC_MAX_WORKERS,
    sigma_monte_carlo,
    sigma_monte_carlo_batch,
)
from oracles import sigma_monte_carlo_one_shot

RNG = np.random.default_rng(2024)
MATRICES = {
    "random": RNG.standard_normal((3, 3)),
    "scaled_tiny": 1e-200 * RNG.standard_normal((3, 3)),
    "scaled_large": 1e100 * RNG.standard_normal((3, 3)),
    "diagonal": np.diag([-0.7, 0.4, -0.1]),
}


def as_pair(est):
    return est.value, est.error_bound


@pytest.mark.parametrize("kind", sorted(MATRICES))
@pytest.mark.parametrize("n", [1, 2, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 5])
def test_blocked_estimate_matches_one_shot_loop(kind, n):
    k = MATRICES[kind]
    assert as_pair(sigma_monte_carlo(k, n, n)) == as_pair(sigma_monte_carlo_one_shot(k, n, n))


@pytest.mark.parametrize("kind", ["random", "diagonal"])
def test_blocked_estimate_matches_one_shot_loop_past_a_chunk(kind):
    k, n = MATRICES[kind], MC_CHUNK + 1
    assert as_pair(sigma_monte_carlo(k, n, 5)) == as_pair(sigma_monte_carlo_one_shot(k, n, 5))


finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite, min_size=9, max_size=9), st.integers(0, 2**64 - 1),
       st.integers(1, 2 * MC_BLOCK + 3))
def test_blocked_estimate_matches_one_shot_loop_for_any_k_and_seed(entries, seed, n):
    k = np.reshape(entries, (3, 3))
    assert as_pair(sigma_monte_carlo(k, n, seed)) == as_pair(sigma_monte_carlo_one_shot(k, n, seed))


@pytest.mark.parametrize("k, match", [
    (np.diag([np.nan, 1.0, 1.0]), "non-finite"),
    (np.diag([np.inf, 1.0, 1.0]), "non-finite"),
    (np.full((3, 3), -np.inf), "non-finite"),
    (np.eye(2), "3x3"),
    (np.eye(4)[:3], "3x3"),
    (np.ones((2, 3, 3)), "3x3"),
])
def test_monte_carlo_rejects_a_k_that_is_not_finite_3x3(k, match):
    with pytest.raises(ValueError, match=match):
        sigma_monte_carlo(k, 10, seed=1)


@pytest.mark.parametrize("n", [2.7, 2.0, "3", None])
def test_monte_carlo_rejects_a_sample_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="integer"):
        sigma_monte_carlo(np.eye(3), n, seed=1)


@pytest.mark.parametrize("n", [0, -3])
def test_monte_carlo_rejects_a_sample_count_below_one(n):
    with pytest.raises(ValueError, match="at least one sample"):
        sigma_monte_carlo(np.eye(3), n, seed=1)


def test_monte_carlo_takes_numpy_integer_sample_counts():
    k = MATRICES["random"]
    assert as_pair(sigma_monte_carlo(k, np.int64(100), 4)) == as_pair(sigma_monte_carlo(k, 100, 4))


def batch_inputs(n_matrices=6):
    ks = RNG.standard_normal((n_matrices, 3, 3)).reshape(2, -1, 3, 3)
    seeds = [np.random.SeedSequence(11, spawn_key=(i,)) for i in range(n_matrices)]
    return ks, seeds


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_concurrent_batch_matches_one_estimate_at_a_time(cpus, monkeypatch):
    ks, seeds = batch_inputs()
    threads = []

    def traced(k, n, seed):
        threads.append(threading.get_ident())
        return sigma_monte_carlo(k, n, seed)

    monkeypatch.setattr(correlation, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(correlation, "sigma_monte_carlo", traced)
    values, bounds = sigma_monte_carlo_batch(ks, MC_BLOCK + 1, seeds)
    expect = [sigma_monte_carlo(k, MC_BLOCK + 1, seed)
              for k, seed in zip(ks.reshape(-1, 3, 3), seeds)]
    assert values.shape == bounds.shape == (2, 3)
    assert values.ravel().tolist() == [e.value for e in expect]
    assert bounds.ravel().tolist() == [e.error_bound for e in expect]
    # one CPU runs every estimate in the calling thread, more run none there
    on_caller = threads.count(threading.get_ident())
    assert on_caller == (len(seeds) if cpus == 1 else 0)
    assert len(set(threads)) <= MC_MAX_WORKERS


def test_pool_is_capped_and_only_for_estimates_of_a_block_or_more(monkeypatch):
    sizes = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(correlation, "_cpu_count", lambda: 64)
    ks, seeds = batch_inputs()
    for n in (MC_BLOCK - 1, MC_BLOCK):
        values, bounds = sigma_monte_carlo_batch(ks, n, seeds)
        assert values.shape == bounds.shape == (2, 3)
        assert values.ravel().tolist() == [sigma_monte_carlo(k, n, seed).value
                                           for k, seed in zip(ks.reshape(-1, 3, 3), seeds)]
    assert sizes == [MC_MAX_WORKERS]  # none below MC_BLOCK samples


@pytest.mark.parametrize("cpus", [1, 2])
def test_batch_raises_the_workers_error(cpus, monkeypatch):
    ks, seeds = batch_inputs()
    monkeypatch.setattr(correlation, "_cpu_count", lambda: cpus)
    with pytest.raises(ValueError, match="at least one sample"):
        sigma_monte_carlo_batch(ks, 0, seeds)
    bad = ks.copy()
    bad[1, 2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        sigma_monte_carlo_batch(bad, MC_BLOCK, seeds)
    error = ValueError("worker failed")

    def failing(k, n, seed):
        raise error

    monkeypatch.setattr(correlation, "sigma_monte_carlo", failing)
    with pytest.raises(ValueError) as raised:
        sigma_monte_carlo_batch(ks, MC_BLOCK, seeds)
    assert raised.value is error


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", str(MC_BLOCK), "--trials", "3"],
    ["sweep", "--channel", "phase", "--method", "mc", "--samples", str(MC_BLOCK), "--steps", "3"],
])
def test_worker_error_is_one_error_line(argv, monkeypatch, capsys):
    def failing(k, n, seed):
        raise ValueError("worker\nfailed")

    monkeypatch.setattr(correlation, "_cpu_count", lambda: 2)
    monkeypatch.setattr(correlation, "sigma_monte_carlo", failing)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: worker failed\n"
