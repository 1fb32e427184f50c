"""The Monte Carlo oracle: the estimate against the plain statement of its
stream in `oracles.py` and against pinned values, the stream's Marsaglia
points, on their 2^-31 lattice, in distribution, the step it shares with
R_G (E_b |v . b| = |v|/2) by itself, landmark and random-state values
within their standard errors, the
double-sphere average as the oracle's own oracle, K = -I exactly, the
estimate's exact scaling with K, a batch sharing one seed's directions
against each matrix alone, its chunks on the thread pool, and its input
checks.

Every value here must be the same bytes on one CPU and on many; the tests
that patch `correlation._cpu_count` run both paths in one process.
"""

import concurrent.futures
import math
import os
import re
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgcorr.correlation as correlation
from avgcorr import correlation_matrix, random_density, sigma_for_state
from avgcorr.cli import run
from avgcorr.correlation import (MC_BLOCK, MC_CHUNK, _singular_values, sigma_monte_carlo_batch,
                                 sigma_rg_batch)
from avgcorr.states import RuleError
from oracles import marsaglia_points, sigma_double_sphere, sigma_monte_carlo_one_shot

RNG = np.random.default_rng(2024)
MATRICES = {
    "random": RNG.standard_normal((3, 3)),
    "scaled_tiny": 1e-200 * RNG.standard_normal((3, 3)),
    "scaled_large": 1e100 * RNG.standard_normal((3, 3)),
    "diagonal": np.diag([-0.7, 0.4, -0.1]),
}


def as_pair(est):
    """(value, standard error) as floats, of an estimate pair or an oracle's."""
    return tuple(map(float, est))


@pytest.mark.parametrize("kind", sorted(MATRICES))
@pytest.mark.parametrize("n", [1, 2, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 3 * MC_BLOCK + 5,
                               MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 5])
def test_blocked_estimate_matches_one_shot_loop(kind, n):
    k = MATRICES[kind]
    assert as_pair(sigma_monte_carlo_batch(k, n, n)) == as_pair(
        sigma_monte_carlo_one_shot(k, n, n))


@pytest.mark.parametrize("kind", ["random", "diagonal"])
def test_blocked_estimate_matches_one_shot_loop_past_a_million(kind):
    k, n = MATRICES[kind], 10**6 + 1
    assert as_pair(sigma_monte_carlo_batch(k, n, 5)) == as_pair(
        sigma_monte_carlo_one_shot(k, n, 5))


# (n, seed, value, standard error) of sigma_monte_carlo_batch(PINNED_K, n, seed) on
# the chunked Marsaglia stream, one PCG64 word per candidate and one axis per
# sample: these bytes must not move
PINNED_K = np.array([[0.3, -0.2, 0.1], [0.05, -0.6, 0.25], [-0.15, 0.4, 0.7]])
PINNED = [
    (1, 3, "0x1.7294e8cd5f4cfp-2", "0x0.0p+0"),
    (2, 3, "0x1.2ff3bc773f4d8p-2", "0x1.3977c640ed743p-5"),
    (1000, 17, "0x1.4021cdfa7ed2cp-2", "0x1.2f5cc3c5ccdfdp-9"),
    (MC_BLOCK - 1, 42, "0x1.405634b960303p-2", "0x1.26f3d143ff965p-11"),
    (MC_BLOCK, 2024, "0x1.40ab33d2d53fdp-2", "0x1.25d5f8aebcc0bp-11"),
    (MC_CHUNK + 1, 7, "0x1.404d5ef4608b4p-2", "0x1.9e262d64c14cdp-13"),
    (3 * MC_CHUNK + 5, 8, "0x1.409c8dec39539p-2", "0x1.de67a45b77dedp-14"),
]


@pytest.mark.parametrize("n, seed, value, stderr",
                         [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in PINNED])
def test_estimates_keep_their_pinned_bytes(n, seed, value, stderr):
    pair = as_pair(sigma_monte_carlo_batch(PINNED_K, n, seed))
    assert pair == (float.fromhex(value), float.fromhex(stderr))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [-1000, -560, 0, 500, 1000])
def test_estimate_scales_with_k_by_powers_of_two(j):
    # K is scaled into [1/2, 1) before any square, so a power of two moves
    # the value and its standard error exactly, and nothing under- or overflows
    value, stderr = sigma_monte_carlo_batch(PINNED_K, 1000, 3)
    scaled = sigma_monte_carlo_batch(2.0**j * PINNED_K, 1000, 3)
    assert as_pair(scaled) == (2.0**j * value, 2.0**j * stderr)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-170, 1e170, 1e-300, 1e300])
def test_standard_error_survives_any_finite_scale(scale):
    base_value, base_stderr = sigma_monte_carlo_batch(PINNED_K, 1000, 3)
    value, stderr = sigma_monte_carlo_batch(scale * PINNED_K, 1000, 3)
    assert stderr > 0.0
    assert value == pytest.approx(scale * base_value, rel=1e-12)
    assert stderr == pytest.approx(scale * base_stderr, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_zero_k_is_exactly_zero():
    value, stderr = sigma_monte_carlo_batch(np.zeros((3, 3)), 1000, 3)
    assert as_pair((value, stderr)) == (0.0, 0.0)
    assert math.copysign(1.0, value) == math.copysign(1.0, stderr) == 1.0


# The first 2^20 axes of the estimate's stream at a fixed seed, in
# distribution: Marsaglia points on the 2^-31 lattice of one PCG64 word per
# candidate. The bounds hold for any exactly uniform sampler, normalised
# normal triples included, and a misread half (its sign or its place)
# would show in them; each check fails by chance with a probability below
# 1e-5.
POINTS = marsaglia_points(np.random.PCG64(8).random_raw(1_400_000))[:, :2**20]


def test_marsaglia_points_are_unit_vectors():
    # |a|^2 = 4q(1-q) + (1-2q)^2 = 1, up to the rounding of a few operations
    assert np.max(np.abs(np.einsum("ij,ij->j", POINTS, POINTS) - 1.0)) <= 8 * 2.0**-52


def test_marsaglia_points_have_mean_zero_and_second_moment_a_third():
    n = POINTS.shape[1]
    assert n == 2**20
    # each coordinate has variance 1/3; x^2 has 1/5 - 1/9 = 4/45, xy has 1/15
    assert np.all(np.abs(POINTS.mean(axis=1)) < 4.5 * np.sqrt(1 / 3 / n))
    second = POINTS @ POINTS.T / n
    spread = np.sqrt(np.where(np.eye(3, dtype=bool), 4 / 45, 1 / 15) / n)
    assert np.all(np.abs(second - np.eye(3) / 3) < 4.5 * spread)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_marsaglia_coordinates_are_uniform_on_minus_one_one(axis):
    # Archimedes: each coordinate of a uniform point on the sphere is uniform
    # on [-1, 1]; z = 1 - 2q is the one the method draws directly. 63.7 is
    # the 1e-6 upper quantile of chi-squared with 19 degrees of freedom.
    counts = np.histogram(POINTS[axis], bins=20, range=(-1.0, 1.0))[0]
    expected = POINTS.shape[1] / 20
    assert np.sum((counts - expected) ** 2 / expected) < 63.7


UNIT = np.array([2.0, -3.0, 6.0]) / 7.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v", [UNIT, 1e-300 * UNIT, 1e300 * UNIT, [0.0, 0.0, 1.0],
                               [-1e300, 0.0, 0.0], [0.0, 1e-300, 0.0]],
                         ids=["unit", "tiny", "huge", "z", "huge_x", "tiny_y"])
def test_mean_projection_on_a_uniform_axis_is_half_the_length(v):
    # the one step the estimate shares with R_G: for a fixed a, v = K^T a,
    # and E_b |v . b| = |v| E|cos| = |v|/2 over uniform b, checked here over
    # Marsaglia points, with no estimator code in between
    ratios = np.abs(np.asarray(v) @ POINTS) / math.hypot(*v)
    stderr = ratios.std(ddof=1) / np.sqrt(POINTS.shape[1])
    assert abs(ratios.mean() - 0.5) < 4.5 * stderr


U, V = np.array([0.3, -0.4, 1.2]), np.array([-0.5, 0.1, 0.2])


@pytest.mark.parametrize("k, sigma", [
    (np.eye(3), 0.5),  # E|cos| over the sphere
    (np.diag([1.0, 0.0, 0.0]), 0.25),  # E|a_1| E|b_1|
    (np.outer(U, V), np.linalg.norm(U) * np.linalg.norm(V) / 4),  # E|a.u| E|v.b|
], ids=["identity", "one_axis", "rank_one"])
def test_landmarks_within_four_standard_errors(k, sigma):
    value, stderr = sigma_monte_carlo_batch(k, 200_000, 31)
    assert abs(value - sigma) < 4.0 * stderr


def test_random_states_within_four_standard_errors():
    z = []
    for child in np.random.SeedSequence(2718).spawn(16):
        state_seq, mc_seq = child.spawn(2)
        rho = random_density(np.random.default_rng(state_seq))
        value, stderr = sigma_monte_carlo_batch(correlation_matrix(rho), 100_000, mc_seq)
        z.append((value - sigma_for_state(rho)[0]) / stderr)
    assert np.max(np.abs(z)) < 4.0, z


def verify_states(trials=20, seed=42):
    """The correlation matrices of `verify`'s default trials."""
    return np.array([
        correlation_matrix(random_density(np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(i, 0)))))
        for i in range(trials)])


def test_conditional_and_double_sphere_estimates_agree_on_verify_states():
    # the double-sphere average shares no step with R_G: both estimates
    # must meet R_G and each other, and averaging over b exactly must leave
    # the smaller standard error on every state
    ks = verify_states()
    exact = sigma_rg_batch(*_singular_values(ks).T)
    n = 200_000
    values, stderrs = sigma_monte_carlo_batch(ks, n, 5)
    for i, (k, rg, value, stderr) in enumerate(zip(ks, exact, values, stderrs)):
        direct = sigma_double_sphere(k, n, np.random.SeedSequence(6, spawn_key=(i,)))
        assert abs(value - rg) <= 4.0 * stderr, i
        assert abs(direct.value - rg) <= 4.0 * direct.error_bound, i
        assert abs(value - direct.value) <= 4.0 * math.hypot(stderr, direct.error_bound), i
        assert stderr < direct.error_bound, i


@pytest.mark.parametrize("n, seed", [(100, 0), (1000, 1), (MC_BLOCK + 1, 2), (100_000, 3),
                                     (MC_CHUNK + 1, 4), (10**6, 42)])
def test_minus_identity_gives_exactly_one_half(n, seed):
    # every |K^T a| is 1 to an ulp or two, and the samples are summed as
    # their distances from the shift sqrt(|K|_F^2 / 3), exactly 1 here, so
    # the ulps average away instead of piling up in a sum of n values near 1
    assert sigma_monte_carlo_batch(-np.eye(3), n, seed)[0] == 0.5


finite = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite, min_size=9, max_size=9), st.integers(0, 2**64 - 1),
       st.integers(1, 2 * MC_BLOCK + 3))
def test_blocked_estimate_matches_one_shot_loop_for_any_k_and_seed(entries, seed, n):
    k = np.reshape(entries, (3, 3))
    assert as_pair(sigma_monte_carlo_batch(k, n, seed)) == as_pair(
        sigma_monte_carlo_one_shot(k, n, seed))


@pytest.mark.parametrize("k, match", [
    (np.diag([np.nan, 1.0, 1.0]), "non-finite"),
    (np.diag([np.inf, 1.0, 1.0]), "non-finite"),
    (np.full((3, 3), -np.inf), "non-finite"),
    (np.eye(2), "3x3"),
    (np.eye(4)[:3], "3x3"),
    (np.ones((2, 3, 4)), "3x3"),
])
def test_monte_carlo_rejects_a_k_that_is_not_finite_3x3(k, match):
    with pytest.raises(ValueError, match=match):
        sigma_monte_carlo_batch(k, 10, seed=1)


def raised_by(info) -> list[str]:
    """The batch's frame and the frames below it, down to the one that
    raised the error in `info`."""
    names = [entry.name for entry in info.traceback]
    return names[names.index("sigma_monte_carlo_batch"):]


@pytest.mark.parametrize("n", [2.7, 2.0, "3", None])
def test_monte_carlo_rejects_a_sample_count_that_is_not_an_integer(n):
    message = f"^the sample count must be an integer, got {re.escape(repr(n))}$"
    with pytest.raises(RuleError, match=message) as info:
        sigma_monte_carlo_batch(np.eye(3), n, seed=1)
    assert raised_by(info) == ["sigma_monte_carlo_batch", "check_count"]  # the rule's one owner


@pytest.mark.parametrize("n", [0, -3])
def test_monte_carlo_rejects_a_sample_count_below_one(n):
    with pytest.raises(RuleError, match=f"^the sample count must be >= 1, got {n}$") as info:
        sigma_monte_carlo_batch(np.eye(3), n, seed=1)
    assert raised_by(info) == ["sigma_monte_carlo_batch", "check_count"]  # the rule's one owner


def test_monte_carlo_takes_numpy_integer_sample_counts():
    k = MATRICES["random"]
    assert as_pair(sigma_monte_carlo_batch(k, np.int64(100), 4)) == as_pair(
        sigma_monte_carlo_batch(k, 100, 4))


# integer scalar forms of the sample count and the seed
INT_FORMS = {
    "int": int,
    "np.int64": np.int64,
    "0-d array": np.asarray,
    "array entry": lambda x: np.array([x], dtype=np.int32)[0],
}


@pytest.mark.parametrize("knob, good, bad, message", [
    ("n_samples", 100, 0, "the sample count must be >= 1, got 0"),
    ("seed", 4, -1, "seed must be >= 0, got -1"),
], ids=["n_samples", "seed"])
@pytest.mark.parametrize("form", INT_FORMS)
def test_monte_carlo_takes_its_integers_in_every_scalar_form(form, knob, good, bad, message):
    # each form gives its int twin's bytes and its int twin's error message
    k, to = MATRICES["random"], INT_FORMS[form]
    args = {"n_samples": 100, "seed": 4}
    want = as_pair(sigma_monte_carlo_batch(k, **args))
    assert as_pair(sigma_monte_carlo_batch(k, **{**args, knob: to(good)})) == want
    with pytest.raises(RuleError, match=f"^{message}$"):
        sigma_monte_carlo_batch(k, **{**args, knob: to(bad)})


@pytest.mark.parametrize("spawned", [False, True], ids=["root", "spawned"])
def test_seed_sequence_is_read_by_the_fields_that_rebuild_it(spawned):
    # a SeedSequence's entropy, spawn key and pool size are all the batch
    # reads: one that has spawned children gives the bytes of its fresh
    # rebuild, on every chunk
    seq = np.random.SeedSequence(3)
    if spawned:
        seq = seq.spawn(2)[1]
    seq.spawn(5)
    fields = dict(entropy=seq.entropy, spawn_key=seq.spawn_key, pool_size=seq.pool_size)
    k = MATRICES["random"]
    assert as_pair(sigma_monte_carlo_batch(k, 2 * MC_CHUNK + 1, seq)) == as_pair(
        sigma_monte_carlo_batch(k, 2 * MC_CHUNK + 1, np.random.SeedSequence(**fields)))


def batch_inputs(n_matrices=6):
    return RNG.standard_normal((n_matrices, 3, 3)).reshape(2, -1, 3, 3), np.random.SeedSequence(11)


matrix = st.lists(finite, min_size=9, max_size=9).map(lambda e: np.reshape(e, (3, 3)))


@settings(max_examples=40, deadline=None)
@given(st.lists(matrix, min_size=1, max_size=7), st.data(), st.integers(0, 2**64 - 1),
       st.sampled_from([1, 2, MC_CHUNK, MC_CHUNK + 1, 2 * MC_CHUNK + 3]), st.sampled_from([1, 2, 4]))
def test_batch_gives_each_matrix_its_value_alone(ks, data, seed, n, cpus):
    # common random numbers: every matrix of a batch is evaluated on the same
    # directions, so its value and standard error are the same bytes alone,
    # at any place of a shuffled batch and on any worker count; one
    # SeedSequence passed again gives the same bytes, as spawn() would not
    ks = np.array(ks)
    order = data.draw(st.permutations(range(len(ks))))
    seq = np.random.SeedSequence(seed)
    with mock.patch.object(correlation, "_cpu_count", lambda: cpus):
        values, stderrs = sigma_monte_carlo_batch(ks[order], n, seq)
        again = sigma_monte_carlo_batch(ks[order], n, seq)
    assert values.tobytes() == again[0].tobytes() and stderrs.tobytes() == again[1].tobytes()
    for place, i in enumerate(order):
        assert (values[place], stderrs[place]) == as_pair(sigma_monte_carlo_batch(ks[i], n, seed))
    first = order[0]
    assert as_pair(sigma_monte_carlo_batch(ks[first], n, seq)) == as_pair(
        sigma_monte_carlo_one_shot(ks[first], n, seed))


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_concurrent_batch_matches_one_estimate_at_a_time(cpus, monkeypatch):
    ks, seed = batch_inputs()
    n = 3 * MC_CHUNK + 5  # four chunks
    threads = []
    chunk_totals = correlation._chunk_totals

    def traced(kt, shift, n, seq):
        threads.append(threading.get_ident())
        return chunk_totals(kt, shift, n, seq)

    monkeypatch.setattr(correlation, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(correlation, "_chunk_totals", traced)
    values, bounds = sigma_monte_carlo_batch(ks, n, seed)
    assert values.shape == bounds.shape == (2, 3)
    monkeypatch.setattr(correlation, "_chunk_totals", chunk_totals)
    expect = [as_pair(sigma_monte_carlo_batch(k, n, seed)) for k in ks.reshape(-1, 3, 3)]
    assert values.ravel().tolist() == [value for value, _ in expect]
    assert bounds.ravel().tolist() == [stderr for _, stderr in expect]
    # one CPU runs every chunk in the calling thread, more run none there
    assert len(threads) == 4
    on_caller = threads.count(threading.get_ident())
    assert on_caller == (4 if cpus == 1 else 0)
    assert len(set(threads)) <= min(4, cpus)


def test_pool_is_capped_and_only_for_more_than_one_chunk(monkeypatch):
    sizes = []
    chunks = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    def counted(kt, shift, n, seq):
        chunks.append((seq.spawn_key, n))
        return np.zeros((len(kt), 2))

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(correlation, "_chunk_totals", counted)
    ks, seed = batch_inputs()
    for cpus in (4, 64):
        monkeypatch.setattr(correlation, "_cpu_count", lambda: cpus)
        for n in (MC_CHUNK, MC_CHUNK + 1, 4 * MC_CHUNK + 1):
            values, bounds = sigma_monte_carlo_batch(ks, n, seed)
            assert values.shape == bounds.shape == (2, 3)
    # min(chunks, CPUs) workers, and no pool for one chunk; chunk j has the
    # seed's spawn key + (j,) and MC_CHUNK samples, the last the rest
    assert sizes == [2, 4, 2, 5]
    assert sorted(chunks[:3]) == [((0,), MC_CHUNK), ((0,), MC_CHUNK), ((1,), 1)]
    assert sorted(chunks[3:8]) == [((j,), MC_CHUNK) for j in range(4)] + [((4,), 1)]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity call here")
def test_cpu_count_reads_the_affinity_mask():
    assert correlation._cpu_count() == len(os.sched_getaffinity(0))


def test_cpu_count_without_an_affinity_call_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert correlation._cpu_count() == (os.cpu_count() or 1)


@pytest.mark.parametrize("cpus", [1, 2])
def test_batch_raises_the_workers_error(cpus, monkeypatch):
    ks, seed = batch_inputs()
    monkeypatch.setattr(correlation, "_cpu_count", lambda: cpus)

    def drew(kt, shift, n, seq):
        raise AssertionError("drew before checking the input")

    monkeypatch.setattr(correlation, "_chunk_totals", drew)
    with pytest.raises(RuleError, match="^the sample count must be >= 1, got 0$"):
        sigma_monte_carlo_batch(ks, 0, seed)
    bad = ks.copy()
    bad[1, 2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        sigma_monte_carlo_batch(bad, 2 * MC_CHUNK, seed)
    with pytest.raises(ValueError, match="3x3"):
        sigma_monte_carlo_batch(ks[..., :2], 2 * MC_CHUNK, seed)
    error = ValueError("worker failed")

    def failing(kt, shift, n, seq):
        raise error

    monkeypatch.setattr(correlation, "_chunk_totals", failing)
    with pytest.raises(ValueError) as raised:
        sigma_monte_carlo_batch(ks, 2 * MC_CHUNK, seed)
    assert raised.value is error


def test_batch_names_a_seed_count_mismatch():
    # one seed draws the directions of the whole batch: a list of seeds, a
    # negative or a non-integer seed is refused before any draw
    ks = np.broadcast_to(np.eye(3), (2, 3, 3))
    for seed, message in (([1, 2], r"an integer, got \[1, 2\]"), (2.5, "an integer, got 2.5"),
                          (-1, ">= 0, got -1")):
        with pytest.raises(RuleError, match=f"^seed must be {message}$") as info:
            sigma_monte_carlo_batch(ks, 10, seed)
        # the rule's one owner, for the batch
        assert raised_by(info) == ["sigma_monte_carlo_batch", "_seed_sequence", "check_count"]


def test_empty_batch_draws_nothing(monkeypatch):
    def drew(kt, shift, n, seq):
        raise AssertionError("drew for an empty batch")

    monkeypatch.setattr(correlation, "_chunk_totals", drew)
    values, bounds = sigma_monte_carlo_batch(np.zeros((2, 0, 3, 3)), 10, 1)
    assert values.shape == bounds.shape == (2, 0)


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", str(MC_CHUNK + 1), "--trials", "3"],
    # the default sample count, eight chunks for a batch of one
    ["verify", "--trials", "1"],
    # three chunks of nine matrices each
    ["verify", "--samples", str(2 * MC_CHUNK + 1), "--trials", "9"],
    # one chunk, so no thread pool
    ["verify", "--samples", "1000", "--trials", "3"],
])
def test_worker_error_is_one_error_line(argv, monkeypatch, capsys):
    def failing(kt, shift, n, seq):
        raise ValueError("worker\nfailed")

    monkeypatch.setattr(correlation, "_cpu_count", lambda: 2)
    monkeypatch.setattr(correlation, "_chunk_totals", failing)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: worker failed\n"
