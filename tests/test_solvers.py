import math

import numpy as np
import pytest

from conftest import brute_force_minimum, qubo_from_dict, random_qubo
from qubotrack.qubo import impacts, objective
from qubotrack.solvers import (AnnealSchedule, ProblemSizeError, _impact_groups,
                               _metropolis_accepts, _restrict, _sweep_draws,
                               exact_subsolver, make_annealing_subsolver,
                               solve_annealing, solve_exact, solve_iterative)


# -- exact enumeration -------------------------------------------------------------

def test_exact_hand_example():
    q = qubo_from_dict(2, np.array([-1.0, 0.5]), {(0, 1): -0.95})
    best = solve_exact(q)
    assert best.tolist() == [1, 1]
    assert objective(q, best) == pytest.approx(-1.45)


def test_exact_tie_break():
    # degenerate minimum at T=(1,0) and T=(0,1); the enumeration order
    # (variable 0 = least significant state bit) prefers (1,0)
    q = qubo_from_dict(2, np.array([-0.5, -0.5]), {(0, 1): 1.0})
    assert solve_exact(q).tolist() == [1, 0]


def test_exact_zero_qubo_gives_all_zeros():
    q = qubo_from_dict(5, np.zeros(5), {})
    assert solve_exact(q).tolist() == [0] * 5


def test_exact_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        q = random_qubo(rng, n)
        best = solve_exact(q)
        oracle_bits, oracle_value = brute_force_minimum(q)
        assert best.tolist() == oracle_bits.tolist()
        assert objective(q, best) == pytest.approx(oracle_value, abs=1e-12)


def test_exact_size_limit():
    q = qubo_from_dict(25, np.zeros(25), {})
    with pytest.raises(ProblemSizeError):
        solve_exact(q)


def test_exact_spans_chunk_boundaries():
    # n=17 exercises the chunked enumeration path (chunk width 2^16)
    rng = np.random.default_rng(8)
    q = random_qubo(rng, 17, coupling_prob=0.2)
    best = solve_exact(q)
    flip_any = [objective(q, best)]
    for i in range(17):
        other = best.copy()
        other[i] ^= 1
        flip_any.append(objective(q, other))
    assert min(flip_any) == flip_any[0]


# -- sub-problem extraction -----------------------------------------------------------

def test_single_group_when_k_covers_n():
    rng = np.random.default_rng(1)
    q = random_qubo(rng, 7)
    bits = np.ones(7, dtype=np.int8)
    groups = _impact_groups(q, bits, k=7)
    assert len(groups) == 1
    assert groups[0].tolist() == list(range(7))
    sub = _restrict(q, bits, groups[0])
    assert sub.n == 7
    assert sub.quadratic == q.quadratic
    assert sub.linear.tolist() == q.linear.tolist()


def test_grouping_follows_impact_order():
    # impacts at all-ones are (-a_i); magnitudes (0.1, 5, 2) group as {1,2},{0}
    q = qubo_from_dict(3, np.array([0.1, 5.0, 2.0]), {})
    bits = np.ones(3, dtype=np.int8)
    assert np.abs(impacts(q, bits)).tolist() == [0.1, 5.0, 2.0]
    groups = _impact_groups(q, bits, k=2)
    assert [g.tolist() for g in groups] == [[1, 2], [0]]


def test_boundary_terms_reproduce_full_objective():
    """Restricted objective differs from the full one by a constant."""
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(4, 16))
        q = random_qubo(rng, n, coupling_prob=0.5)
        bits = rng.integers(0, 2, n).astype(np.int8)
        k = int(rng.integers(1, n))
        for group in _impact_groups(q, bits, k):
            sub = _restrict(q, bits, group)
            merged = bits.copy()
            ref_sub = rng.integers(0, 2, sub.n).astype(np.int8)
            merged[group] = ref_sub
            offset = objective(q, merged) - objective(sub, ref_sub)
            for _ in range(4):
                trial = rng.integers(0, 2, sub.n).astype(np.int8)
                merged[group] = trial
                assert objective(q, merged) == pytest.approx(
                    objective(sub, trial) + offset, abs=1e-9)


# -- iterative decomposition -----------------------------------------------------------

def test_iterative_equals_exact_when_k_covers_n():
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(1, 11))
        q = random_qubo(rng, n)
        report = solve_iterative(q, exact_subsolver, k=max(n, 7), seed=trial)
        assert report.best_assignment.tolist() == solve_exact(q).tolist()


def test_iterative_matches_exact_tie_break_bit_for_bit():
    q = qubo_from_dict(2, np.array([-0.5, -0.5]), {(0, 1): 1.0})
    report = solve_iterative(q, exact_subsolver, k=7)
    assert report.best_assignment.tolist() == solve_exact(q).tolist() == [1, 0]


def test_iterative_block_diagonal_two_blocks():
    """Two independent size-7 blocks at separated scales: optimum in <= 2
    iterations (composed from two enumerated blocks)."""
    rng = np.random.default_rng(12)
    blocks = []
    linear = np.zeros(14)
    quadratic = {}
    for b, scale in enumerate((10.0, 1.0)):
        off = 7 * b
        sub_lin = rng.choice([-1, 1], 7) * rng.uniform(0.5, 1.0, 7) * scale
        linear[off:off + 7] = sub_lin
        sub_quad = {}
        for i in range(7):
            for j in range(i + 1, 7):
                if rng.random() < 0.5:
                    v = float(rng.uniform(-0.1, 0.1) * scale)
                    quadratic[(off + i, off + j)] = v
                    sub_quad[(i, j)] = v
        blocks.append(qubo_from_dict(7, sub_lin, sub_quad))
    q = qubo_from_dict(14, linear, quadratic)
    composed = np.concatenate([solve_exact(b) for b in blocks])
    optimum = objective(q, composed)

    report = solve_iterative(q, exact_subsolver, k=7, max_iterations=10, seed=0)
    assert any(abs(v - optimum) < 1e-9 for v in report.objective_trace[1:3])


def test_iterative_trace_non_increasing():
    rng = np.random.default_rng(4)
    for trial in range(30):
        q = random_qubo(rng, 30, coupling_prob=0.15)
        report = solve_iterative(q, exact_subsolver, k=7, seed=trial)
        trace = report.objective_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert report.best_objective == pytest.approx(trace[-1])


def test_iterative_never_beats_enumeration():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(8, 18))
        q = random_qubo(rng, n, coupling_prob=0.3)
        minimum = objective(q, solve_exact(q))
        report = solve_iterative(q, exact_subsolver, k=5, seed=trial)
        assert report.best_objective >= minimum - 1e-12


def test_iterative_subsolver_failure_returns_last_accepted():
    q = random_qubo(np.random.default_rng(9), 10)

    calls = {"n": 0}

    def flaky(problem, rng):
        calls["n"] += 1
        if calls["n"] > 2:
            raise RuntimeError("backend lost")
        return solve_exact(problem)

    report = solve_iterative(q, flaky, k=4, seed=1)
    assert report.warning is not None and "backend lost" in report.warning
    assert report.best_objective == pytest.approx(
        objective(q, report.best_assignment))
    trace = report.objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


# -- simulated annealing -----------------------------------------------------------

def test_annealing_single_variable_over_seeds():
    q = qubo_from_dict(1, np.array([-1.0]), {})
    correct = sum(int(solve_annealing(q, seed=s)[0] == 1) for s in range(100))
    assert correct >= 99


def test_annealing_matches_exact_on_random_instances():
    rng = np.random.default_rng(314)
    hits = 0
    for trial in range(100):
        q = random_qubo(rng, 10, coupling_prob=0.3)
        target = objective(q, solve_exact(q))
        bits = solve_annealing(q, seed=trial)
        if objective(q, bits) == pytest.approx(target, abs=1e-12):
            hits += 1
    assert hits >= 95


def test_annealing_deterministic_per_seed():
    q = random_qubo(np.random.default_rng(6), 12)
    a = solve_annealing(q, AnnealSchedule(sweeps=50), seed=7)
    b = solve_annealing(q, AnnealSchedule(sweeps=50), seed=7)
    assert np.array_equal(a, b)


def test_annealing_subsolver_adapter():
    q = random_qubo(np.random.default_rng(10), 9, coupling_prob=0.3)
    report = solve_iterative(q, make_annealing_subsolver(), k=5, seed=3)
    assert report.best_objective >= objective(q, solve_exact(q)) - 1e-12
    repeat = solve_iterative(q, make_annealing_subsolver(), k=5, seed=3)
    assert np.array_equal(report.best_assignment, repeat.best_assignment)


class CountingRng:
    """A Generator that counts the sweeps drawn through ``rng.integers``."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.integers_calls = 0

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def integers(self, *args, **kwargs):
        self.integers_calls += 1
        return self.rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)


def assert_draws_match_numpy(n, seed, sweeps):
    """Every sweep's replayed draws equal NumPy's own; returns the number of
    sweeps that NumPy drew itself."""
    reference = np.random.default_rng(seed)
    rng = CountingRng(seed)
    count = 0
    for flips, uniforms in _sweep_draws(rng, n, sweeps):
        assert flips == reference.integers(0, n, size=n).tolist()
        assert uniforms == reference.random(n).tolist()
        count += 1
    assert count == sweeps
    assert rng.bit_generator.random_raw() == reference.bit_generator.random_raw()
    return rng.integers_calls


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 24, 101])
def test_replayed_draws_equal_numpy_draws(n):
    for seed in range(30):
        assert assert_draws_match_numpy(n, seed, sweeps=40) == 0  # all replayed


def test_replay_falls_back_to_numpy_where_it_would_redraw():
    # at n = 5000 NumPy rejects a 32-bit half with probability 2**32 % n / 2**32;
    # at this seed the first rejection falls in sweep block 13 of 25
    calls = assert_draws_match_numpy(5000, seed=4, sweeps=300)
    assert 0 < calls < 300


@pytest.mark.parametrize("y", [-1e-300, -1e-12, -0.3, -0.5303102798931427,
                               -1.3223463917696752, -17.2, -702.4603206664049,
                               -740.0, -744.4])
def test_metropolis_acceptance_is_numpy_exp(y):
    """At u = np.exp(y) and at its float neighbours the decision is numpy's
    (on some platforms math.exp differs by one ulp at the listed y)."""
    for e in (float(np.exp(y)), math.exp(y)):
        for u in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0)):
            assert _metropolis_accepts(float(u), y) == bool(u < np.exp(y))


def test_metropolis_rejects_zero_uniform_once_exp_underflows():
    for y in (-745.2, -800.0, -1e5):
        assert np.exp(y) == 0.0
        assert _metropolis_accepts(0.0, y) is False


def reference_annealing(qubo, schedule, seed):
    """Per-flip Metropolis on NumPy scalars, drawing every sweep from
    ``rng.integers`` and ``rng.random``: the loop the solver must equal."""
    rng = np.random.default_rng(seed)
    n = qubo.n
    rows = [(qubo.indices[a:b], qubo.data[a:b])
            for a, b in zip(qubo.indptr[:-1], qubo.indptr[1:])]
    bits = np.ones(n, dtype=np.int8)
    local = qubo.linear + qubo.coupling_field(bits.astype(float))
    current = objective(qubo, bits)
    best_bits, best_obj = bits.copy(), current
    for temperature in schedule.temperatures():
        flips = rng.integers(0, n, size=n)
        draws = rng.random(n)
        for i, u in zip(flips, draws):
            delta = (1.0 - 2.0 * bits[i]) * local[i]
            if delta <= 0.0 or u < np.exp(-delta / temperature):
                step = 1.0 - 2.0 * bits[i]
                bits[i] ^= 1
                cols, couplings = rows[i]
                local[cols] += couplings * step
                current += delta
                if current < best_obj:
                    best_obj = current
                    best_bits = bits.copy()
    return best_bits


def test_annealing_equals_per_flip_reference():
    rng = np.random.default_rng(2718)
    for trial in range(60):
        n = int(rng.integers(0, 25))
        q = random_qubo(rng, n, coupling_prob=float(rng.uniform(0.05, 0.6)),
                        paper_like=bool(trial % 2))
        schedule = AnnealSchedule(t_initial=float(rng.uniform(0.05, 3.0)),
                                  t_final=float(rng.uniform(1e-4, 0.05)),
                                  sweeps=int(rng.integers(1, 80)))
        got = solve_annealing(q, schedule, seed=trial)
        assert got.dtype == np.int8
        assert got.tolist() == reference_annealing(q, schedule, trial).tolist()


# packed bits (np.packbits) of solve_annealing(random_qubo(default_rng(500 + n), n),
# AnnealSchedule(sweeps=sweeps), seed=n + sweeps), recorded with the per-flip loop
ANNEALING_PINNED = {
    (0, 1): "", (0, 2): "", (0, 50): "", (0, 300): "",
    (1, 1): "00", (1, 2): "00", (1, 50): "00", (1, 300): "00",
    (7, 1): "9c", (7, 2): "9c", (7, 50): "9c", (7, 300): "9c",
    (24, 1): "f575f6", (24, 2): "f23aa8", (24, 50): "aadef8", (24, 300): "aadef8",
    (300, 1): "b0f2fffe76badc03ae2ebd5995b2dc7775ec9dbdff7e97fe6fcddfa7fcddf13df6b2f66eeef0",
    (300, 2): "baf6bdf7e71c7e42ae7a7ffdb3b3ce27a7fc9cf3fffe16ff7d5d1ff3afdd66f533aef7cbbe90",
    (300, 50): "baf6bfd7c7b9c946ee1abffcbf93de6677d49591dfff17ff7f1f1f373f5d75f117b777ea2ef0",
    (300, 300): "faf6bfd7c7995e06ee7a7ffcb793dc34eff49591dbff17ff5f0d1fd33d5d74f1b3b7e7ea6ff0",
}


@pytest.mark.parametrize("n, sweeps", sorted(ANNEALING_PINNED))
def test_annealing_bits_pinned(n, sweeps):
    q = random_qubo(np.random.default_rng(500 + n), n)
    bits = solve_annealing(q, AnnealSchedule(sweeps=sweeps), seed=n + sweeps)
    assert bits.shape == (n,)
    assert np.packbits(bits).tobytes().hex() == ANNEALING_PINNED[(n, sweeps)]


def test_annealing_iterative_report_pinned():
    q = random_qubo(np.random.default_rng(77), 40, coupling_prob=0.15)
    report = solve_iterative(q, make_annealing_subsolver(AnnealSchedule(sweeps=60)),
                             k=7, seed=5)
    assert "".join(map(str, report.best_assignment.tolist())) == \
        "1011111111011000010011111011101101010000"
    assert (report.iterations_run, report.subqubo_count) == (2, 12)
    assert report.best_objective == pytest.approx(-17.4841708761196, rel=1e-12)
    assert report.objective_trace == pytest.approx(
        [5.618351109723904, -17.4841708761196, -17.4841708761196], rel=1e-12)
