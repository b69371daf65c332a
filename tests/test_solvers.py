import numpy as np
import pytest

from conftest import brute_force_minimum, random_qubo
from qubotrack.qubo import Qubo, impacts, objective
from qubotrack.solvers import (AnnealSchedule, ProblemSizeError, _impact_groups,
                               _restrict, exact_subsolver,
                               make_annealing_subsolver, solve_annealing,
                               solve_exact, solve_iterative)


# -- exact enumeration -------------------------------------------------------------

def test_exact_hand_example():
    q = Qubo(n=2, linear=np.array([-1.0, 0.5]), quadratic={(0, 1): -0.95})
    best = solve_exact(q)
    assert best.tolist() == [1, 1]
    assert objective(q, best) == pytest.approx(-1.45)


def test_exact_tie_break():
    # degenerate minimum at T=(1,0) and T=(0,1); the enumeration order
    # (variable 0 = least significant state bit) prefers (1,0)
    q = Qubo(n=2, linear=np.array([-0.5, -0.5]), quadratic={(0, 1): 1.0})
    assert solve_exact(q).tolist() == [1, 0]


def test_exact_zero_qubo_gives_all_zeros():
    q = Qubo(n=5, linear=np.zeros(5), quadratic={})
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
    q = Qubo(n=25, linear=np.zeros(25), quadratic={})
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
    q = Qubo(n=3, linear=np.array([0.1, 5.0, 2.0]), quadratic={})
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
    q = Qubo(n=2, linear=np.array([-0.5, -0.5]), quadratic={(0, 1): 1.0})
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
        blocks.append(Qubo(n=7, linear=sub_lin, quadratic=sub_quad))
    q = Qubo(n=14, linear=linear, quadratic=quadratic)
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
    q = Qubo(n=1, linear=np.array([-1.0]), quadratic={})
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
