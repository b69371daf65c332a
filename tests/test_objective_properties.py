"""Property tests of the sparse objective core against the enumeration
oracle in conftest: random objectives with up to 16 variables and any
coupling density."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_force_minimum, brute_force_objective, impacts, qubo_from_dict,
                      random_qubo, sub_problems)
from qubotrack.qubo import Qubo, objective
from qubotrack.solvers import exact_subsolver, solve_iterative


@st.composite
def qubos(draw, max_n=16):
    n = draw(st.integers(1, max_n))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_qubo(np.random.default_rng(seed), n, coupling_prob=density)


@st.composite
def qubo_and_bits(draw, max_n=16):
    q = draw(qubos(max_n))
    bits = np.array(draw(st.lists(st.integers(0, 1), min_size=q.n, max_size=q.n)),
                    dtype=np.int8)
    return q, bits


@settings(max_examples=200, deadline=None)
@given(case=qubo_and_bits())
def test_objective_matches_oracle(case):
    q, bits = case
    assert objective(q, bits) == pytest.approx(brute_force_objective(q, bits), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(case=qubo_and_bits())
def test_impacts_match_flip_and_recompute(case):
    q, bits = case
    before = brute_force_objective(q, bits)
    all_impacts = impacts(q, bits)
    for i in range(q.n):
        flipped = bits.copy()
        flipped[i] ^= 1
        expected = brute_force_objective(q, flipped) - before
        assert all_impacts[i] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(case=qubo_and_bits(), k=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_subqubos_reproduce_full_objective_up_to_a_constant(case, k, seed):
    q, bits = case
    rng = np.random.default_rng(seed)
    covered = []
    for group, sub in sub_problems(q, bits, k):
        covered.extend(group.tolist())
        merged = bits.copy()
        offsets = []
        for _ in range(4):
            trial = rng.integers(0, 2, sub.n).astype(np.int8)
            merged[group] = trial
            offsets.append(brute_force_objective(q, merged)
                           - brute_force_objective(sub, trial))
            assert objective(sub, trial) == pytest.approx(
                brute_force_objective(sub, trial), abs=1e-12)
        assert offsets == pytest.approx([offsets[0]] * 4, abs=1e-9)
    assert sorted(covered) == list(range(q.n))


@settings(max_examples=60, deadline=None)
@given(q=qubos(), extra=st.integers(0, 4), seed=st.integers(0, 1000))
def test_iterative_with_k_covering_n_finds_the_minimum(q, extra, seed):
    _, minimum = brute_force_minimum(q)
    report = solve_iterative(q, exact_subsolver, k=q.n + extra, seed=seed)
    assert report.best_objective == pytest.approx(minimum, abs=1e-9)
    assert objective(q, report.best_assignment) == pytest.approx(minimum, abs=1e-9)


def chain_plus_conflict_qubo(n: int) -> Qubo:
    """Chained neighbours (i, i+1) and conflicting next-neighbours (i, i+2)."""
    rng = np.random.default_rng(0)
    quadratic = {(i, i + 1): float(rng.uniform(-1.0, -0.9)) for i in range(n - 1)}
    quadratic.update({(i, i + 2): 1.0 for i in range(n - 2)})
    return qubo_from_dict(n, rng.uniform(-1.0, 1.0, n), quadratic)


def test_solve_never_allocates_an_n_by_n_matrix():
    q = chain_plus_conflict_qubo(5000)  # a dense float matrix would take 191 MiB
    tracemalloc.start()
    try:
        report = solve_iterative(q, exact_subsolver, k=7, max_iterations=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.best_objective < report.objective_trace[0]
    assert peak < 16 * 2 ** 20
