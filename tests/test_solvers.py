import dataclasses
import hashlib
import math
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from conftest import (brute_force_minimum, dense_qubo, qubo_from_dict, random_qubo,
                      sub_problems)
from qubotrack import solvers
from qubotrack.qubo import Qubo, impacts, objective
from qubotrack.solvers import (AnnealSchedule, ProblemSizeError, SolveReport,
                               _anneal, _block_objective, _impact_groups, _restrict,
                               _split_groups, _state_table, _sweep_draws, exact_subsolver,
                               solve_annealing, solve_exact, solve_iterative)
from qubotrack.vqe import make_vqe_subsolver


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
    [(group, sub)] = sub_problems(q, bits, k=7)
    assert group.tolist() == list(range(7))
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
        for group, sub in sub_problems(q, bits, k):
            merged = bits.copy()
            ref_sub = rng.integers(0, 2, sub.n).astype(np.int8)
            merged[group] = ref_sub
            offset = objective(q, merged) - objective(sub, ref_sub)
            for _ in range(4):
                trial = rng.integers(0, 2, sub.n).astype(np.int8)
                merged[group] = trial
                assert objective(q, merged) == pytest.approx(
                    objective(sub, trial) + offset, abs=1e-9)


def reference_restrict(qubo, bits, indices):
    """The sub-problem as a sparse ``Qubo`` cut from the CSR rows of
    ``indices``: the per-group restriction the dense split replaced."""
    k = len(indices)
    starts = qubo.indptr[indices]
    lengths = qubo.indptr[indices + 1] - starts
    local_row = np.repeat(np.arange(k), lengths)
    offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    entries = np.arange(len(local_row)) + offsets
    cols, vals = qubo.indices[entries], qubo.data[entries]
    slot = np.searchsorted(indices, cols).clip(max=k - 1)
    inside = indices[slot] == cols
    outside = ~inside
    boundary = np.bincount(local_row[outside],
                           weights=vals[outside] * bits[cols[outside]], minlength=k)
    upper = inside & (local_row < slot)
    return Qubo(k, qubo.linear[indices] + boundary,
                local_row[upper], slot[upper], vals[upper])


def dense_form(sub):
    block = np.zeros((sub.n, sub.n))
    block[sub.entry_rows(), sub.indices] = sub.data
    return sub.linear, block


def test_split_equals_dense_sparse_sub_problems_on_desk_events(desk_config, desk_events):
    """Two Gauss-Seidel iterations on every desk event: each group's linear
    vector and block equal the dense form of the sparse sub-problem at the
    running bits, and the block scores an update as ``objective`` does."""
    problems = desk_objectives(desk_config, desk_events, len(desk_events))
    checked = updated = 0
    for q, _ in problems:
        bits = np.ones(q.n, dtype=np.int8)
        for _ in range(2):
            groups = _impact_groups(q, bits, 7)
            split = _split_groups(q, groups, 7)
            for g, indices in enumerate(groups):
                a, block = _restrict(split, g, bits)
                sub = reference_restrict(q, bits, indices)
                ref_a, ref_block = dense_form(sub)
                assert a.tolist() == ref_a.tolist()
                assert block.tolist() == ref_block.tolist()
                assert block.flags.c_contiguous
                old = bits[indices]
                new = solve_exact((a, block))
                assert new.tolist() == solve_exact(sub).tolist()
                for t in (old, new):
                    assert _block_objective(a, block, t).hex() == objective(sub, t).hex()
                checked += 1
                if objective(sub, new) < objective(sub, old):
                    bits[indices] = new
                    updated += 1
    assert len(problems) >= 15 and checked >= 1000 and updated >= 100


@pytest.mark.parametrize("k", [1, 7, 10, 24])
def test_block_objective_is_sparse_objective_bit_for_bit(k):
    # rows longer than 8 are where a pairwise row sum would reorder the adds
    rng = np.random.default_rng(k)
    for _ in range(40):
        sub = random_qubo(rng, k, coupling_prob=0.7, paper_like=bool(rng.integers(2)))
        a, block = dense_form(sub)
        t = rng.integers(0, 2, k).astype(np.int8)
        assert _block_objective(a, block, t).hex() == objective(sub, t).hex()


def test_block_kernel_picks_the_smallest_state_on_a_degenerate_block():
    # every state with exactly one of t0, t1 set scores -0.5, whatever t2..t6;
    # the smallest such state index is 1, i.e. t = (1, 0, 0, 0, 0, 0, 0)
    a = np.array([-0.5, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    block = np.zeros((7, 7))
    block[0, 1] = block[1, 0] = 1.0
    assert solve_exact((a, block)).tolist() == [1, 0, 0, 0, 0, 0, 0]
    assert exact_subsolver(a, block, (0, 0, 0)).tolist() == [1, 0, 0, 0, 0, 0, 0]
    assert solve_exact((np.zeros(7), np.zeros((7, 7)))).tolist() == [0] * 7


def test_state_table_is_cached_and_read_only():
    table = _state_table(7)
    assert table is _state_table(7)
    assert not table.flags.writeable
    assert table.shape == (128, 7)
    assert table[5].tolist() == [1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_dense_and_sparse_enumeration_agree_across_chunks():
    rng = np.random.default_rng(23)
    for n in (0, 1, 5, 16, 17):
        q = random_qubo(rng, n, coupling_prob=0.3)
        assert solve_exact(dense_form(q)).tolist() == solve_exact(q).tolist()


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

    def flaky(a, block, entropy):
        calls["n"] += 1
        if calls["n"] > 2:
            raise RuntimeError("backend lost")
        return solve_exact((a, block))

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
    """Every sweep's replayed draws, one row of a yielded block, equal
    NumPy's own; returns the number of sweeps that NumPy drew itself."""
    reference = np.random.default_rng(seed)
    rng = CountingRng(seed)
    count = 0
    for flips, uniforms in _sweep_draws(rng, n, sweeps):
        assert flips.shape == uniforms.shape == (len(flips), n)
        for flip_row, uniform_row in zip(flips.tolist(), uniforms.tolist()):
            assert flip_row == reference.integers(0, n, size=n).tolist()
            assert uniform_row == reference.random(n).tolist()
            count += 1
    assert count == sweeps
    assert rng.bit_generator.random_raw() == reference.bit_generator.random_raw()
    return rng.integers_calls


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 24, 101])
def test_replayed_draws_equal_numpy_draws(n):
    for seed in range(30):
        assert assert_draws_match_numpy(n, seed, sweeps=40) == 0  # all replayed


@pytest.mark.parametrize("n", [1, 2, 3, 7, 110, 111])
def test_replayed_draws_at_odd_sweep_counts_equal_numpy_draws(n):
    """An odd block ends on the first sweep of a pair, which reads the
    pair's first flip words and uniforms only."""
    for seed in range(6):
        for sweeps in (1, 3, 41):
            assert assert_draws_match_numpy(n, seed, sweeps) == 0


def test_replay_falls_back_to_numpy_where_it_would_redraw():
    # at n = 5000 NumPy rejects a 32-bit half with probability 2**32 % n / 2**32;
    # at this seed the first rejection falls in sweep block 13 of 25
    calls = assert_draws_match_numpy(5000, seed=4, sweeps=300)
    assert 0 < calls < 300


def test_replayed_draws_for_two_sizes_in_turn_equal_numpy_draws():
    """Two sizes drawn in turn each replay NumPy's draws, and a block
    abandoned at a rejected half leaves the next run's replay as it was."""
    for n in (6, 7, 6, 7):
        for seed in range(5):
            assert assert_draws_match_numpy(n, seed, sweeps=40) == 0
    fallback = assert_draws_match_numpy(5000, seed=4, sweeps=300)
    assert assert_draws_match_numpy(5000, seed=4, sweeps=300) == fallback > 0


def feed_draws(monkeypatch, flips, uniforms):
    """Make the annealer read one block of the given draws, one row per
    sweep, instead of the generator's."""
    block = (np.array(flips), np.array(uniforms, dtype=float))
    monkeypatch.setattr(solvers, "_sweep_draws", lambda rng, n, sweeps: iter([block]))


def uphill_accepted(monkeypatch, y, u, t=1.0):
    """Whether :func:`solve_annealing` accepts an uphill flip with
    -delta = y at the uniform u and the temperature t (-delta / T = y at
    the default t = 1).

    Variable 0 (a_0 = y) is proposed first, uphill by -y. Variable 1
    (a_1 = 1e6 max(t, 1), more than -y) is proposed next and flips
    downhill to a new best state, which keeps variable 0's decision: 0
    when its flip was accepted."""
    feed_draws(monkeypatch, [[0, 1]], [[u, 0.5]])
    q = Qubo(2, [y, 1e6 * max(t, 1.0)])
    bits = solve_annealing(q, AnnealSchedule(t_initial=t, t_final=t, sweeps=1))
    assert bits[1] == 0
    return bool(bits[0] == 0)


@pytest.mark.parametrize("y", [-1e-300, -1e-12, -0.3, -0.5303102798931427,
                               -1.3223463917696752, -17.2, -702.4603206664049,
                               -740.0, -744.4])
def test_metropolis_acceptance_is_numpy_exp(y, monkeypatch):
    """At u = np.exp(y) and at its float neighbours the bulk log-threshold
    decision is numpy's (on some platforms math.exp differs by one ulp at
    the listed y)."""
    for e in (float(np.exp(y)), math.exp(y)):
        for u in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0)):
            assert uphill_accepted(monkeypatch, y, float(u)) == bool(u < np.exp(y))


def test_metropolis_acceptance_is_numpy_exp_near_the_threshold(monkeypatch):
    """Within a few ulps of u = np.exp(y), where np.log(u) rounds to either
    side of y, every decision is numpy's."""
    rng = np.random.default_rng(41)
    for y in np.concatenate([-rng.exponential(3.0, 150), [-36.7, -37.5, -1e-16]]).tolist():
        e = np.exp(y)
        us = [e]
        for _ in range(3):
            us = [np.nextafter(us[0], 0.0)] + us + [np.nextafter(us[-1], 1.0)]
        for u in us:
            assert uphill_accepted(monkeypatch, y, float(u)) == bool(u < e)


@pytest.mark.parametrize("t", [1e-3, 0.37, 2.0, 1e5, 1e-320])
def test_metropolis_acceptance_at_a_temperature_is_numpy_exp_near_the_threshold(
        t, monkeypatch):
    """Away from T = 1 the bounds ln u -+ band are scaled to field units
    by a rounded product with T (at a subnormal T, rounded to a few
    digits); within a few ulps of u = np.exp(g / T) every decision is
    still numpy's."""
    rng = np.random.default_rng(43)
    ys = np.concatenate([-rng.exponential(3.0, 60), [-36.7, -37.5, -1e-16]]).tolist()
    for g in (y * t for y in ys if y * t < 0.0):  # a field that underflows to 0 is not uphill
        e = np.exp(g / t)
        us = [e]
        for _ in range(3):
            us = [np.nextafter(us[0], 0.0)] + us + [np.nextafter(us[-1], 1.0)]
        for u in us:
            assert uphill_accepted(monkeypatch, g, float(u), t) == bool(u < e)


def test_metropolis_rejects_zero_uniform_once_exp_underflows(monkeypatch):
    for y in (-745.2, -800.0, -1e5):
        assert np.exp(y) == 0.0
        assert not uphill_accepted(monkeypatch, y, 0.0)
    for y in (-700.0, -744.4, -0.5):  # exp(y) > 0 accepts u = 0
        assert uphill_accepted(monkeypatch, y, 0.0)


def test_look_ahead_resumes_at_the_first_proposal_it_does_not_reject(monkeypatch):
    """Three variables, T = 1, u = 0.5 throughout. Variable 0 (a_0 = -50) is
    always rejected. Variables 1 then 2 flip downhill to 0 (a_1 = -1,
    a_2 = 1, b_12 = 3), which leaves variable 1 downhill at bit 0. Twelve
    rejections of variable 0 (4n) start a look-ahead, which must stop at
    variable 1's next proposal, whose flip back to 1 is the best state."""
    flips = [[1, 2, 0]] + [[0, 0, 0]] * 4 + [[0, 1, 0], [0, 0, 0]]
    feed_draws(monkeypatch, flips, [[0.5] * 3] * len(flips))
    q = qubo_from_dict(3, [-50.0, -1.0, 1.0], {(1, 2): 3.0})
    schedule = AnnealSchedule(t_initial=1.0, t_final=1.0, sweeps=len(flips))
    assert solve_annealing(q, schedule).tolist() == [1, 1, 0]


def test_nan_change_is_rejected(monkeypatch):
    """A NaN delta fails every acceptance test, as ``u < np.exp(nan)``
    fails. Finite coefficients, which :func:`solve_annealing` requires,
    give none, so the loop is handed a NaN field: variable 0 must stay, and
    variable 1's downhill flip (current 0 -> -1) makes the best state."""
    for u in (0.0, 0.5, 1.0 - 2.0 ** -53):
        feed_draws(monkeypatch, [[0, 1]], [[u, u]])
        assert _anneal([math.nan, 1.0], [[], []], 0.0, np.array([1.0]), None) == [1, 0]


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


def whole_number_qubo(rng, n):
    """Objective with coefficients in {-2, ..., 2}: fields are whole
    numbers, many of them 0, so flips with delta == 0 are common."""
    linear = rng.integers(-2, 3, n).astype(float)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return qubo_from_dict(n, linear, {p: float(rng.choice([-2, -1, 1, 2])) for p in pairs})


def test_annealing_zero_changes_equal_reference():
    rng = np.random.default_rng(1618)
    for trial in range(40):
        q = whole_number_qubo(rng, int(rng.integers(1, 12)))
        schedule = AnnealSchedule(t_initial=float(rng.uniform(0.05, 3.0)),
                                  t_final=float(rng.uniform(1e-4, 0.05)),
                                  sweeps=int(rng.integers(1, 120)))
        assert solve_annealing(q, schedule, seed=trial).tolist() == \
            reference_annealing(q, schedule, trial).tolist()


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_annealing_frozen_tail_equals_reference(n):
    """300 sweeps freeze long before the end, so runs of rejections are
    skipped by the look-ahead, hot ones and the frozen tail alike."""
    rng = np.random.default_rng(3000 + n)
    for trial in range(12 if n < 24 else 4):
        q = (whole_number_qubo(rng, n) if trial % 3 == 2
             else random_qubo(rng, n, paper_like=bool(trial % 2)))
        schedule = AnnealSchedule(t_final=float(rng.choice([1e-3, 0.05])))
        assert solve_annealing(q, schedule, seed=trial).tolist() == \
            reference_annealing(q, schedule, trial).tolist()


@pytest.mark.parametrize("kwargs", [
    {"t_initial": math.nan}, {"t_final": math.nan}, {"t_initial": math.inf},
    {"t_final": math.inf}, {"sweeps": 2.5}, {"sweeps": 3.0}, {"sweeps": "3"},
    {"sweeps": True},
    {"t_initial": 1e300, "t_final": 1e-300},  # the ratio underflows: T = 0
    {"t_initial": 1e-300, "t_final": 1e300, "sweeps": 3},  # the ratio overflows
])
def test_anneal_schedule_rejects_non_finite_temperatures_and_fractional_sweeps(kwargs):
    with pytest.raises(ValueError):
        AnnealSchedule(**kwargs)


@pytest.mark.parametrize("t_initial, t_final", [
    (1e-310, 1e-320), (2.0, 1e-308), (1e308, 1e307), (5e-324, 5e-324), (1.0, 1e-30),
])
def test_annealing_at_extreme_temperatures_equals_per_flip_reference(t_initial, t_final):
    """Subnormal, huge and tiny temperatures: the bounds in field units
    overflow, lose precision or decide nothing, and every decision is
    still the per-flip loop's."""
    rng = np.random.default_rng(5150)
    for trial in range(36):
        n = int(rng.integers(1, 16))
        q = (whole_number_qubo(rng, n) if trial % 3 == 2
             else random_qubo(rng, n, paper_like=bool(trial % 2)))
        schedule = AnnealSchedule(t_initial=t_initial, t_final=t_final,
                                  sweeps=int(rng.integers(1, 60)))
        with np.errstate(over="ignore"):  # the reference's -delta / T
            want = reference_annealing(q, schedule, trial).tolist()
        assert solve_annealing(q, schedule, seed=trial).tolist() == want


def test_anneal_schedule_accepts_numpy_integer_sweeps():
    assert len(AnnealSchedule(sweeps=np.int64(3)).temperatures()) == 3


@pytest.mark.parametrize("linear, block, message", [
    ([math.nan, -1.0], [[0.0, 0.0], [0.0, 0.0]], "linear coefficient 0 is nan"),
    ([0.0, -1.0, 0.5], [[0.0, 0.0, 1.0], [0.0, 0.0, -math.inf], [1.0, -math.inf, 0.0]],
     "coupling (1, 2) is -inf"),
])
def test_annealing_names_a_non_finite_coefficient(linear, block, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_annealing(dense_qubo(np.array(linear), np.array(block)))


def dense_problem(rng, n, zero_rows=0):
    """Random problem ``(a, B)``: a symmetric block with zero diagonal,
    ``zero_rows`` of its variables uncoupled."""
    block = np.triu(rng.uniform(-1, 1, (n, n)), 1)
    block[rng.random((n, n)) >= rng.uniform(0, 1)] = 0.0
    block = block + block.T
    uncoupled = rng.permutation(n)[:zero_rows]
    block[uncoupled] = 0.0
    block[:, uncoupled] = 0.0
    return rng.uniform(-1, 1, n), block


@pytest.mark.parametrize("scatter_row", [0, math.inf], ids=["scatter", "lists"])
def test_both_row_forms_equal_per_flip_reference(scatter_row, monkeypatch):
    """Whichever form the row length picks, entry by entry from Python
    lists or one scatter per accepted flip, the bits are the per-flip
    loop's, for rows long and short."""
    monkeypatch.setattr(solvers, "_SCATTER_ROW", scatter_row)
    rng = np.random.default_rng(4242)
    for trial in range(24):
        n = int(rng.choice([1, 2, 7, 20, 60]))
        a, block = dense_problem(rng, n, zero_rows=trial % 2)
        schedule = AnnealSchedule(t_initial=float(rng.uniform(0.05, 3.0)),
                                  t_final=float(rng.uniform(1e-4, 0.05)),
                                  sweeps=int(rng.integers(1, 40)))
        want = reference_annealing(dense_qubo(a, block), schedule, trial).tolist()
        assert solve_annealing(dense_qubo(a, block), schedule, seed=trial).tolist() == want


def banded_conflict_qubo(n: int, width: int) -> Qubo:
    """Chained neighbours (i, i + 1) and conflicts (i, i + d), 2 <= d <=
    ``width``: rows of about 2 ``width`` entries, as in the tracking
    objective, where a triplet conflicts with the hundreds that share a hit."""
    rng = np.random.default_rng(0)
    i, d = np.divmod(np.arange(n * width), width)
    j = i + d + 1
    keep = j < n
    i, j, d = i[keep], j[keep], d[keep]
    b = np.where(d == 0, rng.uniform(-1.0, -0.9, len(i)), 1.0)
    return Qubo(n, rng.uniform(-1.0, 1.0, n), i, j, b)


def test_annealing_builds_nothing_per_coupling():
    """At scale an accepted flip scatters its row from the CSR arrays, so
    memory grows with the variables, not with the couplings: 3 000
    variables with 380 k stored entries stay under 16 MiB, where a Python
    ``(j, b_ij)`` tuple per entry alone takes over 40 MiB."""
    import tracemalloc
    q = banded_conflict_qubo(3000, 64)
    assert len(q.data) == 379_840
    schedule = AnnealSchedule(sweeps=4)
    tracemalloc.start()
    try:
        bits = solve_annealing(q, schedule, seed=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert bits.tolist() == reference_annealing(q, schedule, 9).tolist()


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


# -- whole-objective annealing in the pipeline ---------------------------------------

def reconstruct_with(config, event, geometry=None, events=None):
    """``reconstruct_event`` of ``event`` under ``config``, calibrated on
    ``events`` (default: the event itself), and the objective it solved."""
    from qubotrack.geometry import build_geometry
    from qubotrack.pipeline import calibrate, reconstruct_event
    from qubotrack.preselect import build_doublets, build_triplets
    from qubotrack.qubo import assemble_qubo
    geometry = geometry or build_geometry(config.geometry)
    window, scaling, _ = calibrate(events or [event], config)
    triplets = build_triplets(build_doublets(event.hits, geometry, window), window)
    result = reconstruct_event(event, geometry, window, scaling, config)
    return result, assemble_qubo(triplets, scaling), triplets


def test_anneal_solver_selects_the_truth_triplets_of_two_nearby_particles():
    from qubotrack.config import RunConfig
    from qubotrack.scenarios import two_nearby_particles_event
    event, geometry = two_nearby_particles_event()
    result, q, triplets = reconstruct_with(RunConfig(solver="anneal"), event, geometry)
    report = result.report
    truth = [int(t.truth_particle_id() is not None) for t in triplets]
    assert len(triplets) == 7 and sum(truth) == 4
    assert report.best_assignment.tolist() == truth == solve_exact(q).tolist()
    assert report.best_objective == objective(q, report.best_assignment)
    assert report.objective_trace == [objective(q, np.ones(q.n, dtype=np.int8)),
                                      report.best_objective]
    assert report.objective_trace[1] <= report.objective_trace[0]
    assert (report.iterations_run, report.subqubo_count, report.warning) == (1, 1, None)
    assert len(result.tracks) == 2


def test_anneal_solver_anneals_the_whole_objective_once_per_event(desk_config, desk_events,
                                                                 monkeypatch):
    """One ``solve_annealing`` call per event, looked up on the solvers
    module at call time, on the event's whole objective with the default
    schedule and the seed ``seed ^ event_id``."""
    import dataclasses
    config = dataclasses.replace(desk_config, solver="anneal", subqubo_size=3, iterations=1)
    calls = []
    solve = solvers.solve_annealing

    def spy(qubo, schedule=None, seed=0):
        calls.append((qubo, schedule, seed))
        return solve(qubo, schedule, seed)

    monkeypatch.setattr(solvers, "solve_annealing", spy)
    for event in desk_events[:3]:
        calls.clear()
        result, q, _ = reconstruct_with(config, event, events=desk_events)
        assert len(calls) == 1
        qubo, schedule, seed = calls[0]
        assert schedule == AnnealSchedule() and seed == config.seed ^ event.event_id
        assert qubo.n == q.n > 7
        assert result.report.best_assignment.tolist() == \
            solve(q, seed=config.seed ^ event.event_id).tolist()
        assert result.report.best_objective == objective(q, result.report.best_assignment)


# -- golden decomposition outputs ------------------------------------------------------

def desk_objectives(desk_config, desk_events, count):
    """Assembled objectives of the first ``count`` desk events with triplets,
    as (objective, per-event solver seed) pairs."""
    from qubotrack.geometry import build_geometry
    from qubotrack.pipeline import calibrate
    from qubotrack.preselect import build_doublets, build_triplets
    from qubotrack.qubo import assemble_qubo
    window, scaling, _ = calibrate(desk_events, desk_config)
    geometry = build_geometry(desk_config.geometry)
    out = []
    for event in desk_events:
        triplets = build_triplets(build_doublets(event.hits, geometry, window), window)
        if triplets:
            out.append((assemble_qubo(triplets, scaling), desk_config.seed ^ event.event_id))
        if len(out) == count:
            return out
    return out


def report_digest(report):
    """sha256 over the best objective's and every trace value's float.hex()
    and the best assignment's bytes."""
    h = hashlib.sha256()
    for value in [report.best_objective, *report.objective_trace]:
        h.update(value.hex().encode())
    h.update(np.asarray(report.best_assignment, dtype=np.int8).tobytes())
    return h.hexdigest()


# recorded with the per-group sub-Qubo decomposition (restrict, then build a
# Qubo, then enumerate or anneal it), before the dense block kernel replaced it
DECOMPOSITION_GOLDEN = {
    "desk-exact-k7":
        "9580ca708b1fa9cc2c7c86702d4597f59001a2e6eb316f86c86af85e8cac8276",
    "desk-exact-k10":
        "dbff50605354d5c6338819c4824e4ebb0f5cdcbf1546e1b3a440a76c01907a5a",
    "random-vqe-k7":
        "8dccf091371bbf5a843b84c70f77984f592d3f5bf378986cb0e277a6c6499b79",
}


@pytest.mark.parametrize("case", sorted(DECOMPOSITION_GOLDEN))
def test_decomposition_outputs_golden(case, desk_config, desk_events):
    if case.startswith("desk"):
        problems = desk_objectives(desk_config, desk_events, 4)
    else:
        rng = np.random.default_rng(41)
        problems = [(random_qubo(rng, 16, coupling_prob=0.3, paper_like=True), s)
                    for s in (3, 4)]
    subsolver = {"exact": exact_subsolver,
                 "vqe": make_vqe_subsolver(shots=16, max_evaluations=9)}[case.split("-")[1]]
    k = int(case.rsplit("-k", 1)[1])
    digests = [report_digest(solve_iterative(q, subsolver, k=k, seed=seed))
               for q, seed in problems]
    h = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert h == DECOMPOSITION_GOLDEN[case]


# -- batched exact sub-solves ------------------------------------------------------------

def reference_iterative(qubo, subsolver, k=7, max_iterations=10, seed=0):
    """The per-group Gauss-Seidel loop the batched exact path replaced: one
    ``np.sort`` per impact group, then one ``_restrict`` and one sub-solver
    call per group, every failure inside the iteration reported as a
    sub-solver failure."""
    bits = np.ones(qubo.n, dtype=np.int8)
    current = objective(qubo, bits)
    trace = [current]
    subqubo_count = iterations_run = 0
    warning = None
    for iteration in range(max_iterations):
        changed = False
        try:
            order = np.argsort(-np.abs(impacts(qubo, bits)), kind="stable")
            groups = [np.sort(order[s:s + k]) for s in range(0, qubo.n, k)]
            split = _split_groups(qubo, groups, k)
            subqubo_count += len(groups)
            for si, indices in enumerate(groups):
                a, block = _restrict(split, si, bits)
                old = bits[indices]
                new = np.asarray(subsolver(a, block, (seed, iteration, si)),
                                 dtype=np.int8)
                if np.array_equal(new, old):
                    continue
                cand_obj = current + (_block_objective(a, block, new)
                                      - _block_objective(a, block, old))
                if cand_obj <= current:
                    bits[indices] = new
                    current, changed = cand_obj, True
        except Exception as exc:
            warning = f"sub-solver failed in iteration {iteration}: {exc}"
            trace.append(current)
            iterations_run = iteration + 1
            break
        iterations_run = iteration + 1
        trace.append(current)
        if not changed:
            break
    return SolveReport(best_assignment=bits, best_objective=current,
                       iterations_run=iterations_run, subqubo_count=subqubo_count,
                       objective_trace=trace, warning=warning)


def report_key(report):
    """Every field of a report, floats as ``float.hex``."""
    return (report.best_assignment.dtype, report.best_assignment.tolist(),
            report.best_objective.hex(), [v.hex() for v in report.objective_trace],
            report.iterations_run, report.subqubo_count, report.warning)


def assert_batched_equals_reference(q, k, seed=0):
    report = solve_iterative(q, exact_subsolver, k=k, seed=seed)
    assert report_key(report) == report_key(reference_iterative(q, exact_subsolver,
                                                                k=k, seed=seed))
    return report


def test_impact_groups_equal_per_group_sorts():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(0, 80))
        k = int(rng.integers(1, 12))
        q = random_qubo(rng, n, coupling_prob=0.1, paper_like=True)
        bits = rng.integers(0, 2, n).astype(np.int8)
        order = np.argsort(-np.abs(impacts(q, bits)), kind="stable")
        want = [np.sort(order[s:s + k]).tolist() for s in range(0, n, k)]
        assert [g.tolist() for g in _impact_groups(q, bits, k)] == want


@pytest.mark.parametrize("k", [1, 2, 7, 10])
def test_batched_exact_equals_per_group_loop_on_desk_events(k, desk_config, desk_events):
    problems = desk_objectives(desk_config, desk_events, len(desk_events))
    assert len(problems) >= 15
    for q, seed in problems:
        assert_batched_equals_reference(q, k, seed)


def test_batched_exact_equals_per_group_loop_on_random_objectives():
    rng = np.random.default_rng(61)
    for trial in range(80):
        n = int(rng.integers(1, 90))
        k = int(rng.integers(1, 13))
        q = random_qubo(rng, n, coupling_prob=float(rng.uniform(0.02, 0.3)),
                        paper_like=trial % 4 != 0)
        assert_batched_equals_reference(q, k, seed=trial)


def test_group_turned_stale_is_rescored(monkeypatch):
    # 28 variables in 4 full groups: every _restrict call re-scores a group
    # that a flip in an earlier group of the same iteration turned stale
    q = random_qubo(np.random.default_rng(0), 28, coupling_prob=0.15, paper_like=True)
    restrict = solvers._restrict
    rescored = []

    def counting_restrict(split, g, bits):
        rescored.append(g)
        return restrict(split, g, bits)

    monkeypatch.setattr(solvers, "_restrict", counting_restrict)
    report = assert_batched_equals_reference(q, 7)
    assert rescored and all(g > 0 for g in rescored)
    # the batched answers of the stale groups are out of date: ignoring the
    # marks changes the report
    monkeypatch.setattr(solvers, "_restrict", restrict)
    monkeypatch.setattr(solvers, "_reached", lambda split, g, flipped: [])
    assert report_key(solve_iterative(q, exact_subsolver, k=7)) != report_key(report)


def test_batched_ties_go_to_the_smallest_state():
    # two copies of a block where a state scores -0.5 when exactly one of its
    # first two variables is set. Grouped by impact, group 0 is variables
    # (0, 1, 2, 3, 4, 7, 8) with minimum -1 on many states; the smallest sets
    # only positions 0 and 5, i.e. variables 0 and 7. Group 1 is flat: zeros.
    linear = np.array([-0.5, -0.5, 0, 0, 0, 0, 0] * 2)
    q = qubo_from_dict(14, linear, {(0, 1): 1.0, (7, 8): 1.0})
    report = assert_batched_equals_reference(q, 7)
    assert report.best_assignment.tolist() == [1] + [0] * 6 + [1] + [0] * 6
    assert report.best_objective == -1.0


@pytest.mark.parametrize("chunk_bits", [7, 8, 10, 12])
def test_batch_chunks_smaller_than_the_group_count(chunk_bits, monkeypatch,
                                                   desk_config, desk_events):
    monkeypatch.setattr(solvers, "_BATCH_BITS", chunk_bits)
    enumerated = []
    enumerate_chunk = solvers._ExactBatch._enumerate

    def counting_enumerate(self, bits):
        enumerated.append(self.stop)
        enumerate_chunk(self, bits)

    monkeypatch.setattr(solvers._ExactBatch, "_enumerate", counting_enumerate)
    for q, seed in desk_objectives(desk_config, desk_events, 4):
        enumerated.clear()
        report = assert_batched_equals_reference(q, 7, seed)
        # every iteration walks its full groups in chunks of 2^(bits - 7)
        per_chunk = 2 ** (chunk_bits - 7)
        chunks = -(-(q.n // 7) // per_chunk)
        assert chunks > 1
        assert enumerated == list(range(0, q.n // 7, per_chunk)) * report.iterations_run


@pytest.mark.parametrize("k", [13, 17])
def test_group_size_above_the_batch_limit_uses_solve_exact(k, monkeypatch):
    q = random_qubo(np.random.default_rng(4), 40, coupling_prob=0.1, paper_like=True)
    exact = solvers.solve_exact
    sizes = []

    def counting_exact(problem):
        sizes.append(len(problem[0]))
        return exact(problem)

    monkeypatch.setattr(solvers, "solve_exact", counting_exact)
    report = assert_batched_equals_reference(q, k)
    assert len(sizes) == 2 * report.subqubo_count  # the reference's calls too
    assert set(sizes) == {k, 40 % k}


def test_group_size_above_enumeration_limit_is_a_sub_solver_failure():
    q = random_qubo(np.random.default_rng(6), 30, coupling_prob=0.1)
    report = assert_batched_equals_reference(q, 25)
    assert report.warning.startswith(
        "sub-solver failed in iteration 0: exact enumeration limited to n <= 24")
    assert report.best_assignment.tolist() == [1] * 30


def test_zero_variable_objective_reports_like_per_group_loop():
    q = Qubo(0, np.zeros(0))
    report = assert_batched_equals_reference(q, 7)
    assert report.warning is None
    assert (report.objective_trace, report.iterations_run, report.subqubo_count) == \
        ([0.0, 0.0], 1, 0)


@pytest.mark.parametrize("subsolver", [exact_subsolver, lambda a, b, e: solve_exact((a, b))],
                         ids=["exact", "other"])
def test_bookkeeping_error_propagates(subsolver, monkeypatch):
    def out_of_memory(qubo, groups, k):
        raise MemoryError("cannot split")

    monkeypatch.setattr(solvers, "_split_groups", out_of_memory)
    with pytest.raises(MemoryError, match="cannot split"):
        solve_iterative(random_qubo(np.random.default_rng(2), 20), subsolver)


# -- speculative sub-solves on a worker process ------------------------------------------
# A worker's answer is pickled back to the walk, and every report below must
# equal the sequential walk's: the answers must be the in-process bits.

CALLS: list[tuple[int, int, int]] = []  # entropies of this process's sub-solves


@dataclasses.dataclass(frozen=True)
class Logged:
    """A picklable sub-solver that logs each call in the process it runs in
    (a worker logs into its own copy of ``CALLS``) and raises ValueError on
    the entropy ``fail_at`` in the processes ``fail_in`` names."""

    inner: object
    fail_at: tuple | None = None
    fail_in: str = "any"  # "any", "worker" or "exit in worker"

    def __call__(self, a, block, entropy):
        CALLS.append(entropy)
        in_worker = multiprocessing.parent_process() is not None
        if entropy == self.fail_at and (self.fail_in == "any" or in_worker):
            if self.fail_in == "exit in worker":
                os._exit(1)
            raise ValueError(f"no answer for {entropy}")
        return self.inner(a, block, entropy)


class Watched:
    """An executor that keeps every task it is handed."""

    def __init__(self, executor):
        self.executor = executor
        self.tasks = []  # (entropy, future)

    def submit(self, fn, *args):
        future = self.executor.submit(fn, *args)
        self.tasks.append((args[-1], future))
        return future


def fork_pool():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    return ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))


@pytest.fixture
def one_worker():
    with fork_pool() as pool:
        yield pool


def assert_speculative_equals_sequential(pool, q, subsolver, k=7, seed=0):
    """The report with a 1-worker executor equals the one without; every
    task handed out is done on return. Returns the report and the tasks."""
    want = solve_iterative(q, subsolver, k=k, seed=seed)
    watched = Watched(pool)
    got = solve_iterative(q, subsolver, k=k, seed=seed, executor=watched)
    assert got.to_dict() == want.to_dict()
    assert all(future.done() for _, future in watched.tasks)
    return got, watched.tasks


def test_speculative_walk_keeps_the_vqe_golden(one_worker):
    rng = np.random.default_rng(41)
    problems = [(random_qubo(rng, 16, coupling_prob=0.3, paper_like=True), s) for s in (3, 4)]
    subsolver = make_vqe_subsolver(shots=16, max_evaluations=9)
    digests, handed = [], 0
    for q, seed in problems:
        report, tasks = assert_speculative_equals_sequential(one_worker, q, subsolver, seed=seed)
        digests.append(report_digest(report))
        handed += len(tasks)
    assert handed > 0
    h = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert h == DECOMPOSITION_GOLDEN["random-vqe-k7"]


def test_speculative_walk_equals_sequential_on_desk_objectives(one_worker, desk_config,
                                                              desk_events):
    subsolver = make_vqe_subsolver(shots=16, max_evaluations=12)
    for q, seed in desk_objectives(desk_config, desk_events, 2):
        _, tasks = assert_speculative_equals_sequential(one_worker, q, subsolver, seed=seed)
        assert tasks


def test_stale_group_is_solved_again_in_process(one_worker):
    # groups (1, 2) and (0, 3): group 0 turns variable 1 off, which moves
    # group 1's boundary through the coupling (1, 3) after the worker took it
    q = qubo_from_dict(4, np.array([1.0, 1.0, -0.5, -0.5]), {(0, 2): -0.95, (1, 3): 1.0})
    subsolver = Logged(make_vqe_subsolver(shots=0, max_evaluations=60))
    want = solve_iterative(q, subsolver, k=2, seed=5)
    CALLS.clear()
    watched = Watched(one_worker)
    got = solve_iterative(q, subsolver, k=2, seed=5, executor=watched)
    assert got.to_dict() == want.to_dict()
    assert got.to_dict()["best_assignment"] == "0011"
    assert [entropy for entropy, _ in watched.tasks] == [(5, 0, 1), (5, 1, 1)]
    # solved in this process: group 1 of iteration 0 again, but not group 1
    # of iteration 1, which no flip reached
    assert CALLS == [(5, 0, 0), (5, 0, 1), (5, 1, 0)]


@pytest.mark.parametrize("group", [0, 1, 2])
def test_speculative_sub_solver_failure_reports_like_sequential(one_worker, group):
    # at the default budget, the worker's task is still running when the
    # walk stops at group 0, so the return waits for it
    q = random_qubo(np.random.default_rng(41), 16, coupling_prob=0.3, paper_like=True)
    subsolver = Logged(make_vqe_subsolver(), fail_at=(3, 1, group))
    report, _ = assert_speculative_equals_sequential(one_worker, q, subsolver, seed=3)
    assert report.warning == f"sub-solver failed in iteration 1: no answer for (3, 1, {group})"


def test_failure_on_the_worker_alone_is_no_failure(one_worker):
    q = random_qubo(np.random.default_rng(41), 16, coupling_prob=0.3, paper_like=True)
    subsolver = Logged(make_vqe_subsolver(shots=16, max_evaluations=9), fail_at=(3, 0, 2),
                       fail_in="worker")
    report, tasks = assert_speculative_equals_sequential(one_worker, q, subsolver, seed=3)
    assert (3, 0, 2) in [entropy for entropy, _ in tasks]
    assert report.warning is None


def test_dead_worker_is_no_sub_solver_failure():
    q = random_qubo(np.random.default_rng(41), 16, coupling_prob=0.3, paper_like=True)
    subsolver = Logged(make_vqe_subsolver(shots=16, max_evaluations=9), fail_at=(3, 0, 2),
                       fail_in="exit in worker")
    with fork_pool() as pool:
        report, tasks = assert_speculative_equals_sequential(pool, q, subsolver, seed=3)
        # the pool is broken from then on: no later iteration handed out a task
        assert [entropy for entropy, _ in tasks] == [(3, 0, 2)]
    assert report.warning is None and report.iterations_run > 1
