import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubotrack
import qubotrack.vqe as vqe
from conftest import (best_bitstring, measured_index_to_bitstring, qubo_from_dict,
                      random_qubo, sub_problems, vqe_counts)
from qubotrack.qubo import Qubo, objective
from qubotrack.solvers import solve_exact
from qubotrack.vqe import (NFT_SHIFTS, ResourceError, VqeConfig, VqeResult,
                           basis_energies, nft_update, prepare_state, prepare_states,
                           run_vqe, selection_bits)


# -- state preparation -----------------------------------------------------------

def test_zero_angles_give_ground_register():
    for n in (1, 2, 5):
        state = prepare_state(np.zeros(2 * n), n)
        assert state[0] == pytest.approx(1.0)
        assert np.abs(state[1:]).max() == 0.0


def test_ry_pi_flips_single_qubit():
    # R_Y(pi)|0> = |1> up to a global sign: verified against the 2x2 matrix
    state = prepare_state(np.array([math.pi, 0.0]), 1)
    theta = math.pi
    matrix = np.array([[math.cos(theta / 2), -math.sin(theta / 2)],
                       [math.sin(theta / 2), math.cos(theta / 2)]])
    expected = matrix @ np.array([1.0, 0.0])
    assert np.allclose(state.real, expected, atol=1e-15)
    assert abs(abs(state[1]) - 1.0) < 1e-12


def test_uniform_superposition_via_half_pi_layer():
    n = 3
    params = np.concatenate([np.full(n, math.pi / 2), np.zeros(n)])
    state = prepare_state(params, n)
    assert np.allclose(np.abs(state) ** 2, 1.0 / 2 ** n, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_norm_preserved(seed, n):
    rng = np.random.default_rng(seed)
    state = prepare_state(rng.uniform(0, 2 * math.pi, 2 * n), n)
    assert abs((np.abs(state) ** 2).sum() - 1.0) < 1e-12


def test_entangler_produces_correlations():
    # RY(pi/2) on qubit 0 then CNOT: the Bell-like state has no weight on 01/10
    state = prepare_state(np.array([math.pi / 2, 0.0, 0.0, 0.0]), 2)
    probs = np.abs(state) ** 2
    assert probs[0] == pytest.approx(0.5, abs=1e-12)  # |00>
    assert probs[3] == pytest.approx(0.5, abs=1e-12)  # |11>
    assert probs[1] == probs[2] == 0.0


def _ry(theta):
    return np.array([[math.cos(theta / 2), -math.sin(theta / 2)],
                     [math.sin(theta / 2), math.cos(theta / 2)]])


# CNOT with control on the left (more significant) of two adjacent qubits
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)


def _dense_circuit(params, n):
    """The ansatz as one 2^n x 2^n matrix, gate by gate with np.kron
    (qubit 0 is the leftmost factor, i.e. the most significant bit)."""
    def embed(gate, q):  # gate on qubit q, or on q and q + 1
        width = gate.shape[0].bit_length() - 1
        return np.kron(np.kron(np.eye(2 ** q), gate), np.eye(2 ** (n - q - width)))

    u = np.eye(2 ** n)
    for q in range(n):
        u = embed(_ry(params[q]), q) @ u
    for q in range(n - 1):
        u = embed(_CNOT, q) @ u
    for q in range(n):
        u = embed(_ry(params[n + q]), q) @ u
    return u


@pytest.mark.parametrize("n", range(1, 9))
def test_state_matches_dense_circuit_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        params = rng.uniform(-2 * math.pi, 2 * math.pi, 2 * n)
        state = prepare_state(params, n)
        assert state.dtype == np.float64 and state.shape == (2 ** n,)
        expected = _dense_circuit(params, n)[:, 0]
        assert np.allclose(state, expected, rtol=0.0, atol=1e-12)


def _gate_by_gate(params, n):
    """The ansatz on |0...0>, one gate at a time on the state vector."""
    state = np.zeros(2 ** n)
    state[0] = 1.0

    def rotate(state, q, theta):
        return np.einsum("ab,ibj->iaj", _ry(theta), state.reshape(2 ** q, 2, -1)).ravel()

    for q in range(n):
        state = rotate(state, q, params[q])
    for q in range(n - 1):  # control q, target q + 1
        pairs = state.reshape(2 ** q, 2, 2, -1).copy()
        pairs[:, 1] = pairs[:, 1, ::-1].copy()
        state = pairs.ravel()
    for q in range(n):
        state = rotate(state, q, params[n + q])
    return state


@pytest.mark.parametrize("n", range(1, 13))
def test_state_matches_gate_by_gate_reference(n):
    # reaches the sizes where the second layer splits into three or more
    # Kronecker factors, which the dense oracle above does not
    rng = np.random.default_rng(200 + n)
    params = rng.uniform(-2 * math.pi, 2 * math.pi, (3, 2 * n))
    for row, state in zip(params, prepare_states(params, n)):
        assert np.allclose(state, _gate_by_gate(row, n), rtol=0.0, atol=1e-12)


def test_batched_rows_equal_single_states():
    rng = np.random.default_rng(12)
    for n in (1, 3, 7, 10):
        params = rng.uniform(0, 2 * math.pi, (5, 2 * n))
        states = prepare_states(params, n)
        assert states.dtype == np.float64 and states.shape == (5, 2 ** n)
        for row, state in zip(params, states):
            assert np.array_equal(prepare_state(row, n), state)


def test_param_count_and_qubit_limit():
    with pytest.raises(ValueError, match="parameters"):
        prepare_state(np.zeros(3), 2)
    with pytest.raises(ResourceError):
        prepare_state(np.zeros(42), 21)


# -- basis energies ------------------------------------------------------------------

def assert_basis_energies_are_the_objective(q):
    """Entry s of the basis energies is the objective at the selection bits
    of measured index s, to rounding."""
    table = basis_energies(q.linear, q.dense())
    assert table.shape == (2 ** q.n,)
    for s in range(2 ** q.n):
        want = objective(q, selection_bits(s, q.n))
        assert abs(table[s] - want) <= 1e-12 * (1.0 + abs(want)), (q.n, s)


def test_basis_energies_single_variable():
    # measured 0 is the selected state
    assert basis_energies(np.array([0.7]), np.zeros((1, 1))).tolist() == [0.7, 0.0]


def test_basis_energies_zero_objective():
    assert basis_energies(np.zeros(3), np.zeros((3, 3))).tolist() == [0.0] * 8
    assert basis_energies(np.zeros(0), np.zeros((0, 0))).tolist() == [0.0]


def test_basis_energies_measured_convention():
    # qubit 0 is the most significant index bit; measured 0 means selected
    q = qubo_from_dict(2, np.array([-1.0, 0.5]), {(0, 1): -0.95})
    table = basis_energies(q.linear, q.dense())
    # index 0 = measured 00 = T (1, 1)
    assert table[0] == pytest.approx(objective(q, np.array([1, 1])))
    # index 1 = measured 01 = T (1, 0)
    assert table[1] == pytest.approx(objective(q, np.array([1, 0])))
    assert table[2] == pytest.approx(objective(q, np.array([0, 1])))
    assert table[3] == pytest.approx(objective(q, np.array([0, 0])))


def test_basis_energies_are_the_objective_on_random_problems():
    rng = np.random.default_rng(77)
    for trial in range(140):
        n = trial % 7
        assert_basis_energies_are_the_objective(
            random_qubo(rng, n, coupling_prob=float(rng.uniform(0.1, 0.9)),
                        paper_like=bool(trial % 2)))


def test_basis_energies_are_the_objective_on_restricted_event_problems(desk_config,
                                                                        desk_events):
    from qubotrack.geometry import build_geometry
    from qubotrack.pipeline import calibrate
    from qubotrack.preselect import build_doublets, build_triplets
    from qubotrack.qubo import assemble_qubo
    window, scaling, _ = calibrate(desk_events, desk_config)
    triplets = build_triplets(build_doublets(
        desk_events[0].hits, build_geometry(desk_config.geometry), window), window)
    q = assemble_qubo(triplets, scaling)
    rng = np.random.default_rng(5)
    checked = coupled = 0
    for bits in (np.ones(q.n, dtype=np.int8),
                 rng.integers(0, 2, q.n).astype(np.int8)):
        for _, sub in sub_problems(q, bits, 7):
            assert_basis_energies_are_the_objective(sub)
            checked += 1
            coupled += len(sub.indices) > 0
    assert checked >= 20 and coupled >= 10


def test_basis_energies_check_the_qubit_limit_first():
    # 2^21 states would be enumerated; the limit is checked before any is
    with pytest.raises(ResourceError):
        basis_energies(np.zeros(21), np.zeros((21, 21)))


def test_measured_gather_is_cached_and_read_only():
    gather = vqe._measured_gather(5)
    assert gather is vqe._measured_gather(5)
    assert not gather.flags.writeable
    assert sorted(gather.tolist()) == list(range(32))


# -- energy expectation ------------------------------------------------------------

def sample_counts(state, shots, rng):
    """Measured basis-state indices for ``shots`` samples of |psi|^2."""
    return vqe._sample(np.asarray(state)[None], rng.random((1, shots)))[0]


def energy_expectation(state, table, shots, rng=None):
    """<H> of the basis energies ``table``, exactly (shots=0) or as a Monte
    Carlo estimate from sampled indices."""
    if shots == 0:
        return float(vqe._probabilities(state) @ table)
    return float(table[sample_counts(state, shots, rng)].mean())


def test_basis_state_energy_exact_for_any_shots():
    q = random_qubo(np.random.default_rng(1), 3)
    table = basis_energies(q.linear, q.dense())
    n = 3
    for index in (0, 3, 7):
        state = np.zeros(2 ** n, dtype=complex)
        state[index] = 1.0
        exact = energy_expectation(state, table, shots=0)
        assert exact == pytest.approx(table[index], abs=1e-12)
        sampled = energy_expectation(state, table, shots=64,
                                     rng=np.random.default_rng(0))
        assert sampled == pytest.approx(table[index], abs=1e-12)


def test_uniform_superposition_energy_is_mean():
    q = random_qubo(np.random.default_rng(2), 2)
    table = basis_energies(q.linear, q.dense())
    params = np.array([math.pi / 2, math.pi / 2, 0.0, 0.0])
    state = prepare_state(params, 2)
    assert energy_expectation(state, table, shots=0) == pytest.approx(
        table.mean(), abs=1e-12)


def test_shot_estimate_consistent_with_exact():
    rng = np.random.default_rng(3)
    q = random_qubo(rng, 4)
    table = basis_energies(q.linear, q.dense())
    state = prepare_state(rng.uniform(0, 2 * math.pi, 8), 4)
    exact = energy_expectation(state, table, shots=0)
    probs = np.abs(state) ** 2
    var = float(probs @ (table - exact) ** 2)
    shots = 256
    stderr = math.sqrt(var / shots)
    estimates = np.array([
        energy_expectation(state, table, shots=shots, rng=np.random.default_rng(i))
        for i in range(100)
    ])
    assert np.all(np.abs(estimates - exact) < 5 * stderr + 1e-12)


def test_sampled_distribution_matches_probabilities():
    from scipy import stats
    rng = np.random.default_rng(4)
    state = prepare_state(rng.uniform(0, 2 * math.pi, 6), 3)
    probs = np.abs(state) ** 2
    shots = 8192
    samples = sample_counts(state, shots, np.random.default_rng(5))
    assert len(samples) == shots
    observed = np.bincount(samples, minlength=8)
    # pool low-expectation states to keep the chi-square approximation valid
    big = probs * shots >= 5
    obs = list(observed[big]) + [observed[~big].sum()]
    exp = list(probs[big] * shots) + [probs[~big].sum() * shots]
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    result = stats.chisquare(obs, exp)
    assert result.pvalue > 0.001


def test_sampler_is_the_draw_rng_choice_makes():
    # same indices and the same generator state afterwards, so swapping the
    # sampler leaves every later draw of a run unchanged
    meta = np.random.default_rng(13)
    for trial in range(60):
        size = int(meta.integers(1, 300))
        weights = meta.random(size) ** 4
        weights[meta.random(size) < 0.3] = 0.0
        weights[int(meta.integers(size))] += 1e-3
        state = np.sqrt(weights / weights.sum())
        p = np.abs(state) ** 2 / (np.abs(state) ** 2).sum()
        shots = int(meta.integers(0, 2000))
        ours = np.random.default_rng(trial)
        theirs = np.random.default_rng(trial)
        got = sample_counts(state, shots, ours)
        want = theirs.choice(len(p), size=shots, p=p)
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_batched_sampler_is_the_draw_rng_choice_makes():
    # the states run_vqe scores at once share one draw, in which each state's
    # sampling uniforms may be followed by its readout-flip uniforms: every
    # row's indices are those Generator.choice makes for that state on its
    # own, drawing the states in turn, and the generator ends in the same state
    meta = np.random.default_rng(16)
    for trial in range(60):
        rows, size = int(meta.integers(1, 5)), int(meta.integers(2, 300))
        shots, extra = int(meta.integers(0, 1000)), int(meta.choice([0, 3, 7]))
        states = np.empty((rows, size))
        for state in states:
            w = meta.random(size) ** 4
            w[meta.random(size) < 0.3] = 0.0
            stop = int(meta.integers(1, size))  # a leading run of zero-probability bins
            w[:stop] = 0.0
            w[int(meta.integers(stop, size))] += 1e-3
            state[:] = np.sqrt(w / w.sum())
            state[int(meta.integers(stop))] = 1e-155  # one subnormal probability in the run
        ours = np.random.default_rng(trial)
        theirs = np.random.default_rng(trial)
        got = vqe._sample(states, ours.random((rows, shots * (1 + extra)))[:, :shots])
        assert got.shape == (rows, shots)
        for row, state in zip(got, states):
            p = np.abs(state) ** 2 / (np.abs(state) ** 2).sum()
            assert np.array_equal(row, theirs.choice(len(p), size=shots, p=p)), trial
            theirs.random(shots * extra)
        assert ours.bit_generator.state == theirs.bit_generator.state


# -- the sinusoid optimizer -----------------------------------------------------------

def _nft_step(cost, theta):
    return nft_update(theta, [cost(theta + shift) for shift in NFT_SHIFTS])


def test_nft_pure_cosine():
    assert _nft_step(math.cos, 0.0) == pytest.approx(math.pi, abs=1e-12)


def test_nft_shifted_sinusoid():
    def cost(theta):
        return 2.0 + 0.5 * math.cos(theta - 0.3)
    # lands on theta* = 0.3 + pi (the update steps to the nearest equivalent
    # angle, so compare modulo 2 pi) and reaches the exact minimum value
    for start in (0.0, 1.0, -2.0, 4.0):
        theta_star = _nft_step(cost, start)
        assert theta_star % (2 * math.pi) == pytest.approx(
            (0.3 + math.pi) % (2 * math.pi), abs=1e-9)
        assert cost(theta_star) == pytest.approx(1.5, abs=1e-12)


def test_nft_flat_direction_no_move():
    assert _nft_step(lambda theta: 1.5, 0.7) == 0.7


def test_nft_exact_reconstruction_random_sinusoids():
    rng = np.random.default_rng(6)
    for _ in range(50):
        c0, c1, c2 = rng.uniform(-5, 5), rng.uniform(0.1, 3), rng.uniform(-3, 3)

        def cost(theta):
            return c0 + c1 * math.cos(theta - c2)

        theta_star = _nft_step(cost, float(rng.uniform(-3, 3)))
        assert cost(theta_star) == pytest.approx(c0 - c1, abs=1e-9)


# -- the full loop ----------------------------------------------------------------------

def test_run_vqe_single_variable():
    q = qubo_from_dict(1, np.array([-1.0]), {})
    result = run_vqe(q.linear, q.dense(), VqeConfig(shots=512, max_evaluations=60, seed=0))
    assert best_bitstring(result) == "1"
    assert result.best_energy == pytest.approx(-1.0)


def test_run_vqe_variational_bound_exact_mode():
    rng = np.random.default_rng(7)
    for trial in range(10):
        q = random_qubo(rng, 4)
        ground = basis_energies(q.linear, q.dense()).min()
        result = run_vqe(q.linear, q.dense(),
                         VqeConfig(shots=0, max_evaluations=200, seed=trial))
        assert result.final_expectation >= ground - 1e-9
        state = prepare_state(result.thetas, 4)
        if (np.abs(state) ** 2).max() > 1.0 - 1e-10:
            assert result.final_expectation == pytest.approx(ground, abs=1e-9)


def test_run_vqe_exact_mode_finds_tiny_ground_states():
    # default budget: always exact; most runs already converge within five
    # sweeps, but single-angle descent can need a restart (it stalls on
    # basis states that are minima under every one-parameter move)
    rng = np.random.default_rng(8)
    fast = 0
    for trial in range(25):
        n = int(rng.integers(1, 4))
        q = random_qubo(rng, n, coupling_prob=0.6)
        result = run_vqe(q.linear, q.dense(), VqeConfig(shots=0, max_evaluations=1000,
                                                        seed=trial))
        assert objective(q, selection_bits(result.best_index, n)) == pytest.approx(
            objective(q, solve_exact(q.linear, q.dense())), abs=1e-9)
        quick = run_vqe(q.linear, q.dense(), VqeConfig(shots=0,
                                                       max_evaluations=5 * (2 * n) * 3,
                                                       seed=trial))
        if objective(q, selection_bits(quick.best_index, n)) == pytest.approx(
                objective(q, solve_exact(q.linear, q.dense())), abs=1e-9):
            fast += 1
    assert fast >= 20  # five sweeps suffice in the typical case


def test_counts_sum_to_shots_and_use_selection_convention():
    q = qubo_from_dict(2, np.array([-1.0, -1.0]), {})
    result = run_vqe(q.linear, q.dense(), VqeConfig(shots=128, max_evaluations=100, seed=1))
    counts = vqe_counts(result)
    assert sum(counts.values()) == 128
    assert best_bitstring(result) == "11"  # both selected, measured bits 00
    assert counts.most_common(1)[0][0] == "11"


def test_measured_index_bitstring_inversion():
    # measured index 0 (all qubits |0>) means every triplet selected
    assert selection_bits(0, 3).tolist() == [1, 1, 1]
    assert selection_bits(0b100, 3).tolist() == [0, 1, 1]  # qubit 0 measured 1
    assert selection_bits(0, 0).tolist() == []


def test_selection_bits_equal_the_bitstring_path():
    # the string round trip the sub-solver used before: format the index's
    # selection bitstring, then parse each character back into a bit
    for n in range(1, 8):
        for index in range(2 ** n):
            bitstring = measured_index_to_bitstring(index, n)
            want = np.array([1 if c == "1" else 0 for c in bitstring], dtype=np.int8)
            got = selection_bits(index, n)
            assert got.dtype == np.int8 and np.array_equal(got, want), (n, index)


def test_run_vqe_deterministic_per_seed():
    q = random_qubo(np.random.default_rng(9), 5)
    a = run_vqe(q.linear, q.dense(), VqeConfig(shots=256, max_evaluations=120, seed=11))
    b = run_vqe(q.linear, q.dense(), VqeConfig(shots=256, max_evaluations=120, seed=11))
    assert a.best_index == b.best_index
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.thetas, b.thetas)


def test_run_vqe_respects_budget():
    q = random_qubo(np.random.default_rng(10), 4)
    result = run_vqe(q.linear, q.dense(), VqeConfig(shots=64, max_evaluations=50, seed=0))
    assert result.evaluations <= 50


def test_run_vqe_zero_variables_returns_at_once():
    # a child process, so that a loop that never ends fails the test by its
    # timeout instead of hanging the suite
    code = """
import numpy as np
from qubotrack.qubo import Qubo
from qubotrack.vqe import VqeConfig, run_vqe
q = Qubo(n=0, linear=np.zeros(0))
for shots in (0, 512):
    r = run_vqe(q.linear, q.dense(), VqeConfig(shots=shots, seed=1))
    print(r.best_index, r.evaluations, r.best_energy, r.samples.size, r.thetas.size)
"""
    src = str(Path(qubotrack.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.splitlines() == ["0 0 0.0 0 0"] * 2


def test_readout_error_hook_off_by_default_and_usable():
    q = qubo_from_dict(2, np.array([-1.0, -1.0]), {})
    noisy = run_vqe(q.linear, q.dense(), VqeConfig(shots=512, max_evaluations=60, seed=2,
                                                   readout_flip_probability=0.25))
    counts = vqe_counts(noisy)
    assert sum(counts.values()) == 512
    assert len(counts) > 1  # flips spread the histogram


# -- outputs pinned to the gate-by-gate complex simulator this one replaced ------------
# best bitstring, histogram, evaluation count and final angles of run_vqe on
# one 7-variable problem, recorded with the earlier simulator (complex128
# state, one R_Y and CNOT at a time, one state per evaluation)

GOLDEN_SHOTS_THETAS = [
    8.258211914941025, 1.594029995385192, 1.6040897588207268, 4.705222059394113,
    1.5635977694531573, 4.7098002273458945, 1.5202629060785378, 4.244599825716339,
    4.728490574486207, -1.6156492785518926, 1.5611124933190044, 4.7147606752482405,
    1.6141789128374944, 7.876195216134085]
GOLDEN_EXACT_THETAS = [
    8.395399096752643, 1.5708042878148518, 1.570796326794897, 4.71238898038469,
    1.5707963267948966, 4.71238898038469, 1.570796326794897, 4.170971517567684,
    4.712393083106234, -1.570796326794897, 1.570796326794897, 4.7123889803846915,
    1.570796326794897, 7.853981633974482]
GOLDEN_FLIP_THETAS = [
    7.844335542725455, 1.576803649940817, 1.5780891015013072, 4.707367239949927,
    1.526037846788065, 4.712964908063447, 1.520042017477004, 4.737632846037105,
    4.70082860950397, -1.5481018066705658, 1.5263262203428631, 4.119572991340762,
    1.5271200036947126, 8.103164942840209]
GOLDEN_FLIP_COUNTS = {
    "0001010": 1, "0101000": 1, "0101010": 13, "0101011": 3, "0101100": 1,
    "0101110": 5, "0111010": 5, "0111110": 1, "1000010": 1, "1001010": 19,
    "1001011": 1, "1001110": 6, "1100000": 1, "1100001": 1, "1100010": 21,
    "1100011": 3, "1100110": 1, "1101000": 12, "1101001": 5, "1101010": 328,
    "1101011": 18, "1101100": 4, "1101110": 34, "1101111": 2, "1110010": 1,
    "1111000": 2, "1111010": 18, "1111100": 1, "1111110": 3}


@pytest.mark.parametrize("config, evaluations, counts, thetas", [
    (VqeConfig(shots=512, max_evaluations=300, seed=17), 300,
     {"0101010": 2, "1101000": 1, "1101010": 509}, GOLDEN_SHOTS_THETAS),
    # exact mode restarts twice within this budget (after 336 and 600 evaluations)
    (VqeConfig(shots=0, max_evaluations=600, seed=17), 600, {}, GOLDEN_EXACT_THETAS),
    # readout flips draw from the same generator between the sampling draws
    (VqeConfig(shots=512, max_evaluations=300, seed=17,
               readout_flip_probability=0.05), 300, GOLDEN_FLIP_COUNTS,
     GOLDEN_FLIP_THETAS),
], ids=["shots", "exact-restarts", "readout-flips"])
def test_run_vqe_outputs_pinned(config, evaluations, counts, thetas):
    q = random_qubo(np.random.default_rng(2), 7)
    result = run_vqe(q.linear, q.dense(), config)
    assert best_bitstring(result) == "1101010"
    assert result.evaluations == evaluations
    assert dict(vqe_counts(result)) == counts
    assert np.allclose(result.thetas, thetas, rtol=0.0, atol=1e-12)


# recorded before exact mode kept its prepared states: a restart after the last
# sweep (seed 17) and two sweeps in a row that end at the same angles (seed 1)
EXACT_300_PINNED = {
    17: (-3.1053095145552225, [
        8.395399096752646, 1.5708042878148527, 1.570796326794897, 4.71238898038469,
        1.5707963267948966, 4.71238898038469, 1.570796326794897, 4.170971518583658,
        4.712408086419851, -1.5707963267948961, 1.5707963267948966, 4.712388980384688,
        1.5707963267948966, 7.853981633974484]),
    1: (-3.1053092335414885, [
        3.141592653589793, 6.283185307179586, -0.00930735598743948, 7.789057540922894,
        1.5707963267948966, 1.5707963267948966, 4.71238898038469, 3.141592653589793,
        3.141592653589793, -0.00928774811133587, 4.64746769150347, 1.5707963267949006,
        1.570796326794897, 4.712388980384688]),
}


@pytest.mark.parametrize("seed", sorted(EXACT_300_PINNED))
def test_exact_mode_prepares_each_angle_vector_once(seed, monkeypatch):
    """Exact mode keeps the last prepared state and the best sweep's, so the
    sweep checks, the best-angle check and the final state prepare each
    angle vector once, and the outputs are those it had when it prepared
    the last angles three times; with shots the final state is the one
    preparation, as before."""
    prepared = []
    prepare_state = vqe.prepare_state

    def counting(params, n):
        prepared.append(np.asarray(params).tobytes())
        return prepare_state(params, n)

    monkeypatch.setattr(vqe, "prepare_state", counting)
    q = random_qubo(np.random.default_rng(2), 7)
    result = run_vqe(q.linear, q.dense(), VqeConfig(shots=0, max_evaluations=300, seed=seed))
    assert len(prepared) == len(set(prepared)) <= 9  # 8 sweeps, one maybe restarted
    expectation, thetas = EXACT_300_PINNED[seed]
    assert (best_bitstring(result), result.evaluations,
            result.samples.size) == ("1101010", 300, 0)
    assert result.best_energy == pytest.approx(-3.1053095146611827, rel=1e-12)
    assert result.final_expectation == pytest.approx(expectation, rel=1e-12)
    assert np.allclose(result.thetas, thetas, rtol=0.0, atol=1e-12)
    prepared.clear()
    run_vqe(q.linear, q.dense(), VqeConfig(shots=512, max_evaluations=300, seed=seed))
    assert len(prepared) == 1


# -- the two-vector sweep against the loop that prepared every trial state ----------

def reference_run_vqe(linear, block, config):
    """run_vqe with shots > 0 as it was before the two-vector sweep: each
    coordinate step prepares its three trial states from the angles and
    samples them one at a time. Returns the result and its generator."""
    n = len(linear)
    table = basis_energies(linear, block)
    rng = np.random.default_rng(config.seed)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=2 * n)
    best_index, best_energy = None, math.inf
    evaluations = 0

    def measure(state):
        nonlocal best_index, best_energy
        samples = sample_counts(state, config.shots, rng)
        p = config.readout_flip_probability
        if p > 0.0:
            flips = (rng.random((len(samples), n)) < p).astype(np.int64)
            samples = samples ^ (flips << np.arange(n - 1, -1, -1)).sum(axis=1)
        energies = table[samples]
        lowest = int(np.argmin(energies))
        if energies[lowest] < best_energy:
            best_energy, best_index = float(energies[lowest]), int(samples[lowest])
        return samples, energies

    while evaluations + 3 <= config.max_evaluations:
        for d in range(2 * n):
            if evaluations + 3 > config.max_evaluations:
                break
            trials = np.repeat(thetas[None, :], len(NFT_SHIFTS), axis=0)
            trials[:, d] += NFT_SHIFTS
            costs = []
            for state in prepare_states(trials, n):
                evaluations += 1
                costs.append(float(measure(state)[1].mean()))
            thetas[d] = nft_update(thetas[d], costs)

    final_state = prepare_state(thetas, n)
    probs = np.abs(final_state) ** 2
    samples, _ = measure(final_state)
    result = VqeResult(
        best_index=best_index, best_energy=float(table[best_index]), samples=samples,
        final_expectation=float(probs / probs.sum() @ table),
        evaluations=evaluations, thetas=thetas)
    return result, rng


def _run_vqe_and_generator(linear, block, config):
    """run_vqe's result and the generator it drew from."""
    made = []
    real = np.random.default_rng

    def recording(*args):
        made.append(real(*args))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        result = run_vqe(linear, block, config)
    assert len(made) == 1
    return result, made[0]


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("flip", [0.0, 0.05], ids=["no-flips", "readout-flips"])
def test_two_vector_sweep_equals_per_trial_loop(flip):
    # every sampled index is the same, so the best index, the final
    # samples, the angles and the generator's state afterwards are too
    meta = np.random.default_rng(2024 if flip else 2025)
    budgets = (1, 2, 3, 4, 44, 300)
    for trial in range(120):
        n = int(meta.integers(1, 11))
        q = random_qubo(meta, n, coupling_prob=float(meta.uniform(0.1, 0.9)))
        if trial % 3 == 0:
            # whole coefficients: energies tie, so which of several lowest
            # samples is kept decides the best bitstring
            i, j, b = q.upper_triangle()
            q = Qubo(n, np.round(2 * q.linear), i, j, np.sign(b))
        config = VqeConfig(shots=int(meta.choice([1, 5, 64, 512])),
                           max_evaluations=budgets[trial % len(budgets)],
                           seed=int(meta.integers(2 ** 31)),
                           readout_flip_probability=flip)
        got, got_rng = _run_vqe_and_generator(q.linear, q.dense(), config)
        want, want_rng = reference_run_vqe(q.linear, q.dense(), config)
        assert got.best_index == want.best_index, (trial, config)
        assert _hex([got.best_energy]) == _hex([want.best_energy])
        assert np.array_equal(got.samples, want.samples)
        assert got.evaluations == want.evaluations
        assert _hex(got.thetas) == _hex(want.thetas)
        assert _hex([got.final_expectation]) == _hex([want.final_expectation])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("shots", [512, 0], ids=["shots", "exact"])
def test_running_state_does_not_drift_within_a_sweep(monkeypatch, shots):
    n = 12
    sweep = vqe._nft_sweep
    seen = []

    def checked(thetas, n, steps, score):
        state = sweep(thetas, n, steps, score)
        seen.append(np.abs(state - prepare_state(thetas, n)).max())
        return state

    monkeypatch.setattr(vqe, "_nft_sweep", checked)
    q = random_qubo(np.random.default_rng(12), n)
    run_vqe(q.linear, q.dense(), VqeConfig(shots=shots, max_evaluations=300, seed=3))
    assert len(seen) == 5  # four full sweeps of 24 steps, then 4 steps
    assert max(seen) <= 1e-12


def test_nan_state_is_not_normalized():
    with pytest.raises(ValueError, match="not normalized"):
        sample_counts(np.full(8, np.nan), 16, np.random.default_rng(0))
    q = random_qubo(np.random.default_rng(0), 3)
    with pytest.raises(ValueError, match="not normalized"):
        energy_expectation(np.full(8, np.nan), basis_energies(q.linear, q.dense()),
                           shots=0)


@pytest.mark.parametrize("shots", [512, 0], ids=["shots", "exact"])
def test_nan_coefficient_is_named(shots):
    q = random_qubo(np.random.default_rng(14), 4)
    config = VqeConfig(shots=shots, max_evaluations=30, seed=0)
    linear, block = q.linear.copy(), q.dense()
    linear[2] = np.nan
    with pytest.raises(ValueError, match="energy table not finite"):
        run_vqe(linear, q.dense(), config)
    block[1, 3] = block[3, 1] = np.nan
    with pytest.raises(ValueError, match="energy table not finite"):
        run_vqe(q.linear, block, config)


def test_vqe_subsolver_pickles_to_the_same_answers():
    q = random_qubo(np.random.default_rng(8), 7, coupling_prob=0.5, paper_like=True)
    a, block = q.linear, q.dense()
    subsolver = vqe.make_vqe_subsolver(shots=64, max_evaluations=30)
    copy = pickle.loads(pickle.dumps(subsolver))
    assert copy == subsolver
    for entropy in [(1, 0, 0), (1, 0, 1), (2, 3, 4)]:
        assert copy(a, block, entropy).tolist() == subsolver(a, block, entropy).tolist()


def test_vqe_subsolver_calls_run_vqe_through_the_module(monkeypatch):
    seen = []
    run = vqe.run_vqe

    def counting(linear, block, config):
        seen.append(config.seed)
        return run(linear, block, config)

    monkeypatch.setattr(vqe, "run_vqe", counting)
    vqe.make_vqe_subsolver(shots=8, max_evaluations=9)(np.zeros(2), np.zeros((2, 2)), (0, 0, 0))
    assert len(seen) == 1
