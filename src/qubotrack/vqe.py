"""Self-contained statevector simulation of a hardware-efficient variational
eigensolver, used as a sub-problem solver for the selection objective.

Circuit: one R_Y rotation layer, a linear CNOT entangling chain
(q0->q1, q1->q2, ...), and a second R_Y layer; 2n parameters for n qubits.

    R_Y(theta) = [[cos(theta/2), -sin(theta/2)],
                  [sin(theta/2), cos(theta/2)]]

All gates are real, so the state is 2^n real float64 amplitudes. Basis index
convention: qubit 0 is the most significant bit of the amplitude index,
matching bitstrings printed with variable 0 leftmost. The first R_Y layer on
|0...0> is a product state, the CNOT chain a basis permutation cached per n,
and the second layer one 2x2 matmul per qubit, for a batch of states at once.

Because the target Hamiltonian is diagonal, the energy of every sampled
bitstring is evaluated classically; no Pauli-term measurement batching is
needed. With the spin convention Z|0> = +|0> and T = (1 + Z)/2, a measured
bit m corresponds to the selection bit t = 1 - m; results are reported in
t-convention (bit=1 <=> triplet selected).

The optimizer is coordinate-wise: the cost along any single R_Y angle is an
exact sinusoid c0 + c1*cos(theta - c2), reconstructed from three evaluations
(current and +-pi/2), after which the parameter jumps to the sinusoid's
global minimum (Nakanishi, Fujii & Todo 2020). The three trial states of
each coordinate step are prepared as one batch and scored in that order.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .qubo import Assignment, IsingHamiltonian, Qubo, to_ising

MAX_QUBITS = 20

# vector of 2n rotation angles: first layer then second layer
AnsatzParams = np.ndarray

# angle offsets of the three evaluations of one coordinate step, in scoring order
NFT_SHIFTS = (0.0, math.pi / 2.0, -math.pi / 2.0)


class ResourceError(ValueError):
    pass


@dataclass(frozen=True)
class VqeConfig:
    shots: int = 512            # samples per energy estimate; 0 = exact expectation
    max_evaluations: int = 300  # optimizer budget in energy evaluations
    seed: int = 0
    readout_flip_probability: float = 0.0  # hook for a symmetric bit-flip readout error

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        if not 0.0 <= self.readout_flip_probability < 1.0:
            raise ValueError("readout_flip_probability must be in [0, 1)")


@functools.lru_cache(maxsize=None)
def _cnot_chain_gather(n: int) -> np.ndarray:
    # the chain sets bit k to the XOR of bits 0..k, so amplitude j after it
    # is amplitude j ^ (j >> 1) before it
    j = np.arange(2 ** n)
    gather = j ^ (j >> 1)
    gather.setflags(write=False)
    return gather


def prepare_states(params: np.ndarray, n: int) -> np.ndarray:
    """Run the ansatz circuit on |0...0> for each row of ``params`` (shape
    (batch, 2n)), returning real float64 amplitudes of shape (batch, 2^n)."""
    if n > MAX_QUBITS:
        raise ResourceError(f"statevector simulation limited to {MAX_QUBITS} qubits")
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != 2 * n:
        raise ValueError(f"expected {2 * n} parameters per state, got shape {params.shape}")
    batch = len(params)
    cos, sin = np.cos(params / 2.0), np.sin(params / 2.0)
    # each angle's R_Y matrix, row-major; its first column (cos, sin) is R_Y|0>
    ry = np.stack([cos, -sin, sin, cos], axis=-1)
    psi = np.ones((batch, 1))
    for q in range(n):
        psi = (psi[:, :, None] * ry[:, q, None, 0::2]).reshape(batch, -1)
    psi = psi.take(_cnot_chain_gather(n), axis=1)
    spare = np.empty_like(psi)
    for q in range(n):
        # qubit q leads the index; the result is written with it in last
        # place, so qubit q + 1 leads next and n moves restore the order
        np.matmul(ry[:, n + q].reshape(batch, 2, 2), psi.reshape(batch, 2, -1),
                  out=spare.reshape(batch, -1, 2).transpose(0, 2, 1))
        psi, spare = spare, psi
    return psi


def prepare_state(params: AnsatzParams, n: int) -> np.ndarray:
    """Run the ansatz circuit on |0...0>: 2^n real float64 amplitudes."""
    return prepare_states(np.asarray(params, dtype=float)[None, :], n)[0]


def _probabilities(state: np.ndarray) -> np.ndarray:
    p = np.abs(state) ** 2
    total = p.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"state not normalized: sum |amp|^2 = {total!r}")
    return p / total


def sample_counts(state: np.ndarray, shots: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Measured basis-state indices for ``shots`` samples of |psi|^2: the
    draw ``rng.choice(len(state), size=shots, p=...)`` makes, without its
    per-call argument checks (same indices, same generator state after)."""
    cdf = np.cumsum(_probabilities(state))
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(shots), side="right")


def energy_expectation(state: np.ndarray, ising: IsingHamiltonian, shots: int,
                       rng: np.random.Generator | None = None) -> float:
    """<H> exactly (shots=0) or as a Monte Carlo estimate from sampled bitstrings."""
    table = ising.measured_energy_table()
    if shots == 0:
        return float(_probabilities(state) @ table)
    if rng is None:
        raise ValueError("shots > 0 requires an rng")
    return float(table[sample_counts(state, shots, rng)].mean())


def nft_update(current_theta: float, costs: Sequence[float]) -> float:
    """One sinusoid-reconstruction step for a single rotation angle.

    ``costs`` holds the cost at ``current_theta + shift`` for each shift in
    NFT_SHIFTS: the current angle, then +pi/2, then -pi/2. Solves for
    (c0, c1, c2) in c0 + c1*cos(theta - c2) and returns the sinusoid's
    minimizer c2 + pi. A flat direction (c1 ~ 0) leaves theta unchanged.
    """
    z1, z2, z3 = costs
    c0 = 0.5 * (z2 + z3)
    amp_cos = z1 - c0            # c1 * cos(theta0 - c2)
    amp_sin = 0.5 * (z3 - z2)    # c1 * sin(theta0 - c2)
    c1 = math.hypot(amp_cos, amp_sin)
    if c1 < 1e-11 * max(1.0, abs(c0)):
        return current_theta
    phi = math.atan2(amp_sin, amp_cos)
    # step wrapped into (-pi, pi] so a converged angle stays put exactly
    step = math.remainder(math.pi - phi, 2.0 * math.pi)
    return current_theta + step


def measured_index_to_bitstring(index: int, n: int) -> str:
    """Selection bitstring (t = 1 - measured bit) with variable 0 leftmost."""
    return format(index ^ (2 ** n - 1), f"0{n}b")


def bitstring_to_bits(bitstring: str) -> Assignment:
    return np.array([1 if c == "1" else 0 for c in bitstring], dtype=np.int8)


@dataclass
class VqeResult:
    best_bitstring: str          # selection convention, variable 0 leftmost
    best_energy: float           # diagonal energy of that basis state
    counts: Counter              # final-state measurement histogram (selection bitstrings)
    final_expectation: float     # <H> of the optimized state (exact)
    evaluations: int
    thetas: np.ndarray = field(repr=False)

    @property
    def best_bits(self) -> Assignment:
        return bitstring_to_bits(self.best_bitstring)


def run_vqe(ising: IsingHamiltonian, config: VqeConfig | None = None) -> VqeResult:
    """Minimize <H> by cycling sinusoid updates over all 2n parameters.

    Returns the lowest-energy bitstring sampled anywhere during the run plus
    a final measurement histogram of ``shots`` samples. With shots=0 the
    run is fully deterministic apart from the random initial angles; the
    returned bitstring is then the lowest-energy basis state among those
    carrying non-negligible probability (> 1e-6) in the final state.

    Exact mode (shots=0) detects coordinate-descent fixed points; if budget
    remains it restarts from fresh random angles and keeps the best
    converged point, since the sinusoid updates can stall on basis states
    that are minima under every single-angle move.

    A 0-variable problem returns at once: empty bitstring, no counts and
    0 evaluations.
    """
    config = config or VqeConfig()
    n = ising.n
    if n > MAX_QUBITS:
        raise ResourceError(f"statevector simulation limited to {MAX_QUBITS} qubits")
    table = ising.measured_energy_table()
    if n == 0:  # no angle to optimise: the one (empty) state is the answer
        energy = float(table[0])
        return VqeResult(best_bitstring="", best_energy=energy, counts=Counter(),
                         final_expectation=energy, evaluations=0, thetas=np.zeros(0))
    rng = np.random.default_rng(config.seed)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=2 * n)

    best_sampled_index: int | None = None
    best_sampled_energy = math.inf
    evaluations = 0

    def flip_readout(samples: np.ndarray) -> np.ndarray:
        p = config.readout_flip_probability
        if p == 0.0:
            return samples
        flips = (rng.random((len(samples), n)) < p).astype(np.int64)
        masks = (flips << np.arange(n - 1, -1, -1)).sum(axis=1)
        return samples ^ masks

    def measure(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal best_sampled_index, best_sampled_energy
        samples = flip_readout(sample_counts(state, config.shots, rng))
        energies = table[samples]
        lowest = int(np.argmin(energies))
        if energies[lowest] < best_sampled_energy:
            best_sampled_energy = float(energies[lowest])
            best_sampled_index = int(samples[lowest])
        return samples, energies

    def evaluate(state: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        if config.shots == 0:
            return float(_probabilities(state) @ table)
        return float(measure(state)[1].mean())

    def exact_expectation(params: np.ndarray) -> float:
        return float(_probabilities(prepare_state(params, n)) @ table)

    best_thetas = thetas.copy()
    best_expectation = math.inf
    previous_sweep = math.inf
    while evaluations + 3 <= config.max_evaluations:
        for d in range(2 * n):
            if evaluations + 3 > config.max_evaluations:
                break
            trials = np.repeat(thetas[None, :], len(NFT_SHIFTS), axis=0)
            trials[:, d] += NFT_SHIFTS
            costs = [evaluate(state) for state in prepare_states(trials, n)]
            thetas[d] = nft_update(thetas[d], costs)
        if config.shots == 0:
            # exact mode: bank the best sweep result and restart from fresh
            # angles once a sweep stops improving (single-angle descent can
            # stall on basis states minimal under every one-parameter move)
            sweep_cost = exact_expectation(thetas)
            if sweep_cost < best_expectation:
                best_expectation = sweep_cost
                best_thetas = thetas.copy()
            if previous_sweep - sweep_cost < 1e-9:
                thetas = rng.uniform(0.0, 2.0 * math.pi, size=2 * n)
                previous_sweep = math.inf
            else:
                previous_sweep = sweep_cost

    if config.shots == 0 and exact_expectation(thetas) > best_expectation:
        thetas = best_thetas

    final_state = prepare_state(thetas, n)
    probs = _probabilities(final_state)
    final_expectation = float(probs @ table)

    counts: Counter = Counter()
    if config.shots > 0:
        samples, _ = measure(final_state)
        counts.update(measured_index_to_bitstring(s, n) for s in samples.tolist())
        best_index = best_sampled_index
    else:
        support = np.nonzero(probs > 1e-6)[0]
        best_index = int(support[np.argmin(table[support])])

    return VqeResult(
        best_bitstring=measured_index_to_bitstring(int(best_index), n),
        best_energy=float(table[best_index]),
        counts=counts,
        final_expectation=final_expectation,
        evaluations=evaluations,
        thetas=thetas,
    )


def make_vqe_subsolver(shots: int = 512, max_evaluations: int = 300):
    """Adapter: use the simulated VQE as a sub-problem solver."""
    def _solve(a: np.ndarray, block: np.ndarray,
               entropy: tuple[int, int, int]) -> Assignment:
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        config = VqeConfig(shots=shots, max_evaluations=max_evaluations,
                           seed=int(rng.integers(2 ** 31)))
        return run_vqe(to_ising(Qubo.from_dense(a, block)), config).best_bits
    return _solve
