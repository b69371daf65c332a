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
and the second layer a Kronecker product applied as one small matmul per run
of at most 4 qubits (two at n = 7), for a batch of states at once.

Because the target Hamiltonian is diagonal, the energy of every sampled
bitstring is evaluated classically; no Pauli-term measurement batching is
needed. With the spin convention Z|0> = +|0> and T = (1 + Z)/2, a measured
bit m corresponds to the selection bit t = 1 - m; results are reported in
t-convention (bit=1 <=> triplet selected).

The optimizer is coordinate-wise: the cost along any single R_Y angle is an
exact sinusoid c0 + c1*cos(theta - c2), reconstructed from three evaluations
(current and +-pi/2), after which the parameter jumps to the sinusoid's
global minimum (Nakanishi, Fujii & Todo 2020). A step moves one angle, and
the state is linear in the cosine and sine of its half, so the three trial
states and the updated state are combinations of two vectors: the running
state and the state with that angle advanced by pi (``_nft_sweep``). The
trials are scored as one batch. A sweep's uniforms come from one call to the
generator, in the order of scoring the trials one by one, and each state's
samples are found by searching its CDF on int64 bit patterns, so a seed
samples the same indices as preparing and scoring every trial state on its
own with ``Generator.choice``.

As a sub-problem solver (:class:`VqeSubsolver`) it is a small picklable
object, so the decomposition can hand sub-problems to worker processes;
it reaches :func:`run_vqe` through this module's global, in a worker as in
the main process, and a sub-problem's answer depends only on its
coefficients and its entropy, wherever it is solved.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .qubo import Assignment, IsingHamiltonian, dense_to_ising

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
        for name in ("shots", "max_evaluations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def _rotations(angles: np.ndarray) -> np.ndarray:
    """Each angle's R_Y matrix along two new last axes; its first column
    (cos, sin) is R_Y|0>."""
    cos, sin = np.cos(angles / 2.0), np.sin(angles / 2.0)
    return np.stack([cos, -sin, sin, cos], axis=-1).reshape(angles.shape + (2, 2))


def _kron(mats: np.ndarray) -> np.ndarray:
    """The Kronecker product over axis 1 of ``mats`` (batch, q, r, c), the
    first factor leftmost (most significant): shape (batch, r^q, c^q)."""
    batch, _, r, _ = mats.shape
    k = np.ones((batch, 1, 1))
    for m in mats.transpose(1, 0, 2, 3):
        k = (k[:, :, None, :, None] * m[:, None, :, None, :]).reshape(batch, k.shape[1] * r, -1)
    return k


def _second_layer(ry: np.ndarray) -> list[np.ndarray]:
    """The second layer, for rotations ``ry`` of shape (batch, n, 2, 2), as
    Kronecker factors over runs of at most 4 consecutive qubits."""
    n = ry.shape[1]
    runs = -(-n // 4)
    return [_kron(ry[:, n * r // runs:n * (r + 1) // runs]) for r in range(runs)]


def _entangle_and_rotate(phi: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """The CNOT chain and then the second layer, as ``_second_layer`` factors
    it, on the first layer's states ``phi`` (shape (batch, 2^n))."""
    batch = len(phi)
    psi = phi.take(_cnot_chain_gather(phi.shape[1].bit_length() - 1), axis=1)
    spare = np.empty_like(psi)
    for k in factors:
        # the run's qubits lead the index and are written in last place, so
        # the next run leads next and the runs restore the order
        w = k.shape[-1]
        np.matmul(k, psi.reshape(batch, w, -1),
                  out=spare.reshape(batch, -1, w).transpose(0, 2, 1))
        psi, spare = spare, psi
    return psi


def prepare_states(params: np.ndarray, n: int) -> np.ndarray:
    """Run the ansatz circuit on |0...0> for each row of ``params`` (shape
    (batch, 2n)), returning real float64 amplitudes of shape (batch, 2^n)."""
    if n > MAX_QUBITS:
        raise ResourceError(f"statevector simulation limited to {MAX_QUBITS} qubits")
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != 2 * n:
        raise ValueError(f"expected {2 * n} parameters per state, got shape {params.shape}")
    ry = _rotations(params)
    phi = _kron(ry[:, :n, :, :1])[:, :, 0]  # the first layer on |0...0>: R_Y|0> products
    return _entangle_and_rotate(phi, _second_layer(ry[:, n:]))


def prepare_state(params: AnsatzParams, n: int) -> np.ndarray:
    """Run the ansatz circuit on |0...0>: 2^n real float64 amplitudes."""
    return prepare_states(np.asarray(params, dtype=float)[None, :], n)[0]


def _probabilities(states: np.ndarray) -> np.ndarray:
    """|amplitude|^2 of each state (last axis), each divided by its sum."""
    p = np.square(np.abs(states) if np.iscomplexobj(states) else states)
    total = p.sum(axis=-1, keepdims=True)
    for t in total.ravel().tolist():
        if not abs(t - 1.0) <= 1e-10:  # a NaN total is off too
            raise ValueError(f"state not normalized: sum |amp|^2 = {t!r}")
    return p / total


def _sample(states: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The basis indices that each row of ``uniforms`` draws from the same
    row of ``states``: ``cdf.searchsorted(u, side="right")``, as
    ``Generator.choice`` finds them. The search runs on int64 views of both,
    which is exact: non-negative doubles order like their bit patterns."""
    cdfs = np.add.accumulate(_probabilities(states), axis=-1)
    cdfs /= cdfs[:, -1:]  # the last entry exactly 1
    return np.array([cdf.searchsorted(key, side="right") for cdf, key
                     in zip(cdfs.view(np.int64), uniforms.view(np.int64))])


def sample_counts(state: np.ndarray, shots: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Measured basis-state indices for ``shots`` samples of |psi|^2: the
    draw ``rng.choice(len(state), size=shots, p=...)`` makes, without its
    per-call argument checks (same indices, same generator state after)."""
    return _sample(np.asarray(state)[None], rng.random((1, shots)))[0]


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


# (cos, sin) of half of each shift: the trial at that shift is
# cos * psi + sin * psi_perp
_TRIAL_WEIGHTS = np.array([[math.cos(s / 2.0), math.sin(s / 2.0)] for s in NFT_SHIFTS])


def _advance_by_pi(state: np.ndarray, q: int, out: np.ndarray) -> None:
    """R_Y(pi) on qubit q of ``state``, written to ``out``: the two halves
    of the qubit swapped and the new first half negated."""
    src, dst = state.reshape(2 ** q, 2, -1), out.reshape(2 ** q, 2, -1)
    np.negative(src[:, 1], out=dst[:, 0])
    dst[:, 1] = src[:, 0]


def _nft_sweep(thetas: np.ndarray, n: int, steps: int, score) -> np.ndarray:
    """Sinusoid updates of the angles 0, 1, ..., steps - 1 of ``thetas``, in
    place and in turn; returns the running state at the updated angles.

    ``score`` maps a (3, 2^n) batch of trial states, the angle at hand moved
    by each of NFT_SHIFTS, to their three costs. A state depends on one
    angle only through the cosine and sine of its half, so every trial and
    the updated state are cos(s/2) psi + sin(s/2) psi_perp: psi is the
    running state and psi_perp the state with the angle advanced by pi. For
    a second-layer angle psi_perp is psi with R_Y(pi) on that qubit; for a
    first-layer angle it is R_Y(pi) on the first layer's product state phi,
    which is kept too, run through the entangler and the second layer. Both
    states are rebuilt from the angles at each call, so rounding drift lasts
    one sweep at most.
    """
    ry = _rotations(thetas)[None]
    second = _second_layer(ry[:, n:])  # constant while the first-layer angles move
    phi = _kron(ry[:, :n, :, :1])[0, :, 0]
    phi_perp = np.empty_like(phi)
    pair = np.empty((2, 2 ** n))  # psi, psi_perp
    pair[0] = _entangle_and_rotate(phi[None], second)[0]
    for d in range(steps):
        if d < n:
            _advance_by_pi(phi, d, phi_perp)
            pair[1] = _entangle_and_rotate(phi_perp[None], second)[0]
        else:
            _advance_by_pi(pair[0], d - n, pair[1])
        theta = nft_update(thetas[d], score(_TRIAL_WEIGHTS @ pair).tolist())
        half = (theta - thetas[d]) / 2.0
        cos, sin = math.cos(half), math.sin(half)
        if d < n:
            phi = cos * phi + sin * phi_perp
        pair[0] = cos * pair[0] + sin * pair[1]
        thetas[d] = theta
    return pair[0]


def _histogram(samples: np.ndarray, n: int) -> Counter:
    """Selection-bitstring counts of measured indices, each index formatted
    once, in order of first occurrence (so ``most_common`` breaks ties as
    counting the samples one by one does)."""
    values, first, tally = np.unique(samples, return_index=True, return_counts=True)
    order = np.argsort(first)
    return Counter({measured_index_to_bitstring(v, n): c
                    for v, c in zip(values[order].tolist(), tally[order].tolist())})


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
    0 evaluations. A NaN or infinite energy raises ``ValueError``.
    """
    config = config or VqeConfig()
    n = ising.n
    if n > MAX_QUBITS:
        raise ResourceError(f"statevector simulation limited to {MAX_QUBITS} qubits")
    table = ising.measured_energy_table()
    if not np.isfinite(table).all():
        raise ValueError("energy table not finite: the Hamiltonian has a NaN or "
                         "infinite coefficient")
    if n == 0:  # no angle to optimise: the one (empty) state is the answer
        energy = float(table[0])
        return VqeResult(best_bitstring="", best_energy=energy, counts=Counter(),
                         final_expectation=energy, evaluations=0, thetas=np.zeros(0))
    rng = np.random.default_rng(config.seed)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=2 * n)
    shots, flip = config.shots, config.readout_flip_probability

    best_sampled_index: int | None = None
    best_sampled_energy = math.inf

    def measure(states: np.ndarray, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``shots`` samples of each row of ``states``, read out with flips,
        and their energies. Each row of ``uniforms`` holds what sampling its
        state on its own draws: the sampling uniforms, then the flip
        uniforms (sample-major)."""
        nonlocal best_sampled_index, best_sampled_energy
        rows = len(states)
        samples = _sample(states, uniforms[:, :shots])
        if flip:
            flips = (uniforms[:, shots:].reshape(rows, shots, n) < flip).astype(np.int64)
            samples ^= (flips << np.arange(n - 1, -1, -1)).sum(axis=2)
        energies = table.take(samples)
        # the first lowest sample, in state then sample order
        lowest = int(energies.argmin())
        if energies.flat[lowest] < best_sampled_energy:
            best_sampled_energy = float(energies.flat[lowest])
            best_sampled_index = int(samples.flat[lowest])
        return samples, energies

    width = shots * (n + 1) if flip else shots  # uniforms per sampled state
    draws = iter(())  # the uniforms of each step of the sweep at hand

    def score(trials: np.ndarray) -> np.ndarray:
        if shots == 0:
            return _probabilities(trials) @ table
        return measure(trials, next(draws))[1].sum(axis=1) / shots

    last: tuple[bytes, np.ndarray] | None = None  # the angles last prepared, their state

    def prepare(params: np.ndarray) -> np.ndarray:
        """``prepare_state(params, n)``, reused while ``params`` are bitwise
        the angles last prepared."""
        nonlocal last
        key = params.tobytes()
        if last is None or last[0] != key:
            last = key, prepare_state(params, n)
        return last[1]

    evaluations = 0
    best_thetas, best_state = thetas.copy(), None
    best_expectation = math.inf
    previous_sweep = math.inf
    while evaluations + 3 <= config.max_evaluations:
        steps = min(2 * n, (config.max_evaluations - evaluations) // 3)
        if shots:  # one draw for the sweep, in the order a draw per step makes
            draws = iter(rng.random((steps, len(NFT_SHIFTS), width)))
        _nft_sweep(thetas, n, steps, score)
        evaluations += 3 * steps
        if shots == 0:
            # exact mode: bank the best sweep result and restart from fresh
            # angles once a sweep stops improving (single-angle descent can
            # stall on basis states minimal under every one-parameter move)
            state = prepare(thetas)
            sweep_cost = float(_probabilities(state) @ table)
            if sweep_cost < best_expectation:
                best_expectation = sweep_cost
                best_thetas, best_state = thetas.copy(), state
            if previous_sweep - sweep_cost < 1e-9:
                thetas = rng.uniform(0.0, 2.0 * math.pi, size=2 * n)
                previous_sweep = math.inf
            else:
                previous_sweep = sweep_cost

    # the last prepared state and the best sweep's are kept, so neither
    # is prepared again
    final_state = prepare(thetas)
    if shots == 0 and float(_probabilities(final_state) @ table) > best_expectation:
        thetas, final_state = best_thetas, best_state

    probs = _probabilities(final_state)
    final_expectation = float(probs @ table)

    if shots > 0:
        samples, _ = measure(final_state[None], rng.random((1, width)))
        counts = _histogram(samples[0], n)
        best_index = best_sampled_index
    else:
        counts = Counter()
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


@dataclass(frozen=True)
class VqeSubsolver:
    """The simulated VQE as a sub-problem solver: picklable, so a worker
    process can run it. Each sub-problem's run is seeded from its entropy
    ``(seed, iteration, group)``."""

    config: VqeConfig

    def __call__(self, a: np.ndarray, block: np.ndarray,
                 entropy: tuple[int, int, int]) -> Assignment:
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        config = dataclasses.replace(self.config, seed=int(rng.integers(2 ** 31)))
        return run_vqe(dense_to_ising(a, block), config).best_bits


def make_vqe_subsolver(shots: int = 512, max_evaluations: int = 300) -> VqeSubsolver:
    """Adapter: use the simulated VQE as a sub-problem solver. A setting
    :class:`VqeConfig` rejects raises ``ValueError`` here, not at the first
    sub-solve."""
    return VqeSubsolver(VqeConfig(shots=shots, max_evaluations=max_evaluations))
