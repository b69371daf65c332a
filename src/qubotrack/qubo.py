"""Objective assembly for triplet selection and its spin-Hamiltonian form.

One binary variable per triplet: 1 keeps the triplet, 0 rejects it. The
objective is

    O(T) = sum_{i<j} b_ij T_i T_j + sum_i a_i T_i

with a_i the triplet quality (its delta_theta mapped onto [-1, 1], smaller
is better) and b_ij the pair compatibility:

  * chained     -> b in [-1, -0.9]: the two triplets share one doublet and
                   together form a 4-hit candidate; the reward shrinks with
                   the spread of the three doublet angles,
  * conflict    -> b = 1: the triplets share at least one hit but do not
                   chain,
  * disjoint    -> b = 0 (not stored).

Assembly reads a :class:`~qubotrack.preselect.Triplets`, the only input
form it accepts, and works on whole arrays: the
linear terms are one ``np.clip`` over delta_theta; the hit-sharing pairs
come from :func:`~qubotrack.geometry.shared_hits` over the (triplets, 3)
hit-id array; the chained pairs from :func:`chained_pairs` over the first
and second doublet indices, their spreads from one (pairs, 3) variance
per angle. Variable k is triplet k.

Storage: assembly emits the nonzero b_ij as aligned upper-triangle arrays
(i, j, b_ij), i < j, and :class:`Qubo` stores them once, as the symmetric
CSR that every solver, the dump writer and the spin mapping read.

Spin form: substituting T_i = (1 + Z_i)/2 turns O into a diagonal
Hamiltonian whose ground state encodes the optimal selection. With the
computational-basis convention Z|0> = +|0>, a measured bit m corresponds to
T = 1 - m; solvers invert at readout so that reported bitstrings use
bit=1 <=> triplet selected.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import equal_key_pairs, shared_hits
from .preselect import Doublets, Triplets

# selection bit vector, dtype int8, values {0, 1}
Assignment = np.ndarray


@dataclass(frozen=True)
class QuboScaling:
    """Affine-scaling constants for the objective coefficients.

    ``theta_scale`` maps delta_theta onto the linear range (default: the
    triplet pre-selection cap, so surviving triplets populate [-1, 1]).
    ``s_max`` caps the angle-spread term of chained pairs; it is normally
    calibrated as the 99th percentile over truth quadruplets
    (:func:`calibrate_s_max`), with 1e-3 as an uncalibrated fallback.
    """

    theta_scale: float = 1e-3
    s_max: float = 1e-3

    def __post_init__(self):
        if not (self.theta_scale > 0 and self.s_max > 0):
            raise ValueError("scaling constants must be positive, got theta_scale "
                             f"{self.theta_scale} and s_max {self.s_max}")


class Qubo:
    """Selection objective with its couplings stored once, as a symmetric CSR.

    Couplings come in as aligned upper-triangle arrays: pair p couples
    i[p] < j[p] with b[p]; a pair outside 0..n-1, with i >= j or listed
    twice raises ``ValueError``. Only the CSR is kept: row i occupies
    ``indices[indptr[i]:indptr[i + 1]]`` (columns ascending) and the same
    slice of ``data`` (b_ij), every pair in both of its rows, no diagonal.
    Energies read these rows, so no n x n array is ever formed, and
    :meth:`upper_triangle` reads the pairs back. Treat it as immutable.
    """

    def __init__(self, n: int, linear, i=(), j=(), b=()):
        self.n = n
        self.linear = np.asarray(linear, dtype=float)
        if self.linear.shape != (n,):
            raise ValueError(f"linear shape {self.linear.shape} != ({n},)")
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        b = np.asarray(b, dtype=float)
        if not i.shape == j.shape == b.shape == (len(i),):
            raise ValueError("coupling arrays i, j and b must be 1-d and aligned")
        bad = np.flatnonzero((i < 0) | (i >= j) | (j >= n))
        if bad.size:
            raise ValueError(f"bad coefficient index pair ({i[bad[0]]}, {j[bad[0]]})")
        key = i * n + j  # ascending exactly when the pairs are in (i, j) order
        if np.any(key[1:] <= key[:-1]):
            pairs = np.argsort(key, kind="stable")
            i, j, b, key = i[pairs], j[pairs], b[pairs], key[pairs]
            # a repeated pair leaves equal neighbours; the smallest later
            # input position names its first repeat
            repeats = np.flatnonzero(key[1:] == key[:-1])
            if repeats.size:
                r = repeats[np.argmin(pairs[repeats + 1])]
                raise ValueError(f"coefficient pair ({i[r]}, {j[r]}) listed twice")
        # with the pairs in ascending (i, j) order, a stable sort on the row
        # puts each row's lower-triangle entries first, then its upper ones,
        # columns ascending in both
        rows = np.concatenate([j, i])
        order = np.argsort(rows, kind="stable")
        self.indices = np.concatenate([i, j])[order]
        self.indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.data = np.concatenate([b, b])[order]

    def entry_rows(self) -> np.ndarray:
        """Row index of every stored entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def upper_triangle(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each coupling once, as arrays (i, j, b_ij), i < j, ascending (i, j)."""
        rows = self.entry_rows()
        upper = self.indices > rows
        return rows[upper], self.indices[upper], self.data[upper]

    @property
    def quadratic(self) -> dict[tuple[int, int], float]:
        """Read-only ``{(i, j): b_ij}`` copy of :meth:`upper_triangle`."""
        i, j, b = self.upper_triangle()
        return dict(zip(zip(i.tolist(), j.tolist()), b.tolist()))

    def coupling_field(self, t: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Coupling field sum_j b_ij t_j of every variable (a CSR matvec), as
        float64 also when there are no couplings. ``rows`` is
        :meth:`entry_rows`, given by a caller that holds it."""
        rows = self.entry_rows() if rows is None else rows
        return np.bincount(rows, weights=self.data * t[self.indices],
                           minlength=self.n).astype(float, copy=False)


def linear_coefficients(delta_theta: np.ndarray, theta_scale: float) -> np.ndarray:
    """Map delta_theta affinely onto [-1, 1]: 0 -> -1 (best), theta_scale -> +1."""
    if not theta_scale > 0:
        raise ValueError("theta_scale must be positive")
    return np.clip(2.0 * np.asarray(delta_theta, dtype=float) / theta_scale - 1.0,
                   -1.0, 1.0)


def chained_pairs(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (a, b) of the triplet pairs that chain into a 4-hit candidate.

    ``first[k]`` and ``second[k]`` are triplet k's first and second doublet
    index; a chains into b where ``second[a] == first[b]``, so the union
    has one hit per layer. Found by a sorted join on the shared doublet;
    pairs come back in ascending (min, max) index order. This is the one
    definition of chaining that the objective, the calibration and track
    building use.
    """
    a, b = equal_key_pairs(np.asarray(second, dtype=np.intp),
                           np.asarray(first, dtype=np.intp))
    order = np.lexsort((np.maximum(a, b), np.minimum(a, b)))
    return a[order], b[order]


def chained_angle_spreads(doublets: Doublets, first: np.ndarray, second: np.ndarray,
                          a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Norm of the angle standard deviations over the three doublets of
    each chain a -> b of the triplets whose first and second doublet
    indices into ``doublets`` are ``first`` and ``second`` (as
    :func:`chained_pairs` returns the chains).

    s = sqrt(std(theta_xz)^2 + std(theta_yz)^2), population convention,
    over the doublets (first of a, second of a, second of b).
    """
    chain = np.stack([first[a], second[a], second[b]], axis=1)
    theta_xz, theta_yz = doublets.angles(chain)
    return np.sqrt(theta_xz.var(axis=1) + theta_yz.var(axis=1))


def calibrate_s_max(spreads: Sequence[float] | np.ndarray,
                    percentile: float = 99.0) -> float | None:
    """99th percentile of truth-quadruplet angle spreads, or None if there
    are none."""
    if not len(spreads):
        return None
    return float(np.percentile(spreads, percentile))


def assemble_qubo(triplets: Triplets, scaling: QuboScaling | None = None) -> Qubo:
    """Build the selection objective from a nonempty set of triplets.

    Only pairs that share a hit (:func:`~qubotrack.geometry.shared_hits`)
    are enumerated, so disjoint pairs never cost time or storage.
    """
    if not len(triplets):
        raise ValueError("cannot assemble a QUBO from an empty triplet set")
    scaling = scaling or QuboScaling()
    n = len(triplets)

    linear = linear_coefficients(triplets.delta_theta, scaling.theta_scale)
    i, j, _ = shared_hits(triplets.hit_ids())
    b = np.ones(len(i))
    # a chained pair shares two hits, so it is one of the hit-sharing pairs
    a, c = chained_pairs(triplets.first, triplets.second)
    at = np.searchsorted(i * n + j, np.minimum(a, c) * n + np.maximum(a, c))
    spread = chained_angle_spreads(triplets.doublets, triplets.first, triplets.second, a, c)
    b[at] = -1.0 + 0.1 * np.clip(spread / scaling.s_max, 0.0, 1.0)
    return Qubo(n, linear, i, j, b)


def objective(qubo: Qubo, bits: Assignment) -> float:
    """O(T) = sum_{i<j} b_ij T_i T_j + sum_i a_i T_i."""
    t = np.asarray(bits, dtype=float)
    if t.shape != (qubo.n,):
        raise ValueError(f"assignment length {t.shape} does not match n={qubo.n}")
    return float(qubo.linear @ t + 0.5 * t @ qubo.coupling_field(t))


@dataclass
class IsingHamiltonian:
    """Diagonal spin Hamiltonian equivalent to a Qubo under T = (1 + Z)/2.

    E(z) = constant + sum_i field_i z_i + sum_p coupling_p z_{pair_i[p]} z_{pair_j[p]}
    over the objective's pairs, in its order, for spins z in {+1, -1};
    z = +1 corresponds to T = 1 (selected).
    """

    constant: float
    field: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    coupling: np.ndarray

    @property
    def n(self) -> int:
        return len(self.field)

    def measured_energy_table(self) -> np.ndarray:
        """Energies of all 2^n computational basis states.

        Index s uses qubit 0 as the most significant bit. Measured bit m
        maps to spin z = 1 - 2m (Z|0> = +|0>), i.e. m = 0 means selected.
        """
        n = self.n
        s = np.arange(2 ** n)
        z = np.empty((n, 2 ** n))
        for q in range(n):
            z[q] = 1.0 - 2.0 * ((s >> (n - 1 - q)) & 1)
        e = np.full(2 ** n, self.constant)
        e += self.field @ z
        for i, j, c in zip(self.pair_i.tolist(), self.pair_j.tolist(),
                           self.coupling.tolist()):
            e += c * z[i] * z[j]
        return e


def to_ising(qubo: Qubo) -> IsingHamiltonian:
    """Substitute T_i = (1 + Z_i)/2 and collect constant, field and coupling;
    each pair adds b/4 to the constant and both its fields, in pair order."""
    return _ising(qubo.linear, *qubo.upper_triangle())


def dense_to_ising(linear: np.ndarray, block: np.ndarray) -> IsingHamiltonian:
    """:func:`to_ising` of the objective with coefficients ``linear`` and,
    as its pairs, the nonzero couplings above the diagonal of ``block``,
    without building the CSR: those couplings, row-major, are already the
    pairs in ascending order."""
    i, j = np.nonzero(np.triu(block, 1))
    return _ising(np.asarray(linear, dtype=float), i, j, block[i, j])


def _ising(linear: np.ndarray, i: np.ndarray, j: np.ndarray,
           b: np.ndarray) -> IsingHamiltonian:
    coupling = b / 4.0
    constant = float(linear.sum() / 2.0)
    h = linear / 2.0
    for a, c, quarter in zip(i.tolist(), j.tolist(), coupling.tolist()):
        constant += quarter
        h[a] += quarter
        h[c] += quarter
    return IsingHamiltonian(constant, h, i, j, coupling)
