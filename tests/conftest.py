import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from qubotrack import pipeline
from qubotrack.config import RunConfig
from qubotrack.geometry import Event, Hits, Particles, build_geometry
from qubotrack.pipeline import simulate_events

# the hand-built events live next to the demo that prints them
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

# The same examples on every run, so a run's time and coverage do not drift;
# ``--hypothesis-profile default`` draws fresh ones.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_speculation_pool_left():
    """Shut down the speculation pool a test made in this process, so that
    no pool thread runs when a later test forks."""
    yield
    pipeline._close_speculation_pool()


class HitRow(NamedTuple):
    """A hand-written hit: one row of :func:`hits_of`."""

    hit_id: int
    layer: int
    position: tuple[float, float, float]
    truth_particle_id: int | None = None


def hits_of(rows) -> Hits:
    """The columns of hit rows, each a :class:`HitRow` or a plain tuple of
    its fields."""
    ids, layers, positions, truth = zip(*rows) if len(rows) else [()] * 4
    return Hits(np.array(ids, dtype=np.int64), np.array(layers, dtype=np.int64),
                np.array(positions, dtype=float).reshape(-1, 3),
                np.array([0 if p is None else p for p in truth], dtype=np.int64),
                np.array([p is not None for p in truth], dtype=bool))


def event_of(event_id: int, hits=(), particles=(), xi_label: float = 0.0) -> Event:
    """An event of hand-written rows: hits as :func:`hits_of` reads them,
    particles each (particle id, energy, origin, direction)."""
    ids, energies, origins, directions = zip(*particles) if len(particles) else [()] * 4
    return Event(event_id, xi_label, hits_of(hits), Particles(
        np.array(ids, dtype=np.int64), np.array(energies, dtype=float),
        np.array(origins, dtype=float).reshape(-1, 3),
        np.array(directions, dtype=float).reshape(-1, 3)))


def column_values(table) -> list:
    """A table's columns as lists, whose repr shows every digit and -0.0."""
    return [column.tolist() for column in vars(table).values()]


@pytest.fixture(scope="session")
def geometry():
    return build_geometry()


@pytest.fixture(scope="session")
def desk_config():
    """20 events x 100 positrons, default physics, fixed seed."""
    cfg = RunConfig().with_seed(20240811)
    d = cfg.to_dict()
    d["sim"]["mean_multiplicity"] = 100.0
    return RunConfig.from_dict(d)


@pytest.fixture(scope="session")
def desk_events(desk_config):
    return simulate_events(desk_config, 20)


def qubo_from_dict(n: int, linear, quadratic: dict):
    """Objective from a ``{(i, j): b_ij}`` dict with i < j, pairs in the
    dict's order."""
    from qubotrack.qubo import Qubo
    pairs = list(quadratic)
    return Qubo(n, linear, [i for i, _ in pairs], [j for _, j in pairs],
                list(quadratic.values()))


def dense_qubo(linear, block):
    """Objective of a dense sub-problem ``(a, B)``: ``linear`` and the
    nonzero couplings above the diagonal of the symmetric ``block``,
    row-major."""
    from qubotrack.qubo import Qubo
    i, j = np.nonzero(np.triu(block, 1))
    return Qubo(len(linear), linear, i, j, block[i, j])


def sub_problems(qubo, bits, k: int):
    """(group, sub-problem) for every impact group of ``qubo`` at ``bits``:
    the dense ``(a, B)`` the decomposition cuts at the coupling field of
    ``bits``, as a ``Qubo``."""
    from qubotrack.solvers import _impact_groups, _restrict, _split_groups
    field = qubo.coupling_field(bits)
    groups = _impact_groups(qubo, bits, k, field)
    split = _split_groups(qubo, groups, k, field, qubo.entry_rows())
    return [(group, dense_qubo(*_restrict(split, g, bits)))
            for g, group in enumerate(groups)]


def random_qubo(rng: np.random.Generator, n: int, coupling_prob: float = 0.4,
                paper_like: bool = False):
    """Random objective; paper_like restricts couplings to {1} u [-1, -0.9]."""
    linear = rng.uniform(-1, 1, n)
    quadratic = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < coupling_prob:
                if paper_like:
                    value = 1.0 if rng.random() < 0.5 else float(rng.uniform(-1, -0.9))
                else:
                    value = float(rng.uniform(-1, 1))
                quadratic[(i, j)] = value
    return qubo_from_dict(n, linear, quadratic)


def brute_force_minimum(qubo):
    """Independent enumeration oracle: bit i of the state index is T_i."""
    best_state, best_value = 0, None
    quadratic = qubo.quadratic.items()  # a fresh dict per access: build it once
    for state in range(2 ** qubo.n):
        bits = [(state >> i) & 1 for i in range(qubo.n)]
        value = sum(qubo.linear[i] * bits[i] for i in range(qubo.n))
        for (i, j), b in quadratic:
            value += b * bits[i] * bits[j]
        if best_value is None or value < best_value:
            best_state, best_value = state, value
    bits = np.array([(best_state >> i) & 1 for i in range(qubo.n)], dtype=np.int8)
    return bits, best_value


def brute_force_objective(qubo, bits):
    value = 0.0
    for i in range(qubo.n):
        value += qubo.linear[i] * bits[i]
    for (i, j), b in qubo.quadratic.items():
        value += b * bits[i] * bits[j]
    return value


def impacts(qubo, bits):
    """Each variable's flip impact, the change of the objective when its
    bit flips: (1 - 2 t_i)(a_i + sum_j b_ij t_j)."""
    t = np.asarray(bits, dtype=float)
    return (1.0 - 2.0 * t) * (qubo.linear + qubo.coupling_field(t))


def ising_energy_of_bits(ising, bits) -> float:
    """Energy of an ``IsingHamiltonian`` at selection bits ``bits``
    (bit=1 <=> T=1 <=> z=+1)."""
    z = 2 * np.asarray(bits, dtype=float) - 1.0
    return (ising.constant + float(ising.field @ z)
            + float(ising.coupling @ (z[ising.pair_i] * z[ising.pair_j])))


def particle_energy(event, pid: int) -> float:
    """The energy of the first of ``event``'s particles with id ``pid``."""
    found = np.flatnonzero(event.particles.ids == pid).tolist()
    if not found:
        raise KeyError(pid)
    return float(event.particles.energies[found[0]])


def measured_index_to_bitstring(index: int, n: int) -> str:
    """Selection bitstring (t = 1 - measured bit) with variable 0 leftmost."""
    return format(index ^ (2 ** n - 1), f"0{n}b")


def best_bitstring(result) -> str:
    """A ``VqeResult``'s best index as a selection bitstring."""
    return measured_index_to_bitstring(result.best_index, result.thetas.size // 2)


def vqe_counts(result) -> Counter:
    """A ``VqeResult``'s final samples as selection-bitstring counts, in
    order of first occurrence (so ``most_common`` breaks ties by it)."""
    n = result.thetas.size // 2
    return Counter(measured_index_to_bitstring(s, n) for s in result.samples.tolist())
