import numpy as np
import pytest
from hypothesis import settings

from qubotrack import pipeline
from qubotrack.config import RunConfig
from qubotrack.geometry import build_geometry
from qubotrack.pipeline import simulate_events

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
    the dense ``(a, B)`` the decomposition cuts, as a ``Qubo``."""
    from qubotrack.solvers import _impact_groups, _restrict, _split_groups
    groups = _impact_groups(qubo, bits, k)
    split = _split_groups(qubo, groups, k)
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
