"""The exact optimum as the judge of the solvers at multiplicity 50.

At mult 50 most events' objectives fall apart into coupling-graph
components of at most 20 variables. The objective is a sum over its
components, so its minimum is the sum of the components' minima, each
found by enumerating the component's block. An event with a larger
component is counted and skipped, not judged on a lower cap.
"""

import numpy as np
import pytest

from conftest import brute_force_minimum, random_qubo
from qubotrack.config import RunConfig
from qubotrack.geometry import build_geometry
from qubotrack.pipeline import calibrate, simulate_events, solver_seed
from qubotrack.preselect import build_doublets, build_triplets
from qubotrack.qubo import Qubo, assemble_qubo, objective
from qubotrack.solvers import (exact_subsolver, solve_annealing_report, solve_exact,
                               solve_iterative)

COMPONENT_CAP = 20


def components(qubo):
    """A component label per variable: the smallest variable index it is
    connected to, by label propagation over the coupled pairs."""
    i, j, _ = qubo.upper_triangle()
    label = np.arange(qubo.n)
    while True:
        joined = label.copy()
        np.minimum.at(joined, i, label[j])
        np.minimum.at(joined, j, label[i])
        joined = joined[joined]  # follow the labels' own labels
        if np.array_equal(joined, label):
            return label
        label = joined


def exact_optimum(qubo):
    """The minimal objective, or None when a component has more than
    ``COMPONENT_CAP`` variables."""
    label = components(qubo)
    if np.bincount(label).max() > COMPONENT_CAP:
        return None
    bits = np.zeros(qubo.n, dtype=np.int8)
    rows = qubo.entry_rows()
    for root in np.unique(label):
        members = np.flatnonzero(label == root)
        pos = np.full(qubo.n, -1)
        pos[members] = np.arange(len(members))
        inside = (label[rows] == root)
        block = np.zeros((len(members), len(members)))
        block[pos[rows[inside]], pos[qubo.indices[inside]]] = qubo.data[inside]
        bits[members] = solve_exact(qubo.linear[members], block)
    return objective(qubo, bits)


@pytest.fixture(scope="module")
def judged_events():
    """(objective, solver seed, optimum) of the 20 mult-50 events at seed
    2024 whose components all fit the cap, calibrated on those events, and
    the number of events skipped."""
    d = RunConfig().to_dict()
    d["sim"]["mean_multiplicity"] = 50.0
    config = RunConfig.from_dict(d).with_seed(2024)
    events = simulate_events(config, 20)
    window, scaling, _ = calibrate(events, config)
    geometry = build_geometry(config.geometry)
    judged, skipped = [], 0
    for event in events:
        triplets = build_triplets(build_doublets(event.hits, geometry, window), window)
        qubo = assemble_qubo(triplets, scaling)
        optimum = exact_optimum(qubo)
        if optimum is None:
            skipped += 1
        else:
            judged.append((qubo, solver_seed(config.seed, event.event_id), optimum))
    return judged, skipped


def test_component_labels_join_chains():
    # 0-3-1 joined through 3 in either scan order; 2 and 4 alone
    q = Qubo(5, np.zeros(5), [0, 1], [3, 3], [1.0, -0.95])
    assert components(q).tolist() == [0, 0, 2, 0, 4]


def test_exact_optimum_is_the_brute_force_minimum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = random_qubo(rng, 10, coupling_prob=0.15, paper_like=True)
        assert exact_optimum(q) == pytest.approx(brute_force_minimum(q)[1], abs=1e-12)


def test_solvers_reach_the_exact_optimum_at_mult_50(judged_events):
    judged, skipped = judged_events
    assert (len(judged), skipped) == (14, 6)
    decomposed = sum(
        solve_iterative(q, exact_subsolver, k=7, seed=seed).best_objective <= optimum + 1e-9
        for q, seed, optimum in judged)
    annealed = sum(solve_annealing_report(q, seed=seed).best_objective <= optimum + 1e-9
                   for q, seed, optimum in judged)
    assert decomposed >= 11
    assert annealed >= 14
