import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_objective, random_qubo
from qubotrack.fastsim import EnergySpectrum, SimConfig, generate_event
from qubotrack.metrics import reconstructable_particles
from qubotrack.preselect import (PreselectionWindow, build_doublets,
                                 build_triplets, calibrate_dx_window,
                                 truth_doublets, truth_triplets)
from qubotrack.qubo import (Qubo, assemble_qubo, chained_angle_spread,
                            chained_pairs, impacts, linear_coefficient,
                            objective, to_ising, truth_chain_spreads)
from qubotrack.scenarios import two_nearby_particles_event
from qubotrack.solvers import solve_exact


def clean_two_particle_triplets(geometry, energies=(4.0, 9.0)):
    spectrum = EnergySpectrum(kind="uniform", minimum=energies[0], maximum=energies[1])
    sim = SimConfig(mean_multiplicity=2, rng_seed=6, poisson_multiplicity=False,
                    energy_spectrum=spectrum, ip_smear=(0, 0, 0),
                    emittance_angle_sigma=0.0, scattering=False, smear_hits=False)
    event = generate_event(sim, geometry, 0)
    w = PreselectionWindow(dx_mean=0.17, dx_sigma=0.05)
    triplets = build_triplets(build_doublets(event.hits, geometry, w), w)
    return event, triplets


# -- linear coefficient ---------------------------------------------------------

def test_linear_coefficient_endpoints(geometry):
    _, triplets = clean_two_particle_triplets(geometry)
    t = triplets[0]
    assert t.delta_theta < 1e-12
    assert linear_coefficient(t, 1e-3) == pytest.approx(-1.0)

    class FakeTriplet:
        delta_theta = 1e-3
    assert linear_coefficient(FakeTriplet(), 1e-3) == pytest.approx(1.0)
    FakeTriplet.delta_theta = 5e-4
    assert linear_coefficient(FakeTriplet(), 1e-3) == pytest.approx(0.0)
    FakeTriplet.delta_theta = 5e-3  # clamped above the scale
    assert linear_coefficient(FakeTriplet(), 1e-3) == 1.0


# -- chained pairs and quadratic coefficient ------------------------------------

def chained_pairs_oracle(triplets):
    """Pairwise definition of chaining: the layer spans differ and the lower
    triplet's second doublet has the hit ids of the upper one's first."""
    out = []
    for i, t_i in enumerate(triplets):
        for j in range(i + 1, len(triplets)):
            t_j = triplets[j]
            if t_i.layer_span == t_j.layer_span:
                continue
            first, second = (i, j) if t_i.layer_span < t_j.layer_span else (j, i)
            d = triplets[first].doublet_second
            e = triplets[second].doublet_first
            if (d.hit_inner.hit_id, d.hit_outer.hit_id) == (e.hit_inner.hit_id,
                                                             e.hit_outer.hit_id):
                out.append((first, second))
    return out


def test_chained_noiseless_pair_is_minus_one(geometry):
    _, triplets = clean_two_particle_triplets(geometry)
    by_pid = {}
    for t in triplets:
        by_pid.setdefault(t.truth_particle_id(), []).append(t)
    for ts in by_pid.values():
        t02 = next(t for t in ts if t.layer_span == (0, 2))
        t13 = next(t for t in ts if t.layer_span == (1, 3))
        assert chained_pairs([t02, t13]) == [(0, 1)]
        assert chained_pairs([t13, t02]) == [(1, 0)]
        assert chained_angle_spread(t02, t13) < 1e-12
        assert assemble_qubo([t02, t13]).quadratic == {(0, 1): pytest.approx(-1.0)}


def test_conflict_and_disjoint_cases(geometry):
    event, triplets = clean_two_particle_triplets(geometry)
    pids = sorted({t.truth_particle_id() for t in triplets})
    a02 = next(t for t in triplets
               if t.truth_particle_id() == pids[0] and t.layer_span == (0, 2))
    a13 = next(t for t in triplets
               if t.truth_particle_id() == pids[0] and t.layer_span == (1, 3))
    b02 = next(t for t in triplets
               if t.truth_particle_id() == pids[1] and t.layer_span == (0, 2))
    # triplets of two separate particles neither chain nor conflict
    assert chained_pairs([a02, b02]) == []
    assert assemble_qubo([a02, b02]).quadratic == {}
    # conflicting: overlapping hits without chaining
    scen_event, scen_geo = two_nearby_particles_event()
    w = PreselectionWindow(dx_mean=0.17, dx_sigma=0.05)
    ts = build_triplets(build_doublets(scen_event.hits, scen_geo, w), w)
    q = assemble_qubo(ts)
    chained = {(min(p), max(p)) for p in chained_pairs(ts)}
    conflicts = [pair for pair in q.quadratic if pair not in chained]
    assert chained and conflicts
    for i, j in ((i, j) for i in range(len(ts)) for j in range(i + 1, len(ts))):
        shared = set(ts[i].hit_ids()) & set(ts[j].hit_ids())
        if (i, j) in chained:
            assert -1.0 <= q.quadratic[(i, j)] <= -0.9
        elif shared:
            assert q.quadratic[(i, j)] == 1.0
        else:
            assert (i, j) not in q.quadratic
    # argument order never matters: reversing the list mirrors the couplings
    n = len(ts)
    mirrored = {(n - 1 - j, n - 1 - i): b for (i, j), b in q.quadratic.items()}
    assert assemble_qubo(ts[::-1]).quadratic == mirrored
    assert (assemble_qubo([a02, a13]).quadratic
            == assemble_qubo([a13, a02]).quadratic)


@pytest.fixture(scope="module")
def dense_triplets(geometry):
    sim = SimConfig(mean_multiplicity=150, rng_seed=2024)
    event = generate_event(sim, geometry, 0)
    mean, sigma = calibrate_dx_window(truth_doublets(event))
    w = PreselectionWindow.from_calibration(mean, sigma)
    return build_triplets(build_doublets(event.hits, geometry, w), w)


@pytest.mark.parametrize("copies", [1, 2])
def test_chained_pairs_match_pairwise_oracle(dense_triplets, copies):
    triplets = dense_triplets * copies
    expected = chained_pairs_oracle(triplets)
    assert len(expected) > 50 * copies
    assert chained_pairs(triplets) == expected


def test_truth_chain_spreads_one_per_four_layer_particle(geometry):
    spectrum = EnergySpectrum(kind="uniform", minimum=2.0, maximum=12.0)
    sim = SimConfig(mean_multiplicity=20, rng_seed=11, poisson_multiplicity=False,
                    energy_spectrum=spectrum, ip_smear=(0, 0, 0),
                    emittance_angle_sigma=0.0, scattering=False, smear_hits=False)
    event = generate_event(sim, geometry, 0)
    spreads = truth_chain_spreads(truth_triplets(event))
    assert len(spreads) == len(reconstructable_particles(event)) > 10
    assert max(spreads) < 1e-12


# -- assembly ---------------------------------------------------------------------

def test_assemble_single_triplet(geometry):
    _, triplets = clean_two_particle_triplets(geometry)
    q = assemble_qubo(triplets[:1])
    assert q.n == 1 and q.quadratic == {}


def test_assemble_two_chained(geometry):
    _, triplets = clean_two_particle_triplets(geometry)
    pid = triplets[0].truth_particle_id()
    pair = [t for t in triplets if t.truth_particle_id() == pid]
    q = assemble_qubo(pair)
    assert q.n == 2 and len(q.quadratic) == 1
    b = next(iter(q.quadratic.values()))
    assert -1.0 <= b <= -0.9


def test_assemble_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        assemble_qubo([])


def test_assemble_seven_triplet_scenario():
    event, geometry = two_nearby_particles_event()
    mean, sigma = calibrate_dx_window(truth_doublets(event))
    w = PreselectionWindow.from_calibration(mean, sigma)
    triplets = build_triplets(build_doublets(event.hits, geometry, w), w)
    assert len(triplets) == 7
    q = assemble_qubo(triplets)
    assert q.n == 7
    # coefficient ranges of paper-built problems
    assert np.all(q.linear >= -1.0) and np.all(q.linear <= 1.0)
    for b in q.quadratic.values():
        assert b == 1.0 or -1.0 <= b <= -0.9


# -- objective and impact -----------------------------------------------------------

def hand_qubo():
    return Qubo(n=2, linear=np.array([-1.0, 0.5]), quadratic={(0, 1): -0.95})


def test_objective_hand_values():
    q = hand_qubo()
    assert objective(q, np.array([0, 0])) == 0.0
    # -0.95 - 1 + 0.5
    assert objective(q, np.array([1, 1])) == pytest.approx(-1.45)
    assert objective(q, np.array([1, 0])) == pytest.approx(-1.0)


def test_objective_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        objective(hand_qubo(), np.array([1, 0, 1]))


def test_objective_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        q = random_qubo(rng, n)
        bits = rng.integers(0, 2, n).astype(np.int8)
        assert objective(q, bits) == pytest.approx(
            brute_force_objective(q, bits), abs=1e-12)


def test_impact_single_variable():
    q = Qubo(n=1, linear=np.array([-1.0]), quadratic={})
    assert impacts(q, np.array([1]))[0] == pytest.approx(1.0)  # -1 -> 0
    assert impacts(q, np.array([0]))[0] == pytest.approx(-1.0)


def test_impact_zero_qubo():
    q = Qubo(n=3, linear=np.zeros(3), quadratic={})
    assert np.allclose(impacts(q, np.array([1, 0, 1])), 0.0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_impact_is_an_involution(seed, n):
    rng = np.random.default_rng(seed)
    q = random_qubo(rng, n)
    bits = rng.integers(0, 2, n).astype(np.int8)
    i = int(rng.integers(0, n))
    before = impacts(q, bits)[i]
    flipped = bits.copy()
    flipped[i] ^= 1
    assert impacts(q, flipped)[i] == pytest.approx(-before, abs=1e-12)
    # and the impact is exactly the objective difference
    assert before == pytest.approx(objective(q, flipped) - objective(q, bits),
                                   abs=1e-12)


# -- spin mapping -----------------------------------------------------------------

def test_to_ising_single_variable():
    c = 0.7
    ising = to_ising(Qubo(n=1, linear=np.array([c]), quadratic={}))
    assert ising.constant == pytest.approx(c / 2)
    assert ising.field[0] == pytest.approx(c / 2)
    assert ising.coupling == {}


def test_to_ising_zero_qubo():
    ising = to_ising(Qubo(n=3, linear=np.zeros(3), quadratic={}))
    assert ising.constant == 0.0
    assert np.all(ising.field == 0.0)
    assert ising.coupling == {}


def test_ising_energy_equals_objective_exhaustively():
    rng = np.random.default_rng(51)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        q = random_qubo(rng, n)
        ising = to_ising(q)
        for state in range(2 ** n):
            bits = np.array([(state >> i) & 1 for i in range(n)], dtype=np.int8)
            assert abs(ising.energy_of_bits(bits) - objective(q, bits)) < 1e-12


def test_measured_energy_table_convention():
    # qubit 0 is the most significant index bit; measured 0 means selected
    q = Qubo(n=2, linear=np.array([-1.0, 0.5]), quadratic={(0, 1): -0.95})
    table = to_ising(q).measured_energy_table()
    # index 0 = measured 00 = T (1, 1)
    assert table[0] == pytest.approx(objective(q, np.array([1, 1])))
    # index 1 = measured 01 = T (1, 0)
    assert table[1] == pytest.approx(objective(q, np.array([1, 0])))
    assert table[2] == pytest.approx(objective(q, np.array([0, 1])))
    assert table[3] == pytest.approx(objective(q, np.array([0, 0])))


def test_ground_state_equivalence_under_mapping():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        q = random_qubo(rng, n)
        best = solve_exact(q)
        table = to_ising(q).measured_energy_table()
        assert table.min() == pytest.approx(objective(q, best), abs=1e-12)


# -- end-to-end optimum on clean particles --------------------------------------------

def test_enumeration_selects_exactly_the_truth_triplets(geometry):
    event, triplets = clean_two_particle_triplets(geometry)
    q = assemble_qubo(triplets)
    best = solve_exact(q)
    for t, bit in zip(triplets, best):
        assert bool(bit) == (t.truth_particle_id() is not None)
    assert best.sum() == 4
