import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibration_reference import truth_chain_spreads, truth_triplets
from conftest import (brute_force_objective, impacts, ising_energy_of_bits, qubo_from_dict,
                      random_qubo, sub_problems)
from qubotrack.fastsim import EnergySpectrum, SimConfig, generate_event
from qubotrack.metrics import build_report
from qubotrack.preselect import (PreselectionWindow, build_doublets,
                                 build_triplets, calibrate_dx_window,
                                 truth_doublets)
from qubotrack.qubo import (Qubo, assemble_qubo, chained_angle_spreads,
                            chained_pairs, linear_coefficients,
                            objective, to_ising)
from qubotrack.solvers import solve_exact
from scenarios import two_nearby_particles_event


def clean_two_particle_triplets(geometry, energies=(4.0, 9.0)):
    spectrum = EnergySpectrum(kind="uniform", minimum=energies[0], maximum=energies[1])
    sim = SimConfig(mean_multiplicity=2, rng_seed=6, poisson_multiplicity=False,
                    energy_spectrum=spectrum, ip_smear=(0, 0, 0),
                    emittance_angle_sigma=0.0, scattering=False, smear_hits=False)
    event = generate_event(sim, geometry, 0)
    w = PreselectionWindow(dx_mean=0.17, dx_sigma=0.05)
    triplets = build_triplets(build_doublets(event.hits, geometry, w), w)
    return event, triplets


def truth_index(triplets, span):
    """{truth particle id: index} of the truth triplets with the layer span."""
    return {t.truth_particle_id(): k for k, t in enumerate(triplets)
            if t.truth_particle_id() is not None and t.layer_span == span}


# -- linear coefficient ---------------------------------------------------------

def test_linear_coefficient_endpoints(geometry):
    _, triplets = clean_two_particle_triplets(geometry)
    assert triplets.delta_theta[0] < 1e-12
    assert linear_coefficients(triplets.delta_theta[:1], 1e-3)[0] == pytest.approx(-1.0)
    # 5e-3 is clamped above the scale
    got = linear_coefficients(np.array([1e-3, 5e-4, 5e-3]), 1e-3)
    assert got[:2] == pytest.approx([1.0, 0.0])
    assert got[2] == 1.0


# -- chained pairs and quadratic coefficient ------------------------------------

def pairs(triplets):
    """:func:`chained_pairs` of a Triplets, as a list of (a, b) tuples."""
    a, b = chained_pairs(triplets.first, triplets.second)
    return list(zip(a.tolist(), b.tolist()))


def chained_pairs_oracle(triplets):
    """Pairwise definition of chaining, read from the triplet views: the
    layer spans differ and the lower triplet's second doublet has the hit
    ids of the upper one's first."""
    triplets = list(triplets)
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
    k02, k13 = truth_index(triplets, (0, 2)), truth_index(triplets, (1, 3))
    assert len(k02) == 2 and k02.keys() == k13.keys()
    for pid in k02:
        chain = triplets[[k02[pid], k13[pid]]]
        assert pairs(chain) == [(0, 1)]
        assert pairs(triplets[[k13[pid], k02[pid]]]) == [(1, 0)]
        assert chained_angle_spreads(chain.doublets, chain.first, chain.second,
                                     [0], [1])[0] < 1e-12
        assert assemble_qubo(chain).quadratic == {(0, 1): pytest.approx(-1.0)}


def test_conflict_and_disjoint_cases(geometry):
    event, triplets = clean_two_particle_triplets(geometry)
    k02, k13 = truth_index(triplets, (0, 2)), truth_index(triplets, (1, 3))
    pids = sorted(k02)
    a02, a13, b02 = k02[pids[0]], k13[pids[0]], k02[pids[1]]
    # triplets of two separate particles neither chain nor conflict
    assert pairs(triplets[[a02, b02]]) == []
    assert assemble_qubo(triplets[[a02, b02]]).quadratic == {}
    # conflicting: overlapping hits without chaining
    scen_event, scen_geo = two_nearby_particles_event()
    w = PreselectionWindow(dx_mean=0.17, dx_sigma=0.05)
    ts = build_triplets(build_doublets(scen_event.hits, scen_geo, w), w)
    q = assemble_qubo(ts)
    chained = {(min(p), max(p)) for p in pairs(ts)}
    conflicts = [pair for pair in q.quadratic if pair not in chained]
    assert chained and conflicts
    hit_ids = ts.hit_ids().tolist()
    for i, j in ((i, j) for i in range(len(ts)) for j in range(i + 1, len(ts))):
        shared = set(hit_ids[i]) & set(hit_ids[j])
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
    assert (assemble_qubo(triplets[[a02, a13]]).quadratic
            == assemble_qubo(triplets[[a13, a02]]).quadratic)


@pytest.fixture(scope="module")
def dense_triplets(geometry):
    sim = SimConfig(mean_multiplicity=150, rng_seed=2024)
    event = generate_event(sim, geometry, 0)
    mean, sigma = calibrate_dx_window([truth_doublets(event)])
    w = PreselectionWindow.from_calibration(mean, sigma)
    return build_triplets(build_doublets(event.hits, geometry, w), w)


@pytest.mark.parametrize("copies", [1, 2])
def test_chained_pairs_match_pairwise_oracle(dense_triplets, copies):
    triplets = dense_triplets[np.tile(np.arange(len(dense_triplets)), copies)]
    expected = chained_pairs_oracle(triplets)
    assert len(expected) > 50 * copies
    assert pairs(triplets) == expected


def test_truth_chain_spreads_one_per_four_layer_particle(geometry):
    spectrum = EnergySpectrum(kind="uniform", minimum=2.0, maximum=12.0)
    sim = SimConfig(mean_multiplicity=20, rng_seed=11, poisson_multiplicity=False,
                    energy_spectrum=spectrum, ip_smear=(0, 0, 0),
                    emittance_angle_sigma=0.0, scattering=False, smear_hits=False)
    event = generate_event(sim, geometry, 0)
    spreads = truth_chain_spreads(truth_triplets(truth_doublets(event)))
    assert len(spreads) == build_report([event], []).counts["generated"] > 10
    assert max(spreads) < 1e-12


# -- assembly ---------------------------------------------------------------------

def test_assemble_single_triplet(geometry):
    _, triplets = clean_two_particle_triplets(geometry)
    q = assemble_qubo(triplets[:1])
    assert q.n == 1 and q.quadratic == {}


def test_assemble_two_chained(geometry):
    _, triplets = clean_two_particle_triplets(geometry)
    pid, common = triplets.truth_particle_ids()
    assert common[0]
    q = assemble_qubo(triplets[np.flatnonzero(common & (pid == pid[0]))])
    assert q.n == 2 and len(q.quadratic) == 1
    b = next(iter(q.quadratic.values()))
    assert -1.0 <= b <= -0.9


def test_assemble_empty_rejected(geometry):
    _, triplets = clean_two_particle_triplets(geometry)
    with pytest.raises(ValueError, match="empty"):
        assemble_qubo(triplets[:0])


def test_assemble_seven_triplet_scenario():
    event, geometry = two_nearby_particles_event()
    mean, sigma = calibrate_dx_window([truth_doublets(event)])
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
    return qubo_from_dict(2, np.array([-1.0, 0.5]), {(0, 1): -0.95})


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
    q = qubo_from_dict(1, np.array([-1.0]), {})
    assert impacts(q, np.array([1]))[0] == pytest.approx(1.0)  # -1 -> 0
    assert impacts(q, np.array([0]))[0] == pytest.approx(-1.0)


def test_impact_zero_qubo():
    q = qubo_from_dict(3, np.zeros(3), {})
    assert np.allclose(impacts(q, np.array([1, 0, 1])), 0.0)


@pytest.mark.parametrize("bits", [np.ones(3), np.ones(3, dtype=np.int8), np.zeros(3)])
def test_coupling_field_is_float_without_couplings(bits):
    # a bincount over no weights counts in int64; the field must take
    # in-place float updates whatever the objective holds
    field = Qubo(3, np.zeros(3)).coupling_field(bits)
    assert field.dtype == np.float64
    assert field.tolist() == [0.0, 0.0, 0.0]


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
    ising = to_ising(qubo_from_dict(1, np.array([c]), {}))
    assert ising.constant == pytest.approx(c / 2)
    assert ising.field[0] == pytest.approx(c / 2)
    assert ising.coupling.size == 0


def test_to_ising_zero_qubo():
    ising = to_ising(qubo_from_dict(3, np.zeros(3), {}))
    assert ising.constant == 0.0
    assert np.all(ising.field == 0.0)
    assert ising.coupling.size == 0


def test_ising_energy_equals_objective_exhaustively():
    rng = np.random.default_rng(51)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        q = random_qubo(rng, n)
        ising = to_ising(q)
        for state in range(2 ** n):
            bits = np.array([(state >> i) & 1 for i in range(n)], dtype=np.int8)
            assert abs(ising_energy_of_bits(ising, bits) - objective(q, bits)) < 1e-12


def test_measured_energy_table_convention():
    # qubit 0 is the most significant index bit; measured 0 means selected
    q = qubo_from_dict(2, np.array([-1.0, 0.5]), {(0, 1): -0.95})
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
    assert np.array_equal(best.astype(bool), triplets.truth_particle_ids()[1])
    assert best.sum() == 4


# -- pair-array storage -----------------------------------------------------------------

@pytest.mark.parametrize("i, j, bad", [
    ([0, 2, 1], [1, 2, 0], r"\(2, 2\)"),   # i == j, before the i > j pair
    ([0, 2], [1, 1], r"\(2, 1\)"),         # i > j
    ([0, -1], [1, 2], r"\(-1, 2\)"),       # below the range
    ([0, 1], [3, 2], r"\(0, 3\)"),         # beyond the range
], ids=["i-equals-j", "i-above-j", "negative-index", "index-beyond-n"])
def test_constructor_rejects_bad_index_pair(i, j, bad):
    with pytest.raises(ValueError, match=r"bad coefficient index pair " + bad):
        Qubo(3, np.zeros(3), i, j, np.ones(len(i)))


def test_constructor_rejects_pair_listed_twice():
    i, j = [0, 1, 0, 1, 0], [2, 2, 1, 2, 2]
    with pytest.raises(ValueError, match=r"pair \(1, 2\) listed twice"):
        Qubo(3, np.zeros(3), i, j, np.arange(5.0))


def test_constructor_rejects_misaligned_arrays():
    with pytest.raises(ValueError, match="aligned"):
        Qubo(3, np.zeros(3), [0, 1], [1, 2], [1.0])


def lexsort_csr(n, i, j, b):
    """The CSR as a two-key lexsort over both triangles builds it."""
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], np.concatenate([b, b])[order]


@pytest.mark.parametrize("shuffled", [False, True], ids=["ascending", "shuffled"])
def test_csr_equals_lexsort_built_csr(shuffled):
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(0, 300))
        keys = np.flatnonzero(rng.random(n * n) < rng.uniform(0.0, 0.2))
        i, j = np.divmod(keys, max(n, 1))
        i, j = i[i < j], j[i < j]
        if shuffled:
            order = rng.permutation(len(i))
            i, j = i[order], j[order]
        b = rng.uniform(-1, 1, len(i))
        q = Qubo(n, np.zeros(n), i, j, b)
        indptr, indices, data = lexsort_csr(n, i, j, b)
        assert np.array_equal(q.indptr, indptr)
        assert np.array_equal(q.indices, indices)
        assert q.data.tobytes() == data.tobytes()


@st.composite
def coupling_dicts(draw):
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] < p[1])
    values = st.floats(-2.0, 2.0, allow_nan=False)
    return n, draw(st.dictionaries(pairs, values, max_size=n * (n - 1) // 2))


@settings(max_examples=200, deadline=None)
@given(problem=coupling_dicts())
def test_pair_arrays_round_trip_to_the_coupling_dict(problem):
    n, couplings = problem
    q = qubo_from_dict(n, np.zeros(n), couplings)
    assert q.quadratic == couplings
    assert list(q.quadratic) == sorted(couplings)  # row-major order
    i, j, b = q.upper_triangle()
    assert [(a, c) for a, c in zip(i.tolist(), j.tolist())] == sorted(couplings)
    assert b.tolist() == [couplings[p] for p in sorted(couplings)]


def test_assemble_retains_only_the_csr_arrays():
    """The objective of the mult 300, seed 2024 event 0 keeps little beyond
    its linear vector and its three CSR arrays (a dict of pairs beside them
    would retain several times their size)."""
    import gc
    import tracemalloc
    from qubotrack.config import RunConfig
    from qubotrack.geometry import build_geometry
    from qubotrack.pipeline import calibrate, simulate_events
    d = RunConfig().with_seed(2024).to_dict()
    d["sim"]["mean_multiplicity"] = 300.0
    cfg = RunConfig.from_dict(d)
    events = simulate_events(cfg, 1)
    window, scaling, _ = calibrate(events, cfg)
    triplets = build_triplets(build_doublets(
        events[0].hits, build_geometry(cfg.geometry), window), window)
    assemble_qubo(triplets, scaling)  # warm any lazily built state
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        q = assemble_qubo(triplets, scaling)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in (q.linear, q.indptr, q.indices, q.data))
    assert len(q.indices) // 2 > 20_000
    assert retained <= 1.25 * arrays


# -- spin mapping against the dict-loop reference -----------------------------------------

def dict_loop_to_ising(qubo):
    """The spin mapping as it read a ``{(i, j): b}`` dict, pair by pair:
    (constant, field, coupling dict, energy table)."""
    constant = float(qubo.linear.sum() / 2.0)
    h = qubo.linear / 2.0
    coupling = {}
    for (i, j), b in qubo.quadratic.items():
        constant += b / 4.0
        h[i] += b / 4.0
        h[j] += b / 4.0
        coupling[(i, j)] = b / 4.0
    n = qubo.n
    s = np.arange(2 ** n)
    z = np.empty((n, 2 ** n))
    for q in range(n):
        z[q] = 1.0 - 2.0 * ((s >> (n - 1 - q)) & 1)
    e = np.full(2 ** n, constant)
    e += h @ z
    for (i, j), cij in coupling.items():
        e += cij * z[i] * z[j]
    return constant, h, coupling, e


def assert_ising_equals_dict_loop(qubo):
    ising = to_ising(qubo)
    constant, field, coupling, table = dict_loop_to_ising(qubo)
    assert ising.constant == constant
    assert np.array_equal(ising.field, field)
    assert dict(zip(zip(ising.pair_i.tolist(), ising.pair_j.tolist()),
                    ising.coupling.tolist())) == coupling
    assert list(zip(ising.pair_i.tolist(), ising.pair_j.tolist())) == list(coupling)
    assert np.array_equal(ising.measured_energy_table(), table)


def test_to_ising_equals_dict_loop_on_random_problems():
    rng = np.random.default_rng(77)
    for trial in range(200):
        n = int(rng.integers(0, 13))
        assert_ising_equals_dict_loop(
            random_qubo(rng, n, coupling_prob=float(rng.uniform(0.1, 0.9)),
                        paper_like=bool(trial % 2)))


def test_to_ising_equals_dict_loop_on_restricted_event_problems(desk_config, desk_events):
    from qubotrack.geometry import build_geometry
    from qubotrack.pipeline import calibrate
    window, scaling, _ = calibrate(desk_events, desk_config)
    triplets = build_triplets(build_doublets(
        desk_events[0].hits, build_geometry(desk_config.geometry), window), window)
    q = assemble_qubo(triplets, scaling)
    rng = np.random.default_rng(5)
    checked = coupled = 0
    for bits in (np.ones(q.n, dtype=np.int8),
                 rng.integers(0, 2, q.n).astype(np.int8)):
        for _, sub in sub_problems(q, bits, 7):
            assert_ising_equals_dict_loop(sub)
            checked += 1
            coupled += len(sub.indices) > 0
    assert checked >= 20 and coupled >= 10
