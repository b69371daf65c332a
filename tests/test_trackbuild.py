import math

import numpy as np
import pytest
from conftest import particle_by_id
from metrics_reference import match_hits, truth_by_hit
from scenarios import two_nearby_particles_event

from qubotrack.fastsim import EnergySpectrum, SimConfig, generate_event
from qubotrack.geometry import Event, Hit, TruthParticle, shared_hits
from qubotrack.metrics import match_truth
from qubotrack.preselect import PreselectionWindow, build_doublets, build_triplets
from qubotrack.trackbuild import (NDF, FitError, estimate_energy, fit_track,
                                  resolve_ambiguities, triplets_to_candidates)


def quad_hits(xs, ys=None, hid0=0, pid=None):
    ys = ys or [0.0] * 4
    return tuple(
        Hit(hit_id=hid0 + k, layer=k, position=(xs[k], ys[k], 1.0 + 0.1 * k),
            truth_particle_id=pid)
        for k in range(4)
    )


def positions_of(*candidates):
    """(candidates, 4, 3) positions of 4-hit tuples."""
    return np.array([[h.position for h in hits] for hits in candidates],
                    dtype=float).reshape(-1, 4, 3)


def ids_of(*candidates):
    """(candidates, 4) hit ids of 4-hit tuples."""
    return np.array([[h.hit_id for h in hits] for hits in candidates],
                    dtype=np.int64).reshape(-1, 4)


def truth_tracks(event):
    """Layer-ordered hits of every particle with a hit on each layer."""
    by_pid = {}
    for h in event.hits:
        by_pid.setdefault(h.truth_particle_id, []).append(h)
    return {pid: tuple(sorted(hits, key=lambda h: h.layer))
            for pid, hits in by_pid.items() if len(hits) == 4}


def clean_triplets(geometry, n_particles=1, seed=4, energies=(4.0, 9.0)):
    spectrum = EnergySpectrum(kind="uniform", minimum=energies[0], maximum=energies[1])
    sim = SimConfig(mean_multiplicity=n_particles, rng_seed=seed,
                    poisson_multiplicity=False, energy_spectrum=spectrum,
                    ip_smear=(0, 0, 0), emittance_angle_sigma=0.0,
                    scattering=False, smear_hits=False)
    event = generate_event(sim, geometry, 0)
    w = PreselectionWindow(dx_mean=0.17, dx_sigma=0.05)
    return event, build_triplets(build_doublets(event.hits, geometry, w), w)


# -- candidate building ----------------------------------------------------------

def test_one_clean_particle_one_candidate(geometry):
    _, triplets = clean_triplets(geometry)
    assert len(triplets) == 2
    candidates = triplets_to_candidates(triplets)
    assert candidates.shape == (1, 4)
    assert [triplets.doublets.hits[k].layer for k in candidates[0]] == [0, 1, 2, 3]


def test_disjoint_triplets_no_candidate(geometry):
    _, triplets = clean_triplets(geometry, n_particles=2)
    pid, common = triplets.truth_particle_ids()
    assert common.all()
    a, b = (np.flatnonzero(pid == p) for p in np.unique(pid))
    assert len(triplets_to_candidates(triplets[a])) == 1
    assert triplets_to_candidates(triplets[[a[0], b[1]]]).shape == (0, 4)


def test_seven_triplet_solution_two_candidates():
    event, geometry = two_nearby_particles_event()
    from qubotrack.preselect import calibrate_dx_window, truth_doublets
    from qubotrack.qubo import assemble_qubo
    from qubotrack.solvers import solve_exact
    mean, sigma = calibrate_dx_window([truth_doublets(event)])
    w = PreselectionWindow.from_calibration(mean, sigma)
    triplets = build_triplets(build_doublets(event.hits, geometry, w), w)
    best = solve_exact(assemble_qubo(triplets))
    selected = triplets[np.flatnonzero(best)]
    assert len(selected) == 4
    candidates = triplets_to_candidates(selected)
    assert len(candidates) == 2


def test_duplicate_hit_sets_emitted_once(geometry):
    _, triplets = clean_triplets(geometry)
    doubled = triplets[np.tile(np.arange(len(triplets)), 2)]
    assert len(triplets_to_candidates(doubled)) == 1


@pytest.fixture(scope="module")
def desk_triplets(geometry, desk_events, desk_config):
    """Every desk event's triplets, before any selection."""
    from qubotrack.pipeline import calibrate
    window, _, _ = calibrate(desk_events, desk_config)
    return [build_triplets(build_doublets(event.hits, geometry, window), window)
            for event in desk_events]


def test_candidate_layer_invariant(desk_triplets):
    """Every candidate row holds the hit on layer k in column k, for all
    triplets of every desk event chained into candidates."""
    n_rows = 0
    for triplets in desk_triplets:
        rows = triplets_to_candidates(triplets)
        layers = np.array([h.layer for h in triplets.doublets.hits], dtype=np.int64)
        assert (layers[rows] == np.arange(4)).all()
        n_rows += len(rows)
    assert n_rows > 1000


def test_candidates_keep_first_chained_pair_of_each_hit_set(desk_triplets):
    """Same rows, in the same order, as walking the chained pairs and
    skipping a hit set already seen, with triplets shuffled and repeated."""
    from qubotrack.qubo import chained_pairs
    rng = np.random.default_rng(11)
    for all_triplets in desk_triplets:
        n = len(all_triplets)
        triplets = all_triplets[rng.permutation(np.r_[np.arange(n),
                                                      rng.integers(0, n, n // 2)])]
        index = triplets.hit_index().tolist()
        seen, expected = set(), []
        for a, b in zip(*(c.tolist() for c in chained_pairs(triplets.first,
                                                              triplets.second))):
            row = (*index[a], index[b][2])
            if row not in seen:
                seen.add(row)
                expected.append(row)
        assert triplets_to_candidates(triplets).tolist() == [list(r) for r in expected]


# -- fitting ---------------------------------------------------------------------

def fake_candidate(xs, ys=None):
    return positions_of(quad_hits(xs, ys))


def test_collinear_fit_zero_chi2(geometry):
    fit = fit_track(fake_candidate([0.03, 0.036, 0.042, 0.048]), geometry)
    assert fit.chi2[0] < 1e-10
    assert NDF == 4
    assert fit.tx[0] == pytest.approx(0.06, rel=1e-12)
    assert fit.x0[0] == pytest.approx(-0.03, rel=1e-9)  # crosses zero at z = 0.5


def test_same_z_hits_raise_fit_error(geometry):
    flat = fake_candidate([0.03, 0.036, 0.042, 0.048])
    flat[:, :, 2] = 1.0
    with pytest.raises(FitError, match="same z"):
        fit_track(np.concatenate([fake_candidate([0.03, 0.036, 0.042, 0.048]), flat]),
                  geometry)


def test_batch_fit_equals_row_by_row_fits(geometry):
    """A row's fit does not depend on the other rows, to the last bit."""
    sim = SimConfig(mean_multiplicity=50, rng_seed=5, poisson_multiplicity=False)
    positions = positions_of(*truth_tracks(generate_event(sim, geometry, 0)).values())
    assert len(positions) >= 20
    batch = fit_track(positions, geometry)
    rows = [fit_track(positions[k:k + 1], geometry) for k in range(len(positions))]
    for name in ("x0", "y0", "tx", "ty", "chi2", "energy"):
        assert (np.concatenate([getattr(f, name) for f in rows]).tobytes()
                == getattr(batch, name).tobytes())


def test_displaced_hit_chi2_matches_lstsq_oracle(geometry):
    delta = 25e-6
    xs = [0.03, 0.036, 0.042, 0.048 + delta]
    ys = [0.0, 1e-5, 2e-5, 3e-5]
    fit = fit_track(fake_candidate(xs, ys), geometry)

    z = np.array([1.0, 1.1, 1.2, 1.3])
    a = np.vstack([np.ones(4), z]).T
    chi2 = 0.0
    for v in (np.array(xs), np.array(ys)):
        coeffs, residual, *_ = np.linalg.lstsq(a, v, rcond=None)
        chi2 += float(residual[0]) / geometry.hit_resolution ** 2
    assert fit.chi2[0] == pytest.approx(chi2, abs=1e-9 * chi2)


def test_chi2_distribution_on_smeared_scattering_free_tracks(geometry):
    sim = SimConfig(mean_multiplicity=100, rng_seed=13, poisson_multiplicity=False,
                    scattering=False, smear_hits=True)
    tracks = [hits for event_id in range(12)
              for hits in truth_tracks(generate_event(sim, geometry, event_id)).values()]
    values = fit_track(positions_of(*tracks), geometry).chi2_ndf
    assert len(values) >= 1000
    mean = float(np.mean(values))
    assert 0.7 <= mean <= 1.3


# -- energy estimation --------------------------------------------------------------

def test_energy_inversion_exact_on_noiseless_track(geometry):
    spectrum = EnergySpectrum(kind="fixed", fixed_value=10.0)
    sim = SimConfig(mean_multiplicity=1, rng_seed=1, poisson_multiplicity=False,
                    energy_spectrum=spectrum, ip_smear=(0, 0, 0),
                    emittance_angle_sigma=0.0, scattering=False, smear_hits=False)
    event = generate_event(sim, geometry, 0)
    ordered = tuple(sorted(event.hits, key=lambda h: h.layer))
    fit = fit_track(positions_of(ordered), geometry)
    assert fit.energy[0] == pytest.approx(10.0, rel=1e-6)


def test_energy_error_for_flat_track(geometry):
    with pytest.raises(FitError):
        estimate_energy(0.0, geometry)
    with pytest.raises(FitError):
        estimate_energy(-0.05, geometry)
    # the fit reports both as NaN energies
    fit = fit_track(fake_candidate([0.03, 0.03, 0.03, 0.03])[[0, 0]], geometry)
    backwards = fit_track(fake_candidate([0.048, 0.042, 0.036, 0.03]), geometry)
    assert np.isnan(fit.energy).all() and np.isnan(backwards.energy).all()


def test_energy_resolution_on_smeared_tracks(geometry):
    sim = SimConfig(mean_multiplicity=100, rng_seed=23, poisson_multiplicity=False)
    rel = []
    for event_id in range(12):
        event = generate_event(sim, geometry, event_id)
        tracks = truth_tracks(event)
        fit = fit_track(positions_of(*tracks.values()), geometry)
        truth = np.array([particle_by_id(event, pid).energy for pid in tracks])
        rel.extend(((fit.energy - truth) / truth).tolist())
    assert len(rel) >= 1000
    rms = math.sqrt(np.mean(np.square(rel)))
    assert rms <= 0.01


# -- truth matching -----------------------------------------------------------------

def make_event(hits, n_particles=3):
    particles = tuple(
        TruthParticle(particle_id=i, energy=1.0, origin=(0, 0, 0),
                      direction=(0, 0, 1.0)) for i in range(n_particles))
    return Event(event_id=0, xi_label=0.0, hits=tuple(hits), particles=particles)


def matched_id(event, hits):
    """The one match of the hits, by the reference on their ids and by the
    library's matcher on their truth, which must agree."""
    truth = [[h.truth_particle_id or 0 for h in hits]]
    known = [[h.truth_particle_id is not None for h in hits]]
    particle, matched = match_truth(np.array(truth), np.array(known))
    expected = match_hits(ids_of(hits)[0].tolist(), truth_by_hit(event))
    assert (int(particle[0]) if matched[0] else None) == expected
    return expected


def test_match_all_four_hits():
    hits = quad_hits([0.03, 0.036, 0.042, 0.048], pid=1)
    event = make_event(hits)
    assert matched_id(event, hits) == 1


def test_match_three_of_four():
    hits = list(quad_hits([0.03, 0.036, 0.042, 0.048], pid=1))
    hits[3] = Hit(hit_id=3, layer=3, position=hits[3].position, truth_particle_id=2)
    event = make_event(hits)
    assert matched_id(event, hits) == 1


def test_two_two_split_is_fake():
    hits = list(quad_hits([0.03, 0.036, 0.042, 0.048], pid=1))
    for k in (2, 3):
        hits[k] = Hit(hit_id=k, layer=k, position=hits[k].position,
                      truth_particle_id=2)
    event = make_event(hits)
    assert matched_id(event, hits) is None


def test_noise_hits_do_not_match():
    hits = quad_hits([0.03, 0.036, 0.042, 0.048], pid=None)
    event = make_event(hits)
    assert matched_id(event, hits) is None


# -- ambiguity resolution --------------------------------------------------------------

def chi2_ndf(*chi2):
    """chi2/ndf of fits with these chi2 values."""
    return np.array(chi2, dtype=float) / NDF


def test_disjoint_candidates_both_kept():
    c1 = quad_hits([0.03, 0.036, 0.042, 0.048])
    c2 = quad_hits([0.05, 0.06, 0.07, 0.08], hid0=10)
    keep = resolve_ambiguities(ids_of(c1, c2), chi2_ndf(1.0, 2.0))
    assert keep == [0, 1]


def test_two_hit_overlap_keeps_better_chi2():
    base = quad_hits([0.03, 0.036, 0.042, 0.048])
    other = (base[0], base[1],
             Hit(hit_id=12, layer=2, position=(0.043, 0, 1.2)),
             Hit(hit_id=13, layer=3, position=(0.049, 0, 1.3)))
    rows = ids_of(base, other)
    assert resolve_ambiguities(rows, chi2_ndf(0.5 * 4, 3.0 * 4)) == [0]
    assert resolve_ambiguities(rows, chi2_ndf(3.0 * 4, 0.5 * 4)) == [1]


def test_equal_chi2_keeps_lower_index():
    base = quad_hits([0.03, 0.036, 0.042, 0.048])
    other = (base[0], base[1],
             Hit(hit_id=12, layer=2, position=(0.043, 0, 1.2)),
             Hit(hit_id=13, layer=3, position=(0.049, 0, 1.3)))
    assert resolve_ambiguities(ids_of(base, other), chi2_ndf(1.0, 1.0)) == [0]


def test_single_hit_overlap_not_a_conflict():
    base = quad_hits([0.03, 0.036, 0.042, 0.048])
    other = (base[0],
             Hit(hit_id=11, layer=1, position=(0.037, 0, 1.1)),
             Hit(hit_id=12, layer=2, position=(0.043, 0, 1.2)),
             Hit(hit_id=13, layer=3, position=(0.049, 0, 1.3)))
    assert resolve_ambiguities(ids_of(base, other), chi2_ndf(1.0, 9.0)) == [0, 1]


def test_pivot_comparison_batch_rejects_all_worse_partners():
    # the most-shared candidate a is compared against every conflicting
    # partner in one batch: b (better) survives and rejects a, while c
    # (worse than a) is rejected in the same batch
    a_hits = quad_hits([0.03, 0.036, 0.042, 0.048])
    b_hits = (a_hits[0], a_hits[1],
              Hit(hit_id=12, layer=2, position=(0.043, 0, 1.2)),
              Hit(hit_id=13, layer=3, position=(0.049, 0, 1.3)))
    c_hits = (Hit(hit_id=20, layer=0, position=(0.031, 0, 1.0)),
              Hit(hit_id=21, layer=1, position=(0.037, 0, 1.1)),
              a_hits[2], a_hits[3])
    keep = resolve_ambiguities(ids_of(a_hits, b_hits, c_hits), chi2_ndf(2.0, 1.0, 3.0))
    assert keep == [1]


def test_resolution_does_not_raise_low_chi2_fake_fraction(geometry, desk_events,
                                                          desk_config):
    """Fakes concentrate at high chi2/ndf; among candidates below the
    matched-population median the fake fraction never grows through
    ambiguity resolution."""
    from qubotrack.pipeline import calibrate, _make_subsolver
    from qubotrack.preselect import build_doublets, build_triplets
    from qubotrack.qubo import assemble_qubo
    from qubotrack.solvers import solve_iterative

    window, scaling, _ = calibrate(desk_events, desk_config)
    before_fake = before_all = after_fake = after_all = 0
    for event in desk_events[:8]:
        triplets = build_triplets(build_doublets(event.hits, geometry, window),
                                  window)
        if not triplets:
            continue
        report = solve_iterative(assemble_qubo(triplets, scaling),
                                 _make_subsolver(desk_config),
                                 seed=desk_config.seed ^ event.event_id)
        selected = triplets[np.flatnonzero(report.best_assignment)]
        rows = triplets_to_candidates(selected)
        if not len(rows):
            continue
        hit_ids = selected.doublets.hit_ids[rows]
        quality = fit_track(selected.doublets.positions[rows], geometry).chi2_ndf
        hits = selected.doublets.hits
        matched = match_truth(hits.truth[rows], hits.known[rows])[1].tolist()
        matched_chi2 = [q for q, m in zip(quality.tolist(), matched) if m]
        if not matched_chi2:
            continue
        median = float(np.median(matched_chi2))
        keep = set(resolve_ambiguities(hit_ids, quality))
        for i, (q, m) in enumerate(zip(quality.tolist(), matched)):
            if q >= median:
                continue
            before_all += 1
            before_fake += not m
            if i in keep:
                after_all += 1
                after_fake += not m
    assert before_all > 0 and after_all > 0
    before_frac = before_fake / before_all
    after_frac = after_fake / after_all
    assert after_frac <= before_frac + 1e-12


def test_post_resolution_no_pair_shares_two_hits(geometry):
    rng = np.random.default_rng(3)
    layers_z = [1.0, 1.1, 1.2, 1.3]
    pool = [[Hit(hit_id=100 * l + i, layer=l, position=(0.03 + 0.002 * i, 0, layers_z[l]))
             for i in range(4)] for l in range(4)]
    candidates, chi2 = [], []
    for _ in range(30):
        candidates.append(tuple(pool[l][rng.integers(0, 4)] for l in range(4)))
        chi2.append(float(rng.uniform(0.1, 10.0)))
    rows = ids_of(*candidates)
    keep = resolve_ambiguities(rows, chi2_ndf(*chi2))
    for i, a in enumerate(keep):
        for b in keep[i + 1:]:
            shared = set(rows[a].tolist()) & set(rows[b].tolist())
            assert len(shared) <= 1


def resolve_ambiguities_oracle(hit_ids, quality):
    """The all-pairs resolution: every pairwise hit-set intersection of the
    live candidates is recomputed at each pivot."""
    hit_sets = [set(row) for row in hit_ids.tolist()]
    quality = quality.tolist()
    alive = set(range(len(hit_sets)))

    def shared(i, j):
        return len(hit_sets[i] & hit_sets[j])

    while True:
        conflicts = {
            i: [j for j in alive if j != i and shared(i, j) >= 2]
            for i in alive
        }
        in_conflict = [i for i, js in conflicts.items() if js]
        if not in_conflict:
            break
        totals = {
            i: sum(shared(i, j) for j in alive if j != i)
            for i in in_conflict
        }
        pivot = min(in_conflict, key=lambda i: (-totals[i], i))
        pivot_key = (quality[pivot], pivot)
        reject_pivot = False
        for partner in conflicts[pivot]:
            if (quality[partner], partner) > pivot_key:
                alive.discard(partner)
            else:
                reject_pivot = True
        if reject_pivot:
            alive.discard(pivot)
    return sorted(alive)


def resolve_ambiguities_rescan(hit_ids, quality):
    """The resolution with neighbour maps but no kept totals: at each pivot
    every live candidate is read again for its conflicts and total."""
    quality = quality.tolist()
    alive = set(range(len(quality)))
    overlap = [{} for _ in quality]
    for i, j, n in zip(*(a.tolist() for a in shared_hits(hit_ids))):
        overlap[i][j] = overlap[j][i] = n

    def reject(i):
        alive.discard(i)
        for j in overlap[i]:
            del overlap[j][i]

    while True:
        in_conflict = [i for i in alive if any(n >= 2 for n in overlap[i].values())]
        if not in_conflict:
            break
        pivot = min(in_conflict, key=lambda i: (-sum(overlap[i].values()), i))
        pivot_key = (quality[pivot], pivot)
        reject_pivot = False
        for partner in [j for j, n in overlap[pivot].items() if n >= 2]:
            if (quality[partner], partner) > pivot_key:
                reject(partner)
            else:
                reject_pivot = True
        if reject_pivot:
            reject(pivot)
    return sorted(alive)


def test_resolution_of_every_triplet_equals_rescan(geometry, desk_triplets):
    """Every triplet of a desk event chained into candidates, the input
    with the most conflicts: the kept totals and the heap pick the rescan's
    pivots, so the survivors are the rescan's."""
    rejected = 0
    for triplets in desk_triplets:
        rows = triplets_to_candidates(triplets)
        hit_ids = triplets.doublets.hit_ids[rows]
        quality = fit_track(triplets.doublets.positions[rows], geometry).chi2_ndf
        keep = resolve_ambiguities(hit_ids, quality)
        assert keep == resolve_ambiguities_rescan(hit_ids, quality)
        rejected += len(rows) - len(keep)
    assert rejected > 100


@pytest.mark.parametrize("seed", range(8))
def test_resolution_matches_all_pairs_oracle(seed):
    rng = np.random.default_rng(seed)
    layers_z = [1.0, 1.1, 1.2, 1.3]
    width = int(rng.integers(3, 7))
    pool = [[Hit(hit_id=100 * l + i, layer=l,
                 position=(0.03 + 0.002 * i, 0, layers_z[l]))
             for i in range(width)] for l in range(4)]
    n = int(rng.integers(30, 201))
    rows = ids_of(*(tuple(pool[l][rng.integers(0, width)] for l in range(4))
                    for _ in range(n)))
    # few distinct chi2 values, so the index tie-break decides many pairs
    quality = chi2_ndf(*(float(rng.integers(1, 5)) for _ in range(n)))
    keep = resolve_ambiguities(rows, quality)
    assert keep == resolve_ambiguities_oracle(rows, quality)
    assert keep == resolve_ambiguities_rescan(rows, quality)
    assert 0 < len(keep) < n
