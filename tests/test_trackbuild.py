import math

import numpy as np
import pytest

from qubotrack.fastsim import EnergySpectrum, SimConfig, generate_event
from qubotrack.geometry import Event, Hit, TruthParticle
from qubotrack.metrics import match_hits, truth_by_hit
from qubotrack.preselect import PreselectionWindow, build_doublets, build_triplets
from qubotrack.scenarios import two_nearby_particles_event
from qubotrack.trackbuild import (FitError, TrackCandidate, TrackFit,
                                  estimate_energy, fit_track,
                                  resolve_ambiguities, triplets_to_candidates)


def quad_hits(xs, ys=None, hid0=0, pid=None):
    ys = ys or [0.0] * 4
    return tuple(
        Hit(hit_id=hid0 + k, layer=k, position=(xs[k], ys[k], 1.0 + 0.1 * k),
            truth_particle_id=pid)
        for k in range(4)
    )


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
    assert len(candidates) == 1
    assert tuple(h.layer for h in candidates[0].hits) == (0, 1, 2, 3)


def test_disjoint_triplets_no_candidate(geometry):
    _, triplets = clean_triplets(geometry, n_particles=2)
    pid, common = triplets.truth_particle_ids()
    assert common.all()
    a, b = (np.flatnonzero(pid == p) for p in np.unique(pid))
    assert len(triplets_to_candidates(triplets[a])) == 1
    assert triplets_to_candidates(triplets[[a[0], b[1]]]) == []


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


def test_candidate_layer_invariant():
    hits = quad_hits([0.03, 0.036, 0.042, 0.048])
    bad = (hits[0], hits[0], hits[2], hits[3])
    with pytest.raises(ValueError, match="one hit per layer"):
        TrackCandidate(hits=bad)


# -- fitting ---------------------------------------------------------------------

def fake_candidate(xs, ys=None):
    hits = quad_hits(xs, ys)
    return TrackCandidate(hits=hits)


def test_collinear_fit_zero_chi2(geometry):
    c = fake_candidate([0.03, 0.036, 0.042, 0.048])
    fit = fit_track(c, geometry)
    assert fit.chi2 < 1e-10
    assert fit.ndf == 4
    assert fit.tx == pytest.approx(0.06, rel=1e-12)
    assert fit.x0 == pytest.approx(-0.03, rel=1e-9)  # crosses zero at z = 0.5


def test_displaced_hit_chi2_matches_lstsq_oracle(geometry):
    delta = 25e-6
    xs = [0.03, 0.036, 0.042, 0.048 + delta]
    ys = [0.0, 1e-5, 2e-5, 3e-5]
    c = fake_candidate(xs, ys)
    fit = fit_track(c, geometry)

    z = np.array([1.0, 1.1, 1.2, 1.3])
    a = np.vstack([np.ones(4), z]).T
    chi2 = 0.0
    for v in (np.array(xs), np.array(ys)):
        coeffs, residual, *_ = np.linalg.lstsq(a, v, rcond=None)
        chi2 += float(residual[0]) / geometry.hit_resolution ** 2
    assert fit.chi2 == pytest.approx(chi2, abs=1e-9 * chi2)


def test_chi2_distribution_on_smeared_scattering_free_tracks(geometry):
    sim = SimConfig(mean_multiplicity=100, rng_seed=13, poisson_multiplicity=False,
                    scattering=False, smear_hits=True)
    values = []
    for event_id in range(12):
        event = generate_event(sim, geometry, event_id)
        by_pid = {}
        for h in event.hits:
            by_pid.setdefault(h.truth_particle_id, []).append(h)
        for hits in by_pid.values():
            if len(hits) != 4:
                continue
            ordered = tuple(sorted(hits, key=lambda h: h.layer))
            fit = fit_track(TrackCandidate(hits=ordered),
                            geometry)
            values.append(fit.chi2_ndf)
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
    fit = fit_track(TrackCandidate(hits=ordered),
                    geometry)
    assert fit.energy_estimate == pytest.approx(10.0, rel=1e-6)


def test_energy_error_for_flat_track(geometry):
    fit = TrackFit(x0=0.0, y0=0.0, tx=0.0, ty=0.0, chi2=0.0, ndf=4,
                   energy_estimate=math.nan)
    with pytest.raises(FitError):
        estimate_energy(fit, geometry)
    backwards = TrackFit(x0=0.0, y0=0.0, tx=-0.05, ty=0.0, chi2=0.0, ndf=4,
                         energy_estimate=math.nan)
    with pytest.raises(FitError):
        estimate_energy(backwards, geometry)


def test_energy_resolution_on_smeared_tracks(geometry):
    sim = SimConfig(mean_multiplicity=100, rng_seed=23, poisson_multiplicity=False)
    rel = []
    for event_id in range(12):
        event = generate_event(sim, geometry, event_id)
        by_pid = {}
        for h in event.hits:
            by_pid.setdefault(h.truth_particle_id, []).append(h)
        for pid, hits in by_pid.items():
            if len(hits) != 4:
                continue
            ordered = tuple(sorted(hits, key=lambda h: h.layer))
            fit = fit_track(TrackCandidate(hits=ordered),
                            geometry)
            truth = event.particle_by_id(pid).energy
            rel.append((fit.energy_estimate - truth) / truth)
    assert len(rel) >= 1000
    rms = math.sqrt(np.mean(np.square(rel)))
    assert rms <= 0.01


# -- truth matching -----------------------------------------------------------------

def make_event(hits, n_particles=3):
    particles = tuple(
        TruthParticle(particle_id=i, energy=1.0, origin=(0, 0, 0),
                      direction=(0, 0, 1.0)) for i in range(n_particles))
    return Event(event_id=0, xi_label=0.0, hits=tuple(hits), particles=particles)


def test_match_all_four_hits():
    hits = quad_hits([0.03, 0.036, 0.042, 0.048], pid=1)
    event = make_event(hits)
    c = TrackCandidate(hits=hits)
    assert match_hits(c.hit_ids(), truth_by_hit(event)) == 1


def test_match_three_of_four():
    hits = list(quad_hits([0.03, 0.036, 0.042, 0.048], pid=1))
    hits[3] = Hit(hit_id=3, layer=3, position=hits[3].position, truth_particle_id=2)
    event = make_event(hits)
    c = TrackCandidate(hits=tuple(hits))
    assert match_hits(c.hit_ids(), truth_by_hit(event)) == 1


def test_two_two_split_is_fake():
    hits = list(quad_hits([0.03, 0.036, 0.042, 0.048], pid=1))
    for k in (2, 3):
        hits[k] = Hit(hit_id=k, layer=k, position=hits[k].position,
                      truth_particle_id=2)
    event = make_event(hits)
    c = TrackCandidate(hits=tuple(hits))
    assert match_hits(c.hit_ids(), truth_by_hit(event)) is None


def test_noise_hits_do_not_match():
    hits = quad_hits([0.03, 0.036, 0.042, 0.048], pid=None)
    event = make_event(hits)
    c = TrackCandidate(hits=hits)
    assert match_hits(c.hit_ids(), truth_by_hit(event)) is None


# -- ambiguity resolution --------------------------------------------------------------

def fit_with(chi2):
    return TrackFit(x0=0, y0=0, tx=0.05, ty=0, chi2=chi2, ndf=4,
                    energy_estimate=5.0)


def test_disjoint_candidates_both_kept():
    c1 = fake_candidate([0.03, 0.036, 0.042, 0.048])
    c2_hits = quad_hits([0.05, 0.06, 0.07, 0.08], hid0=10)
    c2 = TrackCandidate(hits=c2_hits)
    keep = resolve_ambiguities([c1, c2], [fit_with(1.0), fit_with(2.0)])
    assert keep == [0, 1]


def test_two_hit_overlap_keeps_better_chi2():
    base = quad_hits([0.03, 0.036, 0.042, 0.048])
    other = (base[0], base[1],
             Hit(hit_id=12, layer=2, position=(0.043, 0, 1.2)),
             Hit(hit_id=13, layer=3, position=(0.049, 0, 1.3)))
    c1 = TrackCandidate(hits=base)
    c2 = TrackCandidate(hits=other)
    assert resolve_ambiguities([c1, c2], [fit_with(0.5 * 4), fit_with(3.0 * 4)]) == [0]
    assert resolve_ambiguities([c1, c2], [fit_with(3.0 * 4), fit_with(0.5 * 4)]) == [1]


def test_equal_chi2_keeps_lower_index():
    base = quad_hits([0.03, 0.036, 0.042, 0.048])
    other = (base[0], base[1],
             Hit(hit_id=12, layer=2, position=(0.043, 0, 1.2)),
             Hit(hit_id=13, layer=3, position=(0.049, 0, 1.3)))
    c1 = TrackCandidate(hits=base)
    c2 = TrackCandidate(hits=other)
    assert resolve_ambiguities([c1, c2], [fit_with(1.0), fit_with(1.0)]) == [0]


def test_single_hit_overlap_not_a_conflict():
    base = quad_hits([0.03, 0.036, 0.042, 0.048])
    other = (base[0],
             Hit(hit_id=11, layer=1, position=(0.037, 0, 1.1)),
             Hit(hit_id=12, layer=2, position=(0.043, 0, 1.2)),
             Hit(hit_id=13, layer=3, position=(0.049, 0, 1.3)))
    c1 = TrackCandidate(hits=base)
    c2 = TrackCandidate(hits=other)
    assert resolve_ambiguities([c1, c2], [fit_with(1.0), fit_with(9.0)]) == [0, 1]


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
    cands = [TrackCandidate(hits=h)
             for h in (a_hits, b_hits, c_hits)]
    fits = [fit_with(2.0), fit_with(1.0), fit_with(3.0)]
    keep = resolve_ambiguities(cands, fits)
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
        candidates = triplets_to_candidates(selected)
        fits = [fit_track(c, geometry) for c in candidates]
        if not candidates:
            continue
        truth = truth_by_hit(event)
        matched = [match_hits(c.hit_ids(), truth) is not None for c in candidates]
        matched_chi2 = [f.chi2_ndf for f, m in zip(fits, matched) if m]
        if not matched_chi2:
            continue
        median = float(np.median(matched_chi2))
        keep = set(resolve_ambiguities(candidates, fits))
        for i, (f, m) in enumerate(zip(fits, matched)):
            if f.chi2_ndf >= median:
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
    candidates, fits = [], []
    for _ in range(30):
        hits = tuple(pool[l][rng.integers(0, 4)] for l in range(4))
        candidates.append(TrackCandidate(hits=hits))
        fits.append(fit_with(float(rng.uniform(0.1, 10.0))))
    keep = resolve_ambiguities(candidates, fits)
    for i, a in enumerate(keep):
        for b in keep[i + 1:]:
            shared = set(candidates[a].hit_ids()) & set(candidates[b].hit_ids())
            assert len(shared) <= 1


def resolve_ambiguities_oracle(candidates, fits):
    """The all-pairs resolution: every pairwise hit-set intersection of the
    live candidates is recomputed at each pivot."""
    hit_sets = [set(c.hit_ids()) for c in candidates]
    alive = set(range(len(candidates)))

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
        pivot_key = (fits[pivot].chi2_ndf, pivot)
        reject_pivot = False
        for partner in conflicts[pivot]:
            if (fits[partner].chi2_ndf, partner) > pivot_key:
                alive.discard(partner)
            else:
                reject_pivot = True
        if reject_pivot:
            alive.discard(pivot)
    return sorted(alive)


@pytest.mark.parametrize("seed", range(8))
def test_resolution_matches_all_pairs_oracle(seed):
    rng = np.random.default_rng(seed)
    layers_z = [1.0, 1.1, 1.2, 1.3]
    width = int(rng.integers(3, 7))
    pool = [[Hit(hit_id=100 * l + i, layer=l,
                 position=(0.03 + 0.002 * i, 0, layers_z[l]))
             for i in range(width)] for l in range(4)]
    n = int(rng.integers(30, 201))
    candidates = [TrackCandidate(hits=tuple(pool[l][rng.integers(0, width)]
                                            for l in range(4)))
                  for _ in range(n)]
    # few distinct chi2 values, so the index tie-break decides many pairs
    fits = [fit_with(float(rng.integers(1, 5))) for _ in range(n)]
    keep = resolve_ambiguities(candidates, fits)
    assert keep == resolve_ambiguities_oracle(candidates, fits)
    assert 0 < len(keep) < n
