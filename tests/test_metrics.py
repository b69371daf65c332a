import math

import numpy as np
import pytest

from qubotrack.config import RunConfig
from qubotrack.fastsim import SimConfig, generate_event
from qubotrack.geometry import Event, GeometryConfig, Hit, TruthParticle, build_geometry
from qubotrack.metrics import (TrackRecord, build_report, match_hits,
                               reconstructable_particles, truth_by_hit,
                               wilson_interval)
from qubotrack.pipeline import reconstruct_events, simulate_events


def toy_event(n_particles=3, event_id=0):
    particles = tuple(
        TruthParticle(particle_id=i, energy=float(2 + i), origin=(0, 0, 0),
                      direction=(0, 0, 1.0)) for i in range(n_particles))
    hits = tuple(
        Hit(hit_id=10 * p + l, layer=l, position=(0.03 + 0.01 * p, 0, 1.0 + 0.1 * l),
            truth_particle_id=p)
        for p in range(n_particles) for l in range(4))
    return Event(event_id=event_id, xi_label=0.0, hits=hits, particles=particles)


def track_for(event, pid, track_id=0, energy=None, chi2=1.0):
    hit_ids = tuple(h.hit_id for h in sorted(
        (h for h in event.hits if h.truth_particle_id == pid),
        key=lambda h: h.layer))
    e = energy if energy is not None else event.particle_by_id(pid).energy
    return TrackRecord(event_id=event.event_id, track_id=track_id,
                       hit_ids=hit_ids, chi2=chi2, ndf=4, energy=e)


def fake_track(event, track_id=99):
    # one hit from each of 4 distinct particles (if available)
    picks = []
    for l in range(4):
        for h in event.hits:
            if h.layer == l and h.truth_particle_id == l % len(event.particles):
                picks.append(h.hit_id)
                break
    return TrackRecord(event_id=event.event_id, track_id=track_id,
                       hit_ids=tuple(picks), chi2=50.0, ndf=4, energy=4.0)


# -- scalar metrics ------------------------------------------------------------------

def test_efficiency_all_found():
    e = toy_event()
    tracks = [track_for(e, p, track_id=p) for p in range(3)]
    assert build_report([e], tracks).efficiency == 1.0


def test_efficiency_no_tracks():
    e = toy_event()
    assert build_report([e], []).efficiency == 0.0


def test_efficiency_absent_without_denominator():
    empty = Event(event_id=0, xi_label=0.0, hits=(), particles=())
    assert build_report([empty], []).efficiency is None


def test_reconstructable_requires_all_layers():
    e = toy_event()
    partial = Event(event_id=1, xi_label=0.0, particles=e.particles,
                    hits=tuple(h for h in e.hits if h.hit_id != 0))
    assert reconstructable_particles(partial) == [1, 2]


def test_fake_rate_counting():
    e = toy_event()
    tracks = [track_for(e, p, track_id=p) for p in range(3)]
    assert build_report([e], tracks).fake_rate == 0.0
    tracks9 = [track_for(e, p % 3, track_id=p) for p in range(9)]
    assert build_report([e], tracks9 + [fake_track(e)]).fake_rate == pytest.approx(0.1)
    assert build_report([e], []).fake_rate is None


def test_duplication_rate():
    e = toy_event(n_particles=4)
    tracks = [track_for(e, p, track_id=p) for p in range(4)]
    assert build_report([e], tracks).duplication_rate == 0.0
    doubled = tracks + [track_for(e, 0, track_id=9)]
    assert build_report([e], doubled).duplication_rate == pytest.approx(0.25)
    assert build_report([e], []).duplication_rate is None


def test_match_track_majority_rule():
    e = toy_event()
    t = track_for(e, 1)
    assert match_hits(t.hit_ids, truth_by_hit(e)) == 1
    mixed = TrackRecord(event_id=0, track_id=0,
                        hit_ids=(10, 11, 2, 3), chi2=1.0, ndf=4, energy=3.0)
    assert match_hits(mixed.hit_ids, truth_by_hit(e)) is None  # 2-2 split


def test_energy_resolution_exact_and_absent():
    e = toy_event()
    tracks = [track_for(e, p, track_id=p) for p in range(3)]
    assert build_report([e], tracks).energy_resolution == pytest.approx(0.0, abs=1e-12)
    assert build_report([e], tracks[:1]).energy_resolution is None  # below 2 entries
    off = [track_for(e, p, track_id=p, energy=event_energy * 1.01)
           for p, event_energy in ((0, 2.0), (1, 3.0), (2, 4.0))]
    assert build_report([e], off).energy_resolution == pytest.approx(0.01, rel=1e-9)


def test_resolution_grows_with_hit_resolution():
    values = []
    for res in (5e-6, 10e-6, 20e-6):
        geometry = build_geometry(GeometryConfig(hit_resolution=res))
        sim = SimConfig(mean_multiplicity=150, rng_seed=31,
                        poisson_multiplicity=False)
        events = [generate_event(sim, geometry, i) for i in range(4)]
        from qubotrack.trackbuild import fit_track
        positions, truth = [], []
        for e in events:
            by_pid = {}
            for h in e.hits:
                by_pid.setdefault(h.truth_particle_id, []).append(h)
            for pid, hits in by_pid.items():
                if len(hits) != 4:
                    continue
                ordered = sorted(hits, key=lambda h: h.layer)
                positions.append([h.position for h in ordered])
                truth.append(e.particle_by_id(pid).energy)
        fit = fit_track(np.array(positions, dtype=float), geometry)
        rel = (fit.energy - np.array(truth)) / np.array(truth)
        values.append(math.sqrt(np.mean(np.square(rel))))
    assert values[0] < values[1] < values[2]


# -- intervals and curves ---------------------------------------------------------------

def test_wilson_interval_basics():
    lo, hi = wilson_interval(5, 10)
    assert 0.0 <= lo < 0.5 < hi <= 1.0
    lo0, hi0 = wilson_interval(0, 10)
    assert lo0 == pytest.approx(0.0, abs=1e-12) and hi0 > 0.0
    lo1, hi1 = wilson_interval(10, 10)
    assert hi1 == pytest.approx(1.0, abs=1e-12) and lo1 < 1.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_single_bin_reproduces_scalar_metrics():
    e = toy_event()
    tracks = [track_for(e, p, track_id=p) for p in range(2)]  # particle 2 missed
    report = build_report([e], tracks, [0.0, 100.0])
    eff = report.curves["efficiency_vs_true_energy"][0]
    assert eff.value == pytest.approx(report.efficiency)
    fk = report.curves["fake_rate_vs_track_energy"][0]
    assert fk.value == pytest.approx(report.fake_rate)


def test_empty_bin_is_absent():
    e = toy_event()
    tracks = [track_for(e, p, track_id=p) for p in range(3)]
    curves = build_report([e], tracks, [0.0, 1.0, 100.0]).curves
    first = curves["efficiency_vs_true_energy"][0]  # no particle below 1 GeV
    assert first.value is None and first.err_lo is None


def test_bin_edges_must_increase():
    e = toy_event()
    with pytest.raises(ValueError, match="increasing"):
        build_report([e], [], [1.0, 1.0])


def test_efficiency_binned_in_true_energy_fake_in_measured():
    e = toy_event()  # truth energies 2, 3, 4
    tracks = [track_for(e, 0, track_id=0, energy=50.0)]  # measured far away
    curves = build_report([e], tracks, [0.0, 10.0, 100.0]).curves
    eff = curves["efficiency_vs_true_energy"]
    assert eff[0].denominator == 3 and eff[1].denominator == 0
    fk = curves["fake_rate_vs_track_energy"]
    assert fk[0].denominator == 0 and fk[1].denominator == 1


# -- report ---------------------------------------------------------------------------

def test_report_counts_consistent():
    e = toy_event(n_particles=4)  # the combinatorial fake needs 4 distinct owners
    tracks = [track_for(e, p, track_id=p) for p in range(3)] + [fake_track(e)]
    report = build_report([e], tracks)
    assert report.counts["matched"] + report.counts["fake"] == report.counts["reconstructed"]
    assert report.counts["fake_combinatorial"] == 1
    assert report.check_invariants() == []
    payload = report.to_dict()
    assert set(payload) >= {"efficiency", "fake_rate", "duplication_rate",
                            "energy_resolution", "counts", "curves"}


def test_report_per_xi_label_grouping():
    e1 = toy_event(event_id=0)
    e2 = Event(event_id=1, xi_label=5.0, hits=toy_event(event_id=1).hits,
               particles=toy_event(event_id=1).particles)
    tracks = [track_for(e1, 0, track_id=0)]
    report = build_report([e1, e2], tracks)
    assert set(report.per_xi_label) == {"0.0", "5.0"}
    assert report.per_xi_label["0.0"]["efficiency"] == pytest.approx(1 / 3)
    assert report.per_xi_label["5.0"]["efficiency"] == 0.0


def test_shuffled_tracks_same_report():
    e = toy_event()
    tracks = [track_for(e, p, track_id=p) for p in range(3)] + [fake_track(e)]
    a = build_report([e], tracks).to_dict()
    b = build_report([e], list(reversed(tracks))).to_dict()
    assert a == b


def test_lowest_energy_bin_efficiency_not_above_high_energy(desk_events, desk_config):
    # scattering makes the pre-selection the bottleneck at low energy
    results, _ = reconstruct_events(desk_events, desk_config)
    tracks = [t for r in results for t in r.tracks]
    curves = build_report(desk_events, tracks, [0.0, 2.0, 3.0, 16.0]).curves
    eff = curves["efficiency_vs_true_energy"]
    lowest = eff[0]
    high = eff[2]
    assert lowest.denominator > 0 and high.denominator > 0
    assert lowest.value <= high.value


# -- oracle limit -----------------------------------------------------------------------

def test_noiseless_well_separated_particles_perfect_metrics(geometry):
    cfg = RunConfig.from_dict({
        "sim": {"mean_multiplicity": 12, "rng_seed": 3, "poisson_multiplicity": False,
                "ip_smear": [0.0, 0.0, 0.0], "emittance_angle_sigma": 0.0,
                "scattering": False, "smear_hits": False,
                "energy_spectrum": {"kind": "uniform", "minimum": 2.0, "maximum": 13.0}},
        "seed": 3,
    })
    events = simulate_events(cfg, 3)
    results, _ = reconstruct_events(events, cfg)
    tracks = [t for r in results for t in r.tracks]
    report = build_report(events, tracks)
    assert report.efficiency == 1.0
    assert report.fake_rate == 0.0
    assert report.duplication_rate == 0.0
    assert report.energy_resolution < 1e-6


# -- report pinned to the per-metric implementation it replaced ---------------------------

def _report_scenario():
    """Five events over three xi labels with every kind of track the metrics
    tell apart: 4-of-4 and 3-of-4 matches, duplicates, NaN energies, fakes
    with four owners (noise counting as one), three and two owners,
    noise-only tracks, missed and non-reconstructable particles."""
    rng = np.random.default_rng(31)
    events, tracks = [], []
    for event_id, xi in enumerate([0.0, 0.0, 2.5, 2.5, 5.0]):
        n_particles = 6 + event_id
        particles = tuple(
            TruthParticle(particle_id=p, energy=float(rng.uniform(1.0, 15.0)),
                          origin=(0, 0, 0), direction=(0, 0, 1.0))
            for p in range(n_particles))
        hits, by_particle = [], {}
        for p in range(n_particles):
            for layer in range(3 if p % 5 == 4 else 4):  # every 5th misses a layer
                hits.append(Hit(hit_id=len(hits), layer=layer,
                                position=(0.0, 0.0, 1.0 + 0.1 * layer),
                                truth_particle_id=p))
                by_particle.setdefault(p, []).append(hits[-1].hit_id)
        noise = []
        for layer in range(4):
            hits.append(Hit(hit_id=len(hits), layer=layer,
                            position=(0.01, 0.0, 1.0 + 0.1 * layer)))
            noise.append(hits[-1].hit_id)
        events.append(Event(event_id=event_id, xi_label=xi, hits=tuple(hits),
                            particles=particles))

        def add(hit_ids, energy):
            tracks.append(TrackRecord(event_id=event_id, track_id=len(tracks),
                                      hit_ids=tuple(hit_ids), chi2=1.0, ndf=4,
                                      energy=energy))

        for p in range(n_particles):
            if p % 4 == 3 or p % 5 == 4:
                continue  # missed, or not reconstructable
            smear = 1.0 + 0.04 * (float(rng.uniform()) - 0.5)
            add(by_particle[p], math.nan if p == 2 else particles[p].energy * smear)
        add(by_particle[0][:3] + [noise[3]], particles[0].energy * 1.01)  # duplicate
        add([by_particle[p][p] for p in range(4)], 5.0)                    # four owners
        add(by_particle[1][:2] + by_particle[5][2:4], float(rng.uniform(1, 15)))
        add(noise, 2.0)
        add(by_particle[1][:2] + [by_particle[2][2], by_particle[3][3]], 3.0)
        add([noise[0], by_particle[1][1], by_particle[2][2], by_particle[3][3]], 4.0)
    return events, tracks


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def test_report_unchanged_on_multi_event_multi_label_run():
    # recorded with the implementation that matched every track once per
    # metric and looked truth particles up by linear scan
    def row(lo, hi, value, err_lo, err_hi):
        return {"bin_lo": lo, "bin_hi": hi, "value": value,
                "err_lo": err_lo, "err_hi": err_hi}

    expected = {
        "efficiency": 0.7647058823529411,
        "fake_rate": 0.44642857142857145,
        "duplication_rate": 0.19230769230769232,
        "energy_resolution": 0.010829560850563877,
        "counts": {"generated": 34, "reconstructed": 56, "matched": 31, "fake": 25,
                   "fake_combinatorial": 10, "events": 5},
        "curves": {
            "efficiency_vs_true_energy": [
                row(0.0, 3.0, 0.6, 0.21735990964653817, 0.18402657631320496),
                row(3.0, 6.0, 1.0, 0.19999999999999996, 0.0),
                row(6.0, 10.0, 0.5555555555555556, 0.16278857442316563, 0.15167746331205456),
                row(10.0, 16.0, 0.875, 0.1052478566101821, 0.061130209551358505)],
            "fake_rate_vs_track_energy": [
                row(0.0, 3.0, 0.625, 0.17585977485681387, 0.14808199707903613),
                row(3.0, 6.0, 0.8823529411764706, 0.10009757197394553, 0.057613911843226506),
                row(6.0, 10.0, 0.42857142857142855, 0.16626265062811235, 0.18411979348525526),
                row(10.0, 16.0, 0.10526315789473684, 0.05166822921692177, 0.0911419134274481)],
        },
        "per_xi_label": {
            "0.0": {"efficiency": 0.8181818181818182, "fake_rate": 0.47619047619047616,
                    "duplication_rate": 0.2222222222222222,
                    "energy_resolution": 0.012199597531085673, "events": 2, "tracks": 21},
            "2.5": {"efficiency": 0.7333333333333333, "fake_rate": 0.43478260869565216,
                    "duplication_rate": 0.18181818181818182,
                    "energy_resolution": 0.011432098386648508, "events": 2, "tracks": 23},
            "5.0": {"efficiency": 0.75, "fake_rate": 0.4166666666666667,
                    "duplication_rate": 0.16666666666666666,
                    "energy_resolution": 0.006735117737047364, "events": 1, "tracks": 12},
        },
    }
    events, tracks = _report_scenario()
    report = build_report(events, tracks, edges=[0.0, 3.0, 6.0, 10.0, 16.0])
    assert _rounded(report.to_dict()) == _rounded(expected)
