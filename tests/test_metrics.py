import math
from collections import Counter

import numpy as np
import pytest

from conftest import particle_by_id
from metrics_reference import (hexed, match_hits, reconstructable_particles, reference_report,
                               truth_by_hit)

from qubotrack.config import RunConfig
from qubotrack.fastsim import SimConfig, generate_event
from qubotrack.geometry import Event, GeometryConfig, Hit, TruthParticle, build_geometry
from qubotrack.metrics import TrackRecord, build_report, match_truth, wilson_interval
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
    e = energy if energy is not None else particle_by_id(event, pid).energy
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
    assert build_report([partial], []).counts["generated"] == 2


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
    rows = np.searchsorted(e.hits.ids, [t.hit_ids, mixed.hit_ids])  # toy ids ascend
    particle, matched = match_truth(e.hits.truth[rows], e.hits.known[rows])
    assert particle[0] == 1 and matched.tolist() == [True, False]


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
                truth.append(particle_by_id(e, pid).energy)
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


# -- the columnar report against the per-hit, per-track reference -------------------------

EDGES = [0.0, 1.0, 2.0, 3.5, 5.0, 8.0]


def random_run(rng):
    """Events and tracks with every case the report tells apart: noise hits,
    track hits missing from their event or named twice, particles sharing
    an id, hits sharing an id, non-finite track energies, events without
    hits or tracks, two xi labels, and energies on the bin edges. Every
    hit's particle is listed, so neither side raises."""
    events, tracks = [], []

    def edge_or_uniform():  # a particle's energy is positive, so not edge 0
        return (float(rng.choice(EDGES[1:])) if rng.random() < 0.3
                else float(rng.uniform(0.5, 9.0)))

    for event_id in rng.choice(60, size=int(rng.integers(0, 6)), replace=False).tolist():
        n_particles = int(rng.integers(0, 7))
        pids = rng.integers(-2, n_particles + 1, size=n_particles)  # repeats allowed
        energies = [edge_or_uniform() for _ in pids]
        particles = tuple(TruthParticle(int(p), e, (0, 0, 0), (0, 0, 1.0))
                          for p, e in zip(pids.tolist(), energies))
        owners = sorted(set(pids.tolist()))
        hit_ids = rng.choice(500, size=60, replace=False).tolist()
        hits = []
        for pid in owners:
            layers = range(4) if rng.random() < 0.6 else rng.integers(0, 4, size=4).tolist()
            hits += [Hit(hit_ids.pop(), int(layer), (0.0, 0.0, 1.0 + 0.1 * layer), pid)
                     for layer in layers]
        hits += [Hit(hit_ids.pop(), int(rng.integers(0, 4)), (0.01, 0.0, 1.0))
                 for _ in range(int(rng.integers(0, 4)))]
        if hits and rng.random() < 0.2:  # a hand-made event may reuse a hit id
            twin = hits[int(rng.integers(len(hits)))]
            hits.insert(int(rng.integers(len(hits) + 1)),
                        Hit(twin.hit_id, twin.layer, twin.position, rng.choice(owners or [None])))
        if rng.random() < 0.15:
            hits = []
        events.append(Event(event_id, float(rng.choice([0.0, 2.5])), tuple(hits), particles))
        by_owner = {}
        for h in hits:
            by_owner.setdefault(h.truth_particle_id, []).append(h.hit_id)
        pool = [h.hit_id for h in hits] + [hit_ids.pop()]  # the last is in no event
        for _ in range(int(rng.integers(0, 8))):
            # mostly one particle's hits, some of them swapped; else any hits
            owner = (list(by_owner.values())[int(rng.integers(len(by_owner)))]
                     if hits and rng.random() < 0.7 else [])
            ids = [int(rng.choice(owner)) if owner and rng.random() < 0.75
                   else int(rng.choice(pool)) for _ in range(4)]
            if rng.random() < 0.2:
                ids[3] = ids[0]  # one hit named twice
            energy = (float(rng.choice([math.nan, math.inf, -math.inf]))
                      if rng.random() < 0.15 else edge_or_uniform())
            tracks.append(TrackRecord(event_id, len(tracks), tuple(ids), 1.0, 4, energy))
    order = rng.permutation(len(tracks)).tolist()
    return events, [tracks[k] for k in order]


@pytest.mark.parametrize("seed", range(300))
def test_report_equals_reference_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    events, tracks = random_run(rng)
    edges = EDGES if seed % 3 else None
    assert hexed(build_report(events, tracks, edges).to_dict()) == hexed(
        reference_report(events, tracks, edges))


def test_random_runs_cover_every_case():
    """The runs above hold each case the reference is compared on."""
    seen = Counter()
    for seed in range(300):
        events, tracks = random_run(np.random.default_rng(seed))
        hit_ids = {e.event_id: set(e.hits.ids.tolist()) for e in events}
        seen["noise"] += any((~e.hits.known).any() for e in events)
        seen["missing hit"] += any(set(t.hit_ids) - hit_ids[t.event_id] for t in tracks)
        seen["hit twice"] += any(len(set(t.hit_ids)) < 4 for t in tracks)
        seen["shared id"] += any(len(set(e.particles.ids.tolist())) < len(e.particles)
                                 for e in events)
        seen["shared hit id"] += any(len(set(e.hits.ids.tolist())) < len(e.hits)
                                     for e in events)
        seen["non-finite"] += any(not math.isfinite(t.energy) for t in tracks)
        seen["no hits"] += any(not len(e.hits) for e in events)
        seen["no tracks"] += any(e.event_id not in {t.event_id for t in tracks}
                                 for e in events)
        seen["two labels"] += len({e.xi_label for e in events}) > 1
        seen["on an edge"] += any(t.energy in EDGES for t in tracks) and any(
            set(e.particles.energies.tolist()) & set(EDGES) for e in events)
        report = reference_report(events, tracks)
        seen["matched"] += report["counts"]["matched"] > 0
        seen["combinatorial"] += report["counts"]["fake_combinatorial"] > 0
        seen["duplicate"] += bool(report["duplication_rate"])
    assert min(seen.values()) >= 10 and len(seen) == 13, seen


def test_errors_equal_reference():
    e = toy_event()
    lost = Event(1, 0.0, e.hits, tuple(e.particles)[1:])  # particle 0 owns hits, unlisted
    cases = [
        ([e], [TrackRecord(5, 0, (0, 1, 2, 3), 1.0, 4, 2.0)], None),  # unknown event
        ([lost], [TrackRecord(1, 0, (0, 1, 2, 3), 1.0, 4, 2.0)], None),
        ([lost], [], EDGES),
    ]
    for events, tracks, edges in cases:
        with pytest.raises(KeyError) as expected:
            reference_report(events, tracks, edges)
        with pytest.raises(KeyError) as got:
            build_report(events, tracks, edges)
        assert got.value.args == expected.value.args
    with pytest.raises(ValueError, match="listed twice"):
        build_report([e, e], [])


def test_desk_matches_equal_reference(desk_events, desk_config):
    """``reconstruct_event`` fills ``matched_particle_id`` by the reference's
    rule, and the desk report is the reference's bit for bit."""
    results, _ = reconstruct_events(desk_events, desk_config)
    tracks = [t for r in results for t in r.tracks]
    by_id = {e.event_id: truth_by_hit(e) for e in desk_events}
    assert [t.matched_particle_id for t in tracks] == [
        match_hits(t.hit_ids, by_id[t.event_id]) for t in tracks]
    assert any(t.matched_particle_id is None for t in tracks)
    assert hexed(build_report(desk_events, tracks, EDGES).to_dict()) == hexed(
        reference_report(desk_events, tracks, EDGES))
