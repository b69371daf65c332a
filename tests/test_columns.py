"""Events are columns from simulation and file to metrics: no stage of the
chain builds a ``Hit`` or ``TruthParticle``, and the views that are built
on demand show exactly what the columns hold."""

import metrics_reference
import numpy as np
import pytest

from qubotrack import geometry, metrics, pipeline
from qubotrack.config import RunConfig
from qubotrack.geometry import Event, Hit, Hits, Particles, TruthParticle, build_geometry
from qubotrack.io import read_events, write_hits_csv, write_particles_csv
from qubotrack.preselect import build_doublets, build_triplets


def config(multiplicity=40.0, seed=2024):
    d = RunConfig().to_dict()
    d["sim"]["mean_multiplicity"] = multiplicity
    return RunConfig.from_dict(d).with_seed(seed)


def test_chain_builds_no_view(tmp_path, monkeypatch):
    """simulate -> write -> read -> calibrate -> reconstruct -> report with
    the views unconstructible: every stage reads the columns."""
    def unbuildable(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built")

    monkeypatch.setattr(geometry.Hit, "__init__", unbuildable)
    monkeypatch.setattr(geometry.TruthParticle, "__init__", unbuildable)
    cfg = config()
    events = pipeline.simulate_events(cfg, 3)
    write_hits_csv(tmp_path / "hits.csv", events)
    write_particles_csv(tmp_path / "particles.csv", events)
    events = read_events(tmp_path / "hits.csv", tmp_path / "particles.csv")
    geo = build_geometry(cfg.geometry)
    window, scaling, _ = pipeline.calibrate(events, cfg)
    tracks = [t for e in events
              for t in pipeline.reconstruct_event(e, geo, window, scaling, cfg).tracks]
    report = metrics.build_report(events, tracks, edges=[0.0, 5.0, 16.0])
    assert tracks and report.efficiency > 0.5
    with pytest.raises(AssertionError, match="a Hit was built"):
        list(events[0].hits)


def noisy_event(tmp_path):
    """A simulated event with every fourth hit's truth link removed, read
    back from file so the noise comes through the reader."""
    event = pipeline.simulate_events(config(), 1)[0]
    h = event.hits
    known = np.arange(len(h)) % 4 != 0
    noisy = Event(event.event_id, 0.0, Hits(h.ids, h.layers, h.positions,
                                              np.where(known, h.truth, 0), known),
                  event.particles)
    write_hits_csv(tmp_path / "hits.csv", [noisy])
    write_particles_csv(tmp_path / "particles.csv", [noisy])
    back, = read_events(tmp_path / "hits.csv", tmp_path / "particles.csv")
    assert back.hits.known.tolist() == known.tolist()
    return back


def truth_or_none(hits: Hits, rows) -> list:
    return [int(p) if k else None for p, k in zip(hits.truth[rows], hits.known[rows])]


def test_views_equal_columns(tmp_path, geometry):
    """What perfbench and the tests read through the views: hits with id,
    layer, position and truth id, doublets' inner hit truth ids, triplets'
    common truth id."""
    event = noisy_event(tmp_path)
    h = event.hits
    assert [(v.hit_id, v.layer, v.position, v.truth_particle_id) for v in h] == list(zip(
        h.ids.tolist(), h.layers.tolist(), map(tuple, h.positions.tolist()),
        truth_or_none(h, slice(None))))
    assert h[-1] == list(h)[-1] and h == tuple(h) and Hits.of(tuple(h)) == h
    p = event.particles
    assert [(v.particle_id, v.energy, v.origin, v.direction) for v in p] == list(zip(
        p.ids.tolist(), p.energies.tolist(), map(tuple, p.origins.tolist()),
        map(tuple, p.directions.tolist())))
    assert Particles.of(tuple(p)) == p

    window = pipeline.calibrate([event], config())[0]
    doublets = build_doublets(h, geometry, window)
    assert [d.hit_inner.truth_particle_id for d in doublets] == truth_or_none(h, doublets.inner)
    assert [d.hit_outer.hit_id for d in doublets] == h.ids[doublets.outer].tolist()
    triplets = build_triplets(doublets, window)
    pid, common = triplets.truth_particle_ids()
    assert len(triplets) and not common.all() and common.any()
    assert [t.truth_particle_id() for t in triplets] == [
        int(q) if c else None for q, c in zip(pid, common)]


def test_event_of_views_equals_event_of_columns():
    hits = (Hit(4, 1, (0.5, -0.0, 1.1), 2), Hit(1, 0, (0.25, 1e-300, 1.0)))
    particles = (TruthParticle(2, 3.5, (0.0, 0.0, 0.0), (0.0, 0.6, 0.8)),)
    event = Event(7, 0.0, hits, particles)
    assert event.hits == hits and event.particles == particles
    assert event.hits.known.tolist() == [True, False] and event.hits.truth.tolist() == [2, 0]
    assert event == Event(7, 0.0, event.hits, event.particles)
    assert repr(event) == ("Event(event_id=7, xi_label=0.0, hits=" + repr(hits)
                           + ", particles=" + repr(particles) + ")")


def test_metrics_columns_match_per_hit_loops(tmp_path):
    """The reference's truth tables against per-hit loops over the views,
    and the columnar report against the reference, on an event with noise
    and particles listed twice."""
    event = noisy_event(tmp_path)
    p = event.particles
    doubled = Event(event.event_id, 0.0, event.hits, Particles(
        np.r_[p.ids, p.ids[:5]], np.r_[p.energies, p.energies[:5] + 1.0],
        np.r_[p.origins, p.origins[:5]], np.r_[p.directions, p.directions[:5]]))
    layers_by_pid = {}
    for h in doubled.hits:
        if h.truth_particle_id is not None:
            layers_by_pid.setdefault(h.truth_particle_id, set()).add(h.layer)
    for n_layers in (3, 4):
        assert metrics_reference.reconstructable_particles(doubled, n_layers) == sorted(
            pid for pid, layers in layers_by_pid.items() if len(layers) == n_layers)
    assert metrics_reference.truth_by_hit(doubled) == {h.hit_id: h.truth_particle_id
                                                       for h in doubled.hits}
    assert metrics_reference.true_energies(doubled) == {v.particle_id: v.energy
                                                        for v in reversed(doubled.particles)}
    h = doubled.hits
    rows = np.stack([h.ids[np.argsort(h.layers == k, kind="stable")[::-1][:12]]
                     for k in range(4)], axis=1)  # hits of every layer, noise among them
    rows = np.r_[rows, np.stack([rows[:, 0], rows[:, 1], np.roll(rows[:, 2], 1),
                                 np.roll(rows[:, 3], 2)], axis=1)]  # and fakes
    tracks = [metrics.TrackRecord(doubled.event_id, k, tuple(ids), 1.0, 4, 2.0 + k)
              for k, ids in enumerate(rows.tolist())]
    edges = [0.0, 3.0, 8.0, 16.0]
    assert metrics_reference.hexed(metrics.build_report([doubled], tracks, edges).to_dict()) \
        == metrics_reference.hexed(metrics_reference.reference_report([doubled], tracks, edges))
