import json

import numpy as np
import pytest

from qubotrack.fastsim import SimConfig, generate_event
from qubotrack.geometry import (DetectorGeometry, Event, GeometryConfig,
                                GeometryError, Hit, TruthParticle,
                                build_geometry, shared_hits, validate_event)
from qubotrack.preselect import (PreselectionWindow, build_doublets,
                                 build_triplets, calibrate_dx_window,
                                 truth_doublets)
from qubotrack.trackbuild import triplets_to_candidates


def test_default_geometry_matches_documented_values():
    g = build_geometry()
    assert g.layer_z == (1.0, 1.1, 1.2, 1.3)
    assert g.layer_z[1] - g.layer_z[0] == pytest.approx(0.10)
    assert g.hit_resolution == 5e-6
    assert g.layer_thickness_x0 == 0.357e-2
    assert g.dipole_field == 0.95


def test_three_layer_config_rejected():
    with pytest.raises(GeometryError, match="4 layers"):
        build_geometry(GeometryConfig(n_layers=3))


def test_nonpositive_spacing_rejected():
    with pytest.raises(GeometryError):
        build_geometry(GeometryConfig(layer_spacing=-0.1))
    with pytest.raises(GeometryError):
        build_geometry(GeometryConfig(hit_resolution=0.0))


def test_geometry_serialization_round_trip_is_bit_exact():
    g = build_geometry(GeometryConfig(first_layer_z=0.123456789123,
                                      hit_resolution=7.77e-6))
    payload = json.dumps(g.to_dict())
    g2 = DetectorGeometry.from_dict(json.loads(payload))
    assert g2 == g


def test_direction_normalization_enforced():
    with pytest.raises(ValueError, match="normalized"):
        TruthParticle(particle_id=0, energy=1.0, origin=(0, 0, 0),
                      direction=(0.0, 0.0, 1.1))
    with pytest.raises(ValueError, match="positive"):
        TruthParticle(particle_id=0, energy=0.0, origin=(0, 0, 0),
                      direction=(0.0, 0.0, 1.0))


def test_validate_empty_event(geometry):
    event = Event(event_id=0, xi_label=0.0, hits=(), particles=())
    assert validate_event(event, geometry) == []


def test_validate_flags_off_layer_hit(geometry):
    event = Event(event_id=0, xi_label=0.0, particles=(), hits=(
        Hit(hit_id=0, layer=0, position=(0.0, 0.0, 1.05)),
    ))
    diags = validate_event(event, geometry)
    assert len(diags) == 1 and "off-layer hit" in diags[0]


def test_validate_flags_dangling_truth_link(geometry):
    event = Event(event_id=0, xi_label=0.0, particles=(), hits=(
        Hit(hit_id=0, layer=0, position=(0.0, 0.0, 1.0), truth_particle_id=5),
    ))
    diags = validate_event(event, geometry)
    assert len(diags) == 1 and "dangling truth link" in diags[0]


def test_validate_flags_duplicate_ids_and_extents(geometry):
    event = Event(event_id=0, xi_label=0.0, particles=(), hits=(
        Hit(hit_id=0, layer=0, position=(0.0, 0.0, 1.0)),
        Hit(hit_id=0, layer=1, position=(0.5, 0.0, 1.1)),
    ))
    diags = validate_event(event, geometry)
    assert any("duplicate hit id" in d for d in diags)
    assert any("outside layer extents" in d for d in diags)


def test_generated_events_always_validate(geometry):
    # fuzz: every generated event satisfies the event invariants
    for seed in range(100):
        sim = SimConfig(mean_multiplicity=20, rng_seed=seed)
        event = generate_event(sim, geometry, event_id=seed)
        assert validate_event(event, geometry) == []


# -- hit overlap -------------------------------------------------------------------

def shared_hits_oracle(hit_sets):
    """Pairwise definition: every pair with a nonempty set intersection."""
    out = {}
    for i, a in enumerate(hit_sets):
        for j in range(i + 1, len(hit_sets)):
            n = len(set(a) & set(hit_sets[j]))
            if n:
                out[(i, j)] = n
    return out


def shared_hits_dict(rows):
    """:func:`shared_hits` as ``{(i, j): n}`` in its order."""
    i, j, n = shared_hits(rows)
    return dict(zip(zip(i.tolist(), j.tolist()), n.tolist()))


@pytest.fixture(scope="module")
def dense_hit_sets(geometry):
    sim = SimConfig(mean_multiplicity=150, rng_seed=2024)
    event = generate_event(sim, geometry, 0)
    mean, sigma = calibrate_dx_window([truth_doublets(event)])
    w = PreselectionWindow.from_calibration(mean, sigma)
    triplets = build_triplets(build_doublets(event.hits, geometry, w), w)
    return {"triplets": triplets.hit_ids().tolist(),
            "candidates": triplets.doublets.hit_ids[
                triplets_to_candidates(triplets)].tolist()}


@pytest.mark.parametrize("items", ["triplets", "candidates"])
def test_shared_hits_match_pairwise_oracle(dense_hit_sets, items):
    hit_sets = dense_hit_sets[items]
    expected = shared_hits_oracle(hit_sets)
    got = shared_hits_dict(hit_sets)
    assert len(expected) > 100
    assert got == expected
    assert list(got) == sorted(got)
    assert set(got.values()) >= {1, 2}


def test_shared_hits_counts_a_repeated_id_once():
    got = shared_hits_dict([(1, 2, 2, 3), (2, 3, 3, 3), (4, 4, 4, 4), (4, 4, 4, 4),
                            (5, 1, 1, 1)])
    assert got == {(0, 1): 2, (0, 4): 1, (2, 3): 1}
    assert list(got) == [(0, 1), (0, 4), (2, 3)]
    assert shared_hits_dict(np.empty((0, 3), dtype=np.int64)) == {}
