import json
import math

import numpy as np
import pytest

from qubotrack.fastsim import SimConfig, generate_event
from qubotrack.geometry import (DetectorGeometry, Event, GeometryConfig,
                                GeometryError, Hit, TruthParticle,
                                build_geometry, shared_hits, validate_event,
                                windowed_key_pairs)
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


# -- windowed key join ------------------------------------------------------------

def windowed_oracle(left_key, lo, hi, right_key, right_value):
    """Every pair by the definition, value by value, as a sorted list."""
    return sorted((l, r) for l in range(len(left_key)) for r in range(len(right_key))
                  if left_key[l] == right_key[r] and math.isfinite(right_value[r])
                  and lo[l] <= right_value[r] <= hi[l])


def windowed_sorted(*args):
    l, r = windowed_key_pairs(*(np.asarray(a) for a in args))
    assert l.shape == r.shape and len(set(zip(l.tolist(), r.tolist()))) == len(l)
    return sorted(zip(l.tolist(), r.tolist()))


@pytest.mark.parametrize("seed", range(6))
def test_windowed_key_pairs_match_oracle(seed):
    """Random keys and values, with ties, infinite and reversed bounds,
    NaN values and bounds, and bounds equal to a value."""
    rng = np.random.default_rng(seed)
    n_left, n_right = rng.integers(0, 40, size=2)
    right_key = rng.integers(0, 6, n_right)
    right_value = rng.choice([-1.0, 0.0, 0.25, 0.5, 3.0, np.nan, np.inf],
                             n_right) if seed % 2 else rng.normal(0, 1, n_right)
    left_key = rng.integers(0, 7, n_left)
    centre = (rng.choice(right_value, n_left) if n_right and seed % 3
              else rng.normal(0, 1, n_left))
    width = rng.choice([0.0, 0.1, 0.5, np.inf, -0.2, np.nan], n_left)
    with np.errstate(invalid="ignore"):  # inf - inf
        lo, hi = centre - width, centre + width
    expected = windowed_oracle(left_key, lo, hi, right_key, right_value)
    assert windowed_sorted(left_key, lo, hi, right_key, right_value) == expected


def test_windowed_key_pairs_bounds_inclusive_and_within_key():
    right_key = np.array([0, 0, 0, 1, 1, 2])
    right_value = np.array([0.1, 0.2, 0.3, 0.2, 0.2, 0.2])
    # inclusive at both ends, to the last bit
    assert windowed_sorted([0], [0.2], [0.3], right_key, right_value) == [(0, 1), (0, 2)]
    assert windowed_sorted([0], [np.nextafter(0.2, 1)], [np.nextafter(0.3, 0)],
                           right_key, right_value) == []
    # infinite bounds take the whole key and nothing of its neighbours
    assert windowed_sorted([1, 3], [-np.inf] * 2, [np.inf] * 2,
                           right_key, right_value) == [(0, 3), (0, 4)]
    # tied values: every one of them
    assert windowed_sorted([1], [0.2], [0.2], right_key, right_value) == [(0, 3), (0, 4)]


def test_windowed_key_pairs_resolve_values_finer_than_the_placement():
    """Values 1 ulp apart under a key whose placement rounds them
    together are still told apart by the exact check."""
    v = 0.5
    right_value = np.array([v, np.nextafter(v, 1), np.nextafter(v, 0), 0.0])
    right_key = np.full(4, 2**40)
    got = windowed_sorted([2**40], [np.nextafter(v, 1)], [np.nextafter(v, 1)],
                          right_key, right_value)
    assert got == [(0, 1)]


def test_windowed_key_pairs_empty_and_rejects_unplaceable_keys():
    empty = np.empty(0)
    assert windowed_sorted(empty.astype(int), empty, empty, [0], [0.0]) == []
    assert windowed_sorted([0], [0.0], [1.0], empty.astype(int), empty) == []
    assert windowed_sorted([0], [0.0], [1.0], [0], [np.nan]) == []
    with pytest.raises(ValueError, match="too large"):
        windowed_key_pairs(np.array([2**53]), np.zeros(1), np.ones(1),
                           np.array([2**53]), np.zeros(1))
    with pytest.raises(ValueError, match="too large"):
        windowed_key_pairs(np.array([0]), np.zeros(1), np.ones(1),
                           np.array([0, 1]), np.array([-1e308, 1e308]))
