import math
import pickle

import numpy as np
import pytest

from qubotrack.fastsim import SimConfig, generate_event
from qubotrack.config import RunConfig
from qubotrack.geometry import (Event, GeometryConfig, GeometryError, Hit,
                                TruthParticle, build_geometry, shared_hits,
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


def test_build_geometry_returns_the_checked_config():
    c = GeometryConfig(first_layer_z=0.123456789123, hit_resolution=7.77e-6)
    assert build_geometry(c) is c


@pytest.mark.parametrize("first, spacing", [(1.0, 0.10), (0.123456789123, 0.0731),
                                            (-2.5, 1e-3)])
def test_layer_z_is_first_plus_k_spacing_bit_for_bit(first, spacing):
    g = build_geometry(GeometryConfig(first_layer_z=first, layer_spacing=spacing))
    assert g.layer_z == tuple(first + k * spacing for k in range(4))
    assert g.dipole_kick_z == g.ip_position[2] + 0.5 * g.dipole_length


def test_pickled_geometry_compares_equal():
    # a --jobs pool sends the geometry to its workers pickled, after the
    # parent has read layer_z
    g = build_geometry(GeometryConfig(first_layer_z=0.123456789123, hit_resolution=7.77e-6))
    g.layer_z
    g2 = pickle.loads(pickle.dumps(g))
    assert g2 == g and g2.layer_z == g.layer_z


def test_config_dict_holds_no_derived_geometry():
    geometry = RunConfig().to_dict()["geometry"]
    assert "layer_z" not in geometry and "dipole_kick_z" not in geometry


def test_direction_normalization_enforced():
    with pytest.raises(ValueError, match="normalized"):
        TruthParticle(particle_id=0, energy=1.0, origin=(0, 0, 0),
                      direction=(0.0, 0.0, 1.1))
    with pytest.raises(ValueError, match="positive"):
        TruthParticle(particle_id=0, energy=0.0, origin=(0, 0, 0),
                      direction=(0.0, 0.0, 1.0))


def test_generated_events_always_validate(geometry):
    # fuzz: every generated event satisfies the event invariants
    for seed in range(100):
        sim = SimConfig(mean_multiplicity=20, rng_seed=seed)
        event = generate_event(sim, geometry, event_id=seed)
        h = event.hits
        x, y, z = h.positions.T
        assert np.all((0 <= h.layers) & (h.layers < geometry.n_layers))
        assert np.array_equal(z, np.array(geometry.layer_z)[h.layers])  # on its plane
        assert np.all(np.abs(x) <= geometry.layer_half_extent_x)
        assert np.all(np.abs(y) <= geometry.layer_half_extent_y)
        assert len(np.unique(h.ids)) == len(h)
        assert h.known.all() and np.isin(h.truth, event.particles.ids).all()


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
