import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HitRow, column_values, event_of
from qubotrack.fastsim import (EnergySpectrum, SimConfig, SimulationError,
                               dipole_deflection, generate_event, scattering_sigma,
                               xi_to_multiplicity)
from qubotrack import fastsim
from qubotrack.geometry import GeometryConfig, build_geometry
from qubotrack.trackbuild import fit_track


# -- xi -> multiplicity --------------------------------------------------------

def test_multiplicity_anchor_points():
    assert xi_to_multiplicity(3.0) == pytest.approx(1e2, rel=1e-12)
    assert xi_to_multiplicity(5.0) == pytest.approx(1.05e4, rel=1e-12)
    assert xi_to_multiplicity(7.0) == pytest.approx(7e4, rel=1e-12)


def test_multiplicity_log_linear_between_anchors():
    # midpoint of a log-linear segment is the geometric mean of the anchors
    assert xi_to_multiplicity(4.0) == pytest.approx(math.sqrt(1e2 * 1.05e4), rel=1e-12)
    assert xi_to_multiplicity(4.0) == pytest.approx(1024.6950765959596, rel=1e-12)


def test_multiplicity_out_of_range():
    for xi in (2.9, 7.1):
        with pytest.raises(SimulationError, match="range"):
            xi_to_multiplicity(xi)


# -- dipole deflection ----------------------------------------------------------

def test_dipole_no_field_no_bend():
    assert dipole_deflection(10.0, 0.0, 1.0) == 0.0


def test_dipole_reference_value():
    # asin(0.2998 * 0.95 * 1.0 / 10), evaluated by hand
    assert dipole_deflection(10.0, 0.95, 1.0) == pytest.approx(
        0.028484851882468423, rel=1e-12)
    assert dipole_deflection(10.0, 0.95, 1.0) == pytest.approx(0.028484, abs=1e-6)


def test_dipole_small_angle_halves_with_doubled_energy():
    t1 = dipole_deflection(10.0, 0.95, 1.0)
    t2 = dipole_deflection(20.0, 0.95, 1.0)
    assert t1 / t2 == pytest.approx(2.0, rel=1e-3)


def test_dipole_monotone_in_energy():
    angles = [dipole_deflection(e, 0.95, 1.0) for e in (0.5, 1, 2, 5, 14)]
    assert all(b < a for a, b in zip(angles, angles[1:]))


def test_dipole_below_cutoff():
    with pytest.raises(SimulationError, match="cutoff"):
        dipole_deflection(0.2, 0.95, 1.0)  # kick 0.2848 GeV >= energy


# -- multiple scattering ---------------------------------------------------------

def scattering_kick(energy, thickness_x0, rng):
    """Independent Gaussian angle kicks (dtheta_x, dtheta_y) for one
    crossing, one ``Generator.normal`` call for both: the per-draw oracle's
    kick, which ``generate_event`` draws batched."""
    sigma = scattering_sigma(energy, thickness_x0)
    if sigma == 0.0:
        return 0.0, 0.0
    kx, ky = rng.normal(0.0, sigma, size=2)
    return float(kx), float(ky)


def test_scattering_zero_thickness():
    rng = np.random.default_rng(0)
    assert scattering_kick(1.0, 0.0, rng) == (0.0, 0.0)
    assert scattering_sigma(5.0, 0.0) == 0.0


def test_scattering_sigma_reference_value():
    # 13.6e-3 * sqrt(0.00357) * (1 + 0.038 ln 0.00357), evaluated by hand
    assert scattering_sigma(1.0, 0.00357) == pytest.approx(
        0.0006385865149672065, rel=1e-12)


def test_scattering_sample_std_matches_highland():
    rng = np.random.default_rng(42)
    draws = np.array([scattering_kick(1.0, 0.00357, rng) for _ in range(100_000)])
    sigma = scattering_sigma(1.0, 0.00357)
    assert draws[:, 0].std() == pytest.approx(sigma, rel=0.02)
    assert draws[:, 1].std() == pytest.approx(sigma, rel=0.02)


def test_scattering_scales_inversely_with_energy():
    assert scattering_sigma(2.0, 0.00357) == pytest.approx(
        scattering_sigma(1.0, 0.00357) / 2.0, rel=1e-12)


# -- event generation -------------------------------------------------------------

def test_zero_multiplicity(geometry):
    sim = SimConfig(mean_multiplicity=0.0, rng_seed=1)
    event = generate_event(sim, geometry, 0)
    assert len(event.particles) == len(event.hits) == 0


def test_same_seed_same_event(geometry):
    sim = SimConfig(mean_multiplicity=30, rng_seed=9)
    assert generate_event(sim, geometry, 3) == generate_event(sim, geometry, 3)


def test_different_events_differ(geometry):
    sim = SimConfig(mean_multiplicity=30, rng_seed=9)
    assert generate_event(sim, geometry, 0) != generate_event(sim, geometry, 1)


def test_at_most_one_hit_per_layer_per_particle(geometry):
    sim = SimConfig(mean_multiplicity=50, rng_seed=5)
    event = generate_event(sim, geometry, 0)
    seen = set()
    for h in event.hits:
        key = (h.truth_particle_id, h.layer)
        assert key not in seen
        seen.add(key)
    per_particle: dict = {}
    for h in event.hits:
        per_particle[h.truth_particle_id] = per_particle.get(h.truth_particle_id, 0) + 1
    assert all(v <= 4 for v in per_particle.values())


def test_noiseless_particle_hits_are_collinear(geometry):
    sim = SimConfig(mean_multiplicity=10, rng_seed=3, poisson_multiplicity=False,
                    ip_smear=(0.0, 0.0, 0.0), emittance_angle_sigma=0.0,
                    scattering=False, smear_hits=False)
    event = generate_event(sim, geometry, 0)
    by_pid: dict = {}
    for h in event.hits:
        by_pid.setdefault(h.truth_particle_id, []).append(h)
    checked = 0
    for hits in by_pid.values():
        if len(hits) < 4:
            continue
        positions = np.array([[h.position for h in hits]], dtype=float)
        fit = fit_track(positions, geometry)
        z = positions[0, :, 2]
        for coord, intercept, slope in ((0, fit.x0, fit.tx), (1, fit.y0, fit.ty)):
            v = positions[0, :, coord]
            assert np.abs(v - (intercept[0] + slope[0] * z)).max() < 1e-12
        checked += 1
    assert checked > 0


def test_energy_spectrum_sample_mean():
    # truncated-gamma mean from an independent quadrature oracle
    from scipy import integrate, stats
    spec = EnergySpectrum()
    dist = stats.gamma(spec.shape, scale=spec.scale)
    norm = dist.cdf(spec.maximum) - dist.cdf(spec.minimum)
    mean = integrate.quad(lambda x: x * dist.pdf(x), spec.minimum, spec.maximum)[0] / norm
    var = integrate.quad(lambda x: (x - mean) ** 2 * dist.pdf(x),
                         spec.minimum, spec.maximum)[0] / norm

    rng = np.random.default_rng(11)
    n = 20_000
    samples = np.array([spec.sample(rng) for _ in range(n)])
    assert samples.min() >= spec.minimum and samples.max() <= spec.maximum
    stderr = math.sqrt(var / n)
    assert abs(samples.mean() - mean) < 3 * stderr


def test_mean_hits_per_layer_matches_ray_trace_acceptance(geometry):
    """Hits per layer agree with an independent noiseless ray-trace oracle."""
    sim = SimConfig(mean_multiplicity=100, rng_seed=17)
    rng = np.random.default_rng(999)
    n_rays = 40_000
    acc = np.zeros(4)
    kick_z = geometry.dipole_kick_z
    for _ in range(n_rays):
        energy = sim.energy_spectrum.sample(rng)
        tx = math.tan(rng.normal(0, sim.emittance_angle_sigma)
                      + dipole_deflection(energy, geometry.dipole_field,
                                          geometry.dipole_length))
        ty = math.tan(rng.normal(0, sim.emittance_angle_sigma))
        for layer, z in enumerate(geometry.layer_z):
            x = tx * (z - kick_z)
            y = ty * (z - kick_z)
            if abs(x) <= geometry.layer_half_extent_x and abs(y) <= geometry.layer_half_extent_y:
                acc[layer] += 1
    acc /= n_rays

    n_events = 50
    counts = np.zeros(4)
    for event_id in range(n_events):
        for h in generate_event(sim, geometry, event_id).hits:
            counts[h.layer] += 1
    for layer in range(4):
        expected = n_events * sim.mean_multiplicity * acc[layer]
        assert abs(counts[layer] - expected) < 3 * math.sqrt(expected), (
            f"layer {layer}: {counts[layer]} vs {expected}")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_event_generation_is_pure(seed, geometry):
    sim = SimConfig(mean_multiplicity=5, rng_seed=seed)
    assert generate_event(sim, geometry, 1) == generate_event(sim, geometry, 1)


def per_draw_event(sim, geometry, event_id, rng):
    """The generator as it was with one ``Generator.normal`` call per value:
    the oracle the batched draws must replay."""
    if sim.poisson_multiplicity:
        n_particles = int(rng.poisson(sim.mean_multiplicity))
    else:
        n_particles = int(round(sim.mean_multiplicity))
    particles, hits, hit_id = [], [], 0
    kick_z = geometry.dipole_kick_z
    for pid in range(n_particles):
        ox = geometry.ip_position[0] + rng.normal(0.0, sim.ip_smear[0])
        oy = geometry.ip_position[1] + rng.normal(0.0, sim.ip_smear[1])
        oz = geometry.ip_position[2] + rng.normal(0.0, sim.ip_smear[2])
        energy = sim.energy_spectrum.sample(rng)
        theta_x0 = rng.normal(0.0, sim.emittance_angle_sigma)
        theta_y0 = rng.normal(0.0, sim.emittance_angle_sigma)
        tx0, ty0 = math.tan(theta_x0), math.tan(theta_y0)
        norm = math.sqrt(tx0 * tx0 + ty0 * ty0 + 1.0)
        particles.append((pid, energy, (ox, oy, oz), (tx0 / norm, ty0 / norm, 1.0 / norm)))
        x = ox + tx0 * (kick_z - oz)
        y = oy + ty0 * (kick_z - oz)
        theta_x = theta_x0 + dipole_deflection(energy, geometry.dipole_field,
                                               geometry.dipole_length)
        theta_y = theta_y0
        z = kick_z
        for layer, layer_z in enumerate(geometry.layer_z):
            dz = layer_z - z
            x += math.tan(theta_x) * dz
            y += math.tan(theta_y) * dz
            z = layer_z
            if abs(x) <= geometry.layer_half_extent_x and abs(y) <= geometry.layer_half_extent_y:
                if sim.smear_hits:
                    mx = x + rng.normal(0.0, geometry.hit_resolution)
                    my = y + rng.normal(0.0, geometry.hit_resolution)
                else:
                    mx, my = x, y
                if (abs(mx) <= geometry.layer_half_extent_x
                        and abs(my) <= geometry.layer_half_extent_y):
                    hits.append(HitRow(hit_id=hit_id, layer=layer, position=(mx, my, layer_z),
                                       truth_particle_id=pid))
                    hit_id += 1
                if sim.scattering:
                    kx, ky = scattering_kick(energy, geometry.layer_thickness_x0, rng)
                    theta_x += kx
                    theta_y += ky
    return event_of(event_id, hits, particles, sim.xi_label)


_DEFAULT = SimConfig(mean_multiplicity=100)


@pytest.mark.parametrize("sim, geometry_config", [
    (_DEFAULT, GeometryConfig()),
    (dataclasses.replace(_DEFAULT, smear_hits=False), GeometryConfig()),
    (dataclasses.replace(_DEFAULT, scattering=False), GeometryConfig()),
    (_DEFAULT, GeometryConfig(layer_thickness_x0=0.0)),
    (dataclasses.replace(_DEFAULT, ip_smear=(0.0, 0.0, 0.0), emittance_angle_sigma=0.0),
     GeometryConfig()),
    (dataclasses.replace(_DEFAULT, smear_hits=False, scattering=False), GeometryConfig()),
    (dataclasses.replace(_DEFAULT, mean_multiplicity=40.4, poisson_multiplicity=False),
     GeometryConfig()),
    (dataclasses.replace(_DEFAULT, energy_spectrum=EnergySpectrum(kind="uniform")),
     GeometryConfig()),
], ids=["default", "no-smear", "no-scattering", "zero-thickness", "zero-ip-and-emittance",
        "no-smear-no-scattering", "fixed-multiplicity", "uniform-energy"])
@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_batched_draws_replay_per_draw_loop(monkeypatch, sim, geometry_config, seed):
    """The same events, bit for bit (repr shows -0.0 and every digit), and
    the same generator state afterwards as one ``normal`` call per value."""
    sim = dataclasses.replace(sim, rng_seed=seed)
    geometry = build_geometry(geometry_config)
    for event_id in range(3):
        rng = fastsim.event_rng(sim, event_id)
        monkeypatch.setattr(fastsim, "event_rng", lambda *_: rng)
        event = generate_event(sim, geometry, event_id)
        monkeypatch.undo()
        reference_rng = fastsim.event_rng(sim, event_id)
        reference = per_draw_event(sim, geometry, event_id, reference_rng)
        assert event.event_id == reference.event_id and event.xi_label == reference.xi_label
        for table in ("particles", "hits"):
            assert repr(column_values(getattr(event, table))) == repr(column_values(
                getattr(reference, table)))
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert event.hits


def test_negative_highland_width_raises():
    """Below about 4e-12 X0 the Highland log term turns the width negative,
    which ``Generator.normal`` used to reject as a negative scale."""
    thin = build_geometry(GeometryConfig(layer_thickness_x0=1e-13))
    assert scattering_sigma(1.0, 1e-13) < 0
    with pytest.raises(SimulationError, match="negative scattering width"):
        generate_event(SimConfig(mean_multiplicity=5, rng_seed=1), thin, 0)
    # without scattering the width is never used
    generate_event(SimConfig(mean_multiplicity=5, rng_seed=1, scattering=False), thin, 0)
