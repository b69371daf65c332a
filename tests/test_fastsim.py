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
    crossing, one ``Generator.normal`` call for both."""
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
    samples = spec.sample(rng, n)
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
        energy = float(sim.energy_spectrum.sample(rng, 1)[0])
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


def reference_energies(spectrum, rng, n):
    """The energies with one scalar ``Generator`` call per value: all n
    first, then the out-of-range ones again in row order, round by round."""
    if spectrum.kind == "fixed":
        return [spectrum.fixed_value] * n
    if spectrum.kind == "uniform":
        return [float(rng.uniform(spectrum.minimum, spectrum.maximum)) for _ in range(n)]
    energies, redraw = [0.0] * n, list(range(n))
    while redraw:
        for i in redraw:
            energies[i] = float(rng.gamma(spectrum.shape, spectrum.scale))
        redraw = [i for i in redraw if not spectrum.minimum <= energies[i] <= spectrum.maximum]
    return energies


def particle_reference(sim, geometry, event_id, rng):
    """The generator particle by particle: the draws of ``generate_event``
    in its order (multiplicity, IP smear, energies, emittance, then every
    crossing's normals, smear before kick), each normal scaled as
    ``Generator.normal`` scales it, and every value computed with scalar
    ``math``: the oracle the array code must replay."""
    if sim.poisson_multiplicity:
        n_particles = int(rng.poisson(sim.mean_multiplicity))
    else:
        n_particles = int(round(sim.mean_multiplicity))
    smear = rng.standard_normal((n_particles, 3)).tolist()
    energies = reference_energies(sim.energy_spectrum, rng, n_particles)
    emittance = rng.standard_normal((n_particles, 2)).tolist()
    kicks = sim.scattering and geometry.layer_thickness_x0 != 0.0
    crossings = rng.standard_normal(
        (n_particles, len(geometry.layer_z), 2 * sim.smear_hits + 2 * kicks)).tolist()
    particles, hits = [], []
    kick_z = geometry.dipole_kick_z
    half_x, half_y = geometry.layer_half_extent_x, geometry.layer_half_extent_y
    for pid in range(n_particles):
        ox, oy, oz = (p + (0.0 + s * z)
                      for p, s, z in zip(geometry.ip_position, sim.ip_smear, smear[pid]))
        energy = energies[pid]
        theta_x0, theta_y0 = (0.0 + sim.emittance_angle_sigma * z for z in emittance[pid])
        tx0, ty0 = math.tan(theta_x0), math.tan(theta_y0)
        norm = math.sqrt(tx0 * tx0 + ty0 * ty0 + 1.0)
        particles.append((pid, energy, (ox, oy, oz), (tx0 / norm, ty0 / norm, 1.0 / norm)))
        sigma = scattering_sigma(energy, geometry.layer_thickness_x0) if kicks else 0.0
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
            if not (abs(x) <= half_x and abs(y) <= half_y):
                continue  # outside: no hit and no kick
            draws = crossings[pid][layer]
            if sim.smear_hits:
                mx = x + (0.0 + geometry.hit_resolution * draws[0])
                my = y + (0.0 + geometry.hit_resolution * draws[1])
            else:
                mx, my = x, y
            if abs(mx) <= half_x and abs(my) <= half_y:
                hits.append(HitRow(hit_id=len(hits), layer=layer, position=(mx, my, layer_z),
                                   truth_particle_id=pid))
            if kicks:
                theta_x += 0.0 + sigma * draws[-2]
                theta_y += 0.0 + sigma * draws[-1]
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
    (dataclasses.replace(_DEFAULT, energy_spectrum=EnergySpectrum(minimum=4.0, maximum=4.5)),
     GeometryConfig()),
], ids=["default", "no-smear", "no-scattering", "zero-thickness", "zero-ip-and-emittance",
        "no-smear-no-scattering", "fixed-multiplicity", "uniform-energy",
        "narrow-energy-window"])
@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_batched_draws_replay_per_draw_loop(monkeypatch, sim, geometry_config, seed):
    """The same events, bit for bit (repr shows -0.0 and every digit), and
    the same generator state afterwards as the particle-by-particle
    reference."""
    sim = dataclasses.replace(sim, rng_seed=seed)
    geometry = build_geometry(geometry_config)
    for event_id in range(3):
        rng = fastsim.event_rng(sim, event_id)
        monkeypatch.setattr(fastsim, "event_rng", lambda *_: rng)
        event = generate_event(sim, geometry, event_id)
        monkeypatch.undo()
        reference_rng = fastsim.event_rng(sim, event_id)
        reference = particle_reference(sim, geometry, event_id, reference_rng)
        assert event.event_id == reference.event_id and event.xi_label == reference.xi_label
        for table in ("particles", "hits"):
            assert repr(column_values(getattr(event, table))) == repr(column_values(
                getattr(reference, table)))
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert event.hits


def test_distinct_seeds_share_no_event():
    """Under ``rng_seed ^ event_id`` seeds 0 and 2 simulated the same four
    events in another order; with a stream per (seed, event) no two of
    these 16 events are alike."""
    from qubotrack.config import RunConfig
    from qubotrack.pipeline import simulate_events
    energies = [tuple(event.particles.energies.tolist())
                for seed in range(4) for event in simulate_events(RunConfig().with_seed(seed), 4)]
    assert len(set(energies)) == len(energies) == 16


def test_solver_seed_is_not_the_event_stream():
    """``with_seed`` gives the solver and the simulation the same seed; the
    solver's generator still draws other numbers than the event's, and
    under ``seed ^ event_id`` seeds 0 and 2 would share solver seeds."""
    from qubotrack.pipeline import solver_seed
    for event_id in (0, 1, 5, -1, -(2 ** 63), 2 ** 63 - 1):
        seed = solver_seed(7, event_id)
        assert 0 <= seed < 2 ** 64
        simulated = fastsim.event_rng(SimConfig(rng_seed=7), event_id).random(4)
        assert not np.array_equal(np.random.default_rng(seed).random(4), simulated)
    assert len({solver_seed(seed, e) for seed in range(4) for e in range(4)}) == 16


def test_any_int64_event_id_is_taken(geometry):
    sim = SimConfig(mean_multiplicity=20, rng_seed=3)
    for event_id in (-1, -(2 ** 63), 2 ** 63 - 1):
        event = generate_event(sim, geometry, event_id)
        assert event.event_id == event_id and event.hits
    assert generate_event(sim, geometry, -1).hits != generate_event(sim, geometry, 1).hits


def test_outside_crossing_records_no_hit_and_takes_no_kick():
    """A particle that starts beyond the -x edge and is bent into the
    planes: no hit on layer 0, where it is outside, and no kick there, so
    at layer 1 it sits on the unkicked straight line (y exactly 0); the
    kick it takes inside at layer 1 moves y off 0 at layer 2."""
    geometry = build_geometry(GeometryConfig(ip_position=(-0.3, 0.0, 0.0)))
    sim = SimConfig(mean_multiplicity=1, poisson_multiplicity=False, ip_smear=(0.0, 0.0, 0.0),
                    emittance_angle_sigma=0.0, smear_hits=False, rng_seed=5,
                    energy_spectrum=EnergySpectrum(kind="fixed", fixed_value=5.0))
    event = generate_event(sim, geometry, 0)
    slope = math.tan(dipole_deflection(5.0, geometry.dipole_field, geometry.dipole_length))
    kick_z, (z0, z1, _, _) = geometry.dipole_kick_z, geometry.layer_z
    x0 = -0.3 + slope * (z0 - kick_z)
    assert abs(x0) > geometry.layer_half_extent_x
    assert event.hits.layers.tolist() == [1, 2, 3]
    assert event.hits.positions[0].tolist() == [x0 + slope * (z1 - z0), 0.0, z1]
    assert event.hits.positions[1, 1] != 0.0


def test_unreachable_energy_window_raises(geometry):
    sim = SimConfig(mean_multiplicity=5, rng_seed=1,
                    energy_spectrum=EnergySpectrum(minimum=1000.0, maximum=1001.0))
    with pytest.raises(SimulationError, match="did not converge"):
        generate_event(sim, geometry, 0)


def test_negative_highland_width_raises():
    """Below about 4e-12 X0 the Highland log term turns the width negative,
    which ``Generator.normal`` used to reject as a negative scale."""
    thin = build_geometry(GeometryConfig(layer_thickness_x0=1e-13))
    assert scattering_sigma(1.0, 1e-13) < 0
    with pytest.raises(SimulationError, match="negative scattering width"):
        generate_event(SimConfig(mean_multiplicity=5, rng_seed=1), thin, 0)
    # without scattering the width is never used
    generate_event(SimConfig(mean_multiplicity=5, rng_seed=1, scattering=False), thin, 0)
