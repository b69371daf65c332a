"""Toy event generation: positron sampling, dipole kick, straight-line
propagation with multiple scattering, and Gaussian hit smearing.

The generator is pure given (config, geometry, event_id): the per-event RNG
seed is ``rng_seed ^ event_id``, so events can be produced in any order or in
parallel with identical results.

Also here: :func:`xi_to_multiplicity`, the ``--xi`` presets' lookup from
an intensity label to the mean positron count of an event.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import Event, GeometryConfig, Hits, Particles, particle_fault

# momentum kick per field-length, GeV / (T m)
PT_KICK_PER_TESLA_METER = 0.2998

# multiplicity anchors: (intensity label xi, expected positrons per event)
_XI_MULTIPLICITY_ANCHORS = ((3.0, 1e2), (5.0, 1.05e4), (7.0, 7e4))


class SimulationError(ValueError):
    pass


def xi_to_multiplicity(xi: float) -> float:
    """Expected positron count for an intensity label, by log-linear interpolation.

    Anchors: (3, 1e2), (5, 1.05e4), (7, 7e4). Valid for 3 <= xi <= 7.
    """
    lo, hi = _XI_MULTIPLICITY_ANCHORS[0][0], _XI_MULTIPLICITY_ANCHORS[-1][0]
    if not lo <= xi <= hi:
        raise SimulationError(f"xi={xi} outside multiplicity lookup range [{lo}, {hi}]")
    for (x1, n1), (x2, n2) in zip(_XI_MULTIPLICITY_ANCHORS, _XI_MULTIPLICITY_ANCHORS[1:]):
        if xi <= x2:
            frac = (xi - x1) / (x2 - x1)
            return math.exp(math.log(n1) + frac * (math.log(n2) - math.log(n1)))
    raise AssertionError("unreachable")


def dipole_deflection(energy: float, field: float, length: float) -> float:
    """Bend angle of the dipole: theta = asin(0.2998 * B * L / E).

    ``energy`` in GeV, ``field`` in T, ``length`` in m. Monotonically
    decreasing in energy. Raises if the transverse kick reaches the particle
    energy (the particle would not exit the field region forward).
    """
    if energy <= 0:
        raise SimulationError(f"energy must be positive, got {energy}")
    kick = PT_KICK_PER_TESLA_METER * field * length
    if kick >= energy:
        raise SimulationError(
            f"energy {energy} GeV below magnetic cutoff {kick} GeV"
        )
    return math.asin(kick / energy)


def scattering_sigma(energy: float, thickness_x0: float) -> float:
    """Highland angular width for one layer crossing.

    sigma = (13.6e-3 / E[GeV]) * sqrt(t) * (1 + 0.038 ln t), t in radiation
    lengths. Returns 0 for t = 0.
    """
    if thickness_x0 < 0:
        raise SimulationError("thickness_x0 must be non-negative")
    if thickness_x0 == 0.0:
        return 0.0
    t = thickness_x0
    return 13.6e-3 / energy * math.sqrt(t) * (1.0 + 0.038 * math.log(t))


@dataclass(frozen=True)
class EnergySpectrum:
    """Named parametric positron energy distribution, GeV.

    Kinds: ``gamma`` (shape/scale, truncated to [minimum, maximum] by
    rejection), ``uniform`` (minimum..maximum), ``fixed`` (always
    ``fixed_value``).
    """

    kind: str = "gamma"
    shape: float = 3.0
    scale: float = 1.3
    minimum: float = 0.5
    maximum: float = 14.0
    fixed_value: float = 5.0

    def __post_init__(self):
        if self.kind not in ("gamma", "uniform", "fixed"):
            raise SimulationError(f"unknown energy spectrum kind {self.kind!r}")
        # written as "not 0 < x < inf" so that NaN fails too
        for name in ("shape", "scale", "fixed_value"):
            if not 0 < getattr(self, name) < math.inf:
                raise SimulationError(f"energy spectrum {name} must be finite and positive")
        if not 0 < self.minimum <= self.maximum < math.inf:
            raise SimulationError("energy spectrum needs 0 < minimum <= maximum < inf, got "
                                  f"{self.minimum!r} and {self.maximum!r}")

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "fixed":
            return self.fixed_value
        if self.kind == "uniform":
            return float(rng.uniform(self.minimum, self.maximum))
        for _ in range(10000):  # gamma
            e = float(rng.gamma(self.shape, self.scale))
            if self.minimum <= e <= self.maximum:
                return e
        raise SimulationError("energy spectrum rejection sampling did not converge")


@dataclass(frozen=True)
class SimConfig:
    mean_multiplicity: float = 100.0
    energy_spectrum: EnergySpectrum = field(default_factory=EnergySpectrum)
    ip_smear: tuple[float, float, float] = (5e-6, 5e-6, 24e-6)  # m
    emittance_angle_sigma: float = 1e-4  # rad, Gaussian spread per axis
    rng_seed: int = 1
    poisson_multiplicity: bool = True   # False: exactly round(mean) particles
    scattering: bool = True
    smear_hits: bool = True
    xi_label: float = 0.0

    def __post_init__(self):
        # written as "not 0 <= x < inf" so that NaN fails too
        if not 0 <= self.mean_multiplicity < math.inf:
            raise SimulationError("mean_multiplicity must be finite and non-negative")
        if not all(0 <= s < math.inf for s in self.ip_smear):
            raise SimulationError("ip_smear sigmas must be finite and non-negative")
        if not 0 <= self.emittance_angle_sigma < math.inf:
            raise SimulationError("emittance_angle_sigma must be finite and non-negative")
        if isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, numbers.Integral):
            raise SimulationError(f"rng_seed must be an integer, got {self.rng_seed!r}")
        if self.rng_seed < 0:
            raise SimulationError(f"rng_seed must be >= 0, got {self.rng_seed}")


def event_rng(sim: SimConfig, event_id: int) -> np.random.Generator:
    return np.random.default_rng(sim.rng_seed ^ event_id)


def generate_event(sim: SimConfig, geometry: GeometryConfig, event_id: int) -> Event:
    """Generate one event.

    Each positron starts at a smeared IP origin with a small Gaussian angular
    spread, receives the dipole kick in +x at the magnet centre, then
    propagates in straight segments through the layers. Multiple scattering
    tilts the direction at every crossed layer; the recorded hit is the true
    crossing point smeared in-plane by ``hit_resolution``. Crossings outside
    the layer extents produce no hit.

    Draw order, per particle: three standard normals for the IP smear
    (x, y, z), the energy, two for the emittance angles (x, y), then one
    ``standard_normal(k)`` call per crossed layer: smear x and y if
    ``smear_hits``, then kick x and y if ``scattering`` and the particle's
    Highland width is not zero. Each normal is scaled as ``0.0 + sigma * z``,
    the arithmetic of ``Generator.normal``, so the events and the
    generator's state afterwards equal one ``normal`` call per value.
    """
    rng = event_rng(sim, event_id)
    if sim.poisson_multiplicity:
        n_particles = int(rng.poisson(sim.mean_multiplicity))
    else:
        n_particles = int(round(sim.mean_multiplicity))

    # the columns, ids being row numbers; vectors laid flat, x, y, z
    energies: list[float] = []
    origins: list[float] = []
    directions: list[float] = []
    layers: list[int] = []
    positions: list[float] = []
    truth: list[int] = []
    kick_z = geometry.dipole_kick_z
    resolution = geometry.hit_resolution
    half_x, half_y = geometry.layer_half_extent_x, geometry.layer_half_extent_y
    for pid in range(n_particles):
        sx, sy, sz = rng.standard_normal(3).tolist()
        ox = geometry.ip_position[0] + (0.0 + sim.ip_smear[0] * sx)
        oy = geometry.ip_position[1] + (0.0 + sim.ip_smear[1] * sy)
        oz = geometry.ip_position[2] + (0.0 + sim.ip_smear[2] * sz)
        energy = sim.energy_spectrum.sample(rng)
        ex, ey = rng.standard_normal(2).tolist()
        theta_x0 = 0.0 + sim.emittance_angle_sigma * ex
        theta_y0 = 0.0 + sim.emittance_angle_sigma * ey

        tx0, ty0 = math.tan(theta_x0), math.tan(theta_y0)
        norm = math.sqrt(tx0 * tx0 + ty0 * ty0 + 1.0)
        energies.append(energy)
        origins += ox, oy, oz
        directions += tx0 / norm, ty0 / norm, 1.0 / norm

        # the same Highland width at every crossing; a zero width draws no kick
        sigma = (scattering_sigma(energy, geometry.layer_thickness_x0)
                 if sim.scattering else 0.0)
        if sigma < 0.0:
            raise SimulationError(
                f"negative scattering width {sigma} at thickness "
                f"{geometry.layer_thickness_x0} X0 (Highland's log term)")
        kicks = sigma != 0.0
        n_draws = (2 if sim.smear_hits else 0) + (2 if kicks else 0)

        # straight to the magnet centre, then a single thin-lens kick in +x
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
            if abs(x) <= half_x and abs(y) <= half_y:
                # smear x, y first, kick x, y last
                draws = rng.standard_normal(n_draws).tolist()
                if sim.smear_hits:
                    mx = x + (0.0 + resolution * draws[0])
                    my = y + (0.0 + resolution * draws[1])
                else:
                    mx, my = x, y
                if abs(mx) <= half_x and abs(my) <= half_y:
                    layers.append(layer)
                    positions += mx, my, layer_z
                    truth.append(pid)
                if kicks:
                    theta_x += 0.0 + sigma * draws[-2]
                    theta_y += 0.0 + sigma * draws[-1]

    origins, directions, positions = (np.array(v, dtype=float).reshape(-1, 3)
                                      for v in (origins, directions, positions))
    fault = particle_fault(energies, directions)
    if fault is not None:
        raise SimulationError(f"event {event_id} particle {fault[0]}: {fault[1]}")
    hits = Hits(np.arange(len(truth)), np.array(layers, dtype=np.int64), positions,
                np.array(truth, dtype=np.int64), np.ones(len(truth), dtype=bool))
    particles = Particles(np.arange(n_particles), np.array(energies, dtype=float),
                          origins, directions)
    return Event(event_id=event_id, xi_label=sim.xi_label, hits=hits, particles=particles)
