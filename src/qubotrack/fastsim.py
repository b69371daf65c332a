"""Toy event generation: positron sampling, dipole kick, straight-line
propagation with multiple scattering, and Gaussian hit smearing.

The generator is pure given (config, geometry, event_id): each event draws
from its own stream, ``SeedSequence((rng_seed, event_id))``
(:func:`event_rng`), so events can be produced in any order or in parallel
with identical results, and two seeds share no event. An event's particles
are drawn as arrays and moved through the layers together; the draw order
is set out in :func:`generate_event`. Every transcendental value (tan,
asin, the Highland log) comes from ``math``, one value at a time, so the
events do not depend on NumPy's SIMD dispatch; the plain arithmetic and the
square roots are NumPy's, which round exactly.

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


def dipole_deflection(energy, field: float, length: float):
    """Bend angle of the dipole: theta = asin(0.2998 * B * L / E).

    ``energy`` in GeV, ``field`` in T, ``length`` in m: a float, or an array
    of energies, whose angles come from ``math.asin`` element by element.
    Monotonically decreasing in energy. Raises if an energy is not positive,
    or if the transverse kick reaches it (the particle would not exit the
    field region forward); the message names the first such energy.
    """
    e = np.asarray(energy, dtype=float)
    kick = PT_KICK_PER_TESLA_METER * field * length
    if (e <= 0).any():
        raise SimulationError(f"energy must be positive, got {float(e[e <= 0].flat[0])}")
    if (kick >= e).any():
        raise SimulationError(f"energy {float(e[kick >= e].flat[0])} GeV below "
                              f"magnetic cutoff {kick} GeV")
    if e.ndim == 0:
        return math.asin(kick / energy)
    return _by_math(math.asin, kick / e)


def scattering_sigma(energy, thickness_x0: float):
    """Highland angular width for one layer crossing.

    sigma = (13.6e-3 / E[GeV]) * sqrt(t) * (1 + 0.038 ln t), t in radiation
    lengths; ``energy`` a float or an array of energies (the square root
    and the log are of t alone, from ``math``). Returns 0 for t = 0.
    """
    if thickness_x0 < 0:
        raise SimulationError("thickness_x0 must be non-negative")
    if thickness_x0 == 0.0:
        return 0.0
    t = thickness_x0
    return 13.6e-3 / energy * math.sqrt(t) * (1.0 + 0.038 * math.log(t))


def _by_math(f, values: np.ndarray) -> np.ndarray:
    """``f`` from ``math`` applied element by element, so that the values do
    not depend on which SIMD loop NumPy dispatches to."""
    return np.array(list(map(f, values.ravel().tolist())), dtype=float).reshape(values.shape)


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

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` energies. ``gamma`` draws all n with one call, then redraws
        the ones outside [minimum, maximum] with one call of their count, in
        row order, until none is left: at most 10 000 rounds, after which
        :class:`SimulationError` is raised. ``uniform`` is one call of n;
        ``fixed`` draws nothing."""
        if self.kind == "fixed":
            return np.full(n, self.fixed_value)
        if self.kind == "uniform":
            return rng.uniform(self.minimum, self.maximum, n)
        energies, redraw = np.empty(n), np.arange(n)
        for _ in range(10000):
            energies[redraw] = e = rng.gamma(self.shape, self.scale, len(redraw))
            redraw = redraw[~((self.minimum <= e) & (e <= self.maximum))]
            if not len(redraw):
                return energies
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
    """The event's generator, seeded by ``SeedSequence((rng_seed, event_id
    mod 2^64))``: every (seed, event) pair has a stream of its own, and any
    int64 event id is taken."""
    return np.random.default_rng(np.random.SeedSequence((sim.rng_seed, event_id % 2 ** 64)))


def generate_event(sim: SimConfig, geometry: GeometryConfig, event_id: int) -> Event:
    """Generate one event.

    Each positron starts at a smeared IP origin with a small Gaussian angular
    spread, receives the dipole kick in +x at the magnet centre, then
    propagates in straight segments through the layers. Multiple scattering
    tilts the direction at every crossed layer; the recorded hit is the true
    crossing point smeared in-plane by ``hit_resolution``. Crossings outside
    the layer extents produce no hit and no kick.

    All particles move together, as arrays. Draw order, from
    :func:`event_rng`: the multiplicity (one ``poisson``, or none when it is
    the rounded mean); the IP smear, ``standard_normal((n, 3))``; the
    energies (:meth:`EnergySpectrum.sample`); the emittance angles,
    ``standard_normal((n, 2))``; then one ``standard_normal((n, layers,
    k))`` for every crossing: smear x and y if ``smear_hits``, then kick x
    and y if ``scattering`` and the layers have thickness. A crossing's
    normals are drawn whether or not the particle is inside; one outside
    uses none of them. Each normal is scaled as ``0.0 + sigma * z``, the
    arithmetic of ``Generator.normal``. Every tan, asin and the Highland log
    come from ``math``, one value at a time.

    Hits are particle-major, layers ascending, their ids the row numbers.
    """
    rng = event_rng(sim, event_id)
    if sim.poisson_multiplicity:
        n = int(rng.poisson(sim.mean_multiplicity))
    else:
        n = int(round(sim.mean_multiplicity))
    origins = (np.asarray(geometry.ip_position, dtype=float)
               + (0.0 + np.asarray(sim.ip_smear, dtype=float) * rng.standard_normal((n, 3))))
    energies = sim.energy_spectrum.sample(rng, n)
    theta = 0.0 + sim.emittance_angle_sigma * rng.standard_normal((n, 2))  # x, y
    kicks = sim.scattering and geometry.layer_thickness_x0 != 0.0
    layer_z = geometry.layer_z
    draws = rng.standard_normal((n, len(layer_z), 2 * sim.smear_hits + 2 * kicks))

    if kicks:  # the same Highland width at every crossing of a particle
        sigma = scattering_sigma(energies, geometry.layer_thickness_x0)
        if (sigma < 0.0).any():
            raise SimulationError(
                f"negative scattering width {float(sigma[sigma < 0.0][0])} at thickness "
                f"{geometry.layer_thickness_x0} X0 (Highland's log term)")
        kick = 0.0 + sigma[:, None, None] * draws[:, :, -2:]
    slopes = _by_math(math.tan, theta)
    norm = np.sqrt(slopes[:, 0] * slopes[:, 0] + slopes[:, 1] * slopes[:, 1] + 1.0)
    directions = np.ones((n, 3))
    directions[:, :2] = slopes
    directions /= norm[:, None]

    # straight to the magnet centre, then a single thin-lens kick in +x
    z = geometry.dipole_kick_z
    xy = origins[:, :2] + slopes * (z - origins[:, 2:])
    theta[:, 0] += dipole_deflection(energies, geometry.dipole_field, geometry.dipole_length)
    half = np.array([geometry.layer_half_extent_x, geometry.layer_half_extent_y])
    crossings = np.empty((n, len(layer_z), 2))
    inside = np.empty((n, len(layer_z)), dtype=bool)
    for layer, plane in enumerate(layer_z):
        xy = xy + _by_math(math.tan, theta) * (plane - z)
        z = plane
        crossings[:, layer] = xy
        within = np.abs(xy) <= half
        inside[:, layer] = within = within[:, 0] & within[:, 1]
        if kicks:
            theta = np.where(within[:, None], theta + kick[:, layer], theta)
    if sim.smear_hits:  # the crossings become the measured points
        crossings += 0.0 + geometry.hit_resolution * draws[:, :, :2]
    within = np.abs(crossings) <= half
    recorded = inside & within[..., 0] & within[..., 1]

    fault = particle_fault(energies, directions)
    if fault is not None:
        raise SimulationError(f"event {event_id} particle {fault[0]}: {fault[1]}")
    truth, layers = np.nonzero(recorded)  # particle-major, layers ascending
    positions = np.empty((len(truth), 3))
    positions[:, :2] = crossings[truth, layers]
    positions[:, 2] = np.asarray(layer_z)[layers]
    hits = Hits(np.arange(len(truth)), layers, positions, truth, np.ones(len(truth), dtype=bool))
    particles = Particles(np.arange(n), energies, origins, directions)
    return Event(event_id=event_id, xi_label=sim.xi_label, hits=hits, particles=particles)
