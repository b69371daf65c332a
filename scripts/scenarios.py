"""Hand-constructed benchmark events with known combinatorics.

The two-nearby-particles event is the standard small benchmark: two
almost-parallel tracks crossing between layers 1 and 2 produce exactly
seven triplet candidates (four genuine, three cross-track fakes), small
enough to enumerate exactly yet hard enough that the fakes pass every
pre-selection cut.
"""

from __future__ import annotations

import math

from qubotrack.fastsim import PT_KICK_PER_TESLA_METER
from qubotrack.geometry import Event, GeometryConfig, Hit, TruthParticle, build_geometry


def two_nearby_particles_event(event_id: int = 0) -> tuple[Event, GeometryConfig]:
    """Two straight tracks whose combinatorics yield exactly 7 triplets.

    Track A has slope 0.06 after the dipole kick; track B is steeper by
    1.4 mrad and crosses A between layers 1 and 2, so hits on the two
    tracks are only tens of micrometers apart. The last hit of B is nudged
    by 30 um, which pushes one borderline cross-track triplet just above
    the 1 mrad cut and leaves an odd number of candidates: the 4 truth
    triplets plus 3 fakes. The optimal selection is the 4 truth triplets.
    """
    geometry = build_geometry()
    kick_z = geometry.dipole_kick_z
    slope_a = 0.06
    slope_b = slope_a + 1.4e-3
    crossing_z = 1.16  # between layers 1 and 2

    def x_on_track(slope: float, z: float, cross: bool) -> float:
        if not cross:
            return slope * (z - kick_z)
        # track B: same crossing point as A at crossing_z, different slope
        return slope_a * (crossing_z - kick_z) + slope_b * (z - crossing_z)

    hits = []
    for pid, cross in ((0, False), (1, True)):
        for layer, z in enumerate(geometry.layer_z):
            slope = slope_b if cross else slope_a
            x = x_on_track(slope, z, cross)
            if pid == 1 and layer == 3:
                x += 30e-6  # breaks the fake-triplet pairing symmetry
            hits.append(Hit(hit_id=4 * pid + layer, layer=layer,
                            position=(x, 0.0, z), truth_particle_id=pid))

    kick = PT_KICK_PER_TESLA_METER * geometry.dipole_field * geometry.dipole_length
    particles = tuple(
        TruthParticle(particle_id=pid, energy=kick / math.sin(math.atan(slope)),
                      origin=(0.0, 0.0, 0.0), direction=(0.0, 0.0, 1.0))
        for pid, slope in ((0, slope_a), (1, slope_b))
    )
    event = Event(event_id=event_id, xi_label=0.0, hits=tuple(hits),
                  particles=particles)
    return event, geometry
