"""Detector geometry and the event data model shared by the whole pipeline.

Units: meters for distances, GeV for energies, radians for angles, Tesla for
the dipole field. The tracker is a stack of parallel planes perpendicular to
the beam (z) axis; each plane is a single continuous sensitive area. The
geometry is one type, :class:`GeometryConfig`, the run configuration's
section as it is; :func:`build_geometry` checks it and returns it.

Data model: an :class:`Event` stores its hits and its particles as
columns, one array per field (:class:`Hits`, :class:`Particles`), the
only form an event is built from, and every stage from simulation and
file to metrics reads those arrays. The particle rule, a positive energy
and a unit direction, is checked on whole columns (:func:`particle_fault`).
Iterating a :class:`Hits` yields :class:`Hit` views of its rows, kept for
perfbench's track check; the chain never builds one.

Also here: the array joins on hit ids and other integer keys that
pre-selection, assembly and track building share (:func:`shared_hits`,
:func:`equal_key_pairs`, :func:`windowed_key_pairs`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Raised for an invalid geometry configuration."""


N_LAYERS = 4  # quadruplet tracks need one hit per layer


@dataclass(frozen=True)
class GeometryConfig:
    """The detector geometry's knobs, with the defaults used throughout.

    The planes sit at ``layer_z``, with constant pitch. The dipole is a
    thin-lens kick at ``dipole_kick_z``, the centre of a field region
    starting at the interaction point. Neither is a field, so neither
    enters the config a run echoes or its hash.
    """

    n_layers: int = N_LAYERS
    first_layer_z: float = 1.0        # m, distance of first plane from z=0
    layer_spacing: float = 0.10       # m, pitch between adjacent planes
    layer_half_extent_x: float = 0.27  # m
    layer_half_extent_y: float = 0.01  # m
    hit_resolution: float = 5e-6      # m, in-plane Gaussian smearing sigma
    layer_thickness_x0: float = 0.357e-2  # fraction of a radiation length
    dipole_field: float = 0.95        # T
    dipole_length: float = 1.0        # m, effective field length
    ip_position: tuple[float, float, float] = (0.0, 0.0, 0.0)  # m

    @functools.cached_property  # simulation reads it once per particle
    def layer_z(self) -> tuple[float, ...]:
        return tuple(self.first_layer_z + k * self.layer_spacing
                     for k in range(self.n_layers))

    @property
    def dipole_kick_z(self) -> float:
        return self.ip_position[2] + 0.5 * self.dipole_length


def build_geometry(config: GeometryConfig | None = None) -> GeometryConfig:
    """The checked detector geometry: ``config`` (the default one if None).

    Raises :class:`GeometryError` on non-positive or infinite sizes, a layer
    count other than four, non-monotonic layer positions or a non-finite
    interaction point.
    """
    config = config or GeometryConfig()
    if config.n_layers != N_LAYERS:
        raise GeometryError(
            f"pipeline requires exactly {N_LAYERS} layers, got {config.n_layers}"
        )
    # written as "not 0 < x < inf" so that NaN fails too
    if not 0 < config.layer_spacing < math.inf:
        raise GeometryError("layer_spacing must be finite and positive")
    if not 0 < config.hit_resolution < math.inf:
        raise GeometryError("hit_resolution must be finite and positive")
    if not 0 <= config.layer_thickness_x0 < math.inf:
        raise GeometryError("layer_thickness_x0 must be finite and non-negative")
    if not 0 <= config.dipole_field < math.inf:
        raise GeometryError("dipole_field must be finite and non-negative")
    if not 0 < config.dipole_length < math.inf:
        raise GeometryError("dipole_length must be finite and positive")
    if not (config.layer_half_extent_x > 0 and config.layer_half_extent_y > 0):
        raise GeometryError("layer half extents must be positive")
    if not all(math.isfinite(c) for c in config.ip_position):
        raise GeometryError(f"ip_position must be finite, got {tuple(config.ip_position)}")
    if not all(b > a for a, b in zip(config.layer_z, config.layer_z[1:])):
        raise GeometryError(f"layer positions not strictly increasing: {config.layer_z}")
    return config


def particle_fault(energy, direction) -> tuple[int, str] | None:
    """The first particle, by row, with an energy that is not positive or
    a direction whose norm is not 1 within 1e-12 (NaN fails both), and
    what it fails; None if there is none."""
    energy = np.asarray(energy, dtype=float)
    d = np.asarray(direction, dtype=float).reshape(-1, 3)
    norm = np.hypot(np.hypot(d[:, 0], d[:, 1]), d[:, 2])  # hypot cannot overflow
    bad = ~(energy > 0) | ~(np.abs(norm - 1.0) <= 1e-12)
    if not bad.any():
        return None
    i = int(bad.argmax())
    if not energy[i] > 0:
        return i, f"particle energy must be positive, got {float(energy[i])!r}"
    return i, f"direction not normalized: |d| = {float(norm[i])!r}"


@dataclass(frozen=True)
class Hit:  # read by perfbench's checks.check_tracks
    """View of a measured space point. ``truth_particle_id`` is None for noise."""

    hit_id: int
    layer: int
    position: tuple[float, float, float]
    truth_particle_id: int | None = None


def _rows(dtype, *shape):
    """A column that holds no rows by default."""
    return field(default_factory=lambda: np.empty((0, *shape), dtype=dtype))


class _Columns:
    """Aligned arrays, one row per item, ``ids`` first; two tables are
    equal when every column is."""

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


@dataclass(frozen=True, eq=False)
class Hits(_Columns):
    """One event's hits: ids, layers, (hits, 3) positions, truth particle
    ids and ``known``, whether a hit has one (if not, its id is 0).
    ``Hits()`` holds none."""

    ids: np.ndarray = _rows(np.int64)
    layers: np.ndarray = _rows(np.int64)
    positions: np.ndarray = _rows(float, 3)
    truth: np.ndarray = _rows(np.int64)
    known: np.ndarray = _rows(bool)

    def __iter__(self):  # read by perfbench's checks.check_tracks
        truth = [p if k else None for p, k in zip(self.truth.tolist(), self.known.tolist())]
        return map(Hit, self.ids.tolist(), self.layers.tolist(),
                   map(tuple, self.positions.tolist()), truth)


@dataclass(frozen=True, eq=False)
class Particles(_Columns):
    """One event's generated particles: ids, energies, and (particles, 3)
    origins and unit directions. ``Particles()`` holds none."""

    ids: np.ndarray = _rows(np.int64)
    energies: np.ndarray = _rows(float)
    origins: np.ndarray = _rows(float, 3)
    directions: np.ndarray = _rows(float, 3)


@dataclass(frozen=True)
class Event:
    """One event, its hits and particles stored as columns."""

    event_id: int
    xi_label: float
    hits: Hits
    particles: Particles


def _index_ranges(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges start[k] .. start[k] + count[k] - 1 laid end to end, as
    (owner k, position) arrays; owners ascending, positions ascending
    within an owner."""
    owner = np.repeat(np.arange(len(count)), count)
    offset = np.cumsum(count) - count
    return owner, np.repeat(start - offset, count) + np.arange(len(owner))


def equal_key_pairs(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (l, r) with ``left[l] == right[r]``: l ascending, then r
    ascending (a stable argsort of ``right`` plus two searchsorted)."""
    order = np.argsort(right, kind="stable")
    keys = right[order]
    lo = np.searchsorted(keys, left, side="left")
    owner, pos = _index_ranges(lo, np.searchsorted(keys, left, side="right") - lo)
    return owner, order[pos]


def windowed_key_pairs(left_key: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                       right_key: np.ndarray, right_value: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Every (l, r) with ``left_key[l] == right_key[r]`` and
    ``lo[l] <= right_value[r] <= hi[l]``, in no set order. Keys are
    integers; a value that is not finite, or a NaN bound, lies in no
    window.

    Entries and bounds are placed on one line, at key * scale + (value -
    least value) with scale a power of two above twice the values' span:
    each key's entries form one run and, rounding being monotone, lie in
    value order within it (a right key of magnitude 2**52 or more, or a
    span so wide that the line overflows, raises ``ValueError``). Bounds
    are clipped to the values' range, so a window never leaves its key,
    even at infinite bounds. Each window is then two searchsorted (the
    bounds sorted by ``lo`` first, which the search runs faster on).
    Rounding can only widen a window, so the pairs are checked against
    the exact bounds last; the cost follows the pairs returned, not the
    pairs that share a key.
    """
    right = np.flatnonzero(np.isfinite(right_value))
    value = right_value[right]
    if not len(value):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    least, most = float(value.min()), float(value.max())
    # a left key outside the right keys' range is placed outside their runs
    top = 1.0 + float(np.abs(right_key).max())
    if not (top <= 2.0 ** 52 and (most - least) * top < 2.0 ** 1020):
        raise ValueError("keys or the values' span too large for a windowed join")
    scale = 2.0 ** (math.frexp(most - least)[1] + 1)  # > 2 (most - least)
    entries = right_key[right] * scale + (value - least)
    order = np.argsort(entries)
    entries = entries[order]
    lo_at = left_key * scale + (np.maximum(lo, least) - least)
    hi_at = left_key * scale + (np.minimum(hi, most) - least)
    by_lo = np.argsort(lo_at)
    lo_at, hi_at = lo_at[by_lo], hi_at[by_lo]
    start = np.searchsorted(entries, lo_at, side="left")
    stop = np.searchsorted(entries, hi_at, side="right")
    count = np.where(np.isnan(lo_at) | np.isnan(hi_at), 0, np.maximum(stop - start, 0))
    k, pos = _index_ranges(start, count)
    l, r = by_lo[k], right[order[pos]]
    inside = np.flatnonzero((lo[l] <= right_value[r]) & (right_value[r] <= hi[l]))
    return l[inside], r[inside]


def shared_hits(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of items that share a hit id, with the number they share.

    ``rows`` is an (items, k) array of hit ids, one row per item. Returns
    aligned arrays (i, j, n), i < j, in ascending (i, j) order, with
    ``n[p] == len(set(rows[i[p]]) & set(rows[j[p]]))``, so an id an item
    lists twice counts once. The item lists are grouped by hit id (one
    lexsort) and only pairs within a group are formed, encoded as
    ``i * items + j`` and counted by ``np.unique``; disjoint pairs cost
    nothing. This is the one definition of hit overlap that the
    objective, ambiguity resolution and the evaluate invariant read.
    """
    rows = np.asarray(rows, dtype=np.int64)
    m = len(rows)
    hit = rows.reshape(-1)
    item = np.repeat(np.arange(m, dtype=np.int64), hit.size // m if m else 0)
    order = np.lexsort((item, hit))
    hit, item = hit[order], item[order]
    distinct = np.ones(len(hit), dtype=bool)
    distinct[1:] = (hit[1:] != hit[:-1]) | (item[1:] != item[:-1])
    hit, item = hit[distinct], item[distinct]
    # within one hit's group the items ascend: pair each with those after it
    starts = np.flatnonzero(np.r_[True, hit[1:] != hit[:-1]])
    ends = np.repeat(np.r_[starts[1:], len(hit)], np.diff(np.r_[starts, len(hit)]))
    here = np.arange(len(hit))
    owner, later = _index_ranges(here + 1, ends - here - 1)
    codes, n = np.unique(item[owner] * m + item[later], return_counts=True)
    return codes // m, codes % m, n
