"""Performance metrics over one or many events: efficiency, fake rate,
duplication rate, energy resolution, and binned curves, all from one
entry point, :func:`build_report`, in one columnar pass over the run.

Every event's hit and particle columns are concatenated once
(:class:`RunTruth`) and the tracks' fields are read into arrays once
(:func:`track_columns`). Each track hit is joined to its hit on (event,
hit id) with sorted int64 keys, which gives a ``(tracks, 4)`` array of
owner keys: one int64 per (event, particle) pair, -1 for a noise hit or a
hit its event lacks. :func:`match_owners` matches the rows of that array;
reconstruction, which holds its tracks' hit positions, fills
``matched_particle_id`` with the same matcher (:func:`match_truth`). No
step loops over hits or tracks in Python, apart from the one read of the
:class:`TrackRecord` fields.

Conventions:
  * a particle is counted in the efficiency denominator only if it left a
    hit on every layer (acceptance losses are excluded from tracking
    efficiency),
  * a track is matched when one particle owns at least 3 of its 4 hits,
  * the truth energy of a particle id is that of the event's first
    particle with the id; the truth of a hit id, that of its last hit,
  * binned ratios carry Wilson intervals at one standard deviation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .geometry import N_LAYERS, Event

MATCH_MIN_HITS = 3


@dataclass(frozen=True)
class TrackRecord:
    """Flat final-track record, the unit both metrics and CSV output use."""

    event_id: int
    track_id: int
    hit_ids: tuple[int, int, int, int]
    chi2: float
    ndf: int
    energy: float  # GeV, NaN when not invertible
    matched_particle_id: int | None = None


def track_columns(tracks: list[TrackRecord]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tracks' event ids, ``(tracks, 4)`` hit ids and energies as
    arrays, each field read by one ``np.fromiter``."""
    n = len(tracks)
    hit_ids = itertools.chain.from_iterable(map(attrgetter("hit_ids"), tracks))
    return (np.fromiter(map(attrgetter("event_id"), tracks), np.int64, n),
            np.fromiter(hit_ids, np.int64, N_LAYERS * n).reshape(n, N_LAYERS),
            np.fromiter(map(attrgetter("energy"), tracks), float, n))


def _cat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype)


def _lookup(sorted_keys: np.ndarray, keys, side: str = "left") -> tuple[np.ndarray, np.ndarray]:
    """Position in ``sorted_keys`` of each key's first (``side="left"``) or
    last (``"right"``) equal entry, and whether there is one; where there
    is none, the position is only clipped into range."""
    at = np.searchsorted(sorted_keys, keys, side=side) - (side == "right")
    if not len(sorted_keys):
        return at, np.zeros(at.shape, dtype=bool)
    at = np.clip(at, 0, len(sorted_keys) - 1)
    return at, sorted_keys[at] == keys


def _run_starts(*columns: np.ndarray) -> np.ndarray:
    """Where each run of equal rows of the sorted, aligned ``columns`` starts."""
    change = np.zeros(len(columns[0]), dtype=bool)
    change[:1] = True
    for c in columns:
        change[1:] |= c[1:] != c[:-1]
    return np.flatnonzero(change)


class RunTruth:
    """Every event's truth columns, concatenated once, and the joins on them.

    An event is known by its position in ``events`` sorted by id; the ids
    must differ. A hit is keyed ``event * distinct hit ids + rank of its
    id``; a known hit's owner, and a particle whose id owns a hit, are
    keyed the same way on the rank among the truth ids that own hits, so
    ``owner // len(truth_ids)`` is its event. Keys are int64 and sorted
    stably once, so the joins are searchsorted calls.
    """

    def __init__(self, events: list[Event]):
        self.events = events = sorted(events, key=attrgetter("event_id"))
        self.event_ids = np.array([e.event_id for e in events], dtype=np.int64)
        repeated = np.flatnonzero(np.diff(self.event_ids) == 0)
        if repeated.size:
            raise ValueError(f"event {self.event_ids[repeated[0]]} listed twice")
        hits = [e.hits for e in events]
        event = np.repeat(np.arange(len(events)), [len(h) for h in hits])
        ids = _cat([h.ids for h in hits], np.int64)
        self.known = _cat([h.known for h in hits], bool)
        self.layers = _cat([h.layers for h in hits], np.int64)
        self._hit_ids, rank = np.unique(ids, return_inverse=True)
        keys = event * len(self._hit_ids) + rank.reshape(-1)
        self._hit_at = np.argsort(keys, kind="stable")
        self._hit_keys = keys[self._hit_at]
        truth = _cat([h.truth for h in hits], np.int64)[self.known]
        self.truth_ids, rank = np.unique(truth, return_inverse=True)
        self.owner = np.full(len(ids), -1, dtype=np.int64)
        self.owner[self.known] = event[self.known] * len(self.truth_ids) + rank.reshape(-1)

    def event_index(self, event_ids: np.ndarray) -> np.ndarray:
        """Position in ``events`` of each event id; ``KeyError`` naming the
        first unknown one."""
        at, known = _lookup(self.event_ids, event_ids)
        if not known.all():
            raise KeyError(f"track references unknown event {event_ids[np.argmin(known)]}")
        return at

    def owners(self, event: np.ndarray, hit_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Owner keys (-1 for none) of a ``(tracks, 4)`` array of hit ids
        whose tracks belong to the events at positions ``event``, and
        whether each hit is in its event."""
        rank, known = _lookup(self._hit_ids, hit_ids)
        at, found = _lookup(self._hit_keys, event[:, None] * len(self._hit_ids) + rank,
                            "right")
        found &= known
        owners = np.full(hit_ids.shape, -1, dtype=np.int64)
        owners[found] = self.owner[self._hit_at[at[found]]]
        return owners, found

    def reconstructable(self) -> np.ndarray:
        """Ascending owner keys of the particles with a hit on every layer."""
        owner, layer = self.owner[self.known], self.layers[self.known]
        order = np.lexsort((layer, owner))
        owner, layer = owner[order], layer[order]
        owner = owner[_run_starts(owner, layer)]  # one entry per (particle, layer)
        starts = _run_starts(owner)
        n_layers = np.diff(np.append(starts, len(owner)))
        return owner[starts[n_layers == N_LAYERS]]

    @functools.cached_property
    def _particles(self) -> tuple[np.ndarray, np.ndarray]:
        """Owner keys of the particles whose ids own hits, sorted stably
        (so the first particle with an id comes first), and their energies."""
        parts = [e.particles for e in self.events]
        event = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
        rank, owns = _lookup(self.truth_ids, _cat([p.ids for p in parts], np.int64))
        keys = (event * len(self.truth_ids) + rank)[owns]
        energies = _cat([p.energies for p in parts], float)[owns]
        order = np.argsort(keys, kind="stable")
        return keys[order], energies[order]

    def true_energies(self, owners: np.ndarray) -> np.ndarray:
        """Truth energy of each owner key; ``KeyError`` naming the first
        particle id that no particle of its event has."""
        keys, energies = self._particles
        at, found = _lookup(keys, owners)
        if not found.all():
            raise KeyError(int(self.truth_ids[owners[~found][0] % len(self.truth_ids)]))
        return energies[at]


def match_owners(owners: np.ndarray) -> np.ndarray:
    """Owner key of the particle that owns at least MATCH_MIN_HITS (3) hits
    of each ``(tracks, 4)`` row of owner keys, -1 where none does. A hit
    listed twice counts twice. Two particles cannot both own 3 of 4 hits,
    so no tie between equal shares is left to break: in a sorted row, a key
    that fills 3 places fills places 0 to 2 or 1 to 3."""
    s = np.sort(owners, axis=1)
    held = (s[:, 0] == s[:, 2]) | (s[:, 1] == s[:, 3])
    return np.where(held & (s[:, 1] >= 0), s[:, 1], -1)


def match_truth(truth: np.ndarray, known: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matched particle id of each ``(tracks, 4)`` row of one event's hit
    truth ids (0 where none), and whether the row is matched; ``known``
    flags the hits that have a particle. Reconstruction holds its tracks'
    hit positions, so it reads the truth columns directly, with no join."""
    ids, rank = np.unique(truth[known], return_inverse=True)
    owners = np.full(truth.shape, -1, dtype=np.int64)
    owners[known] = rank.reshape(-1)
    matched = match_owners(owners)
    return np.append(ids, 0)[matched], matched >= 0  # -1 picks the 0


def wilson_interval(k: int, n: int, z: float = 1.0) -> tuple[float, float]:
    """Wilson score interval for a binomial ratio, z=1 ~ 68% coverage."""
    if n == 0:
        raise ValueError("empty denominator")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class BinnedValue:
    bin_lo: float
    bin_hi: float
    value: float | None   # None for an empty bin
    err_lo: float | None
    err_hi: float | None
    numerator: int = 0
    denominator: int = 0

    def to_row(self) -> dict:
        return {
            "bin_lo": self.bin_lo, "bin_hi": self.bin_hi, "value": self.value,
            "err_lo": self.err_lo, "err_hi": self.err_hi,
        }


def _binned_ratio(values: np.ndarray, flags: np.ndarray,
                  edges: list[float]) -> list[BinnedValue]:
    """The share of ``flags`` among the values in each bin [lo, hi)."""
    n_bins = max(len(edges) - 1, 0)
    b = np.searchsorted(np.asarray(edges, dtype=float), values, side="right") - 1
    inside = (b >= 0) & (b < n_bins)
    totals = np.bincount(b[inside], minlength=n_bins).tolist()
    hits = np.bincount(b[inside & flags], minlength=n_bins).tolist()
    out = []
    for lo, hi, k, n in zip(edges, edges[1:], hits, totals):
        if not n:
            out.append(BinnedValue(lo, hi, None, None, None, 0, 0))
            continue
        w_lo, w_hi = wilson_interval(k, n)
        p = k / n
        out.append(BinnedValue(lo, hi, p, p - w_lo, w_hi - p, k, n))
    return out


@dataclass
class MetricsReport:
    efficiency: float | None
    fake_rate: float | None
    duplication_rate: float | None
    energy_resolution: float | None
    counts: dict[str, int]
    curves: dict[str, list[BinnedValue]] = field(default_factory=dict)
    per_xi_label: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "efficiency": self.efficiency,
            "fake_rate": self.fake_rate,
            "duplication_rate": self.duplication_rate,
            "energy_resolution": self.energy_resolution,
            "counts": self.counts,
            "curves": {
                name: [b.to_row() for b in bins] for name, bins in self.curves.items()
            },
            "per_xi_label": self.per_xi_label,
        }

    def check_invariants(self) -> list[str]:
        problems = []
        for name in ("efficiency", "fake_rate", "duplication_rate"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                problems.append(f"{name} outside [0, 1]: {v}")
        c = self.counts
        if c["matched"] + c["fake"] != c["reconstructed"]:
            problems.append("matched + fake != reconstructed")
        return problems


def build_report(events: list[Event], tracks: list[TrackRecord],
                 edges: list[float] | None = None) -> MetricsReport:
    """Full report over a set of events with distinct ids (``ValueError``
    otherwise); adds binned curves at ``edges`` (strictly increasing, else
    ``ValueError``) when they are given, and per-xi-label scalar metrics
    when more than one label is present. A track of an event not in
    ``events``, or a matched particle that its event does not list, raises
    ``KeyError``."""
    truth = RunTruth(events)
    event_ids, hit_ids, energy = track_columns(tracks)
    track_event = truth.event_index(event_ids)
    owners, _ = truth.owners(track_event, hit_ids)
    matched = match_owners(owners)
    is_matched = matched >= 0
    distinct = (np.diff(np.sort(owners, axis=1), axis=1) != 0).all(axis=1)
    reconstructable = truth.reconstructable()
    particles, per_particle = np.unique(matched[is_matched], return_counts=True)

    # resolution entries in track order, the order their mean sums them in
    resolved = np.flatnonzero(is_matched & np.isfinite(energy))
    true_e = truth.true_energies(matched[resolved])
    r = (energy[resolved] - true_e) / true_e

    n_truth = max(len(truth.truth_ids), 1)

    def scalars(in_events: np.ndarray) -> dict:
        """The four scalar metrics over the events flagged ``in_events``;
        each is None without a denominator, the energy resolution (an RMS
        over matched tracks of finite energy) below 2 entries."""
        n_tracks = int(in_events[track_event].sum())
        n_matched = int(in_events[track_event[is_matched]].sum())
        found = per_particle[in_events[particles // n_truth]]
        denom = int(in_events[reconstructable // n_truth].sum())
        rs = r[in_events[track_event[resolved]]]
        return {
            "efficiency": len(found) / denom if denom else None,
            "fake_rate": (n_tracks - n_matched) / n_tracks if n_tracks else None,
            "duplication_rate": (int((found > 1).sum()) / len(found) if len(found)
                                 else None),
            "energy_resolution": float(np.sqrt(np.mean(rs * rs))) if len(rs) >= 2 else None,
        }

    n_matched = int(is_matched.sum())
    counts = {
        "generated": len(reconstructable),
        "reconstructed": len(tracks),
        "matched": n_matched,
        "fake": len(tracks) - n_matched,
        "fake_combinatorial": int((~is_matched & distinct).sum()),
        "events": len(events),
    }
    report = MetricsReport(**scalars(np.ones(len(events), dtype=bool)), counts=counts)
    if edges is not None:
        if any(not b > a for a, b in zip(edges, edges[1:])):
            raise ValueError("bin edges must be strictly increasing")
        _, was_found = _lookup(particles, reconstructable)
        finite = np.isfinite(energy)
        report.curves = {  # efficiency in true particle energy, fake rate in track energy
            "efficiency_vs_true_energy": _binned_ratio(
                truth.true_energies(reconstructable), was_found, edges),
            "fake_rate_vs_track_energy": _binned_ratio(
                energy[finite], ~is_matched[finite], edges),
        }

    labels = sorted({e.xi_label for e in events})
    if len(labels) > 1:
        xi = np.array([e.xi_label for e in truth.events], dtype=float)
        for label in labels:
            in_label = xi == label
            report.per_xi_label[repr(label)] = {
                **scalars(in_label), "events": int(in_label.sum()),
                "tracks": int(in_label[track_event].sum())}
    return report
