"""Performance metrics over one or many events: efficiency, fake rate,
duplication rate, energy resolution, and binned curves, all from one
entry point, :func:`build_report`, which builds each event's truth tables
and matches each track once.

Conventions:
  * a particle is counted in the efficiency denominator only if it left a
    hit on every layer (acceptance losses are excluded from tracking
    efficiency),
  * a track is matched when one particle owns at least 3 of its 4 hits,
  * binned ratios carry Wilson intervals at one standard deviation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .geometry import Event

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


def truth_by_hit(event: Event) -> dict[int, int | None]:
    """Truth particle id of every hit id of the event (None for noise)."""
    h = event.hits
    return dict(zip(h.ids.tolist(), [p if k else None for p, k in zip(h.truth.tolist(),
                                                                      h.known.tolist())]))


def match_hits(hit_ids: tuple[int, ...], by_id: dict[int, int | None]) -> int | None:
    """Particle owning at least MATCH_MIN_HITS of the hits, else None.

    ``by_id`` maps hit ids to particle ids, as :func:`truth_by_hit` builds
    it. Between equally large shares the lower particle id wins.
    """
    counts: dict[int, int] = {}
    for hid in hit_ids:
        pid = by_id.get(hid)
        if pid is not None:
            counts[pid] = counts.get(pid, 0) + 1
    if not counts:
        return None
    pid, best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return pid if best >= MATCH_MIN_HITS else None


def reconstructable_particles(event: Event, n_layers: int = 4) -> list[int]:
    """Particles with at least one hit on every layer."""
    h = event.hits
    layers_by_pid: dict[int, set[int]] = {}
    for pid, layer, known in zip(h.truth.tolist(), h.layers.tolist(), h.known.tolist()):
        if known:
            layers_by_pid.setdefault(pid, set()).add(layer)
    return sorted(pid for pid, layers in layers_by_pid.items() if len(layers) == n_layers)


def _true_energies(event: Event) -> dict[int, float]:
    """Truth energy by particle id (the first particle with an id wins, as in
    :meth:`Event.particle_by_id`)."""
    p = event.particles
    return dict(zip(reversed(p.ids.tolist()), reversed(p.energies.tolist())))


_Matches = list[tuple[TrackRecord, "int | None"]]


@dataclass(frozen=True)
class _Truth:
    """One event's truth tables, read from its columns once per report."""

    by_hit: dict[int, int | None]   # truth_by_hit
    reconstructable: list[int]      # reconstructable_particles
    energies: dict[int, float]      # _true_energies


def _truth(events: list[Event]) -> dict[int, _Truth]:
    return {e.event_id: _Truth(truth_by_hit(e), reconstructable_particles(e),
                               _true_energies(e)) for e in events}


def _match_all(truth: dict[int, _Truth], tracks: list[TrackRecord]) -> _Matches:
    out = []
    for t in tracks:
        if t.event_id not in truth:
            raise KeyError(f"track references unknown event {t.event_id}")
        out.append((t, match_hits(t.hit_ids, truth[t.event_id].by_hit)))
    return out


def _scalar_metrics(events: list[Event], matches: _Matches,
                    truth: dict[int, _Truth]) -> dict:
    """The four scalar metrics of already matched tracks, keyed by name;
    each is None without a denominator, the energy resolution (an RMS over
    matched tracks of finite energy) below 2 entries."""
    matched = [(t, pid) for t, pid in matches if pid is not None]
    per_particle = Counter((t.event_id, pid) for t, pid in matched)
    denom = sum(len(truth[e.event_id].reconstructable) for e in events)
    r = np.asarray([(t.energy - (e := truth[t.event_id].energies[pid])) / e
                    for t, pid in matched if math.isfinite(t.energy)])
    return {
        "efficiency": len(per_particle) / denom if denom else None,
        "fake_rate": (len(matches) - len(matched)) / len(matches) if matches else None,
        "duplication_rate": (sum(1 for c in per_particle.values() if c > 1)
                             / len(per_particle) if per_particle else None),
        "energy_resolution": float(np.sqrt(np.mean(r * r))) if len(r) >= 2 else None,
    }


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


def _binned_ratio(values: list[float], flags: list[bool],
                  edges: list[float]) -> list[BinnedValue]:
    out = []
    for lo, hi in zip(edges, edges[1:]):
        in_bin = [f for v, f in zip(values, flags) if lo <= v < hi]
        if not in_bin:
            out.append(BinnedValue(lo, hi, None, None, None, 0, 0))
            continue
        k, n = sum(in_bin), len(in_bin)
        w_lo, w_hi = wilson_interval(k, n)
        p = k / n
        out.append(BinnedValue(lo, hi, p, p - w_lo, w_hi - p, k, n))
    return out


def _binned_curves(events: list[Event], matches: _Matches, edges: list[float],
                   truth: dict[int, _Truth]) -> dict[str, list[BinnedValue]]:
    """Efficiency binned in true particle energy, fake rate in measured
    track energy, as a dict of curves keyed by name."""
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("bin edges must be strictly increasing")
    matched_pids = {(t.event_id, pid) for t, pid in matches if pid is not None}

    true_energies, found = [], []
    for e in events:
        event = truth[e.event_id]
        for pid in event.reconstructable:
            true_energies.append(event.energies[pid])
            found.append((e.event_id, pid) in matched_pids)

    track_energies, is_fake = [], []
    for t, pid in matches:
        if math.isfinite(t.energy):
            track_energies.append(t.energy)
            is_fake.append(pid is None)

    return {
        "efficiency_vs_true_energy": _binned_ratio(true_energies, found, edges),
        "fake_rate_vs_track_energy": _binned_ratio(track_energies, is_fake, edges),
    }


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
    """Full report over a set of events; adds binned curves at ``edges``
    (strictly increasing, else ``ValueError``) when they are given, and
    per-xi-label scalar metrics when more than one label is present."""
    truth = _truth(events)
    matches = _match_all(truth, tracks)
    matched_tracks = sum(1 for _, pid in matches if pid is not None)
    combinatorial = sum(
        1 for t, pid in matches
        if pid is None and len({truth[t.event_id].by_hit.get(h) for h in t.hit_ids}) == 4
    )
    counts = {
        "generated": sum(len(truth[e.event_id].reconstructable) for e in events),
        "reconstructed": len(tracks),
        "matched": matched_tracks,
        "fake": len(tracks) - matched_tracks,
        "fake_combinatorial": combinatorial,
        "events": len(events),
    }
    report = MetricsReport(**_scalar_metrics(events, matches, truth), counts=counts)
    if edges is not None:
        report.curves = _binned_curves(events, matches, edges, truth)

    labels = sorted({e.xi_label for e in events})
    if len(labels) > 1:
        for label in labels:
            evs = [e for e in events if e.xi_label == label]
            ids = {e.event_id for e in evs}
            ms = [(t, pid) for t, pid in matches if t.event_id in ids]
            report.per_xi_label[repr(label)] = {
                **_scalar_metrics(evs, ms, truth), "events": len(evs), "tracks": len(ms)}
    return report
