"""Performance metrics over one or many events: efficiency, fake rate,
duplication rate, energy resolution, and binned curves.

Conventions:
  * a particle is counted in the efficiency denominator only if it left a
    hit on every layer (acceptance losses are excluded from tracking
    efficiency),
  * a track is matched when one particle owns at least 3 of its 4 hits,
  * binned ratios carry Wilson intervals at one standard deviation.
"""

from __future__ import annotations

import math
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
    return {h.hit_id: h.truth_particle_id for h in event.hits}


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


def distinct_particle_count(track: TrackRecord, event: Event) -> int:
    """Number of distinct truth particles contributing hits to the track."""
    by_id = truth_by_hit(event)
    return len({by_id.get(hid) for hid in track.hit_ids})


def reconstructable_particles(event: Event, n_layers: int = 4) -> list[int]:
    """Particles with at least one hit on every layer."""
    layers_by_pid: dict[int, set[int]] = {}
    for h in event.hits:
        if h.truth_particle_id is not None:
            layers_by_pid.setdefault(h.truth_particle_id, set()).add(h.layer)
    return sorted(pid for pid, layers in layers_by_pid.items()
                  if len(layers) == n_layers)


def _match_all(events: list[Event], tracks: list[TrackRecord]
               ) -> list[tuple[TrackRecord, int | None]]:
    truth = {e.event_id: truth_by_hit(e) for e in events}
    out = []
    for t in tracks:
        by_id = truth.get(t.event_id)
        if by_id is None:
            raise KeyError(f"track references unknown event {t.event_id}")
        out.append((t, match_hits(t.hit_ids, by_id)))
    return out


def efficiency(events: list[Event], tracks: list[TrackRecord]) -> float | None:
    """Matched particles / reconstructable particles; None if no denominator."""
    denom = sum(len(reconstructable_particles(e)) for e in events)
    if denom == 0:
        return None
    matched_pairs = {
        (t.event_id, pid) for t, pid in _match_all(events, tracks) if pid is not None
    }
    return len(matched_pairs) / denom


def fake_rate(events: list[Event], tracks: list[TrackRecord]) -> float | None:
    """Unmatched final tracks / all final tracks; None if no tracks."""
    if not tracks:
        return None
    matches = _match_all(events, tracks)
    fakes = sum(1 for _, pid in matches if pid is None)
    return fakes / len(tracks)


def duplication_rate(events: list[Event], tracks: list[TrackRecord]) -> float | None:
    """Particles matched by more than one track / matched particles."""
    counts: dict[tuple[int, int], int] = {}
    for t, pid in _match_all(events, tracks):
        if pid is not None:
            counts[(t.event_id, pid)] = counts.get((t.event_id, pid), 0) + 1
    if not counts:
        return None
    return sum(1 for c in counts.values() if c > 1) / len(counts)


def energy_resolution(events: list[Event], tracks: list[TrackRecord]) -> float | None:
    """RMS of (E_track - E_true)/E_true over matched tracks; None below 2 entries."""
    by_event = {e.event_id: e for e in events}
    residuals = []
    for t, pid in _match_all(events, tracks):
        if pid is None or not math.isfinite(t.energy):
            continue
        e_true = by_event[t.event_id].particle_by_id(pid).energy
        residuals.append((t.energy - e_true) / e_true)
    if len(residuals) < 2:
        return None
    r = np.asarray(residuals)
    return float(np.sqrt(np.mean(r * r)))


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


def binned_curves(events: list[Event], tracks: list[TrackRecord],
                  edges: list[float]) -> dict[str, list[BinnedValue]]:
    """Efficiency binned in true particle energy, fake rate in measured
    track energy, as a dict of curves keyed by name."""
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("bin edges must be strictly increasing")
    matches = _match_all(events, tracks)
    matched_pids = {(t.event_id, pid) for t, pid in matches if pid is not None}

    true_energies, found = [], []
    for e in events:
        for pid in reconstructable_particles(e):
            true_energies.append(e.particle_by_id(pid).energy)
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
    """Full report over a set of events; adds per-xi-label scalar metrics
    when more than one label is present."""
    matches = _match_all(events, tracks)
    by_event = {e.event_id: e for e in events}
    matched_tracks = sum(1 for _, pid in matches if pid is not None)
    combinatorial = sum(
        1 for t, pid in matches
        if pid is None and distinct_particle_count(t, by_event[t.event_id]) == 4
    )
    counts = {
        "generated": sum(len(reconstructable_particles(e)) for e in events),
        "reconstructed": len(tracks),
        "matched": matched_tracks,
        "fake": len(tracks) - matched_tracks,
        "fake_combinatorial": combinatorial,
        "events": len(events),
    }
    report = MetricsReport(
        efficiency=efficiency(events, tracks),
        fake_rate=fake_rate(events, tracks),
        duplication_rate=duplication_rate(events, tracks),
        energy_resolution=energy_resolution(events, tracks),
        counts=counts,
    )
    if edges is not None:
        report.curves = binned_curves(events, tracks, edges)

    labels = sorted({e.xi_label for e in events})
    if len(labels) > 1:
        for label in labels:
            evs = [e for e in events if e.xi_label == label]
            ids = {e.event_id for e in evs}
            trs = [t for t in tracks if t.event_id in ids]
            report.per_xi_label[repr(label)] = {
                "efficiency": efficiency(evs, trs),
                "fake_rate": fake_rate(evs, trs),
                "duplication_rate": duplication_rate(evs, trs),
                "energy_resolution": energy_resolution(evs, trs),
                "events": len(evs),
                "tracks": len(trs),
            }
    return report
