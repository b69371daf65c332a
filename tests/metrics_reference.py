"""The metrics as they were computed per hit and per track, kept as the
reference that judges the columnar :func:`qubotrack.metrics.build_report`.

Each event's truth tables are Python dicts built from its columns, every
track is matched by counting its hits' owners, and every metric and curve
is a Python pass over the matches. :func:`reference_report` returns the
dict that ``build_report(...).to_dict()`` must equal.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from qubotrack.geometry import Event
from qubotrack.metrics import MATCH_MIN_HITS, TrackRecord, wilson_interval


def truth_by_hit(event: Event) -> dict[int, int | None]:
    """Truth particle id of every hit id of the event (None for noise; the
    last hit with an id wins)."""
    h = event.hits
    return dict(zip(h.ids.tolist(), [p if k else None for p, k in zip(h.truth.tolist(),
                                                                      h.known.tolist())]))


def match_hits(hit_ids, by_id: dict[int, int | None]) -> int | None:
    """Particle owning at least MATCH_MIN_HITS of the hits, else None;
    between equally large shares the lower particle id wins."""
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


def true_energies(event: Event) -> dict[int, float]:
    """Truth energy by particle id (the first particle with an id wins)."""
    p = event.particles
    return dict(zip(reversed(p.ids.tolist()), reversed(p.energies.tolist())))


def _scalar_metrics(events, matches, truth) -> dict:
    matched = [(t, pid) for t, pid in matches if pid is not None]
    per_particle = Counter((t.event_id, pid) for t, pid in matched)
    denom = sum(len(truth[e.event_id][1]) for e in events)
    r = np.asarray([(t.energy - (e := truth[t.event_id][2][pid])) / e
                    for t, pid in matched if math.isfinite(t.energy)])
    return {
        "efficiency": len(per_particle) / denom if denom else None,
        "fake_rate": (len(matches) - len(matched)) / len(matches) if matches else None,
        "duplication_rate": (sum(1 for c in per_particle.values() if c > 1)
                             / len(per_particle) if per_particle else None),
        "energy_resolution": float(np.sqrt(np.mean(r * r))) if len(r) >= 2 else None,
    }


def _binned_ratio(values, flags, edges) -> list[dict]:
    out = []
    for lo, hi in zip(edges, edges[1:]):
        in_bin = [f for v, f in zip(values, flags) if lo <= v < hi]
        if not in_bin:
            out.append({"bin_lo": lo, "bin_hi": hi, "value": None,
                        "err_lo": None, "err_hi": None})
            continue
        k, n = sum(in_bin), len(in_bin)
        w_lo, w_hi = wilson_interval(k, n)
        p = k / n
        out.append({"bin_lo": lo, "bin_hi": hi, "value": p,
                    "err_lo": p - w_lo, "err_hi": w_hi - p})
    return out


def _binned_curves(events, matches, edges, truth) -> dict:
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("bin edges must be strictly increasing")
    matched_pids = {(t.event_id, pid) for t, pid in matches if pid is not None}
    true_e, found = [], []
    for e in events:
        _, reconstructable, energies = truth[e.event_id]
        for pid in reconstructable:
            true_e.append(energies[pid])
            found.append((e.event_id, pid) in matched_pids)
    track_e, is_fake = [], []
    for t, pid in matches:
        if math.isfinite(t.energy):
            track_e.append(t.energy)
            is_fake.append(pid is None)
    return {"efficiency_vs_true_energy": _binned_ratio(true_e, found, edges),
            "fake_rate_vs_track_energy": _binned_ratio(track_e, is_fake, edges)}


def reference_report(events: list[Event], tracks: list[TrackRecord],
                     edges: list[float] | None = None) -> dict:
    """The report dict, computed per hit and per track."""
    truth = {e.event_id: (truth_by_hit(e), reconstructable_particles(e), true_energies(e))
             for e in events}
    matches = []
    for t in tracks:
        if t.event_id not in truth:
            raise KeyError(f"track references unknown event {t.event_id}")
        matches.append((t, match_hits(t.hit_ids, truth[t.event_id][0])))
    n_matched = sum(1 for _, pid in matches if pid is not None)
    combinatorial = sum(
        1 for t, pid in matches
        if pid is None and len({truth[t.event_id][0].get(h) for h in t.hit_ids}) == 4)
    report = {
        **_scalar_metrics(events, matches, truth),
        "counts": {
            "generated": sum(len(truth[e.event_id][1]) for e in events),
            "reconstructed": len(tracks),
            "matched": n_matched,
            "fake": len(tracks) - n_matched,
            "fake_combinatorial": combinatorial,
            "events": len(events),
        },
        "curves": {} if edges is None else _binned_curves(events, matches, edges, truth),
        "per_xi_label": {},
    }
    labels = sorted({e.xi_label for e in events})
    if len(labels) > 1:
        for label in labels:
            evs = [e for e in events if e.xi_label == label]
            ids = {e.event_id for e in evs}
            ms = [(t, pid) for t, pid in matches if t.event_id in ids]
            report["per_xi_label"][repr(label)] = {
                **_scalar_metrics(evs, ms, truth), "events": len(evs), "tracks": len(ms)}
    return report


def hexed(value):
    """``value`` with every float written by ``float.hex``, so that two
    reports compare bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [hexed(v) for v in value]
    return value
