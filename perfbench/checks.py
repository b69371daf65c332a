"""Output checks and the output fingerprint.

Every check returns a list of problems; an empty list means the output
passed. The benchmark reports ``correct: false`` if any check fails.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

OBJECTIVE_TOLERANCE = 1e-9


def check_solve_report(event_id: int, report, qubo, objective) -> list[str]:
    """best_objective equals the objective of best_assignment, and the
    objective trace never increases."""
    problems = []
    if qubo is None:
        return [f"event {event_id}: solve report without a captured objective"]
    recomputed = objective(qubo, report.best_assignment)
    if abs(recomputed - report.best_objective) > OBJECTIVE_TOLERANCE * max(1.0, abs(recomputed)):
        problems.append(f"event {event_id}: best_objective {report.best_objective!r} "
                        f"!= objective(best_assignment) {recomputed!r}")
    trace = report.objective_trace
    for k in range(1, len(trace)):
        if trace[k] > trace[k - 1]:
            problems.append(f"event {event_id}: objective_trace increases at step {k}")
            break
    if report.warning:
        problems.append(f"event {event_id}: solver warning: {report.warning}")
    return problems


def check_tracks(event, tracks, n_layers: int) -> list[str]:
    """Every track has one hit per layer; no two tracks share >= 2 hits."""
    problems = []
    layer_of = {h.hit_id: h.layer for h in event.hits}
    for t in tracks:
        layers = sorted(layer_of.get(h, -1) for h in t.hit_ids)
        if layers != list(range(n_layers)):
            problems.append(f"event {event.event_id}: track {t.track_id} layers {layers}")
    hit_sets = [set(t.hit_ids) for t in tracks]
    for a, b in combinations(range(len(tracks)), 2):
        if len(hit_sets[a] & hit_sets[b]) >= 2:
            problems.append(f"event {event.event_id}: tracks {tracks[a].track_id} and "
                            f"{tracks[b].track_id} share >= 2 hits")
    return problems


def event_digest(result) -> str:
    """SHA-256 of one event's outputs: the selection bits and the sorted
    track hit ids."""
    h = hashlib.sha256()
    bits = "" if result.report is None else "".join(
        str(int(v)) for v in result.report.best_assignment)
    h.update(f"{result.event_id}|{bits}\n".encode())
    for hit_ids in sorted(tuple(t.hit_ids) for t in result.tracks):
        h.update(f"{result.event_id}|{';'.join(map(str, hit_ids))}\n".encode())
    return h.hexdigest()


def fingerprint(digests: dict[int, str]) -> str:
    """SHA-256 over the per-event digests in event id order."""
    h = hashlib.sha256()
    for event_id in sorted(digests):
        h.update(f"{event_id}:{digests[event_id]}\n".encode())
    return h.hexdigest()
