"""File formats: hits/particles/tracks CSV, objective dumps, counts and
curve tables, and run metadata JSON.

All floats in CSV files are printed with 9 significant digits; missing
optional fields are empty. The objective dump uses full-precision repr so
it round-trips losslessly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .geometry import Event, Hit, TruthParticle
from .metrics import BinnedValue, TrackRecord
from .preselect import Doublets, Triplets
from .qubo import Qubo

HITS_HEADER = ["event_id", "hit_id", "layer", "x", "y", "z",
               "truth_particle_id", "truth_energy"]
PARTICLES_HEADER = ["event_id", "particle_id", "energy",
                    "ox", "oy", "oz", "dx", "dy", "dz"]
TRACKS_HEADER = ["event_id", "track_id", "hit_ids", "chi2", "ndf",
                 "energy", "matched_particle_id"]


class DataFormatError(ValueError):
    pass


def fmt(x: float) -> str:
    return f"{x:.9g}"


def _parse_float(text: str, path: Path, line: int, column: str,
                 finite: bool = False) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(f"{path}:{line}: bad float in column {column!r}: {text!r}")
    if finite and not math.isfinite(value):
        raise DataFormatError(
            f"{path}:{line}: non-finite value in column {column!r}: {text!r}")
    return value


def _parse_int(text: str, path: Path, line: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataFormatError(f"{path}:{line}: bad integer in column {column!r}: {text!r}")


def write_hits_csv(path: Path, events: list[Event]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(HITS_HEADER)
        for e in sorted(events, key=lambda e: e.event_id):
            particles = {p.particle_id: p for p in e.particles}
            for h in sorted(e.hits, key=lambda h: h.hit_id):
                pid = h.truth_particle_id
                energy = fmt(particles[pid].energy) if pid in particles else ""
                w.writerow([e.event_id, h.hit_id, h.layer,
                            fmt(h.position[0]), fmt(h.position[1]), fmt(h.position[2]),
                            "" if pid is None else pid, energy])


def write_particles_csv(path: Path, events: list[Event]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(PARTICLES_HEADER)
        for e in sorted(events, key=lambda e: e.event_id):
            for p in sorted(e.particles, key=lambda p: p.particle_id):
                w.writerow([e.event_id, p.particle_id, fmt(p.energy),
                            *(fmt(v) for v in p.origin),
                            *(fmt(v) for v in p.direction)])


def _read_rows(path: Path, header: list[str]) -> Iterator[dict]:
    """The rows as dicts of ``header`` and ``_line``, read as they are parsed."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            found = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected header {header}")
        if found != header:
            raise DataFormatError(f"{path}: bad header {found}, expected {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            yield dict(zip(header, row), _line=lineno)


def read_events(hits_path: Path, particles_path: Path,
                xi_label: float = 0.0) -> list[Event]:
    """Rebuild events from the hits and particles files. A hit id listed
    twice within one event, or a hit coordinate or particle value that is
    not finite, raises :class:`DataFormatError`."""
    hits_path, particles_path = Path(hits_path), Path(particles_path)
    particles_by_event: dict[int, list[TruthParticle]] = {}
    for r in _read_rows(particles_path, PARTICLES_HEADER):
        line = r["_line"]
        eid = _parse_int(r["event_id"], particles_path, line, "event_id")
        # the 9-digit print precision is lossy; restore the unit-norm invariant
        direction = [_parse_float(r[k], particles_path, line, k, finite=True)
                     for k in ("dx", "dy", "dz")]
        norm = math.sqrt(sum(c * c for c in direction))
        if norm == 0.0:
            raise DataFormatError(f"{particles_path}:{line}: zero direction vector")
        particles_by_event.setdefault(eid, []).append(TruthParticle(
            particle_id=_parse_int(r["particle_id"], particles_path, line, "particle_id"),
            energy=_parse_float(r["energy"], particles_path, line, "energy", finite=True),
            origin=tuple(_parse_float(r[k], particles_path, line, k, finite=True)
                         for k in ("ox", "oy", "oz")),
            direction=tuple(c / norm for c in direction),
        ))
    # per event by hit id, which must be unique: pre-selection keys hits on it
    hits_by_event: dict[int, dict[int, Hit]] = {}
    for r in _read_rows(hits_path, HITS_HEADER):
        line = r["_line"]
        eid = _parse_int(r["event_id"], hits_path, line, "event_id")
        hid = _parse_int(r["hit_id"], hits_path, line, "hit_id")
        hits = hits_by_event.setdefault(eid, {})
        if hid in hits:
            raise DataFormatError(
                f"{hits_path}:{line}: duplicate hit id (event_id, hit_id) = ({eid}, {hid})")
        pid = (None if r["truth_particle_id"] == ""
               else _parse_int(r["truth_particle_id"], hits_path, line, "truth_particle_id"))
        hits[hid] = Hit(
            hit_id=hid,
            layer=_parse_int(r["layer"], hits_path, line, "layer"),
            position=tuple(_parse_float(r[k], hits_path, line, k, finite=True)
                           for k in ("x", "y", "z")),
            truth_particle_id=pid,
        )
    event_ids = sorted(set(hits_by_event) | set(particles_by_event))
    return [
        Event(event_id=eid, xi_label=xi_label,
              hits=tuple(hits_by_event.get(eid, {}).values()),
              particles=tuple(particles_by_event.get(eid, [])))
        for eid in event_ids
    ]


def write_tracks_csv(path: Path, tracks: list[TrackRecord]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRACKS_HEADER)
        for t in sorted(tracks, key=lambda t: (t.event_id, t.track_id)):
            w.writerow([t.event_id, t.track_id,
                        ";".join(str(h) for h in t.hit_ids),
                        fmt(t.chi2), t.ndf, fmt(t.energy),
                        "" if t.matched_particle_id is None else t.matched_particle_id])


def read_tracks_csv(path: Path) -> list[TrackRecord]:
    path = Path(path)
    out = []
    for r in _read_rows(path, TRACKS_HEADER):
        line = r["_line"]
        hit_ids = tuple(_parse_int(h, path, line, "hit_ids")
                        for h in r["hit_ids"].split(";"))
        if len(hit_ids) != 4:
            raise DataFormatError(f"{path}:{line}: expected 4 hit ids, got {len(hit_ids)}")
        out.append(TrackRecord(
            event_id=_parse_int(r["event_id"], path, line, "event_id"),
            track_id=_parse_int(r["track_id"], path, line, "track_id"),
            hit_ids=hit_ids,
            chi2=_parse_float(r["chi2"], path, line, "chi2"),
            ndf=_parse_int(r["ndf"], path, line, "ndf"),
            energy=_parse_float(r["energy"], path, line, "energy"),
            matched_particle_id=(None if r["matched_particle_id"] == ""
                                 else _parse_int(r["matched_particle_id"], path, line,
                                                 "matched_particle_id")),
        ))
    return out


def write_qubo(path: Path, qubo: Qubo) -> None:
    """Text dump: first line n, then `i a_i` lines, then `i j b_ij` lines
    (nonzero couplings only, i < j, ascending), with lossless float reprs."""
    with open(path, "w") as f:
        f.write(f"{qubo.n}\n")
        for i, a in enumerate(qubo.linear.tolist()):
            f.write(f"{i} {a!r}\n")
        for i, j, b in zip(*(column.tolist() for column in qubo.upper_triangle())):
            f.write(f"{i} {j} {b!r}\n")


def read_qubo(path: Path) -> Qubo:
    """Inverse of :func:`write_qubo`. A malformed dump raises
    :class:`DataFormatError` naming the file and line: a negative count, a
    non-finite coefficient, an index outside 0..n-1, a self-coupling, a
    pair listed twice (in either order) or a variable's linear line listed
    twice. A variable without a linear line raises it naming the variable."""
    path = Path(path)
    with open(path) as f:
        lines = [(lineno, ln.split()) for lineno, ln in enumerate(f, start=1)
                 if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty objective dump")
    first, header = lines[0]
    if len(header) != 1:
        raise DataFormatError(f"{path}:{first}: expected the variable count alone")
    n = _parse_int(header[0], path, first, "n")
    if n < 0:
        raise DataFormatError(f"{path}:{first}: negative variable count {n}")
    linear = np.zeros(n)
    listed = np.zeros(n, dtype=bool)
    pairs: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, parts in lines[1:]:
        if len(parts) not in (2, 3):
            raise DataFormatError(f"{path}:{lineno}: expected 2 or 3 tokens")
        ids = [_parse_int(p, path, lineno, "index") for p in parts[:-1]]
        value = _parse_float(parts[-1], path, lineno, "coefficient")
        if not math.isfinite(value):
            raise DataFormatError(f"{path}:{lineno}: non-finite coefficient {parts[-1]!r}")
        for i in ids:
            if not 0 <= i < n:
                raise DataFormatError(f"{path}:{lineno}: index {i} outside 0..{n - 1}")
        if len(ids) == 1:
            if listed[ids[0]]:
                raise DataFormatError(
                    f"{path}:{lineno}: linear coefficient of variable {ids[0]} listed twice")
            listed[ids[0]] = True
            linear[ids[0]] = value
            continue
        i, j = sorted(ids)
        if i == j:
            raise DataFormatError(f"{path}:{lineno}: self-coupling {i} {j}")
        if (i, j) in seen:
            raise DataFormatError(f"{path}:{lineno}: pair ({i}, {j}) listed twice")
        seen.add((i, j))
        pairs.append((i, j, value))
    missing = np.flatnonzero(~listed)
    if missing.size:
        raise DataFormatError(f"{path}: no linear coefficient for variable {missing[0]}")
    return Qubo(n, linear, *(list(zip(*pairs)) or [(), (), ()]))


def write_counts_csv(path: Path, counts: dict[str, int]) -> None:
    """Measurement histogram `bitstring,count`, variable 0 leftmost."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bitstring", "count"])
        for bitstring in sorted(counts, key=lambda b: (-counts[b], b)):
            w.writerow([bitstring, counts[bitstring]])


def write_curves_csv(path: Path, bins: list[BinnedValue]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bin_lo", "bin_hi", "value", "err_lo", "err_hi"])
        for b in bins:
            w.writerow([fmt(b.bin_lo), fmt(b.bin_hi),
                        "" if b.value is None else fmt(b.value),
                        "" if b.err_lo is None else fmt(b.err_lo),
                        "" if b.err_hi is None else fmt(b.err_hi)])


def write_doublet_debug_csv(path: Path, event_id: int, doublets: Doublets) -> None:
    d = doublets
    layers = np.array([h.layer for h in d.hits], dtype=np.int64)
    columns = (layers[d.inner], d.hit_ids[d.inner], d.hit_ids[d.outer],
               d.theta_xz, d.theta_yz, d.dx_over_x0, d.truth_matched())
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["event_id", "id", "layer_inner", "hit_inner", "hit_outer",
                    "theta_xz", "theta_yz", "dx_over_x0", "truth_matched"])
        for i, (layer, a, b, txz, tyz, r, matched) in enumerate(
                zip(*(c.tolist() for c in columns))):
            w.writerow([event_id, i, layer, a, b, fmt(txz), fmt(tyz), fmt(r),
                        int(matched)])


def write_triplet_debug_csv(path: Path, event_id: int, triplets: Triplets) -> None:
    index = triplets.hit_index()
    layers = np.array([h.layer for h in triplets.doublets.hits], dtype=np.int64)
    _, matched = triplets.truth_particle_ids()
    columns = (layers[index[:, 0]], layers[index[:, 2]],
               triplets.doublets.hit_ids[index], triplets.delta_theta, matched)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["event_id", "id", "span_first", "span_last",
                    "hit_ids", "delta_theta", "truth_matched"])
        for i, (first, last, ids, dt, m) in enumerate(zip(*(c.tolist() for c in columns))):
            w.writerow([event_id, i, first, last, ";".join(str(h) for h in ids),
                        fmt(dt), int(m)])


def config_hash(config_dict: dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)
