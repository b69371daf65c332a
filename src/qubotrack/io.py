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
from collections.abc import Callable, Iterator
from itertools import islice
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


# rows per block when a table is written or read: enough that the per-call
# costs fade, few enough that a block's strings and columns stay small
BLOCK_ROWS = 256


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


def _write_table(path: Path, header: list[str], rows: Iterator[str]) -> None:
    """Write ``header`` and ``rows``, each one line ending in ``\\r\\n``, in
    blocks of :data:`BLOCK_ROWS` lines: for fields that need no quoting,
    the bytes ``csv.writer`` writes."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        while block := list(islice(rows, BLOCK_ROWS)):
            f.write("".join(block))


def write_hits_csv(path: Path, events: list[Event]) -> None:
    def rows():
        for e in sorted(events, key=lambda e: e.event_id):
            energies = {p.particle_id: f"{p.energy:.9g}" for p in e.particles}
            for h in sorted(e.hits, key=lambda h: h.hit_id):
                x, y, z = h.position
                pid = h.truth_particle_id
                yield (f"{e.event_id},{h.hit_id},{h.layer},{x:.9g},{y:.9g},{z:.9g},"
                       f"{'' if pid is None else pid},{energies.get(pid, '')}\r\n")
    _write_table(path, HITS_HEADER, rows())


def write_particles_csv(path: Path, events: list[Event]) -> None:
    def rows():
        for e in sorted(events, key=lambda e: e.event_id):
            for p in sorted(e.particles, key=lambda p: p.particle_id):
                (ox, oy, oz), (dx, dy, dz) = p.origin, p.direction
                yield (f"{e.event_id},{p.particle_id},{p.energy:.9g},{ox:.9g},{oy:.9g},"
                       f"{oz:.9g},{dx:.9g},{dy:.9g},{dz:.9g}\r\n")
    _write_table(path, PARTICLES_HEADER, rows())


def _row_blocks(path: Path, header: list[str]) -> Iterator[tuple[int, list[list[str]]]]:
    """Each block of up to :data:`BLOCK_ROWS` rows after the header, with
    the line number of its first row. Blank rows are kept: they count."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            found = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected header {header}")
        if found != header:
            raise DataFormatError(f"{path}: bad header {found}, expected {header}")
        line = 2
        while True:
            block: list[list[str]] = []
            try:
                block.extend(islice(reader, BLOCK_ROWS))
            except csv.Error:
                # the rows above an unreadable one are parsed before it fails
                yield line, block
                raise
            if not block:
                return
            yield line, block
            line += len(block)


def _read_table(path: Path, header: list[str],
                parse_block: Callable[[list[list[str]]], bool],
                parse_row: Callable[[list[str], int], None]) -> None:
    """Parse ``path`` a block at a time. ``parse_block(rows)`` gets the
    non-blank rows of a block (at least one), all of the header's width;
    it stores them and returns True only if every row converts and passes
    its checks. A block it turns down, or whose conversion raises
    ``ValueError``, is parsed again row by row with ``parse_row(row,
    line)``, which raises :class:`DataFormatError` naming the first bad
    row."""
    width = len(header)
    for first, block in _row_blocks(path, header):
        rows = list(filter(None, block))
        if not rows:
            continue
        try:
            if set(map(len, rows)) <= {width} and parse_block(rows):
                continue
        except ValueError:
            pass
        for line, row in enumerate(block, start=first):
            if not row:
                continue
            if len(row) != width:
                raise DataFormatError(f"{path}:{line}: expected {width} fields, got {len(row)}")
            parse_row(row, line)


def _finite(*columns: list[float]) -> bool:
    return all(all(map(math.isfinite, c)) for c in columns)


def read_events(hits_path: Path, particles_path: Path,
                xi_label: float = 0.0) -> list[Event]:
    """Rebuild events from the hits and particles files. A hit id listed
    twice within one event, or a hit coordinate or particle value that is
    not finite, raises :class:`DataFormatError`."""
    hits_path, particles_path = Path(hits_path), Path(particles_path)
    particles_by_event: dict[int, list[TruthParticle]] = {}

    def particle_block(rows):
        eid, pid, *columns = zip(*rows)
        eid = list(map(int, eid))
        energy, ox, oy, oz, dx, dy, dz = (list(map(float, c)) for c in columns)
        if not _finite(energy, ox, oy, oz, dx, dy, dz):
            return False
        # the 9-digit print precision is lossy; restore the unit-norm invariant
        norms = [math.sqrt(a * a + b * b + c * c) for a, b, c in zip(dx, dy, dz)]
        if 0.0 in norms:
            return False
        particles = list(map(TruthParticle, map(int, pid), energy, zip(ox, oy, oz),
                             [(a / n, b / n, c / n)
                              for a, b, c, n in zip(dx, dy, dz, norms)]))
        for e, p in zip(eid, particles):
            particles_by_event.setdefault(e, []).append(p)
        return True

    def particle_row(r, line):
        eid = _parse_int(r[0], particles_path, line, "event_id")
        direction = [_parse_float(r[k], particles_path, line, PARTICLES_HEADER[k],
                                  finite=True) for k in (6, 7, 8)]
        norm = math.sqrt(sum(c * c for c in direction))
        if norm == 0.0:
            raise DataFormatError(f"{particles_path}:{line}: zero direction vector")
        particles_by_event.setdefault(eid, []).append(TruthParticle(
            particle_id=_parse_int(r[1], particles_path, line, "particle_id"),
            energy=_parse_float(r[2], particles_path, line, "energy", finite=True),
            origin=tuple(_parse_float(r[k], particles_path, line, PARTICLES_HEADER[k],
                                      finite=True) for k in (3, 4, 5)),
            direction=tuple(c / norm for c in direction),
        ))

    # per event by hit id, which must be unique: pre-selection keys hits on it
    hits_by_event: dict[int, dict[int, Hit]] = {}

    def hit_block(rows):
        eid, hid, layer, x, y, z, pid, _ = zip(*rows)
        eid, hid = list(map(int, eid)), list(map(int, hid))
        x, y, z = (list(map(float, c)) for c in (x, y, z))
        if not _finite(x, y, z):
            return False
        hits = list(map(Hit, hid, map(int, layer), zip(x, y, z),
                        [None if t == "" else int(t) for t in pid]))
        parts: dict[int, dict[int, Hit]] = {}
        for e, h, hit in zip(eid, hid, hits):
            parts.setdefault(e, {})[h] = hit
        if (sum(map(len, parts.values())) != len(hits)
                or not all(hits_by_event.get(e, {}).keys().isdisjoint(part)
                           for e, part in parts.items())):
            return False
        for e, part in parts.items():
            hits_by_event.setdefault(e, {}).update(part)
        return True

    def hit_row(r, line):
        eid = _parse_int(r[0], hits_path, line, "event_id")
        hid = _parse_int(r[1], hits_path, line, "hit_id")
        hits = hits_by_event.setdefault(eid, {})
        if hid in hits:
            raise DataFormatError(
                f"{hits_path}:{line}: duplicate hit id (event_id, hit_id) = ({eid}, {hid})")
        pid = (None if r[6] == ""
               else _parse_int(r[6], hits_path, line, "truth_particle_id"))
        hits[hid] = Hit(
            hit_id=hid,
            layer=_parse_int(r[2], hits_path, line, "layer"),
            position=tuple(_parse_float(r[k], hits_path, line, HITS_HEADER[k], finite=True)
                           for k in (3, 4, 5)),
            truth_particle_id=pid,
        )

    _read_table(particles_path, PARTICLES_HEADER, particle_block, particle_row)
    _read_table(hits_path, HITS_HEADER, hit_block, hit_row)
    event_ids = sorted(set(hits_by_event) | set(particles_by_event))
    return [
        Event(event_id=eid, xi_label=xi_label,
              hits=tuple(hits_by_event.get(eid, {}).values()),
              particles=tuple(particles_by_event.get(eid, ())))
        for eid in event_ids
    ]


def write_tracks_csv(path: Path, tracks: list[TrackRecord]) -> None:
    rows = (f"{t.event_id},{t.track_id},{';'.join(map(str, t.hit_ids))},{t.chi2:.9g},"
            f"{t.ndf},{t.energy:.9g},"
            f"{'' if t.matched_particle_id is None else t.matched_particle_id}\r\n"
            for t in sorted(tracks, key=lambda t: (t.event_id, t.track_id)))
    _write_table(path, TRACKS_HEADER, rows)


def read_tracks_csv(path: Path) -> list[TrackRecord]:
    path = Path(path)
    out: list[TrackRecord] = []

    def track_block(rows):
        eid, tid, hit_ids, chi2, ndf, energy, matched = zip(*rows)
        hit_ids = [tuple(map(int, h.split(";"))) for h in hit_ids]
        if set(map(len, hit_ids)) != {4}:
            return False
        # built in full before any is stored: a failed block is parsed again
        out.extend(list(map(TrackRecord, map(int, eid), map(int, tid), hit_ids,
                            map(float, chi2), map(int, ndf), map(float, energy),
                            [None if t == "" else int(t) for t in matched])))
        return True

    def track_row(r, line):
        hit_ids = tuple(_parse_int(h, path, line, "hit_ids") for h in r[2].split(";"))
        if len(hit_ids) != 4:
            raise DataFormatError(f"{path}:{line}: expected 4 hit ids, got {len(hit_ids)}")
        out.append(TrackRecord(
            event_id=_parse_int(r[0], path, line, "event_id"),
            track_id=_parse_int(r[1], path, line, "track_id"),
            hit_ids=hit_ids,
            chi2=_parse_float(r[3], path, line, "chi2"),
            ndf=_parse_int(r[4], path, line, "ndf"),
            energy=_parse_float(r[5], path, line, "energy"),
            matched_particle_id=(None if r[6] == ""
                                 else _parse_int(r[6], path, line, "matched_particle_id")),
        ))

    _read_table(path, TRACKS_HEADER, track_block, track_row)
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
