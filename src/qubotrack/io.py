"""File formats: hits/particles/tracks CSV, objective dumps, counts and
curve tables, and run metadata JSON.

All floats in CSV files are printed with 9 significant digits; missing
optional fields are empty. The objective dump uses full-precision repr so
it round-trips losslessly. Every CSV table is written by one function, so
line ends (``\\r\\n``) and quoting (none: no field holds a comma, quote or
line end) are decided in one place.

Each input table is declared once: the kind of each header column, and one
rule across fields or rows (a hit id unique within its event, a nonzero
direction, four hit ids). One reader reads them all, a block of rows at a
time, converting each column of a block in bulk. A block that does not
convert is read again row by row; a bad row raises
``DataFormatError("path:line: message")`` naming the first bad row by
line, then its first bad field in header order, then the table's rule.
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

# the kinds of an input column: how each of its fields converts
INT, OPTIONAL_INT, FLOAT, FINITE, HIT_IDS, IGNORED = (
    "int", "optional int", "float", "finite float", "';'-joined hit ids", "ignored")

HITS_COLUMNS = {"event_id": INT, "hit_id": INT, "layer": INT, "x": FINITE, "y": FINITE,
                "z": FINITE, "truth_particle_id": OPTIONAL_INT, "truth_energy": IGNORED}
PARTICLES_COLUMNS = {"event_id": INT, "particle_id": INT, "energy": FINITE,
                     "ox": FINITE, "oy": FINITE, "oz": FINITE,
                     "dx": FINITE, "dy": FINITE, "dz": FINITE}
TRACKS_COLUMNS = {"event_id": INT, "track_id": INT, "hit_ids": HIT_IDS, "chi2": FLOAT,
                  "ndf": INT, "energy": FLOAT, "matched_particle_id": OPTIONAL_INT}
HITS_HEADER = list(HITS_COLUMNS)
PARTICLES_HEADER = list(PARTICLES_COLUMNS)
TRACKS_HEADER = list(TRACKS_COLUMNS)


# rows per block when a table is written or read: enough that the per-call
# costs fade, few enough that a block's strings and columns stay small
BLOCK_ROWS = 256


class DataFormatError(ValueError):
    pass


def fmt(x: float) -> str:
    return f"{x:.9g}"


def _field(text: str, kind: str, column: str, where: str):
    """``text`` converted as a field of ``kind``. One that does not convert
    raises :class:`DataFormatError` at ``where`` (``path:line``) naming the
    column and the text; of hit ids, the first id that does not."""
    if kind == HIT_IDS:
        return tuple(_field(t, INT, column, where) for t in text.split(";"))
    if kind == OPTIONAL_INT and text == "":
        return None
    integer = kind in (INT, OPTIONAL_INT)
    try:
        value = int(text) if integer else float(text)
    except ValueError:
        raise DataFormatError(f"{where}: bad {'integer' if integer else 'float'} "
                              f"in column {column!r}: {text!r}") from None
    if kind == FINITE and not math.isfinite(value):
        raise DataFormatError(f"{where}: non-finite value in column {column!r}: {text!r}")
    return value


def _column(texts: tuple[str, ...], kind: str) -> list:
    """A block's column converted in bulk, field by field as :func:`_field`
    converts it; raises ``ValueError`` if any field does not convert."""
    if kind == INT:
        return list(map(int, texts))
    if kind == OPTIONAL_INT:
        return [None if t == "" else int(t) for t in texts]
    if kind == HIT_IDS:
        return [tuple(map(int, t.split(";"))) for t in texts]
    values = list(map(float, texts))
    if kind == FINITE and not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")
    return values


def _write_table(path: Path, header: list[str], rows: Iterator[str]) -> None:
    """Write ``header`` and ``rows``, each a line of comma-joined fields
    that need no quoting, in blocks of :data:`BLOCK_ROWS` lines ending in
    ``\\r\\n``: the bytes ``csv.writer`` writes."""
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        while block := list(islice(rows, BLOCK_ROWS)):
            f.write("\r\n".join(block) + "\r\n")


def write_hits_csv(path: Path, events: list[Event]) -> None:
    def rows():
        for e in sorted(events, key=lambda e: e.event_id):
            energies = {p.particle_id: f"{p.energy:.9g}" for p in e.particles}
            for h in sorted(e.hits, key=lambda h: h.hit_id):
                x, y, z = h.position
                pid = h.truth_particle_id
                yield (f"{e.event_id},{h.hit_id},{h.layer},{x:.9g},{y:.9g},{z:.9g},"
                       f"{'' if pid is None else pid},{energies.get(pid, '')}")
    _write_table(path, HITS_HEADER, rows())


def write_particles_csv(path: Path, events: list[Event]) -> None:
    def rows():
        for e in sorted(events, key=lambda e: e.event_id):
            for p in sorted(e.particles, key=lambda p: p.particle_id):
                (ox, oy, oz), (dx, dy, dz) = p.origin, p.direction
                yield (f"{e.event_id},{p.particle_id},{p.energy:.9g},{ox:.9g},{oy:.9g},"
                       f"{oz:.9g},{dx:.9g},{dy:.9g},{dz:.9g}")
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


def _read_table(path: Path, columns: dict[str, str],
                store: Callable[..., tuple[int, str] | None]) -> None:
    """Read the table whose header ``columns`` maps to each column's kind.
    ``store`` gets a block's non-blank rows as converted columns, in header
    order and without the ignored ones. It stores the rows and returns
    None, or returns ``(i, message)`` for the first row ``i`` that breaks
    the table's rule, which fails the read. A block with a field that does
    not convert goes to ``store`` one row at a time, after that row's
    fields convert, so the error names the first bad row."""
    header, width = list(columns), len(columns)
    kept = [(k, column, kind) for k, (column, kind) in enumerate(columns.items())
            if kind != IGNORED]
    for first, block in _row_blocks(path, header):
        rows = list(filter(None, block))
        try:
            if set(map(len, rows)) != {width}:
                raise ValueError("wrong field count")
            texts = list(zip(*rows))
            values = [_column(texts[k], kind) for k, _, kind in kept]
        except ValueError:
            pass
        else:
            bad = store(*values)
            if bad is None:
                continue
            line = [line for line, row in enumerate(block, first) if row][bad[0]]
            raise DataFormatError(f"{path}:{line}: {bad[1]}")
        for line, row in enumerate(block, first):
            if not row:
                continue
            where = f"{path}:{line}"
            if len(row) != width:
                raise DataFormatError(f"{where}: expected {width} fields, got {len(row)}")
            bad = store(*([_field(row[k], kind, column, where)] for k, column, kind in kept))
            if bad is not None:
                raise DataFormatError(f"{where}: {bad[1]}")


def read_events(hits_path: Path, particles_path: Path,
                xi_label: float = 0.0) -> list[Event]:
    """Rebuild events from the hits and particles files. A hit id listed
    twice within one event, a zero particle direction, or a hit coordinate
    or particle value that is not finite, raises :class:`DataFormatError`."""
    particles_by_event: dict[int, list[TruthParticle]] = {}

    def store_particles(eid, pid, energy, ox, oy, oz, dx, dy, dz):
        # the 9-digit print precision is lossy; restore the unit-norm invariant
        norms = [math.sqrt(a * a + b * b + c * c) for a, b, c in zip(dx, dy, dz)]
        if 0.0 in norms:
            return norms.index(0.0), "zero direction vector"
        particles = map(TruthParticle, pid, energy, zip(ox, oy, oz),
                        [(a / n, b / n, c / n) for a, b, c, n in zip(dx, dy, dz, norms)])
        for e, p in zip(eid, particles):
            particles_by_event.setdefault(e, []).append(p)

    # per event by hit id, which must be unique: pre-selection keys hits on it
    hits_by_event: dict[int, dict[int, Hit]] = {}

    def store_hits(eid, hid, layer, x, y, z, pid):
        hits = map(Hit, hid, layer, zip(x, y, z), pid)
        last = None
        for i, (e, h, hit) in enumerate(zip(eid, hid, hits)):
            if e != last:
                stored, last = hits_by_event.setdefault(e, {}), e
            if h in stored:
                return i, f"duplicate hit id (event_id, hit_id) = ({e}, {h})"
            stored[h] = hit

    _read_table(Path(particles_path), PARTICLES_COLUMNS, store_particles)
    _read_table(Path(hits_path), HITS_COLUMNS, store_hits)
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
            f"{'' if t.matched_particle_id is None else t.matched_particle_id}"
            for t in sorted(tracks, key=lambda t: (t.event_id, t.track_id)))
    _write_table(path, TRACKS_HEADER, rows)


def read_tracks_csv(path: Path) -> list[TrackRecord]:
    out: list[TrackRecord] = []

    def store_tracks(eid, tid, hit_ids, chi2, ndf, energy, matched):
        for i, ids in enumerate(hit_ids):
            if len(ids) != 4:
                return i, f"expected 4 hit ids, got {len(ids)}"
        out.extend(map(TrackRecord, eid, tid, hit_ids, chi2, ndf, energy, matched))

    _read_table(Path(path), TRACKS_COLUMNS, store_tracks)
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
    n = _field(header[0], INT, "n", f"{path}:{first}")
    if n < 0:
        raise DataFormatError(f"{path}:{first}: negative variable count {n}")
    linear = np.zeros(n)
    listed = np.zeros(n, dtype=bool)
    pairs: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, parts in lines[1:]:
        where = f"{path}:{lineno}"
        if len(parts) not in (2, 3):
            raise DataFormatError(f"{where}: expected 2 or 3 tokens")
        ids = [_field(p, INT, "index", where) for p in parts[:-1]]
        value = _field(parts[-1], FLOAT, "coefficient", where)
        if not math.isfinite(value):
            raise DataFormatError(f"{where}: non-finite coefficient {parts[-1]!r}")
        for i in ids:
            if not 0 <= i < n:
                raise DataFormatError(f"{where}: index {i} outside 0..{n - 1}")
        if len(ids) == 1:
            if listed[ids[0]]:
                raise DataFormatError(
                    f"{where}: linear coefficient of variable {ids[0]} listed twice")
            listed[ids[0]] = True
            linear[ids[0]] = value
            continue
        i, j = sorted(ids)
        if i == j:
            raise DataFormatError(f"{where}: self-coupling {i} {j}")
        if (i, j) in seen:
            raise DataFormatError(f"{where}: pair ({i}, {j}) listed twice")
        seen.add((i, j))
        pairs.append((i, j, value))
    missing = np.flatnonzero(~listed)
    if missing.size:
        raise DataFormatError(f"{path}: no linear coefficient for variable {missing[0]}")
    return Qubo(n, linear, *(list(zip(*pairs)) or [(), (), ()]))


def write_counts_csv(path: Path, counts: dict[str, int]) -> None:
    """Measurement histogram `bitstring,count`, variable 0 leftmost."""
    _write_table(path, ["bitstring", "count"],
                 (f"{b},{counts[b]}" for b in sorted(counts, key=lambda b: (-counts[b], b))))


def write_curves_csv(path: Path, bins: list[BinnedValue]) -> None:
    def text(x: float | None) -> str:
        return "" if x is None else fmt(x)
    _write_table(path, ["bin_lo", "bin_hi", "value", "err_lo", "err_hi"],
                 (",".join(map(text, (b.bin_lo, b.bin_hi, b.value, b.err_lo, b.err_hi)))
                  for b in bins))


def write_doublet_debug_csv(path: Path, event_id: int, doublets: Doublets) -> None:
    d = doublets
    layers = np.array([h.layer for h in d.hits], dtype=np.int64)
    columns = (layers[d.inner], d.hit_ids[d.inner], d.hit_ids[d.outer],
               d.theta_xz, d.theta_yz, d.dx_over_x0, d.truth_matched())
    _write_table(path, ["event_id", "id", "layer_inner", "hit_inner", "hit_outer",
                        "theta_xz", "theta_yz", "dx_over_x0", "truth_matched"],
                 (f"{event_id},{i},{layer},{a},{b},{txz:.9g},{tyz:.9g},{r:.9g},{matched:d}"
                  for i, (layer, a, b, txz, tyz, r, matched)
                  in enumerate(zip(*(c.tolist() for c in columns)))))


def write_triplet_debug_csv(path: Path, event_id: int, triplets: Triplets) -> None:
    index = triplets.hit_index()
    layers = np.array([h.layer for h in triplets.doublets.hits], dtype=np.int64)
    _, matched = triplets.truth_particle_ids()
    columns = (layers[index[:, 0]], layers[index[:, 2]],
               triplets.doublets.hit_ids[index], triplets.delta_theta, matched)
    _write_table(path, ["event_id", "id", "span_first", "span_last",
                        "hit_ids", "delta_theta", "truth_matched"],
                 (f"{event_id},{i},{first},{last},{';'.join(map(str, ids))},{dt:.9g},{m:d}"
                  for i, (first, last, ids, dt, m)
                  in enumerate(zip(*(c.tolist() for c in columns)))))


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
