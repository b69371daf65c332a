"""File formats: hits/particles/tracks CSV, objective dumps, counts and
curve tables, and run metadata JSON.

All floats in CSV files are printed with 9 significant digits; missing
optional fields are empty. The objective dump uses full-precision repr so
it round-trips losslessly. Every CSV table is written by one function, so
line ends (``\\r\\n``) and quoting (none: no field holds a comma, quote or
line end) are decided in one place.

Each input table is declared once: the kind of each header column
(integers are signed 64-bit), and one rule across fields or rows (a layer
the detector has and a hit id unique within its event; a positive
particle energy and a direction that normalises; four hit ids). One
reader reads them all, a block of lines at a time: NumPy's text parser
(``np.loadtxt``) converts a block's integer and float columns in C and
gives the other columns to Python's ``int()`` as text. A block it cannot
take (a quote, a field that does not convert, a line longer than the csv
module's field limit) is split by ``csv.reader`` and read row by row; a
bad row raises ``DataFormatError("path:line: message")`` naming the first
bad row by line, then its first bad field in header order, then the
table's rule. Each block of a table is written with one ``%`` format.

Events are read and written as columns (:class:`~qubotrack.geometry.Hits`,
:class:`~qubotrack.geometry.Particles`), never one object per row: the
hits and particles tables go into per-block arrays, and one stable argsort
by event id splits them into events, keeping file order within each.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from collections.abc import Callable, Iterator
from itertools import chain, count, islice, repeat
from pathlib import Path

import numpy as np

from .geometry import N_LAYERS, Event, Hits, Particles, particle_fault
from .metrics import BinnedValue, TrackRecord
from .preselect import Doublets, Triplets
from .qubo import Qubo

# the kinds of an input column: how each of its fields converts
INT, OPTIONAL_INT, FLOAT, FINITE, HIT_IDS, TEXT, IGNORED = (
    "int", "optional int", "float", "finite float", "';'-joined hit ids", "text", "ignored")

INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1  # the integer kinds' range

HITS_COLUMNS = {"event_id": INT, "hit_id": INT, "layer": INT, "x": FINITE, "y": FINITE,
                "z": FINITE, "truth_particle_id": OPTIONAL_INT, "truth_energy": IGNORED}
PARTICLES_COLUMNS = {"event_id": INT, "particle_id": INT, "energy": FINITE,
                     "ox": FINITE, "oy": FINITE, "oz": FINITE,
                     "dx": FINITE, "dy": FINITE, "dz": FINITE}
COUNTS_COLUMNS = {"bitstring": TEXT, "count": INT}
TRACKS_COLUMNS = {"event_id": INT, "track_id": INT, "hit_ids": HIT_IDS, "chi2": FLOAT,
                  "ndf": INT, "energy": FLOAT, "matched_particle_id": OPTIONAL_INT}
HITS_HEADER = list(HITS_COLUMNS)
PARTICLES_HEADER = list(PARTICLES_COLUMNS)
TRACKS_HEADER = list(TRACKS_COLUMNS)


# rows per block when a table is written or read: enough that the per-call
# costs fade, few enough that a block's strings and columns stay small
BLOCK_ROWS = 256

# how NumPy's text parser reads each kind: integers and floats in C, the
# other kinds as text that Python converts (an ignored column's text is cut
# to one character)
_NUMERIC = {INT: np.int64, FLOAT: np.float64, FINITE: np.float64}
_PARSED = {**_NUMERIC, OPTIONAL_INT: object, HIT_IDS: object, TEXT: object, IGNORED: "U1"}
# what sends a block to csv.reader: a quote, a NUL, and the separators
# that NumPy's parser strips from a number as blanks but int() and
# float() reject
_ROW_BY_ROW = '"\0\x1c\x1d\x1e\x1f'


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
    if kind == TEXT:
        return text
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
    if integer and not INT64_MIN <= value <= INT64_MAX:
        raise DataFormatError(f"{where}: integer out of range in column {column!r}: "
                              f"{text!r}")
    return value


def _write_table(path: Path, header: list[str], row_format: str,
                 rows: Iterator[tuple]) -> None:
    """Write ``header`` and ``rows``, each a tuple of the values that
    ``row_format`` prints as comma-joined fields needing no quoting, with
    lines ending in ``\\r\\n``: the bytes ``csv.writer`` writes. Each block
    of :data:`BLOCK_ROWS` rows is printed by one ``%``."""
    line = row_format + "\r\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        while block := list(islice(rows, BLOCK_ROWS)):
            f.write((line * len(block)) % tuple(chain.from_iterable(block)))


def write_hits_csv(path: Path, events: list[Event]) -> None:
    """The hits of ``events`` by event id, each event's by hit id (both
    sorts stable), with the truth particle's energy (the last particle
    listed with its id) or empty."""
    def rows():
        for e in sorted(events, key=lambda e: e.event_id):
            p, h = e.particles, e.hits
            energies = dict(zip(p.ids.tolist(), ("%.9g" % v for v in p.energies.tolist())))
            order = np.argsort(h.ids, kind="stable")
            truth = [t if k else "" for t, k in zip(h.truth[order].tolist(),
                                                    h.known[order].tolist())]
            yield from zip(repeat(e.event_id), h.ids[order].tolist(), h.layers[order].tolist(),
                           *h.positions[order].T.tolist(), truth,
                           [energies.get(t, "") for t in truth])
    _write_table(path, HITS_HEADER, "%d,%d,%d,%.9g,%.9g,%.9g,%s,%s", rows())


def write_particles_csv(path: Path, events: list[Event]) -> None:
    """The particles of ``events`` by event id, each event's by particle id
    (both sorts stable)."""
    def rows():
        for e in sorted(events, key=lambda e: e.event_id):
            p = e.particles
            order = np.argsort(p.ids, kind="stable")
            yield from zip(repeat(e.event_id), p.ids[order].tolist(),
                           p.energies[order].tolist(), *p.origins[order].T.tolist(),
                           *p.directions[order].T.tolist())
    _write_table(path, PARTICLES_HEADER, "%d,%d" + ",%.9g" * 7, rows())


def _column(parsed: np.ndarray, kind: str) -> np.ndarray | list:
    """A column of a block as NumPy's parser returned it, converted as
    :func:`_field` converts each field: a numeric kind as an array of its
    own, the others as a list. Raises ``ValueError`` if a field does not
    convert."""
    if kind == FINITE and not np.isfinite(parsed).all():
        raise ValueError("non-finite value")
    if kind in _NUMERIC:
        return np.ascontiguousarray(parsed)
    texts = parsed.tolist()
    if kind == TEXT:
        return texts
    if kind == OPTIONAL_INT:
        values = [None if t == "" else int(t) for t in texts]
        ints = [v for v in values if v is not None]
    else:
        values = [tuple(map(int, t.split(";"))) for t in texts]
        ints = [i for ids in values for i in ids]
    if ints and not (INT64_MIN <= min(ints) and max(ints) <= INT64_MAX):
        raise ValueError("integer out of range")
    return values


def _parse_block(lines: list[str], dtype: np.dtype, kept: list[tuple[int, str, str]]):
    """The non-blank lines of a block as converted columns in ``kept``
    order, parsed by NumPy's text parser; or None if the block must be
    read row by row: it holds a character of :data:`_ROW_BY_ROW` or a line
    longer than csv's field size limit, or the parser or a column's
    conversion rejects it (a parser warning counts)."""
    text = "".join(lines)
    if any(c in text for c in _ROW_BY_ROW) or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the parser skips the blank lines, as csv.reader does, and no others
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        return [_column(table[str(k)], kind) for k, _, kind in kept]
    except (ValueError, Warning):
        return None


def _read_table(path: Path, columns: dict[str, str],
                store: Callable[..., tuple[int, str] | None]) -> None:
    """Read the table whose header ``columns`` maps to each column's kind.
    ``store`` gets a block's non-blank rows as converted columns, in header
    order and without the ignored ones: int64 or float64 arrays for the
    numeric kinds, lists for the others. It stores the rows and returns
    None, or returns ``(i, message)`` for the first row ``i`` that breaks
    the table's rule, which fails the read. A block that NumPy's parser
    cannot take (:func:`_parse_block`) is split by ``csv.reader`` and read
    by :func:`_read_rows`, so the error names the first bad row; a row
    ``csv.reader`` cannot split fails the read there."""
    header, width = list(columns), len(columns)
    kept = [(k, column, kind) for k, (column, kind) in enumerate(columns.items())
            if kind != IGNORED]
    dtype = np.dtype([(str(k), _PARSED[kind]) for k, kind in enumerate(columns.values())])
    with open(path, newline="") as f:
        try:
            found = next(csv.reader(f))
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, expected header {header}") from None
        except csv.Error as exc:
            raise DataFormatError(f"{path}:1: {exc}") from None
        if found != header:
            raise DataFormatError(f"{path}: bad header {found}, expected {header}")
        first = 2
        while lines := list(islice(f, BLOCK_ROWS)):
            values = _parse_block(lines, dtype, kept)
            if values is not None:
                bad = store(*values)
                if bad is not None:
                    line = [line for line, text in enumerate(lines, first)
                            if text not in ("\n", "\r\n", "\r")][bad[0]]
                    raise DataFormatError(f"{path}:{line}: {bad[1]}")
            else:
                _read_rows(path, csv.reader(chain(lines, f)), range(first, first + len(lines)),
                           width, kept, store)
            first += len(lines)


def _read_rows(path: Path, rows: Iterator[list[str]], lines: range, width: int,
               kept: list[tuple[int, str, str]],
               store: Callable[..., tuple[int, str] | None]) -> None:
    """Read a block row by row: a row from ``rows`` for each of ``lines``
    (a quoted field may run on to lines after the block), each row's
    fields converted by :func:`_field` up to the first row that fails. The
    rows above it go to ``store`` in one call, so a row of them that breaks
    the table's rule is named before the failing row."""
    fields, wheres, error = [], [], None
    for line in lines:
        where = f"{path}:{line}"
        try:
            row = next(rows, [])
            if not row:
                continue
            if len(row) != width:
                raise DataFormatError(f"{where}: expected {width} fields, got {len(row)}")
            fields.append([_field(row[k], kind, column, where) for k, column, kind in kept])
        except csv.Error as exc:
            error = DataFormatError(f"{where}: {exc}")
            break
        except DataFormatError as exc:
            error = exc
            break
        wheres.append(where)
    if fields:
        bad = store(*(np.array(values, _NUMERIC[kind]) if kind in _NUMERIC else list(values)
                      for values, (_, _, kind) in zip(zip(*fields), kept)))
        if bad is not None:
            raise DataFormatError(f"{wheres[bad[0]]}: {bad[1]}")
    if error is not None:
        raise error from None


def _by_event(columns: list[list[np.ndarray]], table: type) -> dict:
    """A ``table`` (:class:`Hits` or :class:`Particles`) per event id of
    the stored columns (event ids first, one array per block each), its
    rows in file order: one stable argsort by event id, then a slice per
    event. A column's blocks are let go as soon as they are joined."""
    if not columns[0]:
        return {}
    for k, blocks in enumerate(columns):
        columns[k] = np.concatenate(blocks)
    if np.any(columns[0][1:] < columns[0][:-1]):
        order = np.argsort(columns[0], kind="stable")
        for k, column in enumerate(columns):
            columns[k] = column[order]
    eid, *columns = columns
    bounds = [0, *(np.flatnonzero(eid[1:] != eid[:-1]) + 1).tolist(), len(eid)]
    return {int(eid[a]): table(*(c[a:b] for c in columns))
            for a, b in zip(bounds, bounds[1:])}


def read_events(hits_path: Path, particles_path: Path,
                xi_label: float = 0.0) -> list[Event]:
    """Rebuild events from the hits and particles files, each event's rows
    in file order, as columns. A hit on a layer outside 0..N_LAYERS-1, a
    hit id listed twice within one event, a particle energy that is not
    positive, a particle direction that is zero or does not normalise (to
    1 within 1e-12), or a hit coordinate or particle value that is not
    finite, raises :class:`DataFormatError`."""
    particles: list[list[np.ndarray]] = [[] for _ in range(5)]  # one array per block

    def store_particles(eid, pid, energy, ox, oy, oz, dx, dy, dz):
        d = np.array([dx, dy, dz]).T
        # the 9-digit print precision is lossy; restore the unit-norm invariant
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            norm = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])
            unit = d / norm[:, None]
        fault = particle_fault(energy, unit)
        if fault is not None:
            i, message = fault
            if energy[i] > 0:
                message = ("zero direction vector" if norm[i] == 0.0 else
                           f"direction does not normalize: |d| = {float(norm[i])!r}")
            return i, message
        for column, values in zip(particles, (eid, pid, energy, np.array([ox, oy, oz]).T,
                                              unit)):
            column.append(values)

    hits: list[list[np.ndarray]] = [[] for _ in range(6)]  # one array per block
    # each event's hit ids so far, as sorted runs, each more than twice as long
    # as the next: a block is checked against every run, then merged with
    # the last runs while they are at most twice its length (so reading
    # stays O(n log n) however large an event)
    seen: dict[int, list[np.ndarray]] = {}

    def store_hits(eid, hid, layer, x, y, z, pid):
        taken = np.zeros(len(hid), dtype=bool)  # the rows whose hit id an earlier row has
        for e in np.unique(eid).tolist():
            rows = np.flatnonzero(eid == e)
            ids, runs = hid[rows], seen.setdefault(e, [])
            order = np.argsort(ids, kind="stable")
            run = ids[order]
            again = np.zeros(len(ids), dtype=bool)
            again[order[1:]] = run[1:] == run[:-1]
            for before in runs:
                again |= before[np.minimum(np.searchsorted(before, ids), len(before) - 1)] == ids
            taken[rows] = again
            while runs and len(runs[-1]) <= 2 * len(run):
                run = np.sort(np.concatenate([runs.pop(), run]), kind="stable")
            runs.append(run)
        off = (layer < 0) | (layer >= N_LAYERS)  # a layer the detector does not have
        if off.any() or taken.any():
            i = int(np.argmax(off | taken))
            if off[i]:
                return i, f"layer {layer[i]} outside 0..{N_LAYERS - 1}"
            return i, f"duplicate hit id (event_id, hit_id) = ({eid[i]}, {hid[i]})"
        for column, values in zip(hits, (eid, hid, layer, np.array([x, y, z]).T,
                                         np.array([p or 0 for p in pid], dtype=np.int64),
                                         np.array([p is not None for p in pid]))):
            column.append(values)

    _read_table(Path(particles_path), PARTICLES_COLUMNS, store_particles)
    _read_table(Path(hits_path), HITS_COLUMNS, store_hits)
    hits_by_event = _by_event(hits, Hits)
    particles_by_event = _by_event(particles, Particles)
    no_hits, no_particles = Hits.of(()), Particles.of(())
    return [Event(eid, xi_label, hits_by_event.get(eid, no_hits),
                  particles_by_event.get(eid, no_particles))
            for eid in sorted(hits_by_event.keys() | particles_by_event.keys())]


def write_tracks_csv(path: Path, tracks: list[TrackRecord]) -> None:
    rows = ((t.event_id, t.track_id, ";".join(map(str, t.hit_ids)), t.chi2, t.ndf, t.energy,
             "" if t.matched_particle_id is None else t.matched_particle_id)
            for t in sorted(tracks, key=lambda t: (t.event_id, t.track_id)))
    _write_table(path, TRACKS_HEADER, "%s,%s,%s,%.9g,%s,%.9g,%s", rows)


def read_tracks_csv(path: Path) -> list[TrackRecord]:
    out: list[TrackRecord] = []

    def store_tracks(eid, tid, hit_ids, chi2, ndf, energy, matched):
        for i, ids in enumerate(hit_ids):
            if len(ids) != 4:
                return i, f"expected 4 hit ids, got {len(ids)}"
        out.extend(map(TrackRecord, eid.tolist(), tid.tolist(), hit_ids, chi2.tolist(),
                       ndf.tolist(), energy.tolist(), matched))

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
    _write_table(path, list(COUNTS_COLUMNS), "%s,%s",
                 ((b, counts[b]) for b in sorted(counts, key=lambda b: (-counts[b], b))))


def read_counts_csv(path: Path) -> list[tuple[str, int]]:
    """The (bitstring, count) rows of a histogram, in file order."""
    out: list[tuple[str, int]] = []
    _read_table(Path(path), COUNTS_COLUMNS,
                lambda bits, counts: out.extend(zip(bits, counts.tolist())))
    return out


def write_curves_csv(path: Path, bins: list[BinnedValue]) -> None:
    def text(x: float | None) -> str:
        return "" if x is None else fmt(x)
    _write_table(path, ["bin_lo", "bin_hi", "value", "err_lo", "err_hi"], "%s,%s,%s,%s,%s",
                 (tuple(map(text, (b.bin_lo, b.bin_hi, b.value, b.err_lo, b.err_hi)))
                  for b in bins))


def write_doublet_debug_csv(path: Path, event_id: int, doublets: Doublets) -> None:
    d = doublets
    layers = d.hits.layers
    columns = (layers[d.inner], d.hit_ids[d.inner], d.hit_ids[d.outer],
               d.theta_xz, d.theta_yz, d.dx_over_x0, d.truth_matched())
    _write_table(path, ["event_id", "id", "layer_inner", "hit_inner", "hit_outer",
                        "theta_xz", "theta_yz", "dx_over_x0", "truth_matched"],
                 "%s,%d,%d,%d,%d,%.9g,%.9g,%.9g,%d",
                 zip(repeat(event_id), count(), *(c.tolist() for c in columns)))


def write_triplet_debug_csv(path: Path, event_id: int, triplets: Triplets) -> None:
    index = triplets.hit_index()
    layers = triplets.doublets.hits.layers
    _, matched = triplets.truth_particle_ids()
    first, last, hit_ids, delta_theta, matched = (
        c.tolist() for c in (layers[index[:, 0]], layers[index[:, 2]],
                             triplets.doublets.hit_ids[index], triplets.delta_theta, matched))
    _write_table(path, ["event_id", "id", "span_first", "span_last",
                        "hit_ids", "delta_theta", "truth_matched"],
                 "%s,%d,%d,%d,%s,%.9g,%d",
                 zip(repeat(event_id), count(), first, last,
                     (";".join(map(str, ids)) for ids in hit_ids), delta_theta, matched))


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
