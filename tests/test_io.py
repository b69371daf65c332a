import csv
import math
import random
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import HitRow, column_values, event_of, random_qubo
from qubotrack import io
from qubotrack.fastsim import SimConfig, generate_event
from qubotrack.geometry import Hits
from qubotrack.io import (HITS_HEADER, PARTICLES_HEADER, TRACKS_HEADER, DataFormatError,
                          config_hash, fmt, read_counts_csv,
                          read_events, read_qubo, read_tracks_csv, write_counts_csv,
                          write_curves_csv, write_doublet_debug_csv,
                          write_hits_csv, write_particles_csv, write_qubo,
                          write_tracks_csv, write_triplet_debug_csv)
from qubotrack.metrics import BinnedValue, TrackRecord, build_report
from qubotrack.qubo import Qubo, objective


def test_fmt_nine_significant_digits():
    assert fmt(0.1234567891234) == "0.123456789"
    assert fmt(1.0) == "1"
    assert fmt(5e-6) == "5e-06"
    assert fmt(float("nan")) == "nan"


def test_events_round_trip(tmp_path, geometry):
    sim = SimConfig(mean_multiplicity=20, rng_seed=2)
    events = [generate_event(sim, geometry, i) for i in range(3)]
    write_hits_csv(tmp_path / "hits.csv", events)
    write_particles_csv(tmp_path / "particles.csv", events)
    loaded = read_events(tmp_path / "hits.csv", tmp_path / "particles.csv")
    assert len(loaded) == 3
    for orig, back in zip(events, loaded):
        assert back.event_id == orig.event_id
        assert len(back.hits) == len(orig.hits)
        assert len(back.particles) == len(orig.particles)
        for ho, hb in zip(sorted(orig.hits, key=lambda h: h.hit_id), back.hits):
            assert hb.hit_id == ho.hit_id and hb.layer == ho.layer
            assert hb.truth_particle_id == ho.truth_particle_id
            for a, b in zip(ho.position, hb.position):
                assert b == pytest.approx(a, rel=1e-8)


def test_empty_events_file_valid(tmp_path):
    write_hits_csv(tmp_path / "hits.csv", [])
    write_particles_csv(tmp_path / "particles.csv", [])
    assert read_events(tmp_path / "hits.csv", tmp_path / "particles.csv") == []
    assert (tmp_path / "hits.csv").read_text().startswith("event_id,hit_id,layer")


def test_malformed_row_names_file_and_line(tmp_path):
    path = tmp_path / "hits.csv"
    path.write_text("event_id,hit_id,layer,x,y,z,truth_particle_id,truth_energy\n"
                    "0,0,0,bogus,0,1.0,,\n")
    with pytest.raises(DataFormatError, match=r"hits\.csv:2"):
        read_events(path, path_particles(tmp_path))
    # rows are parsed as they are read; a short row still names its line
    path.write_text("event_id,hit_id,layer,x,y,z,truth_particle_id,truth_energy\n"
                    "0,0,0,0.03,0,1.0,,\n\n0,1,1,0.036,0,1.1,\n")
    with pytest.raises(DataFormatError, match=r"hits\.csv:4: expected 8 fields, got 7"):
        read_events(path, path_particles(tmp_path))
    path.write_text("")
    with pytest.raises(DataFormatError, match=r"hits\.csv: empty file"):
        read_events(path, path_particles(tmp_path))


def test_duplicate_hit_id_names_file_line_and_key(tmp_path):
    path = tmp_path / "hits.csv"
    rows = ["0,5,0,0.03,0,1.0,,", "1,5,0,0.03,0,1.0,,", "0,5,1,0.036,0,1.1,,"]
    path.write_text("event_id,hit_id,layer,x,y,z,truth_particle_id,truth_energy\n"
                    + "".join(r + "\n" for r in rows[:2]))
    # the same hit id in two events is fine
    assert [len(e.hits) for e in read_events(path, path_particles(tmp_path))] == [1, 1]
    path.write_text(path.read_text() + rows[2] + "\n")
    with pytest.raises(DataFormatError,
                       match=r"hits\.csv:4: duplicate hit id .*\(0, 5\)"):
        read_events(path, path_particles(tmp_path))


@pytest.mark.parametrize("column, text", [("x", "nan"), ("y", "inf"), ("z", "-Infinity")])
def test_non_finite_hit_coordinate_names_file_line_and_column(tmp_path, column, text):
    row = {"x": "0.03", "y": "0", "z": "1.0", column: text}
    path = tmp_path / "hits.csv"
    path.write_text("event_id,hit_id,layer,x,y,z,truth_particle_id,truth_energy\n"
                    "0,0,0,0.03,0,1.0,,\n"
                    f"0,1,1,{row['x']},{row['y']},{row['z']},,\n")
    with pytest.raises(DataFormatError,
                       match=rf"hits\.csv:3: non-finite value in column '{column}'"):
        read_events(path, path_particles(tmp_path))


@pytest.mark.parametrize("column", ["energy", "ox", "dz"])
def test_non_finite_particle_value_names_file_line_and_column(tmp_path, column):
    values = dict(zip(PARTICLES_HEADER, "0 1 5.0 0 0 0 0 0 1".split()), **{column: "nan"})
    path = tmp_path / "particles.csv"
    path.write_text(",".join(PARTICLES_HEADER) + "\n"
                    + ",".join(values[k] for k in PARTICLES_HEADER) + "\n")
    hits = tmp_path / "hits.csv"
    hits.write_text("event_id,hit_id,layer,x,y,z,truth_particle_id,truth_energy\n")
    with pytest.raises(DataFormatError,
                       match=rf"particles\.csv:2: non-finite value in column '{column}'"):
        read_events(hits, path)


@pytest.mark.parametrize("values, message", [
    ("0 1 -1 0 0 0 0 0 1", "particle energy must be positive, got -1.0"),
    ("0 1 0 0 0 0 0 0 1", "particle energy must be positive, got 0.0"),
    ("0 1 5.0 0 0 0 1e200 0 1", "direction does not normalize: |d| = inf"),
    ("0 1 -1 0 0 0 0 0 0", "particle energy must be positive, got -1.0"),
    ("0 1 5.0 0 0 0 0 -0.0 0", "zero direction vector"),
], ids=["negative-energy", "zero-energy", "overflowing-direction",
        "energy-before-direction", "zero-direction"])
def test_bad_particle_names_file_line_and_rule(tmp_path, values, message):
    """The particle rule of the particles table: a positive energy, then a
    direction that normalises; a bad row after a good one is named."""
    path = tmp_path / "particles.csv"
    path.write_text(",".join(PARTICLES_HEADER) + "\n0,0,5.0,0,0,0,0,0,1\n"
                    + ",".join(values.split()) + "\n")
    hits = tmp_path / "hits.csv"
    write_hits_csv(hits, [])
    with pytest.raises(DataFormatError) as info:
        read_events(hits, path)
    assert str(info.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("row, message", [
    ("0,9223372036854775808,0,0.03,0,1.0,,", "integer out of range in column 'hit_id'"),
    ("0,1,0,0.03,0,1.0,-9223372036854775809,", "integer out of range in column "
                                                "'truth_particle_id'"),
], ids=["hit-id", "truth-id"])
def test_integer_beyond_64_bits_names_file_line_and_column(tmp_path, row, message):
    path = tmp_path / "hits.csv"
    path.write_text(",".join(HITS_HEADER) + "\n0,0,0,0.03,0,1.0,-9223372036854775808,\n"
                    + row + "\n")
    with pytest.raises(DataFormatError, match=rf"hits\.csv:3: {message}"):
        read_events(path, path_particles(tmp_path))
    path.write_text(",".join(HITS_HEADER) + "\n0,0,0,0.03,0,1.0,-9223372036854775808,\n")
    hit, = read_events(path, path_particles(tmp_path))[0].hits
    assert hit.truth_particle_id == -2 ** 63


@pytest.mark.parametrize("text", ["7", " 7\t", "+7", "-7", "1_000", "٧", "0" * 70 + "3",
                                  "9223372036854775807", ""])
def test_optional_id_spellings_take_the_numpy_path(tmp_path, monkeypatch, text):
    """NumPy's cast reads a truth id as int() does, so a block of them is
    never read row by row."""
    def row_by_row(*args):
        raise AssertionError("read row by row")

    monkeypatch.setattr(io, "_read_rows", row_by_row)
    path = tmp_path / "hits.csv"
    path.write_text(",".join(HITS_HEADER) + f"\n0,0,0,0.03,0,1.0,{text},\n")
    hit, = read_events(path, path_particles(tmp_path))[0].hits
    assert hit.truth_particle_id == (int(text) if text else None)


def path_particles(tmp_path):
    p = tmp_path / "particles.csv"
    if not p.exists():
        write_particles_csv(p, [])
    return p


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(DataFormatError, match="header"):
        read_tracks_csv(path)


def test_tracks_round_trip(tmp_path):
    tracks = [
        TrackRecord(event_id=0, track_id=0, hit_ids=(1, 5, 9, 12),
                    chi2=3.25, ndf=4, energy=7.5, matched_particle_id=2),
        TrackRecord(event_id=1, track_id=0, hit_ids=(0, 2, 4, 6),
                    chi2=0.5, ndf=4, energy=float("nan"), matched_particle_id=None),
    ]
    write_tracks_csv(tmp_path / "tracks.csv", tracks)
    loaded = read_tracks_csv(tmp_path / "tracks.csv")
    assert loaded[0] == tracks[0]
    assert loaded[1].matched_particle_id is None
    assert math.isnan(loaded[1].energy)


def test_metrics_round_trip_through_csv(tmp_path, geometry):
    """Id-based metrics are bit-exact through serialization; float-valued
    ones agree to the 9-digit print precision. The energy resolution is an
    RMS of (E_fit - E_true) / E_true, about 3e-3, so the energies' 9-digit
    rounding moves it by about 3e-8 of itself on a 3-event sample, whatever
    the seed; 300 events average that below the 1e-8 bound."""
    from qubotrack.config import RunConfig
    from qubotrack.pipeline import reconstruct_events, simulate_events
    cfg = RunConfig.from_dict({"sim": {"mean_multiplicity": 40.0, "rng_seed": 5},
                               "seed": 5})
    events = simulate_events(cfg, 300)
    results, _ = reconstruct_events(events, cfg)
    tracks = [t for r in results for t in r.tracks]

    write_hits_csv(tmp_path / "hits.csv", events)
    write_particles_csv(tmp_path / "particles.csv", events)
    write_tracks_csv(tmp_path / "tracks.csv", tracks)
    events2 = read_events(tmp_path / "hits.csv", tmp_path / "particles.csv")
    tracks2 = read_tracks_csv(tmp_path / "tracks.csv")

    a = build_report(events, tracks)
    b = build_report(events2, tracks2)
    assert b.efficiency == a.efficiency
    assert b.fake_rate == a.fake_rate
    assert b.duplication_rate == a.duplication_rate
    assert b.counts == a.counts
    assert b.energy_resolution == pytest.approx(a.energy_resolution, rel=1e-8)


def test_qubo_dump_round_trip_lossless():
    rng = np.random.default_rng(7)
    q = random_qubo(rng, 9, coupling_prob=0.5)
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "q.txt"
        write_qubo(path, q)
        back = read_qubo(path)
    assert back.n == q.n
    assert np.array_equal(back.linear, q.linear)  # bit-exact via repr
    assert back.quadratic == q.quadratic
    bits = rng.integers(0, 2, q.n).astype(np.int8)
    assert objective(back, bits) == objective(q, bits)


@pytest.mark.parametrize("n", [0, 1, 40])
def test_qubo_dump_round_trip_every_linear_line_once(tmp_path, n):
    """The writer lists every variable's linear line exactly once, so its
    dumps, zero coefficients included, read back under the repeat and
    missing-line checks."""
    rng = np.random.default_rng(n)
    q = random_qubo(rng, n, coupling_prob=0.2)
    q = Qubo(n, np.where(rng.random(n) < 0.3, 0.0, q.linear), *q.upper_triangle())
    write_qubo(tmp_path / "q.txt", q)
    back = read_qubo(tmp_path / "q.txt")
    assert np.array_equal(back.linear, q.linear)
    assert [c.tolist() for c in back.upper_triangle()] == \
        [c.tolist() for c in q.upper_triangle()]


@pytest.mark.parametrize("text, message", [
    ("2\n0 0.5\n1 -0.5\n1 1 0.25\n", r"q\.txt:4: self-coupling"),
    ("2\n0 0.5\n1 -0.5\n0 2 0.25\n", r"q\.txt:4: index 2 outside 0\.\.1"),
    ("2\n0 0.5\n1 -0.5\n0 1 0.25\n1 0 -1.0\n",
     r"q\.txt:5: pair \(0, 1\) listed twice"),
    ("-1\n", r"q\.txt:1: negative variable count -1"),
    ("2\n0 nan\n1 -0.5\n", r"q\.txt:2: non-finite coefficient 'nan'"),
    ("2\n0 0.5\n1 -0.5\n0 1 -inf\n", r"q\.txt:4: non-finite coefficient '-inf'"),
    ("2\n0 0.5\n0 0.7\n", r"q\.txt:3: linear coefficient of variable 0 listed twice"),
    ("3\n0 0.5\n1 -0.5\n1 0 0.25\n1 -0.5\n2 0.1\n",
     r"q\.txt:5: linear coefficient of variable 1 listed twice"),
    ("3\n0 0.5\n2 0.1\n0 1 1.0\n", r"q\.txt: no linear coefficient for variable 1$"),
    ("2\n", r"q\.txt: no linear coefficient for variable 0$"),
], ids=["self-coupling", "index-out-of-range", "pair-listed-twice",
        "negative-count", "nan-linear", "inf-coupling", "linear-listed-twice",
        "linear-repeat-after-pairs", "linear-missing", "no-linear-lines"])
def test_malformed_qubo_dump_names_file_and_line(tmp_path, text, message):
    path = tmp_path / "q.txt"
    path.write_text(text)
    with pytest.raises(DataFormatError, match=message):
        read_qubo(path)


def test_counts_csv_sorted_by_frequency(tmp_path):
    write_counts_csv(tmp_path / "c.csv", {"101": 5, "011": 17, "000": 2})
    lines = (tmp_path / "c.csv").read_text().strip().splitlines()
    assert lines[0] == "bitstring,count"
    assert lines[1] == "011,17"
    assert lines[-1] == "000,2"


def test_curves_csv_empty_bins_blank(tmp_path):
    bins = [BinnedValue(0.0, 1.0, None, None, None),
            BinnedValue(1.0, 2.0, 0.5, 0.1, 0.1)]
    write_curves_csv(tmp_path / "curve.csv", bins)
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert lines[1] == "0,1,,,"
    assert lines[2] == "1,2,0.5,0.1,0.1"


def test_debug_dumps(tmp_path, geometry):
    from qubotrack.preselect import (PreselectionWindow, build_doublets,
                                     build_triplets)
    sim = SimConfig(mean_multiplicity=10, rng_seed=3)
    event = generate_event(sim, geometry, 0)
    w = PreselectionWindow(dx_mean=0.17, dx_sigma=0.05)
    ds = build_doublets(event.hits, geometry, w)
    ts = build_triplets(ds, w)
    write_doublet_debug_csv(tmp_path / "d.csv", 0, ds)
    write_triplet_debug_csv(tmp_path / "t.csv", 0, ts)
    assert (tmp_path / "d.csv").read_text().count("\n") == len(ds) + 1
    assert (tmp_path / "t.csv").read_text().count("\n") == len(ts) + 1
    # an event without doublets writes the headers alone
    ds = build_doublets(Hits(), geometry, w)
    write_doublet_debug_csv(tmp_path / "d.csv", 0, ds)
    write_triplet_debug_csv(tmp_path / "t.csv", 0, build_triplets(ds, w))
    assert (tmp_path / "d.csv").read_text().startswith("event_id,id,layer_inner,")
    assert (tmp_path / "d.csv").read_text().count("\n") == 1
    assert (tmp_path / "t.csv").read_text().count("\n") == 1


def test_config_hash_stable_and_sensitive():
    a = {"x": 1, "y": [1, 2]}
    assert config_hash(a) == config_hash({"y": [1, 2], "x": 1})
    assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})


# -- block writers and readers ------------------------------------------------------

def csv_writer_hits(path, events):
    """The hits writer as it was, row by row through ``csv.writer``."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(HITS_HEADER)
        for e in sorted(events, key=lambda e: e.event_id):
            energies = dict(zip(e.particles.ids.tolist(), e.particles.energies.tolist()))
            for h in sorted(e.hits, key=lambda h: h.hit_id):
                pid = h.truth_particle_id
                energy = fmt(energies[pid]) if pid in energies else ""
                w.writerow([e.event_id, h.hit_id, h.layer,
                            fmt(h.position[0]), fmt(h.position[1]), fmt(h.position[2]),
                            "" if pid is None else pid, energy])


def particles_as_rows(particles):
    """(id, energy, origin, direction) of each particle, in table order."""
    return list(zip(particles.ids.tolist(), particles.energies.tolist(),
                    map(tuple, particles.origins.tolist()),
                    map(tuple, particles.directions.tolist())))


def csv_writer_particles(path, events):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(PARTICLES_HEADER)
        for e in sorted(events, key=lambda e: e.event_id):
            for pid, energy, origin, direction in sorted(particles_as_rows(e.particles),
                                                         key=lambda p: p[0]):
                w.writerow([e.event_id, pid, fmt(energy),
                            *(fmt(v) for v in origin), *(fmt(v) for v in direction)])


def csv_writer_tracks(path, tracks):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRACKS_HEADER)
        for t in sorted(tracks, key=lambda t: (t.event_id, t.track_id)):
            w.writerow([t.event_id, t.track_id, ";".join(str(h) for h in t.hit_ids),
                        fmt(t.chi2), t.ndf, fmt(t.energy),
                        "" if t.matched_particle_id is None else t.matched_particle_id])


# values whose 9-digit print is an edge: signed zero, the least subnormal,
# a power of ten past 2**53, a tie in the tenth digit, the largest doubles
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 9.9999999995, 1.797e308, -1.797e308]
INT64_EXTREMES = [-2 ** 63, 2 ** 63 - 1]


def awkward_events(geometry):
    """Hand-made corner cases (noise, a truth id with no particle, -0.0 and
    extreme magnitudes, int64 extremes as ids, events and hits out of
    order) plus simulated events with more hits and particles than one
    block holds."""
    d = 1.0 / math.sqrt(2.0)
    low, high = INT64_EXTREMES
    edges = event_of(low, [
        HitRow(hid, k % 4, tuple(EDGE_FLOATS[(k + j) % 6] for j in range(3)), pid)
        for k, (hid, pid) in enumerate([(high, high), (low, low), (0, high), (1, None),
                                        (2, low), (3, 5)])
    ], [
        (high, 9.9999999995, (1e16, -1.797e308, 5e-324), (0.0, -0.0, 1.0)),
        (low, 1.797e308, (-0.0, 1.797e308, 9.9999999995), (0.6, 0.0, -0.8)),
    ])
    hand = event_of(9, [
        HitRow(3, 0, (-0.0, 1e-300, 1.0), 0),
        HitRow(1, 1, (1e300, -1e300, 1.1), None),
        HitRow(2, 2, (0.1234567891, -0.0, 1.2), 7),
        HitRow(0, 3, (-1e-300, 5e-324, -0.0), 1),
    ], [
        (1, 1e300, (1e-300, -1e-300, 2.5), (d, -d, 0.0)),
        (0, 1e-300, (-0.0, 1e300, 0.0), (-0.0, 0.0, 1.0)),
    ])
    sim = SimConfig(mean_multiplicity=300, rng_seed=3)
    simulated = [generate_event(sim, geometry, i) for i in (4, 1, 0, 2)]
    assert sum(len(e.hits) for e in simulated) > io.BLOCK_ROWS
    assert sum(len(e.particles) for e in simulated) > io.BLOCK_ROWS
    return [hand, *simulated, edges, event_of(high), event_of(5)]


def test_event_writers_give_csv_writer_bytes(tmp_path, geometry):
    for events in ([], awkward_events(geometry)):
        for write, oracle in ((write_hits_csv, csv_writer_hits),
                              (write_particles_csv, csv_writer_particles)):
            write(tmp_path / "new.csv", events)
            oracle(tmp_path / "old.csv", events)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def awkward_tracks():
    """More tracks than one block holds, out of order, with edge floats,
    nan and int64 extremes as ids."""
    values = [-0.0, 1e-300, 1e300, float("nan"), 0.5, *EDGE_FLOATS]
    tracks = [TrackRecord(event_id=i % 7, track_id=i, hit_ids=(i, i + 1, i + 2, 4 * i),
                          chi2=values[i % 11], ndf=4, energy=values[(i + 2) % 11],
                          matched_particle_id=None if i % 3 else i)
              for i in reversed(range(io.BLOCK_ROWS + 50))]
    low, high = INT64_EXTREMES
    return tracks + [TrackRecord(event_id=e, track_id=t, hit_ids=(low, high, 0, -1), chi2=1e16,
                                 ndf=high, energy=-1.797e308, matched_particle_id=m)
                     for e, t, m in [(low, high, low), (high, low, high), (high, high, None)]]


def test_tracks_writer_gives_csv_writer_bytes(tmp_path):
    tracks = awkward_tracks()
    for records in ([], tracks):
        write_tracks_csv(tmp_path / "new.csv", records)
        csv_writer_tracks(tmp_path / "old.csv", records)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    back = read_tracks_csv(tmp_path / "new.csv")
    assert [(t.event_id, t.track_id, t.hit_ids, t.ndf, t.matched_particle_id) for t in back] \
        == [(t.event_id, t.track_id, t.hit_ids, t.ndf, t.matched_particle_id)
            for t in sorted(tracks, key=lambda t: (t.event_id, t.track_id))]


def test_written_tables_are_parsed_by_numpy(tmp_path, geometry, monkeypatch):
    """The writers' own files never need the row-by-row path: every block
    of hits, particles and tracks is taken by NumPy's text parser."""
    parse, parsed = io._parse_block, []

    def parse_block(*args):
        values = parse(*args)
        assert values is not None, "".join(args[0])
        parsed.append(len(values[0]))
        return values

    monkeypatch.setattr(io, "_parse_block", parse_block)
    events, tracks = awkward_events(geometry), awkward_tracks()
    write_hits_csv(tmp_path / "hits.csv", events)
    write_particles_csv(tmp_path / "particles.csv", events)
    write_tracks_csv(tmp_path / "tracks.csv", tracks)
    read_events(tmp_path / "hits.csv", tmp_path / "particles.csv")
    read_tracks_csv(tmp_path / "tracks.csv")
    assert sum(parsed) == (sum(len(e.hits) + len(e.particles) for e in events) + len(tracks))


def test_block_read_keeps_every_value(tmp_path, geometry):
    """Every hit and particle comes back in file order with the values of
    its printed digits; the direction is renormalised."""
    events = awkward_events(geometry)
    write_hits_csv(tmp_path / "hits.csv", events)
    write_particles_csv(tmp_path / "particles.csv", events)
    back = read_events(tmp_path / "hits.csv", tmp_path / "particles.csv", xi_label=3.0)
    # an event with neither hits nor particles leaves no row
    printed = sorted((e for e in events if e.hits or e.particles), key=lambda e: e.event_id)
    assert [e.event_id for e in back] == [e.event_id for e in printed]
    for orig, event in zip(printed, back):
        assert event.xi_label == 3.0
        assert [(h.hit_id, h.layer, h.truth_particle_id, h.position) for h in event.hits] == [
            (h.hit_id, h.layer, h.truth_particle_id, tuple(float(fmt(c)) for c in h.position))
            for h in sorted(orig.hits, key=lambda h: h.hit_id)]
        expected = []
        for pid, energy, origin, direction in sorted(particles_as_rows(orig.particles),
                                                     key=lambda p: p[0]):
            direction = [float(fmt(c)) for c in direction]
            norm = math.sqrt(sum(c * c for c in direction))
            expected.append((pid, float(fmt(energy)), tuple(float(fmt(c)) for c in origin),
                             tuple(c / norm for c in direction)))
        assert particles_as_rows(event.particles) == expected


# blank lines after these rows, and two at the end of the file
BLANK_AFTER = (5, io.BLOCK_ROWS + 10)
BAD_ROW = io.BLOCK_ROWS + 100  # past the first block, after both blank lines
# a second bad row in the same block sends the block to the row-by-row
# parse; one in the next block leaves the bad row to the block's checks
LATER = pytest.mark.parametrize("later", [50, io.BLOCK_ROWS], ids=["same-block", "next-block"])


def write_table(path, header, rows):
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        lines.append(row)
        if i in BLANK_AFTER:
            lines.append("")
    path.write_text("\n".join(lines) + "\n\n\n")


def hit_rows():
    return [f"{i // 400},{i % 400},{i % 4},0.03,0.001,{1.0 + 0.1 * (i % 4):.1f},{i},5"
            for i in range(2 * io.BLOCK_ROWS + 200)]


def particle_rows():
    return [f"{i // 100},{i % 100},5.0,0,0,0,0,0,1" for i in range(2 * io.BLOCK_ROWS + 200)]


def set_field(row, k, text):
    fields = row.split(",")
    fields[k] = text
    return ",".join(fields)


def assert_first_error(path, message, read):
    # header, rows from line 2, the blank lines before the bad row
    line = 2 + BAD_ROW + len(BLANK_AFTER)
    with pytest.raises(DataFormatError) as info:
        read()
    assert re.fullmatch(re.escape(f"{path}:{line}: ") + message, str(info.value)), \
        str(info.value)


@LATER
@pytest.mark.parametrize("mutate, message", [
    (lambda r: r.rsplit(",", 1)[0], r"expected 8 fields, got 7"),
    (lambda r: set_field(r, 1, "4x"), r"bad integer in column 'hit_id': '4x'"),
    (lambda r: set_field(r, 2, "two"), r"bad integer in column 'layer': 'two'"),
    (lambda r: set_field(r, 6, "1.5"), r"bad integer in column 'truth_particle_id': '1\.5'"),
    (lambda r: set_field(r, 4, "0.0.1"), r"bad float in column 'y': '0\.0\.1'"),
    (lambda r: set_field(r, 5, "inf"), r"non-finite value in column 'z': 'inf'"),
    (lambda r: set_field(set_field(r, 0, "0"), 1, "3"),
     r"duplicate hit id \(event_id, hit_id\) = \(0, 3\)"),
    (lambda r: set_field(r, 1, str((BAD_ROW - 1) % 400)),
     rf"duplicate hit id \(event_id, hit_id\) = \({BAD_ROW // 400}, {(BAD_ROW - 1) % 400}\)"),
    (lambda r: set_field(r, 2, "4"), r"layer 4 outside 0\.\.3"),
], ids=["field-count", "bad-hit-id", "bad-layer", "bad-truth-id", "bad-float", "non-finite",
        "duplicate-of-earlier-block", "duplicate-within-block", "missing-layer"])
def test_hits_error_past_first_block_names_first_bad_row(tmp_path, mutate, message, later):
    rows = hit_rows()
    rows[BAD_ROW] = mutate(rows[BAD_ROW])
    rows[BAD_ROW + later] = "garbage"  # a later bad row must not be the one named
    path = tmp_path / "hits.csv"
    write_table(path, HITS_HEADER, rows)
    assert_first_error(path, message, lambda: read_events(path, path_particles(tmp_path)))


@LATER
@pytest.mark.parametrize("mutate, message", [
    (lambda r: r + ",1", r"expected 9 fields, got 10"),
    (lambda r: set_field(r, 1, ""), r"bad integer in column 'particle_id': ''"),
    (lambda r: set_field(r, 2, "nan"), r"non-finite value in column 'energy': 'nan'"),
    (lambda r: set_field(r, 4, "1e"), r"bad float in column 'oy': '1e'"),
    (lambda r: set_field(r, 8, "0"), r"zero direction vector"),
], ids=["field-count", "bad-int", "non-finite", "bad-float", "zero-direction"])
def test_particles_error_past_first_block_names_first_bad_row(tmp_path, mutate, message,
                                                             later):
    rows = particle_rows()
    rows[BAD_ROW] = mutate(rows[BAD_ROW])
    rows[BAD_ROW + later] = "garbage"
    path = tmp_path / "particles.csv"
    write_table(path, PARTICLES_HEADER, rows)
    hits = tmp_path / "hits.csv"
    write_hits_csv(hits, [])
    assert_first_error(path, message, lambda: read_events(hits, path))


@LATER
@pytest.mark.parametrize("mutate, message", [
    (lambda r: set_field(r, 2, "1;2;3"), r"expected 4 hit ids, got 3"),
    (lambda r: set_field(r, 2, "1;2;x;4"), r"bad integer in column 'hit_ids': 'x'"),
    (lambda r: set_field(r, 3, "chi"), r"bad float in column 'chi2': 'chi'"),
    (lambda r: set_field(r, 6, "-"), r"bad integer in column 'matched_particle_id': '-'"),
], ids=["three-hit-ids", "bad-hit-id", "bad-chi2", "bad-match"])
def test_tracks_error_past_first_block_names_first_bad_row(tmp_path, mutate, message, later):
    rows = [f"{i // 50},{i % 50},{i};{i + 1};{i + 2};{i + 3},1.5,4,nan,"
            for i in range(2 * io.BLOCK_ROWS + 200)]
    rows[BAD_ROW] = mutate(rows[BAD_ROW])
    rows[BAD_ROW + later] = "garbage"
    path = tmp_path / "tracks.csv"
    write_table(path, TRACKS_HEADER, rows)
    assert_first_error(path, message, lambda: read_tracks_csv(path))


@pytest.mark.parametrize("first", [0, 37, 250])
def test_duplicate_in_one_long_event_names_its_row(tmp_path, monkeypatch, first):
    """One event over many blocks: a repeat of any earlier hit id is found,
    however many blocks back, and every row before it is read."""
    monkeypatch.setattr(io, "BLOCK_ROWS", 4)
    ids = [(i * 37) % 1009 for i in range(300)]  # distinct, out of order
    rows = [f"0,{h},{h % 4},0.03,0.001,1.0,," for h in ids]
    path = tmp_path / "hits.csv"
    path.write_text(",".join(HITS_HEADER) + "\n" + "\n".join(rows) + "\n")
    assert sorted(read_events(path, path_particles(tmp_path))[0].hits.ids) == sorted(ids)
    rows.insert(299, rows[first])
    path.write_text(",".join(HITS_HEADER) + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataFormatError, match=rf"hits\.csv:301: duplicate hit id "
                                              rf"\(event_id, hit_id\) = \(0, {ids[first]}\)$"):
        read_events(path, path_particles(tmp_path))


def test_bad_row_above_unreadable_one_is_named_first(tmp_path):
    """A row the csv module cannot read, the header too, fails the read
    with a data error naming its line, but a bad row above it in the same
    block is still the one named, as in a row-by-row read."""
    rows = hit_rows()
    rows[BAD_ROW + 5] = "x" * (csv.field_size_limit() + 1)
    path = tmp_path / "hits.csv"
    write_table(path, HITS_HEADER, rows)
    with pytest.raises(DataFormatError) as info:
        read_events(path, path_particles(tmp_path))
    line = 2 + BAD_ROW + 5 + len(BLANK_AFTER)
    assert str(info.value) == \
        f"{path}:{line}: field larger than field limit ({csv.field_size_limit()})"
    path.write_text("x" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(DataFormatError) as info:
        read_events(path, path_particles(tmp_path))
    assert str(info.value) == \
        f"{path}:1: field larger than field limit ({csv.field_size_limit()})"
    rows[BAD_ROW] = set_field(rows[BAD_ROW], 2, "two")
    write_table(path, HITS_HEADER, rows)
    assert_first_error(path, r"bad integer in column 'layer': 'two'",
                       lambda: read_events(path, path_particles(tmp_path)))


def test_quoted_fields_read_as_csv_reader_reads_them(tmp_path, monkeypatch):
    """Quotes are csv.reader's to take off: a quoted text field reads
    without them, and a quoted field holding a line break takes in the
    next line, also past the end of a block, with rows counted as
    csv.reader counts them."""
    counts = tmp_path / "counts.csv"
    counts.write_text('bitstring,count\n"0101",3\n0011,2\n" 1",1\n')
    assert read_counts_csv(counts) == [("0101", 3), ("0011", 2), (" 1", 1)]
    monkeypatch.setattr(io, "BLOCK_ROWS", 4)
    # a block read row by row still goes to store in one call
    counts.write_text("bitstring,count\n" + "".join(f'"{i:04b}",{i}\n' for i in range(10)))
    stored = []
    io._read_table(counts, io.COUNTS_COLUMNS, lambda *columns: stored.append(columns))
    assert [(texts, ints.tolist()) for texts, ints in stored] == [
        ([f"{i:04b}" for i in block], list(block))
        for block in (range(0, 4), range(4, 8), range(8, 10))]
    rows = [f"0,{i},{i % 4},0.03,0.001,1.0,," for i in range(12)]
    rows[3] += '"5\n6"'  # the last line of the first block runs on
    path = tmp_path / "hits.csv"
    path.write_text(",".join(HITS_HEADER) + "\n" + "\n".join(rows) + "\n")
    assert [h.hit_id for h in read_events(path, path_particles(tmp_path))[0].hits] == \
        list(range(12))
    rows[9] = set_field(rows[9], 2, "two")
    path.write_text(",".join(HITS_HEADER) + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(DataFormatError) as info:
        read_events(path, path_particles(tmp_path))
    assert str(info.value) == f"{path}:11: bad integer in column 'layer': 'two'"
    assert outcome(lambda: reference_read(path, "hits")) == ("error", str(info.value))


def test_block_io_memory_is_bounded(tmp_path, monkeypatch):
    """A block at a time: reading 60 events at multiplicity 100 holds less
    than 2 MiB beyond the events it returns, and writing their hits less
    than 1 MiB. Whole-file reads and writes fail both bounds."""
    from qubotrack.config import RunConfig
    from qubotrack.pipeline import simulate_events
    d = RunConfig().to_dict()
    d["sim"]["mean_multiplicity"] = 100.0
    events = simulate_events(RunConfig.from_dict(d).with_seed(2024), 60)
    hits, particles = tmp_path / "hits.csv", tmp_path / "particles.csv"
    write_particles_csv(particles, events)

    def peaks():
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write_hits_csv(hits, events)
            write_peak = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            back = read_events(hits, particles)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(back) == 60
        return write_peak, peak - held

    mib = 2 ** 20
    write_peak, read_excess = peaks()
    assert write_peak < 1 * mib and read_excess < 2 * mib
    monkeypatch.setattr(io, "BLOCK_ROWS", 10 ** 9)
    write_peak, read_excess = peaks()
    assert write_peak > 1 * mib and read_excess > 2 * mib


# -- the reader against a row-by-row reference ----------------------------------------

def reference_field(text, kind, column, where):
    """One field as the reader must convert it, written out case by case."""
    if kind == "ids":
        return tuple(reference_field(t, "int", column, where) for t in text.split(";"))
    if kind == "int?" and text == "":
        return None
    if kind in ("int", "int?"):
        try:
            return int(text)
        except ValueError:
            raise DataFormatError(f"{where}: bad integer in column {column!r}: {text!r}")
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(f"{where}: bad float in column {column!r}: {text!r}")
    if kind == "finite" and not math.isfinite(value):
        raise DataFormatError(f"{where}: non-finite value in column {column!r}: {text!r}")
    return value


REFERENCE_KINDS = {
    "hits": ["int", "int", "int", "finite", "finite", "finite", "int?", None],
    "particles": ["int", "int", "finite", "finite", "finite", "finite",
                  "finite", "finite", "finite"],
    "tracks": ["int", "int", "ids", "float", "int", "float", "int?"],
}
REFERENCE_HEADERS = {"hits": HITS_HEADER, "particles": PARTICLES_HEADER,
                     "tracks": TRACKS_HEADER}


def reference_read(path, table):
    """Each row of ``table`` in file order, its fields converted in header
    order and then checked by the table's rule across fields or rows: the
    first bad row raises, naming its first fault."""
    header, kinds = REFERENCE_HEADERS[table], REFERENCE_KINDS[table]
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == header
    seen, out = set(), []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        where = f"{path}:{line}"
        if len(row) != len(header):
            raise DataFormatError(f"{where}: expected {len(header)} fields, got {len(row)}")
        values = [reference_field(text, kind, column, where)
                  for text, kind, column in zip(row, kinds, header) if kind]
        if table == "hits":
            if not 0 <= values[2] <= 3:
                raise DataFormatError(f"{where}: layer {values[2]} outside 0..3")
            if tuple(values[:2]) in seen:
                raise DataFormatError(f"{where}: duplicate hit id (event_id, hit_id) = "
                                      f"({values[0]}, {values[1]})")
            seen.add(tuple(values[:2]))
        elif table == "particles":
            dx, dy, dz = values[6:]
            if math.sqrt(dx * dx + dy * dy + dz * dz) == 0.0:
                raise DataFormatError(f"{where}: zero direction vector")
        elif len(values[2]) != 4:
            raise DataFormatError(f"{where}: expected 4 hit ids, got {len(values[2])}")
        out.append(values)
    return out


def reference_events(rows, table):
    by_event = {}
    for e, *values in rows:
        if table == "hits":
            hid, layer, x, y, z, pid = values
            by_event.setdefault(e, ([], []))[0].append(HitRow(hid, layer, (x, y, z), pid))
        else:
            pid, energy, ox, oy, oz, dx, dy, dz = values
            n = math.sqrt(dx * dx + dy * dy + dz * dz)
            by_event.setdefault(e, ([], []))[1].append(
                (pid, energy, (ox, oy, oz), (dx / n, dy / n, dz / n)))
    return [event_of(e, hits, particles) for e, (hits, particles) in sorted(by_event.items())]


def event_values(events):
    """Each event's ids and :func:`column_values`, whose repr tells every
    value apart."""
    return [(e.event_id, e.xi_label, column_values(e.hits), column_values(e.particles))
            for e in events]


FLOATS = ["0", "-0.0", "0.5", "-1.25", "3e-05", "1e10", "7"]
# an optional id longer than any fixed text width
LONG_ID = "0" * 70 + "3"
# the faults each table can have, and the columns a field fault may hit
FAULTS = {
    "hits": {"bad int": [0, 1, 2, 6], "bad float": [3, 4, 5], "non-finite": [3, 4, 5],
             "field count": [], "blank-looking line": [], "duplicate in block": [],
             "duplicate across blocks": [], "missing layer": []},
    "particles": {"bad int": [0, 1], "bad float": [2, 3, 4, 5, 6, 7, 8],
                  "non-finite": [2, 3, 4, 5, 6, 7, 8], "field count": [],
                  "blank-looking line": [], "zero direction": []},
    "tracks": {"bad int": [0, 1, 2, 4, 6], "bad float": [3, 5], "field count": [],
               "blank-looking line": [], "three hit ids": []},
}
# texts a NumPy parser takes where int() or float() does not: "7.0" as an
# integer (with a warning on NumPy 1.x) and "\x1c7" (its blanks include the
# separator characters)
BAD_TEXT = {"bad int": ["x", "1.5", "", " ", "7.0", "\x1c7"],
            "bad float": ["0.0.1", "1e", "", "7\x1c"],
            "non-finite": ["nan", "inf", "-Infinity", "Infinity", " nan "]}
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def spelled(text, rng):
    """``text``, or one in ten times another spelling that int() and
    float() read as the same number after csv.reader: blanks around it, a
    plus sign, digit groups (1_000), non-ASCII digits (٧) or quotes."""
    if not text or rng.random() >= 0.1:
        return text
    how = rng.randrange(5)
    if how == 0:
        return f" {text}\t"
    if how == 1:
        return text if text.startswith("-") else "+" + text
    if how == 2:
        return re.sub(r"(\d)(?=\d)", r"\1_", text if len(text) > 1 else "0" + text)
    if how == 3:
        return text.translate(ARABIC_INDIC)
    return f'"{text}"'


def valid_row(table, i, rng):
    if table == "hits":
        row = [str(i // 7), str(i % 7), str(i % 4), *rng.choices(FLOATS, k=3),
               rng.choice(["", "0", "3", LONG_ID]), rng.choice(["", "5"])]
    elif table == "particles":
        row = [str(i // 5), str(i % 5), rng.choice(["0.5", "5", "16"]),
               *rng.choices(FLOATS, k=5), rng.choice(["1", "0.999", "-2"])]
    else:
        row = [str(i // 6), str(i % 6), f"{i};{i + 1};{i + 2};{i + 3}", rng.choice(FLOATS),
               "4", rng.choice(FLOATS + ["nan"]), rng.choice(["", "2", LONG_ID])]
    return [text if k == 2 and table == "tracks" else spelled(text, rng)
            for k, text in enumerate(row)]


def add_fault(table, fault, rows, block, allowed, draw):
    """Put ``fault`` into one of the ``allowed`` rows and return its index,
    or None if none of them can take it; ``block[i]`` is the block row
    ``i`` is read in."""
    if fault.startswith("duplicate"):
        within = fault == "duplicate in block"
        pairs = [(i, j) for i in allowed for j in range(i)
                 if (block[i] == block[j]) == within and len(rows[i]) > 1 < len(rows[j])]
        if not pairs:
            return None
        i, j = draw(st.sampled_from(pairs))
        rows[i][:2] = rows[j][:2]
        return i
    i = draw(st.sampled_from(allowed))
    row = rows[i]
    if len(row) == 1:  # a blank-looking line has no field to put a fault in
        return None
    if fault == "field count":
        rows[i] = row[:-1] if draw(st.booleans()) else row + ["1"]
    elif fault == "blank-looking line":  # one field of blanks, not a blank line
        rows[i] = [draw(st.sampled_from([" ", "\t", "\x0c "]))]
    elif fault == "missing layer":
        row[2] = draw(st.sampled_from(["-1", "4", "9223372036854775807"]))
    elif fault == "zero direction":
        if len(row) < 9:  # a row one field short has no dz
            return None
        row[6:9] = ["0", "-0.0", "0e0"]
    elif fault == "three hit ids":
        row[2] = "1;2;3"
    else:
        k = draw(st.sampled_from(FAULTS[table][fault]))
        if k >= len(row):  # a column past the end of a row one field short
            return None
        text = draw(st.sampled_from(BAD_TEXT[fault]))
        if table == "tracks" and k == 2:  # one id of the hit ids
            ids = row[2].split(";")
            ids[draw(st.integers(0, 3))] = text
            text = ";".join(ids)
        row[k] = text
    return i


def outcome(read):
    try:
        return "ok", repr(read())
    except DataFormatError as exc:
        return "error", str(exc)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tables")
    write_hits_csv(d / "no_hits.csv", [])
    write_particles_csv(d / "no_particles.csv", [])
    return d


@pytest.mark.parametrize("table, fault", [
    (table, fault) for table in FAULTS for fault in [None, *FAULTS[table]]])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), block_rows=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_reader_agrees_with_row_by_row_reference(table_dir, table, fault, data, block_rows,
                                                 seed):
    """Tables of at least three blocks, with blank lines, ``fault`` and up
    to one more random fault: the reader raises the reference's error, or
    returns what the reference reads."""
    draw, rng = data.draw, random.Random(seed)
    n = draw(st.integers(3 * block_rows + 1, 3 * block_rows + 12))
    rows = [valid_row(table, i, rng) for i in range(n)]
    blank_after = draw(st.sets(st.integers(0, n), max_size=4))
    # the block each row is read in: blank lines count towards a block
    block = [(i + sum(k < i for k in blank_after)) // block_rows for i in range(n)]
    allowed = range(n)
    if fault is not None:
        i = add_fault(table, fault, rows, block, allowed, draw)
        assume(i is not None)
        if draw(st.booleans()):  # the second fault in the same block
            allowed = [k for k in allowed if block[k] == block[i]]
    if draw(st.booleans()):
        add_fault(table, draw(st.sampled_from(sorted(FAULTS[table]))), rows, block, allowed,
                  draw)
    lines = [",".join(REFERENCE_HEADERS[table])]
    for i, row in enumerate(rows):
        lines.append(",".join(row))
        lines.extend([""] * (i in blank_after))
    lines.extend([""] * (n in blank_after))
    path = table_dir / f"{table}.csv"
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(io, "BLOCK_ROWS", block_rows):
        if table == "tracks":
            got = outcome(lambda: read_tracks_csv(path))
            expected = outcome(lambda: [TrackRecord(*values)
                                        for values in reference_read(path, table)])
        else:
            paths = ((path, table_dir / "no_particles.csv") if table == "hits"
                     else (table_dir / "no_hits.csv", path))
            got = outcome(lambda: event_values(read_events(*paths)))
            expected = outcome(lambda: event_values(
                reference_events(reference_read(path, table), table)))
    assert got == expected
