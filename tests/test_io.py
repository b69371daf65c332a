import math

import numpy as np
import pytest

from conftest import random_qubo
from qubotrack.fastsim import SimConfig, generate_event
from qubotrack.io import (PARTICLES_HEADER, DataFormatError, config_hash, fmt,
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
    ones agree to the 9-digit print precision."""
    from qubotrack.config import RunConfig
    from qubotrack.pipeline import reconstruct_events, simulate_events
    cfg = RunConfig.from_dict({"sim": {"mean_multiplicity": 40.0, "rng_seed": 5},
                               "seed": 5})
    events = simulate_events(cfg, 3)
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
    ds = build_doublets((), geometry, w)
    write_doublet_debug_csv(tmp_path / "d.csv", 0, ds)
    write_triplet_debug_csv(tmp_path / "t.csv", 0, build_triplets(ds, w))
    assert (tmp_path / "d.csv").read_text().startswith("event_id,id,layer_inner,")
    assert (tmp_path / "d.csv").read_text().count("\n") == 1
    assert (tmp_path / "t.csv").read_text().count("\n") == 1


def test_config_hash_stable_and_sensitive():
    a = {"x": 1, "y": [1, 2]}
    assert config_hash(a) == config_hash({"y": [1, 2], "x": 1})
    assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})
