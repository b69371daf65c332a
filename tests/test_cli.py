import csv
import json
from pathlib import Path

import pytest

from qubotrack import cli
from qubotrack.cli import (EXIT_DATA, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main)
from qubotrack.io import read_json, read_tracks_csv


def write_config(path: Path, **overrides) -> Path:
    payload = {"sim": {"mean_multiplicity": 25.0}, **overrides}
    path.write_text(json.dumps(payload))
    return path


def run_pipeline(tmp_path, seed=7, events=4, solver=None, extra_rec=()):
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json")
    assert main(["simulate", "--config", str(cfg), "--seed", str(seed),
                 "--out", str(run), "--events", str(events)]) == EXIT_OK
    rec = ["reconstruct", "--config", str(cfg), "--seed", str(seed),
           "--in", str(run), *extra_rec]
    if solver:
        rec += ["--solver", solver]
    assert main(rec) == EXIT_OK
    out = tmp_path / "metrics"
    assert main(["evaluate", "--in", str(run), "--out", str(out)]) == EXIT_OK
    return run, out


def test_simulate_zero_events_valid_files(tmp_path):
    run = tmp_path / "empty"
    assert main(["simulate", "--out", str(run), "--events", "0"]) == EXIT_OK
    hits = (run / "hits.csv").read_text()
    assert hits.strip() == "event_id,hit_id,layer,x,y,z,truth_particle_id,truth_energy"
    meta = read_json(run / "simulate_meta.json")
    assert meta["n_events"] == 0 and "config_hash" in meta and "seed" in meta


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--out", str(out), "--events", "3",
                     "--seed", "11"]) == EXIT_OK
    assert (a / "hits.csv").read_bytes() == (b / "hits.csv").read_bytes()
    assert (a / "particles.csv").read_bytes() == (b / "particles.csv").read_bytes()


def test_xi_preset_sets_multiplicity(tmp_path):
    run = tmp_path / "xi"
    assert main(["simulate", "--out", str(run), "--events", "0",
                 "--xi", "5"]) == EXIT_OK
    meta = read_json(run / "simulate_meta.json")
    assert meta["xi_label"] == 5.0
    assert meta["mean_multiplicity"] == pytest.approx(1.05e4)


def test_full_pipeline_and_report(tmp_path):
    run, out = run_pipeline(tmp_path)
    tracks = read_tracks_csv(run / "tracks.csv")
    assert tracks
    report = read_json(out / "metrics.json")
    assert 0.0 <= report["fake_rate"] <= 1.0
    assert report["efficiency"] > 0.5
    assert (out / "curve_efficiency_vs_true_energy.csv").exists()
    solve = read_json(run / "solve_report.json")
    assert solve["solver"] == "exact"
    assert solve["calibration"]["dx_sigma"] > 0
    assert len(solve["events"]) == 4


def test_reconstruct_echoes_solver_flags(tmp_path):
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--events", "1",
                 "--seed", "3"]) == EXIT_OK
    assert main(["reconstruct", "--in", str(run), "--solver", "vqe",
                 "--shots", "512", "--subqubo-size", "7",
                 "--iterations", "4", "--seed", "3"]) == EXIT_OK
    report = read_json(run / "solve_report.json")
    assert report["solver"] == "vqe"
    assert report["shots"] == 512
    assert report["subqubo_size"] == 7
    assert report["iterations"] == 4
    assert report["config"]["solver"] == "vqe"


@pytest.mark.parametrize("solver", ["exact", "anneal", "vqe"])
def test_negative_event_id_is_reconstructed(tmp_path, capsys, solver):
    """Event 1 renamed -1 in both tables. The solver seed used to be
    ``seed ^ event_id``, negative here: the anneal ended in a ValueError
    traceback and the VQE kept the event at its all-ones start with a
    sub-solver warning. Any int64 event id now gives a seed."""
    run = tmp_path / "run"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sim": {"mean_multiplicity": 8.0}}))
    assert main(["simulate", "--config", str(cfg), "--out", str(run), "--events", "2",
                 "--seed", "3"]) == EXIT_OK
    for name in ("hits.csv", "particles.csv"):
        lines = (run / name).read_text().splitlines(keepends=True)
        (run / name).write_text("".join("-" + line if line.startswith("1,") else line
                                        for line in lines), newline="")
    capsys.readouterr()
    assert main(["reconstruct", "--config", str(cfg), "--in", str(run), "--seed", "3",
                 "--solver", solver]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    events = read_json(run / "solve_report.json")["events"]
    assert [e["event_id"] for e in events] == [-1, 0]
    assert events[0]["n_triplets"] > 0
    assert [e["solve"]["warning"] for e in events] == [None, None]


def test_empty_input_gives_empty_tracks_exit_zero(tmp_path):
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--events", "0"]) == EXIT_OK
    # zero events: nothing to calibrate on, so the window must come from config
    cfg = write_config(tmp_path / "c.json", dx_window=[0.17, 0.02])
    assert main(["reconstruct", "--in", str(run), "--config", str(cfg)]) == EXIT_OK
    assert read_tracks_csv(run / "tracks.csv") == []


def test_usage_errors_exit_one(tmp_path):
    assert main(["reconstruct"]) == EXIT_USAGE          # missing --in
    assert main(["bogus-command"]) == EXIT_USAGE
    run = tmp_path / "run"
    main(["simulate", "--out", str(run), "--events", "1"])
    assert main(["reconstruct", "--in", str(run),
                 "--solver", "quantum-annealer"]) == EXIT_USAGE  # unknown solver
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"solver": "nope"}')
    assert main(["reconstruct", "--in", str(run),
                 "--config", str(bad_cfg)]) == EXIT_USAGE
    assert main(["reconstruct", "--in", str(run), "--solver", "vqe",
                 "--shots", "-1"]) == EXIT_USAGE
    assert main(["reconstruct", "--in", str(run), "--seed", "-3"]) == EXIT_USAGE
    # JSON configs allow NaN; a NaN or negative cut would silently find
    # nothing, a fractional count would fail every sub-solve, a NaN
    # simulation or geometry setting would simulate no hits, and a negative
    # one would end in a traceback
    for key, value in (("n_sigma", -1.0), ("max_delta_theta", float("nan")),
                       ("dx_window", [0.17, float("nan")]), ("shots", 1.5),
                       ("subqubo_size", 7.5),
                       ("sim", {"emittance_angle_sigma": float("nan")}),
                       ("sim", {"mean_multiplicity": -1.0}),
                       ("geometry", {"hit_resolution": float("nan")}),
                       ("geometry", {"layer_spacing": -1.0})):
        cfg = write_config(tmp_path / "nan.json", **{key: value})
        assert main(["reconstruct", "--in", str(run), "--config", str(cfg)]) == EXIT_USAGE
    for jobs in ("0", "-2", "two"):
        assert main(["reconstruct", "--in", str(run), "--jobs", jobs]) == EXIT_USAGE, jobs
    for bins in ("3,1", "1,1", "2", "1,x"):
        assert main(["evaluate", "--in", str(run), "--out", str(tmp_path / "m"),
                     "--energy-bins", bins]) == EXIT_USAGE, bins


@pytest.mark.parametrize("overrides", [
    {"sim": {"energy_spectrum": {"kind": "fixed", "fixed_value": float("nan")}}},
    {"sim": {"energy_spectrum": {"minimum": 20.0, "maximum": 10.0}}},
    {"geometry": {"ip_position": [float("nan"), 0.0, 0.0]}},
], ids=repr)
def test_simulate_refuses_an_invalid_spectrum_or_interaction_point(overrides, tmp_path,
                                                                     capsys):
    """The NaN settings used to write a header-only hits.csv and exit 0,
    the empty energy range to end in a traceback."""
    cfg = write_config(tmp_path / "bad.json", **overrides)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--events", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not (out / "hits.csv").exists()


def test_jobs_capped_at_one_worker_per_event(tmp_path, monkeypatch):
    """The pool is asked for no more workers than there are events; a stub
    stands in for it, so no process is started."""
    from qubotrack import pipeline
    asked = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(run),
                 "--events", "3"]) == EXIT_OK
    for jobs in ("5000", "2"):
        assert main(["reconstruct", "--config", str(cfg), "--in", str(run),
                     "--jobs", jobs]) == EXIT_OK
    assert asked == [3, 2]


def test_missing_and_malformed_inputs_exit_two(tmp_path):
    assert main(["reconstruct", "--in", str(tmp_path / "nowhere")]) == EXIT_DATA
    run = tmp_path / "run"
    main(["simulate", "--out", str(run), "--events", "1"])
    header = "event_id,hit_id,layer,x,y,z,truth_particle_id,truth_energy\n"
    (run / "hits.csv").write_text(header + "0,0,0,notafloat,0,1.0,,\n")
    assert main(["reconstruct", "--in", str(run)]) == EXIT_DATA
    (run / "hits.csv").write_text(header + "0,0,0,0.03,nan,1.0,,\n")
    assert main(["reconstruct", "--in", str(run)]) == EXIT_DATA
    (run / "hits.csv").write_text(header + "0,0,0,0.03,0,1.0,,\n0,0,1,0.036,0,1.1,,\n")
    assert main(["reconstruct", "--in", str(run)]) == EXIT_DATA
    assert main(["evaluate", "--in", str(run), "--out", str(tmp_path / "m")]) == EXIT_DATA
    # no truth and no dx window in the config: nothing to calibrate on
    assert main(["simulate", "--out", str(run), "--events", "0"]) == EXIT_OK
    assert main(["reconstruct", "--in", str(run)]) == EXIT_DATA


def test_simulate_xi_outside_the_lookup_is_a_configuration_error(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--events", "1", "--xi", "9"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "configuration error: xi=9.0 outside multiplicity lookup range [3.0, 7.0]\n"
    assert not run.exists()


@pytest.fixture
def small_run(tmp_path):
    """A reconstructed one-event run and its metrics report."""
    run_pipeline(tmp_path, events=1)
    return tmp_path / "run", tmp_path / "metrics" / "metrics.json"


@pytest.mark.parametrize("command", ["simulate", "reconstruct", "evaluate", "plotdata"])
def test_an_out_that_cannot_be_made_is_a_data_error(small_run, tmp_path, capsys, command):
    """A file where the output directory (for plotdata, the table's
    directory) should be used to end in a FileExistsError traceback."""
    run, report = small_run
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "plot.csv" if command == "plotdata" else blocker
    args = {"simulate": ["--events", "1"], "reconstruct": ["--in", str(run)],
            "evaluate": ["--in", str(run)], "plotdata": ["--report", str(report)]}[command]
    capsys.readouterr()
    assert main([command, *args, "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write to {out}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text, message", [
    ("{not json", "not valid JSON"),
    ("[1, 2]", "expected a JSON object, got list"),
    ('{"xi_label": "high"}', "xi_label 'high' is not a number"),
], ids=["not-json", "a-list", "xi-label-not-a-number"])
def test_malformed_json_input_is_a_data_error(small_run, tmp_path, capsys, text, message):
    """Each used to end in a traceback (JSONDecodeError, AttributeError or
    ValueError); the one line names the file."""
    run, report = small_run
    meta = run / "simulate_meta.json"
    meta.write_text(text)
    commands = [["reconstruct", "--in", str(run)],
                ["evaluate", "--in", str(run), "--out", str(tmp_path / "m")]]
    if "xi_label" not in text:
        report.write_text(text)
        commands.append(["plotdata", "--report", str(report), "--out", str(tmp_path / "p.csv")])
    for command in commands:
        capsys.readouterr()
        assert main(command) == EXIT_DATA, command
        path = report if command[0] == "plotdata" else meta
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and message in err, err
        assert err.count("\n") == 1, err


@pytest.mark.parametrize("payload, message", [
    ({"per_xi_label": []}, "per_xi_label is list, not an object"),
    ({"per_xi_label": {"3": 5}}, "per_xi_label '3' is int, not an object"),
    ({"curves": {"c": [1]}}, "bin 0 of curve 'c' is int, not an object"),
    ({"curves": {"c": 1}}, "curve 'c' is int, not a list"),
    ({"curves": []}, "curves is list, not an object"),
], ids=["labels-a-list", "label-a-number", "bin-a-number", "curve-a-number", "curves-a-list"])
def test_misshapen_report_is_a_data_error(tmp_path, capsys, payload, message):
    """The first three used to end in an AttributeError or a TypeError
    traceback; each is one line naming the file and the part."""
    report = tmp_path / "r.json"
    report.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["plotdata", "--report", str(report), "--out", str(tmp_path / "p.csv")]) \
        == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: {report}: {message}\n", err


def test_unreadable_hits_row_is_a_data_error(tmp_path, capsys):
    """A truth_energy field longer than the csv module reads is named by
    file and line, with exit 2 and no traceback."""
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--events", "2"]) == EXIT_OK
    lines = (run / "hits.csv").read_text().splitlines(keepends=True)
    lines[3] = lines[3].rstrip("\r\n").rsplit(",", 1)[0] + "," + "9" * 131073 + "\r\n"
    (run / "hits.csv").write_text("".join(lines), newline="")
    capsys.readouterr()
    assert main(["reconstruct", "--in", str(run)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"hits.csv:4: field larger than field limit ({csv.field_size_limit()})" in err
    assert "Traceback" not in err


def test_out_of_memory_is_a_data_error(tmp_path, capsys, monkeypatch):
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--events", "1"]) == EXIT_OK

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "reconstruct_events", exhausted)
    capsys.readouterr()
    assert main(["reconstruct", "--in", str(run)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: out of memory")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_evaluate_join_error_lists_missing_events(tmp_path, capsys):
    run, _ = run_pipeline(tmp_path)
    tracks = (run / "tracks.csv").read_text().splitlines()
    tracks.append(tracks[-1].replace(tracks[-1].split(",")[0], "999", 1))
    (run / "tracks.csv").write_text("\n".join(tracks) + "\n")
    code = main(["evaluate", "--in", str(run), "--out", str(tmp_path / "m")])
    assert code == EXIT_DATA
    assert "999" in capsys.readouterr().err


def test_evaluate_rejects_a_hit_whose_particle_is_missing(tmp_path, capsys):
    run, _ = run_pipeline(tmp_path)
    hit = next(r.split(",") for r in (run / "hits.csv").read_text().splitlines()[1:]
               if r.split(",")[6])
    eid, hid, pid = hit[0], hit[1], hit[6]
    particles = (run / "particles.csv").read_text().splitlines(keepends=True)
    kept = [r for r in particles if not r.startswith(f"{eid},{pid},")]
    assert len(kept) == len(particles) - 1
    (run / "particles.csv").write_text("".join(kept))
    assert main(["reconstruct", "--in", str(run)]) == EXIT_OK
    capsys.readouterr()
    assert main(["evaluate", "--in", str(run), "--out", str(tmp_path / "m")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"hit {hid} of event {eid} names particle {pid}, missing from truth" in err
    assert "Traceback" not in err


def test_a_hit_on_a_missing_layer_is_a_data_error(tmp_path, capsys):
    # counted, the hit would stand for its particle's layer 3 and the
    # particle would still count as reconstructable
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", sim={"mean_multiplicity": 5.0})
    reconstruct = ["reconstruct", "--config", str(cfg), "--seed", "3", "--in", str(run)]
    assert main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(run),
                 "--events", "2"]) == EXIT_OK
    assert main(reconstruct) == EXIT_OK  # evaluate then has tracks to read
    rows = (run / "hits.csv").read_text().splitlines(keepends=True)
    line = next(k for k, r in enumerate(rows[1:], 2) if r.split(",")[2] == "3"
                and r.split(",")[6])
    fields = rows[line - 1].split(",")
    fields[2] = "7"
    rows[line - 1] = ",".join(fields)
    (run / "hits.csv").write_text("".join(rows))
    capsys.readouterr()
    for command in (reconstruct, ["evaluate", "--in", str(run), "--out", str(tmp_path / "m")]):
        assert main(command) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"hits.csv:{line}: layer 7 outside 0..3" in err and "Traceback" not in err


def test_evaluate_rejects_a_track_hit_missing_from_its_event(tmp_path, capsys):
    run, _ = run_pipeline(tmp_path, events=2)
    rows = (run / "tracks.csv").read_text().splitlines(keepends=True)
    fields = rows[1].split(",")
    eid, tid, hit_ids = fields[0], fields[1], fields[2].split(";")
    hit_ids[1] = "999999"
    fields[2] = ";".join(hit_ids)
    rows[1] = ",".join(fields)
    (run / "tracks.csv").write_text("".join(rows))
    capsys.readouterr()
    assert main(["evaluate", "--in", str(run), "--out", str(tmp_path / "m")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"tracks.csv: track {tid} of event {eid} names hit 999999, missing from "
            f"the event's hits") in err
    assert "Traceback" not in err


def test_evaluate_names_the_first_missing_hit_in_file_order(tmp_path, capsys):
    """Of several tracks with missing hits, the first in the file is named,
    with its first missing hit in column order; another event's hit counts
    as missing."""
    run, _ = run_pipeline(tmp_path, events=2)
    hit_ids = {}
    for line in (run / "hits.csv").read_text().splitlines()[1:]:
        hit_ids.setdefault(line.split(",")[0], set()).add(line.split(",")[1])
    small, large = sorted(hit_ids, key=lambda e: len(hit_ids[e]))
    foreign = min(hit_ids[large] - hit_ids[small], key=int)
    rows = (run / "tracks.csv").read_text().splitlines(keepends=True)
    first, second = [r for r, row in enumerate(rows) if row.split(",")[0] == small][:2]
    for r, replace in ((first, {1: foreign, 3: "999999"}), (second, {0: "999998"})):
        fields = rows[r].split(",")
        ids = fields[2].split(";")
        for c, hit in replace.items():
            ids[c] = hit
        fields[2] = ";".join(ids)
        rows[r] = ",".join(fields)
    (run / "tracks.csv").write_text("".join(rows))
    capsys.readouterr()
    assert main(["evaluate", "--in", str(run), "--out", str(tmp_path / "m")]) == EXIT_DATA
    err = capsys.readouterr().err
    tid = rows[first].split(",")[1]
    assert (f"tracks.csv: track {tid} of event {small} names hit {foreign}, missing from "
            f"the event's hits") in err


def test_reconstruct_rejects_a_hit_off_its_plane(tmp_path, capsys):
    # the planes at this pitch do not survive the hits table's 9-digit
    # print, so reading the file back needs the tolerance
    spacing = 0.1234567891
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", sim={"mean_multiplicity": 5.0},
                       geometry={"layer_spacing": spacing})
    reconstruct = ["reconstruct", "--config", str(cfg), "--seed", "3", "--in", str(run)]
    assert main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(run),
                 "--events", "2"]) == EXIT_OK
    rows = (run / "hits.csv").read_text().splitlines(keepends=True)
    k = next(k for k, r in enumerate(rows[1:], 1) if r.split(",")[2] == "2"
             and r.split(",")[6])
    fields = rows[k].split(",")
    assert float(fields[5]) != 1.0 + 2 * spacing
    assert main(reconstruct) == EXIT_OK
    fields[5] = "1.25"
    rows[k] = ",".join(fields)
    (run / "hits.csv").write_text("".join(rows))
    capsys.readouterr()
    assert main(reconstruct) == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"hits.csv: hit {fields[1]} of event {fields[0]} has z 1.25, off the plane "
            f"of layer 2 at z {1.0 + 2 * spacing!r}") in err
    assert "Traceback" not in err


def test_simulate_negative_event_count_is_a_usage_error(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--events", "-2"]) == EXIT_USAGE
    assert "--events: must be at least 0, got '-2'" in capsys.readouterr().err
    assert not run.exists()


def test_evaluate_invariant_violation_exit_three(tmp_path, capsys):
    run, _ = run_pipeline(tmp_path)
    lines = (run / "tracks.csv").read_text().splitlines()
    first = lines[1].split(",")
    used = {h for line in lines[1:] if line.split(",")[0] == first[0]
            for h in line.split(",")[2].split(";")}
    free = [r.split(",")[1] for r in (run / "hits.csv").read_text().splitlines()[1:]
            if r.split(",")[0] == first[0] and r.split(",")[1] not in used]
    assert len(free) >= 3
    # a track sharing only one hit with the first, and none with any other, is allowed
    single = [first[0], "76", ";".join([first[2].split(";")[0], *free[:3]]), *first[3:]]
    lines.append(",".join(single))
    (run / "tracks.csv").write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "--in", str(run),
                 "--out", str(tmp_path / "m")]) == EXIT_OK
    # duplicate the first track with a new id: shares all 4 hits
    lines.append(",".join([first[0], "77", *first[2:]]))
    (run / "tracks.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--in", str(run),
                 "--out", str(tmp_path / "m")]) == EXIT_INVARIANT
    assert (f"event {first[0]}: final tracks {first[1]} and 77 share >= 2 hits"
            in capsys.readouterr().err)


def test_evaluate_names_the_first_event_by_its_first_track(tmp_path, capsys):
    """Two events interleaved in tracks.csv, each with copied tracks: the
    event named is the one whose first track comes first, though the other
    one's pair comes first, and within it the pair lowest in (i, j)."""
    run, _ = run_pipeline(tmp_path)
    header, *rows = (run / "tracks.csv").read_text().splitlines()
    by_event: dict[str, list[list[str]]] = {}
    for row in rows:
        by_event.setdefault(row.split(",")[0], []).append(row.split(","))
    (a, c, d), (b, *_) = [ts[:3] for ts in by_event.values() if len(ts) >= 3][:2]

    def copy(track, track_id):
        return [track[0], track_id, *track[2:]]

    # pairs (3, 6) and (4, 5) in the first event, (1, 2) in the second
    tracks = [a, b, copy(b, "901"), c, d, copy(d, "902"), copy(c, "903")]
    (run / "tracks.csv").write_text("\n".join([header, *map(",".join, tracks)]) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--in", str(run),
                 "--out", str(tmp_path / "m")]) == EXIT_INVARIANT
    assert (f"event {a[0]}: final tracks {c[1]} and 903 share >= 2 hits"
            in capsys.readouterr().err)


def test_determinism_across_jobs(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    for out in (run_a, run_b):
        assert main(["simulate", "--out", str(out), "--events", "6",
                     "--seed", "21"]) == EXIT_OK
    assert main(["reconstruct", "--in", str(run_a), "--seed", "21",
                 "--jobs", "1"]) == EXIT_OK
    assert main(["reconstruct", "--in", str(run_b), "--seed", "21",
                 "--jobs", "8"]) == EXIT_OK
    assert (run_a / "tracks.csv").read_bytes() == (run_b / "tracks.csv").read_bytes()
    assert (run_a / "solve_report.json").read_bytes() == (run_b / "solve_report.json").read_bytes()


def test_evaluate_overlap_check_keys_each_run_apart(tmp_path, capsys):
    """A run given twice shares no hit between its copies, whose events
    are offset past the first copy's; a copied track in the second copy
    is named by its offset event id."""
    run, _ = run_pipeline(tmp_path, events=2)
    assert main(["evaluate", "--in", str(run), str(run),
                 "--out", str(tmp_path / "m2")]) == EXIT_OK
    single = read_json(tmp_path / "metrics" / "metrics.json")["counts"]
    double = read_json(tmp_path / "m2" / "metrics.json")["counts"]
    assert double == {k: 2 * v for k, v in single.items()}

    other = tmp_path / "other"
    other.mkdir()
    for name in ("hits.csv", "particles.csv", "simulate_meta.json"):
        (other / name).write_bytes((run / name).read_bytes())
    lines = (run / "tracks.csv").read_text().splitlines()
    first = lines[1].split(",")
    (other / "tracks.csv").write_text(
        "\n".join([*lines, ",".join([first[0], "77", *first[2:]])]) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "--in", str(run), str(other),
                 "--out", str(tmp_path / "m3")]) == EXIT_INVARIANT
    offset = 1 + max(int(line.split(",")[0])
                     for line in (run / "hits.csv").read_text().splitlines()[1:])
    assert (f"event {int(first[0]) + offset}: final tracks {first[1]} and 77 share >= 2 hits"
            in capsys.readouterr().err)


def test_evaluate_multiple_runs_per_xi_aggregation(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    runs = []
    for xi, seed in ((3.0, 1), (3.5, 2)):
        run = tmp_path / f"run{seed}"
        # xi presets give huge multiplicities; override by config afterwards
        assert main(["simulate", "--config", str(cfg), "--out", str(run),
                     "--events", "2", "--seed", str(seed)]) == EXIT_OK
        meta = read_json(run / "simulate_meta.json")
        meta["xi_label"] = xi
        (run / "simulate_meta.json").write_text(json.dumps(meta))
        assert main(["reconstruct", "--in", str(run), "--seed", str(seed)]) == EXIT_OK
        runs.append(run)
    out = tmp_path / "m"
    assert main(["evaluate", "--in", *map(str, runs), "--out", str(out)]) == EXIT_OK
    report = read_json(out / "metrics.json")
    assert set(report["per_xi_label"]) == {"3.0", "3.5"}
    # the flattened table keys the per-label metrics by xi, one row each
    tidy = tmp_path / "tidy.csv"
    assert main(["plotdata", "--report", str(out / "metrics.json"),
                 "--out", str(tidy)]) == EXIT_OK
    labelled = [line for line in tidy.read_text().splitlines()
                if line.split(",")[1] in ("3.0", "3.5")]
    assert {line.split(",")[1] for line in labelled} == {"3.0", "3.5"}
    assert any(line.startswith("efficiency,3.0") for line in labelled)


def test_exact_and_vqe_agree_on_two_particle_event(tmp_path):
    # a small problem both solvers drive to the enumerated optimum
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "sim": {"mean_multiplicity": 2.0, "poisson_multiplicity": False,
                "energy_spectrum": {"kind": "uniform", "minimum": 3.0,
                                    "maximum": 9.0}},
    }))
    run_exact, run_vqe_dir = tmp_path / "exact", tmp_path / "vqe"
    for out in (run_exact, run_vqe_dir):
        assert main(["simulate", "--config", str(cfg), "--seed", "13",
                     "--out", str(out), "--events", "3"]) == EXIT_OK
    assert main(["reconstruct", "--config", str(cfg), "--seed", "13",
                 "--in", str(run_exact), "--solver", "exact"]) == EXIT_OK
    assert main(["reconstruct", "--config", str(cfg), "--seed", "13",
                 "--in", str(run_vqe_dir), "--solver", "vqe",
                 "--shots", "512", "--subqubo-size", "7"]) == EXIT_OK
    hits_of = lambda run: sorted(
        (t.event_id, t.hit_ids) for t in read_tracks_csv(run / "tracks.csv"))
    assert hits_of(run_exact) == hits_of(run_vqe_dir)
    assert len(hits_of(run_exact)) >= 3


def test_plotdata_tidy_output(tmp_path):
    _, out = run_pipeline(tmp_path)
    counts_csv = tmp_path / "counts.csv"
    counts_csv.write_text("bitstring,count\n1001101,400\n0110010,60\n")
    tidy = tmp_path / "plot.csv"
    assert main(["plotdata", "--report", str(out / "metrics.json"),
                 "--counts", str(counts_csv), "--out", str(tidy)]) == EXIT_OK
    text = tidy.read_text().splitlines()
    assert text[0] == "metric,xi_label,bin,value,err_lo,err_hi"
    metrics = {line.split(",")[0] for line in text[1:]}
    assert {"efficiency", "fake_rate", "duplication_rate",
            "energy_resolution", "vqe_counts"} <= metrics
    assert any(line.startswith("vqe_counts,,1001101,400") for line in text)


# sha256 of qubo_event0.txt from "simulate --events 2 --seed 5", then
# "reconstruct --seed 5 --dump-qubo --debug-dump", recorded when events
# were first drawn as arrays from a SeedSequence stream per (seed, event)
QUBO_EVENT0_SHA256 = "89e543d787c075b7b7d308c148cedf8f3a68e0c11aeb3f17d84561057152e094"


def test_dump_flags_write_extra_artifacts(tmp_path, monkeypatch):
    import hashlib
    from qubotrack import pipeline
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--events", "2",
                 "--seed", "5"]) == EXIT_OK
    calls = {"calibrate": 0, "assemble_qubo": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(pipeline, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(pipeline, name, counted)
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"jobs{jobs}"
        assert main(["reconstruct", "--in", str(run), "--seed", "5",
                     "--out", str(outs[jobs]), "--jobs", jobs,
                     "--dump-qubo", "--debug-dump"]) == EXIT_OK
        if jobs == "1":
            # the dumps come from the one pass that reconstructs the events
            assert calls == {"calibrate": 1, "assemble_qubo": 2}
    names = sorted(p.name for p in outs["1"].iterdir())
    assert {"qubo_event0.txt", "qubo_event1.txt", "doublets_event0.csv",
            "doublets_event1.csv", "triplets_event0.csv",
            "triplets_event1.csv"} <= set(names)
    assert names == sorted(p.name for p in outs["2"].iterdir())
    for name in names:
        assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes(), name
    digest = hashlib.sha256((outs["1"] / "qubo_event0.txt").read_bytes()).hexdigest()
    assert digest == QUBO_EVENT0_SHA256


# sha256 of the files "simulate --seed 2024 --events 3" writes at mean
# multiplicity 10, 100 and 200, recorded when events were first drawn as
# arrays from a SeedSequence stream per (seed, event)
SIMULATE_SHA256 = {
    10: ("e7e3a9e849ed35918cf571bbd7d50fd24745a0e1a84175f4401882b9d2fca964",
         "e905cda3f43cf547063299c5c5e35c11e07ea007ee8dcd2001c9d5c69cf04337"),
    100: ("1ba458a15de3ab4376555a842204a09496157c05fa6605a32019de2f52b11c09",
          "6fdce3ab09317787d9561ac15c76d3ffa103b5f60e234ac82a9ec543da25a9e5"),
    200: ("ed43a56fbc4b60c299b5590d3e64cbc29c00e966a232b9575f6f2a0103abc2fc",
          "f93da3697cababffda696329de1fc26b368a1bac8be19bbfd660259637750aef"),
}


@pytest.mark.parametrize("multiplicity", sorted(SIMULATE_SHA256))
def test_simulate_file_bytes_are_pinned(tmp_path, multiplicity):
    import hashlib
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"sim": {"mean_multiplicity": float(multiplicity)}}))
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--seed", "2024", "--out", str(run),
                 "--events", "3"]) == EXIT_OK
    got = tuple(hashlib.sha256((run / name).read_bytes()).hexdigest()
                for name in ("hits.csv", "particles.csv"))
    assert got == SIMULATE_SHA256[multiplicity]


@pytest.mark.parametrize("column, text, message", [
    (2, "-1", "particle energy must be positive, got -1.0"),
    (6, "1e200", "direction does not normalize: |d| = inf"),
], ids=["negative-energy", "overflowing-direction"])
def test_reconstruct_bad_particle_is_a_data_error(tmp_path, capsys, column, text, message):
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--events", "2", "--seed", "3"]) == EXIT_OK
    lines = (run / "particles.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[column] = text
    lines[3] = ",".join(fields)
    (run / "particles.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for command in (["reconstruct", "--in", str(run)],
                    ["evaluate", "--in", str(run), "--out", str(tmp_path / "m")]):
        assert main(command) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {run / 'particles.csv'}:4: {message}\n"


def plot_report(path, bins=None):
    """A metrics report of the shape ``evaluate`` writes, with a label and
    a curve name that csv quoting must handle."""
    bins = bins if bins is not None else [
        {"bin_lo": 0.0, "bin_hi": 1.0, "value": None, "err_lo": None, "err_hi": None},
        {"bin_lo": 1.0, "bin_hi": 2.5, "value": 0.75, "err_lo": 0.125, "err_hi": 0.0625}]
    path.write_text(json.dumps({
        "efficiency": 0.9, "fake_rate": 0.0, "duplication_rate": None,
        "energy_resolution": 0.0031,
        "per_xi_label": {"3.0": {"efficiency": 0.5, "events": 2, "tracks": 7,
                                 "fake_rate": None},
                         'odd, "label"': {"efficiency": 1}},
        "curves": {"efficiency_vs_true_energy": bins, "a,b": bins[1:]}}))
    return path


def csv_writer_plotdata(path, reports, counts):
    """The plot table as it was written, row by row through ``csv.writer``."""
    import csv
    rows = []
    for report in reports:
        payload = read_json(report)
        for metric in ("efficiency", "fake_rate", "duplication_rate", "energy_resolution"):
            if payload.get(metric) is not None:
                rows.append((metric, "", "", payload[metric], "", ""))
        for label, metrics in payload.get("per_xi_label", {}).items():
            rows.extend((metric, label, "", value, "", "") for metric, value in metrics.items()
                        if metric not in ("events", "tracks") and value is not None)
        for curve, bins in payload.get("curves", {}).items():
            rows.extend((curve, "", f"{b['bin_lo']}:{b['bin_hi']}", b["value"], b["err_lo"],
                         b["err_hi"]) for b in bins if b["value"] is not None)
    for name in counts:
        with open(name, newline="") as f:
            rows.extend(("vqe_counts", "", r["bitstring"], int(r["count"]), "", "")
                        for r in csv.DictReader(f))
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["metric", "xi_label", "bin", "value", "err_lo", "err_hi"])
        w.writerows(rows)


def test_plotdata_gives_csv_writer_bytes(tmp_path):
    from qubotrack.io import write_counts_csv
    reports = [plot_report(tmp_path / "a.json"), plot_report(tmp_path / "b.json", bins=[])]
    counts = [tmp_path / "c.csv", tmp_path / "d.csv"]
    write_counts_csv(counts[0], {"1001101": 400, "0110010": 60})
    write_counts_csv(counts[1], {})
    assert main(["plotdata", "--report", *map(str, reports), "--counts", *map(str, counts),
                 "--out", str(tmp_path / "new.csv")]) == EXIT_OK
    csv_writer_plotdata(tmp_path / "old.csv", reports, counts)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("counts, bins, message", [
    ("bitstring,n\n1001,4\n", None, r"c\.csv: bad header \['bitstring', 'n'\]"),
    ("bitstring,count\n1001,4\n0110,many\n", None,
     r"c\.csv:3: bad integer in column 'count': 'many'"),
    ("bitstring,count\n", [{"bin_hi": 1.0, "value": 0.5, "err_lo": 0.1, "err_hi": 0.1}],
     r"r\.json: bin 0 of curve 'efficiency_vs_true_energy' lacks bin_lo"),
], ids=["no-count-column", "non-integer-count", "bin-without-bin_lo"])
def test_plotdata_bad_input_is_a_data_error(tmp_path, capsys, counts, bins, message):
    import re
    (tmp_path / "c.csv").write_text(counts)
    plot_report(tmp_path / "r.json", bins)
    capsys.readouterr()
    assert main(["plotdata", "--report", str(tmp_path / "r.json"), "--counts",
                 str(tmp_path / "c.csv"), "--out", str(tmp_path / "p.csv")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert re.search(message, err) and "Traceback" not in err, err
