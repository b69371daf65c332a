"""Command line front-end: simulate | reconstruct | evaluate | plotdata.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(unreadable or inconsistent input files, or input too large for the
available memory), 3 invariant violation detected in otherwise
well-formed data.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, SOLVERS
from .fastsim import SimulationError, xi_to_multiplicity
from .geometry import Event, GeometryConfig, build_geometry, shared_hits
from .io import (DataFormatError, _write_table, config_hash, read_counts_csv, read_events,
                 read_json, read_tracks_csv, write_curves_csv, write_hits_csv, write_json,
                 write_particles_csv, write_tracks_csv)
from .metrics import RunTruth, TrackRecord, build_report, track_columns
from .pipeline import EventDumps, reconstruct_events, simulate_events
from .preselect import CalibrationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3

DEFAULT_ENERGY_BINS = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]
# a hit's z may differ from its plane's by this fraction of the plane's z:
# twice the rounding of the 9 significant digits the hits table is written with
PLANE_TOLERANCE = 1e-8


class InvariantViolation(Exception):
    pass


class OutputError(Exception):
    """An output that cannot be written (exit 2)."""


@contextmanager
def _writing(out: Path):
    """Report an ``OSError`` raised inside, such as a file where the
    output directory should be, as an :class:`OutputError` naming ``out``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write to {out}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the interface reserves 2 for
    # data errors, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        config = config.with_seed(args.seed)
    if getattr(args, "xi", None) is not None:
        try:
            multiplicity = xi_to_multiplicity(args.xi)
        except SimulationError as exc:
            raise ConfigError(str(exc)) from exc
        config = config.with_xi(args.xi, multiplicity)
    for key in ("solver", "subqubo_size", "iterations", "shots"):
        value = getattr(args, key, None)
        if value is not None:
            d = config.to_dict()
            d[key] = value
            config = RunConfig.from_dict(d)
    return config


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        events = simulate_events(config, args.events)
        write_hits_csv(out / "hits.csv", events)
        write_particles_csv(out / "particles.csv", events)
        write_json(out / "simulate_meta.json", {
            "command": "simulate",
            "config": config.to_dict(),
            "config_hash": config_hash(config.to_dict()),
            "seed": config.seed,
            "n_events": args.events,
            "xi_label": config.sim.xi_label,
            "mean_multiplicity": config.sim.mean_multiplicity,
        })
    print(f"simulated {args.events} events -> {out}")
    return EXIT_OK


def _read_run_dir(run_dir: Path) -> tuple[list[Event], float]:
    hits = run_dir / "hits.csv"
    particles = run_dir / "particles.csv"
    for p in (hits, particles):
        if not p.exists():
            raise DataFormatError(f"missing input file {p}")
    xi_label = 0.0
    meta_path = run_dir / "simulate_meta.json"
    if meta_path.exists():
        value = read_json(meta_path).get("xi_label", 0.0)
        try:
            xi_label = float(value)
        except (TypeError, ValueError):
            raise DataFormatError(f"{meta_path}: xi_label {value!r} is not a number") from None
    return read_events(hits, particles, xi_label=xi_label), xi_label


def _check_planes(events: list[Event], geometry: GeometryConfig, hits_path: Path) -> None:
    """Every hit lies on its layer's plane, up to ``PLANE_TOLERANCE``."""
    planes = np.array(geometry.layer_z)
    for e in events:
        h = e.hits
        plane = planes[h.layers]
        off = np.flatnonzero(np.abs(h.positions[:, 2] - plane) > PLANE_TOLERANCE * np.abs(plane))
        if off.size:
            k = off[0]
            raise DataFormatError(
                f"{hits_path}: hit {h.ids[k]} of event {e.event_id} has z "
                f"{float(h.positions[k, 2])!r}, off the plane of layer {h.layers[k]} "
                f"at z {float(plane[k])!r}")


def cmd_reconstruct(args) -> int:
    config = _load_config(args)
    run_dir = Path(args.input)
    out = Path(args.out) if args.out else run_dir
    events, _ = _read_run_dir(run_dir)
    _check_planes(events, build_geometry(config.geometry), run_dir / "hits.csv")
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    results, calib_info = reconstruct_events(
        events, config, args.jobs, EventDumps(out, args.dump_qubo, args.debug_dump))

    tracks = [t for r in results for t in r.tracks]
    with _writing(out):
        write_tracks_csv(out / "tracks.csv", tracks)
        write_json(out / "solve_report.json", {
            "command": "reconstruct",
            "config": config.to_dict(),
            "config_hash": config_hash(config.to_dict()),
            "seed": config.seed,
            "solver": config.solver,
            "subqubo_size": config.subqubo_size,
            "iterations": config.iterations,
            "shots": config.shots,
            "calibration": calib_info,
            "events": [
                {
                    "event_id": r.event_id,
                    "n_doublets": r.n_doublets,
                    "n_triplets": r.n_triplets,
                    "n_tracks": len(r.tracks),
                    "solve": None if r.report is None else r.report.to_dict(),
                }
                for r in results
            ],
        })

    print(f"reconstructed {len(events)} events, {len(tracks)} tracks -> {out}")
    return EXIT_OK


def _offset_events(events: list[Event], tracks: list[TrackRecord], offset: int
                   ) -> tuple[list[Event], list[TrackRecord]]:
    if offset == 0:
        return events, tracks
    return ([replace(e, event_id=e.event_id + offset) for e in events],
            [replace(t, event_id=t.event_id + offset) for t in tracks])


def _check_shared_hits(tracks: list[TrackRecord], event_ids: np.ndarray,
                       hit_ids: np.ndarray) -> None:
    """Raise on two tracks of one event that share two hits or more: of the
    events with such a pair, the one whose first track comes first, and
    its lowest pair. ``event_ids`` and ``hit_ids`` are the tracks' columns
    (:func:`~qubotrack.metrics.track_columns`)."""
    _, first, event = np.unique(event_ids, return_index=True, return_inverse=True)
    hits, hit = np.unique(hit_ids.reshape(-1), return_inverse=True)
    # one code per distinct (event, hit id), so tracks of two events share none
    i, j, n = shared_hits(event[:, None] * len(hits) + hit.reshape(hit_ids.shape))
    bad = np.flatnonzero(n >= 2)
    if bad.size:
        # pairs ascend in (i, j), so the first of the first event is its lowest
        k = bad[np.argmin(first[event[i[bad]]])]
        a, b = tracks[i[k]], tracks[j[k]]
        raise InvariantViolation(
            f"event {a.event_id}: final tracks {a.track_id} and {b.track_id} "
            f"share >= 2 hits")


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    all_events: list[Event] = []
    all_tracks: list[TrackRecord] = []
    columns: list[tuple[np.ndarray, np.ndarray]] = []  # event ids, hit ids
    offset = 0
    for run in args.inputs:
        run_dir = Path(run)
        events, _ = _read_run_dir(run_dir)
        tracks_path = run_dir / "tracks.csv"
        if not tracks_path.exists():
            raise DataFormatError(f"missing input file {tracks_path}")
        tracks = read_tracks_csv(tracks_path)
        event_ids, hit_ids, _ = track_columns(tracks)
        truth = RunTruth(events)
        missing = np.setdiff1d(event_ids, truth.event_ids).tolist()
        if missing:
            raise DataFormatError(
                f"{tracks_path}: tracks reference events missing from truth: {missing}")
        _, found = truth.owners(truth.event_index(event_ids), hit_ids)
        if not found.all():
            k, c = divmod(int(np.argmin(found)), found.shape[1])
            raise DataFormatError(
                f"{tracks_path}: track {tracks[k].track_id} of event {tracks[k].event_id} "
                f"names hit {hit_ids[k, c]}, missing from the event's hits")
        for e in events:
            h = e.hits
            dangling = np.flatnonzero(h.known & ~np.isin(h.truth, e.particles.ids))
            if dangling.size:
                k = dangling[0]
                raise DataFormatError(
                    f"{run_dir / 'hits.csv'}: hit {h.ids[k]} of event {e.event_id} "
                    f"names particle {h.truth[k]}, missing from truth")
        events, tracks = _offset_events(events, tracks, offset)
        columns.append((event_ids + offset, hit_ids))
        offset = max((e.event_id for e in events), default=offset - 1) + 1
        all_events.extend(events)
        all_tracks.extend(tracks)

    edges = args.energy_bins or DEFAULT_ENERGY_BINS
    report = build_report(all_events, all_tracks, edges=edges)
    _check_shared_hits(all_tracks, *map(np.concatenate, zip(*columns)))
    problems = report.check_invariants()
    if problems:
        raise InvariantViolation("; ".join(problems))

    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "metrics.json", {
            "command": "evaluate",
            "config_hash": config_hash(config.to_dict()),
            "seed": config.seed,
            "inputs": [str(p) for p in args.inputs],
            **report.to_dict(),
        })
        for name, bins in report.curves.items():
            write_curves_csv(out / f"curve_{name}.csv", bins)
    print(f"evaluated {len(all_events)} events, {len(all_tracks)} tracks -> {out}")
    return EXIT_OK


PLOT_HEADER = ["metric", "xi_label", "bin", "value", "err_lo", "err_hi"]
BIN_KEYS = ("bin_lo", "bin_hi", "value", "err_lo", "err_hi")


def _plot_field(value) -> str:
    """``value`` as ``csv.writer`` writes it: None empty, a field holding
    a comma, quote or line end quoted."""
    text = "" if value is None else str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _shaped(value, kind: type, path, part: str):
    """``value`` if it is a ``kind`` (a dict or a list); otherwise a
    :class:`DataFormatError` naming the file and the part."""
    if not isinstance(value, kind):
        raise DataFormatError(f"{path}: {part} is {type(value).__name__}, not "
                              f"{'an object' if kind is dict else 'a list'}")
    return value


def cmd_plotdata(args) -> int:
    rows: list[tuple] = []
    for path in args.reports:
        payload = read_json(Path(path))
        for metric in ("efficiency", "fake_rate", "duplication_rate",
                       "energy_resolution"):
            value = payload.get(metric)
            if value is not None:
                rows.append((metric, "", "", value, "", ""))
        labels = _shaped(payload.get("per_xi_label", {}), dict, path, "per_xi_label")
        for label, metrics in labels.items():
            for metric, value in _shaped(metrics, dict, path, f"per_xi_label {label!r}").items():
                if metric in ("events", "tracks") or value is None:
                    continue
                rows.append((metric, label, "", value, "", ""))
        for curve, bins in _shaped(payload.get("curves", {}), dict, path, "curves").items():
            for k, b in enumerate(_shaped(bins, list, path, f"curve {curve!r}")):
                _shaped(b, dict, path, f"bin {k} of curve {curve!r}")
                missing = [key for key in BIN_KEYS if key not in b]
                if missing:
                    raise DataFormatError(f"{path}: bin {k} of curve {curve!r} lacks "
                                          f"{', '.join(missing)}")
                if b["value"] is None:
                    continue
                rows.append((curve, "", f"{b['bin_lo']}:{b['bin_hi']}",
                             b["value"], b["err_lo"], b["err_hi"]))
    for path in args.counts or []:
        rows.extend(("vqe_counts", "", bits, count, "", "")
                    for bits, count in read_counts_csv(Path(path)))

    out = Path(args.out)
    with _writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_table(out, PLOT_HEADER, ",".join(["%s"] * len(PLOT_HEADER)),
                     (tuple(map(_plot_field, row)) for row in rows))
    print(f"wrote {len(rows)} rows -> {out}")
    return EXIT_OK


def _bin_edges(text: str) -> list[float]:
    edges = [float(x) for x in text.split(",")]
    if len(edges) < 2 or not all(b > a for a, b in zip(edges, edges[1:])):
        raise argparse.ArgumentTypeError(
            f"need at least 2 strictly increasing bin edges, got {text!r}")
    return edges


def _non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qubotrack",
                     description="toy 4-layer tracker reconstruction via "
                                 "binary triplet selection")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--seed", type=int, help="override the run seed")

    p_sim = sub.add_parser("simulate", help="generate toy events")
    common(p_sim)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--events", type=_non_negative_int, required=True,
                       help="number of events")
    p_sim.add_argument("--xi", type=float,
                       help="intensity-label preset; sets the mean multiplicity")

    p_rec = sub.add_parser("reconstruct", help="reconstruct tracks from a hits file")
    common(p_rec)
    p_rec.add_argument("--in", dest="input", required=True,
                       help="run directory with hits.csv and particles.csv")
    p_rec.add_argument("--out", help="output directory (default: the input directory)")
    p_rec.add_argument("--solver", choices=SOLVERS,
                       help="exact or vqe sub-problems, or anneal the whole objective")
    p_rec.add_argument("--subqubo-size", dest="subqubo_size", type=int)
    p_rec.add_argument("--iterations", type=int)
    p_rec.add_argument("--shots", type=int)
    p_rec.add_argument("--jobs", type=_positive_int, default=1,
                       help="per-event worker processes, at most one per event "
                            "(default 1)")
    p_rec.add_argument("--dump-qubo", action="store_true",
                       help="also write per-event objective dumps")
    p_rec.add_argument("--debug-dump", action="store_true",
                       help="also write per-event doublet/triplet feature tables")

    p_eval = sub.add_parser("evaluate", help="compute metrics against truth")
    common(p_eval)
    p_eval.add_argument("--in", dest="inputs", nargs="+", required=True,
                        help="run directories (hits, particles and tracks files)")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--energy-bins", type=_bin_edges,
                        help="comma-separated bin edges in GeV")

    p_plot = sub.add_parser("plotdata", help="flatten reports into a tidy table")
    p_plot.add_argument("--report", dest="reports", nargs="+", required=True,
                        help="metrics.json files")
    p_plot.add_argument("--counts", nargs="*",
                        help="optional bitstring histogram CSVs to include")
    p_plot.add_argument("--out", required=True, help="output CSV path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "simulate": cmd_simulate,
        "reconstruct": cmd_reconstruct,
        "evaluate": cmd_evaluate,
        "plotdata": cmd_plotdata,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, CalibrationError, FileNotFoundError, OutputError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print("data error: out of memory; the input is too large for this machine",
              file=sys.stderr)
        return EXIT_DATA
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
