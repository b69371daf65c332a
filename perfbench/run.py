#!/usr/bin/env python3
"""Reconstruction benchmark: one workload at one seed, one JSON result line.

    python3 perfbench/run.py --workload desk100_exact --seed 2024 --seconds 25 --trace 0

Run it from a checkout; it imports the package from the checkout's ``src/``.
The chain is the user's: generate events with ``fastsim``, write and read
back the hit and particle CSVs, ``pipeline.calibrate``, one
``pipeline.reconstruct_event`` call per event in a closed loop (each event
starts when the previous one has finished, one process), then
``metrics.build_report``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. The events
are reconstructed in passes until ``--seconds`` of reconstruction time have
gone by, at least once each. ``events_per_s`` weighs every event equally:
the event count over the sum of each event's mean latency over its repeats.
Set-up and evaluation are repeated at points spread over that loop and
their medians reported, so a short slow spell of the machine moves them no
more than it moves the loop.

``--trace 1`` reports the per-layer metrics. It reconstructs every event
twice, once plain and once with spans around the calls into each layer,
and writes the spans to ``.perfbench/traces/``.

Every run checks the outputs (checks.py). The last line of standard output
is the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from checks import check_solve_report, check_tracks, event_digest, fingerprint
from probe import REFERENCE_S, speed_probe
from spans import Tracer, patched
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT = ROOT / ".perfbench"
MIN_REPEATS = 5
# an untraced run spends about this long on repeated set-ups and evaluations
SAMPLE_BUDGET_S = 3.0
MAX_SAMPLES = 50
PROBE_EVERY_S = 0.25  # of reconstruction time, between two speed probes
SUBSOLVER_SPANS = ("solvers.exact", "solvers.anneal", "vqe.run")


def no_span(name):
    return nullcontext()


def load_program():
    """Import qubotrack from this checkout's src/, and nothing else."""
    package = ROOT / "src" / "qubotrack"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {package}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import qubotrack
    if Path(qubotrack.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported {qubotrack.__file__}, expected {package}")
    import numpy
    import qubotrack.config
    import qubotrack.io
    import qubotrack.metrics
    import qubotrack.pipeline
    import qubotrack.qubo
    import qubotrack.solvers
    import qubotrack.vqe
    return qubotrack, numpy


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine(numpy) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "arch": platform.machine(), "kernel": platform.release(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit(), "code": code_hash()}


def set_up(qt, config, n_events, work, span=no_span):
    gc.collect()
    t0 = time.perf_counter()
    with span("fastsim.generate"):
        events = qt.pipeline.simulate_events(config, n_events)
    with span("io.write"):
        qt.io.write_hits_csv(work / "hits.csv", events)
        qt.io.write_particles_csv(work / "particles.csv", events)
    with span("io.read"):
        events = qt.io.read_events(work / "hits.csv", work / "particles.csv")
    with span("pipeline.calibrate"):
        geometry = qt.geometry.build_geometry(config.geometry)
        window, scaling, _ = qt.pipeline.calibrate(events, config)
    return time.perf_counter() - t0, (events, geometry, window, scaling)


def evaluate(qt, events, tracks, span=no_span):
    gc.collect()
    t0 = time.perf_counter()
    with span("metrics.report"):
        report = qt.metrics.build_report(events, tracks)
    return time.perf_counter() - t0, report


class QuboCapture:
    """Stands in for ``pipeline.assemble_qubo`` and keeps the last objective,
    so the solve report of each event can be checked against it."""

    def __init__(self, assemble):
        self.assemble = assemble
        self.last = None

    def __call__(self, *args, **kwargs):
        self.last = self.assemble(*args, **kwargs)
        return self.last


class Probes:
    """Speed probes spread over a loop: one every PROBE_EVERY_S of the
    loop's own time, counted through ``tick``."""

    def __init__(self):
        self.values = [speed_probe()]
        self.busy = 0.0
        self.due = PROBE_EVERY_S

    def tick(self, dt: float) -> None:
        self.busy += dt
        if self.busy >= self.due:
            self.values.append(speed_probe())
            self.due = self.busy + PROBE_EVERY_S

    def mean(self) -> float:
        # the mean, not the median: the loop's time is a sum over fast and
        # slow spells, and so is the mean of probes spread evenly through it
        return statistics.fmean(self.values)


class EventLoop:
    """Closed-loop reconstruction with per-event timing and output checks.

    Latencies are kept per event, apart for plain and traced calls. The
    first result of each event is checked and kept; a later repeat of the
    same event must produce an identical digest.
    """

    def __init__(self, qt, config, state):
        self.qt, self.config = qt, config
        self.events, self.geometry, self.window, self.scaling = state
        self.capture = QuboCapture(qt.pipeline.assemble_qubo)
        self.times: dict[int, list[float]] = {}
        self.traced_times: dict[int, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.results: dict[int, object] = {}
        self.digests: dict[int, str] = {}
        self.problems: list[str] = []

    def run(self, event, tracer=None) -> float:
        self.attempted += 1
        self.capture.last = None
        root = tracer.span("pipeline.reconstruct") if tracer else nullcontext()
        times = self.traced_times if tracer else self.times
        t0 = time.perf_counter()
        try:
            with root:
                result = self.qt.pipeline.reconstruct_event(
                    event, self.geometry, self.window, self.scaling, self.config)
        except Exception:  # a failed event is counted and the loop goes on
            dt = time.perf_counter() - t0
            times.setdefault(event.event_id, []).append(dt)
            if self.failed == 0:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return dt
        dt = time.perf_counter() - t0
        times.setdefault(event.event_id, []).append(dt)
        self._check(event, result, self.capture.last)
        self.capture.last = None
        return dt

    def event_seconds(self, traced=False) -> list[float]:
        """Each event's mean latency over its repeats, in event order."""
        times = self.traced_times if traced else self.times
        return [statistics.fmean(times[e.event_id]) for e in self.events
                if e.event_id in times]

    def events_per_s(self, traced=False) -> float:
        """Reconstructed events over the summed mean latencies: every event
        weighs the same however often the loop reached it."""
        return len(self.results) / sum(self.event_seconds(traced))

    def _check(self, event, result, qubo) -> None:
        digest = event_digest(result)
        seen = self.digests.get(event.event_id)
        if seen is not None:
            if seen != digest:
                self.problems.append(f"event {event.event_id}: outputs differ between repeats")
            return
        self.digests[event.event_id] = digest
        self.results[event.event_id] = result
        if result.report is not None:
            self.problems += check_solve_report(event.event_id, result.report, qubo,
                                                self.qt.qubo.objective)
        self.problems += check_tracks(event, result.tracks, self.geometry.n_layers)

    def first_results(self) -> list:
        return [self.results[e.event_id] for e in self.events if e.event_id in self.results]

    def tracks(self) -> list:
        return [t for r in self.first_results() for t in r.tracks]


def measure_untraced(qt, config, n_events, work, seconds):
    """Closed loop for ``seconds`` of reconstruction time, at least one pass.

    Set-up runs once before the loop. Further set-ups, and evaluations once
    the first pass has a result for every event, run at points spread evenly
    over the loop's reconstruction time; their count is sized from the first
    set-up so that they take about SAMPLE_BUDGET_S. The speed probe runs
    every PROBE_EVERY_S of reconstruction time and right before each set-up
    and evaluation. Reconstruction time is scaled by the mean probe of the
    loop, each set-up and evaluation by its own probe (see probe.py).
    Returns the loop, the last report, the scaled timings and the raw
    wall-clock ones.
    """
    setup, evaluation = [], []  # (wall seconds, probe seconds just before)

    def timed(samples, fn):
        probe = speed_probe()
        elapsed, result = fn()
        samples.append((elapsed, probe))
        return result

    speed_probe()  # warm-up, not used
    state = timed(setup, lambda: set_up(qt, config, n_events, work))
    n_samples = min(MAX_SAMPLES, max(MIN_REPEATS, int(SAMPLE_BUDGET_S / (2 * setup[0][0]))))
    due = [seconds * (k + 1) / (n_samples + 1) for k in range(n_samples)]
    owed, report, probes = 0, None, Probes()
    loop = EventLoop(qt, config, state)
    events = loop.events

    def settle():
        nonlocal owed, report
        tracks = loop.tracks()
        for _ in range(owed):
            report = timed(evaluation, lambda: evaluate(qt, events, tracks))
        owed = 0

    gc.collect()
    with patched([(qt.pipeline, "assemble_qubo", loop.capture)]):
        j = 0
        while j < n_events or probes.busy < seconds:
            probes.tick(loop.run(events[j % n_events]))
            j += 1
            while due and probes.busy >= due[0]:
                due.pop(0)
                timed(setup, lambda: set_up(qt, config, n_events, work))
                owed += 1
            if j >= n_events and owed:
                settle()
    owed += max(0, MIN_REPEATS - len(evaluation))
    settle()
    while len(setup) < MIN_REPEATS:
        timed(setup, lambda: set_up(qt, config, n_events, work))

    probe = probes.mean()
    events_per_s = loop.events_per_s()
    wall = {"events_per_s": events_per_s,
            "setup_s": statistics.median(t for t, _ in setup),
            "evaluate_s": statistics.median(t for t, _ in evaluation),
            "probe_s": probe}
    scaled = {"events_per_s": events_per_s * probe / REFERENCE_S,
              "setup_s": statistics.median(t * REFERENCE_S / p for t, p in setup),
              "evaluate_s": statistics.median(t * REFERENCE_S / p for t, p in evaluation)}
    return loop, report, scaled, wall


def trace_targets(qt, tracer, assemble):
    """(module, attribute, shim) for every call the chain makes through a
    module attribute, the shim for ``assemble``, and the optional private
    names that are absent."""
    def doublets(tr, out):
        tr.add("doublets_true", sum(
            1 for d in out if d.hit_inner.truth_particle_id is not None
            and d.hit_inner.truth_particle_id == d.hit_outer.truth_particle_id))

    def triplets(tr, out):
        tr.add("triplets_true", sum(1 for t in out if t.truth_particle_id() is not None))

    def qubo(tr, q):
        tr.add("couplings_chained", sum(1 for b in q.quadratic.values() if b < 0))
        tr.add("couplings_conflict", sum(1 for b in q.quadratic.values() if b > 0))
        tr.add("dense_bytes", 8 * q.n * q.n)

    def candidates(tr, out):
        tr.add("candidates", len(out))

    def vqe(tr, result):
        tr.add("vqe_evaluations", result.evaluations)

    p, s = qt.pipeline, qt.solvers
    required = [
        (p, "build_doublets", "preselect.doublets", doublets),
        (p, "build_triplets", "preselect.triplets", triplets),
        (p, "solve_iterative", "solvers.solve", None),
        (s, "solve_exact", "solvers.exact", None),
        (s, "solve_annealing", "solvers.anneal", None),
        (qt.vqe, "run_vqe", "vqe.run", vqe),
        (p, "triplets_to_candidates", "trackbuild.candidates", candidates),
        (p, "fit_track", "trackbuild.fit", None),
        (p, "resolve_ambiguities", "trackbuild.resolve", None),
    ]
    optional = [
        (s, "_impact_groups", "solvers.group", None),
        (s, "_restrict", "solvers.restrict", None),
        (s, "objective", "solvers.objective", None),
    ]
    absent = [f"{m.__name__}.{attr}" for m, attr, _, _ in optional if not hasattr(m, attr)]
    targets = [(m, attr, tracer.wrap(getattr(m, attr), name, count))
               for m, attr, name, count in required + optional if hasattr(m, attr)]
    return targets, tracer.wrap(assemble, "qubo.assemble", qubo), absent


def measure_traced(qt, config, n_events, work, tracer):
    """Set-up five times, every event twice, then evaluation five times.

    Each event is reconstructed once plain and once under the span shims,
    the two back to back and in alternating order, so that the machine's
    drift over the run and a warm cache enter the gap between them as
    little as they can.
    Returns the per-layer values that only a traced run has, and the
    private names that were absent."""
    for _ in range(MIN_REPEATS):
        _, state = set_up(qt, config, n_events, work, tracer.span)
    loop = EventLoop(qt, config, state)
    plain = loop.capture
    traced = QuboCapture(plain.assemble)
    targets, traced.assemble, absent = trace_targets(qt, tracer, plain.assemble)
    targets.append((qt.pipeline, "assemble_qubo", traced))
    probes = Probes()
    gc.collect()
    mark = tracer.span_count()
    for k, event in enumerate(loop.events):
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            if with_spans:
                loop.capture = traced
                with patched(targets):
                    probes.tick(loop.run(event, tracer))
            else:
                loop.capture = plain
                with patched([(qt.pipeline, "assemble_qubo", plain)]):
                    probes.tick(loop.run(event))
    self_s, calls = tracer.self_times(since=mark)
    tracks = loop.tracks()
    for _ in range(MIN_REPEATS):
        _, report = evaluate(qt, loop.events, tracks, tracer.span)

    median_of = {name: statistics.median(tracer.durations(name))
                 for name in ("fastsim.generate", "io.write", "io.read",
                              "pipeline.calibrate", "metrics.report")}
    c = tracer.counts
    values = {
        "fastsim.generate_s": median_of["fastsim.generate"],
        "io.write_s": median_of["io.write"],
        "io.read_s": median_of["io.read"],
        "pipeline.calibrate_s": median_of["pipeline.calibrate"],
        "pipeline.reconstruct_s": self_s.get("pipeline.reconstruct", 0.0),
        "preselect.doublets_s": self_s.get("preselect.doublets", 0.0),
        "preselect.triplets_s": self_s.get("preselect.triplets", 0.0),
        "qubo.assemble_s": self_s.get("qubo.assemble", 0.0),
        "solvers.solve_s": self_s.get("solvers.solve", 0.0),
        "solvers.group_s": self_s.get("solvers.group", 0.0),
        "solvers.restrict_s": self_s.get("solvers.restrict", 0.0),
        "solvers.objective_s": self_s.get("solvers.objective", 0.0),
        "solvers.subsolve_s": sum(self_s.get(n, 0.0) for n in SUBSOLVER_SPANS),
        "trackbuild.candidates_s": self_s.get("trackbuild.candidates", 0.0),
        "trackbuild.fit_s": self_s.get("trackbuild.fit", 0.0),
        "trackbuild.resolve_s": self_s.get("trackbuild.resolve", 0.0),
        "metrics.report_s": median_of["metrics.report"],
        "trace.events_per_s": loop.events_per_s(traced=True) * probes.mean() / REFERENCE_S,
        "trace.overhead_ratio": loop.events_per_s() / loop.events_per_s(traced=True) - 1.0,
    }
    # deterministic: identical between runs of the same code, checked
    # against reference.json
    counts = {
        "doublets_true": c.get("doublets_true", 0),
        "triplets_true": c.get("triplets_true", 0),
        "couplings_chained": c.get("couplings_chained", 0),
        "couplings_conflict": c.get("couplings_conflict", 0),
        "dense_bytes": c.get("dense_bytes", 0),
        "candidates": c.get("candidates", 0),
        "vqe_evaluations": c.get("vqe_evaluations", 0),
        "restrict_calls": calls.get("solvers.restrict", 0),
        "objective_calls": calls.get("solvers.objective", 0),
        "fit_calls": calls.get("trackbuild.fit", 0),
        "subsolve_calls": sum(calls.get(n, 0) for n in SUBSOLVER_SPANS),
    }
    return loop, report, values, counts, absent


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference_status(key, code, fp, counts, counts_field, record):
    """Compare with (or, when recording, store) the reference outputs of
    this workload, seed and event count. Returns (status, problems)."""
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    entry = refs.get(key)
    if record:
        if entry is None or entry["code"] != code:
            entry = {"code": code, "fingerprint": fp}
        entry[counts_field] = counts
        refs[key] = entry
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return "recorded", []
    if entry is None:
        return "no reference for this workload, seed and event count", []
    if entry["code"] != code:
        same = entry["fingerprint"] == fp
        return f"outputs {'unchanged' if same else 'CHANGED'} vs reference code {entry['code']}", []
    problems = []
    if entry["fingerprint"] != fp:
        problems.append("fingerprint differs from the reference of the same code")
    ref_counts = entry.get(counts_field)
    if ref_counts is not None and ref_counts != counts:
        diff = sorted(k for k in set(ref_counts) | set(counts)
                      if ref_counts.get(k) != counts.get(k))
        problems.append(f"deterministic counts differ from the reference: {diff}")
    return "matches the reference of the same code", problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's fingerprint and counts in reference.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    qt, numpy = load_program()
    workload = WORKLOADS[args.workload]
    config = workload.config(qt.config.RunConfig, args.seed)
    n_events = workload.n_events(args.seconds)
    tracer = Tracer() if args.trace else None
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is None:
            loop, report, scaled, wall = measure_untraced(
                qt, config, n_events, work, args.seconds)
        else:
            loop, report, values, traced_counts, absent = measure_traced(
                qt, config, n_events, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(loop.problems) + report.check_invariants()
    quality = {"efficiency": report.efficiency, "fake_rate": report.fake_rate,
               "duplication_rate": report.duplication_rate,
               "energy_resolution": report.energy_resolution}
    for name, value in quality.items():
        if value is None:
            problems.append(f"{name} is undefined on this run")
            quality[name] = 0.0
    latencies = loop.event_seconds()
    results = loop.first_results()
    reports = [r.report for r in results if r.report is not None]
    # deterministic: identical between runs of the same code, checked
    # against reference.json
    counts = {
        "events": n_events,
        "hits": sum(len(e.hits) for e in loop.events),
        "doublets": sum(r.n_doublets for r in results),
        "triplets": sum(r.n_triplets for r in results),
        "subproblems": sum(r.subqubo_count for r in reports),
        "iterations": sum(r.iterations_run for r in reports),
        "best_objective": sum(r.best_objective for r in reports),
        "tracks": sum(len(r.tracks) for r in results),
        **quality,
    }

    if tracer is None:
        values = {
            **scaled,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "efficiency": quality["efficiency"],
            "track_purity": 1.0 - quality["fake_rate"],
            "energy_resolution": quality["energy_resolution"],
        }
        metrics = spec["end_to_end"]
        counts_field = "counts"
    else:
        counts.update(traced_counts)
        values.update({
            "fastsim.hits": counts["hits"],
            "pipeline.event_p50_s": percentile(latencies, 50),
            "pipeline.event_p90_s": percentile(latencies, 90),
            "pipeline.event_fail_ratio": loop.failed / loop.attempted,
            "preselect.doublets": counts["doublets"],
            "preselect.triplets": counts["triplets"],
            "preselect.doublet_purity": counts["doublets_true"] / max(1, counts["doublets"]),
            "preselect.triplet_purity": counts["triplets_true"] / max(1, counts["triplets"]),
            "qubo.couplings_chained": counts["couplings_chained"],
            "qubo.couplings_conflict": counts["couplings_conflict"],
            "qubo.dense_bytes": counts["dense_bytes"],
            "solvers.restrict_calls": counts["restrict_calls"],
            "solvers.objective_calls": counts["objective_calls"],
            "solvers.subsolve_calls": counts["subsolve_calls"],
            "solvers.subproblems": counts["subproblems"],
            "solvers.iterations": counts["iterations"],
            "solvers.best_objective": counts["best_objective"],
            "vqe.evaluations": counts["vqe_evaluations"],
            "trackbuild.fit_calls": counts["fit_calls"],
            "trackbuild.candidates": counts["candidates"],
            "trackbuild.tracks": counts["tracks"],
            "trackbuild.track_ratio": counts["tracks"] / max(1, counts["candidates"]),
            "metrics.fake_rate": quality["fake_rate"],
            "metrics.duplication_rate": quality["duplication_rate"],
        })
        metrics = spec["per_layer"]
        counts_field = "traced_counts"

    fp = fingerprint(loop.digests)
    code = code_hash()
    key = f"{workload.name}/{args.seed}/{n_events}"
    status, ref_problems = reference_status(key, code, fp, counts, counts_field, args.record)
    problems += ref_problems

    info = machine(numpy)
    n = len(latencies)
    print(f"# workload {workload.name} seed {args.seed} events {n_events} "
          f"reconstructions {loop.attempted} ({loop.attempted / n_events:.2f} passes)")
    print(f"# latency samples {n}: p50 has {n - int(0.5 * n)} beyond it, "
          f"p90 has {n - int(0.9 * n)} (a percentile needs 10 to be well sampled)")
    print(f"# outputs fingerprint {fp} code {code}: {status}")
    print("# quality " + " ".join(f"{k} {v:.6g}" for k, v in quality.items())
          + f" event_fail_ratio {loop.failed / loop.attempted:.6g}")
    print(f"# machine {json.dumps(info, sort_keys=True)}")
    if tracer is None:
        print("# wall clock " + " ".join(f"{k} {v:.6g}" for k, v in wall.items())
              + f"; the result's timings are scaled to a {REFERENCE_S} s probe")
    if tracer is not None:
        if absent:
            print(f"# absent, their time counts as solvers.solve_s self time: "
                  f"{', '.join(absent)}")
        path = OUT / "traces" / f"{workload.name}-seed{args.seed}.json"
        tracer.write(path, {"workload": workload.name, "seed": args.seed,
                            "n_events": n_events, "machine": info, "absent": absent})
        print(f"# {tracer.span_count()} spans written to {path.relative_to(ROOT)}; "
              f"tracing adds {values['trace.overhead_ratio']:.1%} to the time per event "
              f"(traced against plain reconstructions of the same events)")
    for p in problems[:20]:
        print(f"# CHECK FAILED: {p}", file=sys.stderr)

    missing = [m["name"] for m in metrics if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in metrics})
    if missing or extra:
        raise SystemExit(f"perfbench: metrics out of step with BENCHMARK.json: "
                         f"missing {missing}, extra {extra}")
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
