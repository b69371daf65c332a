"""Event-level orchestration: calibration, reconstruction of one event
with its dumps, and the event loop (serial or in a process pool).

A process that reconstructs VQE events itself (not a ``--jobs`` worker)
also solves their sub-problems ahead of the walk on a second CPU, when it
may run on one, in a pool of one forked worker created at its first VQE
event and kept for the life of the process (:func:`_speculation_pool`).
The outputs are those of the sequential walk.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .config import RunConfig
from .fastsim import generate_event
from .geometry import DetectorGeometry, Event, build_geometry
from .io import write_doublet_debug_csv, write_qubo, write_triplet_debug_csv
from .metrics import TrackRecord, match_hits, truth_by_hit
from .preselect import (PreselectionWindow, build_doublets, build_triplets,
                        calibrate_dx_window, truth_doublets, truth_triplets)
from .qubo import (QuboScaling, assemble_qubo, calibrate_s_max,
                   truth_chain_spreads)
from .solvers import (SolveReport, exact_subsolver, solve_annealing_report,
                      solve_iterative)
from .trackbuild import NDF, fit_track, resolve_ambiguities, triplets_to_candidates
from .vqe import make_vqe_subsolver

S_MAX_FALLBACK = 1e-3


def simulate_events(config: RunConfig, n_events: int) -> list[Event]:
    geometry = build_geometry(config.geometry)
    return [generate_event(config.sim, geometry, event_id)
            for event_id in range(n_events)]


def calibrate(events: list[Event], config: RunConfig
              ) -> tuple[PreselectionWindow, QuboScaling, dict]:
    """Dataset-level calibration of the dx/x0 window and the s_max scale.

    Uses truth links when present; an explicit ``dx_window`` / ``s_max`` in
    the config takes precedence and allows truth-free reconstruction.
    Without a ``dx_window``, fewer than 2 truth doublets raise
    :class:`~qubotrack.preselect.CalibrationError`. The returned info dict
    is persisted in the run metadata.
    """
    truth = ([truth_doublets(e) for e in events]
             if config.dx_window is None or config.s_max is None else [])
    if config.dx_window is not None:
        mean, sigma = config.dx_window
        source = "config"
    else:
        mean, sigma = calibrate_dx_window(truth)
        source = "truth-calibrated"
    window = PreselectionWindow.from_calibration(
        mean, sigma, n_sigma=config.n_sigma, max_delta_theta=config.max_delta_theta)

    if config.s_max is not None:
        s_max = config.s_max
        s_source = "config"
    else:
        spreads = [s for d in truth for s in truth_chain_spreads(truth_triplets(d))]
        s_max = calibrate_s_max(spreads)
        s_source = "truth-calibrated"
        if s_max is None or s_max <= 0.0:
            s_max, s_source = S_MAX_FALLBACK, "fallback"
    scaling = QuboScaling(theta_scale=config.theta_scale, s_max=s_max)

    info = {"dx_mean": window.dx_mean, "dx_sigma": window.dx_sigma,
            "dx_source": source, "n_sigma": window.n_sigma,
            "max_delta_theta": window.max_delta_theta,
            "theta_scale": scaling.theta_scale, "s_max": scaling.s_max,
            "s_max_source": s_source}
    return window, scaling, info


def _make_subsolver(config: RunConfig):
    if config.solver == "exact":
        return exact_subsolver
    if config.solver == "vqe":
        return make_vqe_subsolver(shots=config.shots,
                                  max_evaluations=config.vqe_max_evaluations)
    raise ValueError(f"unknown solver {config.solver!r}")


def _end_with_parent() -> None:
    """Pool worker initializer: exit once the process that forked this
    worker has ended, however it ended, so a killed run leaves no worker."""
    parent = multiprocessing.parent_process()
    threading.Thread(target=lambda: (parent.join(), os._exit(0)), daemon=True).start()


class _SpeculationPool(ProcessPoolExecutor):
    """One forked worker that exits with its parent. A submit to a pool
    whose worker died shuts the pool down and forgets it, so the next event
    forks a fresh one."""

    def __init__(self):
        super().__init__(1, mp_context=multiprocessing.get_context("fork"),
                         initializer=_end_with_parent)

    def submit(self, fn, /, *args, **kwargs):
        try:
            return super().submit(fn, *args, **kwargs)
        except BrokenProcessPool:
            global _pool
            if _pool is self:
                _pool = None
            self.shutdown()
            raise


_pool: _SpeculationPool | None = None


def _speculation_pool() -> _SpeculationPool | None:
    """This process's pool for speculative VQE sub-solves, created on first
    use. None on one CPU, in a worker process (a ``--jobs`` worker already
    has a CPU of its own) and where ``fork`` or the CPU affinity is
    unavailable. ``fork`` starts the worker with the parent's imports at
    once; the fork happens before the pool starts a thread. One worker is
    what was measured to pay; a CPU quota below two CPUs is not seen, and
    the worker then shares the walk's CPU time."""
    global _pool
    if multiprocessing.parent_process() is not None:
        return None  # a pool inherited from the parent is the parent's
    if (_pool is None and "fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1):
        _pool = _SpeculationPool()
    return _pool


def _close_speculation_pool() -> None:
    """Shut this process's speculation pool down, if there is one, and
    forget it: its thread is gone before the process forks again."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown()


@dataclass
class EventResult:
    event_id: int
    tracks: list[TrackRecord]
    report: SolveReport | None
    n_doublets: int
    n_triplets: int


@dataclass(frozen=True)
class EventDumps:
    """Per-event files to write into the existing directory ``out``."""
    out: Path
    qubo: bool   # the objective dump
    debug: bool  # the doublet and triplet feature tables


def reconstruct_event(event: Event, geometry: DetectorGeometry,
                      window: PreselectionWindow, scaling: QuboScaling,
                      config: RunConfig, dumps: EventDumps | None = None
                      ) -> EventResult:
    """Pre-selection, objective assembly (both written to ``dumps``),
    solving and track building for one event. Deterministic given the
    config seed (per-event solver seed is ``seed ^ event_id``); ``anneal``
    solves the whole objective, the others its sub-problems."""
    doublets = build_doublets(event.hits, geometry, window)
    triplets = build_triplets(doublets, window)
    problem = assemble_qubo(triplets, scaling) if triplets else None
    eid = event.event_id
    if dumps and dumps.debug:
        write_doublet_debug_csv(dumps.out / f"doublets_event{eid}.csv", eid, doublets)
        write_triplet_debug_csv(dumps.out / f"triplets_event{eid}.csv", eid, triplets)
    if dumps and dumps.qubo and problem is not None:
        write_qubo(dumps.out / f"qubo_event{eid}.txt", problem)
    if problem is None:
        return EventResult(eid, [], None, len(doublets), 0)

    if config.solver == "anneal":
        report = solve_annealing_report(problem, seed=config.seed ^ eid)
    else:
        report = solve_iterative(
            problem, _make_subsolver(config), k=config.subqubo_size,
            max_iterations=config.iterations, seed=config.seed ^ eid,
            executor=_speculation_pool() if config.solver == "vqe" else None)
    selected = triplets[np.flatnonzero(report.best_assignment)]

    rows = triplets_to_candidates(selected)
    hit_ids = selected.doublets.hit_ids[rows]
    fits = fit_track(selected.doublets.positions[rows], geometry)
    keep = resolve_ambiguities(hit_ids, fits.chi2_ndf)
    truth = truth_by_hit(event)
    tracks = [TrackRecord(event_id=eid, track_id=track_id, hit_ids=tuple(ids),
                          chi2=chi2, ndf=NDF, energy=energy,
                          matched_particle_id=match_hits(ids, truth))
              for track_id, (ids, chi2, energy) in enumerate(zip(
                  hit_ids[keep].tolist(), fits.chi2[keep].tolist(),
                  fits.energy[keep].tolist()))]
    return EventResult(eid, tracks, report,
                       len(doublets), len(triplets))


def reconstruct_events(events: list[Event], config: RunConfig, jobs: int = 1,
                       dumps: EventDumps | None = None
                       ) -> tuple[list[EventResult], dict]:
    """Calibrate once, then reconstruct every event (in a process pool when
    ``jobs`` > 1, which starts all its workers at once, so at most one per
    event), each writing its ``dumps``; results come back ordered by event
    id regardless of the parallelism level."""
    geometry = build_geometry(config.geometry)
    window, scaling, calib_info = calibrate(events, config)
    ordered = sorted(events, key=lambda e: e.event_id)
    shared = [repeat(v) for v in (geometry, window, scaling, config, dumps)]
    workers = min(jobs, len(ordered))
    if workers <= 1:
        results = list(map(reconstruct_event, ordered, *shared))
    else:
        _close_speculation_pool()  # no pool thread may run while the workers fork
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(reconstruct_event, ordered, *shared))
    results.sort(key=lambda r: r.event_id)
    return results, calib_info
