"""The benchmark's workloads.

Every workload uses the default run configuration except for the mean
multiplicity and the solver. The event set of a run is fixed by the
workload, the seed and ``--seconds``: ``events_per_second`` events per
second of run length, at least ``MIN_EVENTS``. A faster program therefore
reconstructs the same events sooner instead of reconstructing other ones,
so the physics numbers of two commits stay comparable.

More events make two seeds' event sets more alike, but a run must finish
one pass over them, and set-up and evaluation, each repeated at least
five times a run, grow with the event count. Each ``events_per_second``
below weighs these at the throughput measured on a 2-vCPU Xeon (Python
3.11, numpy 2.4, 25 s runs, wall clock without the probe scaling):

- desk100_exact, 2.4 (60 events): about 10 events/s, so a pass takes 6 s
  and a run makes about four. Set-up (1 s at 60 events) and evaluation
  (0.7 s) cap the count: their repeats already take 9 s of a run.
- dense200_exact, 0.8 (20 events): about 1.1 events/s, so a pass takes
  18 s, 70 % of a run; the run still ends after one pass when the host
  runs 1.4 times slower than usual.
- light50_anneal, 1.6 (40 events): about 2.6 events/s, so a pass takes
  15 s, 60 % of a run, for the same reason.
- light10_vqe, 2.0 (50 events): about 2.0 events/s, so a pass takes the
  whole run. Event time varies most here (0.1 to 1.2 s), and the spread
  between seeds comes from which events were drawn, so the run holds as
  many events as one pass fits; a slow host lengthens the run instead.
"""

from __future__ import annotations

from dataclasses import dataclass

MIN_EVENTS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    multiplicity: float
    solver: str
    events_per_second: float
    why: str

    def n_events(self, seconds: float) -> int:
        return max(MIN_EVENTS, round(seconds * self.events_per_second))

    def config(self, run_config_cls, seed: int):
        d = run_config_cls().to_dict()
        d["sim"]["mean_multiplicity"] = self.multiplicity
        d["solver"] = self.solver
        return run_config_cls.from_dict(d).with_seed(seed)


WORKLOADS = {w.name: w for w in (
    Workload("desk100_exact", 100.0, "exact", 2.4,
             "desk scale, exact sub-solves: track building, pre-selection and assembly "
             "carry most of the time"),
    Workload("dense200_exact", 200.0, "exact", 0.8,
             "dense events, exact sub-solves: decomposition bookkeeping (_restrict, "
             "objective recomputes) carries most of the time"),
    Workload("light50_anneal", 50.0, "anneal", 1.6,
             "annealing sub-solves: the Python Metropolis loop carries most of the time "
             "and no other workload runs it"),
    Workload("light10_vqe", 10.0, "vqe", 2.0,
             "VQE sub-solves at default shots and budget: the only workload that runs the "
             "vqe module"),
)}
