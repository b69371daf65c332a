#!/usr/bin/env python3
"""Seven-triplet benchmark: solve the two-nearby-particles selection problem
with the simulated VQE and print the measurement histogram next to the
enumerated optimum, optionally with a readout bit-flip probability.

    python scripts/vqe_counts_demo.py [--seed N] [--shots N] [--readout-flip P]
"""

import argparse
import tempfile
from pathlib import Path

from qubotrack.io import write_counts_csv, write_qubo
from qubotrack.preselect import (PreselectionWindow, build_doublets,
                                 build_triplets, calibrate_dx_window,
                                 truth_doublets)
from qubotrack.qubo import assemble_qubo, objective, to_ising
from qubotrack.scenarios import two_nearby_particles_event
from qubotrack.solvers import solve_exact
from qubotrack.vqe import VqeConfig, run_vqe

if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shots", type=int, default=512)
    parser.add_argument("--readout-flip", type=float, default=0.0)
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args()

    event, geometry = two_nearby_particles_event()
    mean, sigma = calibrate_dx_window([truth_doublets(event)])
    window = PreselectionWindow.from_calibration(mean, sigma)
    triplets = build_triplets(build_doublets(event.hits, geometry, window), window)
    problem = assemble_qubo(triplets)
    print(f"{len(triplets)} triplet candidates from two nearby particles:")
    for i, t in enumerate(triplets):
        kind = "truth" if t.truth_particle_id() is not None else "fake "
        print(f"  T{i}: hits {t.hit_ids()}  span {t.layer_span}  "
              f"dtheta {t.delta_theta * 1e3:.3f} mrad  [{kind}]")

    exact_bits = solve_exact(problem)
    target = "".join(str(int(b)) for b in exact_bits)
    print(f"\nenumerated optimum: {target}  "
          f"(objective {objective(problem, exact_bits):.4f})")

    config = VqeConfig(shots=args.shots, max_evaluations=300, seed=args.seed,
                       readout_flip_probability=args.readout_flip)
    result = run_vqe(to_ising(problem), config)
    print(f"simulated VQE ({args.shots} shots, seed {args.seed}, "
          f"readout flip {args.readout_flip}):")
    print(f"  best sampled bitstring: {result.best_bitstring}  "
          f"(energy {result.best_energy:.4f})")
    print(f"  final measurement histogram (bit=1 <=> triplet selected):")
    total = sum(result.counts.values())
    for bitstring, count in result.counts.most_common(10):
        marker = " <- optimum" if bitstring == target else ""
        print(f"    {bitstring}  {count:4d}  ({count / total:.3f}){marker}")

    out = Path(args.out) if args.out else Path(tempfile.mkdtemp())
    out.mkdir(parents=True, exist_ok=True)
    write_counts_csv(out / "vqe_counts.csv", dict(result.counts))
    write_qubo(out / "seven_triplet_qubo.txt", problem)
    print(f"\ncounts and objective dump written to {out}")
