#!/usr/bin/env python3
"""Seven-triplet benchmark: solve the two-nearby-particles selection problem
with the simulated VQE and print the measurement histogram next to the
enumerated optimum, optionally with a readout bit-flip probability.

    python scripts/vqe_counts_demo.py [--seed N] [--shots N] [--readout-flip P]
"""

import argparse
import tempfile
from collections import Counter
from pathlib import Path

from qubotrack.io import write_counts_csv, write_qubo
from qubotrack.preselect import (PreselectionWindow, build_doublets,
                                 build_triplets, calibrate_dx_window,
                                 truth_doublets)
from qubotrack.qubo import assemble_qubo, objective, to_ising
from qubotrack.solvers import solve_exact
from qubotrack.vqe import VqeConfig, run_vqe, selection_bits
from scenarios import two_nearby_particles_event

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
    layers = triplets.doublets.hits.layers[triplets.hit_index()]
    _, common = triplets.truth_particle_ids()
    for i, (hit_ids, inner, outer, dtheta, truth) in enumerate(zip(
            triplets.hit_ids().tolist(), layers[:, 0].tolist(), layers[:, 2].tolist(),
            triplets.delta_theta.tolist(), common.tolist())):
        kind = "truth" if truth else "fake "
        print(f"  T{i}: hits {tuple(hit_ids)}  span {(inner, outer)}  "
              f"dtheta {dtheta * 1e3:.3f} mrad  [{kind}]")

    exact_bits = solve_exact(problem)
    target = "".join(str(int(b)) for b in exact_bits)
    print(f"\nenumerated optimum: {target}  "
          f"(objective {objective(problem, exact_bits):.4f})")

    config = VqeConfig(shots=args.shots, max_evaluations=300, seed=args.seed,
                       readout_flip_probability=args.readout_flip)
    result = run_vqe(to_ising(problem), config)

    def bitstring(index: int) -> str:
        return "".join(map(str, selection_bits(index, len(triplets)).tolist()))

    # counted one sample at a time, so most_common breaks ties by first occurrence
    counts = Counter(map(bitstring, result.samples.tolist()))
    print(f"simulated VQE ({args.shots} shots, seed {args.seed}, "
          f"readout flip {args.readout_flip}):")
    print(f"  best sampled bitstring: {bitstring(result.best_index)}  "
          f"(energy {result.best_energy:.4f})")
    print(f"  final measurement histogram (bit=1 <=> triplet selected):")
    total = sum(counts.values())
    for bits, count in counts.most_common(10):
        marker = " <- optimum" if bits == target else ""
        print(f"    {bits}  {count:4d}  ({count / total:.3f}){marker}")

    out = Path(args.out) if args.out else Path(tempfile.mkdtemp())
    out.mkdir(parents=True, exist_ok=True)
    write_counts_csv(out / "vqe_counts.csv", dict(counts))
    write_qubo(out / "seven_triplet_qubo.txt", problem)
    print(f"\ncounts and objective dump written to {out}")
