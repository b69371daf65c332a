"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite finishes in a few minutes on a laptop.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import ising_energy_of_bits, qubo_from_dict, random_qubo, vqe_counts
from qubotrack.cli import EXIT_OK, main
from qubotrack.config import RunConfig
from qubotrack.fastsim import SimConfig, generate_event
from qubotrack.metrics import build_report
from qubotrack.pipeline import reconstruct_events, simulate_events
from qubotrack.preselect import (PreselectionWindow, build_doublets,
                                 build_triplets, calibrate_dx_window,
                                 truth_doublets)
from qubotrack.qubo import Qubo, assemble_qubo, objective, to_ising
from qubotrack.solvers import exact_subsolver, solve_exact, solve_iterative
from qubotrack.vqe import (NFT_SHIFTS, VqeConfig, nft_update, prepare_state,
                           run_vqe, selection_bits)
from scenarios import two_nearby_particles_event


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def enumeration_oracle(qubo: Qubo) -> tuple[np.ndarray, float]:
    """Vectorized brute force, coded independently of solve_exact."""
    states = np.arange(2 ** qubo.n)
    bits = ((states[:, None] >> np.arange(qubo.n)[None, :]) & 1).astype(float)
    energies = bits @ qubo.linear
    for (i, j), b in qubo.quadratic.items():
        energies += b * bits[:, i] * bits[:, j]
    best = int(np.argmin(energies))
    return bits[best].astype(np.int8), float(energies[best])


@pytest.fixture(scope="module")
def desk_run(desk_config, desk_events):
    t0 = time.time()
    results, calib = reconstruct_events(desk_events, desk_config, jobs=1)
    elapsed = time.time() - t0
    tracks = [t for r in results for t in r.tracks]
    return results, tracks, calib, elapsed


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 17))
        q = random_qubo(rng, n, coupling_prob=0.3)
        if not np.array_equal(solve_exact(q), enumeration_oracle(q)[0]):
            mismatches += 1
    elapsed = time.time() - t0
    report("criterion 1 (exact solver vs brute force, 200 instances n<=16)",
           mismatches == 0 and elapsed < 10.0,
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_ising_consistency():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 11))
        q = random_qubo(rng, n, coupling_prob=0.5)
        ising = to_ising(q)
        for state in range(2 ** n):
            bits = np.array([(state >> i) & 1 for i in range(n)], dtype=np.int8)
            worst = max(worst, abs(ising_energy_of_bits(ising, bits) - objective(q, bits)))
    report("criterion 2 (spin mapping energy equality, 50 instances n<=10)",
           worst < 1e-12, f"max |delta| = {worst:.2e}")


def test_criterion_03_vqe_correctness():
    t0 = time.time()
    rng = np.random.default_rng(303)
    found = 0
    for trial in range(100):
        q = random_qubo(rng, 7, paper_like=True)
        exact_bits, exact_energy = enumeration_oracle(q)
        result = run_vqe(to_ising(q), VqeConfig(shots=512, max_evaluations=300,
                                                seed=trial))
        got = selection_bits(result.best_index, 7)
        # a degenerate co-ground-state counts as found
        if np.array_equal(got, exact_bits) or \
                objective(q, got) <= exact_energy + 1e-12:
            found += 1

    # exact-mode budget is unpinned by the interface; 1000 evaluations gives
    # the restart policy enough attempts to escape single-angle stalls
    exact_ok = 0
    rng = np.random.default_rng(304)
    for trial in range(50):
        n = int(rng.integers(1, 4))
        q = random_qubo(rng, n, coupling_prob=0.6)
        result = run_vqe(to_ising(q), VqeConfig(shots=0, max_evaluations=1000,
                                                seed=trial))
        if abs(objective(q, selection_bits(result.best_index, n))
               - enumeration_oracle(q)[1]) < 1e-9:
            exact_ok += 1
    elapsed = time.time() - t0
    report("criterion 3 (VQE ground states: 512-shot n=7 and exact n<=3)",
           found >= 90 and exact_ok == 50 and elapsed < 120.0,
           f"shots=512: {found}/100 (need >=90); shots=0: {exact_ok}/50 "
           f"(need 50); {elapsed:.0f}s")


def test_criterion_04_seven_triplet_analogue():
    event, geometry = two_nearby_particles_event()
    mean, sigma = calibrate_dx_window([truth_doublets(event)])
    window = PreselectionWindow.from_calibration(mean, sigma)
    triplets = build_triplets(build_doublets(event.hits, geometry, window), window)
    q = assemble_qubo(triplets)
    exact_bits = solve_exact(q)
    truth_selection = np.array(
        [1 if t.truth_particle_id() is not None else 0 for t in triplets],
        dtype=np.int8)
    structure_ok = (len(triplets) == 7
                    and int(truth_selection.sum()) == 4
                    and np.array_equal(exact_bits, truth_selection))

    target = "".join(str(int(b)) for b in exact_bits)
    ising = to_ising(q)
    wins = 0
    for seed in range(100):
        result = run_vqe(ising, VqeConfig(shots=512, max_evaluations=300,
                                          seed=seed))
        if vqe_counts(result).most_common(1)[0][0] == target:
            wins += 1
    report("criterion 4 (two nearby particles, 7 triplets, VQE mode)",
           structure_ok and wins >= 95,
           f"7 triplets: {len(triplets) == 7}, optimum = 4 truth triplets: "
           f"{structure_ok}, most-frequent correct in {wins}/100 (need >=95)")


def test_criterion_05_iterative_decomposition():
    # blocks at separated coefficient scales so the impact ordering groups
    # each block into one sub-problem (see notes in the solver module)
    reached = 0
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        linear = np.zeros(28)
        quadratic = {}
        block_opt = 0.0
        for b in range(4):
            scale = 10.0 ** (3 - b)
            off = 7 * b
            sub_quad = {}
            for i in range(7):
                linear[off + i] = float(rng.choice([-1, 1])
                                        * rng.uniform(0.5, 1.0) * scale)
                for j in range(i + 1, 7):
                    if rng.random() < 0.5:
                        v = float(rng.uniform(-0.1, 0.1) * scale)
                        quadratic[(off + i, off + j)] = v
                        sub_quad[(i, j)] = v
            sub = qubo_from_dict(7, linear[off:off + 7].copy(), sub_quad)
            block_opt += enumeration_oracle(sub)[1]
        q = qubo_from_dict(28, linear, quadratic)
        rep = solve_iterative(q, exact_subsolver, k=7, max_iterations=10,
                              seed=trial)
        if any(abs(v - block_opt) < 1e-9 for v in rep.objective_trace[1:3]):
            reached += 1

    monotone = 0
    rng = np.random.default_rng(505)
    for trial in range(100):
        q = random_qubo(rng, 50, coupling_prob=0.1)
        rep = solve_iterative(q, exact_subsolver, k=7, seed=trial)
        t = rep.objective_trace
        if all(b <= a + 1e-12 for a, b in zip(t, t[1:])):
            monotone += 1
    report("criterion 5 (block decomposition and monotone traces)",
           reached == 20 and monotone == 100,
           f"4x7 blocks solved in <=2 iterations: {reached}/20; "
           f"non-increasing traces: {monotone}/100")


def test_criterion_06_end_to_end_desk_scale(desk_events, desk_run):
    results, tracks, _, reco_time = desk_run
    rep = build_report(desk_events, tracks)
    shared_ok = True
    by_event: dict = {}
    for t in tracks:
        by_event.setdefault(t.event_id, []).append(t)
    for ts in by_event.values():
        for i, a in enumerate(ts):
            for b in ts[i + 1:]:
                if len(set(a.hit_ids) & set(b.hit_ids)) >= 2:
                    shared_ok = False
    ok = (rep.efficiency is not None and rep.efficiency >= 0.90
          and rep.fake_rate is not None and rep.fake_rate <= 0.05
          and rep.duplication_rate is not None and rep.duplication_rate <= 0.01
          and shared_ok and reco_time < 300.0)
    report("criterion 6 (20 events x 100 positrons, exact solver)", ok,
           f"efficiency={rep.efficiency:.3f} (>=0.90), "
           f"fake={rep.fake_rate:.4f} (<=0.05), "
           f"duplication={rep.duplication_rate:.4f} (<=0.01), "
           f"no 2-hit overlaps: {shared_ok}, reco {reco_time:.0f}s (<300s)")


def test_criterion_07_preselection_efficiency(desk_events, geometry):
    mean, sigma = calibrate_dx_window([truth_doublets(e) for e in desk_events])

    total = kept_both = 0
    kept_by_nsigma = []
    for n_sigma in (1.0, 2.0, 3.0):
        window = PreselectionWindow.from_calibration(mean, sigma, n_sigma=n_sigma)
        kept = 0
        total_ns = 0
        for event in desk_events:
            triplets = build_triplets(
                build_doublets(event.hits, geometry, window), window)
            per_pid: dict = {}
            for t in triplets:
                pid = t.truth_particle_id()
                if pid is not None:
                    per_pid[pid] = per_pid.get(pid, 0) + 1
            layers: dict = {}
            for h in event.hits:
                if h.truth_particle_id is not None:
                    layers.setdefault(h.truth_particle_id, set()).add(h.layer)
            for p in event.particles:
                if p.energy > 3.0 and len(layers.get(p.particle_id, ())) == 4:
                    total_ns += 1
                    if per_pid.get(p.particle_id, 0) >= 2:
                        kept += 1
        kept_by_nsigma.append(kept)
        if n_sigma == 3.0:
            total, kept_both = total_ns, kept
    eff = kept_both / total
    monotone = kept_by_nsigma[0] <= kept_by_nsigma[1] <= kept_by_nsigma[2]
    report("criterion 7 (pre-selection efficiency above 3 GeV)",
           eff >= 0.98 and monotone,
           f"doublet+triplet efficiency {eff:.4f} over {total} particles "
           f"(>=0.98); monotone in n_sigma: {monotone}")


def test_criterion_08_energy_resolution(desk_events, desk_run, desk_config):
    _, tracks, _, _ = desk_run
    rep = build_report(desk_events, tracks)
    n_matched = rep.counts["matched"]
    smeared_ok = (n_matched >= 1000 and rep.energy_resolution is not None
                  and rep.energy_resolution <= 0.01)

    d = desk_config.to_dict()
    d["sim"].update({"smear_hits": False, "scattering": False,
                     "ip_smear": [0.0, 0.0, 0.0], "emittance_angle_sigma": 0.0,
                     "mean_multiplicity": 40.0})
    clean_cfg = RunConfig.from_dict(d)
    clean_events = simulate_events(clean_cfg, 3)
    clean_results, _ = reconstruct_events(clean_events, clean_cfg)
    clean_tracks = [t for r in clean_results for t in r.tracks]
    clean_rep = build_report(clean_events, clean_tracks)
    clean_ok = (clean_rep.energy_resolution is not None
                and clean_rep.energy_resolution < 1e-6)
    report("criterion 8 (energy resolution)", smeared_ok and clean_ok,
           f"smeared: {rep.energy_resolution:.4f} rel RMS over {n_matched} "
           f"matched tracks (<=0.01); noiseless: "
           f"{clean_rep.energy_resolution:.2e} (<1e-6)")


def test_criterion_09_numerical_checks(geometry):
    rng = np.random.default_rng(909)
    worst_norm = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        state = prepare_state(rng.uniform(0, 2 * math.pi, 2 * n), n)
        worst_norm = max(worst_norm, abs(float((np.abs(state) ** 2).sum()) - 1.0))
    norm_ok = worst_norm < 1e-12

    nft_worst = 0.0
    for _ in range(50):
        c0 = float(rng.uniform(-5, 5))
        c1 = float(rng.uniform(0.1, 3.0))
        c2 = float(rng.uniform(-3, 3))
        start = float(rng.uniform(-3, 3))
        theta = nft_update(start, [c0 + c1 * math.cos(start + shift - c2)
                                   for shift in NFT_SHIFTS])
        nft_worst = max(nft_worst, abs((c0 + c1 * math.cos(theta - c2)) - (c0 - c1)))
    nft_ok = nft_worst < 1e-9

    from qubotrack.trackbuild import fit_track
    sim = SimConfig(mean_multiplicity=100, rng_seed=99, poisson_multiplicity=False,
                    scattering=False, smear_hits=True)
    positions = []
    for event_id in range(12):
        event = generate_event(sim, geometry, event_id)
        by_pid: dict = {}
        for h in event.hits:
            by_pid.setdefault(h.truth_particle_id, []).append(h)
        for hits in by_pid.values():
            if len(hits) == 4:
                ordered = sorted(hits, key=lambda h: h.layer)
                positions.append([h.position for h in ordered])
    values = fit_track(np.array(positions, dtype=float), geometry).chi2_ndf
    chi2_mean = float(np.mean(values))
    chi2_ok = 0.7 <= chi2_mean <= 1.3 and len(values) >= 1000
    report("criterion 9 (numerical checks)",
           norm_ok and nft_ok and chi2_ok,
           f"norm drift {worst_norm:.1e} (<1e-12); sinusoid minimum error "
           f"{nft_worst:.1e} (<1e-9); chi2/ndf mean {chi2_mean:.3f} in [0.7, 1.3] "
           f"over {len(values)} tracks")


def test_criterion_10_determinism_across_jobs(tmp_path):
    runs = {}
    for jobs in (1, 8):
        run = tmp_path / f"jobs{jobs}"
        assert main(["simulate", "--out", str(run), "--events", "6",
                     "--seed", "77"]) == EXIT_OK
        assert main(["reconstruct", "--in", str(run), "--seed", "77",
                     "--jobs", str(jobs)]) == EXIT_OK
        assert main(["evaluate", "--in", str(run),
                     "--out", str(run / "metrics")]) == EXIT_OK
        runs[jobs] = run
    same = all(
        (runs[1] / name).read_bytes() == (runs[8] / name).read_bytes()
        for name in ("hits.csv", "particles.csv", "tracks.csv",
                     "solve_report.json")
    )
    # the metrics payloads match except for the recorded input paths,
    # which name the two different run directories by construction
    reports = []
    for jobs in (1, 8):
        payload = json.loads((runs[jobs] / "metrics" / "metrics.json").read_text())
        payload.pop("inputs")
        reports.append(payload)
    same = same and reports[0] == reports[1]
    report("criterion 10 (byte-identical outputs at --jobs 1 and --jobs 8)",
           same, f"tracks, solve reports and metrics identical: {same}")
