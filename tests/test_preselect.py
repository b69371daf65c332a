import math

import numpy as np
import pytest

from qubotrack.fastsim import SimConfig, generate_event
from qubotrack.geometry import Hit
from qubotrack.preselect import (CalibrationError, DoubletDiagnostics, Doublets,
                                 PreselectionWindow, build_doublets,
                                 build_triplets, calibrate_dx_window,
                                 truth_doublets, truth_triplets)


def hit(hid, layer, x, y=0.0, pid=None):
    z = 1.0 + 0.1 * layer
    return Hit(hit_id=hid, layer=layer, position=(x, y, z), truth_particle_id=pid)


def wide_window(**kw):
    return PreselectionWindow(dx_mean=0.17, dx_sigma=0.05, **kw)


NO_ANGLE_CAP = PreselectionWindow(dx_mean=0.2, dx_sigma=0.2, max_delta_theta=math.inf)


def doublets_of(*pairs):
    """The Doublets of (inner, outer) hit pairs, over their hits keyed on
    their ids."""
    hits = {h.hit_id: h for pair in pairs for h in pair}
    position = {hid: k for k, hid in enumerate(hits)}
    inner, outer = zip(*((position[a.hit_id], position[b.hit_id]) for a, b in pairs))
    return Doublets.from_hit_pairs(list(hits.values()), inner, outer)


def delta_theta(*pairs):
    """delta_theta of the one triplet the doublets of two hit pairs chain into."""
    (dt,) = build_triplets(doublets_of(*pairs), NO_ANGLE_CAP).delta_theta
    return dt


# -- calibration ----------------------------------------------------------------

def test_calibrate_two_values():
    ds = doublets_of(*((hit(2 * i, 0, 0.03, pid=1),
                        hit(2 * i + 1, 1, 0.03 * (1 + a), pid=1))
                       for i, a in enumerate((0.1, 0.3))))
    mean, sigma = calibrate_dx_window([ds])
    assert mean == pytest.approx(0.2)
    assert sigma == pytest.approx(np.std([0.1, 0.3], ddof=1))


def test_calibrate_constant_values_gives_zero_sigma():
    ds = doublets_of(*((hit(2 * i, 0, 0.03, pid=i), hit(2 * i + 1, 1, 0.036, pid=i))
                       for i in range(5)))
    mean, sigma = calibrate_dx_window([ds])
    assert mean == pytest.approx(0.2) and sigma == 0.0
    # a zero-width window is rejected on construction and floored by the helper
    with pytest.raises(ValueError, match="dx_sigma"):
        PreselectionWindow(dx_mean=mean, dx_sigma=sigma)
    window = PreselectionWindow.from_calibration(mean, sigma)
    assert window.dx_sigma == 1e-9


def test_calibrate_needs_two_doublets():
    with pytest.raises(CalibrationError, match="got 0"):
        calibrate_dx_window([])
    one = doublets_of((hit(0, 0, 0.03, pid=1), hit(1, 1, 0.036, pid=1)),
                      (hit(2, 0, 0.03, pid=1), hit(3, 1, 0.036, pid=2)))
    with pytest.raises(CalibrationError, match="got 1"):
        calibrate_dx_window([one])


def test_calibrate_ignores_unmatched_doublets():
    ds = doublets_of((hit(0, 0, 0.03, pid=1), hit(1, 1, 0.036, pid=1)),
                     (hit(2, 0, 0.03, pid=0), hit(3, 1, 0.036, pid=0)),
                     (hit(4, 0, 0.03, pid=1), hit(5, 1, 0.09, pid=2)),
                     (hit(6, 0, 0.03, pid=0), hit(7, 1, 0.09)),
                     (hit(8, 0, 0.03), hit(9, 1, 0.09, pid=0)),
                     (hit(10, 0, 0.03), hit(11, 1, 0.09)))
    assert ds.truth_matched().tolist() == [True, True, False, False, False, False]
    mean, sigma = calibrate_dx_window([ds])
    assert mean == pytest.approx(0.2) and sigma == 0.0


def test_calibrate_pools_events():
    """Doublets of several events pool into one sample; an event without a
    truth-matched doublet adds nothing."""
    events = [doublets_of((hit(0, 0, 0.03, pid=1), hit(1, 1, 0.03 * (1 + a), pid=1)))
              for a in (0.1, 0.3)]
    noise = doublets_of((hit(0, 0, 0.03), hit(1, 1, 0.09)))
    mean, sigma = calibrate_dx_window([events[0], noise, events[1]])
    assert mean == pytest.approx(0.2)
    assert sigma == pytest.approx(np.std([0.1, 0.3], ddof=1))


def test_calibration_reproduces_generating_width(geometry):
    """Sample width vs an independent noiseless ray-trace + smearing oracle."""
    sim = SimConfig(mean_multiplicity=120, rng_seed=21, scattering=True)
    events = [generate_event(sim, geometry, i) for i in range(6)]
    doublets = [truth_doublets(e) for e in events]
    assert sum(map(len, doublets)) >= 1000
    _, sigma = calibrate_dx_window(doublets)

    # oracle: noiseless rays through the same spectrum and acceptance give the
    # structural dx/x0 population; hit smearing adds an analytic variance term
    from qubotrack.fastsim import dipole_deflection
    rng = np.random.default_rng(7)
    values, smear_vars = [], []
    kick_z = geometry.dipole_kick_z
    for _ in range(40_000):
        energy = sim.energy_spectrum.sample(rng)
        tx = math.tan(rng.normal(0, sim.emittance_angle_sigma)
                      + dipole_deflection(energy, geometry.dipole_field,
                                          geometry.dipole_length))
        xs = [tx * (z - kick_z) for z in geometry.layer_z]
        for xi, xo in zip(xs, xs[1:]):
            if abs(xo) > geometry.layer_half_extent_x:
                continue
            values.append((xo - xi) / xi)
            s = geometry.hit_resolution
            smear_vars.append(s * s * (1 + (xo / xi) ** 2) / (xi * xi))
    oracle = math.sqrt(np.var(values) + np.mean(smear_vars))
    assert sigma == pytest.approx(oracle, rel=0.10)


# -- doublet building --------------------------------------------------------------

def test_window_center_kept_and_boundaries_inclusive(geometry):
    w = PreselectionWindow(dx_mean=0.2, dx_sigma=0.01, n_sigma=3.0)
    inner = hit(0, 0, 0.03)
    at_center = hit(1, 1, 0.03 * 1.2)
    at_edge = hit(2, 1, 0.03 * (1 + 0.2 + 3 * 0.01))
    beyond = hit(3, 1, 0.03 * (1 + 0.2 + 3.0001 * 0.01))
    ds = build_doublets([inner, at_center, at_edge, beyond], geometry, w)
    assert ds.hit_ids[ds.outer].tolist() == [1, 2]


def test_single_noiseless_particle_three_doublets(geometry):
    sim = SimConfig(mean_multiplicity=1, rng_seed=4, poisson_multiplicity=False,
                    ip_smear=(0, 0, 0), emittance_angle_sigma=0.0,
                    scattering=False, smear_hits=False)
    event = generate_event(sim, geometry, 0)
    assert len(event.hits) == 4
    ds = build_doublets(event.hits, geometry, wide_window())
    assert len(ds) == 3
    assert sorted(d.layers for d in ds) == [(0, 1), (1, 2), (2, 3)]


def test_x0_zero_skipped_and_counted(geometry):
    diag = DoubletDiagnostics()
    ds = build_doublets([hit(0, 0, 0.0), hit(1, 1, 0.036)], geometry,
                        wide_window(), diagnostics=diag)
    assert len(ds) == 0
    assert diag.n_skipped_x0_zero == 1


@pytest.mark.parametrize("x0_zero", [False, True], ids=["simulated", "hit-at-x0-zero"])
def test_doublet_counters_account_for_every_pair(geometry, x0_zero):
    sim = SimConfig(mean_multiplicity=60, rng_seed=2024)
    event = generate_event(sim, geometry, 0)
    hits = list(event.hits)
    if x0_zero:
        h = next(h for h in hits if h.layer == 1)
        hits[hits.index(h)] = Hit(h.hit_id, h.layer, (0.0, *h.position[1:]),
                                  h.truth_particle_id)
    diag = DoubletDiagnostics()
    ds = build_doublets(hits, geometry, wide_window(), diagnostics=diag)
    assert len(ds) > 0 and diag.n_rejected_window > 0
    assert (diag.n_skipped_x0_zero > 0) == x0_zero
    assert diag.n_pairs == len(ds) + diag.n_rejected_window + diag.n_skipped_x0_zero


def test_doublets_never_create_hits(geometry):
    sim = SimConfig(mean_multiplicity=30, rng_seed=8)
    event = generate_event(sim, geometry, 0)
    ds = build_doublets(event.hits, geometry, wide_window())
    ids = {h.hit_id for h in event.hits}
    for d in ds:
        assert d.hit_inner.hit_id in ids and d.hit_outer.hit_id in ids


# -- triplet building ---------------------------------------------------------------

def test_delta_theta_identical_angles():
    d1 = (hit(0, 0, 0.03), hit(1, 1, 0.036))
    d2 = (hit(1, 1, 0.036), hit(2, 2, 0.042))
    assert delta_theta(d1, d2) == pytest.approx(0.0, abs=1e-15)


def test_delta_theta_three_four_five():
    # dtheta_xz = 3e-4, dtheta_yz = 4e-4 -> 5e-4
    d1 = (hit(0, 0, 0.03), hit(1, 1, 0.036))
    first = doublets_of(d1)
    dx = 0.1 * math.tan(first.theta_xz[0] + 3e-4)
    dy = 0.1 * math.tan(first.theta_yz[0] + 4e-4)
    d2 = (hit(1, 1, 0.036), hit(2, 2, 0.036 + dx, dy))
    assert delta_theta(d1, d2) == pytest.approx(5e-4, rel=1e-9)


def test_delta_theta_requires_chained_doublets():
    ds = doublets_of((hit(0, 0, 0.03), hit(1, 1, 0.036)),
                     (hit(2, 1, 0.037), hit(3, 2, 0.042)))
    assert len(build_triplets(ds, NO_ANGLE_CAP)) == 0


def test_noiseless_particle_two_triplets(geometry):
    sim = SimConfig(mean_multiplicity=1, rng_seed=4, poisson_multiplicity=False,
                    ip_smear=(0, 0, 0), emittance_angle_sigma=0.0,
                    scattering=False, smear_hits=False)
    event = generate_event(sim, geometry, 0)
    ds = build_doublets(event.hits, geometry, wide_window())
    ts = build_triplets(ds, wide_window())
    assert len(ts) == 2
    assert sorted(t.layer_span for t in ts) == [(0, 2), (1, 3)]
    assert all(t.delta_theta < 1e-12 for t in ts)


def test_triplet_cut_boundary():
    w = PreselectionWindow(dx_mean=0.2, dx_sigma=0.2, max_delta_theta=1e-3)
    d1 = (hit(0, 0, 0.03), hit(1, 1, 0.036))
    theta2 = math.atan2(0.006, 0.1) + 1.0001e-3
    d2 = (hit(1, 1, 0.036), hit(2, 2, 0.036 + 0.1 * math.tan(theta2)))
    ts = build_triplets(doublets_of(d1, d2), w)
    assert len(ts) == 0  # 1.0001 mrad is above the cap
    theta3 = math.atan2(0.006, 0.1) + 0.9999e-3
    d3 = (hit(1, 1, 0.036), hit(3, 2, 0.036 + 0.1 * math.tan(theta3)))
    assert len(build_triplets(doublets_of(d1, d3), w)) == 1


def test_angle_cap_boundary_is_inclusive_to_the_last_bit(geometry):
    """A cap equal to a triplet's delta_theta keeps it and the next float
    below drops it, also where np.hypot and math.hypot differ in the last
    bit (the NumPy prefilter must not decide those)."""
    sim = SimConfig(mean_multiplicity=100, rng_seed=2024)
    event = generate_event(sim, geometry, 0)
    ds = build_doublets(event.hits, geometry, wide_window())
    ts = build_triplets(ds, wide_window(max_delta_theta=1e-3))
    dxz = ds.theta_xz[ts.second] - ds.theta_xz[ts.first]
    dyz = ds.theta_yz[ts.second] - ds.theta_yz[ts.first]
    differs = np.flatnonzero(np.hypot(dxz, dyz) != ts.delta_theta)
    assert len(differs) > 0
    for k in [*differs[:5].tolist(), 0]:
        dt = float(ts.delta_theta[k])
        assert dt == math.hypot(float(dxz[k]), float(dyz[k]))
        pair = (ts.first[k], ts.second[k])

        def kept(cap):
            at = build_triplets(ds, wide_window(max_delta_theta=cap))
            return pair in set(zip(at.first.tolist(), at.second.tolist()))
        assert kept(dt)
        assert not kept(float(np.nextafter(dt, 0.0)))


def test_truth_efficiency_monotone_in_n_sigma(desk_events, geometry):
    event = desk_events[0]
    mean, sigma = calibrate_dx_window([truth_doublets(event)])
    kept = []
    for n_sigma in (1.0, 2.0, 3.0):
        w = PreselectionWindow.from_calibration(mean, sigma, n_sigma=n_sigma)
        ds = build_doublets(event.hits, geometry, w)
        kept.append(int(ds.truth_matched().sum()))
    assert kept[0] <= kept[1] <= kept[2]


def test_high_energy_truth_triplets_retained(desk_events, geometry):
    """Particles above 3 GeV keep both truth triplets in >= 99% of cases."""
    total = retained = 0
    for event in desk_events:
        mean, sigma = calibrate_dx_window([truth_doublets(event)])
        w = PreselectionWindow.from_calibration(mean, sigma)
        ts = build_triplets(build_doublets(event.hits, geometry, w), w)
        pid, common = ts.truth_particle_ids()
        per_pid = dict(zip(*(a.tolist() for a in np.unique(pid[common],
                                                          return_counts=True))))
        layers: dict = {}
        for h in event.hits:
            if h.truth_particle_id is not None:
                layers.setdefault(h.truth_particle_id, set()).add(h.layer)
        for p in event.particles:
            if p.energy > 3.0 and len(layers.get(p.particle_id, ())) == 4:
                total += 1
                if per_pid.get(p.particle_id, 0) >= 2:
                    retained += 1
    assert total > 500
    assert retained / total >= 0.99


def test_truth_triplets_helper(desk_events):
    event = desk_events[0]
    ts = truth_triplets(truth_doublets(event))
    assert ts.truth_particle_ids()[1].all()
    assert all(t.truth_particle_id() is not None for t in ts)
    per_pid: dict = {}
    for t in ts:
        per_pid.setdefault(t.truth_particle_id(), []).append(t.layer_span)
    for spans in per_pid.values():
        assert len(spans) <= 2 and len(set(spans)) == len(spans)
