import math

import numpy as np
import pytest

from calibration_reference import truth_triplets
from qubotrack.fastsim import SimConfig, generate_event
from qubotrack.geometry import Event, Hit, equal_key_pairs
from qubotrack.preselect import (HYPOT_MARGIN, CalibrationError, DoubletDiagnostics,
                                 Doublets, PreselectionWindow, _chain,
                                 build_doublets, build_triplets,
                                 calibrate_dx_window, truth_doublets)


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
    return Doublets(list(hits.values()), inner, outer)


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


def truth_doublet_pairs_oracle(event):
    """(inner, outer) hit positions of the truth doublets, by a dict of
    each (particle, layer)'s last hit."""
    by_particle_layer = {}
    for k, h in enumerate(event.hits):
        if h.truth_particle_id is not None:
            by_particle_layer[(h.truth_particle_id, h.layer)] = k
    return [(k, by_particle_layer[(pid, layer + 1)])
            for (pid, layer), k in sorted(by_particle_layer.items())
            if (pid, layer + 1) in by_particle_layer
            and event.hits[k].position[0] != 0.0]


def test_truth_doublets_match_dict_oracle(desk_events):
    crafted = Event(0, 0.0, (hit(0, 1, 0.036, pid=7), hit(1, 0, 0.03, pid=7),
                             hit(2, 1, 0.037, pid=7),   # a second hit on layer 1
                             hit(3, 2, 0.042, pid=7), hit(4, 0, 0.0, pid=3),
                             hit(5, 1, 0.036, pid=3), hit(6, 2, 0.04),
                             hit(7, 3, 0.05, pid=3), hit(8, 3, 0.048, pid=7)), ())
    for event in [crafted, *desk_events[:2]]:
        ds = truth_doublets(event)
        assert list(zip(ds.inner.tolist(), ds.outer.tolist())) == \
            truth_doublet_pairs_oracle(event)
    assert list(zip(ds.inner.tolist(), ds.outer.tolist()))  # desk events have some
    ds = truth_doublets(crafted)
    assert ds.hit_ids[ds.inner].tolist() == [1, 2, 3]       # pid 7; pid 3 has x0 = 0
    assert len(truth_doublets(Event(0, 0.0, (), ()))) == 0


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


# -- the windowed join against the all-pairs join ------------------------------------

def chain_oracle(doublets, max_delta_theta):
    """The all-pairs join the windowed join replaced: every doublet pair
    that shares a middle hit id, cut on the exact angles. Returns
    (first, second, delta_theta)."""
    ids = doublets.hit_ids
    first, second = equal_key_pairs(ids[doublets.outer], ids[doublets.inner])
    dxz = doublets.theta_xz[second] - doublets.theta_xz[first]
    dyz = doublets.theta_yz[second] - doublets.theta_yz[first]
    near = np.flatnonzero(np.hypot(dxz, dyz) <= max_delta_theta * (1.0 + HYPOT_MARGIN))
    delta_theta = np.array(list(map(math.hypot, dxz[near].tolist(), dyz[near].tolist())),
                           dtype=float)
    keep = delta_theta <= max_delta_theta
    near = near[keep]
    return first[near], second[near], delta_theta[keep]


CAPS = [0.0, 1e-12, 1e-3, 0.5, math.inf]


def assert_chain_matches_oracle(hits, inner, outer, cap):
    """The windowed join on fresh doublets (no angle read yet) equals the
    oracle bit for bit, on doublets of its own."""
    got = _chain(Doublets(hits, inner, outer), cap)
    first, second, delta_theta = chain_oracle(Doublets(hits, inner, outer), cap)
    assert got.first.tolist() == first.tolist()
    assert got.second.tolist() == second.tolist()
    assert got.delta_theta.tobytes() == delta_theta.tobytes()
    return got


@pytest.fixture(scope="module")
def desk_doublets(desk_events, geometry):
    out = []
    for event in desk_events[:3]:
        mean, sigma = calibrate_dx_window([truth_doublets(event)])
        window = PreselectionWindow.from_calibration(mean, sigma)
        ds = build_doublets(event.hits, geometry, window)
        out.append((ds.hits, ds.inner, ds.outer))
    return out


@pytest.mark.parametrize("cap", CAPS)
def test_windowed_join_matches_all_pairs_on_desk_events(desk_doublets, cap):
    kept = [len(assert_chain_matches_oracle(*d, cap)) for d in desk_doublets]
    if cap >= 1e-3:
        assert min(kept) > 0


@pytest.mark.parametrize("cap", CAPS)
def test_windowed_join_matches_all_pairs_shuffled_and_duplicated(desk_doublets, cap):
    hits, inner, outer = desk_doublets[0]
    rng = np.random.default_rng(5)
    pick = np.concatenate([rng.permutation(len(inner)),
                           rng.choice(len(inner), 200)])  # 200 doublets listed twice
    ts = assert_chain_matches_oracle(hits, inner[pick], outer[pick], cap)
    if cap >= 1e-3:
        assert len(ts) > 0


def test_windowed_join_matches_all_pairs_truth_doublets(desk_events):
    for event in desk_events[:3]:
        ds = truth_doublets(event)
        got = truth_triplets(ds)
        first, second, delta_theta = chain_oracle(truth_doublets(event), math.inf)
        assert got.first.tolist() == first.tolist()
        assert got.second.tolist() == second.tolist()
        assert got.delta_theta.tobytes() == delta_theta.tobytes()


def fan():
    """One inner doublet into hit 1, and second doublets out of hit 1 to
    hits at the same x (tied theta_xz) with different y, plus one doublet
    into a different middle hit."""
    hits = [hit(0, 0, 0.03), hit(1, 1, 0.036), hit(5, 1, 0.037)]
    hits += [hit(10 + k, 2, 0.042, y)
             for k, y in enumerate((0.0, 1e-5, -1e-5, 3e-4, 0.0))]
    hits += [hit(20, 2, 0.043)]
    inner = [0] + [1] * 5 + [2]
    outer = [1, 3, 4, 5, 6, 7, 8]
    return hits, inner, outer


@pytest.mark.parametrize("cap", CAPS)
def test_windowed_join_tied_theta_xz(cap):
    ts = assert_chain_matches_oracle(*fan(), cap)
    # four ties on theta_xz; the y = 3e-4 doublet is 3 mrad off
    assert len(ts) == {1e-3: 4, 0.5: 5, math.inf: 5}.get(cap, len(ts))


@pytest.mark.parametrize("cap", CAPS)
def test_windowed_join_keys_on_hit_ids(cap):
    """Hits are keyed on their ids: a second middle hit with the first's
    id chains like it (ids are unique in read events, not in a bare
    Doublets)."""
    hits, inner, outer = fan()
    hits[2] = Hit(1, 1, hits[2].position)
    ts = assert_chain_matches_oracle(hits, inner, outer, cap)
    assert (6 in ts.second.tolist()) == (cap >= 1e-12)  # the same theta_xz


def test_windowed_join_pair_at_the_reach_to_the_last_bit():
    """A pair whose whole delta_theta is its theta_xz difference (dy = 0)
    is kept at a cap equal to it and dropped one float below."""
    d1 = (hit(0, 0, 0.03), hit(1, 1, 0.036))
    theta = math.atan2(0.006, 0.1) + 0.7e-3
    d2 = (hit(1, 1, 0.036), hit(2, 2, 0.036 + 0.1 * math.tan(theta)))
    hits = [d1[0], d1[1], d2[1]]
    ds = Doublets(hits, [0, 1], [1, 2])
    (dt,) = _chain(ds, math.inf).delta_theta
    assert ds.theta_yz.tolist() == [0.0, 0.0]
    assert dt == ds.theta_xz[1] - ds.theta_xz[0] == pytest.approx(0.7e-3, rel=1e-9)
    for cap in (dt, float(np.nextafter(dt, 0.0)), float(np.nextafter(dt, 1.0))):
        ts = assert_chain_matches_oracle(hits, [0, 1], [1, 2], cap)
        assert len(ts) == (cap >= dt)


@pytest.mark.parametrize("coordinate", [1, 2], ids=["nan-y", "nan-z"])
@pytest.mark.parametrize("cap", CAPS)
def test_windowed_join_nan_coordinate(coordinate, cap):
    hits, inner, outer = fan()
    position = list(hits[4].position)
    position[coordinate] = math.nan
    hits[4] = Hit(hits[4].hit_id, hits[4].layer, tuple(position))
    ts = assert_chain_matches_oracle(hits, inner, outer, cap)
    assert 2 not in ts.second.tolist()


@pytest.mark.parametrize("cap", CAPS)
def test_windowed_join_empty_and_single_doublet(cap):
    hits = [hit(0, 0, 0.03), hit(1, 1, 0.036)]
    assert len(assert_chain_matches_oracle(hits, [], [], cap)) == 0
    assert len(assert_chain_matches_oracle(hits, [0], [1], cap)) == 0


def test_angles_equal_math_atan2_before_and_after_the_join(desk_doublets):
    hits, inner, outer = desk_doublets[0]
    positions = np.array([h.position for h in hits])
    d = positions[outer] - positions[inner]
    expected_xz = [math.atan2(x, z) for x, z in zip(d[:, 0].tolist(), d[:, 2].tolist())]
    expected_yz = [math.atan2(y, z) for y, z in zip(d[:, 1].tolist(), d[:, 2].tolist())]
    window = wide_window()
    before = Doublets(hits, inner, outer)
    assert before.theta_xz.tolist() == expected_xz
    assert before.theta_yz.tolist() == expected_yz
    build_triplets(before, window)
    after = Doublets(hits, inner, outer)
    ts = build_triplets(after, window)
    assert 0 < after._known.sum() < len(after)  # the join read some angles only
    assert after.theta_xz.tolist() == expected_xz
    assert after.theta_yz.tolist() == expected_yz
    assert [after[k].theta_xz for k in (0, len(after) - 1)] == [expected_xz[0],
                                                               expected_xz[-1]]
    assert len(ts) > 0
