"""The run-level calibration pass against the per-event reference, bit for
bit, and the s_max percentile's input forms."""

import dataclasses

import numpy as np
import pytest

from calibration_reference import reference_calibrate
from metrics_reference import hexed
from qubotrack.config import RunConfig
from qubotrack.geometry import Event, Hit
from qubotrack.pipeline import S_MAX_FALLBACK, calibrate
from qubotrack.preselect import CalibrationError, run_truth_doublets, truth_doublets
from qubotrack.qubo import calibrate_s_max


def hit(hid, layer, x, y=0.0, pid=None, z=None):
    z = 1.0 + 0.1 * layer if z is None else z
    return Hit(hit_id=hid, layer=layer, position=(x, y, z), truth_particle_id=pid)


def track(first_id, pid, x0, slope, y0=0.0, layers=range(4)):
    """Hits of particle ``pid`` on ``layers``, x growing by ``slope`` a layer."""
    return [hit(first_id + k, layer, x0 * (1 + slope) ** layer, y0 * (1 + 0.01 * layer), pid)
            for k, layer in enumerate(layers)]


def crafted_event(event_id: int, shift: float = 0.0) -> Event:
    """Four-layer particles, a particle missing layer 2, one whose layer-1
    hit sits at x = 0, one with two hits on layer 1 (the last in hit order
    counts), and noise, in no particular hit order."""
    hits = [
        *track(0, 11, 0.030 + shift, 0.20, 0.001),
        *track(10, 4, 0.051 + shift, 0.17, -0.002),
        *track(20, 7, 0.042 + shift, 0.22, layers=(0, 1, 3)),  # no layer-2 hit
        hit(30, 0, 0.020, pid=9), hit(31, 1, 0.0, pid=9),        # x0 = 0 on layer 1
        hit(32, 2, 0.029, pid=9), hit(33, 3, 0.035, pid=9),
        hit(40, 0, 0.061, 0.003, pid=2), hit(41, 1, 0.070, 0.003, pid=2),
        hit(42, 1, 0.0733, 0.003, pid=2),                         # the layer-1 hit that counts
        hit(43, 2, 0.0880, 0.003, pid=2), hit(44, 3, 0.1057, 0.003, pid=2),
        hit(50, 2, 0.05), hit(51, 0, 0.08), hit(52, 3, 0.07),    # noise
    ]
    order = np.random.default_rng(event_id).permutation(len(hits))
    return Event(event_id, 0.0, tuple(hits[k] for k in order), ())


def noise_event(event_id: int) -> Event:
    return Event(event_id, 0.0, (hit(0, 0, 0.03), hit(1, 1, 0.036), hit(2, 2, 0.04)), ())


def calibration_bits(result):
    window, scaling, info = result
    return hexed([list(dataclasses.astuple(window)), list(dataclasses.astuple(scaling)),
                  info])


def assert_matches_reference(events, config):
    got = calibrate(events, config)
    assert calibration_bits(got) == calibration_bits(reference_calibrate(events, config))
    return got


def with_fields(config: RunConfig, **fields) -> RunConfig:
    return RunConfig.from_dict({**config.to_dict(), **fields})


def test_desk_events_match_the_reference(desk_events, desk_config):
    _, scaling, info = assert_matches_reference(desk_events, desk_config)
    assert info["dx_source"] == info["s_max_source"] == "truth-calibrated"
    assert scaling.s_max != S_MAX_FALLBACK


def test_desk_events_out_of_id_order_and_listed_twice(desk_events, desk_config):
    """Events count in list order: the mean and sigma bits follow the order
    of the dx/x0 values, and an event listed twice counts twice."""
    shuffled = [desk_events[k] for k in (7, 2, 11, 0, 5)]
    assert_matches_reference(shuffled, desk_config)
    twice = [desk_events[3], desk_events[1], desk_events[3]]
    _, _, info = assert_matches_reference(twice, desk_config)
    _, _, once = calibrate(twice[:2], desk_config)
    assert info["dx_sigma"] != once["dx_sigma"]


@pytest.mark.parametrize("ids", [(0, 1, 2), (2, 0, 1), (1, 1), (3,)])
def test_crafted_events_match_the_reference(ids):
    events = [crafted_event(i, shift=0.004 * i) for i in ids]
    _, _, info = assert_matches_reference(events, RunConfig())
    assert info["s_max_source"] == "truth-calibrated"


def test_crafted_truth_doublets():
    """Of particle 7 (no layer-2 hit) only its 0-1 doublet, of particle 9
    (x0 = 0 on layer 1) its 0-1 and 2-3 doublets, and of particle 2 the
    layer-1 hit listed last."""
    ds = truth_doublets(crafted_event(0))
    pairs = {(int(a), int(b)) for a, b in zip(ds.hit_ids[ds.inner], ds.hit_ids[ds.outer])}
    assert pairs == {(0, 1), (1, 2), (2, 3), (10, 11), (11, 12), (12, 13), (20, 21),
                     (30, 31), (32, 33), (40, 42), (42, 43), (43, 44)}


def test_run_truth_doublets_lay_the_events_end_to_end():
    events = [crafted_event(3), noise_event(8), crafted_event(1, shift=0.002)]
    run = run_truth_doublets(events)
    offset = 0
    parts = []
    for event in events:
        ds = truth_doublets(event)
        parts.append((ds.inner + offset, ds.outer + offset, ds.dx_over_x0))
        offset += len(event.hits)
    inner, outer, dx = (np.concatenate(column) for column in zip(*parts))
    assert run.inner.tolist() == inner.tolist() and run.outer.tolist() == outer.tolist()
    assert run.dx_over_x0.tobytes() == dx.tobytes()


def test_an_event_without_truth_adds_nothing(desk_events, desk_config):
    events = [noise_event(100), desk_events[4], noise_event(101), desk_events[9]]
    assert calibration_bits(assert_matches_reference(events, desk_config)) \
        == calibration_bits(calibrate([desk_events[4], desk_events[9]], desk_config))


def test_configured_window_with_calibrated_s_max(desk_events, desk_config):
    config = with_fields(desk_config, dx_window=[0.2, 0.01])
    window, _, info = assert_matches_reference(desk_events[:6], config)
    assert (window.dx_mean, window.dx_sigma) == (0.2, 0.01)
    assert info["dx_source"] == "config" and info["s_max_source"] == "truth-calibrated"


def test_configured_s_max_with_calibrated_window(desk_events, desk_config):
    config = with_fields(desk_config, s_max=2e-4)
    _, scaling, info = assert_matches_reference(desk_events[:6], config)
    assert scaling.s_max == 2e-4
    assert info["dx_source"] == "truth-calibrated" and info["s_max_source"] == "config"


def test_configured_window_and_s_max_need_no_truth():
    config = with_fields(RunConfig(), dx_window=[0.2, 0.01], s_max=2e-4)
    _, _, info = assert_matches_reference([noise_event(0)], config)
    assert info["dx_source"] == info["s_max_source"] == "config"


def collinear_event(event_id: int, layers=range(4)) -> Event:
    """Two particles on exact straight lines (steps that are exact in
    binary), so every chain's angle spread is 0.0."""
    hits = [hit(10 * pid + layer, layer, x * (1 + layer), 0.0, pid, z=1.0 + 0.5 * layer)
            for pid, x in ((1, 0.25), (2, 0.125)) for layer in layers]
    return Event(event_id, 0.0, tuple(hits), ())


@pytest.mark.parametrize("layers", [range(4), range(3)], ids=["zero-spreads", "no-chains"])
def test_s_max_fallback(layers):
    """Spreads that are all 0.0 (two of them) or no chain at all fall back."""
    _, scaling, info = assert_matches_reference([collinear_event(0, layers)], RunConfig())
    assert scaling.s_max == S_MAX_FALLBACK and info["s_max_source"] == "fallback"


@pytest.mark.parametrize("events, n", [
    ([], 0),
    ([noise_event(0)], 0),
    ([Event(0, 0.0, (hit(0, 0, 0.03, pid=1), hit(1, 1, 0.036, pid=1), hit(2, 2, 0.04)), ())], 1),
])
def test_fewer_than_two_truth_doublets_raise(events, n):
    message = f"need at least 2 truth-matched doublets to calibrate, got {n}"
    for calibration in (calibrate, reference_calibrate):
        with pytest.raises(CalibrationError) as raised:
            calibration(events, RunConfig())
        assert str(raised.value) == message


# -- the s_max percentile's input ------------------------------------------------------

def test_calibrate_s_max_takes_a_list_or_an_array():
    spreads = [3e-4, 1e-4, 0.0, 7e-4, 2e-4]
    assert calibrate_s_max(np.array(spreads)) == calibrate_s_max(spreads) \
        == float(np.percentile(spreads, 99.0))
    assert calibrate_s_max(np.array([0.0])) == calibrate_s_max([0.0]) == 0.0


def test_calibrate_s_max_of_nothing_is_none():
    assert calibrate_s_max(np.empty(0)) is None
    assert calibrate_s_max([]) is None
