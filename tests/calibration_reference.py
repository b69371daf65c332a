"""Per-event calibration, the reference that ``pipeline.calibrate`` must
equal bit for bit.

Each event's truth doublets are built alone (``truth_doublets``), chained
into truth triplets by the windowed join without an angle cap, and their
truth-chained pairs' spreads are gathered into one list; the dx/x0
window comes from ``calibrate_dx_window`` over the per-event doublets.
"""

from __future__ import annotations

import math

import numpy as np

from qubotrack.config import RunConfig
from qubotrack.geometry import Event
from qubotrack.pipeline import S_MAX_FALLBACK
from qubotrack.preselect import (Doublets, PreselectionWindow, Triplets, _chain,
                                 calibrate_dx_window, truth_doublets)
from qubotrack.qubo import QuboScaling, calibrate_s_max, chained_angle_spreads, chained_pairs


def truth_triplets(doublets: Doublets) -> Triplets:
    """Per-particle triplets chained from one event's truth doublets
    (``truth_doublets``), without any cuts: a particle with hits on all
    four layers contributes its two triplets regardless of the selection
    windows."""
    return _chain(doublets, math.inf)


def truth_chain_spreads(triplets: Triplets) -> np.ndarray:
    """Angle spreads of all truth-chained triplet pairs of one event.

    Triplets from different events must not be pooled here: particle and
    hit ids restart per event.
    """
    a, b = chained_pairs(triplets.first, triplets.second)
    pid, known = triplets.truth_particle_ids()
    same = known[a] & known[b] & (pid[a] == pid[b])
    return chained_angle_spreads(triplets.doublets, triplets.first, triplets.second,
                                 a[same], b[same])


def reference_calibrate(events: list[Event], config: RunConfig
                        ) -> tuple[PreselectionWindow, QuboScaling, dict]:
    """``pipeline.calibrate`` event by event: one truth ``Doublets``, one
    ``Triplets`` and one chain join per event."""
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
