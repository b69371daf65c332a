"""Quadruplet building from selected triplets, straight-line fitting,
energy estimation and ambiguity resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fastsim import PT_KICK_PER_TESLA_METER
from .geometry import DetectorGeometry, Hit, shared_hits
from .preselect import Triplets
from .qubo import chained_pairs


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class TrackCandidate:
    """Exactly four hits, one per layer, built from a chained triplet pair."""

    hits: tuple[Hit, Hit, Hit, Hit]

    def __post_init__(self):
        layers = tuple(h.layer for h in self.hits)
        if layers != (0, 1, 2, 3):
            raise ValueError(f"candidate must have one hit per layer, got {layers}")

    def hit_ids(self) -> tuple[int, int, int, int]:
        return tuple(h.hit_id for h in self.hits)


@dataclass(frozen=True)
class TrackFit:
    x0: float   # intercept at z=0, m
    y0: float
    tx: float   # slope dx/dz
    ty: float
    chi2: float
    ndf: int    # 2*4 hits - 4 parameters
    energy_estimate: float  # GeV; NaN when the slope cannot be inverted

    @property
    def chi2_ndf(self) -> float:
        return self.chi2 / self.ndf


def triplets_to_candidates(selected: Triplets) -> list[TrackCandidate]:
    """Every chained pair of selected triplets, deduplicated by hit set."""
    first, second = chained_pairs(selected.first, selected.second)
    index = selected.hit_index()
    rows = np.column_stack([index[first], index[second, 2]])
    hits = selected.doublets.hits
    out: list[TrackCandidate] = []
    seen: set[tuple[int, ...]] = set()
    for key, row in zip(selected.doublets.hit_ids[rows].tolist(), rows.tolist()):
        key = tuple(key)
        if key in seen:
            continue
        seen.add(key)
        out.append(TrackCandidate(hits=tuple(hits[k] for k in row)))
    return out


def _line_fit(z: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Closed-form least squares of v = intercept + slope*z."""
    n = len(z)
    sz, szz = z.sum(), (z * z).sum()
    sv, svz = v.sum(), (v * z).sum()
    denom = n * szz - sz * sz
    if denom == 0.0:
        raise FitError("degenerate fit: all hits at the same z")
    slope = (n * svz - sz * sv) / denom
    intercept = (sv - slope * sz) / n
    return intercept, slope


def estimate_energy(fit: "TrackFit", geometry: DetectorGeometry) -> float:
    """Invert the dipole model: E = 0.2998 * B * L / sin(atan(tx)).

    Requires a forward-going, +x-deflected slope; raises FitError for
    tracks bending the wrong way or not bending at all.
    """
    theta_x = math.atan(fit.tx)
    if abs(math.sin(theta_x)) < 1e-9:
        raise FitError("track slope too small to invert the dipole deflection")
    if fit.tx < 0:
        raise FitError("track bends away from the spectrometer side")
    kick = PT_KICK_PER_TESLA_METER * geometry.dipole_field * geometry.dipole_length
    return kick / math.sin(theta_x)


def fit_track(candidate: TrackCandidate, geometry: DetectorGeometry) -> TrackFit:
    """Independent weighted least squares in x-z and y-z.

    All hits carry the same in-plane sigma (the detector resolution), so
    the weighted problem reduces to the plain normal equations;
    chi2 = sum((dx^2 + dy^2)) / sigma^2 with 4 degrees of freedom.
    """
    z = np.array([h.position[2] for h in candidate.hits])
    x = np.array([h.position[0] for h in candidate.hits])
    y = np.array([h.position[1] for h in candidate.hits])
    x0, tx = _line_fit(z, x)
    y0, ty = _line_fit(z, y)
    rx = x - (x0 + tx * z)
    ry = y - (y0 + ty * z)
    sigma = geometry.hit_resolution
    chi2 = float(((rx * rx + ry * ry) / (sigma * sigma)).sum())
    fit = TrackFit(x0=x0, y0=y0, tx=tx, ty=ty, chi2=chi2, ndf=4,
                   energy_estimate=math.nan)
    try:
        return replace(fit, energy_estimate=estimate_energy(fit, geometry))
    except FitError:
        return fit


def resolve_ambiguities(candidates: list[TrackCandidate],
                        fits: list[TrackFit]) -> list[int]:
    """Indices of candidates surviving shared-hit resolution.

    Repeatedly takes the candidate with the largest total hit overlap among
    those still in a >=2-shared-hit conflict, compares it against each of
    its conflicting partners, and rejects the worse chi2/ndf of every pair
    (ties keep the lower creation index). Terminates when all surviving
    pairs share at most one hit.

    Overlaps come from :func:`~qubotrack.geometry.shared_hits` once; each
    candidate keeps a map of its live neighbours to their shared-hit
    count, and a rejected candidate is removed from its neighbours' maps.
    """
    if len(candidates) != len(fits):
        raise ValueError("candidates and fits must align")
    alive = set(range(len(candidates)))
    overlap: list[dict[int, int]] = [{} for _ in candidates]
    rows = np.array([c.hit_ids() for c in candidates], dtype=np.int64).reshape(-1, 4)
    for i, j, n in zip(*(a.tolist() for a in shared_hits(rows))):
        overlap[i][j] = overlap[j][i] = n

    def reject(i: int) -> None:
        alive.discard(i)
        for j in overlap[i]:
            del overlap[j][i]

    while True:
        in_conflict = [i for i in alive if any(n >= 2 for n in overlap[i].values())]
        if not in_conflict:
            break
        pivot = min(in_conflict, key=lambda i: (-sum(overlap[i].values()), i))
        pivot_key = (fits[pivot].chi2_ndf, pivot)
        reject_pivot = False
        for partner in [j for j, n in overlap[pivot].items() if n >= 2]:
            if (fits[partner].chi2_ndf, partner) > pivot_key:
                reject(partner)
            else:
                reject_pivot = True
        if reject_pivot:
            reject(pivot)
    return sorted(alive)
