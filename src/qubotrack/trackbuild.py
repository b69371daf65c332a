"""Quadruplet building from selected triplets, straight-line fitting,
energy estimation and ambiguity resolution.

Data layout: an event's candidates are one ``(candidates, 4)`` intp array
of positions in ``selected.doublets.hits``, one row per distinct hit set
of a chained pair of selected triplets, in the order of the first pair
forming it, innermost hit first (column k is layer k). The fit reads
``doublets.positions[rows]`` and returns one :class:`TrackFits` of arrays
aligned with the rows, each fit with NDF degrees of freedom; ambiguity
resolution reads ``doublets.hit_ids[rows]`` and the fits' chi2/ndf.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .fastsim import PT_KICK_PER_TESLA_METER
from .geometry import GeometryConfig, shared_hits
from .preselect import Triplets
from .qubo import chained_pairs

NDF = 4  # 2 coordinates x 4 hits - 4 parameters


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class TrackFits:
    """Straight-line fits of candidates, one entry per candidate row."""

    x0: np.ndarray   # intercept at z=0, m
    y0: np.ndarray
    tx: np.ndarray   # slope dx/dz
    ty: np.ndarray
    chi2: np.ndarray
    energy: np.ndarray  # GeV; NaN where the slope cannot be inverted

    @property
    def chi2_ndf(self) -> np.ndarray:
        return self.chi2 / NDF


def triplets_to_candidates(selected: Triplets) -> np.ndarray:
    """Every chained pair of selected triplets, deduplicated by hit set,
    as ``(candidates, 4)`` hit positions (see the module docstring)."""
    first, second = chained_pairs(selected.first, selected.second)
    index = selected.hit_index()
    rows = np.column_stack([index[first], index[second, 2]])
    # hit ids are unique within an event, so equal rows are equal hit sets;
    # return_index gives each one's first occurrence
    _, keep = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(keep)]


def estimate_energy(tx: float, geometry: GeometryConfig) -> float:
    """Invert the dipole model: E = 0.2998 * B * L / sin(atan(tx)).

    Requires a forward-going, +x-deflected slope; raises FitError for
    tracks bending the wrong way or not bending at all.
    """
    theta_x = math.atan(tx)
    if abs(math.sin(theta_x)) < 1e-9:
        raise FitError("track slope too small to invert the dipole deflection")
    if tx < 0:
        raise FitError("track bends away from the spectrometer side")
    kick = PT_KICK_PER_TESLA_METER * geometry.dipole_field * geometry.dipole_length
    return kick / math.sin(theta_x)


def fit_track(positions: np.ndarray, geometry: GeometryConfig) -> TrackFits:
    """Independent weighted least squares in x-z and y-z of each row of
    the ``(candidates, 4, 3)`` hit positions, in closed form.

    All hits carry the same in-plane sigma (the detector resolution), so
    the weighted problem reduces to the plain normal equations;
    chi2 = sum((dx^2 + dy^2)) / sigma^2. Raises FitError when a row's hits
    all sit at one z. Energies use ``math``, as NumPy's forms can differ
    in the last bit."""
    x, y, z = (positions[:, :, c] for c in range(3))
    n = positions.shape[1]
    sz, szz = z.sum(axis=1), (z * z).sum(axis=1)
    denom = n * szz - sz * sz
    if (denom == 0.0).any():
        raise FitError("degenerate fit: all hits at the same z")

    def line(v):
        sv = v.sum(axis=1)
        slope = (n * (v * z).sum(axis=1) - sz * sv) / denom
        return (sv - slope * sz) / n, slope

    (x0, tx), (y0, ty) = line(x), line(y)
    rx = x - (x0[:, None] + tx[:, None] * z)
    ry = y - (y0[:, None] + ty[:, None] * z)
    sigma = geometry.hit_resolution
    chi2 = ((rx * rx + ry * ry) / (sigma * sigma)).sum(axis=1)
    energy = np.full(len(tx), math.nan)
    for k, slope in enumerate(tx.tolist()):
        try:
            energy[k] = estimate_energy(slope, geometry)
        except FitError:
            pass
    return TrackFits(x0=x0, y0=y0, tx=tx, ty=ty, chi2=chi2, energy=energy)


def _overlap_counts(hit_ids: np.ndarray, m: int) -> tuple[tuple[list, ...], list, list]:
    """The (i, j, n) lists of :func:`~qubotrack.geometry.shared_hits`, and
    each of the ``m`` candidates' total overlap and number of >=2-hit
    partners."""
    first, second, shared = shared_hits(hit_ids)
    two = shared >= 2
    total = np.bincount(first, shared, m) + np.bincount(second, shared, m)
    conflicts = np.bincount(first[two], minlength=m) + np.bincount(second[two], minlength=m)
    return ((first.tolist(), second.tolist(), shared.tolist()),
            total.astype(int).tolist(), conflicts.tolist())


def resolve_ambiguities(hit_ids: np.ndarray, chi2_ndf: np.ndarray) -> list[int]:
    """Indices of the ``(candidates, 4)`` hit-id rows surviving
    shared-hit resolution, given each candidate's chi2/ndf.

    Repeatedly takes the candidate with the largest total hit overlap among
    those still in a >=2-shared-hit conflict (ties: the lower index),
    compares it against each of its conflicting partners, and rejects the
    worse chi2/ndf of every pair (ties keep the lower creation index).
    Terminates when all surviving pairs share at most one hit.

    Overlaps come from :func:`~qubotrack.geometry.shared_hits` once; each
    candidate keeps a map of its live neighbours to their shared-hit count,
    its total overlap and its number of >=2-hit partners, and a rejected
    candidate is removed from its neighbours' maps and counts. The pivot
    comes from a heap of (-total, index) entries, one per candidate in
    conflict, pushed when it was last found current. Totals only fall, so
    an entry's key is never above its candidate's current key: an entry
    popped with an outdated total is pushed again under the current one,
    and the first current entry popped is the least key of all.
    """
    if len(hit_ids) != len(chi2_ndf):
        raise ValueError("candidates and fits must align")
    quality = np.asarray(chi2_ndf, dtype=float).tolist()
    alive = set(range(len(quality)))
    overlap: list[dict[int, int]] = [{} for _ in quality]
    pairs, total, conflicts = _overlap_counts(hit_ids, len(quality))
    for i, j, n in zip(*pairs):
        overlap[i][j] = overlap[j][i] = n
    heap = [(-t, i) for i, (t, c) in enumerate(zip(total, conflicts)) if c]
    heapq.heapify(heap)

    def reject(i: int) -> None:
        alive.discard(i)
        for j, n in overlap[i].items():
            del overlap[j][i]
            total[j] -= n
            conflicts[j] -= n >= 2

    while heap:
        minus_total, pivot = heapq.heappop(heap)
        if pivot not in alive or not conflicts[pivot]:
            continue
        if -minus_total != total[pivot]:
            heapq.heappush(heap, (-total[pivot], pivot))
            continue
        pivot_key = (quality[pivot], pivot)
        reject_pivot = False
        for partner in [j for j, n in overlap[pivot].items() if n >= 2]:
            if (quality[partner], partner) > pivot_key:
                reject(partner)
            else:
                reject_pivot = True
        if reject_pivot:
            reject(pivot)
    return sorted(alive)
