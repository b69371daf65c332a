"""Doublet and triplet building with the pre-selection cuts.

Doublets pair hits on consecutive layers and must satisfy a window on
dx/x0, where dx is the x difference of the two hits and x0 the x coordinate
of the hit on the layer closer to the interaction point. Triplets chain two
doublets through a shared middle hit and must satisfy a cap on the angle
difference delta_theta = sqrt(dtheta_xz^2 + dtheta_yz^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DetectorGeometry, Event, Hit

DX_SIGMA_FLOOR = 1e-9  # guards against zero-width windows from degenerate input


class CalibrationError(ValueError):
    pass


@dataclass(frozen=True)
class Doublet:
    hit_inner: Hit
    hit_outer: Hit
    theta_xz: float   # atan(dx/dz), rad
    theta_yz: float   # atan(dy/dz), rad
    dx_over_x0: float

    @property
    def layers(self) -> tuple[int, int]:
        return self.hit_inner.layer, self.hit_outer.layer


def make_doublet(inner: Hit, outer: Hit) -> Doublet:
    if outer.layer != inner.layer + 1:
        raise ValueError(f"doublet layers not consecutive: {inner.layer}, {outer.layer}")
    dx = outer.position[0] - inner.position[0]
    dy = outer.position[1] - inner.position[1]
    dz = outer.position[2] - inner.position[2]
    x0 = inner.position[0]
    if x0 == 0.0:
        raise ZeroDivisionError("x0 = 0, dx/x0 undefined")
    return Doublet(
        hit_inner=inner,
        hit_outer=outer,
        theta_xz=math.atan2(dx, dz),
        theta_yz=math.atan2(dy, dz),
        dx_over_x0=dx / x0,
    )


@dataclass(frozen=True)
class Triplet:
    doublet_first: Doublet
    doublet_second: Doublet
    delta_theta: float  # rad
    layer_span: tuple[int, int]

    def hits(self) -> tuple[Hit, Hit, Hit]:
        return (self.doublet_first.hit_inner,
                self.doublet_first.hit_outer,
                self.doublet_second.hit_outer)

    def hit_ids(self) -> tuple[int, int, int]:
        return tuple(h.hit_id for h in self.hits())

    def doublets(self) -> tuple[Doublet, Doublet]:
        return self.doublet_first, self.doublet_second

    def truth_particle_id(self) -> int | None:
        """Common truth particle of all three hits, or None."""
        pids = {h.truth_particle_id for h in self.hits()}
        if len(pids) == 1 and None not in pids:
            return pids.pop()
        return None


@dataclass(frozen=True)
class PreselectionWindow:
    dx_mean: float
    dx_sigma: float
    n_sigma: float = 3.0
    max_delta_theta: float = 1e-3  # rad

    def __post_init__(self):
        if self.dx_sigma <= 0:
            raise ValueError(f"dx_sigma must be positive, got {self.dx_sigma}")
        if self.max_delta_theta <= 0:
            raise ValueError("max_delta_theta must be positive")

    @classmethod
    def from_calibration(cls, dx_mean: float, dx_sigma: float,
                         n_sigma: float = 3.0,
                         max_delta_theta: float = 1e-3) -> "PreselectionWindow":
        return cls(dx_mean=dx_mean, dx_sigma=max(dx_sigma, DX_SIGMA_FLOOR),
                   n_sigma=n_sigma, max_delta_theta=max_delta_theta)


@dataclass
class DoubletDiagnostics:
    n_pairs: int = 0
    n_skipped_x0_zero: int = 0
    n_rejected_window: int = 0


def truth_doublets(event: Event) -> list[Doublet]:
    """All consecutive-layer hit pairs sharing a truth particle (for calibration)."""
    by_particle_layer: dict[tuple[int, int], Hit] = {}
    for h in event.hits:
        if h.truth_particle_id is not None:
            by_particle_layer[(h.truth_particle_id, h.layer)] = h
    out = []
    for (pid, layer), inner in sorted(by_particle_layer.items()):
        outer = by_particle_layer.get((pid, layer + 1))
        if outer is not None and inner.position[0] != 0.0:
            out.append(make_doublet(inner, outer))
    return out


def truth_triplets(event: Event) -> list[Triplet]:
    """Per-particle triplets chained from truth doublets, without any cuts.

    Used for calibration passes; a particle with hits on all four layers
    contributes its two triplets regardless of the selection windows.
    """
    by_particle: dict[int, list[Doublet]] = {}
    for d in truth_doublets(event):
        by_particle.setdefault(d.hit_inner.truth_particle_id, []).append(d)
    out = []
    for doublets in by_particle.values():
        by_inner_layer = {d.hit_inner.layer: d for d in doublets}
        for k in (0, 1):
            d1, d2 = by_inner_layer.get(k), by_inner_layer.get(k + 1)
            if d1 is not None and d2 is not None:
                out.append(Triplet(
                    doublet_first=d1, doublet_second=d2,
                    delta_theta=triplet_delta_theta(d1, d2),
                    layer_span=(k, k + 2),
                ))
    return out


def calibrate_dx_window(doublets: list[Doublet]) -> tuple[float, float]:
    """Sample mean and standard deviation (ddof=1) of dx/x0 over truth doublets.

    Callers should route the result through
    :meth:`PreselectionWindow.from_calibration`, which floors a degenerate
    zero sigma.
    """
    matched = [
        d for d in doublets
        if d.hit_inner.truth_particle_id is not None
        and d.hit_inner.truth_particle_id == d.hit_outer.truth_particle_id
    ]
    if len(matched) < 2:
        raise CalibrationError(
            f"need at least 2 truth-matched doublets to calibrate, got {len(matched)}"
        )
    values = np.array([d.dx_over_x0 for d in matched])
    return float(values.mean()), float(values.std(ddof=1))


def build_doublets(hits: list[Hit] | tuple[Hit, ...], geometry: DetectorGeometry,
                   window: PreselectionWindow,
                   diagnostics: DoubletDiagnostics | None = None) -> list[Doublet]:
    """All consecutive-layer hit pairs passing the dx/x0 window.

    Pairs whose inner hit has x0 = 0 cannot form the ratio; they are skipped
    and counted in ``diagnostics``.
    """
    diag = diagnostics if diagnostics is not None else DoubletDiagnostics()
    by_layer: dict[int, list[Hit]] = {}
    for h in hits:
        by_layer.setdefault(h.layer, []).append(h)

    # the window: dx_mean +- n_sigma * dx_sigma, boundaries inclusive
    half = window.n_sigma * window.dx_sigma
    lo, hi = window.dx_mean - half, window.dx_mean + half

    out: list[Doublet] = []
    for layer in range(geometry.n_layers - 1):
        inner_hits = by_layer.get(layer, [])
        outer_hits = by_layer.get(layer + 1, [])
        if not inner_hits or not outer_hits:
            continue
        xi = np.array([h.position[0] for h in inner_hits])
        xo = np.array([h.position[0] for h in outer_hits])
        diag.n_pairs += len(inner_hits) * len(outer_hits)
        zero_mask = xi == 0.0
        diag.n_skipped_x0_zero += int(zero_mask.sum()) * len(outer_hits)
        # ratio[i, j] = (xo[j] - xi[i]) / xi[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (xo[None, :] - xi[:, None]) / xi[:, None]
        ok = (ratio >= lo) & (ratio <= hi) & ~zero_mask[:, None]
        idx_i, idx_j = np.nonzero(ok)
        diag.n_rejected_window += int((~ok & ~zero_mask[:, None]).sum())
        for i, j in zip(idx_i.tolist(), idx_j.tolist()):
            out.append(make_doublet(inner_hits[i], outer_hits[j]))
    return out


def triplet_delta_theta(d1: Doublet, d2: Doublet) -> float:
    """Angle difference between two chained doublets."""
    if d2.hit_inner.hit_id != d1.hit_outer.hit_id:
        raise ValueError("doublets do not chain through a shared middle hit")
    return math.hypot(d2.theta_xz - d1.theta_xz, d2.theta_yz - d1.theta_yz)


def build_triplets(doublets: list[Doublet], window: PreselectionWindow) -> list[Triplet]:
    """All chained doublet pairs with delta_theta <= max_delta_theta."""
    by_inner: dict[int, list[Doublet]] = {}
    for d in doublets:
        by_inner.setdefault(d.hit_inner.hit_id, []).append(d)

    out: list[Triplet] = []
    for d1 in doublets:
        for d2 in by_inner.get(d1.hit_outer.hit_id, []):
            dtheta = triplet_delta_theta(d1, d2)
            if dtheta <= window.max_delta_theta:
                out.append(Triplet(
                    doublet_first=d1,
                    doublet_second=d2,
                    delta_theta=dtheta,
                    layer_span=(d1.hit_inner.layer, d2.hit_outer.layer),
                ))
    return out
