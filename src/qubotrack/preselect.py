"""Doublet and triplet building with the pre-selection cuts.

Doublets pair hits on consecutive layers and must satisfy a window on
dx/x0, where dx is the x difference of the two hits and x0 the x coordinate
of the hit on the layer closer to the interaction point. Triplets chain two
doublets through a shared middle hit and must satisfy a cap on the angle
difference delta_theta = sqrt(dtheta_xz^2 + dtheta_yz^2).

Data layout: pre-selection reads an event's hit columns
(:class:`~qubotrack.geometry.Hits`: ids, layers, (hits, 3) positions,
truth ids and whether a hit has one), never one object per hit. An
event's doublets are one :class:`Doublets`, a struct of arrays over those
columns, which it keeps: inner and outer hit index (rows of ``hits``),
step (outer minus inner position), dx/x0, and theta_xz and theta_yz, one
entry per doublet, layer by layer and then row-major over inner x outer
hits in hit order. The angles are computed on demand, a doublet's the
first time they are read (:meth:`Doublets.angles`), so pre-selection
computes them only for the doublets of candidate triplets;
``theta_xz``/``theta_yz`` give every doublet's. Its triplets are
one :class:`Triplets`: first and second doublet index into that
Doublets, and delta_theta, by first doublet and then by second doublet,
both ascending. Hits are keyed on their ids (unique within an
event, as :func:`~qubotrack.io.read_events` enforces), doublets on their
index. Calibration's truth doublets are one Doublets for the whole run,
over its events' hits laid end to end (:func:`run_truth_doublets`; an
event's own, :func:`truth_doublets`, are the case of one event). These
containers are the only form that pre-selection, assembly,
calibration, track building and the debug dumps accept; truth matching
is read as arrays too (:meth:`Doublets.truth_matched`,
:meth:`Triplets.truth_particle_ids`). Both support ``len``; a slice or
an index array of a Triplets yields the Triplets of those entries.
Iterating them yields :class:`Doublet` and :class:`Triplet` views, kept
for perfbench's traced counters; the chain never builds one.

The triplet join is output-sized. It pairs a first doublet only with
the second doublets that start at its outer hit and whose theta_xz lies
within the cap (plus the prefilter's margin and ANGLE_PAD) of its own
(:func:`~qubotrack.geometry.windowed_key_pairs`, on ``np.arctan2``
angles), and drops those whose ``np.arctan2`` delta_theta exceeds the
same bound: as hypot(dx, dy) >= |dx| and the pad covers the two angle
forms' rounding, no pair the cut below keeps is lost, and memory and
time follow the pairs in the window, not all pairs that share a hit.

The cut reads angles from ``math.atan2`` and delta_theta from
``math.hypot``, one value at a time: their NumPy forms differ from them
in the last bit (on mult-100 event 0 at seed 2024, ``np.arctan2`` on 18
of 1904 theta_xz and ``np.hypot`` on 28 of 8761 triplet candidates, by
at most 2.2e-16 relative). NumPy only prefilters the triplet
candidates, with a relative margin of 1e-9.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import Event, GeometryConfig, Hit, Hits, windowed_key_pairs

DX_SIGMA_FLOOR = 1e-9  # guards against zero-width windows from degenerate input
HYPOT_MARGIN = 1e-9    # relative; np.hypot and math.hypot agree far closer
ANGLE_PAD = 1e-12      # rad; np.arctan2 and math.atan2 agree within ulps of pi


class CalibrationError(ValueError):
    pass


@dataclass(frozen=True)
class Doublet:  # read by perfbench's traced counters
    """View of one doublet."""

    hit_inner: Hit
    hit_outer: Hit
    theta_xz: float   # atan(dx/dz), rad
    theta_yz: float   # atan(dy/dz), rad
    dx_over_x0: float


class Doublets:
    """One event's doublets (calibration's: one run's) as aligned arrays;
    see the module docstring."""

    def __init__(self, hits: Hits, inner, outer):
        """Doublets of the (inner, outer) hit index pairs, no inner hit at
        x0 = 0, their features computed here and nowhere else (the angles
        when first read, by :meth:`angles`)."""
        self.hits = hits
        self.hit_ids, self.positions = self.hits.ids, self.hits.positions
        self.inner = np.asarray(inner, dtype=np.intp)
        self.outer = np.asarray(outer, dtype=np.intp)
        # (doublets, 3): outer minus inner hit position
        self.step = self.positions[self.outer] - self.positions[self.inner]
        self.dx_over_x0 = self.step[:, 0] / self.positions[self.inner, 0]
        self._angles = np.empty((2, len(self.inner)))  # theta_xz, theta_yz rows
        self._known = np.zeros(len(self.inner), dtype=bool)

    def angles(self, index) -> tuple[np.ndarray, np.ndarray]:
        """theta_xz and theta_yz of the doublets ``index`` (anything that
        indexes an array), rad: ``math.atan2`` of the step's dx (dy) and
        dz, computed for a doublet the first time it is read."""
        todo = np.zeros(len(self), dtype=bool)
        todo[index] = True
        todo = np.flatnonzero(todo & ~self._known)
        if len(todo):
            # a memoryview yields its floats one at a time: no list of inputs
            dx, dy, dz = map(memoryview, self.step[todo].T)
            self._angles[0, todo] = list(map(math.atan2, dx, dz))
            self._angles[1, todo] = list(map(math.atan2, dy, dz))
            self._known[todo] = True
        return self._angles[0, index], self._angles[1, index]

    @property
    def theta_xz(self) -> np.ndarray:
        """Every doublet's atan(dx/dz), rad."""
        return self.angles(slice(None))[0]

    @property
    def theta_yz(self) -> np.ndarray:
        """Every doublet's atan(dy/dz), rad."""
        return self.angles(slice(None))[1]

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self):  # read by perfbench's traced counters
        hits = tuple(self.hits)
        for a, b, txz, tyz, r in zip(self.inner.tolist(), self.outer.tolist(),
                                     self.theta_xz.tolist(), self.theta_yz.tolist(),
                                     self.dx_over_x0.tolist()):
            yield Doublet(hits[a], hits[b], txz, tyz, r)

    def truth_matched(self) -> np.ndarray:
        """Whether each doublet's two hits share a truth particle."""
        pid, known = self.hits.truth, self.hits.known
        return (known[self.inner] & known[self.outer]
                & (pid[self.inner] == pid[self.outer]))


@dataclass(frozen=True)
class Triplet:  # read by perfbench's traced counters
    """View of one triplet."""

    doublet_first: Doublet
    doublet_second: Doublet
    delta_theta: float  # rad

    def truth_particle_id(self) -> int | None:
        """Common truth particle of all three hits, or None."""
        pids = {h.truth_particle_id for h in (self.doublet_first.hit_inner,
                                              self.doublet_first.hit_outer,
                                              self.doublet_second.hit_outer)}
        if len(pids) == 1 and None not in pids:
            return pids.pop()
        return None


class Triplets:
    """One event's triplets as aligned arrays over a :class:`Doublets`;
    see the module docstring."""

    def __init__(self, doublets: Doublets, first: np.ndarray, second: np.ndarray,
                 delta_theta: np.ndarray):
        self.doublets = doublets
        self.first, self.second, self.delta_theta = first, second, delta_theta

    def __len__(self) -> int:
        return len(self.first)

    def __getitem__(self, index) -> Triplets:
        """The Triplets of the entries ``index`` (a slice or an index array)."""
        return Triplets(self.doublets, self.first[index], self.second[index],
                        self.delta_theta[index])

    def __iter__(self):  # read by perfbench's traced counters
        doublets = list(self.doublets)
        for f, s, dt in zip(self.first.tolist(), self.second.tolist(),
                            self.delta_theta.tolist()):
            yield Triplet(doublets[f], doublets[s], dt)

    def hit_index(self) -> np.ndarray:
        """(triplets, 3) positions in ``doublets.hits`` of each triplet's
        hits, innermost first."""
        d = self.doublets
        return np.stack([d.inner[self.first], d.outer[self.first],
                         d.outer[self.second]], axis=1)

    def hit_ids(self) -> np.ndarray:
        """(triplets, 3) hit ids, innermost first."""
        return self.doublets.hit_ids[self.hit_index()]

    def truth_particle_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Each triplet's common truth particle id, and whether its three
        hits have one (where they do not, the id is meaningless)."""
        pid, known = self.doublets.hits.truth, self.doublets.hits.known
        index = self.hit_index()
        common = (known[index].all(axis=1)
                  & (pid[index] == pid[index[:, :1]]).all(axis=1))
        return pid[index[:, 0]], common


@dataclass(frozen=True)
class PreselectionWindow:
    dx_mean: float
    dx_sigma: float
    n_sigma: float = 3.0
    max_delta_theta: float = 1e-3  # rad

    def __post_init__(self):
        if not math.isfinite(self.dx_mean):
            raise ValueError(f"dx_mean must be finite, got {self.dx_mean}")
        for name in ("dx_sigma", "n_sigma", "max_delta_theta"):
            if not getattr(self, name) > 0:  # "not > 0" so that NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @classmethod
    def from_calibration(cls, dx_mean: float, dx_sigma: float,
                         n_sigma: float = 3.0,
                         max_delta_theta: float = 1e-3) -> "PreselectionWindow":
        """The window of a calibrated (or configured) mean and sigma; a
        zero sigma is floored at DX_SIGMA_FLOOR, a negative or NaN one
        raises ``ValueError``."""
        if not dx_sigma >= 0:
            raise ValueError(f"dx_sigma must be non-negative, got {dx_sigma}")
        return cls(dx_mean=dx_mean, dx_sigma=max(dx_sigma, DX_SIGMA_FLOOR),
                   n_sigma=n_sigma, max_delta_theta=max_delta_theta)


@dataclass
class DoubletDiagnostics:
    n_pairs: int = 0
    n_skipped_x0_zero: int = 0
    n_rejected_window: int = 0


def run_truth_doublets(events: Sequence[Event]) -> Doublets:
    """Every event's consecutive-layer hit pairs that share a truth
    particle (for calibration), over the events' hits laid end to end in
    list order: by event position in the list (an event listed twice
    counts twice), then particle id, then layer; of a particle's hits on
    one layer, the last in hit order; no pair with its inner hit at x0 = 0.
    One stable lexsort over (event position, particle, layer) finds them
    all."""
    parts = [Hits(), *(e.hits for e in events)]
    hits = Hits(*map(np.concatenate, zip(*(vars(h).values() for h in parts))))
    event = np.repeat(np.arange(len(parts)), [len(h) for h in parts])
    layers, positions, pid = hits.layers, hits.positions, hits.truth
    k = np.flatnonzero(hits.known)
    k = k[np.lexsort((layers[k], pid[k], event[k]))]  # stable: rows stay in hit order
    last = np.ones(len(k), dtype=bool)
    last[:-1] = ((event[k[1:]] != event[k[:-1]]) | (pid[k[1:]] != pid[k[:-1]])
                 | (layers[k[1:]] != layers[k[:-1]]))
    k = k[last]
    chained = np.flatnonzero((event[k[1:]] == event[k[:-1]]) & (pid[k[1:]] == pid[k[:-1]])
                             & (layers[k[1:]] == layers[k[:-1]] + 1))
    inner, outer = k[chained], k[chained + 1]
    keep = positions[inner, 0] != 0.0
    return Doublets(hits, inner[keep], outer[keep])


def truth_doublets(event: Event) -> Doublets:
    """One event's truth doublets: :func:`run_truth_doublets` of the event
    alone."""
    return run_truth_doublets([event])


def calibrate_dx_window(doublets: Iterable[Doublets]) -> tuple[float, float]:
    """Sample mean and standard deviation (ddof=1) of dx/x0 over the
    truth-matched doublets of each :class:`Doublets` (an event's or a
    run's), in order.

    Callers should route the result through
    :meth:`PreselectionWindow.from_calibration`, which floors a degenerate
    zero sigma.
    """
    values = np.concatenate([np.empty(0), *(d.dx_over_x0[d.truth_matched()]
                                            for d in doublets)])
    if len(values) < 2:
        raise CalibrationError(
            f"need at least 2 truth-matched doublets to calibrate, got {len(values)}"
        )
    return float(values.mean()), float(values.std(ddof=1))


def build_doublets(hits: Hits, geometry: GeometryConfig,
                   window: PreselectionWindow,
                   diagnostics: DoubletDiagnostics | None = None) -> Doublets:
    """All consecutive-layer hit pairs passing the dx/x0 window.

    Pairs whose inner hit has x0 = 0 cannot form the ratio; they are skipped
    and counted in ``diagnostics``. Every pair tested lands in exactly one
    of: the result, ``n_rejected_window``, ``n_skipped_x0_zero``.
    """
    diag = diagnostics if diagnostics is not None else DoubletDiagnostics()
    layers, x = hits.layers, hits.positions[:, 0]

    # the window: dx_mean +- n_sigma * dx_sigma, boundaries inclusive
    half = window.n_sigma * window.dx_sigma
    lo, hi = window.dx_mean - half, window.dx_mean + half

    inner, outer = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for layer in range(geometry.n_layers - 1):
        inner_hits = np.flatnonzero(layers == layer)
        outer_hits = np.flatnonzero(layers == layer + 1)
        if not len(inner_hits) or not len(outer_hits):
            continue
        xi, xo = x[inner_hits], x[outer_hits]
        diag.n_pairs += len(inner_hits) * len(outer_hits)
        zero_mask = xi == 0.0
        diag.n_skipped_x0_zero += int(zero_mask.sum()) * len(outer_hits)
        # ratio[i, j] = (xo[j] - xi[i]) / xi[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (xo[None, :] - xi[:, None]) / xi[:, None]
        ok = (ratio >= lo) & (ratio <= hi) & ~zero_mask[:, None]
        idx_i, idx_j = np.nonzero(ok)
        diag.n_rejected_window += int((~ok & ~zero_mask[:, None]).sum())
        inner.append(inner_hits[idx_i])
        outer.append(outer_hits[idx_j])
    return Doublets(hits, np.concatenate(inner), np.concatenate(outer))


def _chain(doublets: Doublets, max_delta_theta: float) -> Triplets:
    """Every doublet pair chained through a shared middle hit with
    delta_theta <= max_delta_theta, by first and then second doublet.

    Pairs are formed only where the ``np.arctan2`` theta_xz lie within
    the prefilter's reach plus ANGLE_PAD of each other, and kept only
    where the ``np.arctan2`` angles' delta_theta does too; since
    hypot(dx, dy) >= |dx| and the pad covers both forms' rounding, these
    hold every pair the prefilter keeps on the exact angles."""
    d = doublets
    ids = np.sort(d.hit_ids)
    middle = np.searchsorted(ids, d.hit_ids)  # equal ids, equal keys
    reach = max_delta_theta * (1.0 + HYPOT_MARGIN)
    width = reach + ANGLE_PAD
    rough_xz = np.arctan2(d.step[:, 0], d.step[:, 2])
    rough_yz = np.arctan2(d.step[:, 1], d.step[:, 2])
    first, second = windowed_key_pairs(middle[d.outer], rough_xz - width,
                                       rough_xz + width, middle[d.inner], rough_xz)
    near = np.flatnonzero(np.hypot(rough_xz[second] - rough_xz[first],
                                   rough_yz[second] - rough_yz[first]) <= width)
    first, second = first[near], second[near]

    theta_xz, theta_yz = d.angles(np.concatenate([first, second]))
    m = len(first)
    dxz, dyz = theta_xz[m:] - theta_xz[:m], theta_yz[m:] - theta_yz[:m]
    near = np.flatnonzero(np.hypot(dxz, dyz) <= reach)
    delta_theta = np.array(list(map(math.hypot, dxz[near].tolist(), dyz[near].tolist())),
                           dtype=float)
    keep = delta_theta <= max_delta_theta
    near = near[keep]
    first, second = first[near], second[near]
    order = np.lexsort((second, first))
    return Triplets(d, first[order], second[order], delta_theta[keep][order])


def build_triplets(doublets: Doublets, window: PreselectionWindow) -> Triplets:
    """All chained doublet pairs with delta_theta <= max_delta_theta."""
    return _chain(doublets, window.max_delta_theta)
