"""QUBO solvers: exact enumeration, impact-ordered sub-problem iteration,
and a simulated-annealing baseline.

Large problems are split into sub-problems of at most ``k`` variables by
sorting variables on the magnitude of their flip impact and cutting the
sorted list into consecutive groups. Each sub-problem keeps a boundary
term per variable (the summed interactions with the frozen outside
assignment folded into its linear coefficient), is solved by a pluggable
sub-solver, and the merged solution is accepted only if the global
objective does not increase.

The full objective stays a symmetric CSR (see :class:`~qubotrack.qubo.Qubo`);
no n x n matrix is formed. Each iteration computes the coupling field
sum_j b_ij t_j once (one CSR matvec), which gives the impacts
(1 - 2 t_i)(a_i + field_i), field_i the field's entry, and every
boundary term. One vectorised pass over the CSR scatters the couplings
inside each group into a dense k x k block; the others are read only
through the field. A group's sub-problem is its block and the linear
vector ``linear + (field - B t)``, so no per-group ``Qubo`` is built. An
accepted update adds each flipped variable's CSR row to the field
(subtracts it for a 1 -> 0 flip) and marks the groups the row reaches
stale: no other group's cut changes, bit for bit. Since a sub-problem
differs from the full objective by a constant, the sequential
(Gauss-Seidel) loop scores an update as the change of the sub-problem
objective, read from the block in O(k^2). The batched, per-group and
speculative cuts of a group are one computation and agree bit for bit;
they sum in another order than the sparse rows, so a linear vector can
differ from a row-order sum in its last bits.

Exact sub-problems of k <= 12 variables are enumerated together, a chunk
of 2^12 states (2^(12 - k) groups) at a time when the walk reaches it,
by stacked products that give each group's slice as a single enumeration
computes it, from a state table cached per k. A group keeps its batched
answer, passed over at once when it is the current bits, until it is
marked stale; it then re-reads its linear vector and re-scores its states
against its block's quadratic energies, which no flip changes. The short
last group and k > 12 are enumerated one at a time, and the VQE
sub-solver is called once per group.

Given an executor, the walk also solves VQE sub-problems ahead of itself
on another core: groups are cut at the running bits and handed out from
the last group back, one task at a time, while the walk moves forward.
The walk takes the worker's answer for a group that is not stale, whose
field entries and bits are then those it was cut at; a stale group is
not handed out, and the walk solves it itself. So the accepted updates
are the sequential walk's, bit for bit, however fast the worker runs.

Simulated annealing (:func:`solve_annealing`) is the classical baseline:
one single-flip Metropolis loop over the whole objective, with no
decomposition (:func:`solve_annealing_report` gives it a report). It
draws from NumPy a block of about 2^16 proposals at a time, the flip
indices by ``rng.integers(0, n, size=(b, n))`` and then the uniforms by
``rng.random((b, n))`` for b sweeps; above 32 768 variables a block is
one sweep, so the draws are those of one ``rng.integers(0, n, size=n)``
and one ``rng.random(n)`` call per sweep. The loop reads the signed field
g_i = -delta_i once a proposal and accepts when g_i >= 0 or g_i > T ln u,
with T ln u one ``np.log`` of the block's uniforms times each sweep's T.
The loop runs in Python on Python scalars; only the field and the row
update depend on the row length. Short rows are Python lists of
``(j, b_ij)`` pairs; long ones (hundreds of entries a row, as at high
multiplicity) stay CSR arrays, and an accepted flip applies its row with
one NumPy scatter on a float64 field, so no Python object is made per
coupling. Rejections change nothing, so after a run of them one
vectorised pass rejects the rest of the block up to the next proposal it
cannot reject, which skips the frozen end of the schedule in bulk.
"""

from __future__ import annotations

import array
import functools
import math
import numbers
from concurrent.futures import Executor, Future, wait
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .qubo import Assignment, Qubo, objective

EXACT_ENUMERATION_LIMIT = 24
_CHUNK_BITS = 16
_BATCH_BITS = 12  # a batched chunk of exact sub-solves scores 2^12 states
_BLOCK_PROPOSALS = 2 ** 16  # the annealer draws about this many proposals at a time
_LOOK_AHEAD_RUN = 4  # a look-ahead follows 4n rejections in a row
_SEGMENT = 128  # proposals of a block turned into Python lists at a time
_SCATTER_ROW = 32  # mean row length above which an accepted flip scatters its row
# (the two forms, set-up included, break even at 16 to 32 entries a row)

# sub-solver contract: (linear a, symmetric k x k block B with zero diagonal,
# entropy) -> bit vector. The entropy (seed, iteration, group) seeds the
# generator of a sub-solver that draws random numbers.
SubSolver = Callable[[np.ndarray, np.ndarray, tuple[int, int, int]], Assignment]


class ProblemSizeError(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def _state_table(n: int) -> np.ndarray:
    """Bits of the states 0 .. 2^n - 1, one row of floats each, variable 0
    in the least significant bit (read-only, cached per n)."""
    states = np.arange(2 ** n)
    table = ((states[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
    table.setflags(write=False)
    return table


def solve_exact(problem: Qubo | tuple[np.ndarray, np.ndarray]) -> Assignment:
    """Globally minimal assignment by full enumeration (n <= 24).

    ``problem`` is an objective or its dense form ``(a, B)``: the linear
    coefficients and the symmetric n x n coupling block with zero diagonal,
    as :func:`_restrict` cuts it. A state t scores ``t @ a + 0.5 * (t @ B) @ t``.
    States are enumerated as integers with variable 0 in the least
    significant bit, 2^16 at a time from a cached state table; ties resolve
    to the first (smallest) state index, so the all-zero assignment wins on
    a fully degenerate objective.
    """
    if isinstance(problem, Qubo):
        a = problem.linear
        b = np.zeros((problem.n, problem.n))
        b[problem.entry_rows(), problem.indices] = problem.data
    else:
        a, b = problem
    n = len(a)
    if n > EXACT_ENUMERATION_LIMIT:
        raise ProblemSizeError(
            f"exact enumeration limited to n <= {EXACT_ENUMERATION_LIMIT}, got {n}"
        )
    table = _state_table(min(n, _CHUNK_BITS))
    var_bits = np.arange(n)
    best_energy = np.inf
    best_state = 0
    for start in range(0, 2 ** n, len(table)):
        bits = table
        if n > _CHUNK_BITS:  # the chunk's high bits are those of its start
            bits = np.empty((len(table), n))
            bits[:, :_CHUNK_BITS] = table
            bits[:, _CHUNK_BITS:] = (start >> var_bits[_CHUNK_BITS:]) & 1
        energies = bits @ a + 0.5 * np.einsum("si,si->s", bits @ b, bits)
        local = int(np.argmin(energies))
        if energies[local] < best_energy:
            best_energy = float(energies[local])
            best_state = start + local
    return ((best_state >> var_bits) & 1).astype(np.int8)


def _impact_groups(qubo: Qubo, bits: Assignment, k: int,
                   field: np.ndarray) -> list[np.ndarray]:
    """Group variables by descending |impact| into runs of at most k; the
    impacts are (1 - 2 t_i)(a_i + field_i) at the coupling ``field`` of
    ``bits``: the change of the objective when t_i flips. Indices inside a
    group are sorted ascending: the grouping is what the decomposition
    depends on, and a canonical in-group order keeps exact sub-solves (and
    their tie-breaks) aligned with the full problem."""
    if k < 1:
        raise ValueError("sub-problem size k must be >= 1")
    order = np.argsort(-np.abs(np.where(bits, -1.0, 1.0) * (qubo.linear + field)),
                       kind="stable")
    full = qubo.n - qubo.n % k
    groups = list(np.sort(order[:full].reshape(-1, k), axis=1))
    if full < qubo.n:
        groups.append(np.sort(order[full:]))
    return groups


@dataclass(frozen=True)
class _GroupSplit:
    """One iteration's groups cut out of the objective (:func:`_split_groups`)."""

    linear: np.ndarray
    field: np.ndarray    # the coupling field at the running bits (:func:`_update_field`)
    groups: list[np.ndarray]
    order: np.ndarray    # the groups' variables, group after group
    group_of: np.ndarray  # a variable's group
    blocks: np.ndarray   # (groups, k, k): couplings inside a group, by position
    stale: np.ndarray    # a group an accepted flip reached since it was last cut


def _split_groups(qubo: Qubo, groups: list[np.ndarray], k: int, field: np.ndarray,
                  rows: np.ndarray) -> _GroupSplit:
    """Cut every group's dense block out of the CSR in one vectorised pass.

    ``groups`` are :func:`_impact_groups`' runs: ascending indices, k in
    every group but the last; ``rows`` is :meth:`~qubotrack.qubo.Qubo.entry_rows`.
    The couplings to the rest are read only through ``field``."""
    n = qubo.n
    order = np.concatenate(groups) if groups else np.zeros(0, dtype=np.intp)
    group_of = np.empty(n, dtype=np.int32)  # half the bytes to gather per entry
    pos_of = np.empty(n, dtype=np.intp)
    group_of[order], pos_of[order] = np.divmod(np.arange(n), k)
    inside = np.flatnonzero(group_of[rows] == group_of[qubo.indices])
    row, col = rows[inside], qubo.indices[inside]
    blocks = np.zeros((len(groups), k, k))
    blocks[group_of[row], pos_of[row], pos_of[col]] = qubo.data[inside]
    return _GroupSplit(qubo.linear, field, groups, order, group_of, blocks,
                       np.zeros(len(groups), dtype=bool))


def _linear_terms(split: _GroupSplit, members: np.ndarray, blocks: np.ndarray,
                  bits: Assignment) -> np.ndarray:
    """Linear vectors a_i + (field_i - (B t)_i) of ``members`` (one group's
    variables, or a (groups, k) stack) with their ``blocks``: the field less
    the block's own part is the boundary term. Each row of B t is summed left
    to right, so a group's vector has the same bits alone or stacked."""
    own = np.add.accumulate(blocks * bits[members][..., None, :], axis=-1)[..., -1]
    return split.linear[members] + (split.field[members] - own)


def _restrict(split: _GroupSplit, g: int,
              bits: Assignment) -> tuple[np.ndarray, np.ndarray]:
    """Group g's sub-problem ``(a, B)`` with the outside assignment frozen.

    B is the group's dense block, ``a`` its linear coefficients plus the
    boundary term read off the field (:func:`_linear_terms`). Minimising
    the sub-problem is minimising the full objective with the outside
    variables fixed. Costs O(k^2), independent of n."""
    m = len(split.groups[g])
    block = split.blocks[g, :m, :m]
    return _linear_terms(split, split.groups[g], block, bits), block.copy()


def _update_field(qubo: Qubo, bounds: list[int], split: _GroupSplit, indices: np.ndarray,
                  old: Assignment, new: Assignment) -> None:
    """Keep the split's field current after the bits of ``indices`` went
    from ``old`` to ``new`` (one at least): add each flipped variable's
    CSR row ``[bounds[i], bounds[i + 1])`` (subtract it for a 1 -> 0 flip;
    its columns are distinct, so the fancy-index add is exact) and mark the
    groups the rows reach stale. No other group's cut has changed."""
    reached = []
    for i, was, bit in zip(indices.tolist(), old.tolist(), new.tolist()):
        if was != bit:
            lo, hi = bounds[i], bounds[i + 1]
            cols = qubo.indices[lo:hi]
            if bit:
                split.field[cols] += qubo.data[lo:hi]
            else:
                split.field[cols] -= qubo.data[lo:hi]
            reached.append(cols)
    split.stale[split.group_of[np.concatenate(reached)]] = True


def _block_objective(a: np.ndarray, block: np.ndarray, bits: Assignment) -> float:
    """:func:`~qubotrack.qubo.objective` of the sub-problem ``(a, B)``.

    Each row of B t is summed left to right, as the CSR matvec sums a row
    (the zeros of B add nothing), and copied out as a contiguous vector,
    as the matvec returns it (a strided one takes another BLAS dot kernel
    that adds in another order). So the value is the sparse sub-problem's
    bit for bit, for any k."""
    t = np.asarray(bits, dtype=float)
    field = np.add.accumulate(block * t, axis=1)[:, -1].copy()
    return float(a @ t + 0.5 * t @ field)


class _ExactBatch:
    """Exact sub-solves of one iteration's full groups, enumerated together.

    Covers the groups of exactly k <= ``_BATCH_BITS`` variables; the short
    last group is left to :func:`solve_exact`. When the walk reaches a
    chunk of 2^(``_BATCH_BITS`` - k) groups (2^``_BATCH_BITS`` states, so
    memory does not grow with n), their linear vectors are cut at once, as
    :func:`_restrict` cuts them, and all 2^k states of every group are
    scored by stacked products that give each group's slice as
    :func:`solve_exact` computes it. A group marked stale since its chunk
    was scored is cut again by :func:`_restrict` and re-scored against its
    block's quadratic energies, which no flip changes. So every answer is
    :func:`solve_exact`'s on the running bits, bit for bit.
    """

    def __init__(self, split: _GroupSplit, k: int):
        self.split, self.k = split, k
        self.covered = len(split.order) // k  # the full groups come first
        self.per_chunk = 2 ** (_BATCH_BITS - k)
        self.table = _state_table(k)
        self.start = self.stop = 0

    def _enumerate(self, bits: Assignment) -> None:
        """Score every state of the next chunk's groups at ``bits``."""
        split, k, table = self.split, self.k, self.table
        start = self.start = self.stop
        stop = self.stop = min(start + self.per_chunk, self.covered)
        members = split.order[start * k:stop * k].reshape(-1, k)
        self.linear = _linear_terms(split, members, split.blocks[start:stop], bits)
        self.half_quad = 0.5 * np.einsum("gsi,si->gs",
                                         np.matmul(table, split.blocks[start:stop]), table)
        energies = np.matmul(table, self.linear[:, :, None])[:, :, 0] + self.half_quad
        self.best = energies.argmin(axis=1).tolist()
        self.old = (bits[members] @ (1 << np.arange(k))).tolist()  # state indices
        split.stale[:] = False

    def move(self, g: int, bits: Assignment):
        """``(a, B, old, new)`` of covered group g at the running ``bits``,
        or None when its exact sub-solve keeps its bits."""
        if g >= self.stop:
            self._enumerate(bits)
        i = g - self.start
        old, new = self.old[i], self.best[i]
        if self.split.stale[g]:
            a, block = _restrict(self.split, g, bits)
            new = int(np.argmin(self.table @ a + self.half_quad[i]))
        elif new != old:
            a, block = self.linear[i], self.split.blocks[g]
        if new == old:
            return None
        return a, block, self.table[old], self.table[new]


class _Speculation:
    """One iteration's sub-problems solved ahead of the walk on an
    executor's worker.

    Before the walk handles group g, an idle executor is handed the last
    group after g that no accepted flip has reached, cut at the running
    bits (so at the iteration's starting bits). One task at a time: a task
    waiting in the executor's queue could not be taken back by the walk.
    A submit that fails (a dead pool) ends the handing out, and
    :meth:`close` waits for every task, so none outlives the iteration.
    """

    def __init__(self, executor: Executor, subsolver: SubSolver, split: _GroupSplit,
                 entropy: tuple[int, int]):
        self.executor, self.subsolver = executor, subsolver
        self.split, self.entropy = split, entropy
        self.futures: dict[int, Future] = {}
        self.busy: Future | None = None
        self.next = len(split.groups) - 1  # the last group not handed out

    def answer(self, g: int, bits: Assignment) -> Assignment | None:
        """Hand an idle executor a group after g, then return the worker's
        answer for group g, or None when the walk must solve g itself: it
        was not handed out, an accepted flip has reached it since it was
        cut, or its task raised. A task raises for a sub-solver error or a
        dead worker alike; the walk's own call then decides which it was,
        as the sequential walk would."""
        while (self.busy is None or self.busy.done()) and self.next > g:
            h = self.next
            self.next -= 1
            if self.split.stale[h]:
                continue
            try:
                self.busy = self.executor.submit(self.subsolver,
                                                 *_restrict(self.split, h, bits),
                                                 (*self.entropy, h))
            except RuntimeError:  # a broken or shut-down pool: the walk solves the rest
                self.next = g
                break
            self.futures[h] = self.busy
        future = self.futures.get(g)
        if future is None or self.split.stale[g]:
            return None
        try:
            return np.asarray(future.result(), dtype=np.int8)
        except Exception:  # solved again by the walk, which reports what fails there
            return None

    def close(self) -> None:
        for future in self.futures.values():
            future.cancel()
        wait(self.futures.values())


@dataclass
class SolveReport:
    best_assignment: Assignment
    best_objective: float
    iterations_run: int
    subqubo_count: int
    objective_trace: list[float]
    warning: str | None = None

    def to_dict(self) -> dict:
        return {
            "best_assignment": "".join(str(int(v)) for v in self.best_assignment),
            "best_objective": self.best_objective,
            "iterations_run": self.iterations_run,
            "subqubo_count": self.subqubo_count,
            "objective_trace": self.objective_trace,
            "warning": self.warning,
        }


def exact_subsolver(a: np.ndarray, block: np.ndarray,
                    entropy: tuple[int, int, int]) -> Assignment:
    return solve_exact((a, block))


def solve_iterative(qubo: Qubo, subsolver: SubSolver, k: int = 7,
                    max_iterations: int = 10, seed: int = 0,
                    executor: Executor | None = None) -> SolveReport:
    """Iterative impact-ordered decomposition, starting from all-ones.

    Per iteration the coupling field is computed once and kept current
    through the accepted updates, the variables are regrouped by |impact|,
    the groups' blocks are cut out of the objective at once, and each group
    is solved by ``subsolver`` with the entropy ``(seed, iteration, group)``.
    Groups are solved sequentially (Gauss-Seidel), each seeing the running
    assignment, with a per-group guard that rejects objective-increasing
    updates. Stops early once an iteration changes nothing.

    With :func:`exact_subsolver`, the groups of k <= ``_BATCH_BITS``
    variables are not solved one call at a time: :class:`_ExactBatch`
    enumerates them a chunk at a time, a group keeps its batched answer
    until a flipped variable's row reaches it and is re-scored then, and
    a group whose answer is its current bits is passed over at once. The
    report is bit for bit the one per-group :func:`solve_exact` calls give.

    With an ``executor`` (and any sub-solver but the batched exact one),
    :class:`_Speculation` solves sub-problems ahead of the walk, one at a
    time on the executor; the report is bit for bit the one without it.
    ``subsolver`` must then be picklable for a process pool. No task
    outlives the call.

    ``objective_trace[0]`` is the starting objective; one entry is appended
    per completed iteration, and the trace is non-increasing by
    construction. A sub-solver exception aborts the iteration and returns
    the last accepted assignment with ``warning`` set; any other exception
    propagates. A task that raised on a worker counts only through the
    walk's own call of the sub-solver on that group.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")

    bits = np.ones(qubo.n, dtype=np.int8)
    rows, bounds = qubo.entry_rows(), qubo.indptr.tolist()  # for the splits and updates
    field = qubo.coupling_field(bits, rows)
    ones = np.ones(qubo.n)
    current = float(qubo.linear @ ones + 0.5 * ones @ field)  # objective(qubo, bits)
    trace = [current]
    subqubo_count = 0
    warning = None
    iterations_run = 0

    for iteration in range(max_iterations):
        changed = False
        if iteration:
            field = qubo.coupling_field(bits, rows)
        groups = _impact_groups(qubo, bits, k, field)
        split = _split_groups(qubo, groups, k, field, rows)
        subqubo_count += len(groups)
        batch = (_ExactBatch(split, k)
                 if subsolver is exact_subsolver and k <= _BATCH_BITS else None)
        covered = batch.covered if batch else 0
        spec = None
        if executor is not None and batch is None:
            spec = _Speculation(executor, subsolver, split, (seed, iteration))
        try:
            for si, indices in enumerate(groups):
                if si < covered:
                    move = batch.move(si, bits)
                    if move is None:
                        continue
                    a, block, old, new = move
                else:
                    old = bits[indices]
                    new = spec.answer(si, bits) if spec else None
                    a, block = _restrict(split, si, bits)
                    if new is None:
                        try:
                            new = np.asarray(subsolver(a, block, (seed, iteration, si)),
                                             dtype=np.int8)
                        except Exception as exc:  # keep the last accepted state
                            warning = f"sub-solver failed in iteration {iteration}: {exc}"
                            break
                    if np.array_equal(new, old):
                        continue
                # the sub-problem differs from the full objective by a
                # constant, so its change is the global change
                cand_obj = current + (_block_objective(a, block, new)
                                      - _block_objective(a, block, old))
                if cand_obj <= current:
                    _update_field(qubo, bounds, split, indices, old, new)
                    bits[indices] = new
                    current, changed = cand_obj, True
        finally:
            if spec:
                spec.close()
        iterations_run = iteration + 1
        trace.append(current)
        if warning is not None or not changed:
            break

    return SolveReport(best_assignment=bits, best_objective=current,
                       iterations_run=iterations_run, subqubo_count=subqubo_count,
                       objective_trace=trace, warning=warning)


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling schedule; one sweep = n flip proposals."""

    t_initial: float = 2.0
    t_final: float = 1e-3
    sweeps: int = 300

    def __post_init__(self):
        if not (math.isfinite(self.t_initial) and math.isfinite(self.t_final)):
            raise ValueError(f"temperatures must be finite, got {self.t_initial!r} "
                             f"and {self.t_final!r}")
        if self.t_initial <= 0 or self.t_final <= 0:
            raise ValueError("temperatures must be positive")
        if isinstance(self.sweeps, bool) or not isinstance(self.sweeps, numbers.Integral):
            raise ValueError(f"sweeps must be an integer, got {self.sweeps!r}")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        with np.errstate(over="ignore"):
            temperatures = self.temperatures()
        if not np.all((temperatures > 0) & (temperatures < np.inf)):
            raise ValueError(f"cooling from {self.t_initial!r} to {self.t_final!r} in "
                             f"{self.sweeps} sweeps leaves the finite positive doubles")

    def temperatures(self) -> np.ndarray:
        if self.sweeps == 1:
            return np.array([self.t_initial])
        ratio = (self.t_final / self.t_initial) ** (1.0 / (self.sweeps - 1))
        return self.t_initial * ratio ** np.arange(self.sweeps)


def _sweep_draws(rng: np.random.Generator, n: int,
                 sweeps: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the sweeps' draws in blocks ``(flips, uniforms)``: for a block
    of b sweeps, ``rng.integers(0, n, size=(b, n))`` and then
    ``rng.random((b, n))``, row s for the block's sweep s. A block is
    ``_BLOCK_PROPOSALS // n`` sweeps (at least one; the last block takes
    what is left), so above ``_BLOCK_PROPOSALS // 2`` variables it is one
    sweep, drawn as ``rng.integers(0, n, size=n)`` and ``rng.random(n)``."""
    block = max(1, _BLOCK_PROPOSALS // n)
    for done in range(0, sweeps, block):
        b = min(block, sweeps - done)
        yield rng.integers(0, n, size=(b, n)), rng.random((b, n))


def _anneal(local: list[float] | array.array, rows, current: float,
            temperatures: np.ndarray, rng: np.random.Generator) -> list[int]:
    """The Metropolis loop of :func:`solve_annealing` from all-ones: the
    fields ``local`` (a_i + sum_j b_ij), the coupling rows and the starting
    objective ``current``. Returns the best state seen.

    ``local`` holds the signed field g_i = -delta_i, updated in place:
    field_i while bit i is 1, -field_i while it is 0. An accepted flip
    negates g_i, subtracts it from ``current`` and applies its row as
    g_j -= s_j b_ij if bit i was 1 (+= if 0), s_j = +-1 the sign of bit j,
    so g_j stays exactly +-field_j. Short rows: ``local`` is a list and
    ``rows`` a list of each row's ``(j, b_ij)`` pairs, applied one entry at
    a time. Long rows: ``local`` is an ``array('d')`` and ``rows`` the CSR
    arrays ``(indptr, indices, data)``, applied by one NumPy scatter on a
    float64 view of ``local`` (a row's columns are distinct).

    Per block of draws, one ``np.log`` of the uniforms times each sweep's T
    gives the floor T ln u in field units, and a proposal is accepted when
    g_i >= 0 or g_i > T ln u: the Metropolis test u < exp(g_i / T) up to
    the rounding of the log and the product. A u of 0 gives -inf, which any
    finite field passes, and a NaN field fails both tests. After
    ``_LOOK_AHEAD_RUN * n`` rejections in a row one vectorised pass rejects,
    at the unchanged state, every proposal of the rest of the block that
    fails both tests, resuming at the first proposal it keeps."""
    n = len(local)
    scatter = isinstance(rows, tuple)
    if scatter:
        indptr, indices, data = rows
        bounds = indptr.tolist()
        gain = np.frombuffer(local)  # shares local's memory
    sign = np.ones(n) if scatter else [1.0] * n  # +1 while bit j is 1, -1 while 0
    best = [1] * n
    best_obj = current
    since_best: list[int] = []  # flips made since ``best`` was last the state
    run_limit = _LOOK_AHEAD_RUN * n
    done = run = 0
    for flips, uniforms in _sweep_draws(rng, n, len(temperatures)):
        b = len(flips)
        temps = temperatures[done:done + b]
        done += b
        with np.errstate(divide="ignore", over="ignore"):
            floors = (np.log(uniforms) * temps[:, None]).ravel()
        flips = flips.ravel()
        pos = 0
        while pos < len(flips):
            # Python lists of the next segment only: the look-ahead skips
            # most of a block without reading it
            end = pos + _SEGMENT
            segment = zip(range(pos, end), flips[pos:end].tolist(), floors[pos:end].tolist())
            pos = end
            for p, i, floor in segment:
                g = local[i]
                if g >= 0.0 or g > floor:
                    if scatter:
                        cols = indices[bounds[i]:bounds[i + 1]]
                        if sign[i] > 0.0:
                            gain[cols] -= sign[cols] * data[bounds[i]:bounds[i + 1]]
                        else:
                            gain[cols] += sign[cols] * data[bounds[i]:bounds[i + 1]]
                    elif sign[i] > 0.0:
                        for j, c in rows[i]:
                            local[j] -= sign[j] * c
                    else:
                        for j, c in rows[i]:
                            local[j] += sign[j] * c
                    local[i] = -g
                    sign[i] = -sign[i]
                    since_best.append(i)
                    current -= g
                    if current < best_obj:
                        best_obj = current
                        for j in since_best:
                            best[j] ^= 1
                        since_best.clear()
                    run = 0
                elif (run := run + 1) == run_limit:
                    # the reject test on the rest of the block at the
                    # current state; resume at the first proposal it keeps
                    run = 0
                    gains = gain if scatter else np.array(local)
                    ahead = gains[flips[p + 1:]]
                    rejected = ~((ahead >= 0.0) | (ahead > floors[p + 1:]))
                    pos = p + 1 + (len(rejected) if rejected.all()
                                   else int(rejected.argmin()))
                    break
    return best


def solve_annealing(qubo: Qubo, schedule: AnnealSchedule | None = None,
                    seed: int = 0) -> Assignment:
    """Single-flip Metropolis with geometric cooling; returns the best state seen.

    Starts from all-ones. Each sweep proposes n flips at indices from
    ``rng.integers`` and accepts flip i when its change
    delta = (1 - 2 T_i) * field_i is <= 0 or when -delta > T ln u, u the
    flip's uniform from ``rng.random``. The draws come a block of sweeps
    at a time (:func:`_sweep_draws`): about 2^16 proposals a block, one
    sweep a block above 32 768 variables, where the stream is that of one
    ``rng.integers(0, n, size=n)`` and one ``rng.random(n)`` call a sweep.
    The loop (:func:`_anneal`) runs in Python: it keeps -delta, which is
    +-field_i exactly, compares it with the block's ``np.log(u)`` times T,
    an accepted flip adds or subtracts its coupling row times the signs of
    the bits (the operations of adding the row times +-1), runs of
    rejections are skipped by a vectorised look-ahead, and the best state
    is brought up to date from a log of the flips made since the last
    improvement instead of a copy per improvement. So the bits are those a
    per-flip NumPy loop over the same block draws returns.

    The starting fields are the coupling field at all-ones
    (:meth:`~qubotrack.qubo.Qubo.coupling_field`). Short rows (at most ``_SCATTER_ROW``
    entries a row on average, as at low multiplicity) are applied entry by
    entry from Python lists; longer ones with one NumPy scatter each, so
    no Python object is built per entry.

    A coefficient that is not finite raises ``ValueError``.
    """
    schedule = schedule or AnnealSchedule()
    linear, indptr, cols, vals = qubo.linear, qubo.indptr, qubo.indices, qubo.data
    bad = np.flatnonzero(~np.isfinite(linear))
    if bad.size:
        raise ValueError(f"annealing needs finite coefficients: linear coefficient "
                         f"{bad[0]} is {linear[bad[0]]}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
        pair = sorted((row, int(cols[bad[0]])))
        raise ValueError(f"annealing needs finite coefficients: coupling "
                         f"{tuple(pair)} is {vals[bad[0]]}")
    n = qubo.n
    if n == 0:
        return np.zeros(0, dtype=np.int8)
    ones = np.ones(n)
    coupling = qubo.coupling_field(ones)
    current = float(linear @ ones + 0.5 * ones @ coupling)  # objective(qubo, ones)
    local = linear + coupling  # a_i + sum_j b_ij T_j at T = ones
    if len(vals) > _SCATTER_ROW * n:
        local, rows = array.array("d", local.tobytes()), (indptr, cols, vals)
    else:
        bounds, cols, vals = indptr.tolist(), cols.tolist(), vals.tolist()
        local = local.tolist()
        rows = [list(zip(cols[lo:hi], vals[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    best = _anneal(local, rows, current, schedule.temperatures(), np.random.default_rng(seed))
    return np.array(best, dtype=np.int8)


def solve_annealing_report(qubo: Qubo, seed: int = 0) -> SolveReport:
    """:func:`solve_annealing` of the whole objective at the default schedule,
    as one iteration over one problem; ``best_objective`` is recomputed from
    the returned bits, and the trace runs from the all-ones start to it."""
    bits = solve_annealing(qubo, AnnealSchedule(), seed=seed)
    best = objective(qubo, bits)
    start = objective(qubo, np.ones(qubo.n, dtype=np.int8))
    return SolveReport(best_assignment=bits, best_objective=best, iterations_run=1,
                       subqubo_count=1, objective_trace=[start, best])
