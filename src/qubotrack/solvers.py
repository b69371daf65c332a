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
no n x n matrix is formed. Once per iteration, one vectorised pass over the
CSR labels every entry with its variable's group and position, scatters
the entries inside a group into a dense k x k block per group, and keeps
each group's outside entries in CSR order. A group's sub-problem is then
its block and the linear vector ``linear[group] + boundary``, the boundary
summed from those outside entries against the running assignment, so no
per-group ``Qubo`` is built. Exact enumeration scores all 2^k states of a
block with a state table cached per k. Since a sub-problem differs from
the full objective by a constant, the sequential (Gauss-Seidel) loop
scores a group's update as the change of the sub-problem objective, read
from the block in O(k^2), and skips a group whose sub-solve returns its
current bits. Every sum runs in the order the sparse objective sums it,
so the loop's values are bit for bit those of per-group sparse
sub-problems.

Exact sub-problems are not enumerated one call per group. Once per
iteration the groups of k <= 12 variables are enumerated together, a
chunk of 2^12 states (2^(12 - k) groups) at a time when the walk reaches
it, by stacked products that compute each group's slice as a single
enumeration computes it. A group keeps its batched answer, and is passed
over at once when that answer is its current bits, until an accepted
flip reaches one of its outside couplings; such a stale group re-reads
its boundary and re-scores its states against its block's quadratic
energies, which no flip changes. The short last group and k > 12 are
enumerated one at a time, and the VQE sub-solver is called once per
group.

Given an executor, the walk also solves VQE sub-problems ahead of itself
on another core. An iteration's sub-problems are cut at its starting bits
and handed to the executor from the last group back, one task at a time,
while the walk moves forward. When the walk reaches a
group, it takes the worker's answer if no accepted flip has reached the
group's outside couplings since then (the stale groups, the same
bookkeeping the batched exact sub-solves use), because the sub-problem it
would cut is then the same; any other group it solves itself at the
running bits. So the accepted updates are the sequential walk's, bit for
bit, however fast the worker runs.

Simulated annealing (:func:`solve_annealing`) is the classical baseline:
one single-flip Metropolis loop over the whole objective, with no
decomposition (:func:`solve_annealing_report` gives it a report). It
returns the bits a per-flip NumPy loop returns that draws each sweep's
flip indices with ``rng.integers(0, n, size=n)`` and its uniforms with
``rng.random(n)``, but pays none of that loop's per-call overhead: the
draws are replayed in bulk from the generator's raw PCG64 words by the
arithmetic NumPy itself applies to them (and by NumPy itself where that
arithmetic would redraw), a block of sweeps at a time. The loop reads
the signed field g_i = -delta_i once a proposal and compares it with
bounds in field units, each block's ``ln u`` (one ``np.log``) -+ 1e-12
times T, a band that covers the rounding of ``np.log`` and ``np.exp``;
within it ``u < np.exp(g_i / T)`` decides. The loop runs in Python on
Python scalars; only the field and the row update depend on the row
length. Short rows are Python lists of ``(j, b_ij)`` pairs; long ones
(hundreds of entries a row, as at high multiplicity) stay CSR arrays, and
an accepted flip applies its row with one NumPy scatter on a float64
field, so no Python object is made per coupling. Rejections change
nothing, so after a run of them one vectorised pass rejects the rest of
the block up to the next proposal it cannot reject, which skips the
frozen end of the schedule in bulk.
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

from .qubo import Assignment, Qubo, impacts, objective

EXACT_ENUMERATION_LIMIT = 24
_CHUNK_BITS = 16
_BATCH_BITS = 12  # a batched chunk of exact sub-solves scores 2^12 states
_REPLAY_PROPOSALS = 2 ** 16
_LOG_BAND = 1e-12  # |y - ln u| within which np.exp decides a proposal
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


def _impact_groups(qubo: Qubo, bits: Assignment, k: int) -> list[np.ndarray]:
    """Group variables by descending |impact| into runs of at most k.

    Indices inside a group are sorted ascending: the grouping is what the
    decomposition depends on, and a canonical in-group order keeps exact
    sub-solves (and their tie-breaks) aligned with the full problem.
    """
    if k < 1:
        raise ValueError("sub-problem size k must be >= 1")
    order = np.argsort(-np.abs(impacts(qubo, bits)), kind="stable")
    full = qubo.n - qubo.n % k
    groups = list(np.sort(order[:full].reshape(-1, k), axis=1))
    if full < qubo.n:
        groups.append(np.sort(order[full:]))
    return groups


@dataclass(frozen=True)
class _GroupSplit:
    """One iteration's groups cut out of the objective (:func:`_split_groups`)."""

    linear: np.ndarray
    groups: list[np.ndarray]
    order: np.ndarray    # the groups' variables, group after group
    group_of: np.ndarray  # a variable's group
    blocks: np.ndarray   # (groups, k, k): couplings inside a group, by position
    bounds: list[int]    # group g's outside entries are [bounds[g], bounds[g + 1])
    rows: np.ndarray     # an outside entry's position in its group
    cols: np.ndarray     # an outside entry's variable
    vals: np.ndarray     # an outside entry's coupling


def _split_groups(qubo: Qubo, groups: list[np.ndarray], k: int) -> _GroupSplit:
    """Cut every group's couplings out of the CSR in one vectorised pass.

    ``groups`` are :func:`_impact_groups`' runs: ascending indices, k in
    every group but the last. The rows are read group after group, each
    row's entries in column order. An entry whose column is in its row's
    group goes into that group's dense block; the others are kept in that
    order as the group's outside entries."""
    n = qubo.n
    order = np.concatenate(groups) if groups else np.zeros(0, dtype=np.intp)
    group_of = np.empty(n, dtype=np.intp)
    pos_of = np.empty(n, dtype=np.intp)
    group_of[order], pos_of[order] = np.divmod(np.arange(n), k)
    lengths = np.diff(qubo.indptr)[order]
    rows = np.repeat(order, lengths)
    # positions of the rows' entries in the CSR arrays, row after row
    entries = np.arange(len(rows)) + np.repeat(
        qubo.indptr[order] - np.cumsum(lengths) + lengths, lengths)
    cols, vals = qubo.indices[entries], qubo.data[entries]
    group = group_of[rows]
    inside = group_of[cols] == group
    blocks = np.zeros((len(groups), k, k))
    blocks[group[inside], pos_of[rows[inside]], pos_of[cols[inside]]] = vals[inside]
    outside = ~inside
    bounds = np.zeros(len(groups) + 1, dtype=np.intp)
    np.cumsum(np.bincount(group[outside], minlength=len(groups)), out=bounds[1:])
    return _GroupSplit(qubo.linear, groups, order, group_of, blocks, bounds.tolist(),
                       pos_of[rows[outside]], cols[outside], vals[outside])


def _restrict(split: _GroupSplit, g: int,
              bits: Assignment) -> tuple[np.ndarray, np.ndarray]:
    """Group g's sub-problem ``(a, B)`` with the outside assignment frozen.

    B is the group's dense block. ``a`` is the group's linear coefficients
    plus the boundary term: its outside entries summed against ``bits``, in
    CSR order. Minimising the sub-problem is equivalent to minimising the
    full objective with the outside variables fixed. Costs O(k * degree),
    independent of n."""
    indices = split.groups[g]
    m = len(indices)
    lo, hi = split.bounds[g], split.bounds[g + 1]
    boundary = np.bincount(split.rows[lo:hi],
                           weights=split.vals[lo:hi] * bits[split.cols[lo:hi]],
                           minlength=m)
    return split.linear[indices] + boundary, split.blocks[g, :m, :m].copy()


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
    chunk of 2^(``_BATCH_BITS`` - k) groups (2^``_BATCH_BITS`` states in
    all, so memory does not grow with n), their boundaries are summed by
    one bincount (each bin in CSR order, as :func:`_restrict` sums it) and
    all 2^k states of every group are scored by stacked products that
    compute each group's slice as :func:`solve_exact` computes it. A group
    in the walk's ``stale`` set, which an accepted flip has reached since
    (:func:`_reached`), re-reads its boundary with :func:`_restrict` and
    re-scores against its block's quadratic energies, which no flip
    changes. So every answer is :func:`solve_exact`'s on the running bits,
    bit for bit.
    """

    def __init__(self, split: _GroupSplit, k: int, stale: set[int]):
        self.split, self.k = split, k
        self.covered = len(split.order) // k  # the full groups come first
        self.per_chunk = 2 ** (_BATCH_BITS - k)
        self.table = _state_table(k)
        self.stale = stale  # cleared when a chunk is scored
        self.start = self.stop = 0

    def _enumerate(self, bits: Assignment) -> None:
        """Score every state of the next chunk's groups at ``bits``."""
        split, k, table = self.split, self.k, self.table
        start = self.start = self.stop
        stop = self.stop = min(start + self.per_chunk, self.covered)
        members = split.order[start * k:stop * k].reshape(-1, k)
        lo, hi = split.bounds[start], split.bounds[stop]
        keys = split.rows[lo:hi] + np.repeat(
            np.arange(0, (stop - start) * k, k), np.diff(split.bounds[start:stop + 1]))
        boundary = np.bincount(keys, weights=split.vals[lo:hi] * bits[split.cols[lo:hi]],
                               minlength=(stop - start) * k)
        self.linear = split.linear[members] + boundary.reshape(-1, k)
        self.half_quad = 0.5 * np.einsum("gsi,si->gs",
                                         np.matmul(table, split.blocks[start:stop]), table)
        energies = np.matmul(table, self.linear[:, :, None])[:, :, 0] + self.half_quad
        self.best = energies.argmin(axis=1).tolist()
        self.old = (bits[members] @ (1 << np.arange(k))).tolist()  # state indices
        self.stale.clear()

    def move(self, g: int, bits: Assignment):
        """``(a, B, old, new)`` of covered group g at the running ``bits``,
        or None when its exact sub-solve keeps its bits."""
        if g >= self.stop:
            self._enumerate(bits)
        i = g - self.start
        old, new = self.old[i], self.best[i]
        if g in self.stale:
            a, block = _restrict(self.split, g, bits)
            new = int(np.argmin(self.table @ a + self.half_quad[i]))
        elif new != old:
            a, block = self.linear[i], self.split.blocks[g]
        if new == old:
            return None
        return a, block, self.table[old], self.table[new]


def _reached(split: _GroupSplit, g: int, flipped: np.ndarray) -> list[int]:
    """The groups with an outside coupling to a variable of group g that an
    accepted update flipped (``flipped`` by position in the group): their
    boundary terms are no longer the ones cut before the update."""
    lo, hi = split.bounds[g], split.bounds[g + 1]
    return split.group_of[split.cols[lo:hi][flipped[split.rows[lo:hi]]]].tolist()


class _Speculation:
    """One iteration's sub-problems, cut at its starting bits, solved ahead
    of the walk on an executor's worker.

    Before the walk handles group g, an idle executor is handed the last
    group after g that no accepted flip has reached. One task at a time:
    a task waiting in the executor's queue could not be taken back by the
    walk. A submit that fails (a dead pool) ends the handing out, and
    :meth:`close` waits for every task, so none outlives the iteration.
    """

    def __init__(self, executor: Executor, subsolver: SubSolver,
                 problems: list[tuple[np.ndarray, np.ndarray]], entropy: tuple[int, int]):
        self.executor, self.subsolver = executor, subsolver
        self.problems, self.entropy = problems, entropy
        self.futures: dict[int, Future] = {}
        self.busy: Future | None = None
        self.next = len(problems) - 1  # the last group not handed out

    def answer(self, g: int, stale: set[int]) -> Assignment | None:
        """Hand an idle executor a group after g, then return the worker's
        answer for group g, or None when the walk must solve g itself: it
        was not handed out, an accepted flip has reached it since it was
        cut, or its task raised. A task raises for a sub-solver error or a
        dead worker alike; the walk's own call then decides which it was,
        as the sequential walk would."""
        while (self.busy is None or self.busy.done()) and self.next > g:
            h = self.next
            self.next -= 1
            if h in stale:
                continue
            try:
                self.busy = self.executor.submit(self.subsolver, *self.problems[h],
                                                 (*self.entropy, h))
            except RuntimeError:  # a broken or shut-down pool: the walk solves the rest
                self.next = g
                break
            self.futures[h] = self.busy
        future = self.futures.get(g)
        if future is None or g in stale:
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

    Per iteration the variables are regrouped by |impact|, the groups are
    cut out of the objective at once, and each group is solved by
    ``subsolver`` with the entropy ``(seed, iteration, group)``. Groups are
    solved sequentially (Gauss-Seidel), each seeing the running assignment,
    with a per-group guard that rejects objective-increasing updates. Stops
    early once an iteration changes nothing.

    With :func:`exact_subsolver`, the groups of k <= ``_BATCH_BITS``
    variables are not solved one call at a time: :class:`_ExactBatch`
    enumerates them a chunk at a time, a group keeps its batched answer
    while no flip reaches its boundary and is re-scored when one does, and
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
    current = objective(qubo, bits)
    trace = [current]
    subqubo_count = 0
    warning = None
    iterations_run = 0

    for iteration in range(max_iterations):
        changed = False
        groups = _impact_groups(qubo, bits, k)
        split = _split_groups(qubo, groups, k)
        subqubo_count += len(groups)
        stale: set[int] = set()  # groups an accepted flip reached since they were cut
        batch = (_ExactBatch(split, k, stale)
                 if subsolver is exact_subsolver and k <= _BATCH_BITS else None)
        covered = batch.covered if batch else 0
        spec = None
        if executor is not None and batch is None:
            spec = _Speculation(executor, subsolver,
                                [_restrict(split, g, bits) for g in range(len(groups))],
                                (seed, iteration))
        try:
            for si, indices in enumerate(groups):
                if si < covered:
                    move = batch.move(si, bits)
                    if move is None:
                        continue
                    a, block, old, new = move
                else:
                    old = bits[indices]
                    new = spec.answer(si, stale) if spec else None
                    if spec and si not in stale:
                        a, block = spec.problems[si]
                    else:
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
                    bits[indices] = new
                    current, changed = cand_obj, True
                    stale.update(_reached(split, si, old != new))
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
    """Yield the sweeps' draws in blocks ``(flips, uniforms)``, both (b, n)
    arrays: row s is exactly what ``rng.integers(0, n, size=n)`` and then
    ``rng.random(n)`` return for the block's sweep s.

    The draws are replayed from raw PCG64 words, read in blocks of an even
    number of sweeps (about ``_REPLAY_PROPOSALS`` proposals a block).
    NumPy draws each flip from a 32-bit half of a word, low half first,
    with the high half buffered until the next flip, and maps it to
    ``(half * n) >> 32`` (Lemire's multiply-shift); for n == 1 it draws
    nothing. Each uniform takes one whole word as ``(word >> 11) * 2**-53``.
    So a pair of sweeps reads ceil(n/2) flip words, n uniforms, floor(n/2)
    flip words and n uniforms; the block is reshaped to one row per pair,
    and the flip words' halves, split by a mask and a shift, are the pair's
    2n flips in order, so no half is buffered across a block boundary.
    Where NumPy would reject a half and draw again (its low 32 bits of
    ``half * n`` below ``2**32 mod n``), the block is abandoned: the
    generator is reset to the block start and the remaining sweeps come
    from ``rng.integers`` and ``rng.random`` themselves, one sweep a block.
    """
    halves_per_sweep = n if n > 1 else 0
    head, tail = -(-halves_per_sweep // 2), halves_per_sweep // 2
    width = halves_per_sweep + 2 * n  # raw words a pair of sweeps reads
    threshold = 2 ** 32 % max(n, 1)
    low, shift = np.uint64(2 ** 32 - 1), np.uint64(32)
    block = max(2, _REPLAY_PROPOSALS // max(n, 1) // 2 * 2)
    done = 0
    while done < sweeps:
        b = min(block, sweeps - done)
        pairs = -(-b // 2)
        start = rng.bit_generator.state
        words = rng.bit_generator.random_raw(pairs * width - b % 2 * (tail + n))
        if b % 2:  # an odd last sweep: pad its pair's second sweep, never read
            words = np.concatenate((words, np.zeros(tail + n, np.uint64)))
        words = words.reshape(pairs, width)
        uniforms = np.stack((words[:, head:head + n], words[:, width - n:]), axis=1)
        uniforms = (uniforms.reshape(2 * pairs, n)[:b] >> np.uint64(11)) * 2.0 ** -53
        if halves_per_sweep:
            flip_words = np.concatenate((words[:, :head], words[:, head + n:head + n + tail]),
                                        axis=1)
            halves = np.stack((flip_words & low, flip_words >> shift), axis=2)
            products = halves.reshape(2 * pairs, n)[:b] * np.uint64(n)
            if threshold and np.any((products & low) < threshold):
                rng.bit_generator.state = start
                break
            flips = (products >> shift).astype(np.intp)
        else:
            flips = np.zeros((b, n), np.intp)
        yield flips, uniforms
        done += b
    for _ in range(done, sweeps):
        yield rng.integers(0, n, size=(1, n)), rng.random((1, n))


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

    Per block of draws, one ``np.log`` of the uniforms and one product with
    each sweep's T give the bounds in field units: a proposal is accepted
    when g_i >= 0 or g_i > (ln u + ``_LOG_BAND``) T, rejected when
    g_i < (ln u - ``_LOG_BAND``) T, and otherwise decided as
    ``u < np.exp(g_i / T)``. A nonzero replayed u is at least 2**-53, so
    |ln u| < 37.5, where the band is over a hundred ulps, wider than the
    rounding of ``np.log`` and ``np.exp``. The product needs no margin:
    rounding is monotonic, so g_i < fl(x T) implies g_i / T <= x after
    rounding (likewise >) at any T > 0, subnormal or overflowing. So every
    decision is that test's. ``np.exp`` also decides every u below 2**-53
    (u == 0 is rejected once ``np.exp`` underflows), and a NaN field fails
    every test. After ``_LOOK_AHEAD_RUN * n`` rejections in a row one
    vectorised pass applies the reject test to the rest of the block at
    the unchanged state, resuming at the first proposal it keeps."""
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
            logs = np.log(uniforms)
            # a replayed u is 0 or at least 2**-53; np.exp decides any u below that
            bulk = uniforms >= 2.0 ** -53
            lower = (np.where(bulk, logs - _LOG_BAND, -np.inf) * temps[:, None]).ravel()
            upper = (np.where(bulk, logs + _LOG_BAND, np.inf) * temps[:, None]).ravel()
        flips, uniforms, temps = flips.ravel(), uniforms.ravel(), temps.tolist()
        pos = 0
        while pos < len(flips):
            # Python lists of the next segment only: the look-ahead skips
            # most of a block without reading it
            end = pos + _SEGMENT
            segment = zip(range(pos, end), flips[pos:end].tolist(), lower[pos:end].tolist(),
                          upper[pos:end].tolist())
            pos = end
            for p, i, lo, hi in segment:
                g = local[i]
                if not g < lo and (g >= 0.0 or g > hi
                                   or uniforms[p] < np.exp(g / temps[p // n])):
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
                    rejected = gains[flips[p + 1:]] < lower[p + 1:]
                    pos = p + 1 + (len(rejected) if rejected.all()
                                   else int(rejected.argmin()))
                    break
    return best


def solve_annealing(qubo: Qubo, schedule: AnnealSchedule | None = None,
                    seed: int = 0) -> Assignment:
    """Single-flip Metropolis with geometric cooling; returns the best state seen.

    Starts from all-ones. Each sweep proposes n flips at indices from
    ``rng.integers(0, n, size=n)`` and accepts flip i when its change
    delta = (1 - 2 T_i) * field_i is <= 0 or when ``rng.random(n)``'s
    matching uniform u is below ``np.exp(-delta / temperature)``. The
    draws are replayed in bulk from the generator's raw words
    (:func:`_sweep_draws`), and the loop (:func:`_anneal`) runs in Python:
    it keeps -delta, which is +-field_i exactly, decides each test against
    bounds from a bulk ``np.log`` of the uniforms times T and only near
    ``ln u`` by ``np.exp`` itself, an accepted flip adds or subtracts its
    coupling row times the signs of the bits (the operations of adding the
    row times +-1), runs of rejections are skipped by a vectorised
    look-ahead, and the best state is brought up to date from a log of the
    flips made since the last improvement instead of a copy per improvement.
    So the bits are those a per-flip NumPy loop over the generator returns.

    The starting fields sum each row in the order the CSR matvec sums it,
    by ``np.bincount`` over the CSR. Short rows (at most ``_SCATTER_ROW``
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
    coupling = np.bincount(qubo.entry_rows(), weights=vals, minlength=n)
    ones = np.ones(n)
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
