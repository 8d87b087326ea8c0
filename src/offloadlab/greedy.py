"""Greedy improvement of per-task offload ratios.

Every task starts at the same offload ratio.  Each round picks the
still-adjustable task that is currently the most expensive (ties go to the
lowest index) and nudges its ratio one step toward full offload.  The run
stops at the first bump that fails to lower the bumped task's energy and
undoes it, so the returned vector is always the best one evaluated.

Every task walks the same ladder of ratios: `init_ratio`, then repeated
``+ step`` until a ratio within `_SNAP` of 1.0 is pinned at exactly 1.0.
Energy is affine in each ratio, so one tasks x levels matrix holds every
energy the run can visit.  A bump changes one energy, so it lowers the
exact system total iff the task's next energy is below its current one:
termination is a per-task float compare and needs no sum.  Up to and
including its first non-improving bump, a task's energies strictly fall,
so the greedy's picks are a merge of the per-task ladders in
``(-energy, flat index)`` order, and the run is cut at the first
non-improving pick F (saturated) or where the picks run out (converged).
A run visits at most tasks x levels cells, which `MAX_LADDER_CELLS` caps:
`GreedyConfig.ladder` builds the ladder and checks its length against it.

Where the run ends is found by a threshold, not a sort.  A task has at most
one failing cell, so F is the failing cell of highest energy e_F, the
lowest task on a tie; a task's final level is the count of its improving
cells above e_F, or equal to e_F in a lower task.  Most tasks never leave
their start: one whose start energy is below that of a task whose first
bump fails keeps it, so only the other tasks' ladder rows are built.
`optimize_packed` runs this on many scenarios of one size at once, each
equal group of consecutive tasks on its own, and `optimize` is a batch of
one.

The trace is one stream, `OffloadSolution.trace`, made each time it is
read and kept nowhere: the whole matrix is built from the endpoints, and
the picks, their totals and the CSV rows follow in chunks of `_ROWS`, each
written as it is made, so a trace's memory grows with the ladder, not with
its bumps.  The picks are sorted out a band of energies at a time
(`_bands`): pivots drawn from the kept cells cut them by value, so equal
energies share a band, and each band is sorted with one default argsort,
and a stable one after it only where two keys tie (`_stable_argsort`).

Every total, `total_energy` and the trace's alike, is the correctly rounded
exact sum of that state's per-task energies: what `math.fsum` returns, or
inf where that sum passes the float range.  The trace totals are worked out
as the trace streams, so runs that only want the ratios never pay for them.
They are exact float64 digit sums, rounded once: every energy is split at
fixed bit boundaries into integer-valued float64 digits (Rump, Ogita &
Oishi, SIAM J. Sci. Comput. 2008), small enough that a `cumsum` of each
digit over the bumps is exact, and each state's digits are rounded as
`math.fsum` rounds its partials (Shewchuk, DCG 1997).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .features import write_chunks
from .model import Scenario, energy_at, task_energy_endpoints

TERMINATION_CONVERGED = "converged"    # every ratio pinned at 1.0, nothing left to adjust
TERMINATION_SATURATED = "saturated"    # a bump failed to lower its task's energy

_SNAP = 1e-12  # ratios this close to 1.0 are pinned exactly
# tasks x ratio levels one run may hold; at the cap (2,000 x 2,500) a run
# peaks near 80 MB in `optimize_packed` and 45 MB writing its trace
MAX_LADDER_CELLS = 5_000_000
_CHUNK = 4096  # bumps whose digit sums are held at once, fewer past 4 digits
_BAND = 1 << 15  # kept cells above which a band of picks is cut, ties aside
_ROWS = 1 << 14  # trace rows made and written at once


@dataclass(frozen=True)
class GreedyConfig:  # where every task's ratio ladder starts, and its step
    init_ratio: float = 0.5
    step: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.init_ratio <= 1.0:
            raise ValueError("init_ratio must lie in [0, 1]")
        if not 0.0 < self.step <= 1.0:
            raise ValueError("step must lie in (0, 1]")

    def ladder(self, n_tasks: int) -> np.ndarray:
        """The ratios every task walks; ValueError when `n_tasks` ladders of
        them pass `MAX_LADDER_CELLS`."""
        most = MAX_LADDER_CELLS // max(n_tasks, 1)
        rs = _ladder(float(self.init_ratio), self.step, most)
        if len(rs) > most:
            raise ValueError(
                f"greedy: {n_tasks} tasks x more than {most} ratio levels is over the cap "
                f"of {MAX_LADDER_CELLS} cells; raise greedy.step or init_ratio")
        return rs


@dataclass(frozen=True)
class OffloadSolution:
    offload_ratios: np.ndarray
    per_task_energy: np.ndarray
    total_energy: float
    termination: str
    evaluations: int  # states the run visited: the start, then one per bump
    ladder: np.ndarray = field(repr=False)  # the ratios every task walks
    endpoints: tuple[np.ndarray, np.ndarray] = field(repr=False)  # per-task energy at l=0, l=1

    @property
    def ladder_energy(self) -> np.ndarray:
        """(tasks, levels): every energy in reach, built at each read, a
        block of about `_CHUNK` cells at a time, so that its build holds no
        second matrix."""
        local, offload = self.endpoints
        energy = np.empty((len(local), len(self.ladder)))
        rows = max(1, _CHUNK // len(self.ladder))
        for lo in range(0, len(local), rows):
            energy[lo:lo + rows] = energy_at(local[lo:lo + rows, None],
                                             offload[lo:lo + rows, None], self.ladder)
        return energy

    def trace(self):
        """Yield the trace as (totals, tasks) chunks: the system total after
        each evaluation and the task bumped just before it, -1 for the
        first.  Each chunk of picks is summed and yielded as it is sorted
        out, so no array of the whole run is held."""
        energy = self.ladder_energy
        count = self.evaluations - 1
        start, after = _exact_totals(energy, count)
        yield start, np.array([-1])
        for bumps in _picks(energy, count):
            yield after(bumps), bumps // energy.shape[1]

    @property
    def trace_totals(self) -> np.ndarray:
        """System total after each evaluation: the stream's totals, joined."""
        return np.concatenate([totals for totals, _ in self.trace()])

    @property
    def trace_picks(self) -> np.ndarray:
        """Task bumped just before each evaluation, -1 for the first: the
        stream's tasks, joined."""
        return np.concatenate([tasks for _, tasks in self.trace()])


def _grains(cells: np.ndarray, terms: int) -> list[int]:
    """Grains of the digits that split every finite cell exactly, top digit
    first, so that sums of `terms` digits stay exact.

    Every |cell| is below 2**top and a multiple of 2**lsb, the last bit of
    the least nonzero one.  Digit j counts units of
    ``max(top - (j + 1) * W, lsb)`` and is below 2**W in magnitude, with
    ``W = 52 - ceil(log2(terms + 1))``, so every sum of `terms` digits is
    an integer below 2**52: exact in float64.
    """
    tiny = min(np.min(cells, where=cells > 0.0, initial=np.inf),
               -np.max(cells, where=cells < 0.0, initial=-np.inf))
    if tiny == np.inf:  # all zeros
        return [0]
    top = int(np.frexp(max(cells.max(), -cells.min()))[1])
    lsb = max(int(np.frexp(tiny)[1]) - 53, -1074)
    width = 52 - terms.bit_length()
    return [max(top - width * j, lsb) for j in range(1, 1 - (lsb - top) // width)]


def _split(values: np.ndarray, grains: list[int]) -> np.ndarray:
    """(digits, values) integer-valued floats: row j counts the units of
    2**grains[j] in each value; truncation leaves an exact remainder."""
    digits = np.empty((len(grains), len(values)))
    rest = values
    for digit, grain in zip(digits, grains):
        np.trunc(np.ldexp(rest, -grain), out=digit)
        rest = rest - np.ldexp(digit, grain)
    return digits


def _carry(sums: np.ndarray, grains: list[int]) -> None:
    """Move each digit's whole units of the grain above up, from the last
    digit, so that every digit but the first is nonnegative and below one
    unit of the digit above it."""
    for j in range(len(grains) - 1, 0, -1):
        unit = 2.0 ** (grains[j - 1] - grains[j])
        up = np.floor(sums[j] / unit)
        sums[j] -= up * unit
        sums[j - 1] += up


def _round(sums: np.ndarray, grains: list[int]) -> np.ndarray:
    """``sum_j sums[j] * 2**grains[j]`` of each column of the integer-valued
    `sums`, whose totals are nonnegative, correctly rounded, or inf past
    the float range.

    After the carries every digit is nonnegative, the first too since the
    total is, and the digits scaled back do not overlap, so `math.fsum`'s
    last step rounds them: add them from the top until one rounds, then
    round a tie up when a nonzero digit is left below.  A scaled digit or
    sum past the float range is inf, and so is the total, since the digits
    below only add to it.
    """
    sums = sums.copy()
    _carry(sums, grains)
    with np.errstate(over="ignore", invalid="ignore"):
        hi = sums[0] * 2.0 ** grains[0]
        lo = np.zeros_like(hi)  # hi + lo: the digits added so far, exactly
        below = np.zeros(hi.shape, dtype=bool)  # a nonzero digit under the one that rounded
        for digit, grain in zip(sums[1:], grains[1:]):
            exact = lo == 0.0
            below |= ~exact & (digit != 0.0)
            part = np.where(exact, digit * 2.0 ** grain, 0.0)
            total = hi + part
            lo += part - (total - hi)
            hi = total
        doubled = 2.0 * lo  # hi + lo half-way between hi and hi + doubled
        up = hi + doubled
        return np.where(below & (lo > 0.0) & (up - hi == doubled), up, hi)


def _exact_totals(energy: np.ndarray, count: int):
    """(start, after) for a trace of `count` bumps over `energy`: `start`,
    the correctly rounded sum of ``energy[:, 0]`` as an array of one, and
    ``after(bumps)``, that of each state after the next of the `bumps`.
    Bump j moves one task from flat cell ``bumps[j]``, the one it is at, to
    the next cell.  The cells of `energy` must be finite and nonnegative,
    so that no state's total is negative.

    Each cell is split into integer-valued float64 digits (`_grains`), so
    a state's exact sum is one running sum per digit: the start column's,
    then a cumsum of each bump's new minus old digits, every partial sum
    exact, carried from one call of `after` to the next.  `_round` rounds
    each state's digit sums once.  Bumps are taken `_CHUNK` at a time,
    fewer when the ladder needs more than 4 digits.
    """
    cells = energy.ravel()
    n = len(energy)
    grains = _grains(cells, n + 2 * count)
    rows = max(1, _CHUNK * 4 // max(len(grains), 4))
    running = np.zeros((len(grains), 1))
    for lo in range(0, n, rows):
        running += _split(energy[lo:lo + rows, 0], grains).sum(axis=1, keepdims=True)

    def after(bumps: np.ndarray) -> np.ndarray:
        nonlocal running
        totals = np.empty(len(bumps))
        for lo in range(0, len(bumps), rows):
            cell = bumps[lo:lo + rows]
            digits = _split(cells.take(np.concatenate((cell + 1, cell))), grains)
            sums = np.cumsum(digits[:, :len(cell)] - digits[:, len(cell):], axis=1)
            sums += running
            running = sums[:, -1:]
            totals[lo:lo + len(cell)] = _round(sums, grains)
        return totals
    return _round(running, grains), after


def _fsum(values: np.ndarray) -> float:
    """`math.fsum` of the nonnegative `values`, inf past the float range."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:  # a partial sum passed the range, and the total only grows
        return math.inf


def _ladder(init: float, step: float, most: int = MAX_LADDER_CELLS) -> np.ndarray:
    """Ratios a task passes through: `init`, then ``r + step`` until pinned
    at 1.0.  At most `most` + 2 ratios are built: a ladder longer than
    `most` may come back cut, still longer than `most`."""
    if init >= 1.0:
        return np.array([1.0])
    n = min(64, most + 1)
    while True:  # add.accumulate adds in order, as ``r += step`` does
        rs = np.full(n + 1, step)
        rs[0] = init
        np.add.accumulate(rs, out=rs)
        top = np.flatnonzero((rs[1:] >= 1.0 - _SNAP) | (rs[1:] == rs[:-1]))
        if top.size:  # pinned, or stuck where ``+ step`` no longer moves the ratio
            rs = rs[:top[0] + 2]
            if rs[-1] >= 1.0 - _SNAP:
                rs[-1] = 1.0
            return rs
        if n > most:
            return rs
        n = min(2 * n, most + 1)  # not pinned yet: build twice as many


def _stalls(energy: np.ndarray) -> np.ndarray:
    """Each task's first level whose bump does not lower its energy, or the
    top level, which has no bump."""
    improving = np.zeros(energy.shape, dtype=bool)
    np.less(energy[:, 1:], energy[:, :-1], out=improving[:, :-1])
    return improving.argmin(axis=1)


def _picks(energy: np.ndarray, count: int):
    """Yield the first `count` flat cells of one run's `energy` in pick
    order, `_ROWS` at a time: each task's cells up to and including its
    first non-improving bump, by falling energy; flat cells are task-major,
    so the stable sort of a band, whose cells are listed in flat order,
    breaks ties by task index.  A band holds every cell of its energies, so
    the bands in turn give the order of one stable sort of all the cells."""
    width = energy.shape[1]
    flat = energy.ravel()
    stop = np.minimum(_stalls(energy) + 1, width - 1)
    held = np.empty(0, dtype=np.intp)  # sorted cells not yet yielded
    for lo, hi in _bands(flat, width, np.zeros(len(energy), dtype=np.intp), stop):
        if not count:
            break
        band = _sorted_band(flat, width, lo, hi)[:count]
        count -= len(band)
        held = np.concatenate((held, band))
        del band
        while len(held) >= _ROWS:
            yield held[:_ROWS]
            held = held[_ROWS:]
    if len(held):
        yield held


def _sorted_band(flat: np.ndarray, width: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The flat cells ``[lo[i], hi[i])`` of each row i by falling energy,
    ties in flat order."""
    rows = np.flatnonzero(hi > lo)
    runs = hi[rows] - lo[rows]
    starts = rows * width + lo[rows] - (np.cumsum(runs) - runs)
    cells = np.repeat(starts, runs) + np.arange(runs.sum())
    return cells.take(_stable_argsort(np.negative(flat.take(cells))))


def _bands(flat: np.ndarray, width: int, lo: np.ndarray, hi: np.ndarray):
    """Yield (lo, hi) per band of the cells ``[lo[i], hi[i])`` of each row
    i of the (rows, `width`) `flat`, highest energies first.

    Those cells strictly fall along each row, so the cells at or above an
    energy are a run at the start of each row's range, whose end a binary
    search finds.  A range of more than `_BAND` cells that do not all tie
    is cut at pivots, energies drawn from a strided sample of its cells,
    and each part is cut again in turn; equal energies always share a part.
    """
    rows = np.flatnonzero(hi > lo)
    runs = hi[rows] - lo[rows]
    size = int(runs.sum())
    first, last = rows * width + lo[rows], rows * width + hi[rows] - 1
    if size <= _BAND or flat.take(first).max() == flat.take(last).min():
        yield lo, hi
        return
    # ranks stride by size / phi modulo size, which no row length aliases
    ranks = np.arange(8 * size // _BAND) * int(size * 0.6180339887498949) % size
    ends = np.cumsum(runs)
    at = np.searchsorted(ends, ranks, side="right")
    sample = np.sort(flat.take(first.take(at) + ranks - (ends - runs).take(at)))
    # every 4th of the sample, about 2 pivots per _BAND cells; one that ties
    # the lowest energy would cut nothing off, so the highest stands in
    pivots = sample[2::4][::-1]
    pivots = pivots[np.r_[True, pivots[1:] != pivots[:-1]]]  # each energy once
    pivots = pivots[pivots > flat.take(last).min()]
    for pivot in pivots if len(pivots) else [flat.take(first).max()]:
        edge = _edge(flat, width, lo, hi, pivot)
        yield from _bands(flat, width, lo, edge)
        lo = edge
    yield from _bands(flat, width, lo, hi)


def _edge(flat: np.ndarray, width: int, lo: np.ndarray, hi: np.ndarray,
          pivot: float) -> np.ndarray:
    """``lo`` plus, for each row, how many of its cells ``[lo, hi)``, which
    strictly fall, are at or above `pivot`: a binary search per row."""
    rows = np.flatnonzero(hi > lo)
    end = hi.take(rows)
    pos = lo.take(rows)
    base = rows * width - 1
    step = 1 << int((end - pos).max()).bit_length() - 1
    while step:  # pos grows while the cell before it stays at or above the pivot
        at = np.minimum(pos + step, end)
        np.copyto(pos, at, where=flat.take(base + at) >= pivot)
        step >>= 1
    edge = lo.copy()
    edge[rows] = pos
    return edge


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``keys.argsort(kind="stable")``.

    Distinct keys have one sorted order, so numpy's default sort, which is
    faster, gives it.  Only where two sorted neighbours are equal (0.0 and
    -0.0 included) are the keys sorted again, stably.
    """
    order = np.argsort(keys)
    ranked = keys.take(order)
    if (ranked[1:] == ranked[:-1]).any():
        return np.argsort(keys, kind="stable")
    return order


def optimize_packed(scenario: Scenario, groups: int, config: GreedyConfig):
    """The greedy run of each of `groups` equal groups of consecutive tasks
    of `scenario`, every group run as a scenario of its own.

    Returns each task's final ratio and energy, each group's evaluation
    count and whether it saturated, the endpoints and the ratio ladder.

    Only the rows of tasks that can leave their start are built.  Let A be
    a group's highest start energy e0 among tasks whose first bump fails
    (``not e1 < e0``), -inf if there is none.  Such a task's failing cell
    is its start, so A <= e_F.  A task's computed cells strictly fall up to
    its stall, so all of them are <= e0.  A task with e0 < A thus has its
    failing cell, if any, below e_F, and no improving cell at or above
    e_F: it neither sets F nor ties it, and its level is 0.  Every other
    task ("live") gets its ladder row, and the stop is found on those rows
    alone; every group keeps at least the task that sets A, or all of its
    tasks when A is -inf.  The pruning compares the computed floats
    themselves, so it changes no result.
    """
    n = len(scenario.tasks) // groups
    rs = config.ladder(n)
    local, offload = task_energy_endpoints(scenario)
    first = energy_at(local[:, None], offload[:, None], rs[:2])  # levels 0 and 1
    e_start = first[:, 0]
    for total in map(_fsum, e_start.reshape(groups, n)):
        if not math.isfinite(total):
            raise ValueError(f"the starting total energy is {total}")

    stuck = ~(first[:, 1] < e_start) if len(rs) > 1 else np.zeros(len(e_start), dtype=bool)
    bar = np.where(stuck, e_start, -np.inf).reshape(groups, n).max(axis=1)  # each group's A
    rows = np.flatnonzero(e_start.reshape(groups, n) >= bar[:, None])
    energy = energy_at(local[rows, None], offload[rows, None], rs)  # (live tasks, levels)
    group = rows // n
    counts = np.bincount(group, minlength=groups)
    at = np.cumsum(counts) - counts  # each group's first live row

    # F, a group's stop: its failing cell of highest energy, the lowest task
    # on a tie; a group without one has e_F = -inf
    top = len(rs) - 1
    stall = _stalls(energy)
    tasks = np.arange(len(energy))
    e_fail = np.where(stall < top, energy[tasks, stall], -np.inf)
    e_stop = np.maximum.reduceat(e_fail, at)
    t_stop = np.minimum.reduceat(np.where(e_fail == e_stop[group], tasks, len(tasks)),
                                 at)[group]
    # a task's improving cells come before F in pick order while their energy
    # is above e_F, or equal to it in a task below F's
    cells, e_task = energy[:, :-1], e_stop[group, None]
    ahead = np.where((tasks < t_stop)[:, None], cells >= e_task, cells > e_task)
    ahead &= np.arange(top) < stall[:, None]
    level = np.zeros(len(local), dtype=np.intp)
    level[rows] = ahead.sum(axis=1)
    per_task = e_start.copy()
    per_task[rows] = energy[tasks, level[rows]]

    saturated = e_stop > -np.inf
    evaluations = level.reshape(groups, n).sum(axis=1) + saturated + 1
    return rs[level], per_task, evaluations, saturated, (local, offload), rs


def optimize(scenario: Scenario, config: GreedyConfig) -> OffloadSolution:
    """Run the greedy descent and return the best ratio vector seen."""
    n = len(scenario.tasks)
    if n == 0:
        raise ValueError("scenario has no tasks to optimize")
    ratios, per_task, evaluations, saturated, endpoints, rs = optimize_packed(scenario, 1, config)
    return OffloadSolution(
        offload_ratios=ratios,
        per_task_energy=per_task,
        total_energy=_fsum(per_task),
        termination=TERMINATION_SATURATED if saturated[0] else TERMINATION_CONVERGED,
        evaluations=int(evaluations[0]),
        ladder=rs,
        endpoints=endpoints,
    )


def write_trace_csv(solution: OffloadSolution, path) -> None:
    """Dump the evaluation trace, a chunk at a time as `OffloadSolution.trace`
    makes it; the initial row carries task_index -1."""
    def chunks():
        done = 0
        for totals, tasks in solution.trace():
            yield range(done, done + len(totals)), totals, tasks
            done += len(totals)
    write_chunks(path, ["iteration", "total_energy_j", "task_index"], chunks())
