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
non-improving pick F (saturated), at `max_iters` (iter_capped), or where
the picks run out (converged).

Where the run ends is found by a threshold, not a sort.  A task has at most
one failing cell, so F is the failing cell of highest energy e_F, the
lowest task on a tie; a task's final level is the count of its improving
cells above e_F, or equal to e_F in a lower task.  Only a run whose count
reaches `max_iters` sorts its picks (one stable argsort) to cut them there.
`optimize_packed` runs the kernel on many scenarios at once, each group of
consecutive tasks on its own, and `optimize` is a batch of one.  The pick
order itself, `OffloadSolution.bumps`, is sorted out when first read.

Every total, `total_energy` and the trace's alike, is the correctly rounded
exact sum of that state's per-task energies: what `math.fsum` returns, or
inf where that sum passes the float range.  The trace totals are worked out
when first read, so runs that only want the ratios never pay for them.
They are exact float64 digit sums, rounded once: every energy is split at
fixed bit boundaries into integer-valued float64 digits (Rump, Ogita &
Oishi, SIAM J. Sci. Comput. 2008), small enough that a `cumsum` of each
digit over the bumps is exact, and each state's digits are rounded as
`math.fsum` rounds its partials (Shewchuk, DCG 1997).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .features import write_rows
from .model import Scenario, energy_at, task_energy_endpoints

TERMINATION_CONVERGED = "converged"    # every ratio pinned at 1.0, nothing left to adjust
TERMINATION_SATURATED = "saturated"    # a bump failed to lower its task's energy
TERMINATION_ITER_CAPPED = "iter_capped"  # safety bound on adjustments was hit
_ENDS = (TERMINATION_CONVERGED, TERMINATION_SATURATED, TERMINATION_ITER_CAPPED)

_SNAP = 1e-12  # ratios this close to 1.0 are pinned exactly
# tasks x ratio levels one run may hold; a run at the cap peaks near 0.25 GB
MAX_LADDER_CELLS = 5_000_000
_CHUNK = 4096  # bumps whose digit sums are held at once, fewer past 4 digits


@dataclass(frozen=True)
class GreedyConfig:
    init_ratio: float = 0.5
    step: float = 0.01
    max_iters: int | None = None  # None: 10 * n_tasks / step, rounded up

    def __post_init__(self):
        if not 0.0 <= self.init_ratio <= 1.0:
            raise ValueError("init_ratio must lie in [0, 1]")
        if not 0.0 < self.step <= 1.0:
            raise ValueError("step must lie in (0, 1]")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1 when set")

    def resolve_max_iters(self, n_tasks: int) -> int:
        if self.max_iters is not None:
            return self.max_iters
        return math.ceil(10.0 * n_tasks / self.step)

    @property
    def nominal_levels(self) -> int:
        """Ratios on the ladder; rounding can make the built one longer."""
        return math.ceil((1.0 - self.init_ratio) / self.step) + 1

    def check_size(self, n_tasks: int, levels: int | None = None) -> None:
        """ValueError when `n_tasks` ladders of `levels` ratios pass
        `MAX_LADDER_CELLS`; `levels` defaults to `nominal_levels`."""
        if levels is None:
            levels = self.nominal_levels
        if n_tasks * levels > MAX_LADDER_CELLS:
            raise ValueError(
                f"greedy: {n_tasks} tasks x {levels} ratio levels is over the cap "
                f"of {MAX_LADDER_CELLS} cells; raise greedy.step or init_ratio")


@dataclass(frozen=True)
class OffloadSolution:
    offload_ratios: np.ndarray
    per_task_energy: np.ndarray
    total_energy: float
    termination: str
    evaluations: int  # states the run visited: the start, then one per bump
    ladder_energy: np.ndarray = field(repr=False)  # (tasks, levels): every energy in reach
    endpoints: tuple[np.ndarray, np.ndarray] = field(repr=False)  # per-task energy at l=0, l=1

    @cached_property
    def bumps(self) -> np.ndarray:
        """Flat index into ladder_energy before each bump, sorted on first read."""
        return _picks(self.ladder_energy)[:self.evaluations - 1]

    @cached_property
    def trace_picks(self) -> np.ndarray:
        """Task bumped just before each evaluation, -1 for the first."""
        return np.r_[-1, self.bumps // self.ladder_energy.shape[1]]

    @cached_property
    def trace_totals(self) -> np.ndarray:
        """System total after each evaluation, computed on first read."""
        return _exact_totals(self.ladder_energy, self.bumps)


def _grains(cells: np.ndarray, terms: int) -> list[int]:
    """Grains of the digits that split every finite cell exactly, top digit
    first, so that sums of `terms` digits stay exact.

    Every |cell| is below 2**top and a multiple of 2**lsb, the last bit of
    the least nonzero one.  Digit j counts units of
    ``max(top - (j + 1) * W, lsb)`` and is below 2**W in magnitude, with
    ``W = 52 - ceil(log2(terms + 1))``, so every sum of `terms` digits is
    an integer below 2**52: exact in float64.
    """
    mag = np.abs(cells)
    tiny = np.min(mag, where=mag != 0.0, initial=np.inf)
    if tiny == np.inf:  # all zeros
        return [0]
    top = int(np.frexp(mag.max())[1])
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
    `sums`, correctly rounded, or a signed inf past the float range.

    After the carries of |total| every digit below the first is
    nonnegative, and the digits scaled back do not overlap, so `math.fsum`'s
    last step rounds them: add them from the top until one rounds, then
    round a tie up when a nonzero digit is left below.  A scaled digit or
    sum past the float range is inf, and so is the total, since the digits
    below only add to it.
    """
    sums = sums.copy()
    _carry(sums, grains)
    negative = sums[0] < 0
    if negative.any():
        np.negative(sums, out=sums, where=negative)
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
        hi = np.where(below & (lo > 0.0) & (up - hi == doubled), up, hi)
    return np.where(negative, -hi, hi)


def _exact_totals(energy: np.ndarray, bumps=np.empty(0, dtype=int)) -> np.ndarray:
    """Correctly rounded sums of ``energy[:, 0]``, then of each state after
    a bump, where bump j moves one task from flat cell ``bumps[j]`` of the
    finite `energy` to the next cell.

    Each cell is split into integer-valued float64 digits (`_grains`), so
    a state's exact sum is one running sum per digit: the start column's,
    then a cumsum of each bump's new minus old digits, every partial sum
    exact.  `_round` rounds each state's digit sums once.  Bumps are taken
    `_CHUNK` at a time, fewer when the ladder needs more than 4 digits.
    """
    cells = energy.ravel()
    n = len(energy)
    grains = _grains(cells, n + 2 * len(bumps))
    rows = max(1, _CHUNK * 4 // max(len(grains), 4))
    running = np.zeros((len(grains), 1))
    for lo in range(0, n, rows):
        running += _split(energy[lo:lo + rows, 0], grains).sum(axis=1, keepdims=True)
    totals = np.empty(len(bumps) + 1)
    totals[:1] = _round(running, grains)
    for lo in range(0, len(bumps), rows):
        cell = bumps[lo:lo + rows]
        digits = _split(cells[np.concatenate((cell + 1, cell))], grains)
        sums = np.cumsum(digits[:, :len(cell)] - digits[:, len(cell):], axis=1)
        sums += running
        running = sums[:, -1:]
        totals[lo + 1:lo + 1 + len(cell)] = _round(sums, grains)
    return totals


def _fsum(values: np.ndarray) -> float:
    """`math.fsum` of the nonnegative `values`, inf past the float range."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:  # a partial sum passed the range, and the total only grows
        return math.inf


def _ladder(init: float, step: float) -> np.ndarray:
    """Ratios a task passes through: `init`, then ``r + step`` until pinned at 1.0."""
    if init >= 1.0:
        return np.array([1.0])
    n = math.ceil((1.0 - init) / step) + 1
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
        n *= 2  # rounding made the steps shorter than `step`


def _stalls(energy: np.ndarray) -> np.ndarray:
    """Each task's first level whose bump does not lower its energy, or the
    top level, which has no bump."""
    improving = np.zeros(energy.shape, dtype=bool)
    np.less(energy[:, 1:], energy[:, :-1], out=improving[:, :-1])
    return improving.argmin(axis=1)


def _picks(energy: np.ndarray) -> np.ndarray:
    """Flat cells of one run's `energy` in pick order: each task's cells up
    to and including its first non-improving bump, by falling energy; flat
    cells are task-major, so the stable sort breaks ties by task index."""
    top = energy.shape[1] - 1
    kept = np.arange(top + 1) < np.minimum(_stalls(energy) + 1, top)[:, None]
    return np.flatnonzero(kept)[np.argsort(-energy[kept], kind="stable")]


def _descend(scenario: Scenario, sizes, config: GreedyConfig):
    """The greedy run of each group of `sizes` (each >= 1) consecutive tasks
    of `scenario`, every group on its own.

    Returns each task's final ratio and energy, the (tasks, levels)
    energies, and each group's evaluation count and index into `_ENDS`.
    """
    config.check_size(max(sizes))
    rs = _ladder(float(config.init_ratio), config.step)
    config.check_size(max(sizes), len(rs))
    local, offload = task_energy_endpoints(scenario)
    energy = energy_at(local[:, None], offload[:, None], rs)  # (tasks, levels)
    starts = np.cumsum(sizes) - sizes
    for lo, n in zip(starts.tolist(), sizes):
        total = _fsum(energy[lo:lo + n, 0])
        if not math.isfinite(total):
            raise ValueError(f"the starting total energy is {total}")

    # F, a group's stop: its failing cell of highest energy, the lowest task
    # on a tie; a group without one has e_F = -inf
    top = len(rs) - 1
    stall = _stalls(energy)
    tasks = np.arange(len(energy))
    e_fail = np.where(stall < top, energy[tasks, stall], -np.inf)
    e_stop = np.maximum.reduceat(e_fail, starts)
    group = np.repeat(np.arange(len(sizes)), sizes)
    t_stop = np.minimum.reduceat(np.where(e_fail == e_stop[group], tasks, len(tasks)),
                                 starts)[group]
    # a task's improving cells come before F in pick order while their energy
    # is above e_F, or equal to it in a task below F's
    cells, e_task = energy[:, :-1], e_stop[group, None]
    ahead = np.where((tasks < t_stop)[:, None], cells >= e_task, cells > e_task)
    ahead &= np.arange(top) < stall[:, None]
    level = ahead.sum(axis=1)

    bumps = np.add.reduceat(level, starts)
    # a cap past every kept cell acts as no cap
    cap = np.array([min(config.resolve_max_iters(n), n * len(rs)) for n in sizes])
    failing = e_stop > -np.inf
    capped = np.where(failing, bumps >= cap, bumps > cap)
    saturated = failing & ~capped
    for g in np.flatnonzero(capped).tolist():  # the first max_iters picks
        lo, n = starts[g], sizes[g]
        picks = _picks(energy[lo:lo + n])[:cap[g]]
        level[lo:lo + n] = np.bincount(picks // len(rs), minlength=n)
    evaluations = np.where(capped, cap, bumps + saturated) + 1
    return (rs[level], energy[tasks, level], energy, evaluations,
            np.where(capped, 2, saturated), (local, offload))


def optimize_packed(scenario: Scenario, sizes, config: GreedyConfig):
    """Ratios and per-task energies that `optimize` gives each group of
    `sizes` consecutive tasks of `scenario`, run as a scenario of its own."""
    return _descend(scenario, sizes, config)[:2]


def optimize(scenario: Scenario, config: GreedyConfig) -> OffloadSolution:
    """Run the greedy descent and return the best ratio vector seen."""
    n = len(scenario.tasks)
    if n == 0:
        raise ValueError("scenario has no tasks to optimize")
    ratios, per_task, energy, evaluations, end, endpoints = _descend(scenario, [n], config)
    return OffloadSolution(
        offload_ratios=ratios,
        per_task_energy=per_task,
        total_energy=_fsum(per_task),
        termination=_ENDS[end[0]],
        evaluations=int(evaluations[0]),
        ladder_energy=energy,
        endpoints=endpoints,
    )


def write_trace_csv(solution: OffloadSolution, path) -> None:
    """Dump the evaluation trace; the initial row carries task_index -1."""
    write_rows(path, ["iteration", "total_energy_j", "task_index"],
               [range(solution.evaluations), solution.trace_totals,
                solution.trace_picks])
