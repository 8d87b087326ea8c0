"""Greedy improvement of per-task offload ratios.

Every task starts at the same offload ratio.  Each round picks the
still-adjustable task that is currently the most expensive, and nudges its
ratio one step toward full offload.  The loop keeps going while the system
total strictly improves and stops the first time a probe fails to beat the
best total seen, so the returned vector is always the best one evaluated.

Only one task changes per bump, so the loop keeps a max-heap of
``(-energy, index)`` over the tasks with ratio < 1 (ties go to the lowest
index) and updates the bumped task's ratio and energy in place.  A failed
probe is undone in O(1) instead of copying the best vectors on every bump.
The system total is still re-summed with ``np.add.reduce`` over all n
energies on each bump: a running total would round differently, which
would change the trace bytes and could flip the strict-improvement test.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .features import write_rows
from .model import Scenario, energy_at, task_energy_endpoints

TERMINATION_CONVERGED = "converged"    # every ratio pinned at 1.0, nothing left to adjust
TERMINATION_SATURATED = "saturated"    # a probe failed to improve the best total
TERMINATION_ITER_CAPPED = "iter_capped"  # safety bound on adjustments was hit

_SNAP = 1e-12  # ratios this close to 1.0 are pinned exactly


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


@dataclass(frozen=True)
class OffloadSolution:
    offload_ratios: np.ndarray
    per_task_energy: np.ndarray
    total_energy: float
    trace_totals: list[float]  # system total after each evaluation
    trace_picks: list[int]  # task bumped just before it, -1 for the first
    termination: str

    @property
    def evaluations(self) -> int:
        return len(self.trace_totals)


def get_total_energy(offload_ratios: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Per-task energies for an explicit ratio vector (one entry per task)."""
    ratios = np.asarray(offload_ratios, dtype=float)
    if ratios.shape != (len(scenario.tasks),):
        raise ValueError(
            f"expected {len(scenario.tasks)} ratios, got shape {ratios.shape}")
    if ratios.size and not (ratios.min() >= 0.0 and ratios.max() <= 1.0):  # NaN fails
        raise ValueError("offload ratios must lie in [0, 1]")
    return energy_at(*task_energy_endpoints(scenario), ratios)


def optimize(scenario: Scenario, config: GreedyConfig) -> OffloadSolution:
    """Run the greedy descent and return the best ratio vector seen."""
    n = len(scenario.tasks)
    if n == 0:
        raise ValueError("scenario has no tasks to optimize")
    max_iters = config.resolve_max_iters(n)
    local_arr, offload_arr = task_energy_endpoints(scenario)
    local, offload = local_arr.tolist(), offload_arr.tolist()
    step = config.step

    init = float(config.init_ratio)
    ratios = [init] * n
    energies = energy_at(local_arr, offload_arr, init)
    heap = [(-e, i) for i, e in enumerate(energies.tolist())] if init < 1.0 else []
    heapq.heapify(heap)

    total = float(np.add.reduce(energies))
    if not math.isfinite(total):
        raise ValueError(f"the starting total energy is {total}")
    totals = [total]
    picks = [-1]
    best_total = math.inf
    undo = None  # (index, ratio, energy) before the latest bump
    bumps = 0

    while True:
        if not total < best_total:
            if undo is not None:
                idx, ratio, energy = undo
                ratios[idx] = ratio
                energies[idx] = energy
            termination = TERMINATION_SATURATED
            break
        best_total = total
        if not heap:
            termination = TERMINATION_CONVERGED
            break
        if bumps >= max_iters:
            termination = TERMINATION_ITER_CAPPED
            break

        neg_energy, idx = heap[0]
        ratio = ratios[idx]
        undo = (idx, ratio, -neg_energy)
        bumped = ratio + step
        ratio = 1.0 if bumped >= 1.0 - _SNAP else bumped
        energy = energy_at(local[idx], offload[idx], ratio)
        ratios[idx] = ratio
        energies[idx] = energy
        if ratio < 1.0:
            heapq.heapreplace(heap, (-energy, idx))
        else:
            heapq.heappop(heap)
        bumps += 1
        total = float(np.add.reduce(energies))
        totals.append(total)
        picks.append(idx)

    return OffloadSolution(
        offload_ratios=np.array(ratios),
        per_task_energy=energies,
        total_energy=float(np.add.reduce(energies)),
        trace_totals=totals,
        trace_picks=picks,
        termination=termination,
    )


def write_trace_csv(solution: OffloadSolution, path) -> None:
    """Dump the evaluation trace; the initial row carries task_index -1."""
    write_rows(path, ["iteration", "total_energy_j", "task_index"],
               [range(solution.evaluations), solution.trace_totals,
                solution.trace_picks])
