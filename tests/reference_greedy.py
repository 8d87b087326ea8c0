"""Frozen copies of the original greedy and trace writer, kept as test oracles.

Every bump of this `optimize` rebuilds all n energies, masks and argmaxes
them and copies the best vectors.  `offloadlab.greedy.optimize` must make
exactly the same picks, produce bit-identical totals and stop for the same
reason, and `offloadlab.greedy.write_trace_csv` must write the same bytes
as the `csv.writer` version below; the differential tests compare them.
Do not edit the code below.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from helpers import SEProvider
from offloadlab.greedy import (TERMINATION_CONVERGED, TERMINATION_ITER_CAPPED,
                               TERMINATION_SATURATED, GreedyConfig)
from offloadlab.model import Scenario
from reference_datagen import task_energy_endpoints


@dataclass(frozen=True, slots=True)
class TraceEntry:
    iteration: int
    total_energy: float
    adjusted_task_index: int | None  # None on the initial evaluation


@dataclass(frozen=True)
class OffloadSolution:
    offload_ratios: np.ndarray
    per_task_energy: np.ndarray
    total_energy: float
    trace: tuple
    termination: str

    @property
    def evaluations(self) -> int:
        return len(self.trace)


_SNAP = 1e-12  # ratios this close to 1.0 are pinned exactly


def optimize(scenario: Scenario, config: GreedyConfig,
             se_provider: SEProvider) -> OffloadSolution:
    """Run the greedy descent and return the best ratio vector seen."""
    n = len(scenario.tasks)
    if n == 0:
        raise ValueError("scenario has no tasks to optimize")
    max_iters = config.resolve_max_iters(n)
    local, offload = task_energy_endpoints(scenario, se_provider)

    ratios = np.full(n, float(config.init_ratio))
    energies = local * (1.0 - ratios) + offload * ratios
    trace = [TraceEntry(0, float(energies.sum()), None)]

    best_total = math.inf
    best_ratios = ratios.copy()
    best_energies = energies.copy()
    termination = TERMINATION_SATURATED
    bumps = 0

    while True:
        total = float(energies.sum())
        if not total < best_total:
            termination = TERMINATION_SATURATED
            break
        best_total = total
        best_ratios = ratios.copy()
        best_energies = energies.copy()

        adjustable = ratios < 1.0
        if not adjustable.any():
            termination = TERMINATION_CONVERGED
            break
        if bumps >= max_iters:
            termination = TERMINATION_ITER_CAPPED
            break

        idx = int(np.argmax(np.where(adjustable, energies, -np.inf)))
        bumped = ratios[idx] + config.step
        ratios[idx] = 1.0 if bumped >= 1.0 - _SNAP else bumped
        energies = local * (1.0 - ratios) + offload * ratios
        bumps += 1
        trace.append(TraceEntry(bumps, float(energies.sum()), idx))

    return OffloadSolution(
        offload_ratios=best_ratios,
        per_task_energy=best_energies,
        total_energy=float(best_energies.sum()),
        trace=tuple(trace),
        termination=termination,
    )


def write_trace_csv(solution: OffloadSolution, path) -> None:
    """Dump the evaluation trace; the initial row carries task_index -1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "total_energy_j", "task_index"])
        for entry in solution.trace:
            idx = -1 if entry.adjusted_task_index is None else entry.adjusted_task_index
            writer.writerow([entry.iteration, repr(entry.total_energy), idx])
