"""Command line front end.

Every subcommand reads one effective configuration (defaults, optional
YAML file, then flags) and writes CSV or JSON files
into the output directory.  Nothing here depends on wall-clock time or
unseeded randomness, so a repeated invocation with the same inputs
reproduces its outputs byte for byte.  Set OFFLOADLAB_LOG=DEBUG|INFO|...
to turn on diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cluster, datagen, greedy
from .config import SCHEMA, ConfigError, ExperimentConfig, load_config
from .features import (TARGET_COLUMN, Dataset, feature_index, rank_features,
                       read_csv_matrix, resolve_subset, split_dataset, subset_label,
                       subset_pool, write_rows)

log = logging.getLogger("offloadlab")

SOLUTION_FILE = "solution.json"
TRACE_FILE = "trace.csv"
SWEEP_MODULATION_FILE = "sweep_modulation.csv"
SWEEP_DATASIZE_FILE = "sweep_datasize.csv"
DATASET_FILE = "dataset.csv"
MODEL_FILE = "model.json"
PREDICTIONS_FILE = "predictions.csv"
MI_RANKING_FILE = "mi_ranking.csv"


def _setup_logging() -> None:
    name = os.environ.get("OFFLOADLAB_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr, force=True,
                        format="%(levelname)s %(name)s: %(message)s")


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_optimize(cfg: ExperimentConfig) -> list[Path]:
    scenario = datagen.generate_scenario(cfg.scenario, cfg.spectral)
    solution = greedy.optimize(scenario, cfg.greedy)
    log.info("optimize: %d tasks, %d evaluations, termination=%s",
             len(scenario.tasks), solution.evaluations, solution.termination)
    payload = {
        "termination": solution.termination,
        "evaluations": solution.evaluations,
        "total_energy_j": solution.total_energy,
        "offload_ratios": [float(r) for r in solution.offload_ratios],
        "per_task_energy_j": [float(e) for e in solution.per_task_energy],
    }
    out = _out_dir(cfg)
    solution_path = out / SOLUTION_FILE
    with open(solution_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    trace_path = out / TRACE_FILE
    greedy.write_trace_csv(solution, trace_path)
    return [solution_path, trace_path]


def _sweep_point(cfg: ExperimentConfig, pins: dict) -> tuple[float, float]:
    """Greedy and all-local total energy of the config's scenario with `pins` set."""
    scenario = datagen.generate_scenario(replace(cfg.scenario, **pins), cfg.spectral)
    solution = greedy.optimize(scenario, cfg.greedy)
    with np.errstate(over="ignore"):  # an overflow is the ValueError below
        all_local = float(solution.endpoints[0].sum())
    if not np.isfinite(all_local):
        raise ValueError(f"the all-local total energy is {all_local}")
    return solution.total_energy, all_local


def cmd_sweep_modulation(cfg: ExperimentConfig) -> list[Path]:
    grid = [(speed, carrier) for speed in cfg.sweeps.speed_grid
            for carrier in cfg.sweeps.carrier_freq_grid]
    energies = [_sweep_point(cfg, {"speed_mps": (speed, speed),
                                   "carrier_freq_hz": (carrier, carrier)})
                for speed, carrier in grid]
    path = _out_dir(cfg) / SWEEP_MODULATION_FILE
    write_rows(path, ["speed_mps", "carrier_freq_hz", "total_energy_j"],
               [*zip(*grid), [energy for energy, _ in energies]])
    return [path]


def cmd_sweep_datasize(cfg: ExperimentConfig) -> list[Path]:
    sizes = cfg.sweeps.data_size_grid
    energies = [_sweep_point(cfg, {"data_bits": (size, size)}) for size in sizes]
    gaps = [baseline - energy for energy, baseline in energies]
    path = _out_dir(cfg) / SWEEP_DATASIZE_FILE
    write_rows(path, ["data_size_bits", "greedy_energy_j", "all_local_energy_j", "gap_j"],
               [sizes, *zip(*energies), gaps])
    return [path]


def cmd_gen_data(cfg: ExperimentConfig) -> list[Path]:
    specs = [replace(cfg.scenario, seed=cfg.scenario.seed + i)
             for i in range(cfg.datagen.n_scenarios)]
    dataset = datagen.build_dataset(specs, cfg.greedy, cfg.spectral)
    log.info("gen-data: %d rows from %d scenarios", len(dataset), len(specs))
    path = _out_dir(cfg) / DATASET_FILE
    dataset.to_csv(path)
    return [path]


def cmd_train(cfg: ExperimentConfig) -> list[Path]:
    if cfg.dataset_path is None:
        raise ValueError("train needs dataset_path (or --dataset_path)")
    dataset = Dataset.from_csv(cfg.dataset_path)
    try:  # errors from here on are about the dataset's values
        for entry in cfg.clustering.feature_subsets[1:]:  # trains on the first, checks all
            subset_pool(entry, dataset)
        subset = resolve_subset(cfg.clustering.feature_subsets[0], dataset,
                                cfg.clustering.bins)
        model = cluster.train_clustered_models(
            dataset, cfg.clustering.num_clusters, subset,
            seed=cfg.clustering.seed, restarts=cfg.clustering.restarts)
    except ValueError as exc:
        raise ValueError(f"{cfg.dataset_path}: {exc}") from None
    log.info("train: %d rows, k=%d, features=%s",
             len(dataset), cfg.clustering.num_clusters, ",".join(subset))
    path = _out_dir(cfg) / MODEL_FILE
    cluster.save_model(model, path)
    return [path]


def cmd_predict(cfg: ExperimentConfig) -> list[Path]:
    if cfg.model_path is None:
        raise ValueError("predict needs model_path (or --model_path)")
    if cfg.dataset_path is None:
        raise ValueError("predict needs dataset_path (or --dataset_path)")
    model = cluster.load_model(cfg.model_path)
    names, X = read_csv_matrix(cfg.dataset_path)
    truth = None
    if names[-1] == TARGET_COLUMN:
        names, X, truth = names[:-1], X[:, :-1], X[:, -1]
    preds = cluster.predict_matrix(model, X[:, feature_index(names, model.feature_subset)])
    header, columns = ["row", "energy_pred_j"], [range(len(preds)), preds]
    if truth is not None:
        header, columns = header + ["energy_true_j"], columns + [truth]
    path = _out_dir(cfg) / PREDICTIONS_FILE
    write_rows(path, header, columns)
    return [path]


def cmd_evaluate(cfg: ExperimentConfig) -> list[Path]:
    if cfg.dataset_path is None:
        raise ValueError("evaluate needs dataset_path (or --dataset_path)")
    dataset = Dataset.from_csv(cfg.dataset_path)
    reports = []
    try:  # errors from here on are about the dataset's values
        train, test = split_dataset(dataset, cfg.clustering.test_fraction,
                                    cfg.clustering.seed)
        ranking = rank_features(train, bins=cfg.clustering.bins)
        for entry in cfg.clustering.feature_subsets:
            subset = resolve_subset(entry, train, ranking=ranking)
            report = cluster.evaluate_models(
                train, test, cfg.clustering.k_max, subset,
                seed=cfg.clustering.seed, restarts=cfg.clustering.restarts)
            log.info("evaluate: subset=%s best k=%d", subset_label(entry),
                     report.best_k()[0])
            reports.append((entry, report))
    except ValueError as exc:
        raise ValueError(f"{cfg.dataset_path}: {exc}") from None
    out = _out_dir(cfg)
    ranking_path = out / MI_RANKING_FILE
    write_rows(ranking_path, ["feature", "mi_bits"], list(zip(*ranking)))
    written = [ranking_path]
    for entry, report in reports:
        path = out / f"eval_{subset_label(entry)}.csv"
        report.to_csv(path)
        written.append(path)
    return written


_COMMANDS = {
    "optimize": (cmd_optimize, "greedy offload-ratio optimization of one scenario"),
    "sweep-modulation": (cmd_sweep_modulation, "total energy across a speed/carrier grid"),
    "sweep-datasize": (cmd_sweep_datasize, "greedy vs all-local energy across task sizes"),
    "gen-data": (cmd_gen_data, "sample scenarios and emit a feature/target dataset"),
    "train": (cmd_train, "fit the clustered energy predictor on a dataset CSV"),
    "predict": (cmd_predict, "apply a trained model to a feature CSV"),
    "evaluate": (cmd_evaluate, "k-sweep error report per feature subset"),
}


# config keys with a listed option: (option strings, metavar, help); every
# other key is a hidden --<key> option
_LISTED = {
    "seed": (("--seed",), "N", "global seed"),
    "out_dir": (("--out", "--out_dir"), "DIR", "output directory"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML config file")
    for dotted in SCHEMA:
        names, metavar, help_text = _LISTED.get(
            dotted, ((f"--{dotted}",), "VALUE", argparse.SUPPRESS))
        common.add_argument(*names, dest=dotted, metavar=metavar, help=help_text)
    parser = argparse.ArgumentParser(
        prog="offloadlab",
        description="Energy-optimal computation offloading experiments.",
        epilog="Any config field can be overridden with --<section>.<field> VALUE.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text,
                       epilog="Config fields are overridable as --<section>.<field> VALUE.")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k in SCHEMA and v is not None}
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    command = _COMMANDS[args.command][0]
    try:
        written = command(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        log.info("wrote %s", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
