"""Benchmark of the offloadlab CLI: three workloads, timed and traced.

Run from the repository root:

    python3 perfbench/run.py --workload optimize-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client drives `offloadlab.cli.main(argv)` in this process as a closed
loop: an op (one to three CLI invocations on inputs made from the seed;
op i uses seed base + i) starts when the previous one has been checked.
`--trace 0` times the ops; `--trace 1` runs each op untraced and traced,
requires byte-identical outputs and reports per-layer spans and the
tracing overhead.  Every output is checked by `oracle`; an op that exits
non-zero, raises or fails a check counts as failed.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (the metrics BENCHMARK.json lists for the mode).
The line before it, starting with "report ", adds what the result line
has no room for: the environment, the sample count, `fail_ratio`,
`greedy_gap_pct` and `eval_best_mae_j`.  `--workload all` runs every
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SEED_STRIDE = 100_000  # op seeds of one run never reach the next run's

# op sizes; "smoke" is for the benchmark's own tests
SIZES = {
    "full": {"devices": 50, "tasks_per_device": 40, "gen_scenarios": 400,
             "train_scenarios": 40, "predict_scenarios": 400},
    "smoke": {"devices": 5, "tasks_per_device": 4, "gen_scenarios": 4,
              "train_scenarios": 4, "predict_scenarios": 8},
}
ROWS_PER_SCENARIO = (oracle.BALANCED_SCENARIO["n_devices"]
                     * oracle.BALANCED_SCENARIO["tasks_per_device"])

# metrics the result line cannot hold: zero on a correct program, defined
# on only some workloads, or raw times beside the reference-second ones
REPORT_UNITS = {"fail_ratio": "ratio", "greedy_gap_pct": "%", "eval_best_mae_j": "J",
                "wall_s_n": "count", "setup_s_raw": "s", "wall_s_p50_raw": "s",
                "items_per_s_raw": "items/s", "calibration_s": "s"}

# learn runs `evaluate` with the default clustering settings
K_MAX = 10
EVAL_SUBSETS = ("primary", "mi2", "all")
N_FEATURES = len(oracle.DATASET_HEADER) - 1
N_CLUSTERS = 3

# Other tenants of a shared machine change this process's speed by up to a
# half within a minute, far beyond any useful bound.  So every timed
# interval is divided by the time of a fixed calibration kernel run right
# before and after it, and multiplied by the kernel's time on the
# reference machine (2-core Xeon, Python 3.11.7, numpy 2.4.6): the times
# reported are reference seconds.  The kernel never calls the program, so
# a change to the program cannot move it.  Raw times go to the report line.
CALIBRATION_REF_S = 0.025

SETUP_CHILD = """\
import json, sys
from offloadlab import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(1)
"""


class SetupFailed(Exception):
    pass


def _write_balanced_config(path: Path) -> str:
    # JSON is valid YAML, so the config needs no YAML writer
    path.write_text(json.dumps({"scenario": oracle.BALANCED_SCENARIO}) + "\n")
    return str(path)


class OptimizeLarge:
    """`optimize` on 50 x 40 tasks: every task converges to ratio 1, so the
    greedy makes 100,000 bumps, each re-summing all n energies."""

    name = "optimize-large"

    def __init__(self, sizes: dict):
        self.devices = sizes["devices"]
        self.tasks = sizes["tasks_per_device"]

    def prepare(self, work: Path, seed: int) -> list[list[str]]:
        return []

    def inputs_checked(self, work: Path) -> dict:
        return {}

    def op(self, out: Path, seed: int) -> list[list[str]]:
        return [["optimize", "--scenario.n_devices", str(self.devices),
                 "--scenario.tasks_per_device", str(self.tasks),
                 "--seed", str(seed), "--out", str(out)]]

    def check(self, out: Path, seed: int) -> dict:
        return oracle.check_solution(out, seed, self.devices, self.tasks)


class GenDataBalanced:
    """`gen-data` with 400 balanced scenarios of 50 tasks: many small greedy
    runs that stop saturated after a few bumps, plus the sampler and the
    CSV writer."""

    name = "gen-data-balanced"

    def __init__(self, sizes: dict):
        self.scenarios = sizes["gen_scenarios"]

    def prepare(self, work: Path, seed: int) -> list[list[str]]:
        self.config = _write_balanced_config(work / "balanced.yaml")
        return []

    def inputs_checked(self, work: Path) -> dict:
        return {}

    def op(self, out: Path, seed: int) -> list[list[str]]:
        return [["gen-data", "--config", self.config,
                 "--datagen.n_scenarios", str(self.scenarios),
                 "--seed", str(seed), "--out", str(out)]]

    def check(self, out: Path, seed: int) -> dict:
        return oracle.check_dataset(out / "dataset.csv",
                                    self.scenarios * ROWS_PER_SCENARIO)


class Learn:
    """`evaluate`, `train` and `predict` on balanced datasets made at set-up:
    k-means and CSV reading, with no greedy or sampling in the op."""

    name = "learn"

    def __init__(self, sizes: dict):
        self.train_rows = sizes["train_scenarios"] * ROWS_PER_SCENARIO
        self.predict_rows = sizes["predict_scenarios"] * ROWS_PER_SCENARIO
        self.truth = None

    def prepare(self, work: Path, seed: int) -> list[list[str]]:
        config = _write_balanced_config(work / "balanced.yaml")
        self.train = work / "train" / "dataset.csv"
        self.predict = work / "predict" / "dataset.csv"
        return [["gen-data", "--config", config, "--seed", str(seed),
                 "--datagen.n_scenarios", str(self.train_rows // ROWS_PER_SCENARIO),
                 "--out", str(self.train.parent)],
                ["gen-data", "--config", config, "--seed", str(seed + SEED_STRIDE // 2),
                 "--datagen.n_scenarios", str(self.predict_rows // ROWS_PER_SCENARIO),
                 "--out", str(self.predict.parent)]]

    def inputs_checked(self, work: Path) -> dict:
        train = oracle.check_dataset(self.train, self.train_rows)
        predict = oracle.check_dataset(self.predict, self.predict_rows)
        return {key: train[key] + predict[key] for key in ("greedy_total_j", "optimum_j")}

    def op(self, out: Path, seed: int) -> list[list[str]]:
        common = ["--seed", str(seed), "--out", str(out)]
        return [["evaluate", "--dataset_path", str(self.train)] + common,
                ["train", "--dataset_path", str(self.train)] + common,
                ["predict", "--dataset_path", str(self.predict),
                 "--model_path", str(out / "model.json")] + common]

    def check(self, out: Path, seed: int) -> dict:
        # loaded at the first check, so that op 0's peak memory is the program's
        if self.truth is None:
            self.truth = np.loadtxt(self.predict, delimiter=",", skiprows=1, usecols=-1)
        result = oracle.check_learn(out, K_MAX, EVAL_SUBSETS, N_FEATURES, N_CLUSTERS,
                                    self.truth)
        result["items"] = 2 * self.train_rows + self.predict_rows
        return result


WORKLOADS = {cls.name: cls for cls in (OptimizeLarge, GenDataBalanced, Learn)}


def _first_line(path: Path, prefix: str) -> str | None:
    try:
        with open(path) as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith(prefix)), None)
    except OSError:
        return None


def _git_commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int, nproc: int) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": nproc,
            "cpu_model": _first_line(Path("/proc/cpuinfo"), "model name") or "unknown",
            "caches": caches, "git_commit": _git_commit(), "workload_seed": seed}


def calibration_s() -> float:
    """Wall time of a fixed mix like the ops' work: small numpy array
    updates, float formatting and parsing, and a nearest-centroid pass."""
    start = perf_counter()
    x = np.linspace(0.5, 1.5, 2000)
    w = np.linspace(2.0, 1.0, 2000)
    acc = 0.0
    for _ in range(150):
        e = x * 0.7 + w * 0.3
        acc += float(e.sum()) + int(np.argmax(np.where(x < 1.2, e, -np.inf)))
    text = "\n".join(",".join(repr(v) for v in (i * 1.1, i * 0.5, i / 3.0))
                     for i in range(1500))
    acc += sum(float(v) for line in text.splitlines() for v in line.split(","))
    points = np.random.default_rng(0).random((2000, 4))
    for _ in range(10):
        d2 = ((points[:, None, :] - points[None, :10, :]) ** 2).sum(axis=2)
        acc += float(d2.argmin(axis=1).sum())
    return perf_counter() - start


class SpeedGauge:
    """Calibration kernel timed at the boundaries of timed intervals; each
    boundary takes the median of three kernel runs."""

    def __init__(self):
        self.samples = [self._sample()]

    @staticmethod
    def _sample() -> float:
        return statistics.median(calibration_s() for _ in range(3))

    def scale(self) -> float:
        """Factor from seconds measured since the previous boundary to
        reference seconds."""
        self.samples.append(self._sample())
        return CALIBRATION_REF_S / ((self.samples[-2] + self.samples[-1]) / 2)


def set_up(workload, work: Path, seed: int) -> tuple[float, float]:
    """Import the program and make the inputs in a fresh process, several
    times; returns the median wall time, raw and in reference seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    gauge = SpeedGauge()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        start = perf_counter()
        invocations = workload.prepare(work, seed)
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(invocations)],
                              cwd=ROOT, env=env, capture_output=True, text=True)
        raw.append(perf_counter() - start)
        scaled.append(raw[-1] * gauge.scale())
        if proc.returncode != 0:
            raise SetupFailed(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
    return statistics.median(raw), statistics.median(scaled)


def execute(cli, argvs) -> tuple[float, str | None]:
    """Run one op's CLI invocations; returns its wall time and any error."""
    start = perf_counter()
    error = None
    try:
        for argv in argvs:
            code = cli.main(argv)
            if code != 0:
                error = f"{argv[0]} exited {code}"
                break
    except (Exception, SystemExit):
        error = traceback.format_exc(limit=3)
    return perf_counter() - start, error


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_op(cli, workload, out: Path, seed: int, tracer=None, op_id: int = 0):
    """One op in a clean directory: (wall time, peak RSS in MB when its
    commands have ended, check result, error)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argvs = workload.op(out, seed)
    if tracer is None:
        wall, error = execute(cli, argvs)
    else:
        with tracer.installed(op_id):
            wall, error = execute(cli, argvs)
    peak_mb = _peak_rss_mb()
    info = {}
    if error is None:
        try:
            info = workload.check(out, seed)
        except oracle.CheckFailed as exc:
            error = f"check failed: {exc}"
    return wall, peak_mb, info, error


def _same_tree(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def timed_loop(cli, workload, work: Path, base: int, seconds: float) -> dict:
    walls, scaled, items, failed, first, peak_mb = [], [], 0, 0, None, None
    gauge = SpeedGauge()
    deadline = perf_counter() + seconds
    op_id = 0
    while True:
        wall, op_peak_mb, info, error = run_op(cli, workload, work / "op", base + op_id)
        # op 0's, read before any output is checked: the checks' own
        # memory would otherwise set the high-water mark
        peak_mb = peak_mb or op_peak_mb
        walls.append(wall)
        scaled.append(wall * gauge.scale())
        if error is None:
            items += info["items"]
            first = first or info
        else:
            failed += 1
            print(f"op {op_id} failed: {error}", file=sys.stderr)
        op_id += 1
        if perf_counter() >= deadline:
            break
    return {"walls": walls, "scaled": scaled, "items": items, "failed": failed,
            "first": first, "peak_mb": peak_mb,
            "calibration_s": statistics.median(gauge.samples)}


def traced_loop(cli, workload, work: Path, base: int, seconds: float) -> dict:
    """Each op untraced and traced (alternating which goes first); the two
    must write byte-identical files."""
    tracer = tracing.Tracer()
    plain_walls, traced_walls, failed = [], [], 0
    deadline = perf_counter() + seconds
    op_id = 0
    while True:
        seed = base + op_id
        runs = {}
        for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
            out = work / ("traced" if traced else "plain")
            runs[traced] = run_op(cli, workload, out, seed,
                                  tracer if traced else None, op_id)
        errors = [r[3] for r in runs.values() if r[3] is not None]
        if not errors and not _same_tree(work / "plain", work / "traced"):
            errors.append("traced and untraced outputs differ")
        if errors:
            failed += 1
            print(f"op {op_id} failed: {errors[0]}", file=sys.stderr)
        plain_walls.append(runs[False][0])
        traced_walls.append(runs[True][0])
        op_id += 1
        if perf_counter() >= deadline:
            break
    OUT.mkdir(exist_ok=True)
    tracer.write_csv(OUT / f"spans-{workload.name}-seed{base // SEED_STRIDE}.csv")
    return {"tracer": tracer, "plain": plain_walls, "traced": traced_walls,
            "failed": failed}


def layer_values(tracer, plain: list[float], traced: list[float]) -> dict:
    """Per-layer metrics, each a mean per traced op unless a ratio."""
    n = len(traced)
    calls, busy, self_time, layer_self = tracing.layer_stats(tracer.spans)
    counts = tracer.counts
    values = {}
    for _, _, name, _ in tracing.TARGETS:
        values[f"{name}.calls"] = calls[name] / n
        values[f"{name}.busy_s"] = busy[name] / n
        values[f"{name}.self_s"] = self_time[name] / n
    for layer, seconds in layer_self.items():
        values[f"{layer}.self_s"] = seconds / n
    for key in ("greedy.evaluations", "greedy.termination.converged",
                "greedy.termination.saturated", "greedy.termination.iter_capped",
                "greedy.write_trace_csv.bytes", "features.Dataset.to_csv.bytes",
                "features.Dataset.from_csv.rows", "datagen.tasks_sampled",
                "cluster.kmeans_fit.iterations", "cluster.predict_matrix.rows"):
        values[key] = counts[key] / n
    optimize_busy = busy["greedy.optimize"]
    values["greedy.evals_per_s"] = (counts["greedy.evaluations"] / optimize_busy
                                    if optimize_busy else 0.0)
    lookups = calls["spectral.cache"]
    values["spectral.cache.lookups"] = lookups / n
    values["spectral.cache.hit_ratio"] = (tracing.cache_hits(tracer.spans) / lookups
                                          if lookups else 0.0)
    fits = calls["cluster.fit_linear_model"]
    values["cluster.fit_linear_model.degenerate_ratio"] = (
        counts["cluster.fit_linear_model.degenerate"] / fits if fits else 0.0)
    values["trace.op_wall_s"] = sum(plain) / n
    values["trace.overhead_s"] = (sum(traced) - sum(plain)) / n
    values["trace.overhead_pct"] = (sum(traced) / sum(plain) - 1.0) * 100.0
    values["trace.spans"] = len(tracer.spans) / n
    return values


def _emit(definitions: list[dict], values: dict) -> dict:
    missing = [d["name"] for d in definitions if d["name"] not in values]
    if missing:
        raise KeyError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in definitions}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> tuple[dict, dict]:
    """Set up, run and check one workload; returns (result, report)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from offloadlab import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupFailed(f"imported offloadlab from {cli.__file__}, not from {SRC}")

    # the calibration kernel must see the CPU the measured work runs on;
    # set-up children inherit the pinning
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    workload = WORKLOADS[name](SIZES[scale])
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    base = seed * SEED_STRIDE
    try:
        setup_raw_s, setup_s = set_up(workload, work, base)
        loop = (traced_loop if trace else timed_loop)(cli, workload, work, base, seconds)
        # checked after the loop, so that they cannot raise op 0's peak memory
        inputs = workload.inputs_checked(work)
        if trace:
            attempted = len(loop["traced"])
            metrics = _emit(spec["per_layer"],
                            layer_values(loop["tracer"], loop["plain"], loop["traced"]))
            extra = {}
        else:
            attempted = len(loop["walls"])
            # a pure function of the seed: learn's set-up datasets, else the
            # first op (op 0 unless it failed)
            quality = inputs or loop["first"] or {}
            values = {
                "setup_s": setup_s,
                "wall_s_p50": statistics.median(loop["scaled"]),
                "items_per_s": loop["items"] / sum(loop["scaled"]),
                "peak_rss_mb": loop["peak_mb"],
            }
            values["greedy_energy_ratio"] = (quality["greedy_total_j"] / quality["optimum_j"]
                                             if quality else None)
            metrics = _emit(spec["end_to_end"], values)
            extra = {"wall_s_n": attempted, "fail_ratio": loop["failed"] / attempted,
                      "setup_s_raw": setup_raw_s,
                      "wall_s_p50_raw": statistics.median(loop["walls"]),
                      "items_per_s_raw": loop["items"] / sum(loop["walls"]),
                      "calibration_s": loop["calibration_s"]}
            if "optimum_j" in quality:
                extra["greedy_gap_pct"] = oracle.gap_pct(quality["greedy_total_j"],
                                                          quality["optimum_j"])
            if loop["first"] and "best_mae_j" in loop["first"]:
                extra["eval_best_mae_j"] = loop["first"]["best_mae_j"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = loop["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {"workload": name, "trace": int(trace), "environment": environment(seed, len(allowed)),
              "metrics": {key: {"value": value, "unit": REPORT_UNITS[key]}
                          for key, value in extra.items()}}
    return result, report


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; one table of every metric."""
    rows, ok = [], True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        report = json.loads(lines[-2].removeprefix("report "))
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} environment={json.dumps(report['environment'])}")
        for metrics in (result["metrics"], report["metrics"]):
            rows += [(name, key, m["value"], m["unit"]) for key, m in metrics.items()]
    width = max((len(r[1]) for r in rows), default=0)
    for name, key, value, unit in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{name:<18} {key:<{width}} {shown:>14} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "offloadlab" / "cli.py").is_file():
        print(f"error: no offloadlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    try:
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (SetupFailed, oracle.CheckFailed, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
