"""The CLI outputs keep the SHA-256 digests recorded in golden.sha256.

Covered: optimize at the default size and at 50 x 40 tasks (default and
balanced ranges), both sweeps, default and balanced gen-data (40 and 400
scenarios), and evaluate's MI ranking.  `model.json`,
`eval_*.csv` and `predictions.csv` are left out: their least-squares fits
leave the last bits to the linear algebra library.

After a change that means to alter these bytes, rewrite the digests from
the repository root with
``PYTHONPATH=src python tests/test_golden.py > tests/golden.sha256``.
The file's lines are ``sha256sum``'s, relative to the output directory.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from offloadlab.cli import main

GOLDEN = Path(__file__).with_name("golden.sha256")

# ranges under which local and offload costs compete (tests/helpers.py)
BALANCED = {"scenario": {"n_devices": 5, "tasks_per_device": 10,
                         "cycles_per_bit": [600, 1400], "cpu_freq_hz": [1e9, 1e9],
                         "carrier_freq_hz": [1e9, 3e9], "noise_var_w": [6.6e-3, 6.6e-3]}}
LARGE = ["--scenario.n_devices", "50", "--scenario.tasks_per_device", "40"]

# output directory -> command; "{root}" is the directory that holds them all
RUNS = {
    "optimize": ["optimize"],
    **{f"optimize-50x40-seed{seed}": ["optimize", "--seed", str(seed), *LARGE]
       for seed in (1, 2, 3)},
    "sweep-modulation": ["sweep-modulation"],
    "sweep-datasize": ["sweep-datasize"],
    "gen-data": ["gen-data", "--datagen.n_scenarios", "40"],
    "gen-data-balanced": ["gen-data", "--config", "{root}/balanced.yaml",
                          "--datagen.n_scenarios", "40"],
    # the bench's first gen-data-balanced op: most tasks never leave the start
    "gen-data-balanced-400": ["gen-data", "--config", "{root}/balanced.yaml",
                              "--datagen.n_scenarios", "400", "--seed", "100000"],
    # saturated, with tasks that cannot leave the start: its trace reads a
    # ladder built from the endpoints
    "optimize-balanced-50x40": ["optimize", "--config", "{root}/balanced.yaml", *LARGE],
    # the ranking is made before any fit, so one k and one subset suffice
    "evaluate": ["evaluate", "--dataset_path", "{root}/gen-data/dataset.csv",
                 "--clustering.k_max", "1", "--clustering.feature_subsets", "primary"],
}
LEFT_OUT = {"evaluate/eval_primary.csv"}


def digests(root: Path) -> dict[str, str]:
    """Run every command of RUNS under `root`; the digest of each output
    by its path relative to `root`."""
    (root / "balanced.yaml").write_text(json.dumps(BALANCED) + "\n")
    for name, args in RUNS.items():
        assert main([arg.format(root=root) for arg in args] + ["--out", str(root / name)]) == 0
    paths = (f"{name}/{path.name}" for name in RUNS for path in sorted((root / name).iterdir()))
    return {path: hashlib.sha256((root / path).read_bytes()).hexdigest()
            for path in paths if path not in LEFT_OUT}


def test_outputs_keep_their_recorded_digests(tmp_path):
    recorded = dict(line.split("  ")[::-1] for line in GOLDEN.read_text().splitlines())
    assert digests(tmp_path) == recorded


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        for path, digest in digests(Path(root)).items():
            print(f"{digest}  {path}")
