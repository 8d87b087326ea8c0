"""Experiment configuration: defaults, YAML files, dotted CLI overrides.

Precedence, lowest to highest: built-in defaults, the config file, then
overrides by dotted name (the command line's flags).  `SCHEMA` is derived
from the dataclass fields: each is one config key with one command-line
option, parsed as its annotation says.  Unknown keys are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace

from .datagen import ScenarioSpec
from .features import check_subsets, subset_entry
from .greedy import GreedyConfig
from .spectral import SpectralConfig


class ConfigError(ValueError):
    pass


Subsets = tuple  # feature subsets: keywords or tuples of feature names


@dataclass(frozen=True)
class ClusteringConfig:
    k_max: int = 10
    num_clusters: int = 3
    bins: int = 16
    test_fraction: float = 0.25
    restarts: int = 10
    feature_subsets: Subsets = ("primary", "mi:2", "all")

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("clustering.k_max must be >= 1")
        if self.num_clusters < 1:
            raise ValueError("clustering.num_clusters must be >= 1")
        if self.bins < 2:
            raise ValueError("clustering.bins must be >= 2")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("clustering.test_fraction must lie in (0, 1)")
        if self.restarts < 1:
            raise ValueError("clustering.restarts must be >= 1")
        try:
            check_subsets(self.feature_subsets)
        except ValueError as exc:
            raise ValueError(f"clustering.feature_subsets: {exc}") from None


@dataclass(frozen=True)
class SweepConfig:
    speed_grid: tuple = (100.0, 200.0, 300.0, 400.0)
    carrier_freq_grid: tuple = (28e9,)
    data_size_grid: tuple = (1e6, 2e6, 4e6, 8e6, 16e6)

    def __post_init__(self):
        for name in ("speed_grid", "carrier_freq_grid", "data_size_grid"):
            if not getattr(self, name):
                raise ValueError(f"sweeps.{name} must not be empty")
        if not all(0.0 <= speed < math.inf for speed in self.speed_grid):
            raise ValueError("sweeps.speed_grid must hold finite speeds >= 0")
        if not all(0.0 < freq < math.inf for freq in self.carrier_freq_grid):
            raise ValueError("sweeps.carrier_freq_grid must hold finite frequencies > 0")
        if not all(0.0 <= size < math.inf for size in self.data_size_grid):
            raise ValueError("sweeps.data_size_grid must hold finite sizes >= 0")


@dataclass(frozen=True)
class DatagenConfig:
    n_scenarios: int = 20

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ValueError("datagen.n_scenarios must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "out"
    dataset_path: str | None = None
    model_path: str | None = None
    scenario: ScenarioSpec = ScenarioSpec()
    spectral: SpectralConfig = SpectralConfig()
    greedy: GreedyConfig = GreedyConfig()
    clustering: ClusteringConfig = ClusteringConfig()
    sweeps: SweepConfig = SweepConfig()
    datagen: DatagenConfig = DatagenConfig()

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.greedy.ladder(self.scenario.n_tasks)


def _int(v) -> int:
    if isinstance(v, bool):
        raise ConfigError(f"expected an integer, got {v!r}")
    try:
        out = int(v)  # text is read in base 10: '02' is 2, '0x10' is refused
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        raise ConfigError(f"expected an integer, got {v!r}") from None
    if isinstance(v, float) and v != out:
        raise ConfigError(f"expected an integer, got {v!r}")
    return out


def _float(v) -> float:
    if not isinstance(v, bool):  # YAML reads yes/no/on/off as booleans
        try:
            return float(v)
        except (TypeError, ValueError, OverflowError):  # float(10 ** 400) overflows
            pass
    raise ConfigError(f"expected a number, got {v!r}")


def _opt(parse):
    def inner(v):
        if v is None or (isinstance(v, str) and v.lower() in ("", "none", "null")):
            return None
        return parse(v)
    return inner


def _floats(v) -> tuple:
    if isinstance(v, str):
        parts = [p for p in v.split(",") if p.strip()]
    elif isinstance(v, (list, tuple)):
        parts = v
    else:
        raise ConfigError(f"expected a list of numbers, got {v!r}")
    return tuple(_float(p) for p in parts)


def _range(v) -> tuple:
    pair = _floats(v)
    if len(pair) != 2:
        raise ConfigError(f"expected 'lo,hi', got {v!r}")
    return pair


def _subsets(v) -> tuple:
    """Feature subset list: keywords or explicit name lists.

    From the command line: semicolon-separated groups, comma-separated
    names inside a group, e.g. ``primary;mi:2;TaskSize,Speed``; each group
    is read by `features.subset_entry`.
    """
    if isinstance(v, str):
        entries = [e for e in v.split(";") if e.strip()]
    elif isinstance(v, (list, tuple)):
        entries = list(v)
    else:
        raise ConfigError(f"expected feature subsets, got {v!r}")
    out = []
    for entry in entries:
        if isinstance(entry, str):
            names = [n.strip() for n in entry.split(",") if n.strip()]
            if names:
                out.append(subset_entry(names))
        elif isinstance(entry, (list, tuple)):
            out.append(tuple(str(n) for n in entry))
        else:
            raise ConfigError(f"bad feature subset entry {entry!r}")
    if not out:
        raise ConfigError("feature_subsets must not be empty")
    return tuple(out)


# a field's annotation text -> the parser of its values
_PARSERS = {"int": _int, "float": _float, "str": str, "str | None": _opt(str),
            "Range": _range, "tuple": _floats, "Subsets": _subsets}

# dotted field name -> its parser, in field order: the top-level fields, then
# ``section.field`` for each field whose default is a dataclass, a section
SCHEMA = {
    **{top.name: _PARSERS[top.type] for top in fields(ExperimentConfig)
       if not is_dataclass(top.default)},
    **{f"{top.name}.{leaf.name}": _PARSERS[leaf.type] for top in fields(ExperimentConfig)
       if is_dataclass(top.default) for leaf in fields(top.default)},
}


def _flatten(tree: dict) -> dict:
    """`tree`'s leaves by dotted name, at most two deep (``section.field``):
    a mapping below that is a value.  A name filled twice is a ConfigError."""
    flat = {}
    for key, value in tree.items():
        if isinstance(value, dict) and f"{key}" not in SCHEMA:
            pairs = [(f"{key}.{leaf}", inner) for leaf, inner in value.items()]
        else:
            pairs = [(f"{key}", value)]
        for dotted, leaf_value in pairs:
            if dotted in flat:
                raise ConfigError(f"config file gives {dotted!r} twice")
            flat[dotted] = leaf_value
    return flat


def load_config(path=None, overrides=None) -> ExperimentConfig:
    """Assemble the effective configuration.

    `overrides` maps dotted field names to raw values (typically strings
    from the command line) and wins over the file at `path`.
    """
    data = {}
    if path is not None:
        import yaml  # only a config file needs it: keeps it off every command's start-up

        class Loader(yaml.SafeLoader):  # refuses a key given twice in one mapping
            paths = {}  # id of a mapping's node -> its dotted path and a dot

            def construct_mapping(self, node, deep=False):
                seen = set()
                for key, value in node.value:
                    dotted = f"{self.paths.get(id(node), '')}{key.value}"
                    if dotted in seen:
                        raise ConfigError(f"config file gives {dotted!r} twice "
                                          f"(line {key.start_mark.line + 1})")
                    seen.add(dotted)
                    self.paths[id(value)] = f"{dotted}."
                return super().construct_mapping(node, deep)

        try:
            with open(path, encoding="utf-8") as fh:
                data = yaml.load(fh, Loader=Loader)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from None
        except RecursionError:  # PyYAML composes nested nodes recursively
            raise ConfigError(f"config file {path} is nested too deeply") from None
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a mapping at the top level")

    # lowest precedence first: the file, then the overrides
    given = {}  # section name, or '' at the top level -> its given fields
    for dotted, value in [*_flatten(data).items(), *(overrides or {}).items()]:
        if dotted not in SCHEMA:
            raise ConfigError(f"unknown config field {dotted!r}")
        try:
            value = SCHEMA[dotted](value)
        except ConfigError as exc:
            raise ConfigError(f"{dotted}: {exc}") from None
        section, _, name = dotted.rpartition(".")
        given.setdefault(section, {})[name] = value

    try:  # each section is its default with the given fields replaced
        return ExperimentConfig(**given.pop("", {}),
                                **{f.name: replace(f.default, **given[f.name])
                                   for f in fields(ExperimentConfig) if f.name in given})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
