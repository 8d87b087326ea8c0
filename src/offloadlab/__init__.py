"""Energy-optimal computation offloading for edge-served mobile devices.

The package covers the full loop: a per-task energy model with partial
offloading, a mobility-aware spectral efficiency surrogate, a greedy
offload-ratio optimizer, scenario/dataset generation, and a clustered
linear predictor of task energy.
"""

from .cluster import (ClusteredModel, EvalReport, KMeansModel, LinearModel,
                      evaluate_models, fit_linear_model, kmeans_fit, load_model,
                      predict_matrix, save_model, train_clustered_models)
from .features import (CANONICAL_FEATURES, PRIMARY_FEATURES, Dataset,
                       ScalingParams, apply_min_max, fit_min_max,
                       mutual_information, rank_features, split_dataset)
from .datagen import ScenarioSpec, build_dataset, generate_scenario
from .greedy import GreedyConfig, OffloadSolution, optimize, write_trace_csv
from .model import Scenario
from .spectral import (SpectralConfig, SpectralEfficiencyCache, calc_se,
                       doppler_shift)

__version__ = "0.1.0"
