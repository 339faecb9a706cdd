"""Fuzzy recurrent stochastic configuration networks.

A library and CLI for nonlinear system identification with incrementally
grown echo-state sub-reservoirs, one per fuzzy rule, plus online readout
adaptation and a seeded benchmark harness.
"""

from .dataset import (
    NormalizationStats,
    TimeSeriesDataset,
    add_gaussian_noise,
    fit_normalization,
    generate_plant_sequence,
    load_csv,
    plant_response,
)
from .errors import (
    CsvParseError,
    DegenerateDataError,
    InputRangeError,
    ModelFormatError,
    SchemaError,
    UndefinedMetricError,
)
from .evaluation import (
    GridSearchResult,
    TrialResult,
    TrialSummary,
    emit_report,
    grid_search,
    nrmse,
    run_trials,
)
from .fuzzy import FcmConfig, FuzzyRuleBank, fire_strength_matrix, fire_strengths, fit_fcm
from .model import (
    EsnConfig,
    FrscnModel,
    PredictionSession,
    load_model,
    predict,
    save_model,
    stacked_features,
    stacked_readout,
    train_fesn,
    train_frscn,
)
from .online import OnlineState, contraction_diagnostic, init_online, online_step, run_online
from .reservoir import SubReservoir, max_singular_value, rescale_triangular, spectral_radius
from .trainer import ScConfig, TrainReport, evaluate_xi, fit_readout, train_sub_reservoir

__version__ = "0.1.0"

__all__ = [
    "CsvParseError",
    "DegenerateDataError",
    "EsnConfig",
    "FcmConfig",
    "FrscnModel",
    "FuzzyRuleBank",
    "GridSearchResult",
    "InputRangeError",
    "ModelFormatError",
    "NormalizationStats",
    "OnlineState",
    "PredictionSession",
    "ScConfig",
    "SchemaError",
    "SubReservoir",
    "TimeSeriesDataset",
    "TrainReport",
    "TrialResult",
    "TrialSummary",
    "UndefinedMetricError",
    "add_gaussian_noise",
    "contraction_diagnostic",
    "emit_report",
    "evaluate_xi",
    "fire_strength_matrix",
    "fire_strengths",
    "fit_fcm",
    "fit_normalization",
    "fit_readout",
    "generate_plant_sequence",
    "grid_search",
    "init_online",
    "load_csv",
    "load_model",
    "max_singular_value",
    "nrmse",
    "online_step",
    "plant_response",
    "predict",
    "rescale_triangular",
    "run_online",
    "run_trials",
    "save_model",
    "spectral_radius",
    "stacked_features",
    "stacked_readout",
    "train_fesn",
    "train_frscn",
    "train_sub_reservoir",
]
