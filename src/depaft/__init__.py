"""Gradient-boosted AFT survival regression under dependent censoring,
with a copula-based data simulator and evaluation metrics."""

from .booster import TrainConfig, TreeEnsemble, load, save, train
from .copula import CopulaSpec, kendall_tau, sample_pairs
from .dataset import SurvivalDataset, read_csv, write_csv
from .distributions import BaselineSpec
from .loss import ClaytonAftLoss, IndependentAftLoss
from .metrics import calibration, concordance, event_mae, evaluate_predictions, mae
from .simulate import DgpConfig, SimulatedDataset, generate, h_function
from .studies import StudyConfig, run_study
from .tuning import CvConfig, grid_search

__all__ = [
    "BaselineSpec",
    "ClaytonAftLoss",
    "CopulaSpec",
    "CvConfig",
    "DgpConfig",
    "IndependentAftLoss",
    "SimulatedDataset",
    "StudyConfig",
    "SurvivalDataset",
    "TrainConfig",
    "TreeEnsemble",
    "calibration",
    "concordance",
    "evaluate_predictions",
    "event_mae",
    "generate",
    "grid_search",
    "h_function",
    "kendall_tau",
    "load",
    "mae",
    "read_csv",
    "run_study",
    "sample_pairs",
    "save",
    "train",
    "write_csv",
]

__version__ = "0.1.0"
