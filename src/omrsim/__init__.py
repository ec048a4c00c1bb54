"""Simulator and analytical engine for OFDM-based multihop relaying (OMR)."""

from .analytic import (
    IntDist,
    ProgressModel,
    calibrate_progress,
    p_j,
    p_j_pmf,
    run_recursion,
)
from .baseline import BclConfig, BclResult, run_bcl
from .channel import DetectionConstant, PhyConfig, detection_constant
from .config import ExperimentSpec, load_config, parse_config
from .engine import (
    RetransmitPolicy,
    TrialResult,
    rach_round,
    run_trial,
    run_two_packet_trial,
)
from .field import Deployment, FieldConfig, Point2D, Strip, deploy
from .metrics import e2e_delay, edp_and_cost, hop_energy, mcs_table, trial_e2e

__all__ = [
    "IntDist",
    "ProgressModel",
    "calibrate_progress",
    "p_j",
    "p_j_pmf",
    "run_recursion",
    "BclConfig",
    "BclResult",
    "run_bcl",
    "DetectionConstant",
    "PhyConfig",
    "detection_constant",
    "ExperimentSpec",
    "load_config",
    "parse_config",
    "RetransmitPolicy",
    "TrialResult",
    "rach_round",
    "run_trial",
    "run_two_packet_trial",
    "Deployment",
    "FieldConfig",
    "Point2D",
    "Strip",
    "deploy",
    "e2e_delay",
    "edp_and_cost",
    "hop_energy",
    "mcs_table",
    "trial_e2e",
]

__version__ = "0.1.0"
