"""Stochastic exponential derivative-free solvers for diffusion SDEs."""

import importlib

from .errors import ConfigError, DegenerateGridError, DomainError, GridError
from .grids import StepGrid, edm_grid, linear_lambda_grid
from .models import DataDistribution, ScoreModel, ZeroModel
from .noise import RngStream
from .phi import phi, sqrt_exp_diff
from .schedules import Edm, Ve, VpCosine, VpLinear, make_schedule
from .solvers import ChurnParams, SampleResult, SolverSpec, StepPlan, sample

__all__ = [
    "ChurnParams",
    "ConfigError",
    "DataDistribution",
    "DegenerateGridError",
    "DomainError",
    "Edm",
    "GaussianFlowOracle",
    "GridError",
    "OrderEstimate",
    "RngStream",
    "SampleResult",
    "ScoreModel",
    "SolverSpec",
    "StepGrid",
    "StepPlan",
    "Ve",
    "VpCosine",
    "VpLinear",
    "ZeroModel",
    "edm_grid",
    "linear_lambda_grid",
    "make_schedule",
    "per_step_compare",
    "phi",
    "sample",
    "sqrt_exp_diff",
    "strong_order",
    "terminal_distribution_check",
    "weak_order",
]

__version__ = "0.1.0"

_HARNESS = ("GaussianFlowOracle", "OrderEstimate", "per_step_compare", "strong_order",
            "terminal_distribution_check", "weak_order")


def __getattr__(name):
    """The harness's names, loaded on first use: a run that only samples never imports it."""
    if name not in _HARNESS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".harness", __name__), name)
