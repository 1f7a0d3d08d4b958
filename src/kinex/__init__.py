"""kinex: deterministic kinetic wealth-exchange simulation and analysis.

A seedable agent-based simulator where randomly paired agents exchange a
pool built from their post-savings surpluses, plus the metrics (Gini
index, total exchange, Kendall rank correlation, distribution fits),
parameter-sweep, regression, and country-data layers used to study the
disparity/flow/turnover trade-off.
"""

from .empirical import (CountryRecord, DerivedRecord, GroupFit, classify_groups,
                        derive, fit_groups, load_countries, percentile_thresholds)
from .errors import ConfigError, DegenerateDataError, KinexError, ParseError
from .exchange import RunResult, SimulationParams, run_simulation
from .fitting import (FitResult, XYPoint, fit_linear, flow_gini_ratio_points,
                      tau_vs_flow_points)
from .metrics import (GammaFit, Histogram, gamma_fit, gini, histogram,
                      kendall_tau, total_exchange)
from .sweep import SweepCell, SweepSpec, replicate_seed, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CountryRecord", "DegenerateDataError", "DerivedRecord",
    "FitResult", "GammaFit", "GroupFit", "Histogram",
    "KinexError", "ParseError", "RunResult", "SimulationParams",
    "SweepCell", "SweepSpec", "XYPoint", "classify_groups", "derive",
    "fit_groups", "fit_linear", "flow_gini_ratio_points",
    "gamma_fit", "gini", "histogram", "kendall_tau",
    "load_countries", "percentile_thresholds", "replicate_seed",
    "run_simulation", "run_sweep", "tau_vs_flow_points",
    "total_exchange",
]
