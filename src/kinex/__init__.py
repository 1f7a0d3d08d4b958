"""kinex: deterministic kinetic wealth-exchange simulation and analysis.

A seedable agent-based simulator where randomly paired agents exchange a
pool built from their post-savings surpluses, plus the metrics (Gini
index, total exchange, Kendall rank correlation, distribution fits),
parameter-sweep, regression, and country-data layers used to study the
disparity/flow/turnover trade-off.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the submodule that defines it. A name is imported on
# first access (PEP 562), so ``import kinex`` loads no submodule, and the
# analysis names (specs, fits, country data) never load numpy
_SOURCES = {
    "empirical": ("CountryRecord", "DerivedRecord", "GroupFit", "classify_groups", "derive",
                  "fit_groups", "load_countries", "percentile_thresholds"),
    "errors": ("ConfigError", "DegenerateDataError", "KinexError", "ParseError"),
    "exchange": ("RunResult", "run_simulation"),
    "fitting": ("FitResult", "XYPoint", "fit_linear", "flow_gini_ratio_points",
                "tau_vs_flow_points"),
    "metrics": ("GammaFit", "Histogram", "gamma_fit", "gini", "histogram", "kendall_tau",
                "total_exchange"),
    "params": ("SimulationParams", "SweepCell", "SweepSpec"),
    "sweep": ("replicate_seed", "run_sweep"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
