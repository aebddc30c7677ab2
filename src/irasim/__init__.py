"""Asynchronous irregular repetition random access: traffic simulation,
sliding-window SIC decoding and analytical error-floor prediction.

The public names are imported from their modules on first access, so that
``import irasim`` and the analytic commands load no numpy.
"""

import importlib

_PUBLIC = {
    "errorfloor": (
        "CollisionPattern",
        "FloorParams",
        "builtin_catalog",
        "count_configurations",
        "floor_params",
        "load_catalog",
        "plr_floor",
        "vp_count",
        "vulnerable_fraction",
    ),
    "harness": ("ExperimentConfig", "PlrCurve", "parse_config_file", "predict", "sweep", "wilson_interval"),
    "model": ("DegreeDistribution", "SystemConfig", "validate_config"),
    "receiver": ("run_receiver",),
    "traffic": ("TrafficTrace", "generate_trace", "sample_degrees"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_HOME, "__version__"]
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
