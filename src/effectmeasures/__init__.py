"""Causal treatment-effect measures: computation, collapsibility, and
trial-to-target generalization.

The names below load with their modules on first access, so importing
the package (or its CLI) does not load NumPy.
"""

_EXPORTS = {
    "errors": (
        "DirectionViolated", "EffectMeasureError", "InvariantViolation",
        "MissingTargetControlOutcome", "NonCollapsible", "NotIdentifiable", "ParseError",
        "SingularDesign", "SupportViolation", "UndefinedMeasure", "UnknownCell",
        "UnknownScenario",
    ),
    "measures": (
        "MeasureKind", "MeasureValue", "OutcomeKind", "OutcomePair", "UndefinedAnnotation",
        "all_measures", "compute_measure", "rr_feasible_baseline", "swap_labels",
    ),
    "strata": (
        "CollapseWeights", "StratifiedDistribution", "Stratum", "check_logic_respecting",
        "collapse", "collapsibility_weights", "is_homogeneous", "marginal_pair",
        "naive_average",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    """PEP 562: import the module that defines ``name`` and bind it here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
