"""The package's public names and the one home of each vocabulary enum."""

import importlib
import pkgutil

import pytest

import effectmeasures
from effectmeasures import errors, genmodel, measures, strata, transport, vocab

# Every name the package exported when it imported its modules eagerly,
# by the module that defines it.
EXPORTED = {
    errors: [
        "DirectionViolated", "EffectMeasureError", "InvariantViolation",
        "MissingTargetControlOutcome", "NonCollapsible", "NotIdentifiable", "ParseError",
        "SingularDesign", "SupportViolation", "UndefinedMeasure", "UnknownCell",
        "UnknownScenario",
    ],
    measures: [
        "MeasureKind", "MeasureValue", "OutcomeKind", "OutcomePair", "UndefinedAnnotation",
        "all_measures", "compute_measure", "rr_feasible_baseline", "swap_labels",
    ],
    strata: [
        "CollapseWeights", "StratifiedDistribution", "Stratum", "check_logic_respecting",
        "collapse", "collapsibility_weights", "is_homogeneous", "marginal_pair",
        "naive_average",
    ],
}
PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names]


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_exported_name_is_the_defining_object(module, name):
    assert getattr(effectmeasures, name) is getattr(module, name)
    assert name in effectmeasures.__all__ and name in dir(effectmeasures)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        effectmeasures.no_such_name


@pytest.mark.parametrize(
    "module, name",
    [
        (measures, "MeasureKind"),
        (measures, "OutcomeKind"),
        (genmodel, "MonotonicityDirection"),
        (transport, "Strategy"),
        (transport, "Learner"),
    ],
)
def test_vocabulary_enum_has_one_home(module, name):
    assert getattr(module, name) is getattr(vocab, name)


# The package and each of its modules that declares ``__all__``.
DECLARING = [effectmeasures] + [
    module
    for info in pkgutil.iter_modules(effectmeasures.__path__)
    if hasattr(module := importlib.import_module(f"effectmeasures.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", DECLARING, ids=[m.__name__ for m in DECLARING])
def test_every_exported_name_resolves(module):
    """A name in ``__all__`` that the module no longer defines, such as a
    deleted function, makes ``from module import *`` fail."""
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
