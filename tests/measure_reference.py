"""Reference measures: the scalar closed forms, one pair and one measure
at a time.

This is ``compute_measure`` as it was written before the measures became
views over the array kernel ``effectmeasures.measures.measure_table``,
kept as the reference the kernel is compared against. It returns the
value as a Python float, or raises ``UndefinedMeasure`` with the same
reason.
"""

import math

from effectmeasures.errors import UndefinedMeasure
from effectmeasures.measures import BINARY_ONLY_MEASURES, MeasureKind, OutcomeKind


def _survival(pair):
    if pair.nonevent is not None:
        return pair.nonevent
    return 1.0 - pair.mu0, 1.0 - pair.mu1


def reference_measure(measure, pair):
    mu0, mu1 = pair.mu0, pair.mu1
    binary = pair.kind is OutcomeKind.BINARY
    if measure in BINARY_ONLY_MEASURES and not binary:
        raise UndefinedMeasure(f"{measure.value} is defined only for binary outcomes")

    if measure is MeasureKind.RD or measure is MeasureKind.NNT:
        if pair.nonevent is None:
            value = mu1 - mu0
        else:
            value = pair.nonevent[0] - pair.nonevent[1]
        if measure is MeasureKind.NNT:
            if value == 0.0:
                raise UndefinedMeasure("NNT diverges at a null effect (mu1 == mu0)")
            value = 1.0 / value
    elif measure is MeasureKind.RR or measure is MeasureKind.ERR:
        if mu0 == 0.0:
            raise UndefinedMeasure("RR requires mu0 != 0")
        value = mu1 / mu0
        if measure is MeasureKind.ERR:
            value -= 1.0
    elif measure is MeasureKind.SR or measure is MeasureKind.RS:
        s0, s1 = _survival(pair)
        if s0 == 0.0:
            raise UndefinedMeasure("SR requires mu0 != 1")
        value = s1 / s0
        if measure is MeasureKind.RS:
            value = 1.0 - value
    else:  # OR, LOG_OR
        s0, s1 = _survival(pair)
        if 0.0 in (mu0, mu1, s0, s1):
            raise UndefinedMeasure("OR requires both probabilities strictly inside (0, 1)")
        value = (mu1 / s1) / (mu0 / s0)
        if measure is MeasureKind.LOG_OR:
            value = math.log(value)

    if not math.isfinite(value):
        raise UndefinedMeasure(f"{measure.value} is not finite for {pair}")
    return value
